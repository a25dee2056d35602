//! `DurableDb`: an [`EpistemicDb`] whose commits survive crashes.
//!
//! # Protocol
//!
//! **Log-before-apply.** A durable commit runs the core transaction's
//! `prepare` phase (validation, delta reduction, model maintenance,
//! constraint verification — everything that can fail), appends the
//! effective delta to the WAL under the commit's LSN, and only then
//! publishes the prepared state. Consequences:
//!
//! * a record reaches the log only for transactions that *will* commit —
//!   rejected batches leave no trace;
//! * a crash between append and publish loses nothing: the in-memory
//!   state dies with the process and recovery replays the record;
//! * a crash mid-append leaves a torn tail the next [`DurableDb::recover`]
//!   truncates — by the fsync policy's contract that transaction had not
//!   been acknowledged as durable.
//!
//! **What a failed step leaves.** The sequence is written here and
//! nowhere else — [`ServingDb`](crate::ServingDb)'s writer thread owns a
//! `DurableDb` and commits through it — and a step's error says how it
//! ended:
//!
//! * [`PersistError::Db`] — the database refused before anything was
//!   logged (a constraint is registered on a copy first, as a commit is
//!   prepared); log and state are as they were;
//! * [`PersistError::Io`] — the append failed and the log is back at its
//!   pre-append mark: this operation alone failed;
//! * [`PersistError::Corrupt`] — the rewind that compensates for a failed
//!   append failed too, or a [`DurableDb::sync`] or the log rewrite of a
//!   [`DurableDb::compact`] failed: the log can no longer
//!   be trusted to end where its accounting says, and a record appended
//!   now could sit behind a gap recovery cuts at. The `DurableDb` cuts
//!   the file back through a fresh handle (best effort) and **refuses
//!   every further mutation** with `Corrupt`, while queries through
//!   `Deref` keep answering; [`DurableDb::recover`] on the directory,
//!   which reads what the disk really holds, is the way back.
//!
//! **Recovery replays the real commit path, a record whole or not at
//! all.** [`DurableDb::recover`] loads the newest valid snapshot (falling
//! back across corrupt ones, and to genesis when none survive) and
//! replays every log record past its LSN as it was made — one
//! `constraint` through `EpistemicDb::add_constraint`, or `retract` /
//! `assert` ops as one `Transaction::commit` — so recovered state
//! re-verifies its constraints and maintains the incremental model
//! exactly as the live path would. A directory that cannot give back
//! every commit it acknowledged is refused with `Corrupt` rather than
//! recovered short: when the log resumes past the base snapshot's LSN +
//! 1, when a snapshot that failed validation covers records the log no
//! longer holds, or when a record has another shape or is refused (the
//! error names its LSN).
//! `tests/prop_persist.rs` pins this: crash anywhere, recover, and the
//! state equals an in-memory oracle that applied the surviving prefix —
//! under seeded fault schedules too: what answered `Ok` is there, what
//! answered `Err` is not.

use crate::fault::FaultInjector;
use crate::snapshot::Snapshot;
use crate::wal::{FsyncPolicy, TornTail, Wal, WalOp, WAL_FILE};
use epilog_core::db::DbError;
use epilog_core::{CommitReport, EpistemicDb, Transaction};
use epilog_syntax::{Formula, Theory};
use std::fmt;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Errors from the durability layer.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying storage failed.
    Io(io::Error),
    /// The database refused the operation (constraint violation,
    /// ill-formed sentence, …) — state and log are unchanged.
    Db(DbError),
    /// A file exists but cannot be trusted (bad checksum, bad framing,
    /// inconsistent contents, a log record that does not replay) — or a
    /// live [`DurableDb`]'s log cannot and it refuses writes until
    /// recovered (module docs).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Db(e) => write!(f, "{e}"),
            PersistError::Corrupt(why) => write!(f, "corrupt durable state: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<DbError> for PersistError {
    fn from(e: DbError) -> Self {
        PersistError::Db(e)
    }
}

/// What [`DurableDb::recover`] found and did. Every record past the
/// snapshot was replayed whole: a record that does not replay makes
/// `recover` fail instead.
#[derive(Debug)]
pub struct RecoveryReport {
    /// LSN of the snapshot recovery started from (`None`: no snapshot at
    /// all — replayed from an empty database).
    pub snapshot_lsn: Option<u64>,
    /// Snapshot files that failed validation and were skipped.
    pub snapshots_skipped: u32,
    /// Log records replayed (those with `lsn > snapshot_lsn`).
    pub records_replayed: u64,
    /// The torn tail, when the log did not end on a record boundary.
    pub torn_tail: Option<TornTail>,
    /// Bytes discarded by the torn-tail truncation.
    pub truncated_bytes: u64,
    /// The database's LSN after recovery.
    pub last_lsn: u64,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.snapshot_lsn {
            Some(lsn) => write!(f, "snapshot @{lsn}")?,
            None => write!(f, "no snapshot")?,
        }
        write!(
            f,
            " + {} records replayed -> LSN {}",
            self.records_replayed, self.last_lsn
        )?;
        if let Some(t) = &self.torn_tail {
            write!(f, "; {t} ({} bytes dropped)", self.truncated_bytes)?;
        }
        Ok(())
    }
}

/// What [`DurableDb::compact`] reclaimed.
#[derive(Debug, Clone, Copy)]
pub struct CompactStats {
    /// LSN of the snapshot the compaction wrote.
    pub snapshot_lsn: u64,
    /// Log records dropped (now covered by the snapshot).
    pub records_dropped: u64,
    /// Log bytes reclaimed.
    pub bytes_reclaimed: u64,
    /// Older snapshot files deleted.
    pub snapshots_removed: usize,
}

/// A durable [`EpistemicDb`]: every commit is written ahead to a log, and
/// [`DurableDb::recover`] rebuilds the exact state from disk.
///
/// Queries pass through via `Deref<Target = EpistemicDb>`; mutations do
/// **not** — they must go through [`DurableDb::transaction`],
/// [`DurableDb::assert`], [`DurableDb::retract`], or
/// [`DurableDb::add_constraint`] so the log stays ahead of the state.
pub struct DurableDb {
    db: EpistemicDb,
    log: Log,
    dir: PathBuf,
}

/// The log a durable step writes to, and whether it can still be trusted
/// to end where its accounting says (see the module docs).
struct Log {
    wal: Wal,
    /// Why not, once a compensation or a sync has failed.
    untrusted: Option<String>,
}

impl Log {
    fn trusted(&self) -> Result<(), PersistError> {
        match &self.untrusted {
            None => Ok(()),
            Some(why) => Err(PersistError::Corrupt(why.clone())),
        }
    }

    /// Stop trusting the log (the first reason given stays).
    fn distrust(&mut self, why: String) -> PersistError {
        PersistError::Corrupt(self.untrusted.get_or_insert(why).clone())
    }

    /// Append one record, or leave the log at its pre-append mark (a
    /// torn prefix would corrupt every later record).
    fn append(&mut self, ops: &[WalOp]) -> Result<u64, PersistError> {
        self.trusted()?;
        let mark = self.wal.mark();
        let appended = self.wal.append(ops);
        appended.map_err(|e| self.compensate(mark, PersistError::Io(e)))
    }

    /// Put the log back at `mark` after `failed` — which stays the
    /// answer unless the rewind fails too.
    fn compensate(&mut self, mark: (u64, u64), failed: PersistError) -> PersistError {
        match self.rewind(mark) {
            Ok(()) => failed,
            Err(e) => self.distrust(format!(
                "{failed}, and the log rewind failed ({e}); recover the directory"
            )),
        }
    }

    /// [`Wal::rewind`]; if the log's own handle (or its injector) cannot,
    /// cut the file through a fresh one, best effort: nothing past the
    /// mark was acknowledged, and a later crash must not replay it.
    fn rewind(&mut self, mark: (u64, u64)) -> io::Result<()> {
        let rewound = self.wal.rewind(mark.0, mark.1);
        if rewound.is_err() {
            let _ = Wal::truncate_after(self.wal.path(), mark.1 - 1);
        }
        rewound
    }

    fn sync(&mut self) -> Result<(), PersistError> {
        self.trusted()?;
        let synced = self.wal.sync();
        synced.map_err(|e| {
            let _ = self.distrust(format!("log sync failed ({e}); recover the directory"));
            PersistError::Io(e)
        })
    }
}

impl Deref for DurableDb {
    type Target = EpistemicDb;

    fn deref(&self) -> &EpistemicDb {
        &self.db
    }
}

impl DurableDb {
    /// Initialize a durable database at `dir` (created if absent) with an
    /// initial theory. Writes the genesis snapshot (LSN 0) and an empty
    /// log. Fails if `dir` already holds a log — an existing database
    /// must go through [`DurableDb::recover`].
    pub fn create(
        dir: impl AsRef<Path>,
        theory: Theory,
        policy: FsyncPolicy,
    ) -> Result<DurableDb, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        if dir.join(WAL_FILE).exists() {
            return Err(PersistError::Corrupt(format!(
                "{} already holds a write-ahead log; use DurableDb::recover",
                dir.display()
            )));
        }
        let db = EpistemicDb::new(theory);
        let _ = Snapshot::of(&db, 0, false).write(&dir)?;
        let wal = Wal::create(dir.join(WAL_FILE), policy)?;
        let log = Log {
            wal,
            untrusted: None,
        };
        Ok(DurableDb { db, log, dir })
    }

    /// Rebuild the database from `dir`: newest valid snapshot + replay of
    /// the log tail through the real commit path, torn tail truncated,
    /// stray temp files deleted — or `Corrupt` (module docs).
    pub fn recover(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(DurableDb, RecoveryReport), PersistError> {
        let dir = dir.as_ref().to_path_buf();
        crate::remove_temps(&dir)?;
        let snaps = Snapshot::list(&dir)?;
        let mut snapshots_skipped = 0u32;
        let mut base: Option<Snapshot> = None;
        // Newest first.
        for (_, path) in snaps.iter().rev() {
            match Snapshot::load(path) {
                Ok(s) => {
                    base = Some(s);
                    break;
                }
                Err(PersistError::Corrupt(_)) => snapshots_skipped += 1,
                Err(e) => return Err(e),
            }
        }
        let snapshot_lsn = base.as_ref().map(|s| s.lsn);
        let from = snapshot_lsn.unwrap_or(0);
        let (mut wal, scan) = Wal::open(dir.join(WAL_FILE), policy)?;
        let tail = &scan.records[scan.records.partition_point(|r| r.lsn <= from)..];
        // Commits the base does not hold and the log no longer does were
        // acknowledged and are gone: refuse rather than recover short and
        // let the next commit reuse their LSNs.
        if let Some(first) = tail.first().filter(|r| r.lsn > from + 1) {
            return Err(PersistError::Corrupt(format!(
                "the log resumes at LSN {} but recovery starts from LSN {from}",
                first.lsn
            )));
        }
        let reaches = scan.last_lsn().max(from);
        // The skipped snapshots are the newest files.
        match snaps.last() {
            Some(&(newest, _)) if snapshots_skipped > 0 && newest > reaches => {
                return Err(PersistError::Corrupt(format!(
                    "snapshot @{newest} failed validation and the log reaches only LSN {reaches}"
                )));
            }
            _ => {}
        }
        let mut db = match &base {
            Some(s) => s.restore()?,
            None => EpistemicDb::new(Theory::empty()),
        };
        for record in tail {
            replay_record(&mut db, &record.ops).map_err(|why| {
                PersistError::Corrupt(format!(
                    "the log record at LSN {} does not replay: {why}",
                    record.lsn
                ))
            })?;
        }
        wal.bump_next_lsn(from + 1);
        let report = RecoveryReport {
            snapshot_lsn,
            snapshots_skipped,
            records_replayed: tail.len() as u64,
            torn_tail: scan.torn,
            truncated_bytes: scan.truncated_bytes,
            last_lsn: wal.last_lsn(),
        };
        let log = Log {
            wal,
            untrusted: None,
        };
        Ok((DurableDb { db, log, dir }, report))
    }

    /// Open a durable transaction: the durable twin of
    /// [`EpistemicDb::transaction`].
    pub fn transaction(&mut self) -> DurableTransaction<'_> {
        DurableTransaction {
            txn: self.db.transaction(),
            log: &mut self.log,
        }
    }

    /// Durably assert one sentence (a single-operation transaction).
    pub fn assert(&mut self, w: Formula) -> Result<(), PersistError> {
        self.transaction().assert(w).commit().map(|_| ())
    }

    /// Durably retract one sentence. Returns whether it was present.
    pub fn retract(&mut self, w: &Formula) -> Result<bool, PersistError> {
        let report = self.transaction().retract(w.clone()).commit()?;
        Ok(report.retracted > 0)
    }

    /// Route every log append/sync and snapshot write through a
    /// [`FaultInjector`] (`None` restores direct I/O). Deterministic
    /// storage-fault testing; zero-cost when never installed. The
    /// injector rides along into [`crate::ServingDb::start`].
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.log.wal.set_fault_injector(injector);
    }

    /// Register an integrity constraint, durably, the way a commit runs:
    /// the registration (and its check of the current state) runs on a
    /// copy of the database, the record is appended only once the copy
    /// accepted it, and then the copy is installed. A refusal — or a
    /// check that panics — leaves log and state as they were.
    pub fn add_constraint(&mut self, ic: Formula) -> Result<(), PersistError> {
        self.log.trusted()?;
        let mut db = self.db.clone();
        db.add_constraint(ic.clone())?;
        let _ = self.log.append(&[WalOp::Constraint(ic)])?;
        self.db = db;
        Ok(())
    }

    /// Write a snapshot of the current state at the current LSN. The log
    /// is synced first so the snapshot never claims records the disk does
    /// not hold. Returns the snapshot's LSN.
    pub fn snapshot(&mut self) -> Result<u64, PersistError> {
        self.log.sync()?;
        let lsn = self.log.wal.last_lsn();
        let injector = self.log.wal.fault_injector();
        let _ = Snapshot::of(&self.db, lsn, false).write_with(&self.dir, injector.as_deref())?;
        Ok(lsn)
    }

    /// Snapshot, then truncate every log record the snapshot covers and
    /// delete older snapshot files — bounding recovery to
    /// snapshot-load + short-tail-replay.
    pub fn compact(&mut self) -> Result<CompactStats, PersistError> {
        let snapshot_lsn = self.snapshot()?;
        let compacted = self.log.wal.compact_through(snapshot_lsn);
        let (records_dropped, bytes_reclaimed) =
            compacted.map_err(|e| self.log.distrust(format!("log compaction failed ({e})")))?;
        let mut snapshots_removed = 0;
        for (lsn, path) in Snapshot::list(&self.dir)? {
            if lsn < snapshot_lsn {
                std::fs::remove_file(path)?;
                snapshots_removed += 1;
            }
        }
        Ok(CompactStats {
            snapshot_lsn,
            records_dropped,
            bytes_reclaimed,
            snapshots_removed,
        })
    }

    /// Force buffered log records to stable storage (a durability point
    /// under `FsyncPolicy::Never`). A failed sync says nothing
    /// about which records the disk holds: the database refuses writes
    /// from then on (module docs).
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.log.sync()
    }

    /// Number of committed records not yet covered by an fsync — the
    /// loss window a crash (not a clean drop, which flushes) would
    /// open under `FsyncPolicy::Never`.
    pub fn pending_unsynced(&self) -> u32 {
        self.log.wal.pending_unsynced()
    }

    /// The wrapped in-memory database (also reachable through `Deref`).
    pub fn db(&self) -> &EpistemicDb {
        &self.db
    }

    /// The directory holding the log and snapshots.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN of the last committed durable operation.
    pub fn last_lsn(&self) -> u64 {
        self.log.wal.last_lsn()
    }

    /// Number of records currently in the log.
    pub fn wal_records(&self) -> u64 {
        self.log.wal.records()
    }

    /// Current log size in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.log.wal.len_bytes()
    }

    /// Why this database refuses writes until its directory is recovered
    /// again (`None`: it does not).
    pub(crate) fn untrusted(&self) -> Option<&str> {
        self.log.untrusted.as_deref()
    }

    /// Where the log stands now, for a later [`DurableDb::roll_back`].
    pub(crate) fn mark(&self) -> (u64, u64) {
        self.log.wal.mark()
    }

    /// Put the log and the state back where they stood at `mark` (`db`
    /// is the state as of then): the group-commit writer's roll-back of a
    /// batch it can no longer acknowledge.
    pub(crate) fn roll_back(&mut self, mark: (u64, u64), db: EpistemicDb) {
        if let Err(e) = self.log.rewind(mark) {
            let _ = self.log.distrust(format!("log roll-back failed ({e})"));
        }
        self.db = db;
    }

    pub(crate) fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.log.wal.fault_injector()
    }

    pub(crate) fn set_fsync_policy(&mut self, policy: FsyncPolicy) {
        self.log.wal.set_policy(policy);
    }
}

/// Replay one log record through the live commit machinery, in one of
/// the two shapes a [`DurableDb`] writes: a single `constraint` op, or
/// `retract`/`assert` ops committed as one transaction. Any other shape,
/// or a refusal, is why the record does not replay.
fn replay_record(db: &mut EpistemicDb, ops: &[WalOp]) -> Result<(), String> {
    if let [WalOp::Constraint(ic)] = ops {
        return db.add_constraint(ic.clone()).map_err(|e| e.to_string());
    }
    let mut txn = db.transaction();
    for op in ops {
        txn = match op {
            WalOp::Assert(w) => txn.assert(w.clone()),
            WalOp::Retract(w) => txn.retract(w.clone()),
            WalOp::Constraint(_) => return Err("a constraint beside other operations".into()),
        };
    }
    txn.commit().map(drop).map_err(|e| e.to_string())
}

/// A batch of updates that will be logged ahead of application — the
/// durable twin of [`Transaction`]. Build it with `assert`/`retract`,
/// then [`DurableTransaction::commit`]; dropping it discards the batch.
#[must_use = "a durable transaction does nothing until commit() — dropping it discards the batch"]
pub struct DurableTransaction<'db> {
    txn: Transaction<'db>,
    log: &'db mut Log,
}

impl DurableTransaction<'_> {
    /// Queue a sentence for assertion.
    #[must_use = "assert only queues — the batch must still be committed"]
    pub fn assert(mut self, w: Formula) -> Self {
        self.txn = self.txn.assert(w);
        self
    }

    /// Queue a sentence for retraction.
    #[must_use = "retract only queues — the batch must still be committed"]
    pub fn retract(mut self, w: Formula) -> Self {
        self.txn = self.txn.retract(w);
        self
    }

    /// Number of queued operations.
    pub fn pending(&self) -> usize {
        self.txn.pending()
    }

    /// Discard the batch (log and state untouched).
    pub fn rollback(self) {}

    /// Validate, log, then apply (see the module docs for the protocol
    /// and what each error leaves). No-op batches commit without touching
    /// the log; refused batches leave neither state nor log changed.
    pub fn commit(self) -> Result<CommitReport, PersistError> {
        self.log.trusted()?;
        let prepared = self.txn.prepare()?;
        if prepared.is_noop() {
            return Ok(prepared.commit());
        }
        let mut ops: Vec<WalOp> =
            Vec::with_capacity(prepared.added().len() + prepared.removed().len());
        ops.extend(prepared.removed().iter().cloned().map(WalOp::Retract));
        ops.extend(prepared.added().iter().cloned().map(WalOp::Assert));
        let _ = self.log.append(&ops)?;
        Ok(prepared.commit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use epilog_core::Answer;
    use epilog_syntax::parse;

    fn dir() -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "epilog-durable-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn f(src: &str) -> Formula {
        parse(src).unwrap()
    }

    /// A registrar-style durable db: rule + constraint + two commits.
    fn populated(d: &Path, policy: FsyncPolicy) -> DurableDb {
        let theory = Theory::from_text("forall x. emp(x) -> person(x)").unwrap();
        let mut db = DurableDb::create(d, theory, policy).unwrap();
        db.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
            .unwrap();
        let _ = db
            .transaction()
            .assert(f("ss(Mary, n1)"))
            .assert(f("emp(Mary)"))
            .commit()
            .unwrap();
        let _ = db
            .transaction()
            .assert(f("ss(Sue, n2)"))
            .assert(f("emp(Sue)"))
            .commit()
            .unwrap();
        db
    }

    fn assert_same_state(a: &EpistemicDb, b: &EpistemicDb) {
        assert_eq!(a.theory(), b.theory());
        assert!(a.constraints().eq(b.constraints()));
        assert_eq!(a.prover().atom_model(), b.prover().atom_model());
    }

    #[test]
    fn recover_replays_to_the_live_state() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::Never] {
            let d = dir();
            let live = populated(&d, policy);
            let live_state = live.db().theory().clone();
            drop(live); // crash: no shutdown ceremony
            let (rec, report) = DurableDb::recover(&d, policy).unwrap();
            assert_eq!(report.snapshot_lsn, Some(0), "genesis snapshot");
            assert_eq!(report.records_replayed, 3, "constraint + 2 commits");
            assert!(report.torn_tail.is_none());
            assert_eq!(rec.theory(), &live_state);
            assert_eq!(rec.ask(&f("K person(Sue)")), Answer::Yes);
            assert!(rec.satisfies_constraints());
            assert_eq!(rec.last_lsn(), 3, "LSNs continue after recovery");
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn rejected_commit_leaves_no_log_record() {
        let d = dir();
        let mut db = populated(&d, FsyncPolicy::Always);
        let records = db.wal_records();
        let err = db
            .transaction()
            .assert(f("emp(Joe)")) // no ss number: violates
            .commit()
            .unwrap_err();
        assert!(matches!(
            err,
            PersistError::Db(DbError::ConstraintViolated(_))
        ));
        assert_eq!(db.wal_records(), records, "no record for a refused batch");
        // And a rejected constraint registration is rewound.
        let err = db.add_constraint(f("forall x. ~K emp(x)")).unwrap_err();
        assert!(matches!(
            err,
            PersistError::Db(DbError::ConstraintViolated(_))
        ));
        assert_eq!(db.wal_records(), records);
        let (rec, _) = DurableDb::recover(&d, FsyncPolicy::Always).unwrap();
        assert_same_state(rec.db(), db.db());
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn noop_commits_are_not_logged() {
        let d = dir();
        let mut db = populated(&d, FsyncPolicy::Never);
        let records = db.wal_records();
        let report = db
            .transaction()
            .assert(f("emp(Mary)")) // already present
            .assert(f("q(c)"))
            .retract(f("q(c)")) // cancels
            .commit()
            .unwrap();
        assert_eq!(report.asserted + report.retracted, 0);
        assert_eq!(db.wal_records(), records);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn snapshot_shortcuts_replay_and_compact_truncates() {
        let d = dir();
        let mut db = populated(&d, FsyncPolicy::Never);
        let lsn = db.snapshot().unwrap();
        assert_eq!(lsn, 3);
        let _ = db
            .transaction()
            .assert(f("hobby(Sue, chess)"))
            .commit()
            .unwrap();
        let live_theory = db.theory().clone();
        drop(db);
        // Snapshot route: only the post-snapshot tail is replayed…
        let (rec, report) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_eq!(report.snapshot_lsn, Some(3));
        assert_eq!(report.records_replayed, 1);
        assert_eq!(rec.theory(), &live_theory);
        // …full replay reaches the same state: what recovery does with
        // a directory that holds the log and the genesis snapshot only.
        let genesis_only = dir();
        std::fs::create_dir_all(&genesis_only).unwrap();
        for file in [WAL_FILE.to_string(), Snapshot::file_name(0)] {
            let _ = std::fs::copy(d.join(&file), genesis_only.join(&file)).unwrap();
        }
        let (full, report) = DurableDb::recover(&genesis_only, FsyncPolicy::Never).unwrap();
        assert_eq!(report.snapshot_lsn, Some(0));
        assert_eq!(report.records_replayed, 4);
        assert_same_state(full.db(), rec.db());
        std::fs::remove_dir_all(genesis_only).unwrap();
        // Compaction drops the covered prefix but preserves the state.
        let mut rec = rec;
        let stats = rec.compact().unwrap();
        assert_eq!(stats.snapshot_lsn, 4);
        assert_eq!(stats.records_dropped, 4);
        assert!(stats.snapshots_removed >= 1, "older snapshots deleted");
        assert_eq!(rec.wal_records(), 0);
        drop(rec);
        let (after, report) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_eq!(report.snapshot_lsn, Some(4));
        assert_eq!(report.records_replayed, 0);
        assert_eq!(after.theory(), &live_theory);
        assert_eq!(after.last_lsn(), 4, "LSNs survive compaction");
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let d = dir();
        let db = populated(&d, FsyncPolicy::Always);
        let state_before_tear = db.theory().clone();
        drop(db);
        // Tear mid-record: chop bytes off the log's end.
        let wal_path = d.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 9]).unwrap();
        let (rec, report) = DurableDb::recover(&d, FsyncPolicy::Always).unwrap();
        let torn = report.torn_tail.expect("tear must be reported");
        assert!(report.truncated_bytes > 0);
        assert_eq!(report.records_replayed, 2, "last record lost to the tear");
        // The recovered state is the pre-tear prefix: Sue's batch is gone.
        assert_ne!(rec.theory(), &state_before_tear);
        assert_eq!(rec.ask(&f("K emp(Sue)")), Answer::No);
        assert_eq!(rec.ask(&f("K person(Mary)")), Answer::Yes);
        assert!(rec.satisfies_constraints());
        assert!(torn.offset > 0);
        // Recovery truncated the file: a second recovery is clean.
        drop(rec);
        let (_, report) = DurableDb::recover(&d, FsyncPolicy::Always).unwrap();
        assert!(report.torn_tail.is_none());
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn corrupt_latest_snapshot_falls_back_to_older() {
        let d = dir();
        let mut db = populated(&d, FsyncPolicy::Never);
        let lsn = db.snapshot().unwrap();
        let live_theory = db.theory().clone();
        drop(db);
        // Corrupt the newest snapshot's payload.
        let path = d.join(Snapshot::file_name(lsn));
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let (rec, report) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_eq!(report.snapshots_skipped, 1);
        assert_eq!(report.snapshot_lsn, Some(0), "fell back to genesis");
        assert_eq!(rec.theory(), &live_theory, "log replay covers the gap");
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn recovery_removes_stray_temp_files() {
        let d = dir();
        let mut db = populated(&d, FsyncPolicy::Never);
        let lsn = db.snapshot().unwrap();
        let _ = db.transaction().assert(f("hobby(Sue, chess)")).commit();
        let live = db.db().clone();
        drop(db);
        let (clean, before) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        drop(clean);
        // What crashes between create and rename leave: garbage, a
        // plausible prefix of a *newer* snapshot, a half-compacted log.
        let snapshot = std::fs::read(d.join(Snapshot::file_name(lsn))).unwrap();
        let strays = [
            d.join("snapshot-00000000000000000002.snap.tmp"),
            d.join(Snapshot::file_name(lsn + 7))
                .with_extension("snap.tmp"),
            d.join("wal.log.tmp"),
        ];
        std::fs::write(&strays[0], b"\x00garbage\xff").unwrap();
        std::fs::write(&strays[1], &snapshot[..snapshot.len() - 11]).unwrap();
        std::fs::write(&strays[2], b"@9 1 00\nassert p(a").unwrap();
        let (rec, after) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_same_state(rec.db(), &live);
        assert_eq!(after.to_string(), before.to_string());
        assert_eq!(
            (
                after.snapshot_lsn,
                after.records_replayed,
                after.snapshots_skipped
            ),
            (Some(lsn), 1, 0)
        );
        for stray in &strays {
            assert!(!stray.exists(), "{} survived recovery", stray.display());
        }
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn create_refuses_an_existing_log() {
        let d = dir();
        let db = populated(&d, FsyncPolicy::Never);
        drop(db);
        let Err(err) = DurableDb::create(&d, Theory::empty(), FsyncPolicy::Never) else {
            panic!("create over an existing log must be refused");
        };
        assert!(matches!(err, PersistError::Corrupt(_)));
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn retractions_and_rule_commits_replay_faithfully() {
        let d = dir();
        let theory = Theory::from_text("e(a, b)\ne(b, c)").unwrap();
        let mut db = DurableDb::create(&d, theory, FsyncPolicy::Always).unwrap();
        let _ = db
            .transaction()
            .assert(f("forall x, y. e(x, y) -> t(x, y)"))
            .assert(f("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)"))
            .commit()
            .unwrap();
        assert!(db.retract(&f("e(b, c)")).unwrap());
        assert!(
            !db.retract(&f("e(b, c)")).unwrap(),
            "absent: no-op, not logged"
        );
        let live_theory = db.theory().clone();
        let live_model = db.prover().atom_model().cloned();
        drop(db);
        let (rec, report) = DurableDb::recover(&d, FsyncPolicy::Always).unwrap();
        assert_eq!(report.records_replayed, 2, "rule batch + retraction");
        assert_eq!(rec.theory(), &live_theory);
        assert_eq!(rec.prover().atom_model().cloned(), live_model);
        assert_eq!(rec.ask(&f("K t(a, b)")), Answer::Yes);
        assert_eq!(rec.ask(&f("K t(a, c)")), Answer::No);
        std::fs::remove_dir_all(d).unwrap();
    }

    /// A one-record database with a scripted injector installed.
    fn injected(d: &Path, policy: FsyncPolicy) -> (DurableDb, Arc<FaultInjector>) {
        let mut db = DurableDb::create(d, Theory::empty(), policy).unwrap();
        db.assert(f("emp(Mary)")).unwrap();
        let inj = Arc::new(FaultInjector::new(7));
        db.set_fault_injector(Some(Arc::clone(&inj)));
        (db, inj)
    }

    /// Acknowledged == durable, read off the disk: recovery sees an
    /// untorn log, every atom whose assertion answered `Ok`, and none
    /// whose assertion answered `Err`.
    fn assert_recovery_honors(d: &Path, answered: &[(&str, bool)]) -> RecoveryReport {
        let (rec, report) = DurableDb::recover(d, FsyncPolicy::Always).unwrap();
        assert!(report.torn_tail.is_none(), "{report}");
        for (atom, ok) in answered {
            let expect = if *ok { Answer::Yes } else { Answer::No };
            assert_eq!(
                rec.ask(&f(&format!("K {atom}"))),
                expect,
                "{atom}; {report}"
            );
        }
        report
    }

    #[test]
    fn a_failed_rewind_after_a_failed_append_costs_no_acknowledged_commit() {
        let d = dir();
        let (mut db, inj) = injected(&d, FsyncPolicy::Always);
        // A's policy sync fails, and so does the sync of its rewind.
        inj.fail_nth_sync(0);
        inj.fail_nth_sync(1);
        let a = db.assert(f("emp(Sue)"));
        assert!(a.is_err());
        let b = db.assert(f("emp(Ann)"));
        drop(db);
        let _ = assert_recovery_honors(
            &d,
            &[
                ("emp(Mary)", true),
                ("emp(Sue)", false),
                ("emp(Ann)", b.is_ok()),
            ],
        );
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_failed_rewind_of_a_refused_constraint_costs_no_acknowledged_commit() {
        let d = dir();
        let (mut db, inj) = injected(&d, FsyncPolicy::Never);
        // The one fault a rewind of a refused record would hit. A refused
        // constraint is never logged, so there is no rewind to fail.
        inj.fail_nth_sync(0);
        let refused = db.add_constraint(f("forall x. ~K emp(x)"));
        assert!(matches!(refused, Err(PersistError::Db(_))), "{refused:?}");
        assert_eq!(inj.injected(), 0);
        let b = db.assert(f("emp(Ann)"));
        drop(db);
        let _ = assert_recovery_honors(&d, &[("emp(Mary)", true), ("emp(Ann)", b.is_ok())]);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_failed_compensation_refuses_writes_until_recovery() {
        let d = dir();
        let (mut db, inj) = injected(&d, FsyncPolicy::Never);
        let acked = db.last_lsn();
        // A torn append whose rewind cannot sync.
        inj.fail_nth_write(inj.writes(), FaultKind::TornWrite);
        inj.fail_nth_sync(inj.syncs());
        let err = db.assert(f("emp(Sue)")).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err}");
        // The disk behaves again; the database still refuses to write…
        inj.disarm();
        let refusals = [
            db.transaction().assert(f("emp(Ann)")).commit().map(|_| ()),
            db.add_constraint(f("forall x. ~K bad(x)")),
            db.snapshot().map(|_| ()),
            db.compact().map(|_| ()),
            db.sync(),
        ];
        for refusal in refusals {
            assert!(
                matches!(refusal, Err(PersistError::Corrupt(_))),
                "{refusal:?}"
            );
        }
        // …keeps answering, at the last acknowledged state…
        assert_eq!(db.last_lsn(), acked);
        assert_eq!(db.ask(&f("K emp(Mary)")), Answer::Yes);
        assert_eq!(db.ask(&f("K emp(Sue)")), Answer::No);
        assert_eq!(db.constraints().len(), 0);
        drop(db);
        // …and recovery lands there, on a clean log, writable again.
        let report = assert_recovery_honors(
            &d,
            &[
                ("emp(Mary)", true),
                ("emp(Sue)", false),
                ("emp(Ann)", false),
            ],
        );
        assert_eq!(report.last_lsn, acked);
        let (mut rec, _) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        rec.assert(f("emp(Ann)")).unwrap();
        assert_eq!(rec.last_lsn(), acked + 1);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_failed_sync_after_the_compaction_rename_refuses_writes_until_recovery() {
        let d = dir();
        let (mut db, inj) = injected(&d, FsyncPolicy::Never);
        db.assert(f("emp(Sue)")).unwrap();
        let acked = db.last_lsn();
        // compact() syncs the log, the snapshot, the directory, the
        // shorter log's temp file, then the directory: fail the last.
        inj.fail_nth_sync(inj.syncs() + 4);
        let err = db.compact().unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err}");
        assert_eq!((inj.injected(), db.wal_records()), (1, 0), "renamed");
        let refused = db.assert(f("emp(Ann)")).unwrap_err();
        assert!(matches!(refused, PersistError::Corrupt(_)), "{refused}");
        drop(db);
        let answered = [("emp(Mary)", true), ("emp(Sue)", true), ("emp(Ann)", false)];
        assert_eq!(assert_recovery_honors(&d, &answered).last_lsn, acked);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_failed_snapshot_directory_sync_fails_the_compaction_alone() {
        let d = dir();
        let (mut db, inj) = injected(&d, FsyncPolicy::Never);
        db.assert(f("emp(Sue)")).unwrap();
        let records = db.wal_records();
        // compact() syncs the log, the snapshot, then the directory the
        // snapshot was renamed into: fail that one.
        inj.fail_nth_sync(inj.syncs() + 2);
        let err = db.compact().unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "got {err}");
        assert_eq!(
            (inj.injected(), db.wal_records()),
            (1, records),
            "truncated"
        );
        db.assert(f("emp(Ann)")).unwrap();
        drop(db);
        let answered = [("emp(Mary)", true), ("emp(Sue)", true), ("emp(Ann)", true)];
        let _ = assert_recovery_honors(&d, &answered);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_gap_behind_a_corrupt_snapshot_is_refused() {
        // Five commits compacted into the only snapshot, then (or not) a
        // sixth in the log; the snapshot is then damaged. Recovering
        // would hold 1 of 6 sentences at LSN 6, or 0 of 5 at LSN 0 with
        // the next commit reusing LSN 1.
        for (tail, lsns) in [(true, ["LSN 6", "LSN 0"]), (false, ["@5", "LSN 0"])] {
            let d = dir();
            let mut db = DurableDb::create(&d, Theory::empty(), FsyncPolicy::Never).unwrap();
            for i in 0..5 {
                db.assert(f(&format!("emp(e{i})"))).unwrap();
            }
            let lsn = db.compact().unwrap().snapshot_lsn;
            if tail {
                db.assert(f("emp(e5)")).unwrap();
            }
            db.sync().unwrap();
            drop(db);
            let path = d.join(Snapshot::file_name(lsn));
            let mut bytes = std::fs::read(&path).unwrap();
            let n = bytes.len();
            bytes[n - 3] ^= 0x04;
            std::fs::write(&path, &bytes).unwrap();
            assert_refused(&d, &lsns);
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    /// `recover` on `d` must refuse with a reason naming each of `lsns`.
    fn assert_refused(d: &Path, lsns: &[&str]) {
        match DurableDb::recover(d, FsyncPolicy::Never) {
            Err(PersistError::Corrupt(why)) => {
                assert!(lsns.iter().all(|l| why.contains(l)), "{why}")
            }
            Err(e) => panic!("{e}"),
            Ok((_, report)) => panic!("recovered short: {report}"),
        }
    }

    #[test]
    fn a_record_that_does_not_replay_whole_is_refused() {
        // Records appended behind the database's back: one the commit path
        // refuses, and a constraint beside an assert, a shape no
        // `DurableDb` writes. Skipping either, or half of the second,
        // would let the next commit take LSN 3 over a state nobody
        // acknowledged.
        let ghost = vec![WalOp::Assert(f("emp(Ghost)"))];
        let mixed = vec![
            WalOp::Constraint(f("forall x. K p(x) -> K q(x)")),
            WalOp::Assert(f("p(a)")),
        ];
        for record in [ghost, mixed] {
            let d = dir();
            let mut db = DurableDb::create(&d, Theory::empty(), FsyncPolicy::Never).unwrap();
            db.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
                .unwrap();
            drop(db);
            let (mut wal, _) = Wal::open(d.join(WAL_FILE), FsyncPolicy::Never).unwrap();
            assert_eq!(wal.append(&record).unwrap(), 2);
            drop(wal);
            assert_refused(&d, &["LSN 2"]);
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn a_constraint_whose_check_panics_leaves_no_record() {
        // Over 100 facts, the violation's one open leaf has 10 unbound
        // variables: `prove` walks 100^10 tuples, which overflows.
        let d = dir();
        let facts: Vec<String> = (0..100).map(|i| format!("p(c{i})")).collect();
        let theory = Theory::from_text(&facts.join("\n")).unwrap();
        let mut db = DurableDb::create(&d, theory, FsyncPolicy::Always).unwrap();
        let xs: Vec<String> = (1..=10).map(|i| format!("x{i}")).collect();
        let ps: Vec<String> = xs.iter().map(|x| format!("p({x})")).collect();
        let poison = f(&format!(
            "forall {}. ~K ({})",
            xs.join(", "),
            ps.join(" | ")
        ));
        let added =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.add_constraint(poison)));
        assert!(added.is_err(), "the domain walk overflows");
        assert_eq!((db.wal_records(), db.constraints().len()), (0, 0));
        db.assert(f("p(b)")).unwrap();
        drop(db);
        let (rec, report) = DurableDb::recover(&d, FsyncPolicy::Always).unwrap();
        assert_eq!(report.records_replayed, 1, "{report}");
        assert_eq!(rec.constraints().len(), 0);
        assert_eq!(rec.ask(&f("K p(b)")), Answer::Yes);
        std::fs::remove_dir_all(d).unwrap();
    }
}
