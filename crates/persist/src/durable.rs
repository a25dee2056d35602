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
//!   append failed too, or a [`DurableDb::sync`] failed, or the directory
//!   sync after a [`DurableDb::compact`] renamed its log into place
//!   failed: the log can no longer
//!   be trusted to end where its accounting says, and a record appended
//!   now could sit behind a gap recovery cuts at. The `DurableDb` cuts
//!   the file back through a fresh handle (best effort) and **refuses
//!   every further mutation** with `Corrupt`, while queries through
//!   `Deref` keep answering; [`DurableDb::recover`] on the directory,
//!   which reads what the disk really holds, is the way back.
//!
//! **One file.** The directory holds `wal.log` and nothing else: its
//! first record is a checkpoint of the whole state (see [`crate::wal`]).
//! [`DurableDb::create`] writes the genesis checkpoint (LSN 0), and
//! [`DurableDb::compact`] replaces the log with a checkpoint of the
//! current state: one write, one fdatasync, one rename and one directory
//! fsync, so a crash leaves the old log or the new one.
//!
//! **Recovery replays the real commit path, a record whole or not at
//! all.** [`DurableDb::recover`] scans the log once, restores its
//! checkpoint ([`Snapshot::restore`]: the theory, then each constraint
//! through `EpistemicDb::add_constraint`) and replays every record after
//! it as it was made — one `constraint` through `add_constraint` again,
//! or `retract` / `assert` ops as one `Transaction::commit` — so
//! recovered state re-verifies every constraint, the checkpoint's
//! included, and maintains the incremental model exactly as the live
//! path would. Only a torn tail *after* the checkpoint is cut. A
//! directory that cannot give back every commit it acknowledged is
//! refused with `Corrupt` rather than recovered short: when `wal.log` is
//! missing, when its checkpoint is damaged or missing (as in a directory
//! written before the log held one, whose state sits in a
//! `snapshot-*.snap` file nothing reads), when a checkpoint sits anywhere
//! but first, when the checkpoint's state violates one of its
//! constraints, when a record passes its checksum but does not decode
//! (it is whole, so no crash left it), or when a record has another
//! shape, has an op that
//! changes nothing (a commit logs its effective delta, so it never writes
//! one), or is refused (the error names its LSN). A refused recovery
//! writes nothing.
//! `tests/prop_persist.rs` pins this: crash anywhere, recover, and the
//! state equals an in-memory oracle that applied the surviving prefix —
//! under seeded fault schedules too: what answered `Ok` is there, what
//! answered `Err` is not.

use crate::fault::FaultInjector;
use crate::snapshot::Snapshot;
use crate::wal::{FsyncPolicy, Line, TornTail, Wal, WalOp, WalRecord, WAL_FILE};
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
/// checkpoint was replayed whole: a record that does not replay makes
/// `recover` fail instead.
#[derive(Debug)]
pub struct RecoveryReport {
    /// LSN of the checkpoint the log begins with.
    pub checkpoint_lsn: u64,
    /// Log records replayed: every record after the checkpoint.
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
        write!(
            f,
            "checkpoint @{} + {} records replayed -> LSN {}",
            self.checkpoint_lsn, self.records_replayed, self.last_lsn
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
    /// LSN of the checkpoint the compaction wrote.
    pub checkpoint_lsn: u64,
    /// Log records dropped (now covered by the checkpoint).
    pub records_dropped: u64,
    /// Log bytes reclaimed (0 when the checkpoint is the larger).
    pub bytes_reclaimed: u64,
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
    fn append(&mut self, ops: &[Line<'_>]) -> Result<u64, PersistError> {
        self.trusted()?;
        let mark = self.wal.mark();
        let appended = self.wal.append_lines(ops);
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
    /// initial theory: a log holding only the genesis checkpoint (LSN 0).
    /// Fails if `dir` already holds a log — an existing database must go
    /// through [`DurableDb::recover`].
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
        let genesis = Snapshot::lines_of(&db);
        let wal = Wal::create_checkpoint(dir.join(WAL_FILE), policy, 0, genesis)?;
        let log = Log {
            wal,
            untrusted: None,
        };
        Ok(DurableDb { db, log, dir })
    }

    /// Rebuild the database from `dir`: restore the log's checkpoint, replay
    /// the records after it through the real commit path, then delete
    /// stray temp files and cut a torn tail — or `Corrupt`, with nothing
    /// written (module docs).
    pub fn recover(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(DurableDb, RecoveryReport), PersistError> {
        let dir = dir.as_ref().to_path_buf();
        let path = dir.join(WAL_FILE);
        let mut scan = match Wal::scan_file(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(PersistError::Corrupt(format!(
                    "{} holds no {WAL_FILE}",
                    dir.display()
                )))
            }
            scanned => scanned?,
        };
        let checkpoint = Snapshot::first_of(&mut scan)?;
        let checkpoint_lsn = checkpoint.lsn;
        let mut db = checkpoint.restore()?;
        let tail = &scan.records[1..];
        for record in tail {
            replay_record(&mut db, record).map_err(|why| {
                PersistError::Corrupt(format!(
                    "the log record at LSN {} does not replay: {why}",
                    record.lsn
                ))
            })?;
        }
        // Nothing is refused from here on: the first writes.
        crate::remove_temps(&dir)?;
        let wal = Wal::open(path, policy, &scan)?;
        let report = RecoveryReport {
            checkpoint_lsn,
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

    /// Route every log append/sync and checkpoint write through a
    /// [`FaultInjector`] (`None` restores direct I/O). Deterministic
    /// storage-fault testing; zero-cost when never installed. The
    /// injector rides along into [`crate::ServingDb::start`].
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.log.wal.set_fault_injector(injector);
    }

    /// Register an integrity constraint, durably, the way a commit runs;
    /// returns whether it was new. The registration (and its check of the
    /// current state) runs on a copy of the database, the record is
    /// appended only once the copy accepted it, and then the copy is
    /// installed. A constraint already registered appends nothing
    /// (`Ok(false)`), as a commit that changes nothing logs nothing. A
    /// refusal — or a check that panics — leaves log and state as they
    /// were.
    pub fn add_constraint(&mut self, ic: Formula) -> Result<bool, PersistError> {
        self.log.trusted()?;
        let mut db = self.db.clone();
        if !db.add_constraint(ic.clone())? {
            return Ok(false);
        }
        let _ = self.log.append(&[Line::constraint(&ic)])?;
        self.db = db;
        Ok(true)
    }

    /// Replace the log with one checkpoint of the current state at the
    /// current LSN: the records it covers are dropped, and recovery
    /// replays nothing until the next commit. One write, one fdatasync,
    /// one rename and one directory fsync; nothing to sync first, since
    /// the checkpoint holds every record the old log did. A failure before
    /// the rename is `Io` and leaves the old log in use; a failed
    /// directory sync after it is `Corrupt` (module docs).
    pub fn compact(&mut self) -> Result<CompactStats, PersistError> {
        self.log.trusted()?;
        let (lsn, records_dropped, bytes) = (self.last_lsn(), self.wal_records(), self.wal_bytes());
        let lines = Snapshot::lines_of(&self.db);
        self.log
            .wal
            .checkpoint(lsn, lines)
            .map_err(|(e, renamed)| {
                if renamed {
                    self.log.distrust(format!(
                        "the compacted log's directory sync failed ({e}); recover the directory"
                    ))
                } else {
                    PersistError::Io(e)
                }
            })?;
        Ok(CompactStats {
            checkpoint_lsn: lsn,
            records_dropped,
            bytes_reclaimed: bytes.saturating_sub(self.wal_bytes()),
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

    /// The directory holding the log.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN of the last committed durable operation.
    pub fn last_lsn(&self) -> u64 {
        self.log.wal.last_lsn()
    }

    /// Number of records in the log after its checkpoint.
    pub fn wal_records(&self) -> u64 {
        self.log.wal.records()
    }

    /// Current log size in bytes, the checkpoint included.
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

/// Replay one log record after the checkpoint through the live commit
/// machinery, in one of the two shapes a [`DurableDb`] writes there: a
/// single `constraint` op, or `retract`/`assert` ops committed as one
/// transaction, each of which changes the state (a commit logs its
/// effective delta). Any other shape (a second checkpoint among them, a
/// record without ops, an op that changes nothing), or a refusal, is why
/// the record does not replay.
fn replay_record(db: &mut EpistemicDb, record: &WalRecord) -> Result<(), String> {
    if record.checkpoint {
        return Err("a checkpoint that is not the log's first record".into());
    }
    let ops = &record.ops;
    // A log written before constraints were deduplicated may register
    // one twice: the repeat replays as the no-op it is now.
    if let [WalOp::Constraint(ic)] = ops.as_slice() {
        return db
            .add_constraint(ic.clone())
            .map(drop)
            .map_err(|e| e.to_string());
    }
    let mut txn = db.transaction();
    for op in ops {
        txn = match op {
            WalOp::Assert(w) => txn.assert(w.clone()),
            WalOp::Retract(w) => txn.retract(w.clone()),
            WalOp::Constraint(_) => return Err("a constraint beside other operations".into()),
        };
    }
    let prepared = txn.prepare().map_err(|e| e.to_string())?;
    let report = prepared.report();
    if ops.is_empty() || report.asserted + report.retracted != ops.len() {
        return Err("an op that changes nothing, or none at all".into());
    }
    let _ = prepared.commit();
    Ok(())
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
        let removed = prepared.removed().iter().map(Line::retract);
        let ops: Vec<Line> = removed
            .chain(prepared.added().iter().map(Line::assert))
            .collect();
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
    use epilog_syntax::theory::TheoryError;

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
            assert_eq!(report.checkpoint_lsn, 0, "genesis checkpoint");
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

    /// Every file in `d`, by name, with its bytes.
    fn files(d: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(d)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect()
    }

    fn names(d: &Path) -> Vec<String> {
        files(d).into_keys().collect()
    }

    #[test]
    fn snapshot_shortcuts_replay_and_compact_truncates() {
        let d = dir();
        let mut db = populated(&d, FsyncPolicy::Never);
        // Kept aside for full replay: the genesis checkpoint, then every
        // record.
        let genesis = d.join("genesis");
        std::fs::create_dir_all(&genesis).unwrap();
        let _ = std::fs::copy(d.join(WAL_FILE), genesis.join(WAL_FILE)).unwrap();
        let stats = db.compact().unwrap();
        assert_eq!((stats.checkpoint_lsn, stats.records_dropped), (3, 3));
        assert!(stats.bytes_reclaimed > 0);
        assert_eq!((db.wal_records(), db.pending_unsynced()), (0, 0));
        let _ = db
            .transaction()
            .assert(f("hobby(Sue, chess)"))
            .commit()
            .unwrap();
        let live_theory = db.theory().clone();
        drop(db);
        // The checkpoint shortcuts replay: only the record after it runs…
        let (rec, report) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_eq!((report.checkpoint_lsn, report.records_replayed), (3, 1));
        assert_eq!(rec.theory(), &live_theory);
        assert_eq!(rec.last_lsn(), 4, "LSNs survive compaction");
        // …and lands where full replay and the same last commit land.
        let (mut full, report) = DurableDb::recover(&genesis, FsyncPolicy::Never).unwrap();
        assert_eq!((report.checkpoint_lsn, report.records_replayed), (0, 3));
        full.assert(f("hobby(Sue, chess)")).unwrap();
        assert_same_state(full.db(), rec.db());
        drop(full);
        std::fs::remove_dir_all(genesis).unwrap();
        // Compacting again drops the tail; the directory is one file.
        let mut rec = rec;
        let stats = rec.compact().unwrap();
        assert_eq!((stats.checkpoint_lsn, stats.records_dropped), (4, 1));
        drop(rec);
        assert_eq!(names(&d), [WAL_FILE]);
        let (after, report) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_eq!((report.checkpoint_lsn, report.records_replayed), (4, 0));
        assert_eq!(after.theory(), &live_theory);
        assert_eq!(after.last_lsn(), 4);
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
    fn recovery_removes_stray_temp_files() {
        let d = dir();
        let mut db = populated(&d, FsyncPolicy::Never);
        let _ = db.compact().unwrap();
        let _ = db.transaction().assert(f("hobby(Sue, chess)")).commit();
        let live = db.db().clone();
        drop(db);
        let (clean, before) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        drop(clean);
        // What crashes between create and rename leave: a plausible prefix
        // of a newer compacted log, and garbage.
        let log = std::fs::read(d.join(WAL_FILE)).unwrap();
        let strays = [d.join("wal.log.tmp"), d.join("other.tmp")];
        std::fs::write(&strays[0], &log[..log.len() - 11]).unwrap();
        std::fs::write(&strays[1], b"\x00garbage\xff").unwrap();
        let (rec, after) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_same_state(rec.db(), &live);
        assert_eq!(after.to_string(), before.to_string());
        assert_eq!((after.checkpoint_lsn, after.records_replayed), (3, 1));
        assert_eq!(names(&d), [WAL_FILE]);
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
            db.add_constraint(f("forall x. ~K bad(x)")).map(drop),
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
        // compact() syncs the checkpoint's temp file, then the directory
        // it was renamed into: fail the second.
        inj.fail_nth_sync(inj.syncs() + 1);
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
    fn a_failure_before_the_compaction_rename_fails_the_compaction_alone() {
        // compact() writes the checkpoint's temp file, then syncs it: fail
        // either, and the old log stays in place and in use.
        for fail_write in [true, false] {
            let d = dir();
            let (mut db, inj) = injected(&d, FsyncPolicy::Never);
            db.assert(f("emp(Sue)")).unwrap();
            let records = db.wal_records();
            let log = std::fs::read(d.join(WAL_FILE)).unwrap();
            if fail_write {
                inj.fail_nth_write(inj.writes(), FaultKind::TornWrite);
            } else {
                inj.fail_nth_sync(inj.syncs());
            }
            let err = db.compact().unwrap_err();
            assert!(matches!(err, PersistError::Io(_)), "got {err}");
            assert_eq!((inj.injected(), db.wal_records()), (1, records));
            assert_eq!(files(&d), [(WAL_FILE.to_string(), log)].into());
            db.assert(f("emp(Ann)")).unwrap();
            drop(db);
            let answered = [("emp(Mary)", true), ("emp(Sue)", true), ("emp(Ann)", true)];
            let report = assert_recovery_honors(&d, &answered);
            assert_eq!((report.checkpoint_lsn, report.records_replayed), (0, 3));
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn compaction_under_every_fault_keeps_acked_equal_durable() {
        // A clean compaction: one write and two syncs (the checkpoint's
        // temp file, then the directory), and nothing else.
        let d = dir();
        let (mut db, inj) = injected(&d, FsyncPolicy::Always);
        let (writes, syncs) = (inj.writes(), inj.syncs());
        let _ = db.compact().unwrap();
        assert_eq!((inj.writes() - writes, inj.syncs() - syncs), (1, 2));
        drop(db);
        std::fs::remove_dir_all(d).unwrap();
        // A fault at each of those. Recovered in place (the failed
        // database still open) or after a crash (dropped), the state is
        // the one before compaction, which is the one after: only the
        // checkpoint's LSN tells them apart.
        let faults = [
            (Some(FaultKind::FailOp), None),
            (Some(FaultKind::TornWrite), None),
            (Some(FaultKind::ShortWrite), None),
            (None, Some(0)),
            (None, Some(1)),
        ];
        for (write, sync) in faults {
            for crash in [false, true] {
                let d = dir();
                let (mut db, inj) = injected(&d, FsyncPolicy::Always);
                db.assert(f("person(Mary)")).unwrap();
                db.add_constraint(f("forall x. K emp(x) -> K person(x)"))
                    .unwrap();
                let _ = db
                    .transaction()
                    .assert(f("emp(Sue)"))
                    .assert(f("person(Sue)"))
                    .commit()
                    .unwrap();
                let acked = db.last_lsn();
                if let Some(kind) = write {
                    inj.fail_nth_write(inj.writes(), kind);
                }
                if let Some(n) = sync {
                    inj.fail_nth_sync(inj.syncs() + n);
                }
                let compacted = db.compact();
                let why = format!("{write:?} {sync:?} crash={crash}: {compacted:?}");
                assert!(compacted.is_err(), "{why}");
                assert_eq!(inj.injected(), 1, "{why}");
                let live = db.db().clone();
                let (rec, report) = if crash {
                    drop(db);
                    DurableDb::recover(&d, FsyncPolicy::Always).unwrap()
                } else {
                    let recovered = DurableDb::recover(&d, FsyncPolicy::Always).unwrap();
                    drop(db);
                    recovered
                };
                assert_same_state(rec.db(), &live);
                assert_eq!(rec.last_lsn(), acked, "{why}");
                let got = (report.checkpoint_lsn, report.records_replayed);
                assert!(got == (0, acked) || got == (acked, 0), "{why}: {report}");
                assert_eq!(names(&d), [WAL_FILE], "{why}");
                let mut rec = rec;
                assert!(rec.assert(f("emp(Ann)")).is_err(), "{why}");
                rec.assert(f("person(Ann)")).unwrap();
                assert_eq!(rec.last_lsn(), acked + 1, "{why}");
                drop(rec);
                std::fs::remove_dir_all(d).unwrap();
            }
        }
    }

    #[test]
    fn refusals_write_nothing() {
        // A stray temp file rides along in each directory: a refused
        // recovery deletes nothing either.
        let refuse = |d: &Path, cause: &str| {
            std::fs::write(d.join("wal.log.tmp"), b"@9 1 00\nassert p(a").unwrap();
            let before = files(d);
            assert_refused(d, &[cause]);
            assert_eq!(files(d), before, "a refused recovery wrote");
        };
        // One byte flipped inside the checkpoint, a commit after it.
        let d = dir();
        let mut db = populated(&d, FsyncPolicy::Never);
        let _ = db.compact().unwrap();
        db.assert(f("hobby(Sue, chess)")).unwrap();
        drop(db);
        let path = d.join(WAL_FILE);
        let checkpoint_end = Wal::scan_file(&path).unwrap().records[0].end_offset;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[checkpoint_end as usize / 2] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        refuse(&d, "checkpoint is damaged");
        std::fs::remove_dir_all(d).unwrap();
        // A directory written before the log began with a checkpoint, as
        // compaction left it: the state in a snapshot file, the log empty…
        let d = dir();
        std::fs::create_dir_all(&d).unwrap();
        let snapshot = "[theory]\nemp(Mary)\n[constraints]\n";
        let header = format!(
            "#epilog-snapshot v1 0 {} {:016x}\n",
            snapshot.len(),
            crate::fnv1a64(snapshot.as_bytes())
        );
        let snapshot_file = d.join("snapshot-00000000000000000000.snap");
        std::fs::write(snapshot_file, header + snapshot).unwrap();
        std::fs::write(d.join(WAL_FILE), b"").unwrap();
        refuse(&d, "snapshot-*.snap");
        // …or a record, not a checkpoint, first in the log.
        std::fs::remove_file(d.join(WAL_FILE)).unwrap();
        let mut wal = Wal::create(d.join(WAL_FILE), FsyncPolicy::Never).unwrap();
        let _ = wal.append(&[WalOp::Assert(f("emp(Sue)"))]).unwrap();
        drop(wal);
        refuse(&d, "LSN 1, not a checkpoint");
        // No log at all: none is created.
        std::fs::remove_file(d.join(WAL_FILE)).unwrap();
        refuse(&d, "holds no wal.log");
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_gap_behind_a_corrupt_snapshot_is_refused() {
        // Five commits compacted into the checkpoint, then (or not) a
        // sixth after it; the checkpoint is then damaged. Recovering
        // anything would hold 1 of 6 sentences at LSN 6, or 0 of 5 at
        // LSN 0 with the next commit reusing LSN 1.
        for tail in [true, false] {
            let d = dir();
            let mut db = DurableDb::create(&d, Theory::empty(), FsyncPolicy::Never).unwrap();
            for i in 0..5 {
                db.assert(f(&format!("emp(e{i})"))).unwrap();
            }
            assert_eq!(db.compact().unwrap().checkpoint_lsn, 5);
            if tail {
                db.assert(f("emp(e5)")).unwrap();
            }
            drop(db);
            let path = d.join(WAL_FILE);
            let checkpoint_end = Wal::scan_file(&path).unwrap().records[0].end_offset;
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[checkpoint_end as usize - 3] ^= 0x04;
            std::fs::write(&path, &bytes).unwrap();
            assert_refused(&d, &["checkpoint is damaged", "torn tail at byte 0"]);
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "untouched");
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn a_whole_record_that_does_not_decode_is_refused_not_cut() {
        // LSN 2 passes its checksum but its sentence does not parse (or
        // it is not UTF-8), and a good commit follows at LSN 3. Cut as a
        // torn tail, it would take LSN 3 with it without a word.
        for bad in [&b"assert emp("[..], b"assert emp(\xff)"] {
            let d = dir();
            let mut db = DurableDb::create(&d, Theory::empty(), FsyncPolicy::Never).unwrap();
            db.assert(f("emp(Sue)")).unwrap();
            drop(db);
            let path = d.join(WAL_FILE);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend(crate::wal::tests::frame(2, bad));
            bytes.extend(crate::wal::tests::frame(3, b"assert p(b)"));
            std::fs::write(&path, &bytes).unwrap();
            std::fs::write(d.join("wal.log.tmp"), b"@9 1 00\nassert p(a").unwrap();
            let before = files(&d);
            assert_refused(&d, &["LSN 2", "does not decode"]);
            let refused = Wal::truncate_after(&path, 1).unwrap_err();
            assert!(matches!(&refused, PersistError::Corrupt(why) if why.contains("LSN 2")));
            assert_eq!(files(&d), before, "a refusal wrote");
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    /// `recover` on `d` must refuse with a reason naming each of `causes`.
    fn assert_refused(d: &Path, causes: &[&str]) {
        match DurableDb::recover(d, FsyncPolicy::Never) {
            Err(PersistError::Corrupt(why)) => {
                assert!(causes.iter().all(|c| why.contains(c)), "{why}")
            }
            Err(e) => panic!("{e}"),
            Ok((_, report)) => panic!("recovered short: {report}"),
        }
    }

    #[test]
    fn a_repeated_constraint_is_logged_once_and_an_old_repeat_replays_as_nothing() {
        let ic = f("forall x. K emp(x) -> exists y. K ss(x, y)");
        let d = dir();
        let mut db = DurableDb::create(&d, Theory::empty(), FsyncPolicy::Never).unwrap();
        assert!(db.add_constraint(ic.clone()).unwrap());
        assert!(!db.add_constraint(ic.clone()).unwrap());
        assert_eq!((db.wal_records(), db.last_lsn()), (1, 1));
        assert_eq!(db.db().constraints().count(), 1);
        drop(db);
        // A log written before registrations were deduplicated may hold
        // the repeat as a record of its own: it replays, changing nothing.
        let path = d.join(WAL_FILE);
        let scan = Wal::scan_file(&path).unwrap();
        let mut wal = Wal::open(&path, FsyncPolicy::Never, &scan).unwrap();
        assert_eq!(wal.append(&[WalOp::Constraint(ic)]).unwrap(), 2);
        drop(wal);
        let (db, report) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_eq!(report.records_replayed, 2);
        assert_eq!((db.last_lsn(), db.db().constraints().count()), (2, 1));
        drop(db);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_record_that_does_not_replay_whole_is_refused() {
        // Records appended behind the database's back: one the commit path
        // refuses, a constraint beside an assert (a shape no `DurableDb`
        // writes), and a second checkpoint. Skipping any, or half of the
        // second, would let the next commit take LSN 3 over a state
        // nobody acknowledged.
        let ghost = vec![WalOp::Assert(f("emp(Ghost)"))];
        let mixed = vec![
            WalOp::Constraint(f("forall x. K p(x) -> K q(x)")),
            WalOp::Assert(f("p(a)")),
        ];
        for record in [Some(ghost), Some(mixed), None] {
            let d = dir();
            let mut db = DurableDb::create(&d, Theory::empty(), FsyncPolicy::Never).unwrap();
            db.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
                .unwrap();
            let checkpoint = Snapshot::of(&db, 2, false);
            drop(db);
            let path = d.join(WAL_FILE);
            let scan = Wal::scan_file(&path).unwrap();
            match record {
                Some(ops) => {
                    let mut wal = Wal::open(&path, FsyncPolicy::Never, &scan).unwrap();
                    assert_eq!(wal.append(&ops).unwrap(), 2);
                }
                None => {
                    let other = d.join("other");
                    std::fs::create_dir_all(&other).unwrap();
                    let second = std::fs::read(checkpoint.write(&other).unwrap()).unwrap();
                    std::fs::remove_dir_all(other).unwrap();
                    let log = [std::fs::read(&path).unwrap(), second].concat();
                    std::fs::write(&path, log).unwrap();
                }
            }
            assert_refused(&d, &["LSN 2"]);
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn a_sentence_at_the_nesting_bound_is_logged_and_recovered() {
        // 256 levels go in, through the log and the checkpoint, and come
        // back; 257, as a sentence or a constraint, are refused unlogged.
        let nots = |n: usize, w: Formula| (0..n).fold(w, |w, _| Formula::not(w));
        let d = dir();
        let mut db = DurableDb::create(&d, Theory::empty(), FsyncPolicy::Never).unwrap();
        db.assert(nots(256, f("p(a)"))).unwrap();
        let too_deep = |e| matches!(e, PersistError::Db(DbError::Theory(TheoryError::TooDeep)));
        assert!(too_deep(db.assert(nots(257, f("p(b)"))).unwrap_err()));
        let constraint = nots(257, f("K p(a)"));
        assert!(too_deep(db.add_constraint(constraint).unwrap_err()));
        assert_eq!(db.wal_records(), 1);
        let live = db.theory().clone();
        drop(db);
        let (mut rec, report) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_eq!((rec.theory(), report.records_replayed), (&live, 1));
        let _ = rec.compact().unwrap();
        drop(rec);
        let (rec, report) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_eq!((rec.theory(), report.records_replayed), (&live, 0));
        assert_eq!(rec.ask(&f("K p(a)")), Answer::Yes);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_record_that_changes_nothing_is_refused() {
        // Appended behind the database's back after a real commit: an
        // empty record, an assert of a held sentence, a retract of an
        // absent one, an assert twice, an assert then its retract. The
        // commit path logs only what changes the state, so none of them
        // was ever acknowledged.
        let assert = |s: &str| WalOp::Assert(f(s));
        let retract = |s: &str| WalOp::Retract(f(s));
        let records = [
            vec![],
            vec![assert("p(a)")],
            vec![retract("q(z)")],
            vec![assert("r(b)"), assert("r(b)")],
            vec![assert("s(c)"), retract("s(c)")],
        ];
        for ops in records {
            let d = dir();
            let mut db = DurableDb::create(&d, Theory::empty(), FsyncPolicy::Never).unwrap();
            db.assert(f("p(a)")).unwrap();
            drop(db);
            let path = d.join(WAL_FILE);
            if ops.is_empty() {
                let empty = format!("@2 0 {:016x}\n\n", crate::fnv1a64(b""));
                let log = [std::fs::read(&path).unwrap(), empty.into_bytes()].concat();
                std::fs::write(&path, log).unwrap();
            } else {
                let scan = Wal::scan_file(&path).unwrap();
                let mut wal = Wal::open(&path, FsyncPolicy::Never, &scan).unwrap();
                assert_eq!(wal.append(&ops).unwrap(), 2);
            }
            assert_eq!(Wal::scan_file(&path).unwrap().records.len(), 3);
            let before = files(&d);
            assert_refused(&d, &["LSN 2", "changes nothing"]);
            assert_eq!(files(&d), before, "a refused recovery wrote");
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
