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
//! **Recovery replays the real commit path.** [`DurableDb::recover`] loads
//! the newest valid snapshot (falling back across corrupt ones, and to
//! genesis when none survive) and replays every log record past its LSN
//! through `Transaction::commit` itself — so recovered state re-verifies
//! its constraints and rebuilds (or, with a snapshot-restored model,
//! resumes) the incremental model exactly as the live path would.
//! `tests/prop_persist.rs` pins this: crash anywhere, recover, and the
//! state equals an in-memory oracle that applied the surviving prefix.

use crate::fault::FaultInjector;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::wal::{compaction_temp, FsyncPolicy, TornTail, Wal, WalOp, WAL_FILE};
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
    /// inconsistent contents).
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

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(e) => PersistError::Io(e),
            SnapshotError::Corrupt(why) => PersistError::Corrupt(why),
        }
    }
}

/// Options for [`DurableDb::recover_with`].
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOptions {
    /// Start from the newest valid snapshot (default). When `false`,
    /// recovery starts from the *genesis* snapshot and replays the whole
    /// log — the baseline the `f8_recovery` bench compares against.
    pub use_latest_snapshot: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            use_latest_snapshot: true,
        }
    }
}

/// What [`DurableDb::recover`] found and did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// LSN of the snapshot recovery started from (`None`: no snapshot at
    /// all — replayed from an empty database).
    pub snapshot_lsn: Option<u64>,
    /// Whether the snapshot's stored least model was attached directly,
    /// skipping the fixpoint recomputation.
    pub model_restored: bool,
    /// Snapshot files that failed validation and were skipped.
    pub snapshots_skipped: u32,
    /// Log records replayed (those with `lsn > snapshot_lsn`).
    pub records_replayed: u64,
    /// Records the replayed commit path *refused* (possible only when a
    /// crash interleaved with a concurrent-era log, or after manual log
    /// surgery; the record is skipped and recovery continues).
    pub rejected: Vec<(u64, String)>,
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
        if self.model_restored {
            write!(f, " (model restored)")?;
        }
        write!(
            f,
            " + {} records replayed -> LSN {}",
            self.records_replayed, self.last_lsn
        )?;
        if let Some(t) = &self.torn_tail {
            write!(f, "; {t} ({} bytes dropped)", self.truncated_bytes)?;
        }
        if !self.rejected.is_empty() {
            write!(f, "; {} records rejected", self.rejected.len())?;
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
    wal: Wal,
    dir: PathBuf,
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
        let _ = Snapshot::of(&db, 0, true).write(&dir)?;
        let wal = Wal::create(dir.join(WAL_FILE), policy)?;
        Ok(DurableDb { db, wal, dir })
    }

    /// Rebuild the database from `dir`: newest valid snapshot + replay of
    /// the log tail through the real commit path, torn tail truncated.
    pub fn recover(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(DurableDb, RecoveryReport), PersistError> {
        DurableDb::recover_with(dir, policy, RecoveryOptions::default())
    }

    /// [`DurableDb::recover`] with explicit [`RecoveryOptions`].
    pub fn recover_with(
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
        options: RecoveryOptions,
    ) -> Result<(DurableDb, RecoveryReport), PersistError> {
        let dir = dir.as_ref().to_path_buf();
        // Whatever a crash between a temp file's creation and its rename
        // left behind is not state, and nothing else would ever remove it.
        Snapshot::remove_stray_temps(&dir)?;
        match std::fs::remove_file(compaction_temp(&dir.join(WAL_FILE))) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let mut snaps = Snapshot::list(&dir)?;
        if options.use_latest_snapshot {
            snaps.reverse(); // try newest first
        }
        let mut snapshots_skipped = 0u32;
        let mut base: Option<Snapshot> = None;
        for (_, path) in &snaps {
            match Snapshot::load(path) {
                Ok(s) => {
                    base = Some(s);
                    break;
                }
                Err(SnapshotError::Corrupt(_)) => snapshots_skipped += 1,
                Err(SnapshotError::Io(e)) => return Err(e.into()),
            }
        }
        let (mut db, snapshot_lsn, model_restored) = match &base {
            Some(s) => {
                let (db, model_restored) = s.restore()?;
                (db, Some(s.lsn), model_restored)
            }
            None => (EpistemicDb::new(Theory::empty()), None, false),
        };
        let (mut wal, scan) = Wal::open(dir.join(WAL_FILE), policy)?;
        let mut report = RecoveryReport {
            snapshot_lsn,
            model_restored,
            snapshots_skipped,
            records_replayed: 0,
            rejected: Vec::new(),
            torn_tail: scan.torn,
            truncated_bytes: scan.truncated_bytes,
            last_lsn: 0,
        };
        let from = snapshot_lsn.unwrap_or(0);
        for record in &scan.records {
            if record.lsn <= from {
                continue;
            }
            report.records_replayed += 1;
            if let Err(e) = replay_record(&mut db, &record.ops) {
                report.rejected.push((record.lsn, e.to_string()));
            }
        }
        wal.bump_next_lsn(from + 1);
        report.last_lsn = wal.last_lsn();
        Ok((DurableDb { db, wal, dir }, report))
    }

    /// Open a durable transaction: the durable twin of
    /// [`EpistemicDb::transaction`].
    pub fn transaction(&mut self) -> DurableTransaction<'_> {
        DurableTransaction {
            txn: self.db.transaction(),
            wal: &mut self.wal,
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
        self.wal.set_fault_injector(injector);
    }

    /// Register an integrity constraint, durably. Log-before-apply with
    /// compensation: the record is appended, then the registration runs;
    /// a refusal (constraint violated by the current state) rewinds the
    /// log so no rejected record survives.
    pub fn add_constraint(&mut self, ic: Formula) -> Result<(), PersistError> {
        let mark = self.wal.mark();
        if let Err(e) = self.wal.append(&[WalOp::Constraint(ic.clone())]) {
            let _ = self.wal.rewind(mark.0, mark.1);
            return Err(e.into());
        }
        match self.db.add_constraint(ic) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.wal.rewind(mark.0, mark.1)?;
                Err(e.into())
            }
        }
    }

    /// Write a snapshot of the current state at the current LSN. The log
    /// is synced first so the snapshot never claims records the disk does
    /// not hold. Returns the snapshot's LSN.
    pub fn snapshot(&mut self) -> Result<u64, PersistError> {
        self.wal.sync()?;
        let lsn = self.wal.last_lsn();
        let injector = self.wal.fault_injector();
        let _ = Snapshot::of(&self.db, lsn, true).write_with(&self.dir, injector.as_deref())?;
        Ok(lsn)
    }

    /// Snapshot, then truncate every log record the snapshot covers and
    /// delete older snapshot files — bounding recovery to
    /// snapshot-load + short-tail-replay.
    pub fn compact(&mut self) -> Result<CompactStats, PersistError> {
        let snapshot_lsn = self.snapshot()?;
        let (records_dropped, bytes_reclaimed) = self.wal.compact_through(snapshot_lsn)?;
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
    /// under `FsyncPolicy::Batch`/`Never`).
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.wal.sync().map_err(PersistError::Io)
    }

    /// Number of committed records not yet covered by an fsync — the
    /// loss window a crash (not a clean drop, which flushes) would
    /// open under `FsyncPolicy::Batch`/`Never`.
    pub fn pending_unsynced(&self) -> u32 {
        self.wal.pending_unsynced()
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
        self.wal.last_lsn()
    }

    /// Number of records currently in the log.
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Current log size in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Decompose into `(db, wal, dir)` — the serving layer's writer
    /// thread takes ownership of the pieces directly.
    pub(crate) fn into_parts(self) -> (EpistemicDb, Wal, PathBuf) {
        (self.db, self.wal, self.dir)
    }
}

/// Replay one log record through the live commit machinery. Records are
/// homogeneous by construction (one constraint, or a batch of
/// assert/retract); interleavings are handled by flushing the batch at
/// each constraint boundary.
fn replay_record(db: &mut EpistemicDb, ops: &[WalOp]) -> Result<(), DbError> {
    let mut i = 0;
    while i < ops.len() {
        if let WalOp::Constraint(ic) = &ops[i] {
            db.add_constraint(ic.clone())?;
            i += 1;
            continue;
        }
        let mut txn = db.transaction();
        while i < ops.len() {
            match &ops[i] {
                WalOp::Assert(w) => txn = txn.assert(w.clone()),
                WalOp::Retract(w) => txn = txn.retract(w.clone()),
                WalOp::Constraint(_) => break,
            }
            i += 1;
        }
        let _ = txn.commit()?;
    }
    Ok(())
}

/// A batch of updates that will be logged ahead of application — the
/// durable twin of [`Transaction`]. Build it with `assert`/`retract`,
/// then [`DurableTransaction::commit`]; dropping it discards the batch.
#[must_use = "a durable transaction does nothing until commit() — dropping it discards the batch"]
pub struct DurableTransaction<'db> {
    txn: Transaction<'db>,
    wal: &'db mut Wal,
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

    /// Validate, log, then apply (see the module docs for the protocol).
    /// No-op batches commit without touching the log; refused batches
    /// leave neither state nor log changed.
    pub fn commit(self) -> Result<CommitReport, PersistError> {
        let prepared = self.txn.prepare()?;
        if prepared.is_noop() {
            return Ok(prepared.commit());
        }
        let mut ops: Vec<WalOp> =
            Vec::with_capacity(prepared.added().len() + prepared.removed().len());
        ops.extend(prepared.removed().iter().cloned().map(WalOp::Retract));
        ops.extend(prepared.added().iter().cloned().map(WalOp::Assert));
        let mark = self.wal.mark();
        if let Err(e) = self.wal.append(&ops) {
            // A failed append can leave a torn prefix that would corrupt
            // every later record; rewind (best effort) before reporting.
            let _ = self.wal.rewind(mark.0, mark.1);
            return Err(e.into());
        }
        Ok(prepared.commit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(a.constraints(), b.constraints());
        assert_eq!(a.prover().atom_model(), b.prover().atom_model());
    }

    #[test]
    fn recover_replays_to_the_live_state() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::Batch(2),
            FsyncPolicy::Never,
        ] {
            let d = dir();
            let live = populated(&d, policy);
            let live_state = live.db().theory().clone();
            drop(live); // crash: no shutdown ceremony
            let (rec, report) = DurableDb::recover(&d, policy).unwrap();
            assert_eq!(report.snapshot_lsn, Some(0), "genesis snapshot");
            assert_eq!(report.records_replayed, 3, "constraint + 2 commits");
            assert!(report.rejected.is_empty());
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
        let (rec, report) = DurableDb::recover(&d, FsyncPolicy::Always).unwrap();
        assert!(report.rejected.is_empty());
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
        assert!(report.model_restored, "definite theory: model in snapshot");
        assert_eq!(report.records_replayed, 1);
        assert_eq!(rec.theory(), &live_theory);
        // …full replay from genesis reaches the same state.
        let (full, report) = DurableDb::recover_with(
            &d,
            FsyncPolicy::Never,
            RecoveryOptions {
                use_latest_snapshot: false,
            },
        )
        .unwrap();
        assert_eq!(report.snapshot_lsn, Some(0));
        assert_eq!(report.records_replayed, 4);
        assert_same_state(full.db(), rec.db());
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
}
