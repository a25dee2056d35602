//! The checkpoint record's codec: the theory and its constraints at a log
//! position.
//!
//! A durable database's log begins with a checkpoint record (see
//! [`crate::wal`]), framed and checksummed like every other record:
//!
//! ```text
//! @<lsn> <payload-len> <fnv1a64-hex>\n
//! checkpoint\n
//! assert <sentence>\n        one line per theory sentence, in storage order
//! constraint <sentence>\n    one line per constraint, in registration order
//! ```
//!
//! A [`Snapshot`] is that record decoded. It is the theory Σ and nothing
//! derived from it: the least model of a definite Σ is a cache of Σ, so
//! [`Snapshot::restore`] recomputes it with one `eval`, exactly as
//! `DurableDb::create` does, and the log never holds the truth twice.
//!
//! [`Snapshot::write`] writes a log holding only the checkpoint — the log
//! `DurableDb::create` writes — and [`Snapshot::load`] reads a log's
//! checkpoint back. `load` and [`Snapshot::restore`] fail with the crate's
//! [`PersistError`]: `Io` when the file cannot be read, `Corrupt` when the
//! log does not begin with an intact checkpoint or its sentences are
//! wrong.

use crate::wal::{FsyncPolicy, Line, Wal, WalOp, WalScan, WAL_FILE};
use crate::PersistError;
use epilog_core::EpistemicDb;
use epilog_syntax::{Formula, Theory};
use std::io;
use std::path::{Path, PathBuf};

/// A database's theory and constraints bound to a log position: every
/// record with `lsn <= self.lsn` is reflected in it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The log position this snapshot covers.
    pub lsn: u64,
    /// The theory's sentences, in storage order.
    pub sentences: Vec<Formula>,
    /// The registered integrity constraints, in registration order.
    pub constraints: Vec<Formula>,
}

impl Snapshot {
    /// Capture the state of `db` as of log position `lsn`.
    ///
    /// `_include_model` is ignored: a snapshot never stores the least
    /// model. It stays only so that callers written against the older
    /// signature (the benchmark's replay, `trajectory/src/replay.rs`)
    /// keep compiling.
    pub fn of(db: &EpistemicDb, lsn: u64, _include_model: bool) -> Snapshot {
        Snapshot {
            lsn,
            sentences: db
                .theory()
                .sentences()
                .iter()
                .map(|w| (**w).clone())
                .collect(),
            constraints: db.constraints().cloned().collect(),
        }
    }

    /// Write `dir`'s log as this checkpoint alone, replacing any log there
    /// whole, and return the log's path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(WAL_FILE);
        let lines = checkpoint(&self.sentences, &self.constraints);
        let _ = Wal::create_checkpoint(path.clone(), FsyncPolicy::Never, self.lsn, lines)?;
        Ok(path)
    }

    /// The checkpoint record of `db`'s state, printed from the sentences
    /// its theory shares and the constraints it registered: what
    /// `DurableDb::create` and `compact` write, with no sentence copied
    /// (the bytes of [`Snapshot::of`] written).
    pub(crate) fn lines_of(db: &EpistemicDb) -> impl Iterator<Item = Line<'_>> {
        checkpoint(
            db.theory().sentences().iter().map(|w| &**w),
            db.constraints(),
        )
    }

    /// Load the checkpoint the log at `path` begins with.
    pub fn load(path: &Path) -> Result<Snapshot, PersistError> {
        Snapshot::first_of(&mut Wal::scan_file(path)?)
    }

    /// Decode the checkpoint a scanned log begins with, taking its
    /// operations out of `scan`, or say why it does not begin with one —
    /// or why the log holds a record that does not decode, wherever it is.
    pub(crate) fn first_of(scan: &mut WalScan) -> Result<Snapshot, PersistError> {
        if let Some(why) = &scan.corrupt {
            return Err(PersistError::Corrupt(why.clone()));
        }
        const OLDER: &str = "a directory written before the log began with a checkpoint \
                             keeps it in a snapshot-*.snap file, which is not read";
        let record = match (scan.records.first_mut(), &scan.torn) {
            (Some(r), _) if r.checkpoint => r,
            (Some(r), _) => {
                return Err(PersistError::Corrupt(format!(
                    "the log begins with the record at LSN {}, not a checkpoint ({OLDER})",
                    r.lsn
                )))
            }
            (None, Some(torn)) => {
                return Err(PersistError::Corrupt(format!(
                    "the log's checkpoint is damaged: {torn}"
                )))
            }
            (None, None) => {
                return Err(PersistError::Corrupt(format!(
                    "the log is empty: it holds no checkpoint ({OLDER})"
                )))
            }
        };
        let mut snapshot = Snapshot {
            lsn: record.lsn,
            sentences: Vec::new(),
            constraints: Vec::new(),
        };
        for op in std::mem::take(&mut record.ops) {
            match op {
                WalOp::Assert(w) => snapshot.sentences.push(w),
                WalOp::Constraint(ic) => snapshot.constraints.push(ic),
                WalOp::Retract(w) => {
                    return Err(PersistError::Corrupt(format!(
                        "the checkpoint at LSN {} retracts `{w}`",
                        record.lsn
                    )))
                }
            }
        }
        Ok(snapshot)
    }

    /// Rebuild the database this snapshot captured, the way
    /// `DurableDb::create` builds one: `Theory::new` over the sentences,
    /// which move into it uncopied, one `EpistemicDb::new` (which
    /// computes the least model of a definite theory by one `eval`), then
    /// the constraints.
    ///
    /// Each constraint is registered through
    /// `EpistemicDb::add_constraint`, checked against the restored state
    /// like one registered live, so a checkpoint whose state violates one
    /// of its constraints is refused (`Corrupt`) in every build. The log
    /// records replayed *after* the checkpoint go through the same checked
    /// commit path.
    pub fn restore(self) -> Result<EpistemicDb, PersistError> {
        let theory = Theory::new(self.sentences)
            .map_err(|e| PersistError::Corrupt(format!("invalid sentence: {e}")))?;
        let mut db = EpistemicDb::new(theory);
        for ic in self.constraints {
            db.add_constraint(ic)
                .map_err(|e| PersistError::Corrupt(format!("invalid constraint: {e}")))?;
        }
        Ok(db)
    }
}

/// The checkpoint record's operations: the sentences as `assert`s, then
/// the constraints.
fn checkpoint<'a>(
    sentences: impl IntoIterator<Item = &'a Formula>,
    constraints: impl IntoIterator<Item = &'a Formula>,
) -> impl Iterator<Item = Line<'a>> {
    let asserts = sentences.into_iter().map(Line::assert);
    asserts.chain(constraints.into_iter().map(Line::constraint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    fn dir() -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "epilog-snap-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_db() -> EpistemicDb {
        let mut db =
            EpistemicDb::from_text("emp(Mary)\nss(Mary, n1)\nforall x. emp(x) -> person(x)")
                .unwrap();
        db.add_constraint(parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap())
            .unwrap();
        db
    }

    fn assert_restores(snap: &Snapshot, db: &EpistemicDb) {
        let restored = snap.clone().restore().unwrap();
        assert_eq!(restored.theory(), db.theory());
        assert!(restored.constraints().eq(db.constraints()));
        assert_eq!(restored.prover().atom_model(), db.prover().atom_model());
    }

    #[test]
    fn write_load_restore_roundtrip() {
        let d = dir();
        let db = sample_db();
        let snap = Snapshot::of(&db, 7, true);
        let path = snap.write(&d).unwrap();
        assert_eq!(path, d.join(WAL_FILE));
        let file = std::fs::read_to_string(&path).unwrap();
        let (header, payload) = file.split_once('\n').unwrap();
        assert!(header.starts_with("@7 "), "{header}");
        assert_eq!(
            payload,
            "checkpoint\nassert emp(Mary)\nassert ss(Mary, n1)\n\
             assert forall x. emp(x) -> person(x)\n\
             constraint forall x. K emp(x) -> (exists y. K ss(x, y))\n",
            "the theory and the constraints, nothing derived"
        );
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.lsn, 7);
        assert_eq!(loaded.sentences, snap.sentences);
        assert_eq!(loaded.constraints, snap.constraints);
        assert!(db.prover().atom_model().is_some(), "a definite theory");
        assert_restores(&loaded, &db);
        // Written again, the log is replaced whole.
        let _ = Snapshot::of(&db, 9, true).write(&d).unwrap();
        let scan = Wal::scan_file(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(Snapshot::load(&path).unwrap().lsn, 9);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn create_and_compact_write_the_bytes_of_the_snapshot() {
        // Both print the state's shared sentences where `Snapshot::of`
        // copies them: the records must not tell the difference.
        let (d, other) = (dir(), dir());
        let theory = Theory::from_text("forall x. emp(x) -> person(x)\nemp(Ann)").unwrap();
        let mut db = crate::DurableDb::create(&d, theory, FsyncPolicy::Never).unwrap();
        let of = |db: &crate::DurableDb| {
            let path = Snapshot::of(db.db(), db.last_lsn(), false)
                .write(&other)
                .unwrap();
            std::fs::read(path).unwrap()
        };
        assert_eq!(std::fs::read(d.join(WAL_FILE)).unwrap(), of(&db));
        db.add_constraint(parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap())
            .unwrap_err();
        db.add_constraint(parse("forall x. K emp(x) -> K person(x)").unwrap())
            .unwrap();
        db.assert(parse("emp(Mary) & ss(Mary, n1)").unwrap())
            .unwrap();
        db.compact().unwrap();
        assert_eq!(std::fs::read(d.join(WAL_FILE)).unwrap(), of(&db));
        for d in [d, other] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn non_definite_theories_snapshot_without_model() {
        let d = dir();
        let db = EpistemicDb::from_text("p(a) | q(a)").unwrap();
        let path = Snapshot::of(&db, 1, true).write(&d).unwrap();
        let restored = Snapshot::load(&path).unwrap().restore().unwrap();
        assert_eq!(restored.theory(), db.theory());
        assert!(restored.prover().atom_model().is_none());
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_checkpoint_that_violates_its_constraints_is_refused() {
        let d = dir();
        let snap = Snapshot {
            lsn: 4,
            sentences: vec![parse("emp(Joe)").unwrap()],
            constraints: vec![parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap()],
        };
        let path = snap.write(&d).unwrap();
        let restored = Snapshot::load(&path).unwrap().restore();
        assert!(
            matches!(&restored, Err(PersistError::Corrupt(why)) if why.contains("emp(Joe)")),
            "{:?}",
            restored.err()
        );
        let recovered = crate::DurableDb::recover(&d, FsyncPolicy::Never);
        assert!(matches!(recovered, Err(PersistError::Corrupt(_))));
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let d = dir();
        let db = sample_db();
        let path = Snapshot::of(&db, 3, true).write(&d).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(PersistError::Corrupt(why)) if why.contains("checkpoint is damaged")
        ));
        std::fs::remove_dir_all(d).unwrap();
    }
}
