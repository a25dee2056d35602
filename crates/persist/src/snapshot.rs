//! Snapshots: the theory and its constraints at a log position, so
//! recovery is snapshot-load + tail-replay instead of replay-from-genesis.
//!
//! # File format
//!
//! `snapshot-<lsn, zero-padded>.snap`, written in one piece by the crate's
//! one file replacement (`<name>.tmp`, sync, rename, directory sync):
//!
//! ```text
//! #epilog-snapshot v1 <lsn> <payload-len> <fnv1a64-hex>\n
//! [theory]\n
//! <sentence per line>
//! [constraints]\n
//! <sentence per line>
//! ```
//!
//! Sentences are serialized with the `epilog-syntax` pretty-printer and
//! read back with [`parse()`](fn@epilog_syntax::parse) — the same round-trip contract as the WAL.
//!
//! A snapshot is the theory Σ and nothing derived from it. The least
//! model of a definite Σ is a cache of Σ, so [`Snapshot::restore`]
//! recomputes it with one `eval`, exactly as `DurableDb::create` does,
//! and the file never holds the truth twice.
//!
//! Older snapshots go on with a `[model]` section (the least model, one
//! ground atom per line) and, older still, a `[supports]` section (a
//! support table). `load` verifies the checksum over the whole payload,
//! then stops at the first of those markers and leaves the rest unread:
//! both hold only what the sections before them determine, so a
//! compacted directory whose only snapshot carries them recovers intact.
//!
//! [`Snapshot::load`] and [`Snapshot::restore`] fail with the crate's
//! [`PersistError`]: `Io` when the file cannot be read, `Corrupt` when its
//! header, checksum or sentences are wrong. `DurableDb::recover` falls
//! back to an older snapshot on `Corrupt` and gives up on `Io`.

use crate::fault::FaultInjector;
use crate::{fnv1a64, PersistError};
use epilog_core::EpistemicDb;
use epilog_syntax::{parse, Formula, Theory};
use std::fmt::{self, Write as _};
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

    /// The file name a snapshot at `lsn` is stored under (zero-padded so
    /// lexicographic order is LSN order).
    pub fn file_name(lsn: u64) -> String {
        format!("snapshot-{lsn:020}.snap")
    }

    /// Write atomically into `dir`, returning the file path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        self.write_with(dir, None)
    }

    /// [`Snapshot::write`] with an optional [`FaultInjector`] over the
    /// file replacement (`crate::replace_file`): a failed write never
    /// renames, and no existing snapshot is disturbed.
    pub(crate) fn write_with(
        &self,
        dir: &Path,
        injector: Option<&FaultInjector>,
    ) -> io::Result<PathBuf> {
        let mut payload = String::new();
        self.render(&mut payload)
            .expect("formatting into a String cannot fail");
        let file = format!(
            "#epilog-snapshot v1 {} {} {:016x}\n{payload}",
            self.lsn,
            payload.len(),
            fnv1a64(payload.as_bytes())
        );
        let path = dir.join(Snapshot::file_name(self.lsn));
        crate::replace_file(&path, file.as_bytes(), injector, drop)?;
        Ok(path)
    }

    /// The payload: both sections, each line formatted once, straight
    /// into `out`.
    fn render(&self, out: &mut String) -> fmt::Result {
        out.push_str("[theory]\n");
        for w in &self.sentences {
            writeln!(out, "{w}")?;
        }
        out.push_str("[constraints]\n");
        for ic in &self.constraints {
            writeln!(out, "{ic}")?;
        }
        Ok(())
    }

    /// Load and validate a snapshot file.
    pub fn load(path: &Path) -> Result<Snapshot, PersistError> {
        let bytes = std::fs::read(path)?;
        let text =
            std::str::from_utf8(&bytes).map_err(|_| PersistError::Corrupt("not UTF-8".into()))?;
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| PersistError::Corrupt("missing header line".into()))?;
        let fields: Vec<&str> = header.split(' ').collect();
        let [magic, version, lsn, len, sum] = fields.as_slice() else {
            return Err(PersistError::Corrupt("malformed header".into()));
        };
        if *magic != "#epilog-snapshot" || *version != "v1" {
            return Err(PersistError::Corrupt(format!(
                "bad magic/version {header:?}"
            )));
        }
        let lsn: u64 = lsn
            .parse()
            .map_err(|_| PersistError::Corrupt("bad lsn".into()))?;
        let len: usize = len
            .parse()
            .map_err(|_| PersistError::Corrupt("bad length".into()))?;
        let sum = u64::from_str_radix(sum, 16)
            .map_err(|_| PersistError::Corrupt("bad checksum".into()))?;
        if payload.len() != len {
            return Err(PersistError::Corrupt(format!(
                "payload length {} != declared {len}",
                payload.len()
            )));
        }
        if fnv1a64(payload.as_bytes()) != sum {
            return Err(PersistError::Corrupt("checksum mismatch".into()));
        }
        let mut sentences = Vec::new();
        let mut constraints = Vec::new();
        let mut section = None;
        for line in payload.lines() {
            match line {
                "[theory]" => section = Some(&mut sentences),
                "[constraints]" => section = Some(&mut constraints),
                // An older file's sections derived from the theory:
                // checksummed above, never needed.
                "[model]" | "[supports]" => break,
                _ => {
                    let Some(into) = section.as_deref_mut() else {
                        return Err(PersistError::Corrupt(format!(
                            "content before any section marker: {line:?}"
                        )));
                    };
                    into.push(parse(line).map_err(|e| {
                        PersistError::Corrupt(format!("unparseable line {line:?}: {e}"))
                    })?);
                }
            }
        }
        Ok(Snapshot {
            lsn,
            sentences,
            constraints,
        })
    }

    /// Every snapshot in `dir`, as `(lsn, path)` sorted ascending by LSN.
    /// Files are identified by name only; validation happens at load.
    pub fn list(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(lsn) = name
                .strip_prefix("snapshot-")
                .and_then(|s| s.strip_suffix(".snap"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push((lsn, entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Rebuild the database this snapshot captured, the way
    /// `DurableDb::create` builds one: `Theory::new` over the sentences,
    /// one `EpistemicDb::new` (which computes the least model of a
    /// definite theory by one `eval`), then the constraints.
    ///
    /// Constraints are re-registered through
    /// `EpistemicDb::adopt_constraint`: they held when the (checksummed)
    /// snapshot was written, so the full satisfaction check is not re-run
    /// here — re-verifying the whole state would make snapshot recovery
    /// slower than the log replay it exists to avoid. Debug builds still
    /// verify; the log records replayed *after* the snapshot go through
    /// the fully checked commit path.
    pub fn restore(&self) -> Result<EpistemicDb, PersistError> {
        let theory = Theory::new(self.sentences.clone())
            .map_err(|e| PersistError::Corrupt(format!("invalid sentence: {e}")))?;
        let mut db = EpistemicDb::new(theory);
        for ic in &self.constraints {
            db.adopt_constraint(ic.clone())
                .map_err(|e| PersistError::Corrupt(format!("invalid constraint: {e}")))?;
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let restored = snap.restore().unwrap();
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
        let file = std::fs::read_to_string(&path).unwrap();
        let (_, payload) = file.split_once('\n').unwrap();
        assert_eq!(
            payload,
            "[theory]\nemp(Mary)\nss(Mary, n1)\nforall x. emp(x) -> person(x)\n\
             [constraints]\nforall x. K emp(x) -> (exists y. K ss(x, y))\n",
            "the theory and the constraints, nothing derived"
        );
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.lsn, 7);
        assert_eq!(loaded.sentences, snap.sentences);
        assert_eq!(loaded.constraints, snap.constraints);
        assert!(db.prover().atom_model().is_some(), "a definite theory");
        assert_restores(&loaded, &db);
        std::fs::remove_dir_all(d).unwrap();
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

    /// A well-framed v1 file around `payload`: header, declared length and
    /// checksum all right, so `load` gets as far as the lines.
    fn write_v1(dir: &Path, lsn: u64, payload: &str) -> PathBuf {
        let path = dir.join(Snapshot::file_name(lsn));
        let header = format!(
            "#epilog-snapshot v1 {lsn} {} {:016x}\n",
            payload.len(),
            fnv1a64(payload.as_bytes())
        );
        std::fs::write(&path, header + payload).unwrap();
        path
    }

    const CHAIN_RULES: &str = "forall x, y. edge(x, y) -> path(x, y)\n\
         forall x, y, z. edge(x, y) & path(y, z) -> path(x, z)\n";

    /// What an older writer appended to the snapshot of `db`, a chain
    /// `edge(n0, n1) … edge(n(len-1), n(len))` under [`CHAIN_RULES`]: the
    /// `[model]` section, one ground atom per line, then the `[supports]`
    /// section, one `rule|head|parent|…` line per support.
    fn parent_sections(db: &EpistemicDb, len: usize) -> String {
        let mut out = String::from("[model]\n");
        for a in db.prover().atom_model().unwrap().atoms() {
            writeln!(out, "{a}").unwrap();
        }
        out.push_str("[supports]\n");
        for i in 0..len {
            let next = i + 1;
            writeln!(out, "0|path(n{i}, n{next})|edge(n{i}, n{next})").unwrap();
            for j in i + 2..=len {
                writeln!(
                    out,
                    "1|path(n{i}, n{j})|edge(n{i}, n{next})|path(n{next}, n{j})"
                )
                .unwrap();
            }
        }
        out
    }

    /// Rewrite the snapshot at `path` as an older writer would have
    /// written it: the same sections, then `sections`, under a header and
    /// checksum that cover them.
    fn append_sections(path: &Path, sections: &str) {
        let file = std::fs::read_to_string(path).unwrap();
        let (header, payload) = file.split_once('\n').unwrap();
        let lsn: u64 = header.split(' ').nth(2).unwrap().parse().unwrap();
        let dir = path.parent().unwrap();
        assert_eq!(write_v1(dir, lsn, &(payload.to_string() + sections)), path);
    }

    fn chain(len: usize) -> String {
        let edges: String = (0..len)
            .map(|i| format!("edge(n{i}, n{})\n", i + 1))
            .collect();
        format!("{CHAIN_RULES}{edges}")
    }

    #[test]
    fn a_parent_format_file_loads_and_restores_the_live_state() {
        // Theory, constraints, `[model]`, `[supports]`, a valid checksum:
        // the derived sections are skipped unread, so even a `[model]`
        // that lost a line or gained one that is not an atom at all
        // restores the model of the theory.
        let d = dir();
        let mut db = EpistemicDb::from_text(&chain(3)).unwrap();
        db.add_constraint(parse("forall x. K edge(x, n1) -> K path(x, n3)").unwrap())
            .unwrap();
        let ours = Snapshot::of(&db, 9, true).write(&d).unwrap();
        let head = std::fs::read_to_string(&ours).unwrap();
        let parent = parent_sections(&db, 3);
        let (first, rest) = parent.split_once('\n').unwrap();
        let (_, damaged) = rest.split_once('\n').unwrap();
        for sections in [
            parent.clone(),
            format!("{first}\nK path(n0, n9) |\n{damaged}"),
        ] {
            append_sections(&ours, &sections);
            let loaded = Snapshot::load(&ours).unwrap();
            let written = Snapshot::of(&db, 9, true);
            assert_eq!(loaded.sentences, written.sentences);
            assert_eq!(loaded.constraints, written.constraints);
            assert_restores(&loaded, &db);
            std::fs::write(&ours, &head).unwrap();
        }
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_parent_snapshot_with_supports_loads_and_recovers_the_same_state() {
        use crate::{DurableDb, FsyncPolicy};

        // The derived sections are still under the checksum.
        let d = dir();
        let db = EpistemicDb::from_text(&chain(3)).unwrap();
        let path = Snapshot::of(&db, 9, true).write(&d).unwrap();
        append_sections(&path, &parent_sections(&db, 3));
        let file = std::fs::read_to_string(&path).unwrap();
        assert!(file.contains(
            "\n[supports]\n0|path(n0, n1)|edge(n0, n1)\n1|path(n0, n2)|edge(n0, n1)|path(n1, n2)\n"
        ));
        assert_restores(&Snapshot::load(&path).unwrap(), &db);
        let torn = file.replace("|path(n1, n2)\n", "|path(n1, n3)\n");
        std::fs::write(&path, torn).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(PersistError::Corrupt(why)) if why.contains("checksum")
        ));

        // `compact()` left one snapshot and an empty log: a loader that
        // refused the sections would lose every compacted commit.
        let d2 = dir();
        let rules = Theory::from_text(CHAIN_RULES).unwrap();
        let mut durable = DurableDb::create(&d2, rules, FsyncPolicy::Never).unwrap();
        for i in 0..4 {
            durable
                .assert(parse(&format!("edge(n{i}, n{})", i + 1)).unwrap())
                .unwrap();
        }
        let compacted = durable.compact().unwrap();
        let (live, lsn) = (durable.db().clone(), durable.last_lsn());
        drop(durable);
        let snapshots = Snapshot::list(&d2).unwrap();
        assert_eq!(snapshots.len(), 1);
        assert_eq!(snapshots[0].0, compacted.snapshot_lsn);
        append_sections(&snapshots[0].1, &parent_sections(&live, 4));
        let (recovered, report) = DurableDb::recover(&d2, FsyncPolicy::Never).unwrap();
        assert_eq!(
            (report.snapshot_lsn, report.records_replayed),
            (Some(lsn), 0)
        );
        assert_eq!(recovered.last_lsn(), lsn);
        assert_eq!(recovered.theory(), live.theory());
        assert_eq!(recovered.prover().atom_model(), live.prover().atom_model());
        std::fs::remove_dir_all(d).unwrap();
        std::fs::remove_dir_all(d2).unwrap();
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
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn listing_sorts_by_lsn() {
        let d = dir();
        let db = sample_db();
        for lsn in [12u64, 3, 7] {
            let _ = Snapshot::of(&db, lsn, false).write(&d).unwrap();
        }
        let lsns: Vec<u64> = Snapshot::list(&d)
            .unwrap()
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(lsns, vec![3, 7, 12]);
        std::fs::remove_dir_all(d).unwrap();
    }
}
