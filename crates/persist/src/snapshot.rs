//! Snapshots: the full database state at a log position, so recovery is
//! snapshot-load + tail-replay instead of replay-from-genesis.
//!
//! # File format
//!
//! `snapshot-<lsn, zero-padded>.snap`, atomically written (tmp + rename):
//!
//! ```text
//! #epilog-snapshot v1 <lsn> <payload-len> <fnv1a64-hex>\n
//! [theory]\n
//! <sentence per line>
//! [constraints]\n
//! <sentence per line>
//! [model]\n            (only for definite theories, when requested)
//! <ground atom per line>
//! ```
//!
//! Sentences are serialized with the `epilog-syntax` pretty-printer and
//! read back with [`parse()`](fn@epilog_syntax::parse) — the same round-trip contract as the WAL.
//! The optional `[model]` section is the materialized least model of a
//! definite theory; restoring it skips the fixpoint recomputation at
//! recovery (debug builds re-derive and verify it). Its atoms are read
//! back with [`parse_ground_atom`](fn@epilog_syntax::parse_ground_atom),
//! which takes a line only if `parse()` reads it as that same ground atom.
//!
//! `[model]` lines are written in **storage order** — per predicate,
//! tuples as the relation holds them — so a write is one pass over the
//! state, with no sort and no second rendering. Nothing depends on the order: `load`
//! inserts each `[model]` line into its relation (an append while the
//! lines ascend, a search otherwise), so a file whose lines are ordered
//! any other way (sorted by text, as every snapshot was before this was
//! settled) is the same snapshot. The model travels as the [`Database`]
//! it is: captured by a clone that shares storage, restored by another.
//!
//! Snapshots written before provenance became a query (PR 26) may end
//! with a `[supports]` section — the support table a provenance-enabled
//! database used to keep. `load` still reads such a file: the section is
//! covered by the checksum like everything else and its lines are then
//! ignored (proofs are derived from the model when asked), so a
//! compacted directory whose only snapshot carries one recovers intact.
//! A repeated marker is `Corrupt`, as it is for `[model]`.

use crate::fault::{self, FaultInjector};
use crate::fnv1a64;
use epilog_core::EpistemicDb;
use epilog_storage::Database;
use epilog_syntax::{parse, parse_ground_atom, Formula, Param, Pred, Term, Theory};
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

/// What a snapshot is written under until its rename: the final name's
/// `snap` with `.tmp` after it.
const TMP_EXTENSION: &str = "snap.tmp";

/// A stored tuple as [`Atom`]'s `Display` would print it (parameters
/// under [`Term`]'s `$`-escape rule), with no `Atom` built.
fn write_atom(out: &mut String, pred: Pred, tuple: &[Param]) -> fmt::Result {
    write!(out, "{pred}")?;
    let mut sep = "(";
    for p in tuple {
        write!(out, "{sep}{}", Term::Param(*p))?;
        sep = ", ";
    }
    if !tuple.is_empty() {
        out.push(')');
    }
    Ok(())
}

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file exists but its header, checksum, or contents are invalid.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// A materialized database state bound to a log position: every record
/// with `lsn <= self.lsn` is reflected in it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The log position this snapshot covers.
    pub lsn: u64,
    /// The theory's sentences, in storage order.
    pub sentences: Vec<Formula>,
    /// The registered integrity constraints, in registration order.
    pub constraints: Vec<Formula>,
    /// The materialized least model (definite theories only): a clone
    /// that shares the captured database's storage.
    pub model: Option<Database>,
}

impl Snapshot {
    /// Capture the state of `db` as of log position `lsn`.
    pub fn of(db: &EpistemicDb, lsn: u64, include_model: bool) -> Snapshot {
        let model = db.prover().atom_model().filter(|_| include_model).cloned();
        Snapshot {
            lsn,
            sentences: db
                .theory()
                .sentences()
                .iter()
                .map(|w| (**w).clone())
                .collect(),
            constraints: db.constraints().cloned().collect(),
            model,
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
    /// data writes and the pre-rename sync. A failed write never renames
    /// — the half-written temp file is removed (best effort) and no
    /// existing snapshot is disturbed.
    pub fn write_with(&self, dir: &Path, injector: Option<&FaultInjector>) -> io::Result<PathBuf> {
        let mut payload = String::new();
        self.render(&mut payload)
            .expect("formatting into a String cannot fail");
        let header = format!(
            "#epilog-snapshot v1 {} {} {:016x}\n",
            self.lsn,
            payload.len(),
            fnv1a64(payload.as_bytes())
        );
        let path = dir.join(Snapshot::file_name(self.lsn));
        let tmp = path.with_extension(TMP_EXTENSION);
        let written = (|| -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            fault::write_all(injector, &mut f, header.as_bytes())?;
            fault::write_all(injector, &mut f, payload.as_bytes())?;
            fault::sync_data(injector, &f)
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, &path)?;
        crate::sync_dir(dir, None)?;
        Ok(path)
    }

    /// The payload: every section, each line formatted once, straight
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
        if let Some(model) = &self.model {
            out.push_str("[model]\n");
            for (pred, rel) in model.relations() {
                for t in rel.iter() {
                    write_atom(out, pred, t)?;
                    out.push('\n');
                }
            }
        }
        Ok(())
    }

    /// Load and validate a snapshot file.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path)?;
        let text =
            std::str::from_utf8(&bytes).map_err(|_| SnapshotError::Corrupt("not UTF-8".into()))?;
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| SnapshotError::Corrupt("missing header line".into()))?;
        let fields: Vec<&str> = header.split(' ').collect();
        let [magic, version, lsn, len, sum] = fields.as_slice() else {
            return Err(SnapshotError::Corrupt("malformed header".into()));
        };
        if *magic != "#epilog-snapshot" || *version != "v1" {
            return Err(SnapshotError::Corrupt(format!(
                "bad magic/version {header:?}"
            )));
        }
        let lsn: u64 = lsn
            .parse()
            .map_err(|_| SnapshotError::Corrupt("bad lsn".into()))?;
        let len: usize = len
            .parse()
            .map_err(|_| SnapshotError::Corrupt("bad length".into()))?;
        let sum = u64::from_str_radix(sum, 16)
            .map_err(|_| SnapshotError::Corrupt("bad checksum".into()))?;
        if payload.len() != len {
            return Err(SnapshotError::Corrupt(format!(
                "payload length {} != declared {len}",
                payload.len()
            )));
        }
        if fnv1a64(payload.as_bytes()) != sum {
            return Err(SnapshotError::Corrupt("checksum mismatch".into()));
        }
        let mut sentences = Vec::new();
        let mut constraints = Vec::new();
        let mut model: Option<Database> = None;
        let mut supports = false;
        enum Section {
            None,
            Theory,
            Constraints,
            Model,
            Supports,
        }
        // Said twice, a marker would start its section over and drop the
        // lines read under the first.
        let repeated = |marker| SnapshotError::Corrupt(format!("repeated {marker} marker"));
        let mut section = Section::None;
        for line in payload.lines() {
            match line {
                "[theory]" => section = Section::Theory,
                "[constraints]" => section = Section::Constraints,
                "[model]" => {
                    section = Section::Model;
                    if model.replace(Database::new()).is_some() {
                        return Err(repeated(line));
                    }
                }
                "[supports]" => {
                    section = Section::Supports;
                    if std::mem::replace(&mut supports, true) {
                        return Err(repeated(line));
                    }
                }
                _ => match section {
                    Section::None => {
                        return Err(SnapshotError::Corrupt(format!(
                            "content before any section marker: {line:?}"
                        )))
                    }
                    Section::Theory | Section::Constraints => {
                        let w = parse(line).map_err(|e| {
                            SnapshotError::Corrupt(format!("unparseable line {line:?}: {e}"))
                        })?;
                        match section {
                            Section::Theory => sentences.push(w),
                            _ => constraints.push(w),
                        }
                    }
                    Section::Model => {
                        let atom = parse_ground_atom(line).map_err(|e| {
                            SnapshotError::Corrupt(format!("not a ground atom {line:?}: {e}"))
                        })?;
                        model.as_mut().expect("section set").insert(&atom);
                    }
                    // A parent's support table: checksummed above, not
                    // needed since proofs are derived when asked.
                    Section::Supports => {}
                },
            }
        }
        Ok(Snapshot {
            lsn,
            sentences,
            constraints,
            model,
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

    /// Delete the temp files of snapshot writes a crash cut short between
    /// create and rename. They are never state — [`Snapshot::list`] does
    /// not see them — and no later write would reuse or remove them.
    pub(crate) fn remove_stray_temps(dir: &Path) -> io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("snapshot-") && name.ends_with(TMP_EXTENSION) {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Rebuild the database this snapshot captured. Returns the database
    /// and whether the stored model was attached (skipping the fixpoint).
    ///
    /// Constraints are re-registered through
    /// `EpistemicDb::adopt_constraint`: they held when the (checksummed)
    /// snapshot was written, so the full satisfaction check is not re-run
    /// here — re-verifying the whole state would make snapshot recovery
    /// slower than the log replay it exists to avoid. Debug builds still
    /// verify; the log records replayed *after* the snapshot go through
    /// the fully checked commit path.
    pub fn restore(&self) -> Result<(EpistemicDb, bool), SnapshotError> {
        let theory = Theory::new(self.sentences.clone())
            .map_err(|e| SnapshotError::Corrupt(format!("invalid sentence: {e}")))?;
        let (mut db, model_restored) = match self.model.clone() {
            Some(m) => (EpistemicDb::with_attached_model(theory, m), true),
            None => (EpistemicDb::new(theory), false),
        };
        for ic in &self.constraints {
            db.adopt_constraint(ic.clone())
                .map_err(|e| SnapshotError::Corrupt(format!("invalid constraint: {e}")))?;
        }
        Ok((db, model_restored))
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

    #[test]
    fn write_load_restore_roundtrip() {
        let d = dir();
        let db = sample_db();
        let snap = Snapshot::of(&db, 7, true);
        assert_eq!(snap.model.as_ref(), db.prover().atom_model());
        let path = snap.write(&d).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.lsn, 7);
        assert_eq!(loaded.sentences, snap.sentences);
        assert_eq!(loaded.constraints, snap.constraints);
        assert_eq!(loaded.model, snap.model);
        let (restored, model_restored) = loaded.restore().unwrap();
        assert!(model_restored);
        assert_eq!(restored.theory(), db.theory());
        assert!(restored.constraints().eq(db.constraints()));
        assert_eq!(restored.prover().atom_model(), db.prover().atom_model());
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn non_definite_theories_snapshot_without_model() {
        let d = dir();
        let db = EpistemicDb::from_text("p(a) | q(a)").unwrap();
        let snap = Snapshot::of(&db, 1, true);
        assert!(snap.model.is_none());
        let path = snap.write(&d).unwrap();
        let (restored, model_restored) = Snapshot::load(&path).unwrap().restore().unwrap();
        assert!(!model_restored);
        assert_eq!(restored.theory(), db.theory());
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

    const SAMPLE_HEAD: &str = "[theory]\nemp(Mary)\nss(Mary, n1)\nforall x. emp(x) -> person(x)\n\
         [constraints]\nforall x. K emp(x) -> (exists y. K ss(x, y))\n";

    #[test]
    fn a_model_sorted_by_text_restores_to_the_same_state() {
        // What every snapshot looked like before lines left in storage
        // order. Relations sit in the order their predicates were first
        // mentioned — by this test alone, hence the names — which is the
        // reverse of their order as text.
        let d = dir();
        let theory = "zz_emp(Mary)\nmm_ss(Mary, n1)\nforall x. zz_emp(x) -> aa_person(x)\n";
        let db = EpistemicDb::from_text(theory).unwrap();
        let sorted = format!(
            "[theory]\n{theory}[constraints]\n[model]\naa_person(Mary)\nmm_ss(Mary, n1)\nzz_emp(Mary)\n"
        );
        let written = Snapshot::of(&db, 5, true).write(&d).unwrap();
        let ours = std::fs::read_to_string(&written).unwrap();
        let old = std::fs::read_to_string(write_v1(&d, 6, &sorted)).unwrap();
        assert_eq!(ours.len(), old.len(), "the same lines");
        assert!(
            ours.ends_with("[model]\nzz_emp(Mary)\nmm_ss(Mary, n1)\naa_person(Mary)\n"),
            "in storage order: {ours}"
        );
        let (restored, model_restored) = Snapshot::load(&d.join(Snapshot::file_name(6)))
            .unwrap()
            .restore()
            .unwrap();
        assert!(model_restored);
        assert_eq!(restored.theory(), db.theory());
        assert_eq!(restored.prover().atom_model(), db.prover().atom_model());
        std::fs::remove_dir_all(d).unwrap();
    }

    /// The payload as the parent commit rendered it: every `[model]` line
    /// an [`Atom`] built from the stored tuple and printed by its
    /// `Display`, in storage order.
    fn render_through_atoms(snap: &Snapshot) -> String {
        let mut out = String::from("[theory]\n");
        for w in &snap.sentences {
            writeln!(out, "{w}").unwrap();
        }
        out.push_str("[constraints]\n");
        for ic in &snap.constraints {
            writeln!(out, "{ic}").unwrap();
        }
        if let Some(model) = &snap.model {
            out.push_str("[model]\n");
            for a in model.atoms() {
                writeln!(out, "{a}").unwrap();
            }
        }
        out
    }

    #[test]
    fn the_file_is_the_one_atoms_would_print_and_any_line_order_loads_it() {
        // A proposition, a parameter spelled like a variable, a tuple too
        // long to sit inline, and derived tuples. Predicates are first
        // mentioned here, last in the alphabet first, so storage order is
        // not text order.
        let d = dir();
        let db = EpistemicDb::from_text(
            "zy_wide(a, b, c, d, e, g)\nyy_p($x)\nyy_p(Mary)\nxy_rain\nwy_edge(a, b)\n\
             wy_edge(b, $y1)\nforall x. yy_p(x) -> ay_q(x)\n\
             forall x, y. wy_edge(x, y) -> by_path(x, y)\n\
             forall x, y, z. wy_edge(x, y) & by_path(y, z) -> by_path(x, z)",
        )
        .unwrap();
        let snap = Snapshot::of(&db, 4, true);
        assert_eq!(snap.model.as_ref(), db.prover().atom_model());
        let file = std::fs::read_to_string(snap.write(&d).unwrap()).unwrap();
        let (_, payload) = file.split_once('\n').unwrap();
        assert_eq!(payload, render_through_atoms(&snap));
        for line in [
            "zy_wide(a, b, c, d, e, g)",
            "yy_p($x)",
            "xy_rain",
            "by_path(a, $y1)",
        ] {
            assert!(payload.lines().any(|l| l == line), "{line} in {payload}");
        }

        // The same file with its `[model]` lines sorted as text.
        let (head, model) = payload.split_once("[model]\n").unwrap();
        let mut lines: Vec<&str> = model.lines().collect();
        lines.sort();
        assert_ne!(lines, model.lines().collect::<Vec<_>>(), "another order");
        let sorted = format!("{head}[model]\n{}\n", lines.join("\n"));
        assert_eq!(sorted.len(), payload.len());
        for path in [d.join(Snapshot::file_name(4)), write_v1(&d, 5, &sorted)] {
            let loaded = Snapshot::load(&path).unwrap();
            assert_eq!(loaded.model.as_ref(), db.prover().atom_model());
            let (restored, model_restored) = loaded.restore().unwrap();
            assert!(model_restored);
            assert_eq!(restored.prover().atom_model(), db.prover().atom_model());
        }
        std::fs::remove_dir_all(d).unwrap();
    }

    const CHAIN_RULES: &str = "forall x, y. edge(x, y) -> path(x, y)\n\
         forall x, y, z. edge(x, y) & path(y, z) -> path(x, z)\n";

    /// The `[supports]` section a parent with provenance on appended to a
    /// snapshot of the chain `edge(n0, n1) … edge(n(len-1), n(len))` under
    /// [`CHAIN_RULES`]: one `rule|head|parent|…` line per support.
    fn parent_supports(len: usize) -> String {
        let mut out = String::from("[supports]\n");
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

    /// Rewrite the snapshot at `path` as the parent would have written it
    /// for a chain of `len` edges: the same sections, then `[supports]`,
    /// under a header and checksum that cover it.
    fn append_parent_supports(path: &Path, len: usize) {
        let file = std::fs::read_to_string(path).unwrap();
        let (header, payload) = file.split_once('\n').unwrap();
        let lsn: u64 = header.split(' ').nth(2).unwrap().parse().unwrap();
        let dir = path.parent().unwrap();
        assert_eq!(
            write_v1(dir, lsn, &(payload.to_string() + &parent_supports(len))),
            path
        );
    }

    #[test]
    fn a_parent_snapshot_with_supports_loads_and_recovers_the_same_state() {
        use crate::{DurableDb, FsyncPolicy};
        let edge = |i: usize| format!("edge(n{i}, n{})\n", i + 1);

        // A parent-format file loads to the model it carries; the section
        // is still under the checksum.
        let d = dir();
        let db = EpistemicDb::from_text(&format!(
            "{CHAIN_RULES}{}",
            (0..3).map(edge).collect::<String>()
        ))
        .unwrap();
        let path = Snapshot::of(&db, 9, true).write(&d).unwrap();
        append_parent_supports(&path, 3);
        let file = std::fs::read_to_string(&path).unwrap();
        assert!(file.contains(
            "\n[supports]\n0|path(n0, n1)|edge(n0, n1)\n1|path(n0, n2)|edge(n0, n1)|path(n1, n2)\n"
        ));
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.model.as_ref(), db.prover().atom_model());
        let (restored, model_restored) = loaded.restore().unwrap();
        assert!(model_restored);
        assert_eq!(restored.theory(), db.theory());
        assert_eq!(restored.prover().atom_model(), db.prover().atom_model());
        let torn = file.replace("|path(n1, n2)\n", "|path(n1, n3)\n");
        std::fs::write(&path, torn).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(SnapshotError::Corrupt(why)) if why.contains("checksum")
        ));

        // `compact()` left one snapshot and an empty log: a loader that
        // refused the section would recover from genesis and lose every
        // compacted commit.
        let d2 = dir();
        let rules = Theory::from_text(CHAIN_RULES).unwrap();
        let mut durable = DurableDb::create(&d2, rules, FsyncPolicy::Never).unwrap();
        for i in 0..4 {
            durable.assert(parse(&edge(i)).unwrap()).unwrap();
        }
        let compacted = durable.compact().unwrap();
        let (live, lsn) = (durable.db().clone(), durable.last_lsn());
        drop(durable);
        let snapshots = Snapshot::list(&d2).unwrap();
        assert_eq!(snapshots.len(), 1);
        assert_eq!(snapshots[0].0, compacted.snapshot_lsn);
        append_parent_supports(&snapshots[0].1, 4);
        let (recovered, report) = DurableDb::recover(&d2, FsyncPolicy::Never).unwrap();
        assert_eq!(
            (
                report.snapshot_lsn,
                report.model_restored,
                report.records_replayed
            ),
            (Some(lsn), true, 0)
        );
        assert_eq!(recovered.last_lsn(), lsn);
        assert_eq!(recovered.theory(), live.theory());
        assert_eq!(recovered.prover().atom_model(), live.prover().atom_model());
        std::fs::remove_dir_all(d).unwrap();
        std::fs::remove_dir_all(d2).unwrap();
    }

    #[test]
    fn a_repeated_model_marker_is_corrupt() {
        // It used to start the section over: a checksummed file restoring
        // one atom where it lists two.
        let d = dir();
        let path = write_v1(
            &d,
            4,
            &format!("{SAMPLE_HEAD}[model]\nemp(Mary)\nss(Mary, n1)\n[model]\nperson(Mary)\n"),
        );
        match Snapshot::load(&path) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("repeated [model]"), "{why}"),
            other => panic!("loaded {other:?}"),
        }
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_repeated_supports_marker_is_corrupt() {
        let d = dir();
        let model = "[model]\nemp(Mary)\nss(Mary, n1)\nperson(Mary)\n";
        let once = format!("{SAMPLE_HEAD}{model}[supports]\n0|person(Mary)|emp(Mary)\n");
        assert!(Snapshot::load(&write_v1(&d, 4, &once)).is_ok());
        let path = write_v1(&d, 4, &format!("{once}[supports]\n"));
        match Snapshot::load(&path) {
            Err(SnapshotError::Corrupt(why)) => {
                assert!(why.contains("repeated [supports]"), "{why}")
            }
            other => panic!("loaded {other:?}"),
        }
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
            Err(SnapshotError::Corrupt(_))
        ));
        // Behind a valid checksum, a `[model]` line has to be one ground
        // atom and nothing else.
        for bad in [
            "[model]\nemp(x)\n",
            "[model]\nK emp(Mary)\n",
            "[model]\nemp(Mary) ss(Mary, n1)\n",
            "[model]\nemp(Mary) & emp(Mary)\n",
            "[model]\nemp(Mary,)\n",
            "[model]\nMary = Mary\n",
        ] {
            let path = write_v1(&d, 4, &format!("{SAMPLE_HEAD}{bad}"));
            assert!(
                matches!(Snapshot::load(&path), Err(SnapshotError::Corrupt(_))),
                "{bad:?} must not load"
            );
        }
        let fine = write_v1(&d, 4, &format!("{SAMPLE_HEAD}[model]\nemp(Mary)\n"));
        assert!(Snapshot::load(&fine).is_ok());
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
