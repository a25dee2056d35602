//! Small-scope enumeration of the serving writer: every request stream
//! up to length `k`, every way to cut it into batches, every single
//! storage fault the stream reaches, and both ways out of a degraded
//! writer — all driven through [`Writer::step`] on one thread.
//!
//! A writer bug needs one fault at one exact I/O inside one small batch
//! (an acknowledgment sent before its batch-mate's fsync, a record
//! buried behind an LSN gap); a timed soak samples such placements, this
//! test visits each of them. For each stream over the operations below,
//! each split of it into consecutive batches, and each fault placement:
//!
//! * none;
//! * `fail_nth_write(n, kind)` for every [`FaultKind`] and every write
//!   `n` the fault-free run of the same stream and split performs;
//! * `fail_nth_sync(n)` for every sync `n` it performs;
//!
//! the run steps the batches, then, if the writer ended degraded, either
//! crashes at once or heals first (both are run). Then it crashes —
//! drops the writer — and checks the oracle of `tests/chaos.rs`:
//!
//! * an acknowledged operation replays on the sequential oracle, and in
//!   a fault-free run a refused one is refused by the oracle too;
//! * the published head — the degraded snapshot, if it degraded — is the
//!   oracle of acknowledged operations at the last acknowledged LSN;
//! * recovery succeeds (it refuses a record it cannot replay whole) and
//!   lands on that LSN with that state,
//!   for the whole log and for the log cut at each record boundary from
//!   the last acknowledged record on (any such prefix is a state a crash
//!   could leave, since everything acknowledged was synced);
//! * a second recovery leaves the log byte-identical.
//!
//! `EPILOG_ENUM_K` sets the longest stream (default 3); a failure names
//! the stream, its split into batches, the fault and the exit.

use epilog::persist::wal::WAL_FILE;
use epilog::persist::{CommitHandle, Request, Wal, Writer};
use epilog::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const BASE: &str = "forall x. emp(x) -> person(x)";
const IC: &str = "forall x. K emp(x) -> exists y. K ss(x, y)";

/// The stream's alphabet.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Assert `emp(A)` and `ss(A, N1)`; a second one is a no-op.
    Hire,
    /// Retract both again; a no-op unless `A` is hired.
    Fire,
    /// Assert `emp(B)` with no number: refused once `IC` is registered.
    Bad,
    /// Register `IC`; refused once a `Bad` is in.
    Ic,
    /// Heal (answered at once by a writer that is not degraded).
    Heal,
}

const OPS: [Op; 5] = [Op::Hire, Op::Fire, Op::Bad, Op::Ic, Op::Heal];

impl Op {
    fn ops(self) -> Vec<TxOp> {
        let f = |w: &str| parse(w).unwrap();
        match self {
            Op::Hire => vec![TxOp::Assert(f("emp(A)")), TxOp::Assert(f("ss(A, N1)"))],
            Op::Fire => vec![TxOp::Retract(f("emp(A)")), TxOp::Retract(f("ss(A, N1)"))],
            Op::Bad => vec![TxOp::Assert(f("emp(B)"))],
            Op::Ic | Op::Heal => unreachable!("not a commit"),
        }
    }

    fn request(self) -> (Request, Pending) {
        match self {
            Op::Ic => {
                let (req, h) = Request::constraint(parse(IC).unwrap());
                (req, Pending::Lsn(h))
            }
            Op::Heal => {
                let (req, h) = Request::heal();
                (req, Pending::Lsn(h))
            }
            commit => {
                let (req, h) = Request::commit(commit.ops());
                (req, Pending::Commit(h))
            }
        }
    }

    /// Apply the operation to the oracle.
    fn apply(self, oracle: &mut EpistemicDb) -> Result<(), DbError> {
        match self {
            Op::Ic => oracle.add_constraint(parse(IC).unwrap()),
            Op::Heal => Ok(()),
            commit => {
                let mut txn = oracle.transaction();
                for op in commit.ops() {
                    txn = match op {
                        TxOp::Assert(w) => txn.assert(w),
                        TxOp::Retract(w) => txn.retract(w),
                    };
                }
                txn.commit().map(|_| ())
            }
        }
    }
}

enum Pending {
    Commit(CommitHandle),
    Lsn(CommitHandle<u64>),
}

impl Pending {
    /// The answer: the LSN the operation was acknowledged at, or why not.
    fn wait(self) -> Result<u64, ServeError> {
        match self {
            Pending::Commit(h) => h.wait().map(|r| r.lsn),
            Pending::Lsn(h) => h.wait(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    Write(u64, FaultKind),
    Sync(u64),
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Exit {
    Crash,
    HealThenCrash,
}

/// What a run saw: the writes and syncs it performed, and whether the
/// writer ended degraded.
struct Seen {
    writes: u64,
    syncs: u64,
    degraded: bool,
}

struct Dirs {
    genesis: PathBuf,
    run: PathBuf,
    cut: PathBuf,
}

/// Copy every file of `from` into a fresh `to`, the log cut to `wal_len`
/// bytes when given.
fn copy_dir(from: &Path, to: &Path, wal_len: Option<u64>) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        std::fs::copy(&path, &dest).unwrap();
        if let (Some(len), true) = (wal_len, dest.ends_with(WAL_FILE)) {
            let f = std::fs::OpenOptions::new().write(true).open(&dest).unwrap();
            f.set_len(len).unwrap();
        }
    }
}

fn sorted(sentences: impl Iterator<Item = String>) -> Vec<String> {
    let mut v: Vec<String> = sentences.collect();
    v.sort();
    v
}

/// `db` holds exactly the oracle's sentences and constraints.
fn assert_same(db: &EpistemicDb, oracle: &EpistemicDb, ctx: &str) {
    let theory = |d: &EpistemicDb| sorted(d.theory().sentences().iter().map(|w| w.to_string()));
    let ics = |d: &EpistemicDb| sorted(d.constraints().map(|w| w.to_string()));
    assert_eq!(theory(db), theory(oracle), "{ctx}: theory diverged");
    assert_eq!(ics(db), ics(oracle), "{ctx}: constraints diverged");
}

/// Recover `dir` and demand the oracle at exactly `acked`.
fn recover_checked(dir: &Path, oracle: &EpistemicDb, acked: u64, ctx: &str) {
    let (durable, report) = DurableDb::recover(dir, FsyncPolicy::Never)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    assert_eq!(
        report.last_lsn, acked,
        "{ctx}: recovery must land on the last acknowledged LSN \
         (lost an acknowledged operation if below, resurrected a failed one if above)"
    );
    assert_same(durable.db(), oracle, ctx);
}

fn run(stream: &[Op], split: &[usize], fault: Fault, exit: Exit, dirs: &Dirs) -> Seen {
    let ctx = {
        let mut rest = stream;
        let batches: Vec<&[Op]> = split
            .iter()
            .map(|&n| {
                let (batch, tail) = rest.split_at(n);
                rest = tail;
                batch
            })
            .collect();
        format!("stream {stream:?}, batches {batches:?}, fault {fault:?}, exit {exit:?}")
    };
    // A run changes nothing but the log: put the genesis log back.
    std::fs::copy(dirs.genesis.join(WAL_FILE), dirs.run.join(WAL_FILE)).unwrap();
    let (mut durable, _) = DurableDb::recover(&dirs.run, FsyncPolicy::Never).unwrap();
    let inj = Arc::new(FaultInjector::new(0));
    match fault {
        Fault::None => {}
        Fault::Write(n, kind) => inj.fail_nth_write(n, kind),
        Fault::Sync(n) => inj.fail_nth_sync(n),
    }
    durable.set_fault_injector(Some(Arc::clone(&inj)));
    let (mut writer, endpoint) = Writer::new(durable);

    let mut answers = Vec::with_capacity(stream.len());
    let mut rest = stream;
    for &n in split {
        let (batch, tail) = rest.split_at(n);
        rest = tail;
        let (requests, pending): (Vec<_>, Vec<_>) = batch.iter().map(|op| op.request()).unzip();
        writer.step(requests);
        answers.extend(pending.into_iter().map(Pending::wait));
    }

    // The sequential oracle of what was acknowledged, in stream order.
    let mut oracle = EpistemicDb::from_text(BASE).unwrap();
    let mut acked = 0;
    for (op, answer) in stream.iter().zip(answers) {
        match (op, answer) {
            (Op::Heal, Ok(_)) => {}
            (op, Ok(lsn)) => {
                if let Err(e) = op.apply(&mut oracle) {
                    panic!("{ctx}: {op:?} was acknowledged but the oracle refuses it: {e}");
                }
                acked = acked.max(lsn);
            }
            (op, Err(ServeError::Db(..))) => assert!(
                !matches!(fault, Fault::None) || op.apply(&mut oracle).is_err(),
                "{ctx}: the writer refused {op:?}, which the oracle accepts"
            ),
            (_, Err(ServeError::Io(_) | ServeError::Degraded(_))) => {}
            (op, Err(e @ (ServeError::Closed | ServeError::Internal(_)))) => {
                panic!("{ctx}: {op:?} answered {e}")
            }
        }
    }

    let degraded = endpoint.stats().degraded;
    if exit == Exit::HealThenCrash {
        inj.disarm();
        let (heal, healed) = Request::heal();
        writer.step(vec![heal]);
        let healed = healed.wait();
        assert_eq!(
            healed.ok(),
            Some(acked),
            "{ctx}: heal must land on the durable head"
        );
        assert!(
            !endpoint.stats().degraded,
            "{ctx}: still degraded after a heal"
        );
    }
    let head = endpoint.snapshot();
    assert_eq!(
        head.lsn(),
        acked,
        "{ctx}: the head is not the last acknowledged state"
    );
    assert_same(head.db(), &oracle, &format!("{ctx}, head"));
    drop(head);
    let seen = Seen {
        writes: inj.writes(),
        syncs: inj.syncs(),
        degraded,
    };
    drop(writer);

    // Every crash state that keeps what was synced: the log cut at the
    // last acknowledged record and at each boundary after it.
    let wal = dirs.run.join(WAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    let scan = Wal::scan_file(&wal).unwrap();
    let acked_end = scan
        .records
        .iter()
        .take_while(|r| r.lsn <= acked)
        .last()
        .map_or(0, |r| r.end_offset);
    let later = scan.records.iter().filter(|r| r.lsn > acked);
    for cut in std::iter::once(acked_end).chain(later.map(|r| r.end_offset)) {
        if cut < len {
            copy_dir(&dirs.run, &dirs.cut, Some(cut));
            recover_checked(
                &dirs.cut,
                &oracle,
                acked,
                &format!("{ctx}, log cut at byte {cut}"),
            );
        }
    }
    recover_checked(&dirs.run, &oracle, acked, &ctx);
    let bytes = std::fs::read(&wal).unwrap();
    recover_checked(
        &dirs.run,
        &oracle,
        acked,
        &format!("{ctx}, second recovery"),
    );
    assert!(
        std::fs::read(&wal).unwrap() == bytes,
        "{ctx}: a second recovery changed the log"
    );
    seen
}

/// Every split of `len` requests into consecutive non-empty batches, as
/// batch sizes.
fn splits(len: usize) -> Vec<Vec<usize>> {
    (0..1u32 << (len - 1))
        .map(|cuts| {
            let mut sizes = vec![1];
            for i in 0..len - 1 {
                if cuts & (1 << i) != 0 {
                    sizes.push(1);
                } else {
                    *sizes.last_mut().unwrap() += 1;
                }
            }
            sizes
        })
        .collect()
}

#[test]
fn every_small_stream_split_and_single_fault_keeps_acked_equal_durable() {
    let k: usize = std::env::var("EPILOG_ENUM_K")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    // A run's crash is simulated in process: no power is lost, so what a
    // real fsync adds is never observed (an injected failure is decided
    // before it). A RAM-backed directory, where one costs nothing, keeps
    // thousands of runs within seconds.
    let shm = Path::new("/dev/shm");
    let tmp = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let base = tmp.join(format!("epilog-enum-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dirs = Dirs {
        genesis: base.join("genesis"),
        run: base.join("run"),
        cut: base.join("cut"),
    };
    drop(
        DurableDb::create(
            &dirs.genesis,
            epilog::syntax::Theory::from_text(BASE).unwrap(),
            FsyncPolicy::Never,
        )
        .unwrap(),
    );
    copy_dir(&dirs.genesis, &dirs.run, None);

    let started = std::time::Instant::now();
    let (mut streams, mut batchings, mut runs, mut degraded) = (0u64, 0u64, 0u64, 0u64);
    let mut stream = Vec::new();
    for len in 1..=k {
        for code in 0..OPS.len().pow(len as u32) {
            stream.clear();
            stream.extend((0..len).map(|i| OPS[code / OPS.len().pow(i as u32) % OPS.len()]));
            streams += 1;
            for split in splits(len) {
                batchings += 1;
                let clean = run(&stream, &split, Fault::None, Exit::Crash, &dirs);
                let faults = (0..clean.writes)
                    .flat_map(|n| {
                        [
                            FaultKind::FailOp,
                            FaultKind::TornWrite,
                            FaultKind::ShortWrite,
                        ]
                        .map(|kind| Fault::Write(n, kind))
                    })
                    .chain((0..clean.syncs).map(Fault::Sync));
                runs += 1;
                for fault in faults {
                    runs += 1;
                    if run(&stream, &split, fault, Exit::Crash, &dirs).degraded {
                        degraded += 1;
                        runs += 1;
                        run(&stream, &split, fault, Exit::HealThenCrash, &dirs);
                    }
                }
            }
        }
    }
    eprintln!(
        "writer enumeration: k = {k}, {streams} streams, {batchings} splits, {runs} runs \
         ({degraded} degraded, each also healed) in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    assert!(degraded > 0, "no fault ever degraded the writer");
    std::fs::remove_dir_all(&base).unwrap();
}
