//! Crash–recover–continue chaos soak for the serving writer under
//! injected storage faults.
//!
//! Each cycle: recover the directory and check it against a sequential
//! oracle, arm a seeded fault schedule (scripted fsync failures, torn
//! and failed appends, random fault rates, or none), step commit chunks
//! through a [`Writer`] — each chunk cut into batches at points drawn
//! from the seed — exercise degraded mode when it appears (snapshots
//! must keep answering at the durable head; a heal must restore service
//! once the "disk" is fixed), then crash — drop the writer and smear
//! seeded garbage over the log tail — and loop.
//!
//! The invariants, cycle after cycle:
//!
//! * **Acknowledged durability** — every commit whose handle returned
//!   `Ok` survives every subsequent crash: recovery lands exactly on
//!   the last acknowledged LSN and the recovered state equals the
//!   oracle that applied only acknowledged commits.
//! * **No resurrection** — nothing a caller was told *failed* (io
//!   error, degraded rejection) is ever observed after recovery, and
//!   every recovery succeeds (it refuses a log record that does not
//!   replay whole).
//! * **Verdict agreement** — in fault-free chunks, a commit the server
//!   rejects is one the oracle rejects too.
//!
//! Seeded and deterministic: one thread forms every batch by calling
//! [`Writer::step`], so a seed replays bit for bit and prints the same
//! counts on every run. `EPILOG_CHAOS_SEED` picks the schedule,
//! `EPILOG_CHAOS_CYCLES` scales the soak (default 100; the nightly CI
//! leg runs it 10× across four seeds). `tests/serving.rs` is the soak
//! over the real writer thread and its queue.

use epilog::persist::wal::WAL_FILE;
use epilog::persist::{CommitHandle, Request, Writer};
use epilog::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const BASE: &str = "forall x. emp(x) -> person(x)";
const ICS: [&str; 2] = [
    "forall x. K emp(x) -> exists y. K ss(x, y)",
    "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
];
const PEOPLE: usize = 6;
const CHUNKS_PER_CYCLE: usize = 3;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// A draw in `0..n` from the high bits — an LCG's low bits are
    /// short-period (`state % 4` cycles with period 4), so every
    /// small-range decision must come from the top of the word.
    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 33) % n
    }
}

fn person(i: usize) -> String {
    format!("E{i}")
}

fn number(i: usize) -> String {
    format!("N{i}")
}

/// One transaction from the seeded stream — same mix as the serving
/// soak: valid hires/fires, an always-invalid hire, and a renumbering
/// that violates ss-uniqueness exactly when the person is numbered. A
/// fire also retracts the renumbered fact: otherwise every person ends
/// up holding it, hires break the dependency and fires change nothing,
/// and once nothing is logged no injected fault can fire.
fn pick_ops(roll: u64) -> Vec<TxOp> {
    let i = (roll >> 8) as usize % PEOPLE;
    match roll % 4 {
        0 => vec![
            TxOp::Assert(parse(&format!("emp({})", person(i))).unwrap()),
            TxOp::Assert(parse(&format!("ss({}, {})", person(i), number(i))).unwrap()),
        ],
        1 => vec![
            TxOp::Retract(parse(&format!("emp({})", person(i))).unwrap()),
            TxOp::Retract(parse(&format!("ss({}, {})", person(i), number(i))).unwrap()),
            TxOp::Retract(
                parse(&format!("ss({}, {})", person(i), number((i + 1) % PEOPLE))).unwrap(),
            ),
        ],
        2 => vec![TxOp::Assert(parse("emp(Ghost)").unwrap())],
        _ => vec![TxOp::Assert(
            parse(&format!("ss({}, {})", person(i), number((i + 1) % PEOPLE))).unwrap(),
        )],
    }
}

fn queries() -> Vec<Formula> {
    vec![
        parse("K emp(E0)").unwrap(),
        parse("exists y. K ss(E1, y)").unwrap(),
        parse("K person(E2)").unwrap(),
        parse("K emp(Ghost)").unwrap(),
        parse("K person(E5)").unwrap(),
    ]
}

fn answers(db: &EpistemicDb, qs: &[Formula]) -> Vec<Answer> {
    qs.iter().map(|q| db.ask(q)).collect()
}

fn sentence_set(t: &epilog::syntax::Theory) -> Vec<String> {
    let mut v: Vec<String> = t.sentences().iter().map(|w| w.to_string()).collect();
    v.sort();
    v
}

fn apply_to(oracle: &mut EpistemicDb, ops: &[TxOp]) -> Result<CommitReport, DbError> {
    let mut txn = oracle.transaction();
    for op in ops {
        txn = match op {
            TxOp::Assert(w) => txn.assert(w.clone()),
            TxOp::Retract(w) => txn.retract(w.clone()),
        };
    }
    txn.commit()
}

/// Step one request as a batch of its own and return its answer.
fn step_one<T>(writer: &mut Writer, (req, h): (Request, CommitHandle<T>)) -> Result<T, ServeError> {
    writer.step(vec![req]);
    h.wait()
}

/// Smear seeded garbage over the log tail — the torn, half-flushed
/// bytes a real crash leaves behind. Appends only: acknowledged records
/// are fsynced, so a crash can never reach back into them.
fn tear(dir: &Path, rng: &mut Lcg) {
    use std::io::Write;
    let garbage: Vec<u8> = match rng.below(3) {
        // A record header that stops mid-field.
        0 => format!("@{} 5", 1 + rng.below(900)).into_bytes(),
        // A well-formed frame whose checksum is wrong.
        1 => format!("@{} 6 12345\nxxxxxx\n", 1 + rng.below(900)).into_bytes(),
        // A length that promises far more payload than exists.
        _ => format!("@{} 999999 0\npartial", 1 + rng.below(900)).into_bytes(),
    };
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .unwrap();
    f.write_all(&garbage).unwrap();
    let _ = f.sync_data();
}

/// Demand that a recovery (which refuses a record it cannot replay
/// whole) equals the oracle of acknowledged commits, at exactly the last
/// acknowledged LSN.
fn check_recovery(
    durable: &DurableDb,
    report: &RecoveryReport,
    oracle: &EpistemicDb,
    acked_lsn: u64,
    qs: &[Formula],
    context: &str,
) {
    assert_eq!(
        report.last_lsn, acked_lsn,
        "{context}: recovery must land on the last acknowledged LSN \
         (lost an acked commit if below, resurrected a failed one if above)"
    );
    assert_eq!(
        sentence_set(durable.db().theory()),
        sentence_set(oracle.theory()),
        "{context}: recovered theory diverged from the acked-commit oracle"
    );
    assert_eq!(
        answers(durable.db(), qs),
        answers(oracle, qs),
        "{context}: recovered answers diverged"
    );
    assert!(
        durable.db().satisfies_constraints(),
        "{context}: recovered state violates constraints"
    );
}

#[test]
fn chaos_crash_recover_continue_soak() {
    let cycles: u64 = std::env::var("EPILOG_CHAOS_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let seed: u64 = std::env::var("EPILOG_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("epilog-chaos-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut rng = Lcg(seed);
    let qs = queries();

    // Genesis: theory + constraints, each synced by its own batch.
    let mut oracle = EpistemicDb::from_text(BASE).unwrap();
    let mut acked_lsn = {
        let theory = epilog::syntax::Theory::from_text(BASE).unwrap();
        let (mut writer, endpoint) =
            Writer::new(DurableDb::create(&dir, theory, FsyncPolicy::Never).unwrap());
        for ic in ICS {
            step_one(&mut writer, Request::constraint(parse(ic).unwrap())).unwrap();
            oracle.add_constraint(parse(ic).unwrap()).unwrap();
        }
        endpoint.snapshot().lsn()
    };

    let mut acked_commits = 0u64;
    let mut failed_commits = 0u64;
    let mut degraded_cycles = 0u64;
    let mut heals = 0u64;
    let mut tears = 0u64;

    for cycle in 0..cycles {
        // ---- Recover and audit against the oracle --------------------
        let (mut durable, report) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
        check_recovery(
            &durable,
            &report,
            &oracle,
            acked_lsn,
            &qs,
            &format!("cycle {cycle}"),
        );

        // Periodic compaction, while the disk behaves.
        if cycle % 8 == 3 {
            durable.compact().unwrap();
        }

        // ---- Arm this cycle's seeded fault schedule ------------------
        let inj = Arc::new(FaultInjector::new(seed ^ (cycle.wrapping_mul(0x9e37))));
        match rng.below(4) {
            // A scripted fsync failure a few batches in.
            0 => inj.fail_nth_sync(rng.below(4)),
            // A scripted append failure: clean, torn, or short.
            1 => {
                let kind = match rng.below(3) {
                    0 => FaultKind::FailOp,
                    1 => FaultKind::TornWrite,
                    _ => FaultKind::ShortWrite,
                };
                inj.fail_nth_write(rng.below(4), kind);
            }
            // Background fault rates on both primitives.
            2 => {
                inj.set_write_rate(1, 6);
                inj.set_sync_rate(1, 8);
            }
            // A fault-free cycle: the soak also covers plain operation.
            _ => inj.disarm(),
        }
        durable.set_fault_injector(Some(Arc::clone(&inj)));
        let (mut writer, endpoint) = Writer::new(durable);

        // ---- Step commit chunks, cut into seeded batches -------------
        'cycle: for _ in 0..CHUNKS_PER_CYCLE {
            let chunk = 1 + rng.below(4) as usize;
            let mut inflight = Vec::with_capacity(chunk);
            let mut batch = Vec::new();
            for i in 0..chunk {
                let ops = pick_ops(rng.next() >> 16);
                let (req, h) = Request::commit(ops.clone());
                batch.push(req);
                inflight.push((ops, h));
                // The batch ends after the chunk's last commit, and after
                // any other with odds 1/2.
                if i + 1 == chunk || rng.below(2) == 0 {
                    writer.step(std::mem::take(&mut batch));
                }
            }
            let results: Vec<(Vec<TxOp>, Result<CommitReceipt, ServeError>)> = inflight
                .into_iter()
                .map(|(ops, h)| (ops, h.wait()))
                .collect();
            // A sync-failure rollback can invalidate the state later
            // chunk members were validated against, so the server-vs-
            // oracle rejection cross-check only holds in chunks with no
            // transient failures.
            let chunk_clean = results
                .iter()
                .all(|(_, r)| matches!(r, Ok(_) | Err(ServeError::Db(..))));
            for (ops, res) in results {
                match res {
                    Ok(receipt) => {
                        let _ = apply_to(&mut oracle, &ops)
                            .expect("an acknowledged commit must replay on the oracle");
                        acked_lsn = acked_lsn.max(receipt.lsn);
                        acked_commits += 1;
                    }
                    Err(ServeError::Db(..)) => {
                        if chunk_clean {
                            assert!(
                                apply_to(&mut oracle, &ops).is_err(),
                                "server rejected a commit the oracle accepts: {ops:?}"
                            );
                        }
                    }
                    Err(ServeError::Io(_)) | Err(ServeError::Degraded(_)) => {
                        failed_commits += 1;
                    }
                    Err(e @ ServeError::Closed) => {
                        panic!("writer died mid-soak: {e}")
                    }
                    Err(e @ ServeError::Internal(_)) => {
                        panic!("a commit panicked mid-soak: {e}")
                    }
                }
            }

            if endpoint.stats().degraded {
                degraded_cycles += 1;
                // Degraded invariants: commits rejected fast, snapshots
                // and stats still answering at the durable head.
                let err = step_one(&mut writer, Request::commit(pick_ops(rng.next() >> 16)))
                    .expect_err("a degraded writer must reject commits");
                assert!(matches!(err, ServeError::Degraded(_)), "got {err}");
                let snap = endpoint.snapshot();
                assert_eq!(snap.lsn(), acked_lsn, "degraded head must stay durable");
                assert_eq!(
                    answers(snap.db(), &qs),
                    answers(&oracle, &qs),
                    "degraded snapshot diverged from the acked oracle"
                );
                assert!(endpoint.stats().degraded);
                // Alternate the two exits from degraded mode — odd
                // occurrences heal and continue, even ones crash while
                // degraded — so both paths run whenever it engages at
                // all, under any seed.
                if degraded_cycles % 2 == 1 {
                    // Fix the disk, heal, and keep committing.
                    inj.disarm();
                    let healed = step_one(&mut writer, Request::heal())
                        .expect("heal with a fixed disk succeeds");
                    assert_eq!(healed, acked_lsn, "heal must land on the durable head");
                    assert!(!endpoint.stats().degraded);
                    heals += 1;
                } else {
                    // Crash while degraded.
                    break 'cycle;
                }
            }
        }

        // ---- Crash: no shutdown ceremony, then smear the tail --------
        drop(writer);
        if rng.below(4) != 0 {
            tear(&dir, &mut rng);
            tears += 1;
        }
    }

    // ---- Final recovery after the last crash -------------------------
    let (durable, report) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
    check_recovery(&durable, &report, &oracle, acked_lsn, &qs, "final");
    drop(durable);

    // The soak must have exercised what it claims to: faults fired,
    // degraded mode appeared and healed, tails were torn.
    assert!(acked_commits > 0, "no commit ever succeeded");
    assert!(tears > 0, "no crash ever tore the log");
    if cycles >= 20 {
        assert!(failed_commits > 0, "no injected fault ever failed a commit");
        assert!(
            degraded_cycles > 0,
            "degraded mode never engaged across {cycles} cycles"
        );
        assert!(heals > 0, "no degraded cycle ever healed");
    }
    eprintln!(
        "chaos soak: {cycles} cycles, {acked_commits} acked, {failed_commits} failed, \
         {degraded_cycles} degraded, {heals} heals, {tears} torn tails, seed {seed}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery is idempotent: recovering a crashed directory twice yields
/// a byte-identical log and an identical state — the first recovery's
/// tail truncation is the only write it performs.
#[test]
fn recovery_is_idempotent() {
    let dir = std::env::temp_dir().join(format!("epilog-chaos-idem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let qs = queries();

    let mut oracle = EpistemicDb::from_text(BASE).unwrap();
    {
        let db = ServingDb::create(
            &dir,
            epilog::syntax::Theory::from_text(BASE).unwrap(),
            ServeOptions::default(),
        )
        .unwrap();
        for ic in ICS {
            db.add_constraint(parse(ic).unwrap()).unwrap();
            oracle.add_constraint(parse(ic).unwrap()).unwrap();
        }
        for i in 0..4 {
            let ops = vec![
                TxOp::Assert(parse(&format!("emp({})", person(i))).unwrap()),
                TxOp::Assert(parse(&format!("ss({}, {})", person(i), number(i))).unwrap()),
            ];
            db.commit_wait(ops.clone()).unwrap();
            let _ = apply_to(&mut oracle, &ops).unwrap();
        }
        db.shutdown().unwrap();
    }
    let mut rng = Lcg(7);
    tear(&dir, &mut rng);

    let (first, r1) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
    assert!(
        r1.torn_tail.is_some(),
        "the smeared tail must register as torn"
    );
    let state1 = (sentence_set(first.db().theory()), answers(first.db(), &qs));
    drop(first);
    let bytes1 = std::fs::read(dir.join(WAL_FILE)).unwrap();

    let (second, r2) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
    assert!(
        r2.torn_tail.is_none(),
        "the tear is gone after one recovery"
    );
    assert_eq!(r2.records_replayed, r1.records_replayed);
    assert_eq!(r2.last_lsn, r1.last_lsn);
    let state2 = (
        sentence_set(second.db().theory()),
        answers(second.db(), &qs),
    );
    drop(second);
    let bytes2 = std::fs::read(dir.join(WAL_FILE)).unwrap();

    assert_eq!(
        bytes1, bytes2,
        "recovery must be byte-idempotent on the log"
    );
    assert_eq!(state1, state2, "recovery must be state-idempotent");
    assert_eq!(state1.0, sentence_set(oracle.theory()));
    assert_eq!(state1.1, answers(&oracle, &qs));
    std::fs::remove_dir_all(&dir).unwrap();
}
