//! Reader threads racing a live [`ServingDb`]: four threads read
//! snapshots while this one drives a seeded commit stream through the
//! writer's thread and queue, judged by the oracle `tests/chaos.rs`
//! judges by (`tests/oracle`), the replay of accepted commits in queue
//! order:
//!
//! * **no torn reads** — every `(lsn, answers)` sample equals the answers
//!   of a database rebuilt from the oracle's state at that LSN;
//! * **monotonic snapshots** — one reader's LSNs never go back;
//! * **serial equivalence** — every receipt and refusal is the oracle's,
//!   `stats` counts only logged commits, and the recovered database is
//!   the oracle's last state.
//!
//! The **registrar** is definite and refuses some commits. In the **Teach
//! world** of §1 disjunctions come and go under readers that put the six
//! read shapes of the `teach_mixed` wire workload to each snapshot, so
//! four threads share one kept grounding (registry, model and, behind its
//! lock, the solver) per state, and must answer as a from-scratch prover.
//!
//! `EPILOG_SIM_STEPS` sets the stream's length (default 96 commits).

mod oracle;

use epilog::persist::Request;
use epilog::prelude::*;
use oracle::{Lcg, Oracle, Write};
use std::sync::atomic::{AtomicBool, Ordering};

fn soak(name: &str, base: &str, ics: &[&str], commit: fn(u64) -> String, reads: &[&str]) {
    let dir = std::env::temp_dir().join(format!("epilog-soak-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = ServingDb::create(&dir, Theory::from_text(base).unwrap(), Default::default());
    let (db, mut oracle) = (db.unwrap(), Oracle::new(base, reads));
    for ic in ics {
        let lsn = db.add_constraint(parse(ic).unwrap()).unwrap();
        let write = Write::Constraint(parse(ic).unwrap());
        assert_eq!(oracle.apply(&write), Ok(format!("ok constraint @{lsn}")));
    }
    let stop = AtomicBool::new(false);
    let (mut logged, mut rejected) = (0u64, 0u64);
    let samples: Vec<Vec<(u64, oracle::Answers)>> = std::thread::scope(|s| {
        let reader = || {
            let (parsed, mut got, mut prev) = (oracle::reads(reads), Vec::new(), 0);
            while !stop.load(Ordering::Relaxed) {
                let snap = db.snapshot();
                assert!(snap.lsn() >= prev, "LSN {} after {prev}", snap.lsn());
                prev = snap.lsn();
                got.push((prev, oracle::answers(&parsed, snap.db())));
            }
            got
        };
        let readers: Vec<_> = (0..4).map(|_| s.spawn(reader)).collect();
        // Pipeline a small chunk of commits, then judge their receipts in
        // queue order.
        let (mut rng, mut issued) = (Lcg(0x9e3779b97f4a7c15), 0);
        while issued < oracle::env("EPILOG_SIM_STEPS", 96) {
            let chunk: Vec<_> = (0..1 + rng.below(4))
                .map(|_| oracle::ops(&commit(rng.next() >> 16)))
                .map(|ops| (ops.clone(), db.send(Request::commit(ops))))
                .collect();
            issued += chunk.len() as u64;
            for (ops, handle) in chunk {
                let want = oracle.apply(&Write::Commit(ops));
                match handle.wait() {
                    Ok(r) => {
                        let (lsn, a, d) = (r.lsn, r.report.asserted, r.report.retracted);
                        assert_eq!(Ok(format!("ok committed @{lsn} +{a} -{d}")), want);
                        logged += u64::from(a + d > 0);
                    }
                    Err(ServeError::Db(e, lsn)) => {
                        assert_eq!(Err(format!("err rejected: {e} @{lsn}")), want);
                        rejected += 1;
                    }
                    Err(e) => panic!("unexpected serve error: {e}"),
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(
        logged > 0 && (rejected > 0) != ics.is_empty(),
        "{logged}, {rejected}"
    );
    for (lsn, got) in samples.iter().flatten() {
        assert_eq!(*got, oracle.expected(*lsn), "torn read at LSN {lsn}");
    }
    assert!(
        samples.iter().all(|s| !s.is_empty()),
        "a reader never sampled"
    );
    let stats = db.stats();
    assert_eq!((stats.commits, stats.rejected), (logged, rejected));
    assert_eq!(db.snapshot().lsn(), oracle.lsn);
    db.shutdown().unwrap();
    let (recovered, report) = DurableDb::recover(&dir, FsyncPolicy::Always).unwrap();
    assert_eq!(report.last_lsn, oracle.lsn);
    oracle.check(recovered.db(), oracle.lsn, true, "recovery");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_readers_see_only_published_states() {
    let reads = [
        "ask K emp(E0)",
        "ask exists y. K ss(E1, y)",
        "ask K person(E2)",
        "ask K emp(Ghost)",
    ];
    soak(
        "registrar",
        oracle::REGISTRAR,
        &oracle::ICS,
        oracle::registrar,
        &reads,
    );
}

const TEACH_READS: [&str; 11] = [
    "ask K Teach(T3, C3)",
    "ask exists x. K Teach(x, P1)",
    "demo K Teach(x, C5)",
    "ask K (Teach(A2, P2) | Teach(B2, P2))",
    "ask K (exists x. Teach(x, CS))",
    "ask Teach(A0, P0)",
    "ask exists x. K Teach(x, Q0)",
    "ask K (Teach(H1, Q1) | Teach(G1, Q1))",
    "ask Teach(G2, Q2)",
    "ask K (exists x. Teach(x, Q3))",
    "demo K Teach(x, y)",
];

#[test]
fn concurrent_readers_share_one_solver_per_teach_world_state() {
    let facts = (0..8).map(|i| format!("Teach(T{i}, C{i})"));
    let choices = (0..3).map(|j| format!("Teach(A{j}, P{j}) | Teach(B{j}, P{j})"));
    let base = facts.chain(choices).collect::<Vec<_>>().join("\n") + "\nexists x. Teach(x, CS)";
    // What §1 says of the base, whatever the prover: the six shapes'
    // answers by construction.
    let db = EpistemicDb::from_text(&base).unwrap();
    let got = oracle::answers(&oracle::reads(&TEACH_READS), &db);
    let heads: Vec<String> = got.into_iter().map(|(head, rows)| head + &rows).collect();
    assert_eq!(
        heads[..6],
        ["yes", "no", "rows 1\nrow T5", "yes", "yes", "unknown"]
    );
    soak("teach", &base, &[], oracle::teach, &TEACH_READS);
}
