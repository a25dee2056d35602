//! Multi-threaded soak test for the serving layer: N reader threads
//! `ask` against live snapshots while the main thread drives a
//! randomized commit stream through the single-writer queue.
//!
//! What it proves:
//!
//! * **No torn reads** — every `(lsn, answers)` sample a reader ever
//!   records equals the sequential-replay oracle's answers at exactly
//!   that LSN. A reader can observe an old state, never a mixed one.
//! * **Snapshot monotonicity** — successive snapshots taken by one
//!   reader never go backwards in LSN.
//! * **Serial equivalence** — the final recovered database equals the
//!   sequential replay of the accepted commits, in the order the one
//!   driver thread queued them (the writer's order).
//!
//! Two worlds go through it. The **registrar** is definite: reads come off
//! the least model, commits run the constraint checks and some are
//! refused. The **Teach world** of §1 is not: disjunctions are asserted and
//! retracted under readers that put the six read shapes of the
//! `teach_mixed` wire workload to each snapshot, so four threads share one
//! kept grounding — registry, model and, behind its lock, the solver — per
//! published state, and every answer must still be the one a prover built
//! from scratch on the replayed theory gives.
//!
//! The commit stream is seeded (deterministic op sequence; only the
//! batching and interleaving vary between runs). `EPILOG_SOAK_COMMITS`
//! scales the stream length (default 96) for the nightly deep-fuzz CI
//! leg.

use epilog::persist::Request;
use epilog::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

const PEOPLE: usize = 6;
const READERS: usize = 4;

fn person(i: usize) -> String {
    format!("E{i}")
}

fn number(i: usize) -> String {
    format!("N{i}")
}

/// One transaction from the randomized stream.
fn pick_ops(roll: u64) -> Vec<TxOp> {
    let i = (roll >> 8) as usize % PEOPLE;
    match roll % 4 {
        // Hire: employee + matching ss number, satisfies both ICs.
        0 => vec![
            TxOp::Assert(parse(&format!("emp({})", person(i))).unwrap()),
            TxOp::Assert(parse(&format!("ss({}, {})", person(i), number(i))).unwrap()),
        ],
        // Fire: retract both, and a renumbering (a no-op commit when Ei
        // holds none of them). Without the last, every person ends up
        // renumbered and the stream stops changing anything.
        1 => vec![
            TxOp::Retract(parse(&format!("emp({})", person(i))).unwrap()),
            TxOp::Retract(parse(&format!("ss({}, {})", person(i), number(i))).unwrap()),
            TxOp::Retract(
                parse(&format!("ss({}, {})", person(i), number((i + 1) % PEOPLE))).unwrap(),
            ),
        ],
        // Always-invalid: an employee with no ss number ever.
        2 => vec![TxOp::Assert(parse("emp(Ghost)").unwrap())],
        // Renumber: violates ss-uniqueness iff Ei currently has a number.
        _ => vec![TxOp::Assert(
            parse(&format!("ss({}, {})", person(i), number((i + 1) % PEOPLE))).unwrap(),
        )],
    }
}

/// What a registrar reader asks of a snapshot.
fn registrar_reads(db: &EpistemicDb) -> Vec<String> {
    [
        "K emp(E0)",
        "exists y. K ss(E1, y)",
        "K person(E2)",
        "K emp(Ghost)",
    ]
    .iter()
    .map(|q| db.ask(&parse(q).unwrap()).to_string())
    .collect()
}

const TEACHERS: usize = 8;
const DISJUNCTIONS: usize = 3;

fn teach_base() -> String {
    let facts = (0..TEACHERS).map(|i| format!("Teach(T{i}, C{i})"));
    let choices = (0..DISJUNCTIONS).map(|j| format!("Teach(A{j}, P{j}) | Teach(B{j}, P{j})"));
    let mut lines: Vec<String> = facts.chain(choices).collect();
    lines.push("exists x. Teach(x, CS)".to_string());
    lines.join("\n")
}

/// Assert or retract one of four more disjunctions (a retract of an
/// absent one, or an assert of a present one, is a no-op commit).
fn pick_teach_ops(roll: u64) -> Vec<TxOp> {
    let k = (roll >> 8) % 4;
    let w = parse(&format!("Teach(H{k}, Q{k}) | Teach(G{k}, Q{k})")).unwrap();
    vec![if roll.is_multiple_of(2) {
        TxOp::Assert(w)
    } else {
        TxOp::Retract(w)
    }]
}

/// The six read shapes of `teach_mixed`, over the base and over the
/// disjunctions that come and go.
fn teach_reads(db: &EpistemicDb) -> Vec<String> {
    let ask = |q: &str| db.ask(&parse(q).unwrap()).to_string();
    let demo = |q: &str| format!("{:?}", db.demo_all(&parse(q).unwrap()).unwrap());
    vec![
        ask("K Teach(T3, C3)"),
        ask("exists x. K Teach(x, P1)"),
        demo("K Teach(x, C5)"),
        ask("K (Teach(A2, P2) | Teach(B2, P2))"),
        ask("K (exists x. Teach(x, CS))"),
        ask("Teach(A0, P0)"),
        ask("exists x. K Teach(x, Q0)"),
        ask("K (Teach(H1, Q1) | Teach(G1, Q1))"),
        ask("Teach(G2, Q2)"),
        ask("K (exists x. Teach(x, Q3))"),
        demo("K Teach(x, y)"),
    ]
}

/// One soak: where the database starts, what commits arrive, what readers
/// ask.
struct World {
    base: String,
    ics: &'static [&'static str],
    pick_ops: fn(u64) -> Vec<TxOp>,
    reads: fn(&EpistemicDb) -> Vec<String>,
    /// Whether the stream holds commits the constraints must refuse.
    rejects: bool,
}

fn sentence_set(t: &epilog::syntax::Theory) -> Vec<String> {
    let mut v: Vec<String> = t.sentences().iter().map(|w| w.to_string()).collect();
    v.sort();
    v
}

fn soak(dir: &std::path::Path, world: &World, total_commits: u64) {
    let db = ServingDb::create(
        dir,
        epilog::syntax::Theory::from_text(&world.base).unwrap(),
        ServeOptions::default(),
    )
    .unwrap();
    for ic in world.ics {
        db.add_constraint(parse(ic).unwrap()).unwrap();
    }
    let base_lsn = db.snapshot().lsn();

    let reads = world.reads;
    let stop = AtomicBool::new(false);
    // Accepted commits in queue order, each with the LSN of its log
    // record — `None` for one that changed nothing and wrote none.
    let mut accepted: Vec<(Option<u64>, Vec<TxOp>)> = Vec::new();
    let mut rejected = 0u64;
    let mut effective = 0u64; // accepted commits with a non-empty delta

    let samples: Vec<Vec<(u64, Vec<String>)>> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    let mut got: Vec<(u64, Vec<String>)> = Vec::new();
                    let mut prev = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = db.snapshot();
                        assert!(
                            snap.lsn() >= prev,
                            "snapshot LSN went backwards: {} after {}",
                            snap.lsn(),
                            prev
                        );
                        prev = snap.lsn();
                        got.push((snap.lsn(), reads(snap.db())));
                    }
                    got
                })
            })
            .collect();

        // Drive the commit stream: issue a small pipelined chunk of
        // transactions, then collect all their receipts.
        let mut lcg = 0x9e3779b97f4a7c15u64;
        let mut issued = 0u64;
        while issued < total_commits {
            let chunk = 1 + (lcg % 4).min(total_commits - issued - 1);
            let mut inflight = Vec::new();
            for _ in 0..chunk {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let ops = (world.pick_ops)(lcg >> 16);
                inflight.push((ops.clone(), db.send(Request::commit(ops))));
                issued += 1;
            }
            for (ops, handle) in inflight {
                match handle.wait() {
                    Ok(receipt) => {
                        let logged = receipt.report.asserted + receipt.report.retracted > 0;
                        effective += u64::from(logged);
                        accepted.push((logged.then_some(receipt.lsn), ops));
                    }
                    Err(ServeError::Db(..)) => rejected += 1,
                    Err(e) => panic!("unexpected serve error: {e}"),
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });

    assert!(
        !accepted.is_empty() && (rejected > 0) == world.rejects,
        "the stream should exercise its outcomes: {} accepted, {rejected} rejected",
        accepted.len()
    );

    // ----- Sequential-replay oracle -------------------------------------
    // Each state is answered by a database built from scratch on the
    // replayed sentences, so nothing a live prover kept can leak in.
    let from_scratch = |replayed: &EpistemicDb| {
        let mut fresh = EpistemicDb::new(replayed.theory().clone());
        for ic in world.ics {
            fresh.add_constraint(parse(ic).unwrap()).unwrap();
        }
        reads(&fresh)
    };
    let mut oracle = EpistemicDb::from_text(&world.base).unwrap();
    for ic in world.ics {
        oracle.add_constraint(parse(ic).unwrap()).unwrap();
    }
    let mut per_lsn: HashMap<u64, Vec<String>> = HashMap::new();
    per_lsn.insert(base_lsn, from_scratch(&oracle));
    // The writer applies requests in queue order. A commit that changes
    // nothing is acknowledged at the LSN its batch started from, which an
    // earlier commit of that batch may already have passed — so replay
    // follows the queue, not the receipts, and only a logged commit
    // defines the state at its LSN.
    for (lsn, ops) in &accepted {
        let mut txn = oracle.transaction();
        for op in ops {
            txn = match op {
                TxOp::Assert(w) => txn.assert(w.clone()),
                TxOp::Retract(w) => txn.retract(w.clone()),
            };
        }
        let report = txn
            .commit()
            .expect("a commit the server accepted must replay cleanly");
        assert_eq!(
            report.asserted + report.retracted > 0,
            lsn.is_some(),
            "replay and server disagree on whether {ops:?} changed anything"
        );
        if let Some(lsn) = lsn {
            per_lsn.insert(*lsn, from_scratch(&oracle));
        }
    }

    // ----- No torn reads: every sample matches the oracle at its LSN ----
    let mut checked = 0usize;
    for reader in &samples {
        for (lsn, got) in reader {
            let want = per_lsn
                .get(lsn)
                .unwrap_or_else(|| panic!("reader observed LSN {lsn} that was never published"));
            assert_eq!(got, want, "torn read at LSN {lsn}");
            checked += 1;
        }
    }
    assert!(checked > 0, "readers never sampled anything");

    // ----- Serial equivalence of the durable state ----------------------
    let final_lsn = db.snapshot().lsn();
    let stats = db.stats();
    assert_eq!(stats.commits, effective, "no-op commits are not logged");
    assert_eq!(stats.rejected, rejected);
    db.shutdown().unwrap();
    let (recovered, report) = DurableDb::recover(dir, FsyncPolicy::Always).unwrap();
    assert_eq!(report.last_lsn, final_lsn);
    assert_eq!(
        sentence_set(recovered.db().theory()),
        sentence_set(oracle.theory())
    );
    assert_eq!(reads(recovered.db()), *per_lsn.get(&final_lsn).unwrap());
}

fn soak_commits() -> u64 {
    std::env::var("EPILOG_SOAK_COMMITS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96u64)
}

#[test]
fn concurrent_readers_see_only_published_states() {
    let dir = std::env::temp_dir().join(format!("epilog-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registrar = World {
        base: "forall x. emp(x) -> person(x)".to_string(),
        ics: &[
            "forall x. K emp(x) -> exists y. K ss(x, y)",
            "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
        ],
        pick_ops,
        reads: registrar_reads,
        rejects: true,
    };
    soak(&dir, &registrar, soak_commits());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_readers_share_one_solver_per_teach_world_state() {
    let dir = std::env::temp_dir().join(format!("epilog-soak-teach-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let teach = World {
        base: teach_base(),
        ics: &[],
        pick_ops: pick_teach_ops,
        reads: teach_reads,
        rejects: false,
    };
    // What §1 says of the base, whatever the prover: the shapes'
    // answers by construction.
    let base = teach_reads(&EpistemicDb::from_text(&teach.base).unwrap());
    assert_eq!(
        base[..6],
        ["yes", "no", "[[T5]]", "yes", "yes", "unknown"].map(String::from)
    );
    soak(&dir, &teach, soak_commits());
    std::fs::remove_dir_all(&dir).unwrap();
}
