//! The attached least model as the evaluator of definite databases:
//! commits, constraint registration and ground reads on the §3 registrar
//! and on a transitive closure must not reach the SAT pipeline, whatever
//! the size. And the kept model as the first evaluator of the others: on
//! the §1 Teach world a read costs the solver runs its answers need, not
//! one grounding of `Σ` per candidate. And the theory as the cost of a
//! restart: on the closure, compaction writes the sentences alone and
//! recovery derives the model from them with one `eval`. The
//! timings are printed (`--nocapture`), not asserted, except where the
//! seed could not finish at all.

use epilog::core::definite_program;
use epilog::datalog::EvalStats;
use epilog::prelude::*;
use std::time::{Duration, Instant};

fn f(src: &str) -> Formula {
    parse(src).unwrap()
}

/// The two §3 constraints: every known employee has a known number, and
/// the number is a function of the employee.
fn constraints() -> [Formula; 2] {
    [
        f("forall x. K emp(x) -> exists y. K ss(x, y)"),
        f("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z"),
    ]
}

/// `n` employees with a number each under `emp ⊃ person` (3n model
/// tuples), no constraint registered yet.
fn populated(n: usize) -> EpistemicDb {
    let mut src = String::from("forall x. emp(x) -> person(x)\n");
    for i in 0..n {
        src.push_str(&format!("emp(e{i})\nss(e{i}, m{i})\n"));
    }
    EpistemicDb::from_text(&src).unwrap()
}

fn registrar(n: usize) -> EpistemicDb {
    let mut db = populated(n);
    for ic in constraints() {
        db.add_constraint(ic).unwrap();
    }
    db
}

fn timed<T>(op: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = op();
    (out, start.elapsed())
}

#[test]
fn hire_fire_and_reject_never_reach_sat_at_any_size() {
    for n in [10, 100, 400] {
        let mut db = registrar(n);
        let (hired, hire) = timed(|| {
            db.transaction()
                .assert(f("ss(h, mh)"))
                .assert(f("emp(h)"))
                .commit()
        });
        let report = hired.unwrap();
        assert_eq!(
            (report.checks.specialized, report.checks.full),
            (2, 0),
            "both constraints on the routed path"
        );
        // The published prover is the candidate the checks ran against.
        assert_eq!(db.prover().sat_calls(), 0, "hire at n={n}");
        let (rejected, reject) = timed(|| db.transaction().assert(f("emp(ghost)")).commit());
        let Err(DbError::ConstraintViolated(rejection)) = rejected else {
            panic!("an employee without a number must be refused");
        };
        assert_eq!(rejection.witnesses.len(), 1);
        assert_eq!(rejection.witnesses[0].to_string(), "emp(ghost)");
        let (fired, fire) = timed(|| {
            db.transaction()
                .retract(f("emp(h)"))
                .retract(f("ss(h, mh)"))
                .commit()
        });
        assert_eq!(fired.unwrap().retracted, 2);
        assert_eq!(db.prover().sat_calls(), 0, "fire at n={n}");
        println!("registrar n={n}: hire {hire:?}, reject {reject:?}, fire {fire:?}, 0 SAT calls");
    }
}

/// The directory build of the `registrar_*` benchmark workloads, in
/// process and in its order: both constraints registered on the empty
/// registrar, then 100 hires of one commit each (`ss(e_i, n_i)` and
/// `emp(e_i)`). Asserted per receipt: the model grows incrementally, both
/// constraints are checked on the instances the hire fires (by `demo`,
/// answering from the least model), and no SAT call is made. Printed: the
/// median of five builds.
#[test]
fn registrar_build_checks_by_plan() {
    let hires: Vec<[Formula; 2]> = (0..100)
        .map(|i| [f(&format!("ss(e{i}, n{i})")), f(&format!("emp(e{i})"))])
        .collect();
    let mut times = Vec::new();
    for _ in 0..5 {
        let (db, took) = timed(|| {
            let mut db = EpistemicDb::from_text("forall x. emp(x) -> person(x)").unwrap();
            for ic in constraints() {
                db.add_constraint(ic).unwrap();
            }
            for [ss, emp] in &hires {
                let report = db
                    .transaction()
                    .assert(ss.clone())
                    .assert(emp.clone())
                    .commit()
                    .unwrap();
                assert!(
                    matches!(report.model, ModelUpdate::Incremental { .. }),
                    "a hire is incremental, got {:?}",
                    report.model
                );
                assert_eq!((report.checks.specialized, report.checks.full), (2, 0));
                assert_eq!(db.prover().sat_calls(), 0);
            }
            db
        });
        assert_eq!(db.prover().atom_model().unwrap().len(), 300);
        times.push(took);
    }
    println!(
        "registrar build, 2 constraints + 100 hires: {:?} (1.5-2.2 ms on a 2-core VM)",
        median(times)
    );
}

#[test]
fn both_constraints_register_on_a_populated_registrar() {
    let mut db = populated(100);
    for ic in constraints() {
        let (added, took) = timed(|| db.add_constraint(ic.clone()));
        added.unwrap();
        println!("add_constraint on 100 employees: {took:?} for `{ic}`");
    }
    assert_eq!(db.prover().sat_calls(), 0);
    assert!(db.satisfies_constraints());
    // A second number for one employee breaks the dependency.
    let err = db.assert(f("ss(e7, other)")).unwrap_err();
    assert!(matches!(err, DbError::ConstraintViolated(_)));
    // And registration still refuses a constraint the state violates.
    let mut db = populated(100);
    db.assert(f("emp(ghost)")).unwrap();
    let err = db.add_constraint(constraints()[0].clone()).unwrap_err();
    let DbError::ConstraintViolated(rejection) = err else {
        panic!("expected a violation, got {err}");
    };
    assert_eq!(rejection.witnesses[0].to_string(), "emp(ghost)");
}

#[test]
fn ground_ask_on_a_closure_makes_no_sat_call() {
    // 10 disjoint 20-edge chains under the two closure rules.
    let mut src = String::from(
        "forall x, y. e(x, y) -> t(x, y)\nforall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n",
    );
    for c in 0..10 {
        for i in 0..20 {
            src.push_str(&format!("e(c{c}n{i}, c{c}n{})\n", i + 1));
        }
    }
    let db = EpistemicDb::from_text(&src).unwrap();
    let (answer, took) = timed(|| db.ask(&f("K t(c3n0, c3n20)")));
    assert_eq!(answer, Answer::Yes);
    assert_eq!(db.ask(&f("K t(c3n0, c4n20)")), Answer::No);
    assert_eq!(db.prover().sat_calls(), 0);
    println!("ask K t(a, b) on the 10 x 20-chain closure: {took:?}");
}

const CLOSURE_RULES: &str =
    "forall x, y. e(x, y) -> t(x, y)\nforall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n";

/// The 30 edges of chain `c`, one per line.
fn chain(c: usize) -> String {
    (0..30)
        .map(|i| format!("e(s{c}n{i}, s{c}n{})\n", i + 1))
        .collect()
}

/// `chains` disjoint 30-edge chains under the two closure rules: 495
/// model tuples per chain.
fn closure(chains: usize) -> EpistemicDb {
    let src: String = (0..chains).map(chain).collect();
    EpistemicDb::from_text(&format!("{CLOSURE_RULES}{src}")).unwrap()
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// One leaf commit the way the serving writer runs it — `prepare`,
/// `commit`, a clone as the published snapshot, and the drop of the
/// snapshot it replaces — timed; the receipt and the replaced snapshot's
/// answers are checked.
fn leaf_commit(db: &mut EpistemicDb, grow: bool, edge: &Formula, path: &Formula) -> Duration {
    // `head` plays the published snapshot a reader still holds.
    let head = db.clone();
    let (report, took) = timed(|| {
        let txn = db.transaction();
        let txn = if grow {
            txn.assert(edge.clone())
        } else {
            txn.retract(edge.clone())
        };
        let report = txn.prepare().unwrap().commit();
        drop(db.clone());
        report
    });
    let (before, after, delta) = if grow {
        (Answer::No, Answer::Yes, (2, 0))
    } else {
        (Answer::Yes, Answer::No, (0, 2))
    };
    assert_eq!(head.ask(path), before, "a pinned snapshot keeps its state");
    assert_eq!(db.ask(path), after);
    let (_, freed) = timed(|| drop(head));
    let ModelUpdate::Incremental {
        tuples_added,
        tuples_removed,
        stats,
    } = report.model
    else {
        panic!("a leaf commit is incremental, got {:?}", report.model);
    };
    assert_eq!((tuples_added, tuples_removed), delta);
    assert_eq!((stats.full_firings, stats.plans_compiled), (0, 0));
    took + freed
}

/// A leaf commit is ±2 model tuples whatever surrounds it, so its cost
/// should not follow the size of the model. The timings are printed;
/// what is asserted is the deterministic part: the receipts, and that a
/// snapshot taken before a commit still answers for its own state.
#[test]
fn leaf_commits_cost_their_delta_at_any_closure_size() {
    for chains in [10, 100, 300] {
        let mut db = closure(chains);
        let model = db.prover().atom_model().unwrap();
        let tuples = model.len();
        assert_eq!(tuples, chains * 495);
        let model_clone = median((0..9).map(|_| timed(|| model.clone()).1).collect());
        let db_clone = median((0..9).map(|_| timed(|| db.clone()).1).collect());

        // Each leaf hangs off the end of a chain: the edge and the one
        // path it closes are the whole consequence of the commit.
        let leaves: Vec<(Formula, Formula)> = (0..5)
            .map(|i| {
                let end = format!("s{}n30", i * (chains - 1) / 4);
                (
                    f(&format!("e(leaf{i}, {end})")),
                    f(&format!("K t(leaf{i}, {end})")),
                )
            })
            .collect();
        let mut run = |grow| {
            let times = leaves.iter().map(|(e, t)| leaf_commit(&mut db, grow, e, t));
            median(times.collect())
        };
        let (insert, retract) = (run(true), run(false));
        assert_eq!(db.prover().atom_model().unwrap().len(), tuples);
        assert_eq!(db.prover().sat_calls(), 0);
        println!(
            "closure {chains} x 30 ({tuples} tuples): model clone {model_clone:?}, \
             db clone {db_clone:?}, leaf insert {insert:?}, leaf retract {retract:?} \
             (prepare + commit + clone + drop of the replaced snapshot)"
        );
    }
}

/// The `closure_write` bridge, in process: an edge from chain 0's tail to
/// chain 1's head adds the 31 x 31 paths across it, and retracting it
/// runs DRed over the same 962 tuples — the edge and every path
/// over-deleted, none re-derived. Each over-deleted path has its head
/// bound, so the recursive rule's support check ends on a lookup of one
/// `t` tuple. Asserted: the receipts; printed: the rows the retraction
/// examined and its median time over five grow / retract pairs.
#[test]
fn retracting_a_bridge_runs_dred_over_the_paths_it_carried() {
    let mut db = closure(100);
    let bridge = f("e(s0n30, s1n0)");
    let mut times = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..5 {
        let grown = db.transaction().assert(bridge.clone()).commit().unwrap();
        let ModelUpdate::Incremental { tuples_added, .. } = grown.model else {
            panic!("a bridge insert is incremental, got {:?}", grown.model);
        };
        assert_eq!(tuples_added, 962);
        let (shrunk, took) = timed(|| db.transaction().retract(bridge.clone()).commit());
        let report = shrunk.unwrap();
        let ModelUpdate::Incremental {
            tuples_added,
            tuples_removed,
            stats,
        } = report.model
        else {
            panic!("a bridge retract is incremental, got {:?}", report.model);
        };
        assert_eq!((tuples_added, tuples_removed), (0, 962));
        assert_eq!(stats.support_checks, 1922);
        assert_eq!((stats.plans_compiled, stats.full_firings), (0, 0));
        times.push(took);
        rows.push(stats.rows_examined);
    }
    assert_eq!(db.prover().atom_model().unwrap().len(), 100 * 495);
    assert_eq!(db.prover().sat_calls(), 0);
    assert!(rows.windows(2).all(|w| w[0] == w[1]), "{rows:?}");
    println!(
        "bridge retract on the closure 100 x 30 (49 500 tuples): {} rows examined, {:?} \
         (2 853 rows, 1.2-1.9 ms on a 2-core VM; the same hour, when a fully bound `t` \
         step probed column 0 and filtered column 1: 17 268 rows, 1.4-1.9 ms)",
        rows[0],
        median(times),
    );
}

/// The full fixpoint of the 49 500-tuple closure, in process: what
/// recovery and every rule-changing commit run on `closure_write`'s
/// model, and the row a change to the join's probes is judged by.
/// Asserted: the run's counters and the model's row storage in bytes,
/// exactly; printed: its median time over five runs.
#[test]
fn eval_of_the_closure_counts_its_rows() {
    let prog = definite_program(closure(100).theory()).unwrap();
    let times: Vec<Duration> = (0..5)
        .map(|_| {
            let ((model, stats), took) = timed(|| prog.eval());
            assert_eq!(model.len(), 100 * 495);
            // Round 1 fires both rules' full plans; each of the 30 rounds
            // after it fires the recursive rule's `t`-delta variant, whose
            // delta rows each probe `e` on column 1.
            let want = EvalStats {
                rule_firings: 32,
                full_firings: 2,
                derivations: 46_500,
                iterations: 31,
                probe_steps: 31,
                scan_steps: 32,
                variants_skipped: 60,
                rows_examined: 96_000,
                plans_compiled: 2,
                ..EvalStats::default()
            };
            assert_eq!(stats, want);
            // Each row is its arity's `[Param; 2]`, 8 bytes, and so is
            // each of the 3 000 entries the probes built of `e`'s
            // column-1 index, 12 bytes with its key: 432 000 bytes, where
            // 24-byte tuples and 32-byte entries took 1 284 000.
            assert_eq!(model.stored_bytes(), 49_500 * 8 + 3_000 * 12);
            took
        })
        .collect();
    println!(
        "eval of the closure 100 x 30 (49 500 tuples): {:?} (96 000 rows examined; on a \
         2-core VM, ten alternating same-hour pairs of this row: 8.1 ms median (5.4-9.2) \
         with each row stored at its arity as an 8-byte `[Param; 2]`, 13.7 ms (8.6-14.2) \
         with 24-byte tuples)",
        median(times)
    );
}

/// `why` keeps nothing between questions: each one runs the cached
/// program's semi-naive fixpoint, noting the round each tuple first
/// appeared in, and walks the proof down through support queries. A
/// why-not is read off the attached model without running anything. On
/// the 49 500-tuple closure that is what each answer costs. Asserted: the
/// longest path's proof is the 30-step chain and replays, and an absent
/// path has none.
#[test]
fn why_on_the_closure_derives_its_proof_when_asked() {
    let db = closure(100);
    let prog = definite_program(db.theory()).unwrap();
    let atom = |src: &str| match f(src) {
        Formula::Atom(a) => a,
        other => panic!("not an atom: {other}"),
    };
    let (longest, absent) = (atom("t(s0n0, s0n30)"), atom("t(s0n30, s0n0)"));
    let times: Vec<Duration> = (0..3)
        .map(|_| {
            let (proof, took) = timed(|| db.why(&longest));
            let proof = proof.expect("the chain's ends are in the model");
            assert_eq!((proof.height(), proof.size()), (30, 60));
            assert!(proof.replays(&prog));
            took
        })
        .collect();
    let (none, why_not) = timed(|| db.why(&absent));
    assert!(none.is_none());
    println!(
        "why on the closure 100 x 30 (49 500 tuples): {times:?}, why-not {why_not:?} \
         (why: one fixpoint and the walk; on a 2-core VM, ten alternating same-hour pairs, \
         best of three each: 9.8 ms median (9.2-22.6) with rows at their arity and the \
         round map borrowing them from each round's delta, 17.9 ms (16.4-25.5) with 24-byte \
         tuples copied into it; why-not: one lookup in the attached model, 3-5 us there; \
         over a traced fixpoint both took 44-86 / 35-58 ms on the same VM)"
    );
}

/// What `trajectory`'s `closure_write` does before its first request, in
/// process: the closure built by ten bulk commits on a `DurableDb`,
/// `compact()`, recovery from the directory, a first read. Printed next
/// to the same-hour times with and without the per-fact bookkeeping
/// taken out of parse, validation, indexing, logging and the fixpoint's
/// loops, at 100 chains; asserted: the receipts, that the directory is one log whose
/// only record is a checkpoint of exactly the theory's sentences, that
/// recovery replayed nothing, and that the recovered state (theory and
/// least model) is the live one.
#[test]
fn bulk_build_compaction_and_recovery_on_the_closure() {
    for chains in [10, 100, 300] {
        let dir = std::env::temp_dir().join(format!(
            "epilog-model-evaluator-{}-{chains}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let rules = Theory::from_text(CLOSURE_RULES).unwrap();
        let mut db = DurableDb::create(&dir, rules, FsyncPolicy::Never).unwrap();
        let per_commit = chains / 10;
        let mut commits = Vec::new();
        for k in 0..10 {
            let edges: String = (k * per_commit..(k + 1) * per_commit).map(chain).collect();
            let edges = parse_theory(&edges).unwrap();
            let (report, took) = timed(|| {
                let txn = edges.into_iter().fold(db.transaction(), |t, e| t.assert(e));
                txn.commit().unwrap()
            });
            assert_eq!(report.asserted, per_commit * 30);
            // Each chain's 30 edges close into 495 tuples, all new: the
            // semi-naive fixpoint resumed over the cached plans.
            let ModelUpdate::Incremental {
                tuples_added,
                tuples_removed,
                stats,
            } = report.model
            else {
                panic!(
                    "a bulk commit of edges is incremental, got {:?}",
                    report.model
                );
            };
            assert_eq!((tuples_added, tuples_removed), (per_commit * 495, 0));
            assert_eq!((stats.full_firings, stats.plans_compiled), (0, 0));
            commits.push(took);
        }
        let (stats, compact) = timed(|| db.compact().unwrap());
        assert_eq!((stats.checkpoint_lsn, stats.records_dropped), (10, 10));
        let live = db.db().clone();
        drop(db);

        let (recovered, recover) = timed(|| DurableDb::recover(&dir, FsyncPolicy::Never));
        let (rec, report) = recovered.unwrap();
        assert_eq!((report.checkpoint_lsn, report.records_replayed), (10, 0));
        assert_eq!(rec.theory(), live.theory());
        assert_eq!(rec.prover().atom_model(), live.prover().atom_model());
        assert_eq!(rec.prover().atom_model().unwrap().len(), chains * 495);
        let (rows, demo) = timed(|| rec.demo_all(&f("K t(s0n0, x)")).unwrap());
        assert_eq!(rows.len(), 30);
        assert_eq!(rec.prover().sat_calls(), 0);

        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["wal.log"]);
        let file = std::fs::read_to_string(dir.join("wal.log")).unwrap();
        let (header, payload) = file.split_once('\n').unwrap();
        let sentences: String = live
            .theory()
            .sentences()
            .iter()
            .map(|w| format!("\nassert {w}"))
            .collect();
        assert_eq!(payload, format!("checkpoint{sentences}\n"));
        assert!(header.starts_with(&format!("@10 {} ", payload.len() - 1)));

        let sentences: Vec<Formula> = live
            .theory()
            .sentences()
            .iter()
            .map(|w| (**w).clone())
            .collect();
        let (theory, as_set) = timed(|| Theory::new(sentences).unwrap());
        assert_eq!(&theory, live.theory());
        println!(
            "closure {chains} x 30 built by 10 commits of {} edges: first commit {:?}, tenth \
             {:?}, all ten {:?}, compact {compact:?} ({} bytes), recover {recover:?}, first demo {demo:?}, \
             Theory::new of its {} sentences {as_set:?} (at 100 chains on a 2-core VM, ten \
             alternating same-hour pairs: all ten 9.2 ms median (8.2-14.0) and recover \
             7.5 ms (6.4-11.6) with a seeded folded-multiply hasher, names stored once, tokens \
             pulled by the parser, records printed once and run-at-a-time inserts, all ten \
             12.7 ms (10.7-18.8) and recover 9.4 ms (7.9-13.4) with SipHash, a token vector per \
             line, a payload copied into its frame and one insert per row)",
            per_commit * 30,
            commits[0],
            commits[9],
            commits.iter().sum::<Duration>(),
            file.len(),
            theory.len(),
        );
        drop(rec);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The §1 Teach world at the size the `teach_mixed` wire workload serves
/// it: 100 facts, 10 disjunctions, one existential — 111 sentences, not
/// definite, so no least model is attached.
fn teach_world() -> EpistemicDb {
    let mut src = String::new();
    for i in 0..100 {
        src.push_str(&format!("Teach(t{i}, c{i})\n"));
    }
    for j in 0..10 {
        src.push_str(&format!("Teach(a{j}, P{j}) | Teach(b{j}, P{j})\n"));
    }
    src.push_str("exists x. Teach(x, CS)\n");
    let db = EpistemicDb::from_text(&src).unwrap();
    assert!(db.prover().atom_model().is_none());
    db
}

/// `Σ` is grounded by the first goal that needs it and by no other: a
/// cold read is the solver run that finds ground `Σ` a model plus one run
/// per instance that model leaves standing, where the parent commit
/// re-grounded all 111 sentences for each of 231 candidates. Answers are
/// §1's, known by construction; the bounds are solver runs
/// (`Prover::sat_calls`).
#[test]
fn non_definite_reads_cost_their_answers_in_solver_runs() {
    let names = |rows: Vec<Vec<Param>>| -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = rows
            .iter()
            .map(|t| t.iter().map(Param::name).collect())
            .collect();
        rows.sort();
        rows
    };

    // `demo K Teach(x, c_i)`: who is known to teach c_i.
    let db = teach_world();
    let (rows, first) = timed(|| db.demo_all(&f("K Teach(x, c9)")).unwrap());
    assert_eq!(names(rows), [["t9"]]);
    let first_runs = db.prover().sat_calls();
    assert!(first_runs <= 2, "cold demo took {first_runs} solver runs");
    let (rows, later) = timed(|| db.demo_all(&f("K Teach(x, c10)")).unwrap());
    assert_eq!(names(rows), [["t10"]]);
    assert!(db.prover().sat_calls() <= first_runs + 1);
    println!(
        "teach world, demo K Teach(x, c_i): first goal {first:?} ({first_runs} solver runs; \
         parent 108 ms, 231 runs), a later goal on the same prover {later:?}"
    );

    // `ask ∃x K Teach(x, P_j)`: only the disjunction is known, no
    // individual — §1's "no".
    let db = teach_world();
    let (answer, first) = timed(|| db.ask(&f("exists x. K Teach(x, P3)")));
    assert_eq!(answer, Answer::No);
    let first_runs = db.prover().sat_calls();
    assert!(first_runs <= 3, "cold ask took {first_runs} solver runs");
    let (answer, later) = timed(|| db.ask(&f("exists x. K Teach(x, P4)")));
    assert_eq!(answer, Answer::No);
    assert!(db.prover().sat_calls() <= first_runs + 2);
    println!(
        "teach world, ask exists x. K Teach(x, P_j): first goal {first:?} ({first_runs} solver \
         runs; parent 108-145 ms, 233 runs), a later goal on the same prover {later:?}"
    );

    // `demo K Teach(x, y)`: the 100 facts, out of 231² candidates.
    let db = teach_world();
    let (rows, took) = timed(|| db.demo_all(&f("K Teach(x, y)")).unwrap());
    let mut want: Vec<Vec<String>> = (0..100)
        .map(|i| vec![format!("t{i}"), format!("c{i}")])
        .collect();
    want.sort();
    assert_eq!(names(rows), want);
    let runs = db.prover().sat_calls();
    assert!(runs <= 125, "demo K Teach(x, y) took {runs} solver runs");
    println!(
        "teach world, demo K Teach(x, y): {took:?}, {runs} solver runs, {} goals the kept model \
         refuted (parent: 53 361 groundings of the theory, about 25 s)",
        db.prover().refuted()
    );

    // Each answer, and each near miss, as a prover that has kept nothing
    // decides it on its own.
    for (goal, expected) in [
        ("Teach(t9, c9)", true),
        ("Teach(t9, c10)", false),
        ("Teach(a3, P3)", false),
        ("Teach(b3, P3)", false),
        ("Teach(a3, P3) | Teach(b3, P3)", true),
        ("exists x. Teach(x, CS)", true),
        ("Teach(t9, CS)", false),
    ] {
        let fresh = teach_world();
        assert_eq!(fresh.prover().entails(&f(goal)), expected, "{goal}");
    }
}
