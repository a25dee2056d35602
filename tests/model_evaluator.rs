//! The attached least model as the evaluator of definite databases:
//! commits, constraint registration and ground reads on the §3 registrar
//! and on a transitive closure must not reach the SAT pipeline, whatever
//! the size. The timings are printed (`--nocapture`), not asserted,
//! except where the seed could not finish at all.

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

/// `chains` disjoint 30-edge chains under the two closure rules: 495
/// model tuples per chain.
fn closure(chains: usize) -> EpistemicDb {
    let mut src = String::from(
        "forall x, y. e(x, y) -> t(x, y)\nforall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n",
    );
    for c in 0..chains {
        for i in 0..30 {
            src.push_str(&format!("e(s{c}n{i}, s{c}n{})\n", i + 1));
        }
    }
    EpistemicDb::from_text(&src).unwrap()
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
