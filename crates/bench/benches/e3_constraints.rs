//! E3/F6 — enforcing the §3 constraints, full recheck vs the
//! incremental (Nicolas-style) specialization of §8 item (4).
//!
//! Both run through the one entry point, `IncrementalChecker::check`:
//! routed by the model diff of the update, or with no diff (full).
//!
//! Shape expectation: the full check revisits every employee on every
//! update (cost grows with database size); the incremental check touches
//! only the instances matching the updated fact (near-constant), so the
//! gap widens linearly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epilog_bench::workloads::employees_db;
use epilog_core::{CheckStats, IncrementalChecker, ModelDiff};
use epilog_prover::Prover;
use epilog_syntax::{parse, Formula};
use std::hint::black_box;

/// The diff of an update that added one fact.
fn added(fact: &str) -> ModelDiff {
    let Formula::Atom(a) = parse(fact).unwrap() else {
        unreachable!()
    };
    ModelDiff {
        added: std::iter::once(a).collect(),
        ..ModelDiff::default()
    }
}

fn bench(c: &mut Criterion) {
    let constraints = [
        parse("forall x. K emp(x) -> K (exists y. ss(x, y))").unwrap(),
        parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap(),
    ];
    let checker = IncrementalChecker::new(&constraints);
    let check = |prover: &Prover, diff: Option<&ModelDiff>| {
        checker
            .check(prover, diff, &mut CheckStats::default())
            .is_some()
    };
    let fact = added("emp(e0)");

    // Correctness gate: both routes agree on a satisfying and a violating
    // state.
    {
        let ok = Prover::new(employees_db(4));
        assert!(!check(&ok, Some(&fact)));
        assert!(!check(&ok, None));
        let mut bad_theory = employees_db(4);
        bad_theory.assert(parse("emp(Norma)").unwrap()).unwrap();
        let bad = Prover::new(bad_theory);
        assert!(check(&bad, Some(&added("emp(Norma)"))));
        assert!(check(&bad, None));
    }

    let mut g = c.benchmark_group("e3_constraints");
    g.sample_size(10);
    for n in [4usize, 8, 16, 32] {
        let theory = employees_db(n);
        g.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter_with_setup(
                || Prover::new(theory.clone()),
                |prover| black_box(check(&prover, Some(&fact))),
            )
        });
        g.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter_with_setup(
                || Prover::new(theory.clone()),
                |prover| black_box(check(&prover, None)),
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
