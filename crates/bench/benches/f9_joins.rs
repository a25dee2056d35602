//! F9 — join planning: hash build+probe vs single-column index probe
//! with residual filtering on large multi-column equi-joins, and
//! cost-based vs greedy literal ordering.
//!
//! Shape expectation: on the skewed equi-join the probe path examines
//! `Θ(n²/d)` rows against the hash path's `Θ(n)`, so the gap widens
//! linearly with `n`; on the ordering workload the cost-based order is
//! output-bound (`Θ(m)`) while greedy scans the big relation (`Θ(n)`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epilog_bench::workloads::{join_heavy_program, order_sensitive_program};
use epilog_datalog::PlannerMode;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Correctness gate: both planners compute the same model, only the
    // cost-based one hashes, and it examines at most half the rows.
    {
        let prog = join_heavy_program(1024, 8);
        let (a, cost) = prog.fixpoint(true, PlannerMode::CostBased, None).unwrap();
        let (b, greedy) = prog.fixpoint(true, PlannerMode::Greedy, None).unwrap();
        assert_eq!(a, b);
        assert!(cost.hash_steps > 0);
        assert_eq!(greedy.hash_steps, 0);
        assert!(cost.rows_examined * 2 <= greedy.rows_examined);
    }

    let mut g = c.benchmark_group("f9_joins");
    g.sample_size(10);
    for n in [256usize, 1024, 4096] {
        let prog = join_heavy_program(n, 8);
        g.bench_with_input(BenchmarkId::new("equijoin_hash", n), &n, |b, _| {
            b.iter(|| black_box(prog.fixpoint(true, PlannerMode::CostBased, None).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("equijoin_probe", n), &n, |b, _| {
            b.iter(|| black_box(prog.fixpoint(true, PlannerMode::Greedy, None).unwrap()))
        });
    }
    for n in [256usize, 1024, 4096] {
        let prog = order_sensitive_program(n, 16);
        g.bench_with_input(BenchmarkId::new("order_cost", n), &n, |b, _| {
            b.iter(|| black_box(prog.fixpoint(true, PlannerMode::CostBased, None).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("order_greedy", n), &n, |b, _| {
            b.iter(|| black_box(prog.fixpoint(true, PlannerMode::Greedy, None).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
