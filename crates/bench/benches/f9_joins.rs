//! F9 — join planning: hash build+probe on large multi-column
//! equi-joins, and cost-based literal ordering.
//!
//! Shape expectation: on the skewed equi-join the hash path examines
//! `Θ(n)` rows (probing the skewed column and filtering the rest would
//! be `Θ(n²/d)`), so time grows linearly with `n`; on the ordering
//! workload the cost-based order is output-bound (`Θ(m)`, flat in `n`)
//! where the written order scans the big relation (`Θ(n)`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epilog_bench::workloads::{join_heavy_program, order_sensitive_program};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Correctness gate: the planner hashes the skewed join and examines
    // one scan, one build and one probe hit per row.
    {
        let prog = join_heavy_program(1024, 8);
        let (_, stats) = prog.fixpoint(true);
        assert!(stats.hash_steps > 0);
        assert_eq!(stats.rows_examined, 3 * 1024);
    }

    let mut g = c.benchmark_group("f9_joins");
    g.sample_size(10);
    for n in [256usize, 1024, 4096] {
        let prog = join_heavy_program(n, 8);
        g.bench_with_input(BenchmarkId::new("equijoin_hash", n), &n, |b, _| {
            b.iter(|| black_box(prog.fixpoint(true)))
        });
    }
    for n in [256usize, 1024, 4096] {
        let prog = order_sensitive_program(n, 16);
        g.bench_with_input(BenchmarkId::new("order_cost", n), &n, |b, _| {
            b.iter(|| black_box(prog.fixpoint(true)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
