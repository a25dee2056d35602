//! F2 — substrate ablation: semi-naive vs naive Datalog evaluation on
//! transitive closure, runtime vs chain length.
//!
//! Shape expectation: naive re-derives the whole `t` relation every
//! iteration (Θ(n) iterations × Θ(n²) derivations); semi-naive touches
//! each derivation once — the gap grows roughly linearly with `n`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epilog_bench::workloads::datalog_chain;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Correctness gate.
    {
        let p = datalog_chain(10);
        let (a, fast) = p.eval();
        let (b, slow) = p.fixpoint(false);
        assert_eq!(a, b);
        assert!(fast.derivations < slow.derivations);
    }

    let mut g = c.benchmark_group("f2_datalog");
    g.sample_size(10);
    for n in [8usize, 16, 32, 64] {
        let prog = datalog_chain(n);
        g.bench_with_input(BenchmarkId::new("seminaive", n), &n, |b, _| {
            b.iter(|| black_box(prog.eval()))
        });
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| black_box(prog.fixpoint(false)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
