//! F6 — evaluation-pipeline scaling: compiled plans over incrementally
//! indexed storage on a chain join + transitive closure, runtime vs size.
//!
//! Shape expectation: the compiled semi-naive engine touches each
//! derivation once and skips every empty-delta plan variant, so both
//! wall-clock and `EvalStats::rule_firings` grow far slower than the
//! naive ablation's — the gap widens roughly linearly with `n`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epilog_bench::workloads::scaling_program;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Correctness gate: same model, strictly fewer firings.
    {
        let p = scaling_program(16, 3);
        let (a, fast) = p.eval();
        let (b, slow) = p.fixpoint(false);
        assert_eq!(a, b);
        assert!(fast.rule_firings < slow.rule_firings);
        assert!(fast.derivations < slow.derivations);
    }

    let mut g = c.benchmark_group("f6_scaling");
    g.sample_size(10);
    for n in [16usize, 32, 64] {
        let prog = scaling_program(n, 3);
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
