//! F12 — provenance: what a `why` costs now that it is derived when
//! asked, next to the plain fixpoint on the F6 scaling workload.
//!
//! Shape expectation: `why` ≈ `eval` + the walk. It runs the same
//! semi-naive fixpoint, noting the round each tuple first appeared in,
//! then walks the longest closure path's proof down through one support
//! query per node — so the gap over `eval` at the same size is the round
//! bookkeeping plus a walk as long as the proof.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epilog_bench::workloads::scaling_program;
use epilog_datalog::provenance::atom_of;
use epilog_syntax::{Param, Pred};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("f12_provenance");
    g.sample_size(10);
    for n in [16usize, 32, 64] {
        g.bench_with_input(BenchmarkId::new("eval", n), &n, |b, &n| {
            let prog = scaling_program(n, 3);
            b.iter(|| black_box(prog.eval()))
        });
        g.bench_with_input(BenchmarkId::new("why", n), &n, |b, &n| {
            let prog = scaling_program(n, 3);
            let ends = [Param::new("n0"), Param::new(&format!("n{n}"))];
            let longest = [atom_of(Pred::new("t", 2), &ends)];
            assert!(prog.why(&longest)[0].is_some());
            b.iter(|| black_box(prog.why(&longest)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
