//! F12 — provenance: derivation-tracking overhead on the F6 scaling
//! fixpoint, and what a `why` costs now that it is derived when asked.
//!
//! Shape expectation: `eval_traced` stays within a small constant factor
//! of `eval` (the flat sink records without allocating; interning is one
//! pass at the end of the run) — the gap is pure tracking overhead, worth
//! watching because this workload's fixpoint is nothing but cheap joins.
//! `why` is one traced fixpoint plus the proof walk, so it tracks
//! `eval_traced` at the same size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epilog_bench::workloads::scaling_program;
use epilog_datalog::provenance::atom_of;
use epilog_datalog::SupportTable;
use epilog_syntax::{Param, Pred};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Correctness gate: tracking is invisible — identical model, identical
    // pre-existing counters — and the table covers the whole IDB.
    {
        let prog = scaling_program(16, 3);
        let (plain_db, plain) = prog.eval().unwrap();
        let mut table = SupportTable::new();
        let (traced_db, traced) = prog.fixpoint(true, Some(&mut table)).unwrap();
        assert_eq!(plain_db, traced_db);
        assert!(traced.supports_recorded > 0);
        assert!(table.consistent_with(&traced_db, prog.rules.len()));
        let mut scrubbed = traced;
        scrubbed.supports_recorded = 0;
        assert_eq!(scrubbed, plain);
    }

    let mut g = c.benchmark_group("f12_provenance");
    g.sample_size(10);
    // Tracking overhead on the F6 scaling workload: the same fixpoint
    // with and without the sink attached, and a `why` of the longest
    // closure path, which runs the traced one.
    for n in [16usize, 32, 64] {
        g.bench_with_input(BenchmarkId::new("eval_untraced", n), &n, |b, &n| {
            let prog = scaling_program(n, 3);
            b.iter(|| black_box(prog.eval().unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("eval_traced", n), &n, |b, &n| {
            let prog = scaling_program(n, 3);
            b.iter(|| {
                let mut table = SupportTable::new();
                black_box(prog.fixpoint(true, Some(&mut table)).unwrap())
            })
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
