//! F12 — provenance: derivation-tracking overhead on the F6 scaling
//! fixpoint, and support-accelerated DRed deletion on a dense closure
//! graph where over-deleted tuples survive through alternative supports.
//!
//! Shape expectation: `eval_traced` stays within a small constant factor
//! of `eval` (the flat sink records without allocating; interning is one
//! pass at the end of the run) — the gap is pure tracking overhead, worth
//! watching because this workload's fixpoint is nothing but cheap joins.
//! On deletion, `dred_supports` trades strictly fewer re-derivation
//! probes (the correctness gate pins `support_checks` below the
//! probe-only path's) against maintaining the table through the
//! re-derivation fixpoint; wall-clock favors it as probes get more
//! expensive relative to the model, not on micro graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epilog_bench::workloads::{dense_closure_program, scaling_program};
use epilog_datalog::{Program, RulePlan, SupportTable};
use epilog_storage::Database;
use std::hint::black_box;

/// The retract workload: full graph, post-retraction program, the removed
/// edge as a delta database, and compiled plans for the DRed paths.
fn retract_setup(m: usize) -> (Program, Database, Database, Vec<RulePlan>, SupportTable) {
    let full = dense_closure_program(m, None);
    let post = dense_closure_program(m, Some((0, 1)));
    let removed = Program::from_text("e(n0, n1)").unwrap().edb;
    let mut table = SupportTable::new();
    let (model, _) = full.fixpoint(true, Some(&mut table)).unwrap();
    let plans: Vec<RulePlan> = post
        .rules
        .iter()
        .map(|r| RulePlan::compile(r, &model))
        .collect();
    (post, model, removed, plans, table)
}

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
        scrubbed.support_hits = 0;
        assert_eq!(scrubbed, plain);
    }
    // Deletion gate: the support-accelerated path reaches the identical
    // final model while strictly skipping re-derivation probes.
    {
        let (post, model, removed, plans, table) = retract_setup(6);
        let (plain_db, plain) = post.shrink(&plans, model.clone(), &removed, None).unwrap();
        let mut table = table;
        let (traced_db, traced) = post
            .shrink(&plans, model, &removed, Some(&mut table))
            .unwrap();
        let (oracle, _) = post.eval().unwrap();
        assert_eq!(traced_db, plain_db);
        assert_eq!(traced_db, oracle);
        assert!(traced.support_hits > 0, "dense graph must yield hits");
        assert!(traced.support_checks < plain.support_checks);
        assert_eq!(
            traced.support_hits + traced.support_checks,
            plain.support_checks
        );
    }

    let mut g = c.benchmark_group("f12_provenance");
    g.sample_size(10);
    // Tracking overhead on the F6 scaling workload: the same fixpoint
    // with and without the sink attached.
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
    }
    // DRed deletion with and without the recorded supports. Setup (clone
    // of the pre-deletion model and table) is untimed.
    for m in [6usize, 8, 10] {
        g.bench_with_input(BenchmarkId::new("dred_probe_only", m), &m, |b, &m| {
            let (post, model, removed, plans, _) = retract_setup(m);
            b.iter_with_setup(
                || model.clone(),
                |model| black_box(post.shrink(&plans, model, &removed, None).unwrap()),
            )
        });
        g.bench_with_input(BenchmarkId::new("dred_supports", m), &m, |b, &m| {
            let (post, model, removed, plans, table) = retract_setup(m);
            b.iter_with_setup(
                || (model.clone(), table.clone()),
                |(model, mut table)| {
                    black_box(
                        post.shrink(&plans, model, &removed, Some(&mut table))
                            .unwrap(),
                    )
                },
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
