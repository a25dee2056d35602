//! F8 — durability overhead and recovery latency.
//!
//! Two questions, per the Durability section of ROADMAP.md:
//!
//! 1. **What does a durable commit cost per fsync policy?** An in-memory
//!    commit vs `DurableDb` commits under `Never` / `Batch(8)` / `Always`.
//!    `Never` and `Batch` should sit within noise of the in-memory
//!    baseline (the log append is a buffered sequential write); `Always`
//!    pays one `fdatasync` per commit — the floor of real durability.
//! 2. **What does recovery cost?** `recover` from a snapshot at the log
//!    head vs full replay from genesis (the same directory without that
//!    snapshot), at growing commit counts. Replay
//!    re-runs every commit through the real transaction path, so it grows
//!    with history length; snapshot-load grows only with *state* size —
//!    the gap is the reason snapshots and `compact()` exist.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epilog_bench::workloads::{durable_registrar, enrollment_batch, registrar_db};
use epilog_core::prover_for;
use epilog_persist::wal::WAL_FILE;
use epilog_persist::{DurableDb, FsyncPolicy, Snapshot};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static N: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "epilog-f8-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn bench(c: &mut Criterion) {
    // Correctness gate: recovery reproduces the live durable state.
    {
        let dir = temp_dir("gate");
        let db = durable_registrar(&dir, 16, FsyncPolicy::Never);
        let live = db.theory().clone();
        drop(db); // crash
        let (rec, report) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(report.records_replayed, 18, "2 constraints + 16 commits");
        assert_eq!(rec.theory(), &live);
        assert_eq!(
            rec.prover().atom_model(),
            prover_for(live.clone()).atom_model()
        );
        assert!(rec.satisfies_constraints());
        drop(rec);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    let mut g = c.benchmark_group("f8_recovery");
    g.sample_size(10);

    // ---- Commit overhead per fsync policy -----------------------------
    // Each measured commit enrolls a fresh employee (so it is never a
    // no-op) into a registrar seeded at n=32; state grows by one employee
    // per sample, as in a live system.
    let n = 32usize;
    g.bench_with_input(BenchmarkId::new("commit_inmemory", n), &n, |b, &n| {
        let mut db = registrar_db(n);
        let mut next = n;
        b.iter(|| {
            let mut txn = db.transaction();
            for w in enrollment_batch(next, 1) {
                txn = txn.assert(w);
            }
            next += 1;
            let _ = txn.commit().unwrap();
        })
    });
    for (label, policy) in [
        ("commit_durable_never", FsyncPolicy::Never),
        ("commit_durable_batch8", FsyncPolicy::Batch(8)),
        ("commit_durable_always", FsyncPolicy::Always),
    ] {
        g.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
            let dir = temp_dir(label);
            let mut db = durable_registrar(&dir, n, policy);
            let mut next = n;
            b.iter(|| {
                let mut txn = db.transaction();
                for w in enrollment_batch(next, 1) {
                    txn = txn.assert(w);
                }
                next += 1;
                let _ = txn.commit().unwrap();
            });
            drop(db);
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    // ---- Recovery: snapshot + replay vs full replay -------------------
    // The directory holds n commits and a snapshot at the log head:
    // snapshot recovery loads state only (adopted constraints, attached
    // model); full replay re-commits all n records from the genesis
    // snapshot through the checked transaction path. Sizes are capped
    // like f7's: replayed commits pay the same constraint-check costs as
    // live ones, which grow superlinearly in n.
    for n in [16usize, 48] {
        let dir = temp_dir(&format!("recover-{n}"));
        let mut db = durable_registrar(&dir, n, FsyncPolicy::Never);
        let _ = db.snapshot().unwrap();
        drop(db);
        g.bench_with_input(BenchmarkId::new("recover_snapshot", n), &n, |b, _| {
            b.iter(|| {
                let (db, report) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
                assert_eq!(report.records_replayed, 0);
                db
            })
        });
        // The baseline as a directory presents it: every snapshot but the
        // genesis one gone, so recovery has the whole log to replay.
        let genesis_only = temp_dir(&format!("replay-{n}"));
        std::fs::create_dir_all(&genesis_only).unwrap();
        for file in [WAL_FILE.to_string(), Snapshot::file_name(0)] {
            let _ = std::fs::copy(dir.join(&file), genesis_only.join(&file)).unwrap();
        }
        g.bench_with_input(BenchmarkId::new("recover_full_replay", n), &n, |b, &n| {
            b.iter(|| {
                let (db, report) = DurableDb::recover(&genesis_only, FsyncPolicy::Never).unwrap();
                assert_eq!(report.snapshot_lsn, Some(0));
                assert_eq!(report.records_replayed as usize, n + 2);
                db
            })
        });
        std::fs::remove_dir_all(&genesis_only).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
