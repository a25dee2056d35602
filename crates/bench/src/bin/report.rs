//! Reprint every experiment table of `crates/bench/report.sample.txt`.
//!
//! `cargo run -p epilog-bench --bin report`
//!
//! Prints, for each experiment, the paper's expected output next to the
//! measured output, and exits nonzero on any mismatch.

use epilog_bench::workloads::{
    dense_closure_text, durable_registrar, enrollment_batch, join_heavy_program,
    order_sensitive_program, registrar_db, scaling_program, section1_queries, serving_registrar,
    teach_db, withdrawal_batch,
};
use epilog_core::ask::certain;
use epilog_core::{ask, demo_sentence, prover_for, DbError, EpistemicDb, ModelUpdate};
use epilog_prover::Prover;
use epilog_semantics::closure::cwa_demo;
use epilog_semantics::{
    ic_satisfaction, minimal_worlds, ClosedDb, IcDefinition, IcReport, ModelSet,
};
use epilog_syntax::{is_admissible, parse, Param, Pred, Theory};
use std::sync::atomic::{AtomicU32, Ordering};

static FAILURES: AtomicU32 = AtomicU32::new(0);

/// Best-of-`k` wall-clock time of `f` — the minimum suppresses scheduler
/// noise, and only a coarse ratio of two such minima is ever printed, so
/// the report output stays deterministic.
fn best_of(k: usize, mut f: impl FnMut() -> std::time::Duration) -> std::time::Duration {
    (0..k).map(|_| f()).min().expect("k >= 1")
}

/// A row the paper answers "yes": measured "yes" exactly when `cond` holds.
fn holds(label: &str, cond: bool) {
    check(label, "yes", if cond { "yes" } else { "no" });
}

fn check(label: &str, expected: &str, got: &str) {
    let ok = expected == got;
    println!(
        "  {:<58} paper: {:<9} measured: {:<9} {}",
        label,
        expected,
        got,
        if ok { "ok" } else { "MISMATCH" }
    );
    if !ok {
        FAILURES.fetch_add(1, Ordering::Relaxed);
    }
}

fn main() {
    println!("E1 — Section 1 query table (Teach database)");
    let prover = Prover::new(teach_db());
    for (q, expected) in section1_queries() {
        let w = parse(q).unwrap();
        check(q, expected, &ask(&prover, &w).to_string());
        if is_admissible(&w) && w.is_sentence() {
            let via_demo = match demo_sentence(&prover, &w).unwrap() {
                epilog_core::DemoOutcome::Succeeds => "yes",
                epilog_core::DemoOutcome::FinitelyFails => "not-derivable",
            };
            let expect_demo = if expected == "yes" {
                "yes"
            } else {
                "not-derivable"
            };
            check(&format!("  demo: {q}"), expect_demo, via_demo);
        }
    }

    println!("\nE1 — {{p | q}} table");
    let pq = Prover::new(Theory::from_text("p | q").unwrap());
    for (q, expected) in [("p", "unknown"), ("K p", "no"), ("K p | K ~p", "no")] {
        check(q, expected, &ask(&pq, &parse(q).unwrap()).to_string());
    }

    println!("\nE2 — integrity-constraint definitions (emp/ss#)");
    let ic_fo = parse("forall x. emp(x) -> exists y. ss(x, y)").unwrap();
    let ic_modal = parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap();
    let cases: [(&str, &str, IcDefinition, &epilog_syntax::Formula, &str); 6] = [
        (
            "{emp(Mary)}",
            "3.1 consistency",
            IcDefinition::Consistency,
            &ic_fo,
            "satisfied",
        ),
        (
            "{emp(Mary)}",
            "3.5 epistemic",
            IcDefinition::Epistemic,
            &ic_modal,
            "violated",
        ),
        (
            "{}",
            "3.2 entailment",
            IcDefinition::Entailment,
            &ic_fo,
            "violated",
        ),
        (
            "{}",
            "3.5 epistemic",
            IcDefinition::Epistemic,
            &ic_modal,
            "satisfied",
        ),
        (
            "{emp(Mary), ss(Mary,n1)}",
            "3.5 epistemic",
            IcDefinition::Epistemic,
            &ic_modal,
            "satisfied",
        ),
        (
            "{emp(Mary)|emp(Sue)}",
            "3.4 Comp-entailment",
            IcDefinition::CompEntailment,
            &ic_fo,
            "n/a",
        ),
    ];
    for (db_label, def_label, def, ic, expected) in cases {
        let src = match db_label {
            "{emp(Mary)}" => "emp(Mary)",
            "{}" => "",
            "{emp(Mary), ss(Mary,n1)}" => "emp(Mary)\nss(Mary, n1)",
            _ => "emp(Mary) | emp(Sue)",
        };
        let p = Prover::new(Theory::from_text(src).unwrap());
        let got = match ic_satisfaction(&p, ic, def) {
            IcReport::Satisfied => "satisfied",
            IcReport::Violated => "violated",
            IcReport::Inapplicable => "n/a",
        };
        check(&format!("{db_label} under {def_label}"), expected, got);
    }

    println!("\nE4 — safety/admissibility classification (Examples 5.1-5.3)");
    for (f, expected) in [
        ("p(x, y) & K q(x) & ~K r(x)", "safe"),
        ("exists x. ~r(x)", "safe"),
        ("exists x. ~K p(x)", "unsafe"),
        ("~K q(x) & K r(x)", "unsafe"),
    ] {
        let got = if epilog_syntax::is_safe(&parse(f).unwrap()) {
            "safe"
        } else {
            "unsafe"
        };
        check(f, expected, got);
    }
    for (f, expected) in [
        ("exists x. K Teach(x, CS)", "admissible"),
        (
            "exists x. Teach(x, Psych) & ~K Teach(x, CS)",
            "inadmissible",
        ),
        ("p(x) & K q(x)", "admissible"),
        ("exists x. p(x) & K q(x)", "inadmissible"),
    ] {
        let got = if is_admissible(&parse(f).unwrap()) {
            "admissible"
        } else {
            "inadmissible"
        };
        check(f, expected, got);
    }

    println!("\nE7 — closed worlds");
    let db = Prover::new(Theory::from_text("p(a)").unwrap());
    let closed = ClosedDb::new(&db);
    check(
        "Closure: forall x. K p(x) | K ~p(x)   (Example 7.1)",
        "yes",
        &closed
            .ask(&parse("forall x. K p(x) | K ~p(x)").unwrap())
            .to_string(),
    );
    let theory = Theory::from_text("p | q").unwrap();
    let ms = ModelSet::models(
        &theory,
        &[Param::new("c")],
        &[Pred::new("p", 0), Pred::new("q", 0)],
    );
    let circ = minimal_worlds(&ms);
    check(
        "Circ({p|q}) |= ~K p   (Example 7.2)",
        "true",
        &circ.certain(&parse("~K p").unwrap()).to_string(),
    );
    check(
        "Circ({p|q}) |= ~p     (Example 7.2)",
        "false",
        &circ.certain(&parse("~p").unwrap()).to_string(),
    );
    let graph = Prover::new(Theory::from_text("q(a)\nq(b)\nr(a, b)").unwrap());
    let w = parse("q(x) & ~(exists y. r(x, y) & q(y))").unwrap();
    let got: Vec<String> = cwa_demo(&graph, &w).unwrap().map(|t| t[0].name()).collect();
    check(
        "demo(R(w)) on Example 7.3 graph",
        "[\"b\"]",
        &format!("{got:?}"),
    );

    println!("\nF6 — evaluation pipeline scaling (chain join k=3 + transitive closure)");
    for n in [8usize, 16, 32] {
        let k = 3;
        let prog = scaling_program(n, k);
        let (db, fast) = prog.eval();
        let (naive_db, slow) = prog.fixpoint(false);
        let t = db.relation(Pred::new("t", 2)).map_or(0, |r| r.len());
        let join = db.relation(Pred::new("join", 2)).map_or(0, |r| r.len());
        check(
            &format!("n={n} |t| (= n(n+1)/2)"),
            &(n * (n + 1) / 2).to_string(),
            &t.to_string(),
        );
        check(
            &format!("n={n} |join| (= n-k+1)"),
            &(n - k + 1).to_string(),
            &join.to_string(),
        );
        holds(&format!("n={n} models agree"), db == naive_db);
        check(
            &format!(
                "n={n} firings semi-naive {} < naive {}",
                fast.rule_firings, slow.rule_firings
            ),
            "fewer",
            if fast.rule_firings < slow.rule_firings {
                "fewer"
            } else {
                "NOT-fewer"
            },
        );
    }

    println!("\nF7 — transactional updates (registrar + batch of 2 employees)");
    for n in [8usize, 16, 32] {
        let mut db = registrar_db(n);
        let before = db.theory().len();
        // A violating batch: an employee with no number on file.
        let verdict = db
            .transaction()
            .assert(parse("emp(nobody)").unwrap())
            .commit();
        holds(
            &format!("n={n} violating commit rejected, state untouched"),
            verdict.is_err() && db.theory().len() == before,
        );
        // The accepted batch: two new employees with numbers.
        let mut txn = db.transaction();
        for w in enrollment_batch(n, 2) {
            txn = txn.assert(w);
        }
        let report = txn.commit().unwrap();
        let (tuples_added, stats) = match &report.model {
            ModelUpdate::Incremental {
                tuples_added,
                stats,
                ..
            } => (*tuples_added, *stats),
            other => {
                check(
                    &format!("n={n} commit path"),
                    "incremental",
                    &format!("{other:?}"),
                );
                continue;
            }
        };
        check(
            &format!("n={n} model tuples added (= 3 per employee)"),
            "6",
            &tuples_added.to_string(),
        );
        check(
            &format!("n={n} full plans in the resumed fixpoint"),
            "0",
            &stats.full_firings.to_string(),
        );
        check(
            &format!("n={n} rule plans compiled by the commit (cache hit)"),
            "0",
            &stats.plans_compiled.to_string(),
        );
        check(
            &format!("n={n} constraint routes specialized/skipped/full"),
            "2/0/0",
            &format!(
                "{}/{}/{}",
                report.checks.specialized, report.checks.skipped, report.checks.full
            ),
        );
        let scratch = prover_for(db.theory().clone());
        holds(
            &format!("n={n} spliced model equals rebuild"),
            db.prover().atom_model() == scratch.atom_model(),
        );
        // The two new employees leave again: the retraction rides the
        // over-delete/re-derive fixpoint instead of rebuilding.
        let mut txn = db.transaction();
        for w in withdrawal_batch(n, 2) {
            txn = txn.retract(w);
        }
        let report = txn.commit().unwrap();
        let (tuples_removed, stats) = match &report.model {
            ModelUpdate::Incremental {
                tuples_removed,
                stats,
                ..
            } => (*tuples_removed, *stats),
            other => {
                check(
                    &format!("n={n} retract path"),
                    "incremental",
                    &format!("{other:?}"),
                );
                continue;
            }
        };
        check(
            &format!("n={n} model tuples removed (= 3 per employee)"),
            "6",
            &tuples_removed.to_string(),
        );
        check(
            &format!("n={n} retract full plans / plans compiled"),
            "0/0",
            &format!("{}/{}", stats.full_firings, stats.plans_compiled),
        );
        holds(
            &format!("n={n} over-deletes cover the departures"),
            stats.tuples_overdeleted >= 6,
        );
        let scratch = prover_for(db.theory().clone());
        holds(
            &format!("n={n} shrunk model equals rebuild"),
            db.prover().atom_model() == scratch.atom_model(),
        );
        // Latency: the DRed commit against the pre-transaction update
        // path (clone, retract, rebuild the model, full-check every
        // constraint by the Levesque reduction, as that path did — its
        // FD check is cubic in the domain).
        // Only the coarse ratio is printed, keeping the output stable.
        if n >= 16 {
            let dred = best_of(3, || {
                let mut db = registrar_db(n);
                let start = std::time::Instant::now();
                let mut txn = db.transaction();
                for w in withdrawal_batch(n - 2, 2) {
                    txn = txn.retract(w);
                }
                let _ = txn.commit().unwrap();
                start.elapsed()
            });
            let rebuild = best_of(3, || {
                let db = registrar_db(n);
                let start = std::time::Instant::now();
                let mut theory = db.theory().clone();
                for w in withdrawal_batch(n - 2, 2) {
                    theory.retract(&w);
                }
                let candidate = prover_for(theory);
                for ic in db.constraints() {
                    assert!(certain(&candidate, ic));
                }
                start.elapsed()
            });
            holds(
                &format!("n={n} retract latency DRed >= 5x under rebuild"),
                rebuild.as_nanos() >= 5 * dred.as_nanos(),
            );
        }
    }

    println!("\nF8 — durability & recovery (durable registrar, fsync=Never)");
    for n in [8usize, 16, 32] {
        let dir = std::env::temp_dir().join(format!("epilog-report-f8-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Build durably: 2 constraint records + n enrollment commits.
        let db = durable_registrar(&dir, n, epilog_persist::FsyncPolicy::Never);
        let live = db.theory().clone();
        check(
            &format!("n={n} wal records (= 2 constraints + n commits)"),
            &(n + 2).to_string(),
            &db.wal_records().to_string(),
        );
        drop(db); // crash: no shutdown ceremony
        let (rec, report) =
            epilog_persist::DurableDb::recover(&dir, epilog_persist::FsyncPolicy::Never).unwrap();
        check(
            &format!("n={n} recovery replays the full log"),
            &(n + 2).to_string(),
            &report.records_replayed.to_string(),
        );
        holds(
            &format!("n={n} recovered equals live (theory + model)"),
            rec.theory() == &live
                && rec.prover().atom_model() == prover_for(live.clone()).atom_model()
                && rec.satisfies_constraints(),
        );
        drop(rec);
        // Torn tail: chop bytes off the log; the last commit must be
        // rolled back, everything before it preserved.
        let wal_path = dir.join("wal.log");
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();
        let (rec, report) =
            epilog_persist::DurableDb::recover(&dir, epilog_persist::FsyncPolicy::Never).unwrap();
        holds(
            &format!("n={n} torn tail detected, last commit rolled back"),
            report.torn_tail.is_some()
                && report.records_replayed == (n + 1) as u64
                && rec.theory().len() == live.len() - 2
                && rec.satisfies_constraints(),
        );
        // Re-commit the lost enrollment, checkpoint, recover: zero replay.
        let mut rec = rec;
        let mut txn = rec.transaction();
        for w in enrollment_batch(n - 1, 1) {
            txn = txn.assert(w);
        }
        let _ = txn.commit().unwrap();
        let _ = rec.compact().unwrap();
        drop(rec);
        let (rec, report) =
            epilog_persist::DurableDb::recover(&dir, epilog_persist::FsyncPolicy::Never).unwrap();
        check(
            &format!("n={n} snapshot recovery: records replayed"),
            "0",
            &report.records_replayed.to_string(),
        );
        holds(
            &format!("n={n} snapshot recovery equals live"),
            rec.theory() == &live,
        );
        // Compaction: the checkpoint covers the whole log.
        let mut rec = rec;
        let _ = rec.compact().unwrap();
        check(
            &format!("n={n} compaction drops the covered log"),
            "0 left",
            &format!("{} left", rec.wal_records()),
        );
        drop(rec);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    println!("\nF9 — join planning (lookups on fully bound equi-joins; cost-based literal order)");
    for n in [128usize, 512, 2048] {
        // One scan of `q`, then one lookup in `big` per row, each a hit.
        let (db, stats) = join_heavy_program(n, 8).fixpoint(true);
        check(
            &format!("n={n} equi-join |hit| / rows examined (= 2n)"),
            &format!("{n}/{}", 2 * n),
            &format!(
                "{}/{}",
                db.relation(Pred::new("hit", 2)).map_or(0, |r| r.len()),
                stats.rows_examined
            ),
        );
    }
    for n in [128usize, 512, 2048] {
        // `small` leads: its 16 rows, one probe hit in `big` for each.
        let (db, stats) = order_sensitive_program(n, 16).fixpoint(true);
        check(
            &format!("n={n} ordering |out| / rows examined (= 2m)"),
            "16/32",
            &format!(
                "{}/{}",
                db.relation(Pred::new("out", 2)).map_or(0, |r| r.len()),
                stats.rows_examined
            ),
        );
    }

    println!("\nF11 — serving layer (MVCC snapshot reads, single-writer group commit)");
    {
        use epilog_persist::{Request, TxOp};
        let n = 8;
        let dir = std::env::temp_dir().join(format!("epilog-report-f11-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut writer, endpoint) = serving_registrar(&dir, n);
        check(
            &format!("n={n} head LSN (= 2 constraints + n commits)"),
            &(n + 2).to_string(),
            &endpoint.snapshot().lsn().to_string(),
        );

        // A snapshot pinned here must not see anything that commits
        // later — MVCC isolation, not just read-your-writes.
        let pinned = endpoint.snapshot();
        let pinned_lsn = pinned.lsn();

        // Group commit: 8 transactions stepped as one batch must land on
        // one fsync — with a constraint violation in the middle of the
        // burst rejected without voiding its batch-mates.
        let before = endpoint.stats();
        let (burst, handles): (Vec<_>, Vec<_>) = (0..8)
            .map(|i| {
                let ops: Vec<TxOp> = if i == 3 {
                    // An employee with no ss number: bounced by the §3 IC.
                    vec![TxOp::Assert(parse("emp(ghost)").unwrap())]
                } else {
                    enrollment_batch(100 + i, 1)
                        .into_iter()
                        .map(TxOp::Assert)
                        .collect()
                };
                Request::commit(ops)
            })
            .unzip();
        writer.step(burst);
        let verdicts: Vec<bool> = handles.into_iter().map(|h| h.wait().is_ok()).collect();
        let after = endpoint.stats();
        holds(
            "burst of 8 (one rejected): batches +1, fsyncs +1",
            after.batches - before.batches == 1 && after.fsyncs - before.fsyncs == 1,
        );
        check(
            "rejection inside the batch spares its batch-mates",
            "7 of 8",
            &format!(
                "{} of {}",
                verdicts.iter().filter(|ok| **ok).count(),
                verdicts.len()
            ),
        );
        // The n + 2 setup records each sync alone; only the burst's 7-on-1
        // can push the overall count past them.
        holds(
            "group commit amortizes: total commits exceed total fsyncs",
            after.commits > after.fsyncs,
        );
        let burst_q = parse("K emp(e100)").unwrap();
        holds(
            "snapshot pinned before the burst still answers from its LSN",
            pinned.lsn() == pinned_lsn
                && ask(pinned.prover(), &burst_q).to_string() == "no"
                && ask(endpoint.snapshot().prover(), &burst_q).to_string() == "yes",
        );

        // Reads are lock-free: with a fresh burst built but not yet
        // stepped, the best-of-5 snapshot read is within an order of
        // magnitude of the idle one. Min-based with a wide bound, so the
        // row is stable on any host.
        let read = || {
            best_of(5, || {
                let start = std::time::Instant::now();
                let _ = ask(endpoint.snapshot().prover(), &burst_q);
                start.elapsed()
            })
        };
        let idle = read();
        let (parked, handles): (Vec<_>, Vec<_>) = (0..8)
            .map(|i| {
                Request::commit(
                    enrollment_batch(200 + i, 1)
                        .into_iter()
                        .map(TxOp::Assert)
                        .collect(),
                )
            })
            .unzip();
        let loaded = read();
        writer.step(parked);
        for h in handles {
            h.wait().expect("parked enrollments commit once stepped");
        }
        holds(
            "snapshot read latency independent of a parked commit burst",
            loaded <= idle * 10 + std::time::Duration::from_millis(5),
        );

        // The served directory is an ordinary durable database: recovery
        // must reproduce exactly the state the last snapshot served.
        let final_theory = endpoint.snapshot().theory().clone();
        let final_lsn = endpoint.snapshot().lsn();
        drop(writer);
        let (rec, report) =
            epilog_persist::DurableDb::recover(&dir, epilog_persist::FsyncPolicy::Never).unwrap();
        holds(
            "recovery reproduces the served state (theory + model + LSN)",
            rec.theory() == &final_theory
                && report.last_lsn == final_lsn
                && rec.db().prover().atom_model() == prover_for(final_theory.clone()).atom_model(),
        );
        drop(rec);
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!("\nF12 — provenance (why/why-not)");
    {
        // Every tuple of the F6 scaling workload's least model affords a
        // proof that replays down to EDB facts.
        for n in [8usize, 16, 32] {
            let prog = scaling_program(n, 3);
            let (model, _) = prog.eval();
            let atoms: Vec<_> = model.atoms().collect();
            let replays_all = atoms
                .iter()
                .zip(prog.why(&atoms))
                .all(|(atom, proof)| proof.is_some_and(|p| p.atom() == atom && p.replays(&prog)));
            holds(
                &format!("n={n} every model tuple has a replayable proof"),
                replays_all,
            );
        }

        // Retracting an edge of a dense closure: `why` derives the
        // survivor's alternative path from the shrunk model when asked.
        {
            let mut db = EpistemicDb::from_text(&dense_closure_text(5, None)).unwrap();
            assert!(db.retract(&parse("e(n0, n1)").unwrap()).unwrap());
            let q = parse("t(n0, n1)").unwrap();
            let epilog_syntax::Formula::Atom(a) = q else {
                unreachable!("ground atom")
            };
            holds(
                "why t(n0, n1) after retracting its edge: alternative path",
                db.why(&a).is_some_and(|p| p.height() >= 2),
            );
        }

        // A rejected commit explains itself: the violated constraint plus
        // ground witnesses, each carrying its own derivation.
        {
            let mut db = registrar_db(8);
            let err = db
                .transaction()
                .assert(parse("emp(nobody)").unwrap())
                .commit()
                .unwrap_err();
            let explained = match err {
                DbError::ConstraintViolated(rej) => {
                    let proofs = rej.proofs();
                    !rej.witnesses.is_empty()
                        && rej.witnesses.len() == proofs.len()
                        && proofs
                            .iter()
                            .zip(&rej.witnesses)
                            .all(|(p, w)| p.atom() == w)
                }
                _ => false,
            };
            holds(
                "rejected commit carries constraint + witnesses + proofs",
                explained,
            );
        }
    }

    println!("\nF13 — fault injection & self-healing (degraded mode, heal, chaos soak)");
    {
        use epilog_persist::{
            CommitHandle, DurableDb, FaultInjector, FaultKind, FsyncPolicy, Request, ServeError,
            ServeOptions, ServingDb, TxOp, Writer,
        };
        use std::sync::Arc;

        fn canon(t: &Theory) -> Vec<String> {
            let mut v: Vec<String> = t.sentences().iter().map(|w| w.to_string()).collect();
            v.sort();
            v
        }

        // ---- Scripted demo: one injectable "disk" under a live registrar.
        let dir = std::env::temp_dir().join(format!("epilog-report-f13-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let theory = Theory::from_text("forall x. emp(x) -> person(x)").unwrap();
        let mut durable = DurableDb::create(&dir, theory, FsyncPolicy::Never).unwrap();
        let inj = Arc::new(FaultInjector::new(13));
        durable.set_fault_injector(Some(Arc::clone(&inj)));
        let db = ServingDb::start(durable, ServeOptions::default());
        db.add_constraint(parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap())
            .unwrap();
        db.add_constraint(parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap())
            .unwrap();
        let enroll = |i: usize| -> Vec<TxOp> {
            enrollment_batch(i, 1)
                .into_iter()
                .map(TxOp::Assert)
                .collect()
        };
        for i in 0..4 {
            db.commit_wait(enroll(i)).unwrap();
        }

        // An injected append failure: that commit alone reports an io
        // error; the writer compensates (rewinds the log) and stays live.
        inj.fail_nth_write(inj.writes(), FaultKind::TornWrite);
        let torn = db.commit_wait(enroll(10));
        let next = db.commit_wait(enroll(11));
        holds(
            "torn append fails that commit alone; the writer stays live",
            matches!(torn, Err(ServeError::Io(_))) && !db.stats().degraded && next.is_ok(),
        );

        // An injected fsync failure: the batch's handles fail, the head
        // rolls back to the durable boundary, and the writer degrades.
        let durable_lsn = db.snapshot().lsn();
        inj.fail_nth_sync(inj.syncs());
        let lost = db.commit_wait(enroll(12));
        holds(
            "fsync fault fails only the affected batch (io error, not panic)",
            matches!(lost, Err(ServeError::Io(_))) && db.stats().io_errors == 2,
        );
        let snap = db.snapshot();
        holds(
            "snapshots keep answering at the durable head while degraded",
            db.stats().degraded
                && snap.lsn() == durable_lsn
                && ask(snap.prover(), &parse("K emp(e11)").unwrap()).to_string() == "yes"
                && ask(snap.prover(), &parse("K emp(e12)").unwrap()).to_string() == "no",
        );
        holds(
            "degraded mode rejects commits fast (read-only)",
            matches!(db.commit_wait(enroll(13)), Err(ServeError::Degraded(_))),
        );
        let healed = db.send(Request::heal()).wait();
        let stats = db.stats();
        holds(
            "heal() restores service at the durable head LSN",
            healed.is_ok_and(|lsn| lsn == durable_lsn)
                && !db.stats().degraded
                && stats.heals == 1
                && !stats.degraded,
        );
        let resumed = db.commit_wait(enroll(12));
        holds(
            "the commit lost to the fault lands after healing",
            resumed.is_ok_and(|r| r.lsn == durable_lsn + 1)
                && ask(db.snapshot().prover(), &parse("K emp(e12)").unwrap()).to_string() == "yes",
        );
        db.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        // ---- Seeded mini-soak: crash → recover → continue. The full
        // soak is tests/chaos.rs; this scaled-down run
        // (25 cycles, fixed seed, each request stepped as its own batch
        // on this thread, no writer thread) keeps the report
        // deterministic while still crossing every fault path.
        {
            /// Step one request as a batch of its own and return its
            /// answer.
            fn step_one<T>(
                writer: &mut Writer,
                (req, handle): (Request, CommitHandle<T>),
            ) -> Result<T, ServeError> {
                writer.step(vec![req]);
                handle.wait()
            }

            let dir =
                std::env::temp_dir().join(format!("epilog-report-f13-soak-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut state: u64 = 0xF13_5EED;
            // High bits only: an LCG's low bits are short-period.
            let mut rng = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let mut oracle = EpistemicDb::from_text("forall x. emp(x) -> person(x)").unwrap();
            oracle
                .add_constraint(parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap())
                .unwrap();
            oracle
                .add_constraint(
                    parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap(),
                )
                .unwrap();
            let mut acked_lsn = {
                let mut db = DurableDb::create(
                    &dir,
                    Theory::from_text("forall x. emp(x) -> person(x)").unwrap(),
                    FsyncPolicy::Never,
                )
                .unwrap();
                db.add_constraint(parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap())
                    .unwrap();
                db.add_constraint(
                    parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap(),
                )
                .unwrap();
                db.sync().unwrap();
                db.last_lsn()
            };
            let (mut acked, mut failed, mut healed) = (0u64, 0u64, 0u64);
            let (mut lost, mut resurrected, mut diverged) = (0u64, 0u64, 0u64);
            for cycle in 0..25u64 {
                let (mut durable, report) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
                lost += acked_lsn.saturating_sub(report.last_lsn);
                resurrected += report.last_lsn.saturating_sub(acked_lsn);
                if canon(durable.db().theory()) != canon(oracle.theory()) {
                    diverged += 1;
                }
                let inj = Arc::new(FaultInjector::new(0xF13 ^ cycle));
                match rng() % 3 {
                    0 => inj.fail_nth_sync(rng() % 3),
                    1 => inj.fail_nth_write(rng() % 3, FaultKind::ShortWrite),
                    _ => {
                        inj.set_write_rate(1, 5);
                        inj.set_sync_rate(1, 6);
                    }
                }
                durable.set_fault_injector(Some(Arc::clone(&inj)));
                let (mut writer, endpoint) = Writer::new(durable);
                for _ in 0..4 {
                    let ops = enroll((rng() % 48) as usize);
                    match step_one(&mut writer, Request::commit(ops.clone())) {
                        Ok(r) => {
                            acked_lsn = acked_lsn.max(r.lsn);
                            acked += 1;
                            let mut txn = oracle.transaction();
                            for op in &ops {
                                txn = match op {
                                    TxOp::Assert(w) => txn.assert(w.clone()),
                                    TxOp::Retract(w) => txn.retract(w.clone()),
                                };
                            }
                            let _ = txn.commit().expect("acked commit replays on the oracle");
                        }
                        Err(_) => failed += 1,
                    }
                    if endpoint.stats().degraded {
                        inj.disarm();
                        if step_one(&mut writer, Request::heal()).is_ok() {
                            healed += 1;
                        }
                    }
                }
                // Crash: no shutdown ceremony; smear a torn header over
                // the tail every third cycle.
                drop(writer);
                if cycle % 3 == 2 {
                    use std::io::Write;
                    let mut f = std::fs::OpenOptions::new()
                        .append(true)
                        .open(dir.join(epilog_persist::wal::WAL_FILE))
                        .unwrap();
                    f.write_all(b"@777 5").unwrap();
                }
            }
            let (rec, report) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
            lost += acked_lsn.saturating_sub(report.last_lsn);
            resurrected += report.last_lsn.saturating_sub(acked_lsn);
            check(
                &format!(
                    "mini-soak 25 cycles ({acked} acked, {failed} failed, {healed} healed): lost"
                ),
                "0",
                &lost.to_string(),
            );
            check(
                "mini-soak: failed commits resurrected after recovery",
                "0",
                &resurrected.to_string(),
            );
            holds(
                "mini-soak: recovered state equals the acked oracle every cycle",
                diverged == 0 && canon(rec.db().theory()) == canon(oracle.theory()),
            );
            holds(
                "mini-soak exercised the fault paths (failures and heals > 0)",
                failed > 0 && healed > 0,
            );
            drop(rec);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let failures = FAILURES.load(Ordering::Relaxed);
    println!("\n{} mismatches", failures);
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
