//! Differential crash-recovery suite for the durability subsystem.
//!
//! For randomized transaction sequences (facts, rules, existentials,
//! retractions, under a random subset of the §3 constraints), the suite
//! drives a [`DurableDb`] and an in-memory oracle in lockstep, recording
//! the oracle's state after every logged record — under a generated
//! fsync policy and a seeded [`FaultInjector`] schedule (write and sync
//! fault odds, clean / torn / short writes; odds of zero are the
//! fault-free run). The oracle applies exactly what the `DurableDb`
//! answered `Ok`; a database whose log can no longer be trusted after a
//! failed compensation or sync is recovered in place, must come back at
//! the last `Ok`, and carries on. **Acknowledged == durable**: a commit
//! answered `Ok` is in the log at its LSN (and synced, under `Always`),
//! one answered `Err` is never observed. The suite then:
//!
//! * **crashes at every record boundary** after the log's genesis
//!   checkpoint — truncates a copy of the log at each boundary — and
//!   **mid-record** (torn writes inside the header and inside the
//!   payload), recovers, and demands the recovered database equal the
//!   oracle's state at that prefix: theory (sentence for sentence, in
//!   order), registered constraints, constraint satisfaction, and the
//!   attached least model (against a from-scratch rebuild);
//! * cuts **inside the checkpoint** (no crash leaves one: the checkpoint
//!   lands by rename) and demands that recovery refuse and write nothing;
//! * checks **checkpoint+replay equals full replay**: recovery of the
//!   compacted log and recovery of a copy of the whole log produce
//!   identical states, and compacting again keeps them.

use epilog::core::prover_for;
use epilog::persist::wal::WAL_FILE;
use epilog::persist::{DurableDb, FaultInjector, FsyncPolicy, PersistError, Wal};
use epilog::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const PARAMS: usize = 3;

/// Definite rules; `hired` feeds the constrained `emp`.
const RULES: [&str; 3] = [
    "forall x. hired(x) -> emp(x)",
    "forall x. emp(x) -> person(x)",
    "forall x, y. ss(x, y) -> holder(x)",
];

const CONSTRAINTS: [&str; 3] = [
    "forall x. K emp(x) -> exists y. K ss(x, y)",
    "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
    "forall x. ~K bad(x)",
];

/// One op as plain data: kind (assert/retract/existential/rule), pred,
/// two argument selectors.
type RawOp = (u8, u8, u8, u8);

fn op_formula((kind, pred, p1, p2): RawOp) -> (bool, Formula) {
    let a = p1 as usize % PARAMS;
    let n = p2 as usize % PARAMS;
    let src = match kind % 6 {
        2 => format!("exists y. ss(a{a}, y)"),
        3 | 4 => RULES[pred as usize % RULES.len()].to_string(),
        _ => match pred % 5 {
            0 => format!("emp(a{a})"),
            1 => format!("ss(a{a}, n{n})"),
            2 => format!("hobby(a{a}, n{n})"),
            3 => format!("hired(a{a})"),
            _ => format!("bad(a{a})"),
        },
    };
    // kind 0 asserts and 1 or 5 retract facts/existentials (two retract
    // kinds, so logged tails regularly contain retract records and replay
    // exercises the over-delete/re-derive path); kind 3 asserts and 4
    // retracts rules (rule-changing commits invalidate the cached routing
    // graph and replay through the rebuild path).
    let is_assert = !matches!(kind % 6, 1 | 4 | 5);
    (is_assert, parse(&src).unwrap())
}

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static N: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "epilog-prop-persist-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The oracle's view of one recoverable state: the theory and how many
/// constraints were registered by then.
#[derive(Clone)]
struct OracleState {
    theory: Theory,
    n_constraints: usize,
}

fn assert_recovered_matches(
    recovered: &EpistemicDb,
    expect: &OracleState,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        recovered.theory().sentences(),
        expect.theory.sentences(),
        "theory mismatch {}",
        context
    );
    prop_assert_eq!(
        recovered.constraints().len(),
        expect.n_constraints,
        "constraint count mismatch {}",
        context
    );
    prop_assert!(
        recovered.satisfies_constraints(),
        "recovered state violates constraints {}",
        context
    );
    // The recovered model must be indistinguishable from a from-scratch
    // rebuild of the recovered theory.
    let scratch = prover_for(expect.theory.clone());
    prop_assert_eq!(
        recovered.prover().atom_model(),
        scratch.atom_model(),
        "model mismatch {}",
        context
    );
    Ok(())
}

/// A fresh "crashed" directory holding the log cut at byte `cut`.
fn crashed_copy(wal_bytes: &[u8], cut: usize, tag: &str) -> PathBuf {
    let crash = temp_dir(tag);
    std::fs::write(crash.join(WAL_FILE), &wal_bytes[..cut]).unwrap();
    crash
}

/// One step of a run: a constraint to register, or a batch of
/// `(is_assert, sentence)` operations to commit.
#[derive(Debug)]
enum Update {
    Constraint(Formula),
    Batch(Vec<(bool, Formula)>),
}

impl Update {
    /// Apply to the durable database. `Ok(logged)`: acknowledged, and
    /// whether it took a log record (a no-op batch or a constraint
    /// already registered takes none).
    fn on_durable(&self, durable: &mut DurableDb) -> Result<bool, PersistError> {
        match self {
            Update::Constraint(ic) => durable.add_constraint(ic.clone()),
            Update::Batch(batch) => {
                let mut txn = durable.transaction();
                for (is_assert, w) in batch {
                    txn = if *is_assert {
                        txn.assert(w.clone())
                    } else {
                        txn.retract(w.clone())
                    };
                }
                let report = txn.commit()?;
                // Facts-only commits (retractions included) must stay on
                // the incremental path: no full plan, nothing compiled.
                if let ModelUpdate::Incremental { stats, .. } = &report.model {
                    assert_eq!(
                        stats.full_firings, 0,
                        "incremental commit fired a full plan"
                    );
                    assert_eq!(stats.plans_compiled, 0, "incremental commit compiled plans");
                }
                Ok(report.asserted + report.retracted > 0)
            }
        }
    }

    fn on_oracle(&self, oracle: &mut EpistemicDb) -> Result<(), DbError> {
        match self {
            Update::Constraint(ic) => oracle.add_constraint(ic.clone()).map(drop),
            Update::Batch(batch) => {
                let mut txn = oracle.transaction();
                for (is_assert, w) in batch {
                    txn = if *is_assert {
                        txn.assert(w.clone())
                    } else {
                        txn.retract(w.clone())
                    };
                }
                txn.commit().map(|_| ())
            }
        }
    }
}

/// A fault schedule as plain data: policy selector, write-fault and
/// sync-fault odds in fourths (0 = none), injector seed.
type RawFaults = (u8, u8, u8, u64);

/// The policy a selector stands for. Under `Never` the driver calls
/// `sync` itself after every second batch.
fn policy_of(selector: u8) -> FsyncPolicy {
    if selector == 0 {
        FsyncPolicy::Always
    } else {
        FsyncPolicy::Never
    }
}

fn cases() -> impl Strategy<Value = (u8, u8, RawFaults, Vec<Vec<RawOp>>)> {
    (
        0u8..8, // seed-rule subset mask
        0u8..8, // constraint subset mask
        (0u8..2, 0u8..3, 0u8..3, 0u64..u64::MAX),
        proptest::collection::vec(
            proptest::collection::vec((0u8..10, 0u8..8, 0u8..8, 0u8..8), 1..4),
            0..5,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under any fault schedule, acknowledged == durable; then crash
    /// anywhere after the checkpoint, recover, equal the oracle; a cut
    /// inside it is refused; checkpoint+replay equals full replay.
    #[test]
    fn recovery_matches_oracle_at_every_crash_point(
        (rule_mask, ic_mask, (policy, write_odds, sync_odds, fault_seed), raw) in cases()
    ) {
        let dir = temp_dir("live");

        // Seed theory: a subset of the rules (facts arrive via commits).
        let mut src = String::new();
        for (i, rule) in RULES.iter().enumerate() {
            if rule_mask & (1 << i) != 0 {
                src.push_str(rule);
                src.push('\n');
            }
        }
        let theory = Theory::from_text(&src).unwrap();
        let policy = policy_of(policy);
        let mut durable = DurableDb::create(&dir, theory.clone(), policy).unwrap();
        let injector = Arc::new(FaultInjector::new(fault_seed));
        injector.set_write_rate(u32::from(write_odds), 4);
        injector.set_sync_rate(u32::from(sync_odds), 4);
        durable.set_fault_injector(Some(Arc::clone(&injector)));
        let mut oracle = EpistemicDb::new(theory);

        // States by LSN; index 0 = the genesis state.
        let mut by_lsn: Vec<OracleState> = vec![OracleState {
            theory: oracle.theory().clone(),
            n_constraints: 0,
        }];

        // One step per constraint of the subset (the fact-free seed
        // theory satisfies them all), then one per batch.
        let constraints = CONSTRAINTS
            .iter()
            .enumerate()
            .filter(|(i, _)| ic_mask & (1 << i) != 0)
            .map(|(_, ic)| Update::Constraint(parse(ic).unwrap()));
        let batches = raw
            .iter()
            .map(|b| Update::Batch(b.iter().map(|op| op_formula(*op)).collect()));
        for (step, update) in constraints.chain(batches).enumerate() {
            // Drive both databases through the same update: the oracle
            // applies what the durable database acknowledged.
            let answer = update.on_durable(&mut durable);
            let mut untrusted = false;
            match answer {
                Ok(logged) => {
                    prop_assert!(update.on_oracle(&mut oracle).is_ok(), "verdict divergence on {:?}", update);
                    if logged {
                        by_lsn.push(OracleState {
                            theory: oracle.theory().clone(),
                            n_constraints: oracle.constraints().len(),
                        });
                    }
                    if policy == FsyncPolicy::Always {
                        prop_assert_eq!(
                            durable.pending_unsynced(),
                            0,
                            "Always left acknowledged records unsynced"
                        );
                    }
                }
                Err(PersistError::Db(_)) => {
                    prop_assert!(
                        update.on_oracle(&mut oracle.clone()).is_err(),
                        "verdict divergence on {:?}",
                        update
                    );
                }
                // The append failed and was rewound: this update alone.
                Err(PersistError::Io(_)) => prop_assert!(write_odds + sync_odds > 0),
                Err(PersistError::Corrupt(_)) => untrusted = true,
            }
            if policy == FsyncPolicy::Never && step % 2 == 1 && !untrusted {
                untrusted = durable.sync().is_err();
            }
            prop_assert_eq!(durable.theory(), oracle.theory());
            prop_assert_eq!(durable.last_lsn() as usize, by_lsn.len() - 1);
            if untrusted {
                // A compensation or a sync failed. The database refuses
                // writes; recovery must find every acknowledged record,
                // nothing else, and no tear.
                prop_assert!(write_odds + sync_odds > 0);
                prop_assert!(matches!(durable.sync(), Err(PersistError::Corrupt(_))));
                drop(durable);
                let (rec, report) = DurableDb::recover(&dir, policy).unwrap();
                prop_assert!(report.torn_tail.is_none(), "{}", report);
                prop_assert_eq!(report.last_lsn as usize, by_lsn.len() - 1, "{}", report);
                assert_recovered_matches(
                    rec.db(),
                    by_lsn.last().unwrap(),
                    &format!("recovered in place at step {step}"),
                )?;
                durable = rec;
                durable.set_fault_injector(Some(Arc::clone(&injector)));
            }
        }
        // The disk behaves from here on: the crash points below are cut
        // out of the log the faulty run left.
        injector.disarm();
        durable.sync().unwrap();

        // ---- Crash at every record boundary and mid-record ------------
        let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let scan = Wal::scan_file(dir.join(WAL_FILE)).unwrap();
        prop_assert!(scan.torn.is_none());
        prop_assert_eq!(scan.records.len(), by_lsn.len(), "the checkpoint, then one record per LSN");
        prop_assert!(scan.records[0].checkpoint);
        // A cut at byte 0 or inside the checkpoint: no crash leaves one,
        // since the checkpoint lands by rename. Recovery refuses it and
        // leaves the file as it found it.
        let checkpoint_end = scan.records[0].end_offset as usize;
        for cut in [0, 3, checkpoint_end / 2, checkpoint_end - 1] {
            let crash = crashed_copy(&wal_bytes, cut, "refused");
            let refused = DurableDb::recover(&crash, FsyncPolicy::Never);
            prop_assert!(
                matches!(refused, Err(PersistError::Corrupt(_))),
                "a cut at byte {} inside the checkpoint must be refused",
                cut
            );
            prop_assert_eq!(std::fs::read(crash.join(WAL_FILE)).unwrap(), &wal_bytes[..cut]);
            std::fs::remove_dir_all(crash).unwrap();
        }
        let boundaries: Vec<usize> = scan.records.iter().map(|r| r.end_offset as usize).collect();
        for (i, pair) in boundaries.windows(2).enumerate() {
            let (start, end) = (pair[0], pair[1]);
            // Boundary cut: the checkpoint and exactly the first i records
            // after it survive.
            let crash = crashed_copy(&wal_bytes, start, "cut");
            let (rec, report) = DurableDb::recover(&crash, FsyncPolicy::Never).unwrap();
            prop_assert!(report.torn_tail.is_none(), "boundary cut is not a tear");
            prop_assert_eq!(report.records_replayed as usize, i);
            assert_recovered_matches(rec.db(), &by_lsn[i], &format!("at boundary {i}"))?;
            std::fs::remove_dir_all(crash).unwrap();
            // Torn cuts inside record i+1: into the header (+3 bytes) and
            // into the payload (midpoint). Recovery must truncate back to
            // the record-i state and report the tear.
            for cut in [start + 3.min(end - start - 1), start + (end - start) / 2] {
                if cut <= start || cut >= end {
                    continue;
                }
                let crash = crashed_copy(&wal_bytes, cut, "torn");
                let (rec, report) = DurableDb::recover(&crash, FsyncPolicy::Never).unwrap();
                prop_assert!(report.torn_tail.is_some(), "mid-record cut must tear");
                prop_assert_eq!(report.records_replayed as usize, i);
                assert_recovered_matches(rec.db(), &by_lsn[i], &format!("torn in record {}", i + 1))?;
                std::fs::remove_dir_all(crash).unwrap();
            }
        }
        // Full-log boundary: recovery of a copy reproduces the live state
        // by full replay from the genesis checkpoint.
        let final_state = OracleState {
            theory: oracle.theory().clone(),
            n_constraints: oracle.constraints().len(),
        };
        let full = crashed_copy(&wal_bytes, wal_bytes.len(), "full");
        let (via_replay, r2) = DurableDb::recover(&full, FsyncPolicy::Never).unwrap();
        prop_assert_eq!(r2.checkpoint_lsn, 0);
        prop_assert_eq!(r2.records_replayed as usize, by_lsn.len() - 1);
        assert_recovered_matches(via_replay.db(), &final_state, "via full replay")?;

        // ---- Checkpoint + replay == full replay -----------------------
        let compacted = durable.compact().unwrap();
        prop_assert_eq!(compacted.checkpoint_lsn as usize, by_lsn.len() - 1);
        drop(durable);
        let (via_checkpoint, r1) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
        prop_assert_eq!(r1.checkpoint_lsn, compacted.checkpoint_lsn);
        prop_assert_eq!(r1.records_replayed, 0);
        assert_recovered_matches(via_checkpoint.db(), &final_state, "via checkpoint")?;
        prop_assert_eq!(
            via_checkpoint.prover().atom_model(),
            via_replay.prover().atom_model()
        );
        drop(via_replay);
        std::fs::remove_dir_all(full).unwrap();

        // ---- Compacting again preserves the state ---------------------
        let mut compacted = via_checkpoint;
        let _ = compacted.compact().unwrap();
        drop(compacted);
        let (rec, report) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
        prop_assert_eq!(report.records_replayed, 0);
        assert_recovered_matches(rec.db(), &final_state, "after compaction")?;
        drop(rec);

        std::fs::remove_dir_all(dir).unwrap();
    }

    /// [`FsyncPolicy::Never`]'s loss window is exact: after every commit
    /// it counts the records logged since the last sync, an explicit
    /// sync empties it, and a clean drop flushes it — the log on disk is
    /// complete and recovery reproduces the live state exactly.
    #[test]
    fn never_policy_window_closes_on_sync_and_on_drop(
        raw in proptest::collection::vec((0u8..10, 0u8..8, 0u8..8, 0u8..8), 1..24),
    ) {
        let dir = temp_dir("never");
        let theory = Theory::from_text(RULES[1]).unwrap();
        let mut durable = DurableDb::create(&dir, theory.clone(), FsyncPolicy::Never).unwrap();
        let mut oracle = EpistemicDb::new(theory);
        let mut logged = 0;
        for op in &raw {
            let (is_assert, w) = op_formula(*op);
            let dv = if is_assert {
                durable.transaction().assert(w.clone()).commit()
            } else {
                durable.transaction().retract(w.clone()).commit()
            };
            let ov = if is_assert {
                oracle.transaction().assert(w.clone()).commit()
            } else {
                oracle.transaction().retract(w).commit()
            };
            prop_assert_eq!(dv.is_ok(), ov.is_ok(), "verdict divergence");
            if dv.is_ok_and(|report| report.asserted + report.retracted > 0) {
                logged += 1;
            }
            prop_assert_eq!(durable.pending_unsynced(), logged, "records awaiting a sync");
        }
        durable.sync().unwrap();
        prop_assert_eq!(durable.pending_unsynced(), 0, "explicit sync empties the window");
        // Reopen the window, then drop without ceremony: the drop-flush
        // leaves a complete, untorn log equal to the live state.
        let _ = durable.transaction().assert(parse("hired(a0)").unwrap()).commit();
        let _ = oracle.transaction().assert(parse("hired(a0)").unwrap()).commit();
        let final_state = OracleState {
            theory: oracle.theory().clone(),
            n_constraints: 0,
        };
        drop(durable);
        let scan = Wal::scan_file(dir.join(WAL_FILE)).unwrap();
        prop_assert!(scan.torn.is_none(), "clean drop left a torn log");
        let (rec, report) = DurableDb::recover(&dir, FsyncPolicy::Never).unwrap();
        prop_assert!(report.torn_tail.is_none());
        assert_recovered_matches(rec.db(), &final_state, "after clean drop under Never")?;
        drop(rec);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
