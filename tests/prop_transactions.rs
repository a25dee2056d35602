//! Differential property suite for the transactional update API:
//! `Transaction::commit` (incremental model maintenance + incremental
//! constraint checking) must agree, verdict for verdict and state for
//! state, with the rebuild-from-scratch oracle (`prover_for` on the
//! candidate theory + a full check of every constraint).
//!
//! Theories are definite by construction (ground facts + positive rules,
//! with occasional existential facts that push the database off the
//! model-backed path), so every sample exercises the engine-backed
//! fast path, and the rejected-commit samples additionally pin atomicity:
//! a refused batch leaves the database observably untouched.

use epilog::core::ask::{answers, certain};
use epilog::core::{prover_for, CompiledConstraint};
use epilog::prelude::*;
use epilog::syntax::formula::Atom;
use proptest::prelude::*;
use std::collections::HashMap;

const PARAMS: usize = 3;

/// The rule pool: definite and safe. `hired` feeds the constrained `emp`
/// predicate and the symmetry rule re-derives `hobby`, so constraints are
/// violated through derived atoms — which the router sees only in the
/// commit's model diff.
const RULES: [&str; 4] = [
    "forall x. hired(x) -> emp(x)",
    "forall x. emp(x) -> person(x)",
    "forall x, y. ss(x, y) -> holder(x)",
    "forall x, y. hobby(x, y) -> hobby(y, x)",
];

/// The constraints every sample database lives under: the paper's three,
/// then one each with an atom under `K ∃`, `∃ K`, a positive `K ∨` and a
/// negated `K ∨`.
fn constraints() -> Vec<Formula> {
    [
        "forall x. K emp(x) -> exists y. K ss(x, y)",
        "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
        "forall x. ~K bad(x)",
        "forall x. K hired(x) & K (exists y. hobby(x, y)) -> K person(x)",
        "forall x. K holder(x) & (exists y. K hobby(x, y)) -> K emp(x)",
        "forall x. K holder(x) & K (hired(x) | bad(x)) -> K person(x)",
        "forall x. K hired(x) -> K (emp(x) | bad(x))",
    ]
    .iter()
    .map(|ic| parse(ic).unwrap())
    .collect()
}

/// One update operation, as plain data the strategy can generate.
/// kind: 0/1 = assert/retract a ground fact; 2 = assert an existential.
type RawOp = (u8, u8, u8, u8);

fn op_formula((kind, pred, p1, p2): RawOp) -> (bool, Formula) {
    let a = p1 as usize % PARAMS;
    let n = p2 as usize % PARAMS;
    let src = if kind % 3 == 2 {
        format!("exists y. ss(a{a}, y)")
    } else {
        match pred % 5 {
            0 => format!("emp(a{a})"),
            1 => format!("ss(a{a}, n{n})"),
            2 => format!("hobby(a{a}, n{n})"),
            3 => format!("hired(a{a})"),
            _ => format!("bad(a{a})"),
        }
    };
    (kind % 3 != 1, parse(&src).unwrap())
}

/// The theory a batch leaves behind when its ops are replayed in order.
fn replay(theory: &Theory, batch: &[(bool, Formula)]) -> Theory {
    let mut candidate = theory.clone();
    for (is_assert, w) in batch {
        if *is_assert {
            candidate.assert(w.clone()).unwrap();
        } else {
            candidate.retract(w);
        }
    }
    candidate
}

/// Apply one batch through the rebuild-from-scratch oracle: clone the
/// theory, replay the ops in order, rebuild the prover, full-check every
/// constraint by the Levesque reduction (`certain` — the commit path
/// itself evaluates constraints with `demo`). Returns the accepted
/// candidate theory, or `None` when the batch must be rejected.
fn oracle_commit(theory: &Theory, batch: &[(bool, Formula)]) -> Option<Theory> {
    let candidate = replay(theory, batch);
    oracle_rejection(&prover_for(candidate.clone()))
        .is_none()
        .then_some(candidate)
}

/// The first three constraints of [`constraints`] as the oracle searches
/// them for witnesses: the positive `K`-patterns of the violation, and
/// the violation body over the patterns' variables.
const VIOLATIONS: [(&[&str], &str); 3] = [
    (&["emp(x)"], "K emp(x) & ~(exists y. K ss(x, y))"),
    (
        &["ss(x, y)", "ss(x, z)"],
        "K ss(x, y) & K ss(x, z) & ~K y = z",
    ),
    (&["bad(x)"], "K bad(x)"),
];

/// What a rejection must report, worked out with `certain` alone: the
/// first constraint (in registration order) the state does not entail,
/// and its [`oracle_witnesses`]. `None` when every constraint holds.
fn oracle_rejection(prover: &Prover) -> Option<(Formula, Option<Vec<Atom>>)> {
    let (i, ic) = constraints()
        .into_iter()
        .enumerate()
        .find(|(_, ic)| !certain(prover, ic))?;
    Some((ic, oracle_witnesses(prover, i)))
}

/// The first witnesses of the violated constraint `i` of [`constraints`]
/// when it is one of the three of [`VIOLATIONS`] (`None` for the others):
/// the patterns instantiated leftmost first, each over the known atoms in
/// the prover's answer order, such that the violation body is certain.
fn oracle_witnesses(prover: &Prover, i: usize) -> Option<Vec<Atom>> {
    fn search(
        prover: &Prover,
        patterns: &[Formula],
        body: &Formula,
        binding: &mut HashMap<Var, Term>,
        picked: &mut Vec<Atom>,
    ) -> bool {
        let Some((pattern, rest)) = patterns.split_first() else {
            return certain(prover, &body.subst(binding));
        };
        let pattern = pattern.subst(binding);
        let vars = pattern.free_vars();
        for tuple in answers(prover, &Formula::know(pattern.clone())) {
            let Formula::Atom(atom) = pattern.bind_free(&tuple) else {
                unreachable!("patterns are atoms")
            };
            picked.push(atom);
            for (v, p) in vars.iter().zip(&tuple) {
                binding.insert(*v, Term::Param(*p));
            }
            if search(prover, rest, body, binding, picked) {
                return true;
            }
            for v in &vars {
                binding.remove(v);
            }
            picked.pop();
        }
        false
    }
    let (patterns, body) = VIOLATIONS.get(i)?;
    let patterns: Vec<Formula> = patterns.iter().map(|p| parse(p).unwrap()).collect();
    let mut witnesses = Vec::new();
    let found = search(
        prover,
        &patterns,
        &parse(body).unwrap(),
        &mut HashMap::new(),
        &mut witnesses,
    );
    assert!(found, "a violated constraint has a witness");
    Some(witnesses)
}

/// Open a database over `src` under [`constraints`], commit each batch,
/// and hold the verdict, the constraint a rejection names and its
/// witnesses against [`oracle_rejection`] on the candidate state. On the
/// same candidate, registering each constraint on a constraint-free
/// database is held against `certain` and [`oracle_witnesses`].
fn rejections_match_oracle(
    src: &str,
    batches: &[Vec<RawOp>],
    to_op: fn(RawOp) -> (bool, Formula),
) -> Result<(), TestCaseError> {
    let mut db = EpistemicDb::from_text(src).unwrap();
    for ic in constraints() {
        db.add_constraint(ic).unwrap();
    }
    for raw_batch in batches {
        let batch: Vec<(bool, Formula)> = raw_batch.iter().map(|op| to_op(*op)).collect();
        let candidate = replay(db.theory(), &batch);
        let prover = prover_for(candidate.clone());
        let unconstrained = EpistemicDb::new(candidate);
        for (i, ic) in constraints().into_iter().enumerate() {
            match (
                unconstrained.clone().add_constraint(ic.clone()),
                certain(&prover, &ic),
            ) {
                (Ok(true), true) => {}
                (Err(DbError::ConstraintViolated(got)), false) => {
                    prop_assert_eq!(&got.constraint, &ic);
                    if let Some(witnesses) = oracle_witnesses(&prover, i) {
                        prop_assert_eq!(&got.witnesses, &witnesses, "registering {}", ic);
                    }
                }
                (got, holds) => prop_assert!(
                    false,
                    "registering {} after {:?}: {:?}, certain {}",
                    ic,
                    batch,
                    got.map_err(|e| e.to_string()),
                    holds
                ),
            }
        }
        let expected = oracle_rejection(&prover);
        let mut txn = db.transaction();
        for (is_assert, w) in &batch {
            txn = if *is_assert {
                txn.assert(w.clone())
            } else {
                txn.retract(w.clone())
            };
        }
        match (txn.commit(), expected) {
            (Ok(_), None) => {}
            (Err(DbError::ConstraintViolated(got)), Some((ic, witnesses))) => {
                prop_assert_eq!(&got.constraint, &ic, "on {:?}", batch);
                if let Some(witnesses) = witnesses {
                    prop_assert_eq!(&got.witnesses, &witnesses, "on {:?}", batch);
                }
            }
            (got, want) => prop_assert!(
                false,
                "verdict mismatch on {:?}: commit {:?}, oracle {:?}",
                batch,
                got.map(|_| ()),
                want
            ),
        }
    }
    Ok(())
}

/// A ground-facts-only op (no existentials), retract-weighted: 3 of 4
/// kinds retract, so batches drain the seeded registrar and exercise the
/// over-delete/re-derive path far more often than growth.
fn ground_op((kind, pred, p1, p2): RawOp) -> (bool, Formula) {
    let a = p1 as usize % PARAMS;
    let n = p2 as usize % PARAMS;
    let src = match pred % 5 {
        0 => format!("emp(a{a})"),
        1 => format!("ss(a{a}, n{n})"),
        2 => format!("hobby(a{a}, n{n})"),
        3 => format!("hired(a{a})"),
        _ => format!("bad(a{a})"),
    };
    (kind % 4 == 0, parse(&src).unwrap())
}

fn batches() -> impl Strategy<Value = (u8, Vec<Vec<RawOp>>)> {
    (
        0u8..16, // rule-subset mask
        proptest::collection::vec(
            proptest::collection::vec((0u8..6, 0u8..8, 0u8..8, 0u8..8), 1..4),
            0..6,
        ),
    )
}

/// Every constraint of the pool compiles, so facts-only commits check
/// each on the model diff rather than in full.
#[test]
fn every_pool_constraint_is_routed() {
    for ic in constraints() {
        let compiled = CompiledConstraint::compile(&ic);
        assert!(compiled.is_routed(), "{ic}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Transactional commits agree with the rebuild oracle on every
    /// verdict, on the resulting theory, and on the attached model.
    #[test]
    fn commit_matches_rebuild_from_scratch((mask, raw) in batches()) {
        // Seed theory: a rule subset (facts arrive through commits).
        let mut src = String::new();
        for (i, rule) in RULES.iter().enumerate() {
            if mask & (1 << i) != 0 {
                src.push_str(rule);
                src.push('\n');
            }
        }
        let mut db = EpistemicDb::from_text(&src).unwrap();
        for ic in constraints() {
            db.add_constraint(ic).unwrap();
        }
        let mut shadow = db.theory().clone();

        for raw_batch in &raw {
            let batch: Vec<(bool, Formula)> =
                raw_batch.iter().map(|op| op_formula(*op)).collect();
            let mut txn = db.transaction();
            for (is_assert, w) in &batch {
                txn = if *is_assert {
                    txn.assert(w.clone())
                } else {
                    txn.retract(w.clone())
                };
            }
            let verdict = txn.commit();
            match oracle_commit(&shadow, &batch) {
                Some(accepted) => {
                    prop_assert!(
                        verdict.is_ok(),
                        "commit rejected a batch the oracle accepts: {batch:?}\n{}",
                        verdict.unwrap_err()
                    );
                    shadow = accepted;
                }
                None => {
                    prop_assert!(
                        verdict.is_err(),
                        "commit accepted a batch the oracle rejects: {batch:?}"
                    );
                }
            }
            // Accepted or rejected, the database must now mirror the
            // shadow state exactly…
            prop_assert_eq!(db.theory(), &shadow);
            // …including the attached least model (the incremental splice
            // must be indistinguishable from a from-scratch rebuild).
            let scratch = prover_for(shadow.clone());
            prop_assert_eq!(db.prover().atom_model(), scratch.atom_model());
        }
        prop_assert!(db.satisfies_constraints());
    }

    /// Retract-heavy and mixed ground-fact batches on a fully seeded
    /// definite registrar: every accepted commit must take the
    /// incremental path — retractions through the over-delete/re-derive
    /// fixpoint, additions through the resumed semi-naive fixpoint, with
    /// no full plan fired and nothing compiled — and the resulting state
    /// must be indistinguishable from the rebuild oracle's.
    #[test]
    fn retract_heavy_commits_stay_incremental(
        raw in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u8..8, 0u8..8, 0u8..8), 1..5),
            1..6,
        )
    ) {
        let mut src = String::from(
            "forall x. emp(x) -> person(x)\nforall x, y. ss(x, y) -> holder(x)\n",
        );
        for i in 0..PARAMS {
            src.push_str(&format!("emp(a{i})\nss(a{i}, n{i})\nhobby(a{i}, n{i})\n"));
        }
        let mut db = EpistemicDb::from_text(&src).unwrap();
        for ic in constraints() {
            db.add_constraint(ic).unwrap();
        }
        let mut shadow = db.theory().clone();
        for raw_batch in &raw {
            let batch: Vec<(bool, Formula)> =
                raw_batch.iter().map(|op| ground_op(*op)).collect();
            let mut txn = db.transaction();
            for (is_assert, w) in &batch {
                txn = if *is_assert {
                    txn.assert(w.clone())
                } else {
                    txn.retract(w.clone())
                };
            }
            match (txn.commit(), oracle_commit(&shadow, &batch)) {
                (Ok(report), Some(accepted)) => {
                    shadow = accepted;
                    match &report.model {
                        ModelUpdate::Incremental { stats, .. } => {
                            prop_assert_eq!(
                                stats.full_firings, 0,
                                "a facts-only commit must fire no full plan"
                            );
                            prop_assert_eq!(
                                stats.plans_compiled, 0,
                                "a facts-only commit must reuse the cached plans"
                            );
                        }
                        ModelUpdate::Unchanged => {}
                        other => prop_assert!(
                            false,
                            "facts-only commit left the incremental path: {:?}",
                            other
                        ),
                    }
                }
                (Err(_), None) => {}
                (got, want) => prop_assert!(
                    false,
                    "verdict mismatch: commit accepted={} oracle accepted={} on {:?}",
                    got.is_ok(),
                    want.is_some(),
                    batch
                ),
            }
            // Compare as sentence *sets*: a retract-then-reassert pair
            // cancels inside the transaction (the sentence keeps its
            // position) while the oracle's naive replay re-appends it.
            let mut committed: Vec<String> =
                db.theory().sentences().iter().map(|w| w.to_string()).collect();
            let mut replayed: Vec<String> =
                shadow.sentences().iter().map(|w| w.to_string()).collect();
            committed.sort();
            replayed.sort();
            prop_assert_eq!(committed, replayed);
            let scratch = prover_for(shadow.clone());
            prop_assert_eq!(db.prover().atom_model(), scratch.atom_model());
        }
        prop_assert!(db.satisfies_constraints());
    }

    /// The commit path decides constraints with `demo` (violation
    /// instances on the routed path, the whole violation on the full one,
    /// the open violation body for witnesses), answered from the least
    /// model where there is one; the Levesque reduction is the
    /// independent oracle. On assert-heavy streams (rule subsets,
    /// existential facts that leave the definite fragment) and on
    /// retract-heavy streams over a seeded registrar, every verdict, the
    /// constraint a rejection names and its witnesses must be the
    /// oracle's.
    #[test]
    fn demo_checked_commits_match_the_certain_oracle(
        (mask, grow) in batches(),
        shrink in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u8..8, 0u8..8, 0u8..8), 1..5),
            1..6,
        ),
    ) {
        let mut rules = String::new();
        for (i, rule) in RULES.iter().enumerate() {
            if mask & (1 << i) != 0 {
                rules.push_str(rule);
                rules.push('\n');
            }
        }
        let mut seeded = rules.clone();
        for i in 0..PARAMS {
            seeded.push_str(&format!("emp(a{i})\nss(a{i}, n{i})\nhobby(a{i}, n{i})\n"));
        }
        rejections_match_oracle(&rules, &grow, op_formula)?;
        rejections_match_oracle(&seeded, &shrink, ground_op)?;
    }

    /// MVCC snapshot consistency: handles pinned before/during/after a
    /// stream of commits are immutable — at the end of the run each
    /// still holds exactly the rebuild oracle's state at its commit
    /// LSN, no matter how many later states were published over it.
    #[test]
    fn snapshots_are_immutable_and_match_the_rebuild_oracle((mask, raw) in batches()) {
        use epilog::core::CommittedState;
        use std::sync::Arc;

        let mut src = String::new();
        for (i, rule) in RULES.iter().enumerate() {
            if mask & (1 << i) != 0 {
                src.push_str(rule);
                src.push('\n');
            }
        }
        let mut db = EpistemicDb::from_text(&src).unwrap();
        for ic in constraints() {
            db.add_constraint(ic).unwrap();
        }
        let mut shadow = db.theory().clone();
        let cell = StateCell::new(db.clone(), 0);

        fn sentence_set(t: &Theory) -> Vec<String> {
            let mut v: Vec<String> = t.sentences().iter().map(|w| w.to_string()).collect();
            v.sort();
            v
        }

        // Every handle ever taken, with the oracle's sentence set at
        // its LSN (captured at snapshot time).
        let mut pinned: Vec<(ReadHandle, u64, Vec<String>)> = Vec::new();
        let mut lsn = 0u64;
        pinned.push((cell.snapshot(), lsn, sentence_set(&shadow)));

        for raw_batch in &raw {
            let batch: Vec<(bool, Formula)> =
                raw_batch.iter().map(|op| op_formula(*op)).collect();
            let mut txn = db.transaction();
            for (is_assert, w) in &batch {
                txn = if *is_assert {
                    txn.assert(w.clone())
                } else {
                    txn.retract(w.clone())
                };
            }
            match (txn.commit(), oracle_commit(&shadow, &batch)) {
                (Ok(_), Some(accepted)) => {
                    shadow = accepted;
                    lsn += 1;
                    cell.publish(Arc::new(CommittedState::new(db.clone(), lsn)));
                }
                (Err(_), None) => {}
                (got, want) => prop_assert!(
                    false,
                    "verdict mismatch: commit accepted={} oracle accepted={}",
                    got.is_ok(),
                    want.is_some()
                ),
            }
            pinned.push((cell.snapshot(), lsn, sentence_set(&shadow)));
        }

        prop_assert_eq!(cell.head_lsn(), lsn);
        for (handle, at_lsn, expected) in &pinned {
            prop_assert_eq!(
                handle.lsn(), *at_lsn,
                "a snapshot's LSN stamp must not drift"
            );
            prop_assert_eq!(
                &sentence_set(handle.theory()), expected,
                "snapshot at LSN {} no longer equals the oracle there", at_lsn
            );
        }
    }

    /// The one-shot wrappers stay faithful to their transactional core:
    /// `retract` of an absent sentence reports `false` and changes
    /// nothing; `assert` of a present sentence changes nothing.
    #[test]
    fn oneshot_wrappers_are_single_op_transactions(ops in proptest::collection::vec((0u8..6, 0u8..8, 0u8..8, 0u8..8), 1..8)) {
        let mut db = EpistemicDb::from_text("").unwrap();
        for ic in constraints() {
            db.add_constraint(ic).unwrap();
        }
        let mut shadow = db.theory().clone();
        for op in ops {
            let (is_assert, w) = op_formula(op);
            if is_assert {
                let oracle = oracle_commit(&shadow, &[(true, w.clone())]);
                match db.assert(w.clone()) {
                    Ok(()) => shadow = oracle.expect("oracle must accept"),
                    Err(_) => prop_assert!(oracle.is_none()),
                }
            } else {
                let was_present = shadow.contains(&w);
                let oracle = oracle_commit(&shadow, &[(false, w.clone())]);
                match db.retract(&w) {
                    Ok(removed) => {
                        prop_assert_eq!(removed, was_present);
                        shadow = oracle.expect("oracle must accept");
                    }
                    Err(_) => prop_assert!(oracle.is_none()),
                }
            }
            prop_assert_eq!(db.theory(), &shadow);
        }
    }
}
