//! Differential property suite for the bottom-up Datalog engine: on
//! randomized stratified programs, semi-naive evaluation under compiled
//! rule plans must produce exactly the database naive evaluation produces,
//! while executing no more join plans — and the cost-based planner with
//! hash-join steps must produce exactly the model of the seed greedy
//! nested-loop planner.
//!
//! Programs are drawn from a pool of safe, stratified-by-construction
//! rules (recursion is positive; negation only reaches down to lower
//! strata) over randomized extensional facts, so every sample is inside
//! the perfect-model fragment both evaluators implement.
//!
//! A second family of properties pins the cross-commit plan cache of
//! `EpistemicDb`: ground-atom commits compile zero rule plans, and a
//! rule-changing commit invalidates the cache — the cached-plan state
//! always equals a fresh from-scratch rebuild.

use epilog::core::{prover_for, EpistemicDb, ModelUpdate};
use epilog::datalog::{PlannerMode, Program, RulePlan};
use epilog::syntax::parse;
use proptest::prelude::*;

const PARAMS: usize = 4;

/// The rule pool. Each rule is safe and has at most one literal of a
/// recursive predicate, and the negated predicates (`reach`, `q`) never
/// appear in a head above them — so any subset is stratified. The last
/// two rules join literals with **two** bound columns, which is what
/// makes the cost-based planner emit hash build+probe steps.
const RULES: [&str; 8] = [
    "forall x, y. e(x, y) -> reach(x, y)",
    "forall x, y, z. e(x, y) & reach(y, z) -> reach(x, z)",
    "forall x. f(x) -> q(x)",
    "forall x, y. e(x, y) & f(x) -> q(y)",
    "forall x, y. e(x, y) & ~reach(y, x) -> oneway(x, y)",
    "forall x. f(x) & ~q(x) -> isolated(x)",
    "forall x, y. reach(x, y) & e(x, y) -> direct(x, y)",
    "forall x, y, z. e(x, y) & e(y, z) & e(x, z) -> tri(x, y, z)",
];

fn program_text() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((0..PARAMS, 0..PARAMS), 0..10),
        proptest::collection::vec(0..PARAMS, 0..5),
        1u16..256,
    )
        .prop_map(|(edges, units, mask)| {
            let mut src = String::new();
            for (a, b) in edges {
                src.push_str(&format!("e(a{a}, a{b})\n"));
            }
            for a in units {
                src.push_str(&format!("f(a{a})\n"));
            }
            for (i, rule) in RULES.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    src.push_str(rule);
                    src.push('\n');
                }
            }
            src
        })
}

/// Like [`program_text`] but drawn from the negation-free rules only, so
/// every sample is a definite program eligible for the resumed fixpoint
/// (`eval_incremental_with` falls back to full evaluation under
/// negation, which would defeat the stale-vs-recosted comparison).
fn definite_program_text() -> impl Strategy<Value = String> {
    const DEFINITE: [usize; 6] = [0, 1, 2, 3, 6, 7];
    (
        proptest::collection::vec((0..PARAMS, 0..PARAMS), 0..10),
        proptest::collection::vec(0..PARAMS, 0..5),
        1u8..64,
    )
        .prop_map(|(edges, units, mask)| {
            let mut src = String::new();
            for (a, b) in edges {
                src.push_str(&format!("e(a{a}, a{b})\n"));
            }
            for a in units {
                src.push_str(&format!("f(a{a})\n"));
            }
            for (i, &rule) in DEFINITE.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    src.push_str(RULES[rule]);
                    src.push('\n');
                }
            }
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Semi-naive and naive evaluation agree on the perfect model.
    #[test]
    fn seminaive_matches_naive(src in program_text()) {
        let program = Program::from_text(&src).unwrap();
        let (fast_db, fast) = program.eval().unwrap();
        let (slow_db, slow) = program.fixpoint(false, PlannerMode::CostBased, None).unwrap();
        prop_assert_eq!(&fast_db, &slow_db, "models differ on:\n{}", src);
        // Empty-delta variants are skipped, so the compiled semi-naive
        // engine never runs more join plans than the naive ablation.
        prop_assert!(
            fast.rule_firings <= slow.rule_firings,
            "semi-naive fired {} > naive {} on:\n{}",
            fast.rule_firings,
            slow.rule_firings,
            src
        );
        // Work actually done is bounded the same way.
        prop_assert!(
            fast.derivations <= slow.derivations,
            "semi-naive derived {} > naive {} on:\n{}",
            fast.derivations,
            slow.derivations,
            src
        );
    }

    /// Planner differential: the cost-based planner (statistics-driven
    /// literal order, hash build+probe steps) computes exactly the model
    /// of the seed greedy nested-loop planner, with identical firing and
    /// derivation counts — only the join work differs.
    #[test]
    fn cost_based_planner_matches_greedy(src in program_text()) {
        let program = Program::from_text(&src).unwrap();
        let (cost_db, cost) = program.fixpoint(true, PlannerMode::CostBased, None).unwrap();
        let (greedy_db, greedy) = program.fixpoint(true, PlannerMode::Greedy, None).unwrap();
        prop_assert_eq!(&cost_db, &greedy_db, "planners disagree on:\n{}", src);
        prop_assert_eq!(cost.rule_firings, greedy.rule_firings, "on:\n{}", src);
        prop_assert_eq!(cost.derivations, greedy.derivations, "on:\n{}", src);
        prop_assert_eq!(greedy.hash_steps, 0, "the seed planner must never hash");
        // Both agree with the naive ablation as well.
        let (naive_db, _) = program.fixpoint(false, PlannerMode::Greedy, None).unwrap();
        prop_assert_eq!(&cost_db, &naive_db, "cost vs naive on:\n{}", src);
        // Skipped-variant accounting: skipped + fired delta variants are
        // disjoint, so the disambiguated counters never double-count.
        prop_assert_eq!(cost.variants_skipped, greedy.variants_skipped, "on:\n{}", src);
    }

    /// Growing chains: the canonical recursive workload, exact sizes.
    #[test]
    fn chain_closure_size_is_exact(n in 1usize..24) {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("e(n{i}, n{})\n", i + 1));
        }
        src.push_str("forall x, y. e(x, y) -> t(x, y)\n");
        src.push_str("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n");
        let program = Program::from_text(&src).unwrap();
        let (db, fast) = program.eval().unwrap();
        let (db2, slow) = program.fixpoint(false, PlannerMode::CostBased, None).unwrap();
        prop_assert_eq!(&db, &db2);
        let t = epilog::syntax::Pred::new("t", 2);
        prop_assert_eq!(db.relation(t).unwrap().len(), n * (n + 1) / 2);
        prop_assert!(fast.rule_firings <= slow.rule_firings);
    }

    /// Cross-commit plan-cache coherence: a random run of ground-atom
    /// batches with a rule-changing commit injected mid-stream. Every
    /// incremental commit must reuse the cached plans (zero compilations)
    /// — including after the rule commit rebuilt them — and the final
    /// attached model must equal a from-scratch rebuild of the theory,
    /// which fails if an invalidation is ever missed.
    #[test]
    fn plan_cache_coherent_across_rule_commits(
        batches in proptest::collection::vec(
            proptest::collection::vec((0..PARAMS, 0..PARAMS), 1..4),
            1..5,
        ),
        rule_at in 0..5usize,
        which_rule in 0..3usize,
    ) {
        const EXTRA_RULES: [&str; 3] = [
            "forall x, y. e(x, y) -> linked(y, x)",
            "forall x, y. e(x, y) & reach(y, x) -> cyc(x, y)",
            "forall x, y, z. e(x, y) & e(y, z) & e(x, z) -> tri(x, y, z)",
        ];
        let mut db = EpistemicDb::from_text(
            "e(a0, a1)
             forall x, y. e(x, y) -> reach(x, y)
             forall x, y, z. e(x, y) & reach(y, z) -> reach(x, z)",
        )
        .unwrap();
        for (i, batch) in batches.iter().enumerate() {
            if i == rule_at {
                let report = db
                    .transaction()
                    .assert(parse(EXTRA_RULES[which_rule]).unwrap())
                    .commit()
                    .unwrap();
                prop_assert_eq!(&report.model, &ModelUpdate::Rebuilt);
            }
            let mut txn = db.transaction();
            for (a, b) in batch {
                txn = txn.assert(parse(&format!("e(a{a}, a{b})")).unwrap());
            }
            let report = txn.commit().unwrap();
            if let ModelUpdate::Incremental { stats, .. } = report.model {
                prop_assert_eq!(
                    stats.plans_compiled, 0,
                    "ground-atom commit {} must ride the plan cache", i
                );
                prop_assert_eq!(stats.full_firings, 0);
            }
        }
        // Cached-plan evolution == from-scratch rebuild (state + model).
        let scratch = prover_for(db.theory().clone());
        prop_assert_eq!(db.prover().atom_model(), scratch.atom_model());
    }

    /// Plan re-costing is a pure performance knob: resuming the fixpoint
    /// with plans costed against the **stale** (pre-growth) model and
    /// with plans re-costed against the **current** model must produce
    /// the identical model — equal to the from-scratch oracle — with
    /// identical firing and derivation counts. Only join strategy and
    /// literal order may differ.
    #[test]
    fn recosted_plans_match_stale_plans(
        src in definite_program_text(),
        extra in proptest::collection::vec((0..PARAMS, 0..PARAMS), 1..6),
    ) {
        let base = Program::from_text(&src).unwrap();
        let (model, _) = base.eval().unwrap();
        // Growth delta on fresh `b`-constants, so every new fact is
        // genuinely absent from the base EDB (the resume contract).
        let mut grown_src = src.clone();
        let mut facts_src = String::new();
        for (a, b) in &extra {
            let fact = format!("e(b{a}, a{b})\n");
            grown_src.push_str(&fact);
            facts_src.push_str(&fact);
        }
        let grown = Program::from_text(&grown_src).unwrap();
        let new_facts = Program::from_text(&facts_src).unwrap().edb;
        let (oracle, _) = grown.eval().unwrap();

        let stale: Vec<RulePlan> = grown
            .rules
            .iter()
            .map(|r| RulePlan::compile_with_stats(r, Some(&model)))
            .collect();
        let fresh: Vec<RulePlan> = grown
            .rules
            .iter()
            .map(|r| RulePlan::compile_with_stats(r, Some(&oracle)))
            .collect();
        let (stale_db, stale_stats) = grown
            .grow(&stale, model.clone(), &new_facts, None)
            .unwrap();
        let (fresh_db, fresh_stats) = grown
            .grow(&fresh, model, &new_facts, None)
            .unwrap();
        prop_assert_eq!(&stale_db, &fresh_db, "stale vs re-costed on:\n{}", grown_src);
        prop_assert_eq!(&stale_db, &oracle, "resume vs oracle on:\n{}", grown_src);
        prop_assert_eq!(stale_stats.rule_firings, fresh_stats.rule_firings);
        prop_assert_eq!(stale_stats.derivations, fresh_stats.derivations);
        // The cached-plan entry point never compiles, re-costed or not.
        prop_assert_eq!(stale_stats.plans_compiled, 0);
        prop_assert_eq!(fresh_stats.plans_compiled, 0);
    }
}

/// `RulePlan::explain` makes a re-cost observable: costing the same rule
/// against inverted relation statistics flips the leading literal of the
/// join order (smallest estimated relation first).
#[test]
fn recosting_flips_the_explained_order() {
    let rule = Program::from_text("forall x, y. big(x, y) & small(x) -> out(x, y)")
        .unwrap()
        .rules
        .remove(0);

    let mut small_heavy = String::from("big(a0, a1)\n");
    let mut big_heavy = String::from("small(a0)\n");
    for i in 0..50 {
        small_heavy.push_str(&format!("small(c{i})\n"));
        big_heavy.push_str(&format!("big(c{i}, d{i})\n"));
    }
    let small_heavy = Program::from_text(&small_heavy).unwrap().edb;
    let big_heavy = Program::from_text(&big_heavy).unwrap().edb;

    let lean_big = RulePlan::compile_with_stats(&rule, Some(&small_heavy)).explain();
    let lean_small = RulePlan::compile_with_stats(&rule, Some(&big_heavy)).explain();
    assert_ne!(
        lean_big, lean_small,
        "inverted statistics must change the explained plan"
    );
    assert!(
        lean_big.contains("1. big("),
        "big holds one row, so it must lead:\n{lean_big}"
    );
    assert!(
        lean_small.contains("1. small("),
        "small holds one row, so it must lead:\n{lean_small}"
    );
    // The support section (the DRed re-derivation probe) is explained too.
    assert!(
        lean_big.contains("support:"),
        "missing support section:\n{lean_big}"
    );
    assert!(
        lean_small.contains("support:"),
        "missing support section:\n{lean_small}"
    );
}
