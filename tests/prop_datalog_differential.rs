//! Differential property suite for the bottom-up Datalog engine: on
//! randomized definite programs, semi-naive evaluation under compiled
//! rule plans must produce exactly the least model naive evaluation
//! produces, while executing no more join plans — whatever literal order
//! and join strategies the cost-based planner picked.
//!
//! Programs are drawn from a pool of safe definite rules over randomized
//! extensional facts.
//!
//! A second family of properties pins the cross-commit plan cache of
//! `EpistemicDb`: ground-atom commits compile zero rule plans, and a
//! rule-changing commit invalidates the cache — the cached-plan state
//! always equals a fresh from-scratch rebuild. A third pins the resumed
//! fixpoints against a full one: `grow` whatever its plans were costed
//! against, `shrink` (DRed) on random retractions, and the tuples each
//! reports changing against the two models' difference.

use epilog::core::{prover_for, EpistemicDb, ModelUpdate};
use epilog::datalog::{Program, RulePlan};
use epilog::storage::Database;
use epilog::syntax::parse;
use proptest::prelude::*;
use std::collections::BTreeSet;

const PARAMS: usize = 4;

/// The rule pool. Each rule is safe and has at most one literal of a
/// recursive predicate, so any subset is a definite program. `direct`
/// and `tri` each end on a literal whose **both** columns are bound by
/// then, which the plans answer with a lookup of one tuple; the last two
/// rules have a repeated head variable and a head constant, the two
/// shapes `RulePlan::bind_head` can refuse a tuple on.
const RULES: [&str; 8] = [
    "forall x, y. e(x, y) -> reach(x, y)",
    "forall x, y, z. e(x, y) & reach(y, z) -> reach(x, z)",
    "forall x. f(x) -> q(x)",
    "forall x, y. e(x, y) & f(x) -> q(y)",
    "forall x, y. reach(x, y) & e(x, y) -> direct(x, y)",
    "forall x, y, z. e(x, y) & e(y, z) & e(x, z) -> tri(x, y, z)",
    "forall x. f(x) -> self(x, x)",
    "forall x. f(x) -> tag(x, c0)",
];

/// `e` edges, `f` units and the rules of [`RULES`] a nonzero mask picks.
fn program_text() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((0..PARAMS, 0..PARAMS), 0..10),
        proptest::collection::vec(0..PARAMS, 0..5),
        1u16..256,
    )
        .prop_map(|(edges, units, mask)| facts_and_rules(&edges, &units, rules(mask)))
}

/// The rules of [`RULES`] whose bit is set in `mask`.
fn rules(mask: u16) -> impl Iterator<Item = &'static str> {
    RULES
        .iter()
        .enumerate()
        .filter(move |(i, _)| mask & (1 << i) != 0)
        .map(|(_, r)| *r)
}

/// `e` edges and `f` units as facts, then `rules`, one per line.
fn facts_and_rules<'r>(
    edges: &[(usize, usize)],
    units: &[usize],
    rules: impl Iterator<Item = &'r str>,
) -> String {
    let mut src = String::new();
    for (a, b) in edges {
        src.push_str(&format!("e(a{a}, a{b})\n"));
    }
    for a in units {
        src.push_str(&format!("f(a{a})\n"));
    }
    for rule in rules {
        src.push_str(rule);
        src.push('\n');
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Semi-naive and naive evaluation agree on the least model.
    #[test]
    fn seminaive_matches_naive(src in program_text()) {
        let program = Program::from_text(&src).unwrap();
        let (fast_db, fast) = program.eval();
        let (slow_db, slow) = program.fixpoint(false);
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

    /// Planner differential: the plans the cost-based planner compiles
    /// (statistics-driven literal order, lookups, probes and scans) compute
    /// exactly the model of naive rounds, once per rule in either mode,
    /// and only the semi-naive run ever skips a variant.
    #[test]
    fn cost_based_planner_matches_greedy(src in program_text()) {
        let program = Program::from_text(&src).unwrap();
        let (cost_db, cost) = program.fixpoint(true);
        let (naive_db, naive) = program.fixpoint(false);
        prop_assert_eq!(&cost_db, &naive_db, "cost vs naive on:\n{}", src);
        prop_assert_eq!(cost.plans_compiled, program.rules.len() as u64);
        prop_assert_eq!(naive.plans_compiled, cost.plans_compiled);
        // Skipped-variant accounting: naive rounds fire full plans only,
        // so they have no variant to skip and every firing is a full one.
        prop_assert_eq!(naive.variants_skipped, 0, "on:\n{}", src);
        prop_assert_eq!(naive.rule_firings, naive.full_firings, "on:\n{}", src);
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
        let (db, fast) = program.eval();
        let (db2, slow) = program.fixpoint(false);
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
    /// with plans costed against the **stale** (pre-growth) model, with
    /// plans re-costed against the **current** model, and with plans
    /// costed against **nothing** (an empty database: bound-column count
    /// then written order — what a theory that starts from rules alone
    /// runs its first commit on) must produce the identical model — equal
    /// to the from-scratch oracle — with identical firing and derivation
    /// counts. Only literal order, and with it which steps are lookups,
    /// probes or scans, may differ.
    #[test]
    fn recosted_plans_match_stale_plans(
        src in program_text(),
        extra in proptest::collection::vec((0..PARAMS, 0..PARAMS), 1..6),
    ) {
        let base = Program::from_text(&src).unwrap();
        let (model, _) = base.eval();
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
        let (oracle, _) = grown.eval();

        let (stale_db, stale_stats, _) = grown
            .grow(&plans_costed_on(&grown, &model), model.clone(), &new_facts);
        prop_assert_eq!(&stale_db, &oracle, "resume vs oracle on:\n{}", grown_src);
        // The cached-plan entry point never compiles, re-costed or not.
        prop_assert_eq!(stale_stats.plans_compiled, 0);
        for (what, stats) in [("re-costed", &oracle), ("uncosted", &Database::new())] {
            let (db, other, _) = grown
                .grow(&plans_costed_on(&grown, stats), model.clone(), &new_facts);
            prop_assert_eq!(&stale_db, &db, "stale vs {} on:\n{}", what, grown_src);
            prop_assert_eq!(stale_stats.rule_firings, other.rule_firings);
            prop_assert_eq!(stale_stats.derivations, other.derivations);
            prop_assert_eq!(other.plans_compiled, 0);
        }
    }

    /// DRed is exact: on a random retraction of edges and unit facts,
    /// `shrink` from the old least model over plans costed against it is
    /// the from-scratch least model of what is left, it runs no full plan
    /// and compiles nothing, and it re-derives no more than it
    /// over-deleted. Retracted units send over-deleted `self(a, a)` /
    /// `tag(a, c0)` tuples through `RulePlan::bind_head`'s repeated-slot
    /// and head-constant refusals.
    #[test]
    fn shrink_matches_eval(
        edges in proptest::collection::vec((0..PARAMS, 0..PARAMS), 1..10),
        units in proptest::collection::vec(0..PARAMS, 0..5),
        mask in 1u16..256,
        remove_mask in 1u16..1024,
        remove_units in 0u8..16,
    ) {
        let (full, post, removed_facts) =
            retraction(edges, units, mask, remove_mask, remove_units);
        let (model, _) = full.eval();
        let plans = plans_costed_on(&post, &model);
        let (shrunk, stats, _) = post.shrink(&plans, model, &removed_facts);
        let (oracle, _) = post.eval();
        prop_assert_eq!(&shrunk, &oracle, "DRed differs from the from-scratch model");
        prop_assert_eq!((stats.full_firings, stats.plans_compiled), (0, 0));
        prop_assert!(
            stats.tuples_rederived <= stats.tuples_overdeleted,
            "re-derived {} of {} over-deleted",
            stats.tuples_rederived,
            stats.tuples_overdeleted
        );
    }

    /// The resumed fixpoints report exactly what they changed, checked
    /// tuple by tuple with `contains`: `shrink`'s removals are the old
    /// model less the new one, and `grow`'s additions — its rounds'
    /// deltas, pairwise disjoint — the new model less the old one.
    /// `shrink` takes a random retraction; `grow` then asserts every
    /// fact of the full program again, the ones the shrunk model still
    /// holds among them.
    #[test]
    fn fixpoints_report_exactly_what_they_changed(
        edges in proptest::collection::vec((0..PARAMS, 0..PARAMS), 1..10),
        units in proptest::collection::vec(0..PARAMS, 0..5),
        mask in 1u16..256,
        remove_mask in 1u16..1024,
        remove_units in 0u8..16,
    ) {
        let (full, post, removed_facts) =
            retraction(edges, units, mask, remove_mask, remove_units);
        let (model, _) = full.eval();
        let plans = plans_costed_on(&post, &model);
        let (shrunk, _, removed) = post.shrink(&plans, model.clone(), &removed_facts);
        prop_assert_eq!(&removed, &minus(&model, &shrunk));

        let (grown, _, added) = full.grow(&plans, shrunk.clone(), &full.edb);
        prop_assert_eq!(&grown, &model);
        let reported: Database = added.iter().flat_map(Database::atoms).collect();
        prop_assert_eq!(reported.len(), added.iter().map(Database::len).sum::<usize>());
        prop_assert_eq!(&reported, &minus(&grown, &shrunk));
    }
}

/// `a ∖ b` by the definition: every atom of `a` that `b` does not contain.
fn minus(a: &Database, b: &Database) -> Database {
    a.atoms().filter(|atom| !b.contains(atom)).collect()
}

/// The plans of `program`'s rules, costed against `model`.
fn plans_costed_on(program: &Program, model: &Database) -> Vec<RulePlan> {
    program
        .rules
        .iter()
        .map(|r| RulePlan::compile(r, model))
        .collect()
}

/// A random retraction: the program over `edges`, `units` and the rules
/// `mask` picks; the same program without the edges `remove_mask` and the
/// units `remove_units` select; and those retracted facts.
fn retraction(
    edges: Vec<(usize, usize)>,
    units: Vec<usize>,
    mask: u16,
    remove_mask: u16,
    remove_units: u8,
) -> (Program, Program, Database) {
    let edges: Vec<(usize, usize)> = edges
        .into_iter()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let removed: Vec<(usize, usize)> = edges
        .iter()
        .enumerate()
        .filter(|(i, _)| remove_mask & (1 << (i % 10)) != 0)
        .map(|(_, e)| *e)
        .collect();
    let kept: Vec<(usize, usize)> = edges
        .iter()
        .filter(|e| !removed.contains(e))
        .copied()
        .collect();
    let units: Vec<usize> = units
        .into_iter()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let (removed_units, kept_units): (Vec<usize>, Vec<usize>) =
        units.iter().partition(|a| remove_units & (1 << **a) != 0);
    let full = Program::from_text(&facts_and_rules(&edges, &units, rules(mask))).unwrap();
    let post = Program::from_text(&facts_and_rules(&kept, &kept_units, rules(mask))).unwrap();
    let removed_facts =
        Program::from_text(&facts_and_rules(&removed, &removed_units, [].into_iter()))
            .unwrap()
            .edb;
    (full, post, removed_facts)
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

    let lean_big = RulePlan::compile(&rule, &small_heavy).explain();
    let lean_small = RulePlan::compile(&rule, &big_heavy).explain();
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
