//! Property suite for the provenance subsystem: on randomized programs,
//! tracking must be invisible (identical models, identical pre-existing
//! counters), every reconstructed proof tree must replay, and the
//! support-accelerated DRed deletion must agree exactly with the
//! probe-only seed path while strictly saving re-derivation probes.

use epilog::core::EpistemicDb;
use epilog::datalog::provenance::params_of;
use epilog::datalog::{EvalStats, Program, RulePlan, SupportTable};
use epilog::syntax::parse;
use proptest::prelude::*;
use std::collections::BTreeSet;

const PARAMS: usize = 4;

/// The stratified rule pool of the datalog differential suite.
const RULES: [&str; 10] = [
    "forall x, y. e(x, y) -> reach(x, y)",
    "forall x, y, z. e(x, y) & reach(y, z) -> reach(x, z)",
    "forall x. f(x) -> q(x)",
    "forall x, y. e(x, y) & f(x) -> q(y)",
    "forall x, y. e(x, y) & ~reach(y, x) -> oneway(x, y)",
    "forall x. f(x) & ~q(x) -> isolated(x)",
    "forall x, y. reach(x, y) & e(x, y) -> direct(x, y)",
    "forall x, y, z. e(x, y) & e(y, z) & e(x, z) -> tri(x, y, z)",
    "forall x. f(x) -> self(x, x)",
    "forall x. f(x) -> tag(x, c0)",
];

/// Negation-free subset: definite programs, where the least model's
/// every tuple must afford a proof tree.
const DEFINITE: [usize; 8] = [0, 1, 2, 3, 6, 7, 8, 9];

fn facts_and_rules(
    edges: &[(usize, usize)],
    units: &[usize],
    rules: impl Iterator<Item = &'static str>,
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

fn program_text() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((0..PARAMS, 0..PARAMS), 0..10),
        proptest::collection::vec(0..PARAMS, 0..5),
        1u16..1024,
    )
        .prop_map(|(edges, units, mask)| {
            let rules = RULES
                .iter()
                .enumerate()
                .filter(move |(i, _)| mask & (1 << i) != 0)
                .map(|(_, r)| *r);
            facts_and_rules(&edges, &units, rules)
        })
}

fn definite_program_text() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((0..PARAMS, 0..PARAMS), 0..10),
        proptest::collection::vec(0..PARAMS, 0..5),
        1u16..256,
    )
        .prop_map(|(edges, units, mask)| {
            let rules = DEFINITE
                .iter()
                .enumerate()
                .filter(move |(i, _)| mask & (1 << i) != 0)
                .map(|(_, r)| RULES[*r]);
            facts_and_rules(&edges, &units, rules)
        })
}

/// Everything except the counters only the traced paths move.
fn scrub(mut s: EvalStats) -> EvalStats {
    s.supports_recorded = 0;
    s.support_hits = 0;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tracking is invisible: the traced fixpoint computes the identical
    /// model with identical pre-existing counters (stratified negation
    /// included), and the untraced run reports zero support activity.
    #[test]
    fn tracing_is_invisible(src in program_text()) {
        let program = Program::from_text(&src).unwrap();
        let (plain_db, plain) = program.eval().unwrap();
        let mut table = SupportTable::new();
        let (traced_db, traced) = program
            .fixpoint(true, Some(&mut table))
            .unwrap();
        prop_assert_eq!(&traced_db, &plain_db, "tracing changed the model on:\n{}", src);
        prop_assert_eq!(scrub(traced), scrub(plain), "on:\n{}", src);
        prop_assert_eq!(plain.supports_recorded, 0);
        prop_assert_eq!(plain.support_hits, 0);
    }

    /// Every tuple of a definite least model has a proof tree, every
    /// proof replays (each node's rule actually fires over exactly the
    /// node's premises; every leaf is extensional), and the tree proves
    /// the atom asked about.
    #[test]
    fn every_proof_replays(src in definite_program_text()) {
        let program = Program::from_text(&src).unwrap();
        let mut table = SupportTable::new();
        let (model, _) = program
            .fixpoint(true, Some(&mut table))
            .unwrap();
        prop_assert!(table.consistent_with(&model, program.rules.len()));
        for atom in model.atoms() {
            let tuple = params_of(&atom).expect("model atoms are ground");
            let proof = table.why(&program.edb, atom.pred, &tuple);
            let Some(proof) = proof else {
                return Err(TestCaseError::fail(format!(
                    "no proof for {atom} on:\n{src}"
                )));
            };
            prop_assert_eq!(proof.atom(), &atom, "proved the wrong atom on:\n{}", src);
            prop_assert!(proof.replays(&program), "{} does not replay on:\n{}", atom, src);
        }
        // Absent tuples have no proof (why-not).
        let ghost = parse("reach(a0, nowhere)").unwrap();
        if let epilog::syntax::Formula::Atom(g) = ghost {
            let t = params_of(&g).unwrap();
            prop_assert!(table.why(&program.edb, g.pred, &t).is_none());
        }
    }

    /// Support-accelerated DRed is a pure performance knob: on a random
    /// retraction it produces the identical final model with identical
    /// `tuples_rederived`, never runs *more* re-derivation probes than
    /// the probe-only path, and leaves the table holding exactly the
    /// surviving model's supports. Unit facts are retracted as well as
    /// edges, so over-deleted `self(a, a)` / `tag(a, c0)` tuples reach
    /// `RulePlan::bind_head` through a repeated slot and a head constant.
    #[test]
    fn dred_with_supports_matches_without(
        edges in proptest::collection::vec((0..PARAMS, 0..PARAMS), 1..10),
        units in proptest::collection::vec(0..PARAMS, 0..5),
        mask in 1u16..256,
        remove_mask in 1u16..1024,
        remove_units in 0u8..16,
    ) {
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
        let units: Vec<usize> = units.into_iter().collect::<BTreeSet<_>>().into_iter().collect();
        let (removed_units, kept_units): (Vec<usize>, Vec<usize>) =
            units.iter().partition(|a| remove_units & (1 << **a) != 0);
        let rules = || {
            DEFINITE
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, r)| RULES[*r])
        };
        let full = Program::from_text(&facts_and_rules(&edges, &units, rules())).unwrap();
        let post = Program::from_text(&facts_and_rules(&kept, &kept_units, rules())).unwrap();
        let removed_facts =
            Program::from_text(&facts_and_rules(&removed, &removed_units, [].into_iter()))
                .unwrap()
                .edb;

        let mut table = SupportTable::new();
        let (model, _) = full.fixpoint(true, Some(&mut table)).unwrap();
        let plans: Vec<RulePlan> = post
            .rules
            .iter()
            .map(|r| RulePlan::compile(r, &model))
            .collect();

        let (plain_db, plain) = post
            .shrink(&plans, model.clone(), &removed_facts, None)
            .unwrap();
        let (traced_db, traced) = post
            .shrink(&plans, model, &removed_facts, Some(&mut table))
            .unwrap();
        let (oracle, _) = post.eval().unwrap();

        prop_assert_eq!(&traced_db, &plain_db, "supports changed the DRed result");
        prop_assert_eq!(&traced_db, &oracle, "DRed differs from the from-scratch oracle");
        prop_assert_eq!(traced.tuples_rederived, plain.tuples_rederived);
        // A hit stands in for every probe its tuple would have cost: one
        // per rule tried up to the one that re-derives it, so at least one.
        prop_assert!(
            traced.support_hits + traced.support_checks <= plain.support_checks,
            "supports ran MORE probes: {} hits + {} > {}",
            traced.support_hits,
            traced.support_checks,
            plain.support_checks
        );
        prop_assert_eq!(
            traced.support_hits == 0,
            traced.support_checks == plain.support_checks,
            "probes are saved exactly when a support hits"
        );
        prop_assert!(
            table.consistent_with(&traced_db, post.rules.len()),
            "table left inconsistent with the surviving model"
        );
        prop_assert_eq!(plain.support_hits, 0, "untraced path cannot hit supports");
    }

    /// End-to-end: a random commit/retract stream over `EpistemicDb`
    /// with provenance on equals the same stream with provenance off —
    /// same models, same accepted/rejected pattern — and after every
    /// commit each model tuple still affords a replayable proof.
    #[test]
    fn provenance_db_stream_matches_untracked(
        batches in proptest::collection::vec(
            (proptest::collection::vec((0..PARAMS, 0..PARAMS), 1..4), 0..2usize),
            1..5,
        ),
    ) {
        let base = "e(a0, a1)\n\
                    forall x, y. e(x, y) -> reach(x, y)\n\
                    forall x, y, z. e(x, y) & reach(y, z) -> reach(x, z)";
        let mut traced = EpistemicDb::from_text(base).unwrap();
        let mut plain = EpistemicDb::from_text(base).unwrap();
        prop_assert!(traced.enable_provenance());
        for (batch, kind) in &batches {
            let retract = *kind == 1;
            for db in [&mut traced, &mut plain] {
                let mut txn = db.transaction();
                for (a, b) in batch {
                    let w = parse(&format!("e(a{a}, a{b})")).unwrap();
                    txn = if retract { txn.retract(w) } else { txn.assert(w) };
                }
                let _ = txn.commit().unwrap();
            }
            prop_assert_eq!(
                traced.prover().atom_model(),
                plain.prover().atom_model(),
                "tracked and untracked streams diverged"
            );
            let model = traced.prover().atom_model().expect("definite theory");
            let prog = epilog::core::definite_program(traced.theory()).unwrap();
            prop_assert!(traced
                .support_table()
                .expect("provenance stays on across ground commits")
                .consistent_with(model, prog.rules.len()));
            for atom in model.atoms() {
                let proof = traced.why(&atom);
                let Some(proof) = proof else {
                    return Err(TestCaseError::fail(format!("no proof for {atom}")));
                };
                prop_assert!(proof.replays(&prog), "{} does not replay", atom);
            }
        }
    }
}
