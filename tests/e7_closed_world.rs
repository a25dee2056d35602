//! E7 — Section 7: the closed-world assumption.
//!
//! Theorem 7.1 (collapse of K), Example 7.1, Example 7.2 (circumscription
//! and GCWA do not collapse K), Theorem 7.2 (classical IC definitions
//! coincide under CWA), Theorem 7.3 / Example 7.3 (CWA evaluation via
//! `demo(ℛ(w))`), and the relational-database special case.

use epilog::core::demo;
use epilog::prelude::*;
use epilog::semantics::closure::{closure_theory, cwa_demo};
use epilog::semantics::{consistent_with, gcwa_negations, minimal_worlds, ModelSet};
use epilog::semantics::{is_k1, modalize, strip_k};
use epilog::syntax::Pred;
use proptest::prelude::*;

#[test]
fn theorem_71_k_collapse_systematically() {
    let db = EpistemicDb::from_text("p(a)\nq(a)\nq(b)").unwrap();
    let closed = ClosedDb::new(db.prover());
    assert!(closed.satisfiable());
    for q in [
        "K p(a)",
        "K p(b)",
        "K ~p(b)",
        "exists x. K p(x)",
        "forall x. K q(x) | K ~q(x)",
        "K (p(a) & q(b))",
        "K K p(a)",
        "~K p(b)",
    ] {
        let w = parse(q).unwrap();
        assert_eq!(
            closed.ask(&w),
            closed.ask(&strip_k(&w)),
            "Theorem 7.1 on {q}"
        );
    }
}

#[test]
fn example_71_closed_db_knows_whether() {
    // (∀x)(Kp(x) ∨ K¬p(x)) reduces to the valid (∀x)(p(x) ∨ ¬p(x)).
    let db = EpistemicDb::from_text("p(a)").unwrap();
    let q = parse("forall x. K p(x) | K ~p(x)").unwrap();
    assert_eq!(ClosedDb::new(db.prover()).ask(&q), Answer::Yes);
    // The open database does not know whether p(b):
    assert_eq!(db.ask(&q), Answer::No);
}

#[test]
fn example_72_circumscription_and_gcwa() {
    let theory = Theory::from_text("p | q").unwrap();
    let preds = vec![Pred::new("p", 0), Pred::new("q", 0)];
    let ms = ModelSet::models(&theory, &[Param::new("c")], &preds);
    let circ = minimal_worlds(&ms);
    // Circ(Σ) = (p ∧ ¬q) ∨ (¬p ∧ q): two minimal models.
    assert_eq!(circ.worlds().len(), 2);
    // Circ(Σ) ⊨ ¬Kp but Circ(Σ) ⊭_FOPCE ¬p.
    assert!(circ.certain(&parse("~K p").unwrap()));
    assert!(!circ.certain(&parse("~p").unwrap()));
    // The GCWA adds no negations here — the K distinction survives.
    let base = epilog::semantics::oracle::herbrand_base(&[], &preds);
    assert!(gcwa_negations(&ms, &base).is_empty());
    // Contrast: Reiter's Closure of the same Σ is unsatisfiable.
    let db = EpistemicDb::from_text("p | q").unwrap();
    assert!(!ClosedDb::new(db.prover()).satisfiable());
}

#[test]
fn theorem_72_definitions_coincide() {
    // For databases with satisfiable closures, Comp-style consistency and
    // entailment readings of first-order ICs coincide.
    let dbs = ["p(a)\nq(a)", "emp(Mary)\nss(Mary, n1)", "e(a, b)\ne(b, c)"];
    let ics = [
        "forall x. p(x) -> q(x)",
        "forall x. emp(x) -> exists y. ss(x, y)",
        "forall x, y. e(x, y) -> x != y",
    ];
    for (src, ic_src) in dbs.iter().zip(ics) {
        let prover = Prover::new(Theory::from_text(src).unwrap());
        let closure = closure_theory(&prover);
        let cp = Prover::new(closure);
        assert!(cp.satisfiable(), "closure of {src:?}");
        let ic = parse(ic_src).unwrap();
        assert_eq!(
            cp.entails(&ic),
            consistent_with(&cp, &ic),
            "Theorem 7.2 on {src:?} / {ic_src}"
        );
    }
}

#[test]
fn example_73_both_paths() {
    // Example 7.3's query under CWA, via (1) demo(ℛ(w), Σ) and (2) the
    // materialized closure, plus (3) the KFOPCE query with K already in
    // place (second part of the example: Theorem 7.1 reduces it to the
    // same evaluation).
    let db = EpistemicDb::from_text("q(a)\nq(b)\nr(a, b)").unwrap();
    let w = parse("q(x) & ~(exists y. r(x, y) & q(y))").unwrap();

    let via_demo: Vec<String> = cwa_demo(db.prover(), &w)
        .unwrap()
        .map(|t| t[0].name())
        .collect();
    assert_eq!(via_demo, vec!["b".to_string()]);

    let via_closure: Vec<String> = ClosedDb::new(db.prover())
        .answers(&w)
        .iter()
        .map(|t| t[0].name())
        .collect();
    assert_eq!(via_demo, via_closure);

    // The already-epistemic variant Kq(x) ∧ ¬∃y(Kr(x,y) ∧ Kq(y)) — by
    // Theorem 7.1 it is equivalent under CWA to the plain w.
    let epi = parse("K q(x) & ~(exists y. K r(x, y) & K q(y))").unwrap();
    let via_epi: Vec<String> = ClosedDb::new(db.prover())
        .answers(&epi)
        .iter()
        .map(|t| t[0].name())
        .collect();
    assert_eq!(via_epi, via_closure);
}

#[test]
fn relational_database_as_model() {
    // §7's relational special case: a ground-atomic DB's closure has the
    // DB itself as unique model, and IC satisfaction = truth in the model.
    let db =
        EpistemicDb::from_text("Emp(Mary, Sales)\nEmp(Sue, Eng)\nMgr(Sales, Ann)\nMgr(Eng, Bob)")
            .unwrap();
    let closed = ClosedDb::new(db.prover());
    assert!(closed.satisfiable());
    assert_eq!(
        closed.world().len(),
        4,
        "the unique model is the instance itself"
    );
    let ic = parse("forall x, y. Emp(x, y) -> exists z. Mgr(y, z)").unwrap();
    assert_eq!(closed.ask(&ic), Answer::Yes);
    let bad_ic = parse("forall x, y. Emp(x, y) -> Mgr(y, Mary)").unwrap();
    assert_eq!(closed.ask(&bad_ic), Answer::No);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 7.3 property test: on random definite databases and random
    /// conjunctive queries with one negated subgoal, demo(ℛ(w)) agrees
    /// with evaluation against the materialized closure.
    #[test]
    fn theorem_73_demo_matches_closure(
        facts in proptest::collection::vec((0..2usize, 0..3usize), 1..6),
        qp in 0..2usize,
        np in 0..2usize,
    ) {
        let params = ["a", "b", "c"];
        let preds = ["p", "q"];
        let src: Vec<String> = facts
            .iter()
            .map(|(pr, pa)| format!("{}({})", preds[*pr], params[*pa]))
            .collect();
        let db = EpistemicDb::from_text(&src.join("\n")).unwrap();
        let w = parse(&format!("{}(x) & ~{}(x)", preds[qp], preds[np])).unwrap();

        let mut via_demo: Vec<String> = cwa_demo(db.prover(), &w)
            .unwrap()
            .map(|t| t[0].name())
            .collect();
        via_demo.sort();
        via_demo.dedup();
        let mut via_closure: Vec<String> =
            ClosedDb::new(db.prover()).answers(&w).iter().map(|t| t[0].name()).collect();
        via_closure.sort();
        prop_assert_eq!(via_demo, via_closure, "on {:?} with query {}", src, w);
    }

    /// ℛ(w) is always subjective K₁ (Remark 7.1) and, for the query
    /// shapes of this family, admissible after renaming apart.
    #[test]
    fn remark_71_modalize_shape(qp in 0..2usize, np in 0..2usize) {
        let preds = ["p", "q"];
        let w = parse(&format!(
            "{}(x) & ~(exists y. {}(x) & {}(y))",
            preds[qp], preds[np], preds[qp]
        ))
        .unwrap();
        let m = modalize(&w).rename_apart();
        prop_assert!(epilog::syntax::is_subjective(&m));
        prop_assert!(is_k1(&m));
        let prover = Prover::new(Theory::from_text("p(a)").unwrap());
        prop_assert!(demo(&prover, &m).is_ok(), "ℛ(w) admissible: {}", m);
    }
}
