//! E6 — Section 6: completeness of `demo` on elementary databases.
//!
//! * Lemma 6.2 — every elementary theory has a canonical model over its
//!   own parameters (`epilog_semantics::canonical_model`).
//! * Lemma 6.3 / Theorem 6.2 — for elementary `Σ` with finitely many
//!   parameters and positive existential queries with disjunctively
//!   linked variables, `demo` terminates, and is sound *and complete*:
//!   property-tested against the oracle for set equality of answers.
//! * §6.1.1 — iterating `demo` through failure recovers all answers.

use epilog::core::ask::certain;
use epilog::core::{all_answers, ask, demo};
use epilog::prelude::*;
use epilog::semantics::ModelSet;
use epilog::semantics::{
    canonical_model, disjunctively_linked, is_elementary, is_positive_existential,
};
use epilog::syntax::Pred;
use proptest::prelude::*;

const PARAMS: [&str; 3] = ["a", "b", "c"];

fn elementary_theory() -> impl Strategy<Value = Theory> {
    let atom = (0..2usize, 0..PARAMS.len())
        .prop_map(|(pr, pa)| format!("{}({})", ["p", "q"][pr], PARAMS[pa]));
    let sentence = prop_oneof![
        atom.clone(),
        (atom.clone(), atom.clone()).prop_map(|(a, b)| format!("{a} | {b}")),
        (0..2usize).prop_map(|pr| format!("exists x. {}(x)", ["p", "q"][pr])),
        (0..2usize, 0..2usize).prop_map(|(f, t)| format!(
            "forall x. {}(x) -> {}(x)",
            ["p", "q"][f],
            ["p", "q"][t]
        )),
        (atom.clone(), atom.clone()).prop_map(|(a, b)| format!("{a} & {b}")),
    ];
    proptest::collection::vec(sentence, 1..5)
        .prop_map(|ss| Theory::from_text(&ss.join("\n")).unwrap())
}

/// Positive existential queries with disjunctively linked variables.
fn pe_linked_query() -> impl Strategy<Value = String> {
    let pred = |i: usize| ["p", "q"][i];
    prop_oneof![
        (0..2usize).prop_map(move |p1| format!("{}(x)", pred(p1))),
        (0..2usize, 0..2usize).prop_map(move |(p1, p2)| format!(
            "{}(x) & {}(x)",
            pred(p1),
            pred(p2)
        )),
        (0..2usize, 0..2usize).prop_map(move |(p1, p2)| format!(
            "{}(x) | {}(x)",
            pred(p1),
            pred(p2)
        )),
        (0..2usize, 0..2usize).prop_map(move |(p1, p2)| format!(
            "{}(x) & (exists y. {}(y))",
            pred(p1),
            pred(p2)
        )),
        (0..2usize, 0..PARAMS.len()).prop_map(move |(p1, pa)| format!(
            "{}({})",
            pred(p1),
            PARAMS[pa]
        )),
    ]
}

fn oracle_for(theory: &Theory) -> ModelSet {
    let mut universe: Vec<Param> = PARAMS.iter().map(|n| Param::new(n)).collect();
    universe.push(Param::new("spare"));
    ModelSet::models(theory, &universe, &[Pred::new("p", 1), Pred::new("q", 1)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 6.2: demo is sound and complete for p.e. queries with
    /// disjunctively linked variables over elementary theories — the
    /// answer sets match the oracle exactly.
    #[test]
    fn theorem_62_sound_and_complete(t in elementary_theory(), q in pe_linked_query()) {
        let w = parse(&q).unwrap();
        prop_assert!(is_positive_existential(&w));
        prop_assert!(disjunctively_linked(&w));
        prop_assert!(is_elementary(&t));

        let prover = Prover::new(t.clone());
        let mut got = all_answers(&prover, &w).unwrap();
        let mut expect: Vec<Vec<Param>> = oracle_for(&t)
            .answers(&w)
            .into_iter()
            // The oracle ranges over the spare parameter too; a spare is
            // never an answer (nothing constrains it), so this filter is
            // a no-op kept for clarity.
            .filter(|tuple| tuple.iter().all(|p| p.name() != "spare"))
            .collect();
        got.sort();
        expect.sort();
        prop_assert_eq!(
            got, expect,
            "answer sets differ for `{}` over\n{}", q, t
        );
        // The query quantified into `K`, as a sentence for `ask`: one
        // reduction put to both entailment questions answers what a
        // reduction per question does.
        let known = w
            .free_vars()
            .into_iter()
            .fold(Formula::know(w.clone()), |body, x| Formula::exists(x, body));
        let two_passes = Answer::from_entailments(
            certain(&prover, &known),
            certain(&prover, &Formula::not(known.clone())),
        );
        prop_assert_eq!(ask(&prover, &known), two_passes, "`{}` over\n{}", known, t);
    }

    /// Lemma 6.2: the canonical model exists, mentions only Σ's
    /// parameters, and satisfies Σ.
    #[test]
    fn lemma_62_canonical_model(t in elementary_theory()) {
        let m = canonical_model(&t).expect("elementary theory");
        // Lemma 6.2 assumes wlog that Σ mentions a parameter; the
        // implementation's designated fallback witness `c0` covers the
        // parameterless case.
        let mut universe = t.active_domain();
        if universe.is_empty() {
            universe.push(Param::new("c0"));
        }
        for p in m.params() {
            prop_assert!(!p.is_fresh());
            prop_assert!(universe.contains(&p));
        }
        for s in t.sentences() {
            prop_assert!(
                epilog::semantics::holds_in_world(s, &m, &universe),
                "S(Σ) fails `{}` of\n{}", s, t
            );
        }
    }

    /// Lemma 6.3: Instances(w, Σ) is finite and demo terminates — demo's
    /// stream is exhausted within the finite candidate space.
    #[test]
    fn lemma_63_finite_instances(t in elementary_theory(), q in pe_linked_query()) {
        let w = parse(&q).unwrap();
        let prover = Prover::new(t);
        let n_candidates = prover.answer_domain(&w).len().pow(w.free_vars().len() as u32);
        let collected: Vec<_> = demo(&prover, &w).unwrap().collect();
        prop_assert!(collected.len() <= n_candidates.max(1));
    }
}

#[test]
fn all_answers_iteration_611() {
    // The §6.1.1 mechanism: continuing the iteration after each success
    // recovers every answer (possibly with repetitions — a disjunctive
    // fact can re-derive the same tuple).
    let t = Theory::from_text(
        "p(a)
         p(b)
         q(b)
         q(c) | p(c)
         forall x. q(x) -> p(x)",
    )
    .unwrap();
    let prover = Prover::new(t);
    let q = parse("p(x)").unwrap();
    let answers = all_answers(&prover, &q).unwrap();
    let names: Vec<String> = answers.iter().map(|t| t[0].name()).collect();
    // a, b certain; c certain too: q(c) ∨ p(c) and q(x) ⊃ p(x) force p(c).
    assert_eq!(names, vec!["a", "b", "c"]);
    // The known instances are the same three.
    let known = all_answers(&prover, &parse("K p(x)").unwrap()).unwrap();
    assert_eq!(known, answers);
}

#[test]
fn demo_terminates_on_recursive_rules() {
    let t = Theory::from_text(
        "e(a, b)
         e(b, c)
         forall x, y. e(x, y) -> t(x, y)
         forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
    )
    .unwrap();
    let prover = Prover::new(t);
    let answers = all_answers(&prover, &parse("t(x, y)").unwrap()).unwrap();
    assert_eq!(answers.len(), 3); // (a,b), (b,c), (a,c)
}

#[test]
fn disjunctive_database_certain_answers() {
    // Certain answers over a disjunctive elementary DB: the classic
    // example where the canonical model alone would over-answer, but
    // entailment-based demo answers exactly.
    let t = Theory::from_text("p(a) | p(b)\np(c)").unwrap();
    let prover = Prover::new(t.clone());
    let answers = all_answers(&prover, &parse("p(x)").unwrap()).unwrap();
    assert_eq!(answers.len(), 1, "only p(c) is certain");
    assert_eq!(answers[0][0].name(), "c");
    // The canonical model S(Σ) contains both disjuncts — it is a model,
    // not the certain-answer set.
    let m = canonical_model(&t).unwrap();
    assert_eq!(m.len(), 3);
}
