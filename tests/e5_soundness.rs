//! E5 — Theorem 5.1 (soundness of `demo`), property-tested against the
//! brute-force semantic oracle.
//!
//! For random small databases `Σ` and random admissible queries `w`:
//!
//! 1. if `demo(w, Σ)` succeeds with bindings `p̄`, then `Σ ⊨ w|p̄`
//!    according to the oracle (enumerating *all* models of `Σ`);
//! 2. if `demo(w, Σ)` finitely fails, then no parameter tuple is an
//!    answer.
//!
//! The oracle evaluates over the theory's parameters plus one spare
//! parameter (standing in for the infinitely many unmentioned
//! individuals), keeping the bounded-universe approximation aligned with
//! the prover's witness semantics at quantifier depth ≤ 1 — which is all
//! the generated queries use.

use epilog::core::ask::certain;
use epilog::core::{demo, demo_sentence, DemoOutcome};
use epilog::prelude::*;
use epilog::semantics::ModelSet;
use epilog::syntax::Pred;
use proptest::prelude::*;

const PARAMS: [&str; 3] = ["a", "b", "c"];

fn preds() -> Vec<Pred> {
    vec![Pred::new("p", 1), Pred::new("q", 1), Pred::new("r", 0)]
}

/// A random database sentence, elementary by construction.
fn sentence_strategy() -> impl Strategy<Value = String> {
    let atom = (0..2usize, 0..PARAMS.len())
        .prop_map(|(pr, pa)| format!("{}({})", ["p", "q"][pr], PARAMS[pa]));
    prop_oneof![
        atom.clone(),
        Just("r".to_string()),
        (atom.clone(), atom.clone()).prop_map(|(a, b)| format!("{a} | {b}")),
        (0..2usize).prop_map(|pr| format!("exists x. {}(x)", ["p", "q"][pr])),
        (0..2usize, 0..2usize).prop_map(|(f, t)| format!(
            "forall x. {}(x) -> {}(x)",
            ["p", "q"][f],
            ["p", "q"][t]
        )),
    ]
}

fn theory_strategy() -> impl Strategy<Value = Theory> {
    proptest::collection::vec(sentence_strategy(), 0..5).prop_filter_map(
        "theory must be satisfiable for Theorem 5.1",
        |sentences| {
            let t = Theory::from_text(&sentences.join("\n")).ok()?;
            // Elementary theories are always satisfiable (Lemma 6.2), so
            // this filter is vacuous here, but keep the check explicit.
            Some(t)
        },
    )
}

/// A random admissible query. Shapes, all admissible by construction:
/// `L₁ ∧ … ∧ Lₙ` (normal queries, left conjunct first-order positive), a
/// subjective existential, a negated subjective sentence, `K` of a
/// first-order sentence.
fn query_strategy() -> impl Strategy<Value = String> {
    let pred = |i: usize| ["p", "q"][i];
    prop_oneof![
        // Normal query: p(x) [& K q(x)] [& ~K p(x)]
        (
            0..2usize,
            proptest::option::of(0..2usize),
            proptest::option::of(0..2usize)
        )
            .prop_map(move |(first, klit, nk)| {
                let mut s = format!("{}(x)", pred(first));
                if let Some(k) = klit {
                    s.push_str(&format!(" & K {}(x)", pred(k)));
                }
                if let Some(n) = nk {
                    s.push_str(&format!(" & ~K {}(x)", pred(n)));
                }
                s
            }),
        // Ground normal query.
        (0..2usize, 0..PARAMS.len(), 0..2usize, 0..PARAMS.len()).prop_map(
            move |(p1, a1, p2, a2)| format!(
                "K {}({}) & ~K {}({})",
                pred(p1),
                PARAMS[a1],
                pred(p2),
                PARAMS[a2]
            )
        ),
        // Subjective existential.
        (0..2usize).prop_map(move |p1| format!("exists x. K {}(x)", pred(p1))),
        // K over a first-order sentence.
        (0..2usize).prop_map(move |p1| format!("K (exists x. {}(x))", pred(p1))),
        (0..2usize, 0..PARAMS.len(), 0..2usize, 0..PARAMS.len()).prop_map(
            move |(p1, a1, p2, a2)| format!(
                "K ({}({}) | {}({}))",
                pred(p1),
                PARAMS[a1],
                pred(p2),
                PARAMS[a2]
            )
        ),
        // Negated subjective sentence.
        (0..2usize).prop_map(move |p1| format!("~(exists x. K {}(x))", pred(p1))),
        // First-order query with negation (clause 1 handles any shape).
        (0..2usize, 0..2usize).prop_map(move |(p1, p2)| format!(
            "{}(x) & ~{}(x)",
            pred(p1),
            pred(p2)
        )),
    ]
}

fn oracle_for(theory: &Theory) -> ModelSet {
    let mut universe: Vec<Param> = PARAMS.iter().map(|n| Param::new(n)).collect();
    universe.push(Param::new("spare"));
    ModelSet::models(theory, &universe, &preds())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 5.1(1): every binding demo returns is a certain answer.
    #[test]
    fn demo_success_implies_certain(t in theory_strategy(), q in query_strategy()) {
        let w = parse(&q).unwrap();
        prop_assume!(is_admissible(&w));
        let prover = Prover::new(t.clone());
        let oracle = oracle_for(&t);
        let answers: Vec<_> = demo(&prover, &w).unwrap().take(32).collect();
        for tuple in &answers {
            let bound = w.bind_free(tuple);
            prop_assert!(
                oracle.certain(&bound),
                "demo returned {tuple:?} for `{q}` over\n{t}\nbut the oracle rejects it"
            );
        }
    }

    /// Theorem 5.1(2): finite failure means no tuple is an answer.
    #[test]
    fn demo_failure_implies_no_answers(t in theory_strategy(), q in query_strategy()) {
        let w = parse(&q).unwrap();
        prop_assume!(is_admissible(&w));
        let prover = Prover::new(t.clone());
        let failed = demo(&prover, &w).unwrap().next().is_none();
        if failed {
            let oracle = oracle_for(&t);
            let oracle_answers = oracle.answers(&w);
            prop_assert!(
                oracle_answers.is_empty(),
                "demo finitely failed on `{q}` over\n{t}\nbut the oracle finds {oracle_answers:?}"
            );
        }
    }

    /// Sentence queries: demo's success/failure matches certainty, and on
    /// subjective sentences failure implies the negation is certain
    /// (Lemma 5.2).
    #[test]
    fn demo_sentence_outcomes(t in theory_strategy(), q in query_strategy()) {
        let w = parse(&q).unwrap();
        prop_assume!(w.is_sentence());
        prop_assume!(is_admissible(&w));
        let prover = Prover::new(t.clone());
        let oracle = oracle_for(&t);
        let outcome = demo_sentence(&prover, &w).unwrap();
        match outcome {
            DemoOutcome::Succeeds => prop_assert!(oracle.certain(&w)),
            DemoOutcome::FinitelyFails => {
                prop_assert!(!oracle.certain(&w));
                if epilog::syntax::is_subjective(&w) {
                    prop_assert!(oracle.certain(&Formula::not(w.clone())));
                }
            }
        }
    }

    /// The `ask` reducer agrees with the oracle on all generated queries
    /// (sentences), admissible or not.
    #[test]
    fn ask_matches_oracle(t in theory_strategy(), q in query_strategy()) {
        let w = parse(&q).unwrap();
        prop_assume!(w.is_sentence());
        let db = EpistemicDb::new(t.clone());
        let oracle = oracle_for(&t);
        prop_assert_eq!(
            db.ask(&w),
            oracle.answer(&w),
            "ask vs oracle on `{}` over\n{}", q, t
        );
        // `ask` reduces the query once for both questions; reducing it
        // per question, as Definition 2.1 reads, answers the same.
        let two_passes = Answer::from_entailments(
            certain(db.prover(), &w),
            certain(db.prover(), &Formula::not(w.clone())),
        );
        prop_assert_eq!(db.ask(&w), two_passes, "`{}` over\n{}", q, t);
    }
}
