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
//!
//! `demo` runs its clauses as compiled steps, answering from the least
//! model where the prover carries one. [`clauses`] transliterates the five
//! clauses as an interpreter instead, every first-order subformula going
//! to `prove`; the two must give the same answers in the same order, with
//! the same repetitions, on the generators above widened with a binary
//! predicate and two-variable conjunctions. The reference shares no
//! model-reading code with `demo`: `prove` enumerates an open atom from
//! the candidates of the model kept with `Σ`'s grounding, never from the
//! least model. What `demo` reads off the least model for an open atom is
//! checked against the domain walk itself.

use epilog::core::ask::certain;
use epilog::core::{demo, demo_sentence, DemoOutcome};
use epilog::prelude::*;
use epilog::prover::answers::domain_walk;
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

/// `demo`'s five clauses, transliterated: the success/fail/redo protocol
/// as a lazy iterator of binding environments, backtracking as iterator
/// composition, every first-order subformula put to `prove` with the
/// bindings made so far substituted.
mod clauses {
    use epilog::prelude::*;
    use epilog::prover::AnswerIter;
    use epilog::syntax::{is_first_order, transform};
    use std::collections::HashMap;

    type Env = HashMap<Var, Param>;

    /// The answers of `demo(w, Σ)`, aligned with `w.free_vars()`.
    pub fn demo<'a>(prover: &'a Prover, w: &Formula) -> impl Iterator<Item = Vec<Param>> + 'a {
        let vars = w.free_vars();
        stream(prover, kernel_modal(w), Env::new())
            .map(move |env| vars.iter().map(|v| env[v]).collect())
    }

    /// Expand `∨ ⊃ ≡ ∀` in modal positions, leaving first-order subtrees
    /// whole.
    fn kernel_modal(w: &Formula) -> Formula {
        if is_first_order(w) {
            return w.clone();
        }
        match w {
            Formula::Not(a) => Formula::not(kernel_modal(a)),
            Formula::Know(a) => Formula::know(kernel_modal(a)),
            Formula::And(a, b) => Formula::and(kernel_modal(a), kernel_modal(b)),
            Formula::Exists(x, a) => Formula::exists(*x, kernel_modal(a)),
            _ => kernel_modal(&transform::kernel_top(w)),
        }
    }

    fn stream<'a>(prover: &'a Prover, w: Formula, env: Env) -> Box<dyn Iterator<Item = Env> + 'a> {
        // demo(f, Σ) ← first-order(f), prove(f, Σ).
        if is_first_order(&w) {
            let map = env.iter().map(|(v, p)| (*v, Term::Param(*p))).collect();
            let bound = w.subst(&map);
            let free = bound.free_vars();
            return Box::new(AnswerIter::new(prover, &bound).map(move |tuple| {
                let mut env = env.clone();
                env.extend(free.iter().copied().zip(tuple));
                env
            }));
        }
        match w {
            // demo(¬w, Σ) ← modal(w), not demo(w, Σ).
            Formula::Not(inner) => {
                if stream(prover, *inner, env.clone()).next().is_none() {
                    Box::new(std::iter::once(env))
                } else {
                    Box::new(std::iter::empty())
                }
            }
            // demo(Kw, Σ) ← demo(w, Σ).
            // demo((∃x)w, Σ) ← modal(w), demo(w, Σ).
            Formula::Know(inner) | Formula::Exists(_, inner) => stream(prover, *inner, env),
            // demo(w₁ ∧ w₂, Σ) ← modal(w₁ ∧ w₂), demo(w₁, Σ), demo(w₂, Σ).
            Formula::And(a, b) => {
                let b = *b;
                Box::new(
                    stream(prover, *a, env).flat_map(move |env| stream(prover, b.clone(), env)),
                )
            }
            other => unreachable!("admissible kernel form has no `{other}`"),
        }
    }
}

/// The database sentences, plus facts and a rule over the binary `e`.
fn wide_theory_strategy() -> impl Strategy<Value = Theory> {
    let edge = (0..PARAMS.len(), 0..PARAMS.len())
        .prop_map(|(a, b)| format!("e({}, {})", PARAMS[a], PARAMS[b]));
    let sentence = prop_oneof![
        2 => sentence_strategy(),
        3 => edge,
        1 => (0..2usize).prop_map(|i| format!("forall x, y. e(x, y) -> {}(y)", ["p", "q"][i])),
        1 => Just("forall x, y. e(x, y) -> e(y, x)".to_string()),
    ];
    proptest::collection::vec(sentence, 0..7)
        .prop_map(|sentences| Theory::from_text(&sentences.join("\n")).unwrap())
}

/// A definite database: facts over `p`, `q` and `e`, and rules over `e`.
fn definite_theory_strategy() -> impl Strategy<Value = Theory> {
    let sentence = prop_oneof![
        2 => (0..2usize, 0..PARAMS.len())
            .prop_map(|(pr, pa)| format!("{}({})", ["p", "q"][pr], PARAMS[pa])),
        3 => (0..PARAMS.len(), 0..PARAMS.len())
            .prop_map(|(a, b)| format!("e({}, {})", PARAMS[a], PARAMS[b])),
        1 => (0..2usize).prop_map(|i| format!("forall x, y. e(x, y) -> {}(y)", ["p", "q"][i])),
        1 => Just("forall x, y. e(x, y) -> e(y, x)".to_string()),
        1 => Just("forall x, y, z. e(x, y) & e(y, z) -> e(x, z)".to_string()),
    ];
    proptest::collection::vec(sentence, 0..7)
        .prop_map(|sentences| Theory::from_text(&sentences.join("\n")).unwrap())
}

/// An atom over `p`, `q`, `e` or a predicate no theory uses, each argument
/// one of two variables (so variables repeat) or a parameter, `d` being
/// one no theory mentions.
fn open_atom_strategy() -> impl Strategy<Value = String> {
    let arg = (0..5usize).prop_map(|i| ["x", "y", "a", "b", "d"][i]);
    (0..4usize, arg.clone(), arg).prop_map(|(pred, s, t)| match pred {
        0 => format!("p({s})"),
        1 => format!("q({s})"),
        2 => format!("e({s}, {t})"),
        _ => format!("f({s}, {t})"),
    })
}

/// The E5 queries, plus queries over `e` and two-variable conjunctions:
/// answers whose column order is not their variable order, repeated
/// variables, bindings that flow into a negation or into a closed
/// positive `K`-formula, and cross products that repeat answers.
fn wide_query_strategy() -> impl Strategy<Value = String> {
    const SHAPES: [&str; 14] = [
        "K e(x, y)",
        "K e(y, x)",
        "K e(x, x)",
        "K e(A, x)",
        "K e(x, y) & K P(y)",
        "K P(x) & K e(y, x)",
        "K e(x, y) & ~K e(y, x)",
        "K P(x) & K Q(y)",
        "K e(x, y) & K (exists z. e(y, z) & Q(z))",
        "K P(x) & K (e(x, A) | e(A, x))",
        "exists y. K e(x, y) & ~K P(y)",
        "P(x) & K e(x, y)",
        "K (e(x, y) & Q(y))",
        "K e(x, y) & K e(y, z) & ~K (x = z)",
    ];
    prop_oneof![
        1 => query_strategy(),
        2 => (0..SHAPES.len(), 0..2usize, 0..2usize, 0..PARAMS.len()).prop_map(|(i, p, q, a)| {
            SHAPES[i]
                .replace('P', ["p", "q"][p])
                .replace('Q', ["p", "q"][q])
                .replace('A', PARAMS[a])
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The compiled steps answer as the five clauses do, answer for answer
    /// — in order, with repetitions — on a prover without a least model
    /// and on the one `prover_for` routes through it.
    #[test]
    fn compiled_demo_matches_the_five_clauses(t in wide_theory_strategy(), q in wide_query_strategy()) {
        let w = parse(&q).unwrap();
        prop_assume!(is_admissible(&w));
        for prover in [Prover::new(t.clone()), epilog::core::prover_for(t.clone())] {
            let compiled: Vec<_> = demo(&prover, &w).unwrap().take(64).collect();
            let reference: Vec<_> = clauses::demo(&prover, &w).take(64).collect();
            prop_assert_eq!(
                &compiled, &reference,
                "`{}` over\n{}\n(least model: {})", q, t, prover.atom_model().is_some()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An atom `demo` answers from the least model yields the tuples of
    /// the domain walk over the SAT-backed prover, in the walk's order,
    /// with no solver run.
    #[test]
    fn model_answers_match_the_domain_walk(t in definite_theory_strategy(), q in open_atom_strategy()) {
        let w = parse(&q).unwrap();
        let routed = epilog::core::prover_for(t.clone());
        prop_assert!(routed.atom_model().is_some());
        let read: Vec<_> = demo(&routed, &w).unwrap().collect();
        let sat = Prover::new(t.clone());
        let walked: Vec<_> = domain_walk(sat.answer_domain(&w), w.free_vars().len())
            .filter(|tuple| sat.entails(&w.bind_free(tuple)))
            .collect();
        prop_assert_eq!(&read, &walked, "`{}` over\n{}", q, t);
        prop_assert_eq!(routed.sat_calls(), 0);
    }
}
