//! Levesque-style evaluation of arbitrary KFOPCE queries.
//!
//! §5.1 recalls Levesque's result that *all* KFOPCE queries can be soundly
//! and completely evaluated using only first-order theorem proving
//! (although "his method suffers from serious computational problems" —
//! which is why the paper develops `demo` for the admissible fragment).
//! This module implements that reduction:
//!
//! * the truth value of a `K`-subformula in `(W, ℳ(Σ))` does not depend on
//!   `W`, so each ground `Kw` can be replaced by a truth constant once
//!   `Σ ⊨ w` is decided (recursively, innermost first);
//! * quantifiers whose scope mentions `K` ("quantifying in") range over
//!   the known individuals; we expand them over the answer domain (active
//!   domain plus query parameters) — exact for the finite-instances
//!   fragments every experiment uses, and the documented approximation
//!   otherwise;
//! * what remains is a first-order sentence, decided by `epilog-prover`.
//!
//! The result is the paper's three-valued [`Answer`]: *yes* if `Σ ⊨ q`,
//! *no* if `Σ ⊨ ¬q`, *unknown* otherwise.

use crate::Answer;
use epilog_prover::answers::domain_walk;
use epilog_prover::Prover;
use epilog_syntax::{is_first_order, Formula, Param, Term, Var};
use std::collections::HashMap;

/// Answer a KFOPCE sentence query against `Σ` (Definition 2.1). An
/// unsatisfiable `Σ` entails every sentence, `q` and `¬q` alike: the
/// answer is *yes*, as the closed-world view of `epilog-semantics`
/// answers an unsatisfiable closure.
///
/// # Panics
/// Panics if `q` has free variables (bind them, or use
/// [`answers`]).
pub fn ask(prover: &Prover, q: &Formula) -> Answer {
    assert!(
        q.is_sentence(),
        "ask() takes sentence queries; use answers() for open ones"
    );
    // `¬q` reduces to the negation of what `q` reduces to, connective for
    // connective: one reduction serves both entailment questions.
    let reduced = reduce(prover, q);
    let yes = prover.entails(&reduced);
    let no = prover.entails(&Formula::not(reduced));
    Answer::from_entailments(yes, no && !yes)
}

/// All answers to an open KFOPCE query: tuples over the answer domain
/// whose substitution makes the query certain.
pub fn answers(prover: &Prover, q: &Formula) -> Vec<Vec<Param>> {
    domain_walk(prover.answer_domain(q), q.free_vars().len())
        .filter(|tuple| certain(prover, &q.bind_free(tuple)))
        .collect()
}

/// `Σ ⊨ q` for a KFOPCE sentence: reduce `K`-subformulas to constants,
/// then decide the first-order remainder by entailment.
pub fn certain(prover: &Prover, q: &Formula) -> bool {
    prover.entails(&reduce(prover, q))
}

/// The first-order sentence `q` comes to once every `K`-subformula is
/// decided.
fn reduce(prover: &Prover, q: &Formula) -> Formula {
    // Quantifiers into modal contexts range over *all* parameters, not
    // just the mentioned ones; spare parameters (which neither the
    // database nor the query mentions) represent the unmentioned
    // individuals. One spare per level of modal-scoped quantifier nesting
    // makes depth-≤3 expansion exact; deeper nesting keeps the last spare
    // (documented approximation).
    let spares = prover.spares(modal_quantifier_depth(q).clamp(1, 3), &q.params());
    reduce_with(prover, q, &HashMap::new(), &spares)
}

/// Nesting depth of quantifiers whose scope mentions `K`.
fn modal_quantifier_depth(w: &Formula) -> usize {
    match w {
        Formula::Atom(_) | Formula::Eq(_, _) => 0,
        Formula::Not(a) | Formula::Know(a) => modal_quantifier_depth(a),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            modal_quantifier_depth(a).max(modal_quantifier_depth(b))
        }
        Formula::Forall(_, a) | Formula::Exists(_, a) => {
            let inner = modal_quantifier_depth(a);
            if is_first_order(a) {
                inner
            } else {
                inner + 1
            }
        }
    }
}

/// Replace every `K`-subformula by a truth constant, expanding quantifiers
/// that scope over `K` across the answer domain extended with the spare
/// parameters. Returns a FOPCE formula.
fn reduce_with(
    prover: &Prover,
    q: &Formula,
    env: &HashMap<Var, Term>,
    spares: &[Param],
) -> Formula {
    if is_first_order(q) {
        return q.subst(env);
    }
    match q {
        Formula::Know(w) => {
            // Truth of Kw is world-independent: decide Σ ⊨ w recursively.
            let inner = reduce_with(prover, w, env, spares);
            constant(prover.entails(&inner))
        }
        Formula::Not(a) => Formula::not(reduce_with(prover, a, env, spares)),
        Formula::And(a, b) => Formula::and(
            reduce_with(prover, a, env, spares),
            reduce_with(prover, b, env, spares),
        ),
        Formula::Or(a, b) => Formula::or(
            reduce_with(prover, a, env, spares),
            reduce_with(prover, b, env, spares),
        ),
        Formula::Implies(a, b) => Formula::implies(
            reduce_with(prover, a, env, spares),
            reduce_with(prover, b, env, spares),
        ),
        Formula::Iff(a, b) => Formula::iff(
            reduce_with(prover, a, env, spares),
            reduce_with(prover, b, env, spares),
        ),
        Formula::Exists(x, body) => {
            // Quantifying into a modal context: expand over the known
            // individuals plus the spares.
            let disjuncts: Vec<Formula> = expansion_domain(prover, q, spares)
                .iter()
                .map(|p| {
                    let mut env2 = env.clone();
                    env2.insert(*x, Term::Param(*p));
                    reduce_with(prover, body, &env2, spares)
                })
                .collect();
            Formula::or_all(disjuncts).unwrap_or_else(|| constant(false))
        }
        Formula::Forall(x, body) => {
            let conjuncts: Vec<Formula> = expansion_domain(prover, q, spares)
                .iter()
                .map(|p| {
                    let mut env2 = env.clone();
                    env2.insert(*x, Term::Param(*p));
                    reduce_with(prover, body, &env2, spares)
                })
                .collect();
            Formula::and_all(conjuncts).unwrap_or_else(|| constant(true))
        }
        Formula::Atom(_) | Formula::Eq(_, _) => q.subst(env),
    }
}

fn expansion_domain(prover: &Prover, q: &Formula, spares: &[Param]) -> Vec<Param> {
    let mut domain = prover.answer_domain(q);
    domain.extend(spares);
    domain
}

/// A FOPCE truth constant: `c₀ = c₀` for true, its negation for false.
fn constant(b: bool) -> Formula {
    let c = Param::new("c0");
    if b {
        Formula::eq(c, c)
    } else {
        Formula::not(Formula::eq(c, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::{parse, Theory};

    fn teach() -> Prover {
        Prover::new(
            Theory::from_text(
                "Teach(John, Math)
                 exists x. Teach(x, CS)
                 Teach(Mary, Psych) | Teach(Sue, Psych)",
            )
            .unwrap(),
        )
    }

    fn a(p: &Prover, q: &str) -> Answer {
        ask(p, &parse(q).unwrap())
    }

    #[test]
    fn section1_full_query_table() {
        // The complete table of §1, including the non-admissible last
        // query that demo cannot evaluate.
        let p = teach();
        assert_eq!(a(&p, "Teach(Mary, CS)"), Answer::Unknown);
        assert_eq!(a(&p, "K Teach(Mary, CS)"), Answer::No);
        assert_eq!(a(&p, "K ~Teach(Mary, CS)"), Answer::No);
        assert_eq!(a(&p, "exists x. K Teach(John, x)"), Answer::Yes);
        assert_eq!(a(&p, "exists x. K Teach(x, CS)"), Answer::No);
        assert_eq!(a(&p, "K (exists x. Teach(x, CS))"), Answer::Yes);
        assert_eq!(a(&p, "exists x. Teach(x, Psych)"), Answer::Yes);
        assert_eq!(a(&p, "exists x. K Teach(x, Psych)"), Answer::No);
        assert_eq!(
            a(&p, "exists x. Teach(x, Psych) & ~Teach(x, CS)"),
            Answer::Unknown
        );
        assert_eq!(
            a(&p, "exists x. Teach(x, Psych) & ~K Teach(x, CS)"),
            Answer::Yes
        );
    }

    #[test]
    fn an_unsatisfiable_theory_answers_yes() {
        let p = Prover::new(Theory::from_text("p(a)\n~p(a)").unwrap());
        assert_eq!(a(&p, "p(a)"), Answer::Yes);
        assert_eq!(a(&p, "~p(a)"), Answer::Yes);
        assert_eq!(a(&p, "K q(b)"), Answer::Yes);
    }

    #[test]
    fn p_or_q_intro() {
        let p = Prover::new(Theory::from_text("p | q").unwrap());
        assert_eq!(a(&p, "p"), Answer::Unknown);
        assert_eq!(a(&p, "K p"), Answer::No);
        assert_eq!(a(&p, "K p | K ~p"), Answer::No);
        assert_eq!(a(&p, "K (p | q)"), Answer::Yes);
    }

    #[test]
    fn iterated_modalities() {
        let p = Prover::new(Theory::from_text("p | q").unwrap());
        assert_eq!(a(&p, "K K (p | q)"), Answer::Yes);
        assert_eq!(a(&p, "K ~K p"), Answer::Yes, "negative introspection");
        assert_eq!(a(&p, "~K K p"), Answer::Yes);
    }

    #[test]
    fn open_answers() {
        let p = teach();
        // Known courses of John.
        let got = answers(&p, &parse("K Teach(John, x)").unwrap());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0][0].name(), "Math");
        // The last §1 query, open form: who teaches Psych but is not known
        // to teach CS? Mary and Sue are *not* individually certain — the
        // sentence form was yes, but no single binding is.
        let got = answers(&p, &parse("Teach(x, Psych) & ~K Teach(x, CS)").unwrap());
        assert!(got.is_empty());
    }

    #[test]
    fn certain_matches_demo_on_admissible() {
        use crate::demo::{demo_sentence, DemoOutcome};
        let p = teach();
        for q in [
            "K Teach(John, Math)",
            "K Teach(Mary, CS)",
            "exists x. K Teach(John, x)",
            "exists x. K Teach(x, CS)",
            "K (exists x. Teach(x, CS))",
            "~K Teach(Mary, Psych)",
        ] {
            let w = parse(q).unwrap();
            let via_demo = demo_sentence(&p, &w).unwrap() == DemoOutcome::Succeeds;
            let via_ask = certain(&p, &w);
            assert_eq!(via_demo, via_ask, "divergence on {q}");
        }
    }

    #[test]
    fn unknown_individuals_example() {
        // The Teach/null-value distinctions of §1 again but through ask().
        let p = teach();
        // Someone teaches Psych — Mary or Sue — but there is no known one.
        assert_eq!(a(&p, "exists x. Teach(x, Psych)"), Answer::Yes);
        assert_eq!(a(&p, "exists x. K Teach(x, Psych)"), Answer::No);
    }

    #[test]
    fn a_spare_is_no_parameter_of_the_theory() {
        // Whatever one name the theory holds — `__spare0`, or the name
        // the spares' pool would draw next — an individual it does not
        // mention is not known to be a `p`.
        let next = Prover::new(Theory::empty()).spares(1, &[])[0];
        for name in ["a", "__spare0", &next.name()] {
            let p = Prover::new(
                Theory::new(vec![Formula::atom("p", vec![Param::new(name).into()])]).unwrap(),
            );
            assert_eq!(a(&p, "forall x. K p(x)"), Answer::No, "{name}");
            assert_eq!(a(&p, "exists x. ~K p(x)"), Answer::Yes, "{name}");
        }
    }

    #[test]
    fn a_large_domain_expands_into_a_shallow_formula() {
        // Over 20 000 individuals, `exists y. K p(y)` expands to 20 001
        // disjuncts (the spare too). Nested 20 000 deep, walking them
        // overflowed a 2 MiB thread, a server session's.
        let facts =
            (0..20_000).map(|i| Formula::atom("p", vec![Param::new(&format!("c{i}")).into()]));
        let p = crate::engine::prover_for(Theory::new(facts.collect()).unwrap());
        let asked = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                [
                    a(&p, "exists y. K p(y)"),
                    a(&p, "forall y. K p(y) -> K p(y)"),
                ]
            })
            .unwrap();
        assert_eq!(asked.join().unwrap(), [Answer::Yes, Answer::Yes]);
    }

    #[test]
    #[should_panic(expected = "sentence")]
    fn open_query_rejected_by_ask() {
        let p = teach();
        let _ = ask(&p, &parse("Teach(x, CS)").unwrap());
    }
}
