//! The `demo` meta-evaluator of §5.1.
//!
//! The paper's Prolog code, transliterated:
//!
//! ```text
//! demo(f, Σ)        ← first-order(f), prove(f, Σ).
//! demo(¬w, Σ)       ← modal(w), not demo(w, Σ).
//! demo(Kw, Σ)       ← demo(w, Σ).
//! demo((∃x)w, Σ)    ← modal(w), demo(w, Σ).
//! demo(w₁ ∧ w₂, Σ)  ← modal(w₁ ∧ w₂), demo(w₁, Σ), demo(w₂, Σ).
//! ```
//!
//! Conjunction is evaluated left to right, `not` is finite
//! negation-as-failure, and `prove` is the resumable answer enumeration of
//! `epilog_prover::AnswerIter`. In Rust, the success/fail/redo protocol
//! becomes a lazy iterator of binding environments; backtracking is
//! iterator composition.
//!
//! **Theorem 5.1 (soundness).** For admissible `w` over satisfiable `Σ`:
//! if `demo(w, Σ)` succeeds, its bindings `p̄` satisfy `Σ ⊨ w|p̄`; if it
//! finitely fails, then `Σ ⊭ w|p̄` for every `p̄`. The property tests in
//! `tests/e5_soundness.rs` check exactly this against the brute-force
//! oracle.

use epilog_prover::{AnswerIter, Prover};
use epilog_syntax::{
    admissibility, is_first_order, transform, Admissibility, Formula, Param, Term, Var,
};
use std::collections::{HashMap, HashSet};

/// A binding environment: variables already bound to parameters.
pub(crate) type Env = HashMap<Var, Param>;

/// The outcome of running `demo` on a sentence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemoOutcome {
    /// `demo` succeeded: `Σ ⊨ w` (Theorem 5.1(1)).
    Succeeds,
    /// `demo` finitely failed: `Σ ⊭ w` (Theorem 5.1(2)); when `w` is
    /// subjective this further means `Σ ⊨ ¬w` (Lemma 5.2).
    FinitelyFails,
}

/// The lazy answer stream produced by [`demo`].
///
/// Yields one parameter tuple per success, aligned with [`DemoStream::vars`]
/// — possibly with repetitions, as §6.1.1 notes. Forcing failure after each
/// success (i.e. just continuing the iteration) recovers *all* answers for
/// queries admissible wrt a finite-instances class.
pub struct DemoStream<'a> {
    inner: Box<dyn Iterator<Item = Env> + 'a>,
    vars: Vec<Var>,
}

impl DemoStream<'_> {
    /// The query's free variables, in the order answer tuples are
    /// reported.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }
}

impl Iterator for DemoStream<'_> {
    type Item = Vec<Param>;

    fn next(&mut self) -> Option<Vec<Param>> {
        let env = self.inner.next()?;
        // Lemma 5.4: on success all free variables are bound to parameters.
        Some(
            self.vars
                .iter()
                .map(|v| {
                    *env.get(v)
                        .unwrap_or_else(|| panic!("Lemma 5.4 violated: {v} unbound after success"))
                })
                .collect(),
        )
    }
}

/// Run the `demo` evaluator on an admissible query.
///
/// Returns the lazy answer stream, or the admissibility failure if the
/// query is outside the fragment Theorem 5.1 covers.
pub fn demo<'a>(prover: &'a Prover, w: &Formula) -> Result<DemoStream<'a>, Admissibility> {
    let verdict = admissibility(w);
    if !verdict.is_admissible() {
        return Err(verdict);
    }
    // The safety rules are stated over the primitives ¬ ∧ ∃ K; expand the
    // defined connectives in modal positions. First-order subtrees go to
    // `prove` whole, whatever their shape.
    let kerneled = kernel_modal(w);
    Ok(DemoStream {
        inner: stream(prover, kerneled, Env::new()),
        vars: w.free_vars(),
    })
}

/// Run `demo` on a sentence, classifying the outcome.
pub fn demo_sentence(prover: &Prover, w: &Formula) -> Result<DemoOutcome, Admissibility> {
    let mut s = demo(prover, w)?;
    Ok(if s.next().is_some() {
        DemoOutcome::Succeeds
    } else {
        DemoOutcome::FinitelyFails
    })
}

/// All answers to an admissible query, deduplicated, in first-derivation
/// order (§6.1.1: iterating `demo` through failure prints all answers,
/// possibly with repetitions — we deduplicate here).
pub fn all_answers(prover: &Prover, w: &Formula) -> Result<Vec<Vec<Param>>, Admissibility> {
    let mut seen = HashSet::new();
    Ok(demo(prover, w)?
        .filter(|t| seen.insert(t.clone()))
        .collect())
}

/// Expand `∨ ⊃ ≡ ∀` inside modal regions only; first-order subtrees are
/// left intact for `prove`.
fn kernel_modal(w: &Formula) -> Formula {
    if is_first_order(w) {
        return w.clone();
    }
    match w {
        Formula::Not(a) => Formula::not(kernel_modal(a)),
        Formula::Know(a) => Formula::know(kernel_modal(a)),
        Formula::And(a, b) => Formula::and(kernel_modal(a), kernel_modal(b)),
        Formula::Exists(x, a) => Formula::exists(*x, kernel_modal(a)),
        // Modal occurrences of defined connectives: expand one level, then
        // recurse.
        Formula::Or(..) | Formula::Implies(..) | Formula::Iff(..) | Formula::Forall(..) => {
            kernel_modal(&transform::kernel_top(w))
        }
        Formula::Atom(_) | Formula::Eq(_, _) => w.clone(),
    }
}

/// The recursive clause dispatch. `w` is admissible-after-kernel; `env`
/// holds bindings produced by conjuncts to the left (or by the diff atom
/// that fired a compiled constraint's violation body).
pub(crate) fn stream<'a>(
    prover: &'a Prover,
    w: Formula,
    env: Env,
) -> Box<dyn Iterator<Item = Env> + 'a> {
    // Clause 1: first-order formulas go to prove().
    if is_first_order(&w) {
        let bound = apply(&w, &env);
        let free = bound.free_vars();
        let answers = AnswerIter::new(prover, &bound);
        return Box::new(answers.map(move |tuple| {
            let mut env2 = env.clone();
            for (v, p) in free.iter().zip(tuple) {
                env2.insert(*v, p);
            }
            env2
        }));
    }
    match w {
        // Clause 2: negation as finite failure. The scope is a sentence
        // under the current bindings (guaranteed by safety).
        Formula::Not(inner) => {
            debug_assert!(
                apply(&inner, &env).is_sentence(),
                "safety violated: open negation scope {inner}"
            );
            let mut sub = stream(prover, (*inner).clone(), env.clone());
            if sub.next().is_none() {
                Box::new(std::iter::once(env))
            } else {
                Box::new(std::iter::empty())
            }
        }
        // Clause 3: K is dropped — demo answers "does the database know w"
        // by trying to derive w.
        Formula::Know(inner) => stream(prover, *inner, env),
        // Clause 4: the existential dives into its (subjective) scope; the
        // variable is bound by an inner prove() if at all.
        Formula::Exists(_, inner) => stream(prover, *inner, env),
        // Clause 5: left-to-right conjunction; bindings flow rightward.
        Formula::And(a, b) => {
            let b = *b;
            Box::new(stream(prover, *a, env).flat_map(move |env1| stream(prover, b.clone(), env1)))
        }
        other => unreachable!("admissible-after-kernel formulas cannot be {other}"),
    }
}

/// Substitute the environment's bindings into a formula — `demo`'s and
/// `ask`'s one way of instantiating a formula under bound variables.
pub(crate) fn apply(w: &Formula, env: &Env) -> Formula {
    if env.is_empty() {
        return w.clone();
    }
    let map: HashMap<Var, Term> = env.iter().map(|(v, p)| (*v, Term::Param(*p))).collect();
    w.subst(&map)
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

    fn outcome(p: &Prover, q: &str) -> DemoOutcome {
        demo_sentence(p, &parse(q).unwrap()).unwrap()
    }

    #[test]
    fn section1_sentence_queries_via_demo() {
        let p = teach();
        use DemoOutcome::*;
        // K Teach(Mary, CS): no (demo fails; subjective ⇒ Σ ⊨ ¬K…).
        assert_eq!(outcome(&p, "K Teach(Mary, CS)"), FinitelyFails);
        assert_eq!(outcome(&p, "K ~Teach(Mary, CS)"), FinitelyFails);
        // ∃x K Teach(John, x): yes.
        assert_eq!(outcome(&p, "exists x. K Teach(John, x)"), Succeeds);
        // ∃x K Teach(x, CS): no known CS teacher.
        assert_eq!(outcome(&p, "exists x. K Teach(x, CS)"), FinitelyFails);
        // K ∃x Teach(x, CS): yes.
        assert_eq!(outcome(&p, "K (exists x. Teach(x, CS))"), Succeeds);
        // ∃x Teach(x, Psych): yes (first-order, via prove).
        assert_eq!(outcome(&p, "exists x. Teach(x, Psych)"), Succeeds);
        // ∃x K Teach(x, Psych): no known Psych teacher.
        assert_eq!(outcome(&p, "exists x. K Teach(x, Psych)"), FinitelyFails);
    }

    #[test]
    fn open_query_bindings() {
        let p = teach();
        // K Teach(John, x): which courses is John known to teach?
        let answers: Vec<_> = demo(&p, &parse("K Teach(John, x)").unwrap())
            .unwrap()
            .collect();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0][0].name(), "Math");
    }

    #[test]
    fn normal_query_with_naf() {
        // p(x) ∧ ¬K q(x): the §5.2 normal-query shape.
        let prover = Prover::new(Theory::from_text("p(a)\np(b)\nq(a)").unwrap());
        let answers = all_answers(&prover, &parse("p(x) & ~K q(x)").unwrap()).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0][0].name(), "b");
    }

    #[test]
    fn inadmissible_rejected() {
        let p = teach();
        let q = parse("exists x. Teach(x, Psych) & ~K Teach(x, CS)").unwrap();
        assert!(demo(&p, &q).is_err());
    }

    #[test]
    fn conjunction_binds_left_to_right() {
        let prover = Prover::new(Theory::from_text("p(a)\np(b)\nq(b)\nr(b)").unwrap());
        // K p(x) ∧ K q(x) ∧ ¬K s(x): bindings from the left feed the right.
        let answers = all_answers(&prover, &parse("K p(x) & K q(x) & ~K s(x)").unwrap()).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0][0].name(), "b");
    }

    #[test]
    fn negation_as_failure_on_sentences() {
        let prover = Prover::new(Theory::from_text("p(a)").unwrap());
        assert_eq!(
            demo_sentence(&prover, &parse("~K q(a)").unwrap()).unwrap(),
            DemoOutcome::Succeeds
        );
        assert_eq!(
            demo_sentence(&prover, &parse("~K p(a)").unwrap()).unwrap(),
            DemoOutcome::FinitelyFails
        );
    }

    #[test]
    fn admissible_constraint_evaluation() {
        // The Example 5.4 social-security constraint, against a database
        // that violates it and one that satisfies it.
        let ic = parse("~(exists x. K emp(x) & ~K (exists y. ss(x, y)))").unwrap();
        let bad = Prover::new(Theory::from_text("emp(Mary)").unwrap());
        assert_eq!(
            demo_sentence(&bad, &ic).unwrap(),
            DemoOutcome::FinitelyFails
        );
        let good = Prover::new(Theory::from_text("emp(Mary)\nexists y. ss(Mary, y)").unwrap());
        assert_eq!(demo_sentence(&good, &ic).unwrap(), DemoOutcome::Succeeds);
        let empty = Prover::new(Theory::empty());
        assert_eq!(demo_sentence(&empty, &ic).unwrap(), DemoOutcome::Succeeds);
    }

    #[test]
    fn modal_disjunction_through_kernel() {
        // K p ∨ K q is admissible after abbreviation expansion:
        // ¬(¬Kp ∧ ¬Kq).
        let prover = Prover::new(Theory::from_text("p").unwrap());
        assert_eq!(
            demo_sentence(&prover, &parse("K p | K q").unwrap()).unwrap(),
            DemoOutcome::Succeeds
        );
        let neither = Prover::new(Theory::from_text("r").unwrap());
        assert_eq!(
            demo_sentence(&neither, &parse("K p | K q").unwrap()).unwrap(),
            DemoOutcome::FinitelyFails
        );
    }

    #[test]
    fn all_answers_recovers_everything() {
        // §6.1.1: iterating through failure recovers all answers.
        let prover = Prover::new(Theory::from_text("p(a)\np(b)\np(c)\nq(c)").unwrap());
        let answers = all_answers(&prover, &parse("K p(x)").unwrap()).unwrap();
        assert_eq!(answers.len(), 3);
        let answers = all_answers(&prover, &parse("K p(x) & K q(x)").unwrap()).unwrap();
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn demo_through_routed_prover_skips_sat() {
        // A definite database routed through the bottom-up engine: every
        // ground question demo asks is answered from the least model.
        let p = crate::engine::prover_for(Theory::from_text("p(a)\np(b)\nq(b)").unwrap());
        assert!(p.atom_model().is_some());
        let answers = all_answers(&p, &parse("K p(x) & K q(x)").unwrap()).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0][0].name(), "b");
        assert_eq!(p.sat_calls(), 0, "no SAT call on a definite DB");
    }

    #[test]
    fn laziness_first_answer_cheap() {
        let prover = Prover::new(Theory::from_text("p(a)\np(b)\np(c)").unwrap());
        let mut s = demo(&prover, &parse("K p(x)").unwrap()).unwrap();
        assert!(s.next().is_some());
        let calls_after_one = prover.sat_calls();
        let _rest: Vec<_> = s.collect();
        assert!(prover.sat_calls() > calls_after_one);
    }
}
