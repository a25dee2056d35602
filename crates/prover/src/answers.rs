//! The enumeration interface `prove(f, Σ)` of §5.1.
//!
//! The paper specifies `prove` behaviourally: successive calls iterate
//! through an enumeration `π` of all parameter tuples `p̄` such that
//! `Σ ⊨_FOPCE f|p̄`, failing when the enumeration is exhausted. In Rust the
//! natural rendering of that success/fail/redo protocol is a lazy
//! [`Iterator`]: `demo`'s backtracking frames resume it one answer at a
//! time.
//!
//! The enumeration ranges over the *answer domain* (active domain plus goal
//! parameters) in deterministic lexicographic order. For goals inside the
//! finite-instances fragment of §6 this is the complete instance set
//! `Instances(f, Σ)` (Lemma 6.3: answers only mention parameters of `Σ`);
//! outside it, the enumeration is still sound but may under-approximate —
//! exactly the case Definition 6.2's `F_Σ` machinery exists to exclude.

use crate::entail::Prover;
use epilog_syntax::formula::Atom;
use epilog_syntax::{is_first_order, Formula, Param, Term, Var};

/// Lazy stream of answer tuples for a first-order goal.
///
/// Yields each tuple `p̄` (aligned with [`AnswerIter::vars`]) for which
/// `Σ ⊨ f|p̄`, in deterministic order. A goal that is a sentence yields a
/// single empty tuple if entailed, nothing otherwise.
pub struct AnswerIter<'a> {
    vars: Vec<Var>,
    /// The tuples that may be answers, in answer-domain order.
    candidates: Box<dyn Iterator<Item = Vec<Param>>>,
    /// Who decides each candidate.
    prover: &'a Prover,
    /// The formula each candidate's instance is of.
    formula: Formula,
}

impl<'a> AnswerIter<'a> {
    /// Start the enumeration `prove(f, Σ)`.
    ///
    /// When `f` is a single open atom, the model kept with the grounding
    /// of `Σ` bounds the answers: an instance false in that model is
    /// refuted by it, one ground `Σ` never mentions is free in it, and
    /// neither is entailed by a satisfiable `Σ` — so only the instances
    /// true in the kept model are put to `entails`, in the domain walk's
    /// order. Every other goal — and every goal over an unsatisfiable
    /// `Σ`, which entails all instances — walks the answer domain. (A
    /// least model the prover carries is read by `demo`, which never asks
    /// this enumeration about an atom when one is attached.)
    ///
    /// # Panics
    /// Panics if `f` is not first-order.
    pub fn new(prover: &'a Prover, f: &Formula) -> Self {
        assert!(is_first_order(f), "prove() accepts FOPCE formulas only");
        let vars = f.free_vars();
        let kept = match f {
            Formula::Atom(atom) if !vars.is_empty() => {
                kept_model_candidates(prover, f, atom, &vars)
            }
            _ => None,
        };
        let candidates: Box<dyn Iterator<Item = Vec<Param>>> = match kept {
            Some(candidates) => Box::new(candidates.into_iter()),
            None => Box::new(domain_walk(prover.answer_domain(f), vars.len())),
        };
        AnswerIter {
            vars,
            candidates,
            prover,
            formula: f.clone(),
        }
    }

    /// The free variables of the goal, in the order answer tuples are
    /// reported.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }
}

/// The bindings of `vars` under which the open `atom` matches one of
/// `rows` — argument rows of its predicate — in the rows' order.
fn matching<'r>(
    rows: impl Iterator<Item = &'r [Param]>,
    atom: &Atom,
    vars: &[Var],
) -> Vec<Vec<Param>> {
    // The columns each variable occupies; a row answers only if it
    // repeats one parameter across all of them, and has the atom's
    // constants where the atom has them.
    let columns: Vec<Vec<usize>> = vars
        .iter()
        .map(|v| {
            (0..atom.terms.len())
                .filter(|&c| atom.terms[c].as_var() == Some(*v))
                .collect()
        })
        .collect();
    rows.filter(|row| {
        let constant = |(c, t): (usize, &Term)| t.as_param().is_none_or(|p| row[c] == p);
        atom.terms.iter().enumerate().all(constant)
    })
    .filter_map(|row| {
        columns
            .iter()
            .map(|cols| {
                let p = row[cols[0]];
                cols.iter().all(|&c| row[c] == p).then_some(p)
            })
            .collect()
    })
    .collect()
}

/// The instances of the open atom `f` that the model kept with `Σ`'s
/// grounding makes true, as tuples over the answer domain in the domain
/// walk's order; `None` when ground `Σ` is unsatisfiable and keeps none.
fn kept_model_candidates(
    prover: &Prover,
    f: &Formula,
    atom: &Atom,
    vars: &[Var],
) -> Option<Vec<Vec<Param>>> {
    let (grounding, rename) = prover.grounding_for(f);
    let true_rows = grounding.true_rows(atom.pred)?;
    let terms = atom
        .terms
        .iter()
        .map(|t| t.as_param().map_or(*t, |p| Term::Param(rename.apply(p))))
        .collect();
    // The walk goes through the answer domain — the sorted active domain,
    // then the goal's other parameters — leftmost variable slowest; the
    // model also speaks of witnesses, which are no answers.
    let domain = prover.answer_domain(f);
    let active = prover.active_domain().len();
    let position = |p: Param| {
        let p = rename.undo(p);
        domain[..active].binary_search(&p).ok().or_else(|| {
            let rest = domain[active..].iter().position(|q| *q == p)?;
            Some(active + rest)
        })
    };
    let mut positions: Vec<Vec<usize>> = matching(true_rows, &Atom::new(atom.pred, terms), vars)
        .into_iter()
        .filter_map(|t| t.into_iter().map(position).collect())
        .collect();
    positions.sort_unstable();
    Some(
        positions
            .into_iter()
            .map(|t| t.into_iter().map(|i| domain[i]).collect())
            .collect(),
    )
}

/// Every tuple of `domain^arity` in the domain walk's order — the first
/// position varying slowest — which is the order `prove`, `ask`'s open
/// answers and the closed-world view all enumerate in. One empty tuple
/// when `arity` is 0; none over an empty domain otherwise.
///
/// # Panics
/// Panics if `|domain|^arity` overflows `usize`.
pub fn domain_walk(domain: Vec<Param>, arity: usize) -> impl Iterator<Item = Vec<Param>> {
    let total = domain
        .len()
        .checked_pow(arity as u32)
        .expect("answer space overflow");
    (0..total).map(move |mut idx| {
        let mut tuple: Vec<Param> = (0..arity)
            .map(|_| {
                let p = domain[idx % domain.len()];
                idx /= domain.len();
                p
            })
            .collect();
        tuple.reverse();
        tuple
    })
}

impl Iterator for AnswerIter<'_> {
    type Item = Vec<Param>;

    fn next(&mut self) -> Option<Vec<Param>> {
        let (prover, formula) = (self.prover, &self.formula);
        self.candidates
            .by_ref()
            .find(|tuple| prover.entails(&formula.bind_free(tuple)))
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

    fn names(t: &[Param]) -> Vec<String> {
        t.iter().map(|p| p.name()).collect()
    }

    #[test]
    fn sentence_goal_yields_once() {
        let p = teach();
        let hits: Vec<_> = AnswerIter::new(&p, &parse("Teach(John, Math)").unwrap()).collect();
        assert_eq!(hits, vec![Vec::<Param>::new()]);
        let misses: Vec<_> = AnswerIter::new(&p, &parse("Teach(John, CS)").unwrap()).collect();
        assert!(misses.is_empty());
    }

    #[test]
    fn known_course_of_john() {
        // prove(Teach(John, x), Σ) — the §1 query "is there a known course
        // John teaches": yes, Math.
        let p = teach();
        let answers: Vec<_> = AnswerIter::new(&p, &parse("Teach(John, x)").unwrap()).collect();
        assert_eq!(answers.len(), 1);
        assert_eq!(names(&answers[0]), vec!["Math"]);
    }

    #[test]
    fn no_known_cs_teacher() {
        // ∃x Teach(x, CS) is entailed, but no parameter is a certain
        // answer.
        let p = teach();
        let answers: Vec<_> = AnswerIter::new(&p, &parse("Teach(x, CS)").unwrap()).collect();
        assert!(answers.is_empty());
    }

    #[test]
    fn disjunction_gives_no_individual_answers() {
        let p = teach();
        let answers: Vec<_> = AnswerIter::new(&p, &parse("Teach(x, Psych)").unwrap()).collect();
        assert!(
            answers.is_empty(),
            "neither Mary nor Sue is *known* to teach Psych"
        );
    }

    #[test]
    fn multiple_answers_in_deterministic_order() {
        let p = Prover::new(Theory::from_text("p(a)\np(b)\np(c)\nq(b)").unwrap());
        let answers: Vec<_> = AnswerIter::new(&p, &parse("p(x)").unwrap()).collect();
        assert_eq!(answers.len(), 3);
        let run_again: Vec<_> = AnswerIter::new(&p, &parse("p(x)").unwrap()).collect();
        assert_eq!(answers, run_again, "enumeration order is deterministic");
    }

    #[test]
    fn conjunctive_goal() {
        let p = Prover::new(Theory::from_text("p(a)\np(b)\nq(b)").unwrap());
        let answers: Vec<_> = AnswerIter::new(&p, &parse("p(x) & q(x)").unwrap()).collect();
        assert_eq!(answers.len(), 1);
        assert_eq!(names(&answers[0]), vec!["b"]);
    }

    #[test]
    fn two_variable_goal() {
        let p = Prover::new(Theory::from_text("e(a, b)\ne(b, c)").unwrap());
        let answers: Vec<_> = AnswerIter::new(&p, &parse("e(x, y)").unwrap()).collect();
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn equality_goal_binds() {
        let p = Prover::new(Theory::from_text("p(a)\np(b)").unwrap());
        let answers: Vec<_> = AnswerIter::new(&p, &parse("x = a").unwrap()).collect();
        assert_eq!(answers.len(), 1);
        assert_eq!(names(&answers[0]), vec!["a"]);
    }

    #[test]
    fn empty_domain_no_answers() {
        let p = Prover::new(Theory::empty());
        let answers: Vec<_> = AnswerIter::new(&p, &parse("p(x)").unwrap()).collect();
        assert!(answers.is_empty());
    }

    #[test]
    fn resumability_is_lazy() {
        // Taking one answer must not force the rest of the enumeration.
        let p = Prover::new(Theory::from_text("p(a)\np(b)\np(c)").unwrap());
        let mut it = AnswerIter::new(&p, &parse("p(x)").unwrap());
        let first = it.next().unwrap();
        let calls_after_first = p.sat_calls();
        assert_eq!(names(&first), vec!["a"]);
        let second = it.next().unwrap();
        assert_eq!(names(&second), vec!["b"]);
        assert!(p.sat_calls() > calls_after_first);
    }

    #[test]
    fn kept_model_bounds_the_candidates_of_an_open_atom() {
        let p = teach();
        let answers = |src: &str| -> Vec<Vec<String>> {
            AnswerIter::new(&p, &parse(src).unwrap())
                .map(|t| names(&t))
                .collect()
        };
        assert_eq!(answers("Teach(x, y)"), [["John", "Math"]]);
        // One run for the model of ground Σ; then one per instance true
        // in it: the fact, one disjunct, one CS teacher — 49 candidates
        // the walk would have put to the solver never reach it.
        assert!(p.sat_calls() <= 5, "{} solver runs", p.sat_calls());
        assert!(answers("Teach(x, Psych)").is_empty());
        assert!(answers("Teach(Stranger, x)").is_empty());
        assert!(answers("Ghost(x)").is_empty());
        // Outside the finite-instances fragment a parameter Σ never
        // mentions can be an answer; the walk reports it, so do we — last,
        // where the goal's own parameters sit in the answer domain.
        let reflexive = Prover::new(Theory::from_text("forall x. r(x, x)\nr(a, b)").unwrap());
        let got: Vec<_> = AnswerIter::new(&reflexive, &parse("r(x, Stranger)").unwrap())
            .map(|t| names(&t))
            .collect();
        assert_eq!(got, [["Stranger"]]);
        let got: Vec<_> = AnswerIter::new(&reflexive, &parse("r(x, y)").unwrap())
            .map(|t| names(&t))
            .collect();
        assert_eq!(got, [["a", "a"], ["a", "b"], ["b", "b"]]);
        // An unsatisfiable Σ entails every instance: the walk has them all.
        let absurd = Prover::new(Theory::from_text("p(a)\n~p(a)\nq(b)").unwrap());
        let all: Vec<_> = AnswerIter::new(&absurd, &parse("q(x)").unwrap()).collect();
        assert_eq!(all.len(), 2);
    }

    mod properties {
        use super::*;
        use crate::testgen::{definite, goal_param, non_definite, RawTheory};
        use epilog_syntax::Term;
        use proptest::prelude::*;

        /// An atom over a predicate the theories use (or none does), each
        /// term a constant or one of two variables — so variables repeat.
        fn atom_goal((pred, terms): &(u8, Vec<(u8, u8)>)) -> Formula {
            let (name, arity) = [
                ("emp", 1),
                ("ss", 2),
                ("person", 1),
                ("e", 2),
                ("t", 2),
                ("ghost", 2),
                ("p", 1),
                ("q", 1),
            ][*pred as usize % 8];
            let vars = [Var::new("x"), Var::new("y")];
            let terms = (0..arity)
                .map(|i| {
                    let (kind, code) = terms[i % terms.len()];
                    match kind % 3 {
                        0 => Term::Param(goal_param(code)),
                        k => Term::Var(vars[k as usize - 1]),
                    }
                })
                .collect();
            Formula::atom(name, terms)
        }

        /// `prove(f, Σ)` as §5.1 specifies it: every tuple of the answer
        /// domain, in order, kept when the from-scratch pipeline entails
        /// its instance.
        fn walk(p: &Prover, f: &Formula) -> Vec<Vec<Param>> {
            domain_walk(p.answer_domain(f), f.free_vars().len())
                .filter(|t| p.entails_from_scratch(&f.bind_free(t)))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Over a definite, a non-definite or an unsatisfiable theory
            /// the enumeration yields the walk's tuples in the walk's
            /// order: for an open atom from the candidates the kept model
            /// leaves, for a conjunction by walking.
            #[test]
            fn enumeration_matches_the_domain_walk(
                raw in (0u8..8, proptest::collection::vec((0u8..8, 0u8..8, 0u8..8), 0..7)),
                first in (0u8..8, proptest::collection::vec((0u8..3, 0u8..9), 1..3)),
                second in (0u8..8, proptest::collection::vec((0u8..3, 0u8..9), 1..3)),
                shape in 0u8..4,
            ) {
                let raw: RawTheory = raw;
                let goal = match shape {
                    0 => Formula::and(atom_goal(&first), atom_goal(&second)),
                    _ => atom_goal(&first),
                };
                for p in [Prover::new(definite(&raw).0), Prover::new(non_definite(&raw))] {
                    let read: Vec<_> = AnswerIter::new(&p, &goal).collect();
                    prop_assert_eq!(
                        &read, &walk(&p, &goal),
                        "goal {} over {:?}", goal, p.theory().sentences()
                    );
                }
            }
        }
    }
}
