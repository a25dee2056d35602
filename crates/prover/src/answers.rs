//! The enumeration interface `prove(f, Σ)` of §5.1.
//!
//! The paper specifies `prove` behaviourally: successive calls iterate
//! through an enumeration `π` of all parameter tuples `p̄` such that
//! `Σ ⊨_FOPCE f|p̄`, failing when the enumeration is exhausted. In Rust the
//! natural rendering of that success/fail/redo protocol is a lazy
//! [`Iterator`]; `demo`'s backtracking is then ordinary iterator
//! composition.
//!
//! The enumeration ranges over the *answer domain* (active domain plus goal
//! parameters) in deterministic lexicographic order. For goals inside the
//! finite-instances fragment of §6 this is the complete instance set
//! `Instances(f, Σ)` (Lemma 6.3: answers only mention parameters of `Σ`);
//! outside it, the enumeration is still sound but may under-approximate —
//! exactly the case Definition 6.2's `F_Σ` machinery exists to exclude.

use crate::entail::Prover;
use epilog_storage::{Database, Selection};
use epilog_syntax::formula::Atom;
use epilog_syntax::{is_first_order, Formula, Param, Term, Var};

/// Lazy stream of answer tuples for a first-order goal.
///
/// Yields each tuple `p̄` (aligned with [`AnswerIter::vars`]) for which
/// `Σ ⊨ f|p̄`, in deterministic order. A goal that is a sentence yields a
/// single empty tuple if entailed, nothing otherwise.
pub struct AnswerIter<'a> {
    vars: Vec<Var>,
    source: Source<'a>,
}

enum Source<'a> {
    /// Walk `domain^|vars|`, asking `entails` about every candidate.
    Enumerate {
        prover: &'a Prover,
        formula: Formula,
        domain: Vec<Param>,
        /// Position in the cartesian enumeration.
        cursor: usize,
        /// Total number of candidate tuples.
        total: usize,
    },
    /// The answers, read off the attached least model up front.
    Model(std::vec::IntoIter<Vec<Param>>),
}

impl<'a> AnswerIter<'a> {
    /// Start the enumeration `prove(f, Σ)`.
    ///
    /// When `f` is a single open atom and the prover carries a least model
    /// ([`Prover::with_atom_model`]), the model answers: the atom's
    /// constants select the matching tuples of its relation (through a
    /// column index where one is built) and no candidate is ever put to
    /// `entails`. The model holds exactly the entailed ground atoms, so
    /// these are the tuples the domain walk would have kept, and they are
    /// yielded in the walk's order. Every other goal walks the answer
    /// domain.
    ///
    /// # Panics
    /// Panics if `f` is not first-order.
    pub fn new(prover: &'a Prover, f: &Formula) -> Self {
        assert!(is_first_order(f), "prove() accepts FOPCE formulas only");
        let vars = f.free_vars();
        if let (Some(model), Formula::Atom(atom)) = (prover.atom_model(), f) {
            // A ground atom is one lookup: `entails` below does it.
            if !vars.is_empty() {
                let answers = model_answers(model, atom, &vars);
                return AnswerIter {
                    vars,
                    source: Source::Model(answers.into_iter()),
                };
            }
        }
        let domain = prover.answer_domain(f);
        let total = if vars.is_empty() {
            1
        } else if domain.is_empty() {
            0
        } else {
            domain
                .len()
                .checked_pow(vars.len() as u32)
                .expect("candidate space overflow")
        };
        AnswerIter {
            vars,
            source: Source::Enumerate {
                prover,
                formula: f.clone(),
                domain,
                cursor: 0,
                total,
            },
        }
    }

    /// The free variables of the goal, in the order answer tuples are
    /// reported.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }
}

/// The bindings of `vars` under which the open `atom` is in `model`, in
/// the order the domain walk reports them: lexicographic by position in
/// the answer domain, which for parameters of the model — all of them
/// mentioned by `Σ`, hence in the sorted active domain — is parameter
/// order.
fn model_answers(model: &Database, atom: &Atom, vars: &[Var]) -> Vec<Vec<Param>> {
    let pattern: Selection = atom.terms.iter().map(Term::as_param).collect();
    // The columns each variable occupies; a tuple answers only if it
    // repeats one parameter across all of them.
    let columns: Vec<Vec<usize>> = vars
        .iter()
        .map(|v| {
            (0..atom.terms.len())
                .filter(|&c| atom.terms[c].as_var() == Some(*v))
                .collect()
        })
        .collect();
    let mut answers: Vec<Vec<Param>> = model
        .select(atom.pred, &pattern)
        .filter_map(|t| {
            columns
                .iter()
                .map(|cols| {
                    let p = t[cols[0]];
                    cols.iter().all(|&c| t[c] == p).then_some(p)
                })
                .collect()
        })
        .collect();
    answers.sort_unstable();
    answers
}

fn tuple_at(domain: &[Param], arity: usize, mut idx: usize) -> Vec<Param> {
    let mut out = vec![domain[0]; arity];
    for slot in out.iter_mut().rev() {
        *slot = domain[idx % domain.len()];
        idx /= domain.len();
    }
    out
}

impl Iterator for AnswerIter<'_> {
    type Item = Vec<Param>;

    fn next(&mut self) -> Option<Vec<Param>> {
        match &mut self.source {
            Source::Model(answers) => answers.next(),
            Source::Enumerate {
                prover,
                formula,
                domain,
                cursor,
                total,
            } => {
                while *cursor < *total {
                    let idx = *cursor;
                    *cursor += 1;
                    if self.vars.is_empty() {
                        return prover.entails(formula).then(Vec::new);
                    }
                    let tuple = tuple_at(domain, self.vars.len(), idx);
                    if prover.entails(&formula.bind_free(&tuple)) {
                        return Some(tuple);
                    }
                }
                None
            }
        }
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
    fn model_answers_an_open_atom_without_asking_the_prover() {
        let theory = Theory::from_text("e(a, b)\ne(a, a)\ne(b, c)").unwrap();
        let mut model = epilog_storage::Database::new();
        for s in theory.ground_atoms() {
            model.insert(&s);
        }
        let p = Prover::new(theory).with_atom_model(model);
        let answers = |src: &str| -> Vec<Vec<String>> {
            AnswerIter::new(&p, &parse(src).unwrap())
                .map(|t| names(&t))
                .collect()
        };
        assert_eq!(answers("e(a, x)"), [["a"], ["b"]]);
        assert_eq!(answers("e(x, x)"), [["a"]]);
        assert_eq!(answers("e(x, y)"), [["a", "a"], ["a", "b"], ["b", "c"]]);
        assert!(answers("e(c, x)").is_empty());
        assert!(answers("f(x)").is_empty());
        assert_eq!(p.sat_calls(), 0);
        assert_eq!(p.memo_len(), 0, "no candidate was put to entails()");
    }

    mod properties {
        use super::*;
        use crate::testgen::{definite, goal_param, RawTheory};
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
            ][*pred as usize % 6];
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Reading answers off the attached model yields the tuples
            /// of the domain walk over the SAT-backed prover, in its order.
            #[test]
            fn model_answers_match_the_domain_walk(
                raw in (0u8..8, proptest::collection::vec((0u8..8, 0u8..8, 0u8..8), 0..7)),
                goal in (0u8..6, proptest::collection::vec((0u8..3, 0u8..9), 1..3)),
            ) {
                let raw: RawTheory = raw;
                let goal = atom_goal(&goal);
                let (theory, model) = definite(&raw);
                let walked: Vec<_> = AnswerIter::new(&Prover::new(theory.clone()), &goal).collect();
                let with_model = Prover::new(theory).with_atom_model(model);
                let read: Vec<_> = AnswerIter::new(&with_model, &goal).collect();
                prop_assert_eq!(&read, &walked, "goal {}", goal);
                prop_assert_eq!(with_model.sat_calls(), 0);
            }
        }
    }
}
