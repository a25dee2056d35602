//! The `demo` meta-evaluator of §5.1.
//!
//! The paper's Prolog code:
//!
//! ```text
//! demo(f, Σ)        ← first-order(f), prove(f, Σ).
//! demo(¬w, Σ)       ← modal(w), not demo(w, Σ).
//! demo(Kw, Σ)       ← demo(w, Σ).
//! demo((∃x)w, Σ)    ← modal(w), demo(w, Σ).
//! demo(w₁ ∧ w₂, Σ)  ← modal(w₁ ∧ w₂), demo(w₁, Σ), demo(w₂, Σ).
//! ```
//!
//! A formula is compiled once into steps, one per clause: a first-order
//! subformula is one `prove` step (clause 1), `¬w` is a step that `w`'s
//! own steps must finitely fail (clause 2), `K` and `∃` leave no step
//! (clauses 3 and 4), and `∧` is the order of the steps, left to right
//! (clause 5). Variables are numbered into slots, and a step reads which
//! of its variables are bound when it runs, not when it is compiled: one
//! step list serves a query from no binding and a constraint's violation
//! from whatever a model-diff atom fixes. The success/fail/redo protocol
//! is a stack of frames, one per step, over one slot vector: a step's
//! frame binds its answers into the slots one at a time, and unbinds
//! them when it has none left. The answer stream stays lazy.
//!
//! **Clause 1.** `prove` is the resumable answer enumeration of
//! [`AnswerIter`], asked about the step's formula with its bound
//! variables substituted. When the prover carries a least model, three
//! shapes are answered from the model first:
//!
//! * an atom is a [`Relation::select`](epilog_storage::Relation::select)
//!   that binds its unbound variables, in `prove`'s order — sorted by
//!   those variables in [`Formula::free_vars`] order, re-sorted only
//!   where that is not column order;
//! * `s = t` with both sides bound is a comparison;
//! * a positive formula (atoms, `=`, `∧`, `∨`, `∃`) whose free variables
//!   are all bound is an existence test over its alternatives, each a
//!   conjunction of atoms and equalities run as steps.
//!
//! Anything else — another shape, or a variable the model route needs
//! bound that is not — goes to `prove`. A model answer is `prove`'s
//! answer: on a definite `Σ` the least model holds exactly the entailed
//! ground atoms, so a positive formula is entailed iff it holds there,
//! and under unique names a closed equality has one truth value.
//! Admissibility refuses quantified variables that collide with each
//! other or with free ones, so slots keyed by variable capture nothing.
//!
//! **Theorem 5.1 (soundness).** For admissible `w` over satisfiable `Σ`:
//! if `demo(w, Σ)` succeeds, its bindings `p̄` satisfy `Σ ⊨ w|p̄`; if it
//! finitely fails, then `Σ ⊭ w|p̄` for every `p̄`. The property tests in
//! `tests/e5_soundness.rs` check exactly this against the brute-force
//! oracle, and check these steps against a transliteration of the five
//! clauses, answer for answer.

use epilog_prover::{AnswerIter, Prover};
use epilog_storage::{AtomTemplate, Database, Matches, PatTerm, Selection, SlotMap};
use epilog_syntax::{
    admissibility, is_first_order, transform, Admissibility, Formula, Param, Term, Var,
};
use std::collections::{HashMap, HashSet};

/// A binding of a goal's variables, by slot.
pub(crate) type Slots = Vec<Option<Param>>;

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
    prover: &'a Prover,
    goal: Goal,
    run: Run<'a>,
    slots: Slots,
    /// The query's free variables: the goal's first slots.
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
        let (steps, names) = (&self.goal.steps, self.goal.slots.vars());
        if !self.run.next(steps, names, self.prover, &mut self.slots) {
            return None;
        }
        // Lemma 5.4: on success all free variables are bound to parameters.
        let bound = |(v, p): (&Var, &Option<Param>)| {
            p.unwrap_or_else(|| panic!("Lemma 5.4 violated: {v} unbound after success"))
        };
        Some(self.vars.iter().zip(&self.slots).map(bound).collect())
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
    let vars = w.free_vars();
    let mut slots = SlotMap::new();
    for v in &vars {
        slots.intern(*v);
    }
    let goal = Goal::compile(w, slots);
    Ok(DemoStream {
        prover,
        slots: goal.unbound(),
        goal,
        run: Run::default(),
        vars,
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

/// An admissible formula compiled to `demo`'s steps.
#[derive(Debug, Clone)]
pub(crate) struct Goal {
    /// Slot `i` binds `slots.vars()[i]`.
    pub(crate) slots: SlotMap,
    steps: Vec<Step>,
}

#[derive(Debug, Clone)]
enum Step {
    /// Clause 1: `prove`'s answers to a first-order formula.
    Prove(Leaf),
    /// Clause 2: one success, binding nothing, when these steps finitely
    /// fail. (Safety makes them a sentence under the bindings made.)
    Fail(Vec<Step>),
}

/// A first-order formula and the shape the least model answers it by.
#[derive(Debug, Clone)]
struct Leaf {
    formula: Formula,
    /// The slots of its free variables, in [`Formula::free_vars`] order:
    /// the order of `prove`'s answer tuples.
    vars: Vec<usize>,
    model: Option<ModelShape>,
}

#[derive(Debug, Clone)]
enum ModelShape {
    Atom(AtomTemplate),
    Eq(PatTerm, PatTerm),
    /// A positive formula's alternatives, each the steps of a conjunction
    /// of atoms and equalities.
    Exists(Vec<Vec<Step>>),
}

impl Goal {
    /// Compile `w`, numbering its variables after the ones `slots` already
    /// holds.
    pub(crate) fn compile(w: &Formula, mut slots: SlotMap) -> Goal {
        let mut steps = Vec::new();
        push(w, &mut slots, &mut steps);
        Goal { slots, steps }
    }

    /// A binding with every slot unbound.
    pub(crate) fn unbound(&self) -> Slots {
        vec![None; self.slots.len()]
    }

    /// The first answer from the bindings `slots` makes, or `None` when
    /// `demo` finitely fails there.
    pub(crate) fn first(&self, prover: &Prover, mut slots: Slots) -> Option<Slots> {
        let names = self.slots.vars();
        Run::default()
            .next(&self.steps, names, prover, &mut slots)
            .then_some(slots)
    }
}

/// The steps of `w`, dispatched as `demo`'s clauses are. The safety rules
/// are stated over the primitives `¬ ∧ ∃ K`, so a defined connective in a
/// modal position is expanded into them first; a first-order subformula
/// goes to `prove` whole, whatever its shape.
fn push(w: &Formula, slots: &mut SlotMap, out: &mut Vec<Step>) {
    if is_first_order(w) {
        out.push(Step::Prove(Leaf::compile(w, slots)));
        return;
    }
    match w {
        Formula::Not(a) => {
            let mut scope = Vec::new();
            push(a, slots, &mut scope);
            out.push(Step::Fail(scope));
        }
        Formula::Know(a) | Formula::Exists(_, a) => push(a, slots, out),
        Formula::And(a, b) => {
            push(a, slots, out);
            push(b, slots, out);
        }
        // `∨ ⊃ ≡ ∀`: expand one level, then dispatch.
        other => push(&transform::kernel_top(other), slots, out),
    }
}

impl Leaf {
    fn compile(w: &Formula, slots: &mut SlotMap) -> Leaf {
        let vars = w.free_vars().into_iter().map(|v| slots.intern(v)).collect();
        let term = |t: &Term, slots: &mut SlotMap| match *t {
            Term::Param(p) => PatTerm::Const(p),
            Term::Var(v) => PatTerm::Slot(slots.intern(v)),
        };
        let model = match w {
            Formula::Atom(a) => Some(ModelShape::Atom(AtomTemplate::compile(a, slots))),
            Formula::Eq(s, t) => Some(ModelShape::Eq(term(s, slots), term(t, slots))),
            _ => alternatives(w, true).map(|alts| {
                let steps = alts.into_iter().map(|alt| {
                    let leaf = |l| Step::Prove(Leaf::compile(l, slots));
                    alt.into_iter().map(leaf).collect()
                });
                ModelShape::Exists(steps.collect())
            }),
        };
        Leaf {
            formula: w.clone(),
            vars,
            model,
        }
    }

    /// Clause 1 from the bindings `slots` makes: the model's answer when
    /// the leaf's shape has one there, `prove`'s otherwise.
    fn answers<'a>(&self, names: &[Var], prover: &'a Prover, slots: &mut Slots) -> Frame<'a> {
        if let (Some(model), Some(shape)) = (prover.atom_model(), &self.model) {
            match shape {
                ModelShape::Atom(atom) => return select(atom, names, model, slots),
                ModelShape::Eq(s, t) => {
                    if let (Some(s), Some(t)) = (value(*s, slots), value(*t, slots)) {
                        return Frame::once(s == t);
                    }
                }
                ModelShape::Exists(alts) if self.vars.iter().all(|&s| slots[s].is_some()) => {
                    let any = alts.iter().any(|alt| holds(alt, names, prover, slots));
                    return Frame::once(any);
                }
                ModelShape::Exists(_) => {}
            }
        }
        let (mut bound, mut binds) = (HashMap::new(), Vec::new());
        for &s in &self.vars {
            match slots[s] {
                Some(p) => drop(bound.insert(names[s], Term::Param(p))),
                None => binds.push((binds.len(), s)),
            }
        }
        let answers = AnswerIter::new(prover, &self.formula.subst(&bound));
        Frame {
            answers: Answers::Prove(answers),
            binds,
        }
    }
}

/// The matches of `atom` in the least model under `slots`, in `prove`'s
/// answer order, each binding the atom's unbound slots.
fn select<'a>(atom: &AtomTemplate, names: &[Var], model: &'a Database, slots: &Slots) -> Frame<'a> {
    let pattern: Selection = atom.args.iter().map(|a| value(*a, slots)).collect();
    // `(column, slot)` per unbound slot, at its first column; a later
    // column of the same slot must repeat that one.
    let (mut binds, mut repeats) = (Vec::new(), Vec::<(usize, usize)>::new());
    for (col, arg) in atom.args.iter().enumerate() {
        match *arg {
            PatTerm::Slot(s) if slots[s].is_none() => match binds.iter().find(|&&(_, b)| b == s) {
                Some(&(first, _)) => repeats.push((col, first)),
                None => binds.push((col, s)),
            },
            _ => {}
        }
    }
    let mut matches = model.select(atom.pred, pattern);
    if binds.is_empty() {
        return Frame::once(matches.next().is_some());
    }
    // The matches come in column order; `prove` answers an open atom
    // sorted by its free variables.
    let answers = if binds.windows(2).any(|w| names[w[0].1] > names[w[1].1]) {
        let mut by_var = binds.clone();
        by_var.sort_by_key(|&(_, s)| names[s]);
        let repeated = |t: &&[Param]| repeats.iter().all(|&(c, first)| t[c] == t[first]);
        let mut rows: Vec<&[Param]> = matches.filter(repeated).collect();
        rows.sort_by_cached_key(|t| by_var.iter().map(|&(c, _)| t[c]).collect::<Vec<_>>());
        Answers::Sorted(rows.into_iter())
    } else {
        Answers::Matches(matches, repeats)
    };
    Frame { answers, binds }
}

/// A constant, or the binding of a slot.
fn value(arg: PatTerm, slots: &Slots) -> Option<Param> {
    match arg {
        PatTerm::Const(p) => Some(p),
        PatTerm::Slot(s) => slots[s],
    }
}

/// A first-order formula as alternatives, each a conjunction of atoms and
/// equalities in written order: `None` unless every atom, equality and
/// `∃` sits at positive polarity (`positive`, flipped by `¬`) — a
/// universal is no existence test.
fn alternatives(w: &Formula, positive: bool) -> Option<Vec<Vec<&Formula>>> {
    Some(match (w, positive) {
        (Formula::Atom(_) | Formula::Eq(..), true) => vec![vec![w]],
        (Formula::Not(a), _) => alternatives(a, !positive)?,
        (Formula::Exists(_, a), true) => alternatives(a, true)?,
        (Formula::And(a, b), true) | (Formula::Or(a, b), false) => {
            let right = alternatives(b, positive)?;
            alternatives(a, positive)?
                .into_iter()
                .flat_map(|l| right.iter().map(move |r| [l.as_slice(), r].concat()))
                .collect()
        }
        (Formula::And(a, b), false) | (Formula::Or(a, b), true) => {
            let mut either = alternatives(a, positive)?;
            either.extend(alternatives(b, positive)?);
            either
        }
        _ => return None,
    })
}

/// Whether `steps` have an answer from `slots`, which are left as they
/// were.
fn holds(steps: &[Step], names: &[Var], prover: &Prover, slots: &mut Slots) -> bool {
    let mut run = Run::default();
    let found = run.next(steps, names, prover, slots);
    for frame in run.frames {
        frame.unbind(slots);
    }
    found
}

/// The backtracking state of one run of a step list: a frame per step
/// entered.
#[derive(Default)]
struct Run<'a> {
    frames: Vec<Frame<'a>>,
    started: bool,
}

impl<'a> Run<'a> {
    /// Bind the next answer to `steps` into `slots`; false once there is
    /// none, with every slot the run bound unbound again.
    fn next(
        &mut self,
        steps: &[Step],
        names: &[Var],
        prover: &'a Prover,
        slots: &mut Slots,
    ) -> bool {
        // After an answer, redo the last step; at the start, enter the first.
        let mut redo = std::mem::replace(&mut self.started, true);
        loop {
            if !redo {
                let frame = match &steps[self.frames.len()] {
                    Step::Prove(leaf) => leaf.answers(names, prover, slots),
                    Step::Fail(scope) => Frame::once(!holds(scope, names, prover, slots)),
                };
                self.frames.push(frame);
            }
            let Some(top) = self.frames.last_mut() else {
                return false;
            };
            redo = !top.advance(slots);
            if redo {
                top.unbind(slots);
                self.frames.pop();
            } else if self.frames.len() == steps.len() {
                return true;
            }
        }
    }
}

/// One step's answers, and where each binds the slots it binds.
struct Frame<'a> {
    answers: Answers<'a>,
    /// `(position in an answer row, slot)`.
    binds: Vec<(usize, usize)>,
}

enum Answers<'a> {
    /// A test: at most one success, binding nothing.
    Once(bool),
    /// An atom's matches in the least model, in column order; a match
    /// answers when it repeats the column of each `(column, earlier
    /// column)`.
    Matches(Matches<'a>, Vec<(usize, usize)>),
    /// An atom's answers from the least model, re-sorted.
    Sorted(std::vec::IntoIter<&'a [Param]>),
    /// `prove`'s answer tuples.
    Prove(AnswerIter<'a>),
}

impl Frame<'_> {
    fn once(holds: bool) -> Self {
        Frame {
            answers: Answers::Once(holds),
            binds: Vec::new(),
        }
    }

    /// Bind the next answer into `slots`; false when there is none.
    fn advance(&mut self, slots: &mut Slots) -> bool {
        let binds = &self.binds;
        let mut bind = |row: &[Param]| {
            for &(i, s) in binds {
                slots[s] = Some(row[i]);
            }
        };
        match &mut self.answers {
            Answers::Once(holds) => std::mem::take(holds),
            Answers::Matches(matches, repeats) => {
                let repeated = |t: &&[Param]| repeats.iter().all(|&(c, first)| t[c] == t[first]);
                matches.find(repeated).map(bind).is_some()
            }
            Answers::Sorted(rows) => rows.next().map(bind).is_some(),
            Answers::Prove(answers) => answers.next().map(|t| bind(&t)).is_some(),
        }
    }

    fn unbind(&self, slots: &mut Slots) {
        for &(_, s) in &self.binds {
            slots[s] = None;
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
    fn model_answers_an_open_atom_without_asking_the_prover() {
        // Answers come in parameter order and their columns in variable
        // order, both the order the process first interned each name.
        // Names no other test uses are interned here first, in the
        // order the assertions expect, whatever the other test threads
        // interned before.
        let theory = Theory::from_text("e(oa, ob)\ne(oa, oa)\ne(ob, oc)").unwrap();
        let _ = parse("e(x618, y618)").unwrap();
        let mut model = epilog_storage::Database::new();
        for s in theory.sentences() {
            let Formula::Atom(a) = &**s else { continue };
            model.insert(a);
        }
        let p = Prover::new(theory).with_atom_model(model);
        let answers = |src: &str| -> Vec<Vec<String>> {
            demo(&p, &parse(src).unwrap())
                .unwrap()
                .map(|t| t.iter().map(|p| p.name()).collect())
                .collect()
        };
        assert_eq!(answers("e(oa, x618)"), [["oa"], ["ob"]]);
        assert_eq!(answers("e(x618, x618)"), [["oa"]]);
        assert_eq!(
            answers("e(x618, y618)"),
            [["oa", "oa"], ["oa", "ob"], ["ob", "oc"]]
        );
        assert!(answers("e(oc, x618)").is_empty());
        assert!(answers("f(x618)").is_empty());
        assert_eq!(p.sat_calls(), 0);
        assert_eq!(p.memo_len(), 0, "no candidate was put to entails()");
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
