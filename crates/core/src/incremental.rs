//! Incremental integrity checking — the paper's §8 discussion item (4).
//!
//! "Usually a knowledge base will be known to satisfy its constraints.
//! When a (normally) small change is made to it, it should not be
//! necessary to verify all its constraints all over again." (Reiter cites
//! Nicolas 1982 for relational and Lloyd–Topor for deductive databases.)
//!
//! For constraints in the admissible `¬∃x̄ body` form this module
//! implements the Nicolas-style specialization over a commit's exact
//! [`ModelDiff`] — the atoms its new least model gained and lost, derived
//! consequences included. Every atom of `body` is a pattern of one
//! polarity: positive unless an odd number of `¬` sit above it (`K`, `∃`
//! and `∧` keep the polarity, and so does `∨`, which the rewrite spells
//! `¬(¬a ∧ ¬b)`); equalities contribute nothing. An added model atom fires
//! the positive patterns it matches, a removed one the negative patterns,
//! and each match yields a violation instance: `body` with the outer
//! variables the match fixes bound. A constraint no diff atom fires is
//! skipped; the others are checked on their instances only.
//!
//! **Why the diff is enough.** On a definite theory a first-order formula
//! without negated atoms is known iff it holds in the least model, so when
//! every atom sits positively inside its own `K` (which compilation
//! demands) `body` can only become true through a positive pattern gaining
//! an atom or a negative one losing one. A state that satisfied the
//! constraint before the commit therefore violates it afterwards only in
//! an instance some diff atom fires — derived atoms included, so no rule
//! analysis is needed. A commit without a diff (it changed the rules, or
//! the theory is not definite) re-checks every constraint in full, and a
//! constraint outside the compilable fragment re-checks itself in full at
//! every commit.
//!
//! **Evaluation.** A constraint is compiled once, at registration. The
//! constraint holds iff `demo` finitely fails on `∃x̄ body` (Theorem 5.1
//! with Lemma 5.2 — the violation is subjective); a full check's first
//! answer names a rejection's witnesses, and an instance is the same run
//! from the bindings a diff atom's match fixes. When the prover carries a
//! least model, every check — registration, commit, `satisfies_constraints`
//! — runs `body` as a *plan* compiled at registration: slot-numbered steps
//! over the model, in `demo`'s left-to-right order.
//!
//! * a positive `K atom` (also under `∃`) is a join step, a
//!   [`Relation::select`](epilog_storage::Relation::select) that binds the
//!   atom's unbound variables;
//! * `¬ φ` is an anti-join: `φ`'s steps find no match under the bindings;
//! * `∃` binds nothing of its own;
//! * `s = t` or `K (s = t)` between bound terms is a filter;
//! * a first-order formula under `K` made of atoms, `=`, `∧`, `∨` and `∃`,
//!   every free variable bound, is an existence test over the model.
//!
//! Exactness is the argument above: on a definite `Σ` the least model
//! holds exactly the entailed ground atoms, so such a positive formula is
//! known iff it holds there, and under unique names a closed atom-free
//! formula has one truth value. A join step yields its matches in the
//! order `prove` answers the atom — sorted by its unbound variables in
//! [`Formula::free_vars`] order, which is not always column order — so the
//! plan's first answer binds what `demo`'s does, and names the same
//! witnesses. Without a least model, or for a body of any other shape (a
//! `K`-formula with an unbound free variable, a universal or a negated
//! atom inside `K`), a check runs `body` through
//! [`demo`](mod@crate::demo) itself, which stays the definition the tests
//! compare the plan against. Either way a check looks up the atoms the
//! violation names instead of expanding its quantifiers over the domain.

use crate::ask::certain;
use crate::demo::{self, Env};
use epilog_prover::Prover;
use epilog_storage::{AtomTemplate, Database, PatTerm, Selection, SlotMap, Tuple};
use epilog_syntax::formula::{Atom, Formula};
use epilog_syntax::{admissibility, admissible_constraint, is_first_order, Param, Term, Var};

/// A registered integrity constraint, compiled once at registration.
#[derive(Debug, Clone)]
pub struct CompiledConstraint {
    /// The constraint sentence, as registered.
    pub original: Formula,
    /// Its violation `∃x̄ body`; `None` outside the admissible fragment
    /// this module specializes, where a check runs in full, as
    /// [`crate::ic_satisfaction`] does.
    violation: Option<Violation>,
}

/// The violation `∃x̄ body` of a constraint whose `¬∃x̄ body` rewrite is
/// admissible and modal, with every atom positive inside its own `K`.
#[derive(Debug, Clone)]
struct Violation {
    /// The existentially quantified variables `x̄`.
    vars: Vec<Var>,
    /// The matrix `body`, in kernel form.
    body: Formula,
    patterns: Patterns,
    /// The variables of `body`'s atoms, numbered: the slots of a binding.
    slots: SlotMap,
    /// `patterns.on_added`, then `patterns.on_removed`, compiled: what a
    /// diff atom is matched against.
    triggers: Vec<AtomTemplate>,
    /// `patterns.witnesses`, compiled.
    witnesses: Vec<AtomTemplate>,
    /// `body` over the least model; `None` for a body of another shape.
    plan: Option<Plan>,
}

/// The atoms of a violation body, sorted by what can make them flip it.
#[derive(Debug, Clone, Default)]
struct Patterns {
    /// At positive polarity: an added model atom matching one can newly
    /// violate the constraint.
    on_added: Vec<Atom>,
    /// Under an odd number of `¬`: a removed model atom matching one can.
    on_removed: Vec<Atom>,
    /// The `K`-conjunct atoms (only `∧` and `K` above them): what a
    /// rejection names as its witnesses.
    witnesses: Vec<Atom>,
}

/// A binding of a violation's variables, by slot.
type Slots = Vec<Option<Param>>;

/// A violation body compiled to steps over the least model, once from no
/// binding and once per trigger from the outer variables its match fixes.
#[derive(Debug, Clone)]
struct Plan {
    full: Vec<Step>,
    /// Indexed like `Violation::triggers`.
    seeded: Vec<Vec<Step>>,
}

/// One step of a plan. Which slots are bound before each step is fixed
/// when the plan is compiled.
#[derive(Debug, Clone)]
enum Step {
    /// A positive atom: every model tuple matching it binds its unbound
    /// slots in turn.
    Join(Join),
    /// `s = t` between bound terms.
    Filter(PatTerm, PatTerm),
    /// Whether one of `alts` finds a match must be `holds`: an anti-join
    /// (`¬ φ`, one alternative) or an existence test (a first-order
    /// formula's conjunctions of atoms and equalities). The slots the
    /// alternatives bind are `scratch`, unbound again afterwards.
    Test {
        alts: Vec<Vec<Step>>,
        holds: bool,
        scratch: Vec<usize>,
    },
}

#[derive(Debug, Clone)]
struct Join {
    atom: AtomTemplate,
    /// `(column, slot)` for each slot the step binds, at its first column.
    binds: Vec<(usize, usize)>,
    /// `(column, earlier column)`: a slot the step binds, met again.
    repeats: Vec<(usize, usize)>,
    /// The columns of `binds` in `prove`'s answer order, when that is not
    /// column order.
    order: Option<Vec<usize>>,
}

impl CompiledConstraint {
    /// Compile a constraint (in natural `∀/⊃` or already-rewritten form).
    pub fn compile(ic: &Formula) -> Self {
        CompiledConstraint {
            original: ic.clone(),
            violation: Violation::of(ic),
        }
    }

    /// Whether the constraint is in the `¬∃x̄ body` fragment, so a commit
    /// with a model diff checks it on the instances the diff fires only.
    pub fn is_routed(&self) -> bool {
        self.violation.is_some()
    }

    /// Whether its violation body compiled to a plan, so every check of it
    /// against a prover carrying a least model runs that plan.
    pub fn has_plan(&self) -> bool {
        self.violation.as_ref().is_some_and(|v| v.plan.is_some())
    }

    /// Run the plan and `demo` side by side on `prover`'s state — the full
    /// check, then every instance `diff` seeds — and compare each pair of
    /// first answers: whether there is one, every binding it makes, and
    /// the witnesses it names. Returns how many runs were compared (none
    /// when the constraint has no plan or the prover no least model), or
    /// the first disagreement. A differential test's hook: checks run
    /// one route only.
    pub fn compare_plan_with_demo(
        &self,
        prover: &Prover,
        diff: Option<&ModelDiff>,
    ) -> Result<usize, String> {
        let Some(v) = &self.violation else {
            return Ok(0);
        };
        let Some((plan, model)) = v.planned(prover) else {
            return Ok(0);
        };
        let seeded = diff.into_iter().flat_map(|d| v.seeds(d));
        let runs = std::iter::once((None, v.unbound())).chain(seeded.map(|(i, s)| (Some(i), s)));
        let mut compared = 0;
        for (seed, env) in runs {
            let with_witnesses = |a: Option<Slots>| a.map(|a| (v.witnesses_of(&a), a));
            let by_plan = with_witnesses(plan.first(seed, model, env.clone()));
            let by_demo = with_witnesses(v.demo_first(prover, env));
            if by_plan != by_demo {
                return Err(format!(
                    "`{}`, seed {seed:?}: plan {by_plan:?}, demo {by_demo:?}",
                    self.original
                ));
            }
            compared += 1;
        }
        Ok(compared)
    }

    /// Check the constraint in full against `prover`'s state: `None` when
    /// it holds, else the violation's witnesses — the `K`-conjunct atoms
    /// under the first answer on the body, the minimal facts responsible
    /// in the sense of consistency-based belief change (the least binding
    /// in the prover's answer order, conjuncts left to right). Empty
    /// outside the fragment, which has no patterns.
    pub(crate) fn violated(&self, prover: &Prover) -> Option<Vec<Atom>> {
        // Theorem 5.1 is about satisfiable databases; an unsatisfiable one
        // entails every sentence.
        if let Some(v) = &self.violation {
            if !prover.satisfiable() {
                return None;
            }
            let answer = v.first(prover, None, v.unbound())?;
            return Some(v.witnesses_of(&answer));
        }
        // Outside the fragment: `demo` on an admissible rewrite (in kernel
        // form already), the Levesque reduction on any other.
        let rewritten = admissible_constraint(&self.original);
        let holds = if admissibility(&rewritten).is_admissible() {
            !prover.satisfiable() || demo::stream(prover, rewritten, Env::new()).next().is_some()
        } else {
            certain(prover, &self.original)
        };
        (!holds).then(Vec::new)
    }
}

impl Violation {
    /// The violation of `ic`, when its rewrite is in the fragment.
    fn of(ic: &Formula) -> Option<Self> {
        let rewritten = admissible_constraint(ic);
        // `demo` fails on `body` iff it succeeds on an admissible modal
        // rewrite; a first-order one would go to `prove` whole.
        if !admissibility(&rewritten).is_admissible() || is_first_order(&rewritten) {
            return None;
        }
        let Formula::Not(inner) = rewritten else {
            return None;
        };
        let mut vars = Vec::new();
        let mut body = *inner;
        while let Formula::Exists(x, b) = body {
            vars.push(x);
            body = *b;
        }
        let mut patterns = Patterns::default();
        collect_patterns(&body, true, true, true, &mut patterns).ok()?;
        let mut slots = SlotMap::new();
        let mut compile = |atoms: &[Atom]| -> Vec<AtomTemplate> {
            atoms
                .iter()
                .map(|a| AtomTemplate::compile(a, &mut slots))
                .collect()
        };
        let mut triggers = compile(&patterns.on_added);
        triggers.extend(compile(&patterns.on_removed));
        let witnesses = compile(&patterns.witnesses);
        let plan = Plan::compile(&body, &vars, &triggers, &mut slots);
        Some(Violation {
            vars,
            body,
            patterns,
            slots,
            triggers,
            witnesses,
            plan,
        })
    }

    /// A binding with every slot unbound.
    fn unbound(&self) -> Slots {
        vec![None; self.slots.len()]
    }

    /// The plan and the least model it runs over, when there are both.
    fn planned<'p>(&self, prover: &'p Prover) -> Option<(&Plan, &'p Database)> {
        Some((self.plan.as_ref()?, prover.atom_model()?))
    }

    /// The first answer on `body` from `env` — which binds what trigger
    /// `seed` fixes, or nothing — through the plan when there is one and
    /// the prover carries a least model, through `demo` otherwise; `None`
    /// when the run finds none.
    fn first(&self, prover: &Prover, seed: Option<usize>, env: Slots) -> Option<Slots> {
        match self.planned(prover) {
            Some((plan, model)) => plan.first(seed, model, env),
            None => self.demo_first(prover, env),
        }
    }

    /// `demo`'s first answer on `body` from `env`.
    fn demo_first(&self, prover: &Prover, env: Slots) -> Option<Slots> {
        let vars = self.slots.vars();
        let env: Env = vars
            .iter()
            .zip(env)
            .filter_map(|(v, p)| Some((*v, p?)))
            .collect();
        let answer = demo::stream(prover, self.body.clone(), env).next()?;
        Some(vars.iter().map(|v| answer.get(v).copied()).collect())
    }

    /// The witness atoms under `answer`, which binds every one of their
    /// variables (each is a conjunct the answer matched).
    fn witnesses_of(&self, answer: &Slots) -> Vec<Atom> {
        self.witnesses
            .iter()
            .map(|w| {
                Atom::new(
                    w.pred,
                    w.ground(answer).iter().map(|p| Term::Param(*p)).collect(),
                )
            })
            .collect()
    }

    /// The instances a diff starts `body` from: for every atom of the diff
    /// a trigger matches (`on_added` over the added atoms, `on_removed`
    /// over the removed), the trigger's index and the outer variables the
    /// match fixes (a variable the pattern binds under an inner `∃` stays
    /// unbound — the atom says which instantiation to re-check, not how
    /// the inner search ends). The constraint, restricted to those atoms,
    /// is violated iff `body` has an answer from one of them.
    fn seeds<'a>(&'a self, diff: &'a ModelDiff) -> impl Iterator<Item = (usize, Slots)> + 'a {
        let added = self.patterns.on_added.len();
        self.triggers
            .iter()
            .enumerate()
            .flat_map(move |(i, trigger)| {
                let atoms = if i < added {
                    &diff.added
                } else {
                    &diff.removed
                };
                let tuples = atoms
                    .relation(trigger.pred)
                    .into_iter()
                    .flat_map(|r| r.iter());
                tuples.filter_map(move |t| Some((i, self.seed(trigger, t)?)))
            })
    }

    /// The outer variables `trigger` binds matching `tuple`, if it does.
    fn seed(&self, trigger: &AtomTemplate, tuple: &[Param]) -> Option<Slots> {
        let mut env = self.unbound();
        for (arg, &p) in trigger.args.iter().zip(tuple) {
            match *arg {
                PatTerm::Const(q) if q != p => return None,
                PatTerm::Const(_) => {}
                PatTerm::Slot(s) if *env[s].get_or_insert(p) != p => return None,
                PatTerm::Slot(_) => {}
            }
        }
        for (slot, v) in env.iter_mut().zip(self.slots.vars()) {
            if !self.vars.contains(v) {
                *slot = None;
            }
        }
        Some(env)
    }
}

impl Plan {
    /// Compile `body` from no binding and from each trigger's outer
    /// variables; `None` when some part of it has no step.
    fn compile(
        body: &Formula,
        outer: &[Var],
        triggers: &[AtomTemplate],
        slots: &mut SlotMap,
    ) -> Option<Plan> {
        let full = Compiler::new(slots, Vec::new()).steps(body)?;
        let seeded = triggers
            .iter()
            .map(|trigger| {
                let fixed = trigger
                    .args
                    .iter()
                    .filter_map(|a| match *a {
                        PatTerm::Slot(s) if outer.contains(&slots.vars()[s]) => Some(s),
                        _ => None,
                    })
                    .collect();
                Compiler::new(slots, fixed).steps(body)
            })
            .collect::<Option<_>>()?;
        Some(Plan { full, seeded })
    }

    /// The first full match of the steps for `seed` from `env`.
    fn first(&self, seed: Option<usize>, model: &Database, mut env: Slots) -> Option<Slots> {
        let steps = seed.map_or(&self.full, |i| &self.seeded[i]);
        search(steps, model, &mut env).then_some(env)
    }
}

/// The plan compiler's state: which slots are bound at the step being
/// compiled, and whether the order of its matches matters.
struct Compiler<'s> {
    slots: &'s mut SlotMap,
    bound: Vec<bool>,
    /// False inside a test, which asks only whether a match exists.
    ordered: bool,
}

impl<'s> Compiler<'s> {
    fn new(slots: &'s mut SlotMap, fixed: Vec<usize>) -> Self {
        let mut bound = vec![false; slots.len()];
        for s in fixed {
            bound[s] = true;
        }
        Compiler {
            slots,
            bound,
            ordered: true,
        }
    }

    /// The steps of a kernel-form formula, dispatched as `demo`'s clauses
    /// are: a first-order formula is one step; `K` and `∃` add nothing;
    /// `∧` runs left to right; `¬` is an anti-join.
    fn steps(&mut self, w: &Formula) -> Option<Vec<Step>> {
        let mut out = Vec::new();
        self.push(w, &mut out)?;
        Some(out)
    }

    fn push(&mut self, w: &Formula, out: &mut Vec<Step>) -> Option<()> {
        if is_first_order(w) {
            out.push(self.first_order(w)?);
            return Some(());
        }
        match w {
            Formula::Know(a) | Formula::Exists(_, a) => self.push(a, out),
            Formula::And(a, b) => {
                self.push(a, out)?;
                self.push(b, out)
            }
            Formula::Not(a) => {
                let alt = self.branch(|c| c.steps(a))?;
                out.push(test(false, vec![alt]));
                Some(())
            }
            _ => None,
        }
    }

    /// The step `prove` answers a first-order formula by: a join for an
    /// atom, a filter for an equality between bound terms, an existence
    /// test for a positive formula whose free variables are all bound.
    /// (The rewrite names every quantifier apart, so a quantified variable
    /// is unbound where its scope starts.)
    fn first_order(&mut self, w: &Formula) -> Option<Step> {
        match w {
            Formula::Atom(a) => Some(Step::Join(self.join(a))),
            Formula::Eq(s, t) => Some(Step::Filter(self.bound_term(s)?, self.bound_term(t)?)),
            _ => {
                let vars = w.free_vars();
                if vars.iter().any(|v| !self.is_bound(*v)) {
                    return None;
                }
                let alts = alternatives(w, true)?
                    .into_iter()
                    .map(|alt| self.branch(|c| c.conjunction(&alt)))
                    .collect::<Option<_>>()?;
                Some(test(true, alts))
            }
        }
    }

    /// The steps of a conjunction of atoms and equalities, left to right.
    fn conjunction(&mut self, literals: &[&Formula]) -> Option<Vec<Step>> {
        literals.iter().map(|w| self.first_order(w)).collect()
    }

    /// Compile `f` from the bindings here as a test's alternative: its
    /// order does not matter, and what it binds is unbound after it.
    fn branch(&mut self, f: impl FnOnce(&mut Self) -> Option<Vec<Step>>) -> Option<Vec<Step>> {
        let (bound, ordered) = (self.bound.clone(), self.ordered);
        self.ordered = false;
        let steps = f(self);
        self.bound = bound;
        self.ordered = ordered;
        steps
    }

    fn join(&mut self, a: &Atom) -> Join {
        let atom = AtomTemplate::compile(a, self.slots);
        self.bound.resize(self.slots.len(), false);
        let (mut binds, mut repeats) = (Vec::new(), Vec::<(usize, usize)>::new());
        for (col, arg) in atom.args.iter().enumerate() {
            let PatTerm::Slot(s) = *arg else { continue };
            match binds.iter().find(|&&(_, b)| b == s) {
                Some(&(first, _)) => repeats.push((col, first)),
                None if !self.bound[s] => binds.push((col, s)),
                None => {}
            }
        }
        for &(_, s) in &binds {
            self.bound[s] = true;
        }
        // `prove` sorts an open atom's answers by its free variables.
        let mut by_var = binds.clone();
        by_var.sort_by_key(|&(_, s)| self.slots.vars()[s]);
        let order = (self.ordered && by_var != binds).then(|| by_var.iter().map(|b| b.0).collect());
        Join {
            atom,
            binds,
            repeats,
            order,
        }
    }

    fn is_bound(&self, v: Var) -> bool {
        self.slots.get(v).is_some_and(|s| self.bound[s])
    }

    fn bound_term(&self, t: &Term) -> Option<PatTerm> {
        match *t {
            Term::Param(p) => Some(PatTerm::Const(p)),
            Term::Var(v) => {
                let s = self.slots.get(v)?;
                self.bound[s].then_some(PatTerm::Slot(s))
            }
        }
    }
}

/// A test step over `alts`; its scratch slots are the ones their joins
/// bind.
fn test(holds: bool, alts: Vec<Vec<Step>>) -> Step {
    let mut scratch: Vec<usize> = alts
        .iter()
        .flatten()
        .flat_map(|step| match step {
            Step::Join(j) => j.binds.iter().map(|b| b.1).collect(),
            _ => Vec::new(),
        })
        .collect();
    scratch.sort_unstable();
    scratch.dedup();
    Step::Test {
        alts,
        holds,
        scratch,
    }
}

/// A first-order formula in kernel form as alternatives, each a
/// conjunction of atoms and equalities in written order: `None` unless
/// every atom and equality sits at positive polarity (`positive`, flipped
/// by `¬`) and every `∃` too — a universal is no existence test.
fn alternatives(w: &Formula, positive: bool) -> Option<Vec<Vec<&Formula>>> {
    Some(match (w, positive) {
        (Formula::Atom(_) | Formula::Eq(..), true) => vec![vec![w]],
        (Formula::Not(a), _) => alternatives(a, !positive)?,
        (Formula::Exists(_, a), true) => alternatives(a, true)?,
        (Formula::And(a, b), true) => {
            let right = alternatives(b, true)?;
            alternatives(a, true)?
                .into_iter()
                .flat_map(|l| right.iter().map(move |r| [l.as_slice(), r].concat()))
                .collect()
        }
        (Formula::And(a, b), false) => {
            let mut either = alternatives(a, false)?;
            either.extend(alternatives(b, false)?);
            either
        }
        _ => return None,
    })
}

/// Whether `steps` have a match from `env` over `model`. On success `env`
/// holds the first one; otherwise it is as it was.
fn search(steps: &[Step], model: &Database, env: &mut Slots) -> bool {
    let Some((step, rest)) = steps.split_first() else {
        return true;
    };
    match step {
        Step::Join(j) => j.search(rest, model, env),
        Step::Filter(s, t) => value(*s, env) == value(*t, env) && search(rest, model, env),
        Step::Test {
            alts,
            holds,
            scratch,
        } => {
            let found = alts.iter().any(|alt| search(alt, model, env));
            for &s in scratch {
                env[s] = None;
            }
            found == *holds && search(rest, model, env)
        }
    }
}

impl Join {
    fn search(&self, rest: &[Step], model: &Database, env: &mut Slots) -> bool {
        let pattern: Selection = self.atom.args.iter().map(|a| value(*a, env)).collect();
        let repeated = |t: &&Tuple| self.repeats.iter().all(|&(c, first)| t[c] == t[first]);
        let mut matches = model.select(self.atom.pred, &pattern).filter(repeated);
        let extend = |t: &Tuple| {
            for &(c, s) in &self.binds {
                env[s] = Some(t[c]);
            }
            search(rest, model, env)
        };
        let found = match &self.order {
            None => matches.any(extend),
            Some(cols) => {
                let mut sorted: Vec<&Tuple> = matches.collect();
                sorted.sort_by(|a, b| cols.iter().map(|&c| a[c]).cmp(cols.iter().map(|&c| b[c])));
                sorted.into_iter().any(extend)
            }
        };
        if !found {
            for &(_, s) in &self.binds {
                env[s] = None;
            }
        }
        found
    }
}

/// A constant, or the binding of a slot.
fn value(arg: PatTerm, env: &Slots) -> Option<Param> {
    match arg {
        PatTerm::Const(p) => Some(p),
        PatTerm::Slot(s) => env[s],
    }
}

/// A commit's exact model diff, derived consequences included.
#[derive(Debug, Clone, Default)]
pub struct ModelDiff {
    /// Atoms of the new least model the old one lacks.
    pub added: Database,
    /// Atoms of the old least model the new one lacks.
    pub removed: Database,
}

/// How the constraints of one update were verified — the per-phase
/// accounting surfaced by `CommitReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Constraints skipped outright: no atom of the model diff matches
    /// one of their patterns.
    pub skipped: u64,
    /// Constraints checked on the violation instances the diff fires.
    pub specialized: u64,
    /// Constraints re-checked in full: the commit has no model diff, or
    /// the constraint does not compile.
    pub full: u64,
}

/// Check a commit against the registered `constraints`: `prover` holds
/// its candidate state and `diff` is the exact model diff from the state
/// before, or `None` when the commit has none (it changed the rules, or
/// the theory is not definite). Returns the first violated constraint, as
/// registered, with its witnesses.
///
/// With a diff, each compiled constraint is checked on the instances its
/// atoms fire and skipped when they fire none (exact by the argument in
/// the [module docs](self)); without one, and for a constraint that does
/// not compile, it is checked in full. Either way it is counted in
/// `stats`. On a definite database the least model is the whole
/// evaluator: a check makes no SAT call and never walks the domain.
pub(crate) fn check<'c>(
    constraints: &'c [CompiledConstraint],
    prover: &Prover,
    diff: Option<&ModelDiff>,
    stats: &mut CheckStats,
) -> Option<(&'c Formula, Vec<Atom>)> {
    constraints.iter().find_map(|c| {
        let witnesses = match (&c.violation, diff) {
            (Some(v), Some(diff)) => {
                let mut seeds = v.seeds(diff).peekable();
                if seeds.peek().is_none() {
                    stats.skipped += 1;
                    return None;
                }
                stats.specialized += 1;
                if !seeds.any(|(i, env)| v.first(prover, Some(i), env).is_some()) {
                    return None;
                }
                // The rejection names the first violation in answer
                // order, which need not be the instance that fired.
                c.violated(prover).unwrap_or_default()
            }
            _ => {
                stats.full += 1;
                c.violated(prover)?
            }
        };
        Some((&c.original, witnesses))
    })
}

/// Sort the atoms of a violation body into `out`. The rewrite is in
/// kernel form (`¬ ∧ ∃ K` over atoms and equalities). `positive` is the
/// polarity (`¬` flips it), `conjunct` holds while only `∧` and `K` lie
/// above, and `in_scope` is the polarity inside the innermost `K` (the
/// body's own for an atom under none). An atom negated inside its scope
/// is returned as the error: whether `Σ` entails such a scope is not a
/// function of the least model — `K (p(a) ⊃ q(a))` turns true when a
/// fact lets a rule derive `q(a)` from `p(a)` — so no diff routes it.
fn collect_patterns(
    w: &Formula,
    positive: bool,
    in_scope: bool,
    conjunct: bool,
    out: &mut Patterns,
) -> Result<(), Atom> {
    match w {
        Formula::Atom(a) if !in_scope => Err(a.clone()),
        Formula::Atom(a) => {
            if conjunct {
                out.witnesses.push(a.clone());
            }
            if positive {
                out.on_added.push(a.clone());
            } else {
                out.on_removed.push(a.clone());
            }
            Ok(())
        }
        Formula::Eq(..) => Ok(()),
        Formula::Not(a) => collect_patterns(a, !positive, !in_scope, false, out),
        Formula::And(a, b) => {
            collect_patterns(a, positive, in_scope, conjunct, out)?;
            collect_patterns(b, positive, in_scope, conjunct, out)
        }
        Formula::Exists(_, a) => collect_patterns(a, positive, in_scope, false, out),
        Formula::Know(a) => collect_patterns(a, positive, true, conjunct, out),
        other => unreachable!("admissible_constraint leaves no `{other}` in kernel form"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DbError, EpistemicDb, Rejection};
    use epilog_syntax::{parse, Pred, Theory};

    fn ga(src: &str) -> Atom {
        match parse(src).unwrap() {
            Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        }
    }

    /// The registered list a database would hold for `ics`.
    fn compiled(ics: &[&str]) -> Vec<CompiledConstraint> {
        ics.iter()
            .map(|ic| CompiledConstraint::compile(&parse(ic).unwrap()))
            .collect()
    }

    fn checker() -> Vec<CompiledConstraint> {
        compiled(&[
            "forall x. K emp(x) -> K (exists y. ss(x, y))",
            "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
        ])
    }

    /// The patterns of a constraint in the fragment.
    fn patterns(ic: &str) -> Patterns {
        let c = CompiledConstraint::compile(&parse(ic).unwrap());
        c.violation.expect("in the fragment").patterns
    }

    fn diff(added: &[&str], removed: &[&str]) -> ModelDiff {
        ModelDiff {
            added: added.iter().map(|a| ga(a)).collect(),
            removed: removed.iter().map(|a| ga(a)).collect(),
        }
    }

    /// The verdict (the violated constraint, printed) and route.
    fn check(
        ck: &[CompiledConstraint],
        prover: &Prover,
        diff: Option<&ModelDiff>,
    ) -> (Option<String>, CheckStats) {
        let mut stats = CheckStats::default();
        let hit = super::check(ck, prover, diff, &mut stats).map(|(ic, _)| ic.to_string());
        (hit, stats)
    }

    fn preds(atoms: &[Atom]) -> Vec<Pred> {
        let mut v: Vec<Pred> = atoms.iter().map(|a| a.pred).collect();
        v.dedup();
        v
    }

    /// Register `ics` on a database over `src`, commit `ops` (`+atom`
    /// asserts, `-atom` retracts) and return the route, or the rejection.
    fn commit_ops(src: &str, ics: &[&str], ops: &[&str]) -> Result<CheckStats, Box<Rejection>> {
        let mut db = EpistemicDb::from_text(src).unwrap();
        for ic in ics {
            db.add_constraint(parse(ic).unwrap()).unwrap();
        }
        let mut txn = db.transaction();
        for op in ops {
            let (sign, w) = op.split_at(1);
            let w = parse(w).unwrap();
            txn = if sign == "+" {
                txn.assert(w)
            } else {
                txn.retract(w)
            };
        }
        match txn.commit() {
            Ok(report) => Ok(report.checks),
            Err(DbError::ConstraintViolated(r)) => {
                assert!(db.satisfies_constraints(), "a rejection leaves no trace");
                Err(r)
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// [`commit_ops`] with the rejection reduced to the constraint it names.
    fn commit(src: &str, ics: &[&str], ops: &[&str]) -> Result<CheckStats, Formula> {
        commit_ops(src, ics, ops).map_err(|r| r.constraint)
    }

    /// What [`commit`] returns when `ic` refuses the commit.
    fn rejected(ic: &str) -> Result<CheckStats, Formula> {
        Err(parse(ic).unwrap())
    }

    const EMP_SS: &str = "forall x. K emp(x) -> exists y. K ss(x, y)";
    const FD: &str = "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z";

    fn routed(specialized: u64, skipped: u64) -> CheckStats {
        CheckStats {
            skipped,
            specialized,
            full: 0,
        }
    }

    #[test]
    fn compilation_extracts_patterns() {
        let c = patterns("forall x. K emp(x) -> K (exists y. ss(x, y))");
        assert_eq!(preds(&c.on_added), vec![Pred::new("emp", 1)]);
        let c2 = patterns(FD);
        // Two positive `ss` patterns, both witnesses.
        assert_eq!(c2.on_added.len(), 2);
        assert_eq!(preds(&c2.on_added), vec![Pred::new("ss", 2)]);
        assert_eq!(c2.witnesses, c2.on_added);
        // Atoms under `K ∃`, `∃ K` and `K ∨` are patterns too, but not
        // witnesses: the binding of x̄ does not ground them all.
        let c3 = patterns("forall x. K emp(x) & K (exists y. p(x, y)) & (exists y. K r(x, y)) & K (s(x) | t(x)) -> K q(x)");
        let names: Vec<String> = c3.on_added.iter().map(|a| a.pred.name()).collect();
        assert_eq!(names, ["emp", "p", "r", "s", "t"]);
        assert_eq!(preds(&c3.on_removed), vec![Pred::new("q", 1)]);
        assert_eq!(preds(&c3.witnesses), vec![Pred::new("emp", 1)]);
    }

    #[test]
    fn irrelevant_updates_skip_all_constraints() {
        let ck = checker();
        let prover =
            Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)\nhobby(Mary, chess)").unwrap());
        let (hit, stats) = check(&ck, &prover, Some(&diff(&["hobby(Mary, chess)"], &[])));
        assert!(hit.is_none());
        assert_eq!(stats, routed(0, 2), "no constraint triggers on hobby");
    }

    #[test]
    fn relevant_update_detects_violation() {
        let ck = checker();
        // Asserting emp(Sue) with no number on file: violated.
        let prover = Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)").unwrap());
        let (hit, _) = check(&ck, &prover, Some(&diff(&["emp(Sue)"], &[])));
        assert!(hit.unwrap().contains("emp"));
    }

    #[test]
    fn relevant_update_passes_when_satisfied() {
        let ck = checker();
        let prover = Prover::new(
            Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)\nss(Sue, n2)").unwrap(),
        );
        let (hit, stats) = check(&ck, &prover, Some(&diff(&["emp(Sue)"], &[])));
        assert!(hit.is_none());
        assert_eq!(stats, routed(1, 1));
    }

    #[test]
    fn fd_violation_caught_incrementally() {
        let ck = checker();
        let prover = Prover::new(Theory::from_text("ss(Mary, n1)\nss(Mary, n2)").unwrap());
        let (hit, _) = check(&ck, &prover, Some(&diff(&["ss(Mary, n2)"], &[])));
        assert!(hit.unwrap().contains("y = z"));
    }

    #[test]
    fn incremental_agrees_with_full_on_fact_databases() {
        let ck = checker();
        // A family of states and updates; the routed verdict must match
        // the full recheck whenever the *prior* state satisfied the
        // constraints (the incremental premise).
        let cases = [
            ("ss(Mary, n1)\nemp(Mary)", "emp(Mary)", false),
            ("ss(Mary, n1)\nemp(Mary)\nemp(Sue)", "emp(Sue)", true),
            ("ss(Mary, n1)\nss(Mary, n2)", "ss(Mary, n2)", true),
            ("ss(Mary, n1)\nss(Sue, n2)", "ss(Sue, n2)", false),
            ("emp(e0)\nss(e0, n0)\nemp(e1)\nss(e1, n1)", "emp(e0)", false),
            ("emp(e0)\nss(e0, n0)\nemp(Norma)", "emp(Norma)", true),
        ];
        for (src, fact, violated) in cases {
            let prover = Prover::new(Theory::from_text(src).unwrap());
            let (inc, _) = check(&ck, &prover, Some(&diff(&[fact], &[])));
            let (full, stats) = check(&ck, &prover, None);
            assert_eq!(inc, full, "divergence on {src:?} + {fact}");
            assert_eq!(inc.is_some(), violated, "{src:?} + {fact}");
            assert_eq!(stats.skipped + stats.specialized, 0, "no diff: full");
        }
    }

    #[test]
    fn incremental_check_through_routed_prover() {
        // Extensional update states are definite, so the checker's
        // entailment questions ride the engine-backed fast path.
        let ck = checker();
        let bad = crate::engine::prover_for(
            Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)").unwrap(),
        );
        assert!(bad.atom_model().is_some());
        assert!(check(&ck, &bad, Some(&diff(&["emp(Sue)"], &[])))
            .0
            .is_some());
        let good = crate::engine::prover_for(Theory::from_text("emp(Mary)\nss(Mary, n1)").unwrap());
        assert!(check(&ck, &good, Some(&diff(&["emp(Mary)"], &[])))
            .0
            .is_none());
    }

    #[test]
    fn rule_chains_to_triggers_force_full_check() {
        // A rule derives emp from hired: asserting hired(Sue) violates
        // the emp constraint through a derived atom, which is in the
        // model diff — the specialization sees it without a full check.
        let src = "ss(Mary, n1)\nemp(Mary)\nforall x. hired(x) -> emp(x)";
        let ics = [EMP_SS, FD];
        assert_eq!(commit(src, &ics, &["+hired(Sue)"]), rejected(EMP_SS));
        assert_eq!(commit(src, &ics, &["+emp(Sue)"]), rejected(EMP_SS));
        assert_eq!(
            commit(src, &ics, &["+hired(Sue)", "+ss(Sue, n2)"]),
            Ok(routed(2, 0))
        );
    }

    #[test]
    fn irrelevant_rules_keep_the_specialization() {
        // Rules whose heads never reach a trigger predicate add derived
        // atoms nothing matches: the FD stays skipped.
        let src = "ss(Mary, n1)\nemp(Mary)\nforall x. emp(x) -> person(x)\nss(Sue, n2)";
        assert_eq!(
            commit(src, &[EMP_SS, FD], &["+emp(Sue)"]),
            Ok(routed(1, 1)),
            "only the emp constraint is checked"
        );
    }

    #[test]
    fn self_recursive_trigger_pred_forces_full_check() {
        // A symmetry rule re-derives the trigger predicate itself: the
        // asserted fact is not the only new trigger atom, and the derived
        // one is in the diff.
        let src = "ss(Mary, n1)\nforall x, y. ss(x, y) -> ss(y, x)";
        assert_eq!(commit(src, &[FD], &["+ss(Sue, n2)"]), Ok(routed(1, 0)));
        // ss(n1, Joe) derives ss(Joe, n1): n1 already numbers Mary.
        assert_eq!(commit(src, &[FD], &["+ss(n1, Joe)"]), rejected(FD));
    }

    #[test]
    fn engine_only_rules_are_visible_to_routing() {
        // `forall x, z. p(x) -> q(x)` fails the syntactic range
        // restriction, so Theory::rules() omits it — but the Datalog
        // engine evaluates it, and what it derives is in the model diff.
        let src = "forall x, z. p(x) -> q(x)";
        assert!(Theory::from_text(src).unwrap().rules().is_empty());
        let ic = "forall x. K q(x) -> K r(x)";
        assert_eq!(commit(src, &[ic], &["+p(a)"]), rejected(ic));
        assert_eq!(commit(src, &[ic], &["+p(a)", "+r(a)"]), Ok(routed(1, 0)));
    }

    #[test]
    fn k_scoped_atoms_route_on_the_model_diff() {
        // Atoms under `K ∃`, `∃ K` and `K ∨` flip a constraint like any
        // other: each of these commits would violate its constraint.
        let cases = [
            (
                "emp(a)",
                "forall x. K emp(x) & K (exists y. p(x, y)) -> K q(x)",
                "+p(a, b)",
            ),
            (
                "emp(a)",
                "forall x. K emp(x) & (exists y. K p(x, y)) -> K q(x)",
                "+p(a, b)",
            ),
            (
                "emp(a)",
                "forall x. K emp(x) & K (p(x) | r(x)) -> K q(x)",
                "+r(a)",
            ),
            (
                "emp(a)\np(a)",
                "forall x. K emp(x) -> K (p(x) | r(x))",
                "-p(a)",
            ),
            // Control: the K outside the ∨.
            (
                "emp(a)\np(a)",
                "forall x. K emp(x) -> K p(x) | K r(x)",
                "-p(a)",
            ),
        ];
        for (src, ic, op) in cases {
            let Err(r) = commit_ops(src, &[ic], &[op]) else {
                panic!("{src} {op} must violate {ic}");
            };
            assert_eq!(r.constraint, parse(ic).unwrap());
            assert_eq!(r.witnesses, [ga("emp(a)")], "{ic}");
        }
    }

    #[test]
    fn non_compilable_constraints_recheck_only_themselves() {
        // `K (p(x) ⊃ q(x))` negates p inside its K: not compilable, so
        // that constraint alone goes to the full check.
        let odd = "forall x. K emp(x) -> K (p(x) -> q(x))";
        assert!(!CompiledConstraint::compile(&parse(odd).unwrap()).is_routed());
        let src = "forall x. s(x) & p(x) -> q(x)\nemp(a)\ns(a)\nss(a, n1)";
        assert_eq!(
            commit(src, &[EMP_SS, FD, odd], &["+hobby(a)"]),
            Ok(CheckStats {
                skipped: 2,
                specialized: 0,
                full: 1
            })
        );
        // Without the fact s(a) the rule no longer makes p(a) ⊃ q(a)
        // known — the full check catches what no diff atom would.
        assert_eq!(commit(src, &[odd], &["-s(a)"]), rejected(odd));
    }

    #[test]
    fn prohibition_constraints_compile_and_trigger() {
        // ∀x ¬K bad(x) rewrites to ¬∃x K bad(x): the K-literal indexes it.
        let c = patterns("forall x. ~K bad(x)");
        assert_eq!(preds(&c.on_added), vec![Pred::new("bad", 1)]);
        let ck = compiled(&["forall x. ~K bad(x)"]);
        let prover = Prover::new(Theory::from_text("bad(Joe)").unwrap());
        assert!(check(&ck, &prover, Some(&diff(&["bad(Joe)"], &[])))
            .0
            .is_some());
    }

    #[test]
    fn negative_patterns_extracted_per_shape() {
        // emp→ss: the negated ∃y K ss(x,y) conjunct is a removal trigger.
        assert_eq!(
            preds(&patterns(EMP_SS).on_removed),
            vec![Pred::new("ss", 2)]
        );
        // FD: the negated conjunct is an equality — no removal trigger.
        assert!(patterns(FD).on_removed.is_empty());
        // Prohibition: no negated conjunct at all under the ∃ prefix.
        assert!(patterns("forall x. ~K bad(x)").on_removed.is_empty());
    }

    #[test]
    fn removal_violation_caught_incrementally() {
        let ck = checker();
        // Sue keeps emp but loses her only ss fact: the emp→ss constraint
        // is violated, found through the removal specialization alone.
        let prover = Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)").unwrap());
        let (hit, stats) = check(&ck, &prover, Some(&diff(&[], &["ss(Sue, n2)"])));
        assert!(hit.unwrap().contains("emp"), "emp(Sue) lost its number");
        // The violation short-circuits before the FD is even routed (it
        // would be skipped: a removal never violates an equality).
        assert_eq!(stats, routed(1, 0));
    }

    #[test]
    fn removal_specialization_passes_with_alternative_witness() {
        let ck = checker();
        // Sue has a second number: removing one keeps the constraint.
        let prover = Prover::new(
            Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)\nss(Sue, n3)").unwrap(),
        );
        let (hit, stats) = check(&ck, &prover, Some(&diff(&[], &["ss(Sue, n2)"])));
        assert!(hit.is_none(), "ss(Sue, n3) still witnesses the ∃");
        assert_eq!(stats.specialized, 1);
    }

    #[test]
    fn irrelevant_removals_skip_all_constraints() {
        let ck = checker();
        let prover = Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)").unwrap());
        // Removing an emp atom can only *satisfy* the emp→ss constraint,
        // and bad/hobby removals touch nothing: all skipped.
        let gone = diff(&[], &["emp(Sue)", "hobby(Mary, chess)", "bad(Joe)"]);
        let (hit, stats) = check(&ck, &prover, Some(&gone));
        assert!(hit.is_none());
        assert_eq!(stats, routed(0, 2), "no removal reaches a negative trigger");
    }

    #[test]
    fn empty_removals_match_the_assert_only_route_exactly() {
        // An assert-only commit's diff is its added atoms with their
        // consequences and an empty removed side; routing it by hand
        // gives the commit's own route.
        let src = "emp(Mary)\nss(Mary, n1)\nss(Sue, n2)\nforall x. emp(x) -> person(x)";
        let by_commit = commit(src, &[EMP_SS, FD], &["+emp(Sue)"]);
        let prover =
            crate::engine::prover_for(Theory::from_text(&format!("{src}\nemp(Sue)")).unwrap());
        let (hit, stats) = check(
            &checker(),
            &prover,
            Some(&diff(&["emp(Sue)", "person(Sue)"], &[])),
        );
        assert!(hit.is_none());
        assert_eq!(by_commit, Ok(stats));
    }

    /// The seven shapes `tests/prop_transactions.rs` draws its pool from:
    /// the paper's three, then an atom under `K ∃`, `∃ K`, a positive
    /// `K ∨` and a negated `K ∨`.
    const POOL: [&str; 7] = [
        EMP_SS,
        FD,
        "forall x. ~K bad(x)",
        "forall x. K hired(x) & K (exists y. hobby(x, y)) -> K person(x)",
        "forall x. K holder(x) & (exists y. K hobby(x, y)) -> K emp(x)",
        "forall x. K holder(x) & K (hired(x) | bad(x)) -> K person(x)",
        "forall x. K hired(x) -> K (emp(x) | bad(x))",
    ];

    #[test]
    fn which_shapes_compile_to_a_plan() {
        for ic in POOL {
            assert!(compiled(&[ic])[0].has_plan(), "{ic}");
        }
        // Routed, but `K ∃y ss(x, y)` leaves `x` unbound: `prove` walks
        // the domain for it, and so does the check, through `demo`.
        let open = &compiled(&["forall x. ~K (exists y. ss(x, y))"])[0];
        assert!(open.is_routed() && !open.has_plan());
        // A universal inside `K` is no existence test.
        let all = &compiled(&["forall x. K emp(x) -> K (forall y. ss(x, y))"])[0];
        assert!(all.is_routed() && !all.has_plan());
        // Not routed at all: `p` is negated inside its `K`.
        let odd = &compiled(&["forall x. K emp(x) -> K (p(x) -> q(x))"])[0];
        assert!(!odd.is_routed() && !odd.has_plan());
    }

    #[test]
    fn without_a_least_model_a_planned_constraint_runs_demo() {
        let c = &compiled(&[EMP_SS])[0];
        let v = c.violation.as_ref().unwrap();
        // An existential fact leaves the definite fragment: no model.
        let open = crate::engine::prover_for(
            Theory::from_text(
                "emp(a)
emp(b)
exists y. ss(b, y)",
            )
            .unwrap(),
        );
        assert!(open.atom_model().is_none() && v.planned(&open).is_none());
        assert_eq!(c.violated(&open), Some(vec![ga("emp(a)")]));
        assert_eq!(c.compare_plan_with_demo(&open, None), Ok(0));
        let definite = crate::engine::prover_for(
            Theory::from_text(
                "emp(a)
emp(b)
ss(b, n)",
            )
            .unwrap(),
        );
        assert!(v.planned(&definite).is_some());
        assert_eq!(c.violated(&definite), Some(vec![ga("emp(a)")]));
        let gone = diff(&[], &["ss(a, n)"]);
        assert_eq!(c.compare_plan_with_demo(&definite, Some(&gone)), Ok(2));
    }

    #[test]
    fn a_join_answers_in_prove_order_not_column_order() {
        // A cycle: the tuple first by column 0 is never the one first by
        // column 1, whatever order the parameters were interned in.
        let prover = crate::engine::prover_for(
            Theory::from_text(
                "r(a, b)
r(b, c)
r(c, a)",
            )
            .unwrap(),
        );
        let ck = compiled(&[
            "forall x, y. K r(x, y) -> K q(x)",
            "forall x, y. K r(y, x) -> K q(x)",
        ]);
        let reordered = ck.iter().filter(|c| {
            let plan = c.violation.as_ref().unwrap().plan.as_ref().unwrap();
            matches!(&plan.full[0], Step::Join(j) if j.order.is_some())
        });
        assert_eq!(reordered.count(), 1, "`prove` sorts by x, one of the two");
        let firsts: Vec<_> = ck.iter().map(|c| c.violated(&prover).unwrap()).collect();
        for c in &ck {
            assert_eq!(c.compare_plan_with_demo(&prover, None), Ok(1));
        }
        // Both name the tuple with the least `x`, which is a different
        // column of the same tuple set.
        assert_ne!(firsts[0], firsts[1]);
    }

    #[test]
    fn uncompilable_constraint_rejected() {
        // A positive knowledge *requirement* is not of the ¬∃ shape.
        let r = CompiledConstraint::compile(&parse("K p").unwrap());
        assert!(!r.is_routed());
    }
}
