//! Grounding FOPCE sentences over a finite universe.
//!
//! Grounding a sentence walks its NNF, expanding `∀`/`∃` over a finite
//! universe (a list of parameters), numbering its ground atoms as
//! propositional variables and mapping equality atoms directly to
//! constants — FOPCE's parameters are pairwise distinct, so `p = q` is
//! decided syntactically.
//!
//! A `Grounding` (crate-private) is what a prover keeps of `Σ` grounded
//! once: the registry, frozen; one model; and the solver holding the
//! clauses. Goals are grounded *beside* the registry — looked up, never
//! registered — and decided against what was kept.

use epilog_sat::{constrain, tseitin, Cnf, Prop, SatResult, Solver};
use epilog_syntax::formula::{Atom, Formula};
use epilog_syntax::{Param, Pred, Term, Theory, Var};
use std::collections::HashMap;
use std::sync::Mutex;

/// A one-to-one renaming of a few parameters, the identity on the rest.
#[derive(Debug, Default)]
pub(crate) struct Renaming(Vec<(Param, Param)>);

impl Renaming {
    /// Rename each of `from` to the parameter of `to` at its position.
    pub(crate) fn new(from: Vec<Param>, to: &[Param]) -> Self {
        debug_assert_eq!(from.len(), to.len());
        Renaming(from.into_iter().zip(to.iter().copied()).collect())
    }

    pub(crate) fn apply(&self, p: Param) -> Param {
        self.0.iter().find(|r| r.0 == p).map_or(p, |r| r.1)
    }

    pub(crate) fn undo(&self, p: Param) -> Param {
        self.0.iter().find(|r| r.1 == p).map_or(p, |r| r.0)
    }
}

fn register(vars: &mut HashMap<Atom, u32>, atom: Atom) -> u32 {
    let next = u32::try_from(vars.len()).expect("atom registry overflow");
    *vars.entry(atom).or_insert(next)
}

/// Ground `w`, which mentions no atom, over the empty universe: its
/// equalities are decided on the spot and folded, so a sentence without
/// quantifiers grounds to a constant.
pub(crate) fn ground_atom_free(w: &Formula) -> Prop {
    Walk {
        universe: &[],
        rename: &Renaming::default(),
        var_of: |atom: Atom| -> u32 { unreachable!("{atom} in an atom-free sentence") },
    }
    .go(w, &mut HashMap::new())
}

/// One grounding walk: the universe quantifiers expand over, the renaming
/// of the sentence's parameters, and what numbers a ground atom.
struct Walk<'a, F> {
    universe: &'a [Param],
    rename: &'a Renaming,
    var_of: F,
}

impl<F: FnMut(Atom) -> u32> Walk<'_, F> {
    fn term(&self, t: &Term, env: &HashMap<Var, Param>) -> Param {
        match t {
            Term::Param(p) => self.rename.apply(*p),
            Term::Var(v) => *env
                .get(v)
                .unwrap_or_else(|| panic!("unbound variable {v} during grounding")),
        }
    }

    fn go(&mut self, w: &Formula, env: &mut HashMap<Var, Param>) -> Prop {
        match w {
            Formula::Atom(a) => {
                let terms: Vec<Term> = a
                    .terms
                    .iter()
                    .map(|t| Term::Param(self.term(t, env)))
                    .collect();
                Prop::Var((self.var_of)(Atom::new(a.pred, terms)))
            }
            Formula::Eq(a, b) => {
                // Unique names: equality of parameters is syntactic
                // identity.
                if self.term(a, env) == self.term(b, env) {
                    Prop::True
                } else {
                    Prop::False
                }
            }
            Formula::Not(a) => self.go(a, env).negate(),
            Formula::And(a, b) => Prop::and_all(vec![self.go(a, env), self.go(b, env)]),
            Formula::Or(a, b) => Prop::or_all(vec![self.go(a, env), self.go(b, env)]),
            Formula::Implies(a, b) => Prop::or_all(vec![self.go(a, env).negate(), self.go(b, env)]),
            Formula::Iff(a, b) => {
                let pa = self.go(a, env);
                let pb = self.go(b, env);
                Prop::and_all(vec![
                    Prop::or_all(vec![pa.clone().negate(), pb.clone()]),
                    Prop::or_all(vec![pb.negate(), pa]),
                ])
            }
            Formula::Forall(x, body) => {
                let props = self.expand(*x, body, env);
                Prop::and_all(props)
            }
            Formula::Exists(x, body) => {
                let props = self.expand(*x, body, env);
                Prop::or_all(props)
            }
            Formula::Know(_) => panic!("grounding is defined for FOPCE formulas only"),
        }
    }

    fn expand(&mut self, x: Var, body: &Formula, env: &mut HashMap<Var, Param>) -> Vec<Prop> {
        let universe = self.universe;
        let shadowed = env.get(&x).copied();
        let mut out = Vec::with_capacity(universe.len());
        for &p in universe {
            env.insert(x, p);
            out.push(self.go(body, env));
        }
        match shadowed {
            Some(p) => {
                env.insert(x, p);
            }
            None => {
                env.remove(&x);
            }
        }
        out
    }
}

/// The registry of a finished grounding, frozen: per predicate, the
/// argument rows of its registered atoms — sorted, end to end in one
/// vector — and each row's variable beside it. Look-up is a binary search.
/// A published state keeps its groundings until it is replaced and frees
/// them then, on the writer's path: this is two allocations a predicate,
/// where a map keyed by atoms is one per atom.
struct Registry {
    by_pred: HashMap<Pred, Rows>,
    atoms: u32,
}

struct Rows {
    /// `vars.len()` rows of the predicate's arity, ascending.
    args: Vec<Param>,
    vars: Vec<u32>,
}

impl Registry {
    fn freeze(vars: HashMap<Atom, u32>) -> Registry {
        let atoms = vars.len() as u32;
        let mut grouped: HashMap<Pred, Vec<(Atom, u32)>> = HashMap::new();
        for (atom, v) in vars {
            grouped.entry(atom.pred).or_default().push((atom, v));
        }
        let by_pred = grouped
            .into_iter()
            .map(|(pred, mut atoms)| {
                atoms.sort_unstable();
                let args = atoms
                    .iter()
                    .flat_map(|(a, _)| a.terms.iter().map(|t| t.as_param().expect("ground")))
                    .collect();
                let vars = atoms.iter().map(|(_, v)| *v).collect();
                (pred, Rows { args, vars })
            })
            .collect();
        Registry { by_pred, atoms }
    }

    /// `pred`'s registered argument rows with their variables, ascending.
    fn rows(&self, pred: Pred) -> impl Iterator<Item = (&[Param], u32)> {
        self.by_pred.get(&pred).into_iter().flat_map(move |rows| {
            // `chunks_exact` refuses a zero width; a proposition has one
            // row, the empty one.
            let args = (0..rows.vars.len())
                .map(move |i| &rows.args[i * pred.arity()..(i + 1) * pred.arity()]);
            args.zip(rows.vars.iter().copied())
        })
    }

    fn var_of(&self, atom: &Atom) -> Option<u32> {
        let rows = self.by_pred.get(&atom.pred)?;
        let arity = atom.pred.arity();
        let (mut lo, mut hi) = (0, rows.vars.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let row = rows.args[mid * arity..(mid + 1) * arity]
                .iter()
                .map(|p| Term::Param(*p));
            match row.cmp(atom.terms.iter().copied()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(rows.vars[mid]),
            }
        }
        None
    }
}

/// A theory grounded once over one universe, and what was worked out
/// about it then: the registry of the atoms ground `Σ` mentions, one
/// model of ground `Σ` (or the fact that it has none), and the solver
/// that holds its clauses. Immutable but for the solver, which sits
/// behind its own lock.
pub(crate) struct Grounding {
    universe: Vec<Param>,
    registry: Registry,
    /// The members of the universe that stand in for the goal parameters
    /// `Σ` does not mention.
    placeholders: Vec<Param>,
    /// A model of ground `Σ`, as truth values of the registry's
    /// variables; `None` when ground `Σ` is unsatisfiable.
    model: Option<Vec<bool>>,
    /// Ground `Σ`'s clauses, propagated at level 0, then the definitions
    /// of the goals decided since and whatever those runs learnt.
    solver: Mutex<Solver>,
}

/// How a [`Grounding`] decided a goal.
pub(crate) enum Verdict {
    /// The kept model falsifies the goal: not entailed, no solver run.
    Refuted,
    /// Entailed on sight — ground `Σ` is unsatisfiable, or the goal
    /// grounds to `⊤` — no solver run either.
    Evident,
    /// Entailed or not, by one solver run.
    Solved(bool),
    /// Not decided: a run on this grounding panicked and left its solver
    /// mid-search, so the goal needs a grounding built afresh.
    Poisoned,
}

impl Grounding {
    /// Ground `theory` over `universe` — which lists `placeholders`
    /// among its members — run Tseitin, build the one solver and solve it
    /// once for the model.
    pub(crate) fn build(theory: &Theory, universe: Vec<Param>, placeholders: Vec<Param>) -> Self {
        let mut vars = HashMap::new();
        let mut walk = Walk {
            universe: &universe,
            rename: &Renaming::default(),
            var_of: |atom| register(&mut vars, atom),
        };
        let roots: Vec<Prop> = theory
            .sentences()
            .iter()
            .map(|s| walk.go(s, &mut HashMap::new()))
            .collect();
        let registry = Registry::freeze(vars);
        // Atom variables come first, then Tseitin auxiliaries.
        let mut cnf = Cnf::new();
        cnf.reserve_vars(registry.atoms);
        for p in &roots {
            constrain(p, &mut cnf);
        }
        let mut solver = Solver::new(&cnf);
        let model = match solver.solve() {
            SatResult::Sat(mut values) => {
                values.truncate(registry.atoms as usize);
                Some(values)
            }
            SatResult::Unsat => None,
        };
        Grounding {
            universe,
            registry,
            placeholders,
            model,
            solver: Mutex::new(solver),
        }
    }

    pub(crate) fn placeholders(&self) -> &[Param] {
        &self.placeholders
    }

    /// Whether ground `Σ` has a model.
    pub(crate) fn satisfiable(&self) -> bool {
        self.model.is_some()
    }

    /// The argument rows of `pred`'s atoms that the kept model of ground
    /// `Σ` makes true; `None` when ground `Σ` is unsatisfiable.
    pub(crate) fn true_rows(&self, pred: Pred) -> Option<impl Iterator<Item = &[Param]>> {
        let model = self.model.as_ref()?;
        let rows = self.registry.rows(pred);
        Some(rows.filter_map(|(args, v)| model[v as usize].then_some(args)))
    }

    /// Ground a sentence **beside** the registry, which is only looked
    /// up: an atom it lacks is numbered from `first_free` upwards, the
    /// same number wherever the sentence repeats it. The sentence's
    /// parameters are renamed on the way. Returns the propositional form
    /// and how many numbers past `first_free` it used. Costs the size of
    /// the ground sentence, whatever the size of the registry.
    fn ground_beside(&self, w: &Formula, rename: &Renaming, first_free: u32) -> (Prop, u32) {
        let mut unregistered: HashMap<Atom, u32> = HashMap::new();
        let prop = Walk {
            universe: &self.universe,
            rename,
            var_of: |atom| match self.registry.var_of(&atom) {
                Some(v) => v,
                None => {
                    let next = first_free + unregistered.len() as u32;
                    *unregistered.entry(atom).or_insert(next)
                }
            },
        }
        .go(w, &mut HashMap::new());
        (prop, unregistered.len() as u32)
    }

    /// Decide whether ground `Σ` entails the sentence `g`, whose
    /// parameters outside `Σ` `rename` maps to this grounding's
    /// placeholders.
    pub(crate) fn entails(&self, g: &Formula, rename: &Renaming) -> Verdict {
        // An unsatisfiable `Σ` entails everything.
        let Some(model) = &self.model else {
            return Verdict::Evident;
        };
        // Atoms ground `Σ` never mentions are free in it, so the kept
        // model extended with all of them false is a model still: if `g`
        // fails there, that is a model of `Σ ∧ ¬g`.
        let (mut prop, unregistered) = self.ground_beside(g, rename, self.registry.atoms);
        if !prop.eval_with(&|v| model.get(v as usize).is_some_and(|&b| b)) {
            return Verdict::Refuted;
        }
        if prop == Prop::True {
            return Verdict::Evident;
        }
        // A run that panicked left its assumptions and trail in place.
        let Ok(mut solver) = self.solver.lock() else {
            return Verdict::Poisoned;
        };
        if unregistered > 0 {
            // The numbers past the registry are taken by auxiliaries in
            // the solver: number the unregistered atoms past those.
            prop = self.ground_beside(g, rename, solver.num_vars()).0;
        }
        // `¬g` is the conjunction of its disjuncts' negations — of its own,
        // when `g` is no disjunction: each enters as definitions, which
        // constrain no variable already there, and its negated root as
        // one of this run's assumptions. A literal needs no definition,
        // so a clause or an existential over atoms adds nothing.
        let disjuncts = match &prop {
            Prop::Or(ps) => ps.as_slice(),
            other => std::slice::from_ref(other),
        };
        let mut defs = Cnf::new();
        defs.reserve_vars(solver.num_vars() + unregistered);
        let assumptions: Vec<_> = disjuncts
            .iter()
            .map(|p| tseitin(p, &mut defs).negate())
            .collect();
        solver.reserve_vars(defs.num_vars());
        for c in defs.clauses() {
            solver.add_clause(c);
        }
        inside_solver_run();
        Verdict::Solved(solver.solve_with(&assumptions) == SatResult::Unsat)
    }
}

/// Called with a kept solver's lock held, as its run starts: a no-op in
/// every build but this crate's tests, which make it panic there.
#[cfg(not(test))]
fn inside_solver_run() {}

#[cfg(test)]
use tests::inside_solver_run;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use epilog_syntax::parse;
    use std::cell::Cell;

    thread_local! {
        static PANIC_IN_RUN: Cell<bool> = const { Cell::new(false) };
    }

    /// Make the next solver run on this thread panic with its lock held.
    pub(crate) fn panic_in_next_run() {
        PANIC_IN_RUN.set(true);
    }

    pub(super) fn inside_solver_run() {
        if PANIC_IN_RUN.take() {
            panic!("a solver run panicked (injected)");
        }
    }

    /// `Σ ∧ ¬g` grounded in one piece over one universe, every atom
    /// registered: the from-scratch pipeline the kept grounding is checked
    /// against, and the walk's own tests.
    #[derive(Debug, Default)]
    pub(crate) struct GroundContext {
        universe: Vec<Param>,
        vars: HashMap<Atom, u32>,
    }

    impl GroundContext {
        /// A context over the given duplicate-free universe.
        pub(crate) fn new(universe: Vec<Param>) -> Self {
            let mut sorted = universe.clone();
            sorted.sort_unstable();
            assert!(
                sorted.windows(2).all(|w| w[0] != w[1]),
                "a universe lists each parameter once: {universe:?}"
            );
            GroundContext {
                universe,
                vars: HashMap::new(),
            }
        }

        /// Number of registered atoms (== number of propositional
        /// variables).
        pub(crate) fn num_atoms(&self) -> u32 {
            self.vars.len() as u32
        }

        /// Ground a FOPCE sentence, expanding quantifiers over the
        /// universe and registering its atoms.
        ///
        /// # Panics
        /// Panics on modal formulas or formulas with free variables.
        pub(crate) fn ground(&mut self, w: &Formula) -> Prop {
            let vars = &mut self.vars;
            Walk {
                universe: &self.universe,
                rename: &Renaming::default(),
                var_of: |atom| register(vars, atom),
            }
            .go(w, &mut HashMap::new())
        }
    }

    impl Grounding {
        /// Variables and stored clauses of the kept solver (diagnostics).
        pub(crate) fn solver_size(&self) -> (u32, usize) {
            let solver = self.solver.lock().unwrap();
            (solver.num_vars(), solver.num_clauses())
        }
    }

    fn params(names: &[&str]) -> Vec<Param> {
        names.iter().map(|n| Param::new(n)).collect()
    }

    fn atom(src: &str) -> Atom {
        match parse(src).unwrap() {
            Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        }
    }

    #[test]
    fn atoms_get_stable_vars() {
        let mut ctx = GroundContext::new(params(&["a", "b"]));
        let w = parse("p(a) & p(a) & p(b)").unwrap();
        let g = ctx.ground(&w);
        assert_eq!(ctx.num_atoms(), 2);
        // p(a) ∧ p(a) ∧ p(b) folds to a 2-conjunct after dedup of shape.
        match g {
            Prop::And(ps) => assert_eq!(ps.len(), 3),
            other => panic!("expected conjunction, got {other:?}"),
        }
    }

    #[test]
    fn equality_decided_at_ground_time() {
        let mut ctx = GroundContext::new(params(&["a", "b"]));
        assert_eq!(ctx.ground(&parse("a = a").unwrap()), Prop::True);
        assert_eq!(ctx.ground(&parse("a = b").unwrap()), Prop::False);
        assert_eq!(ctx.ground(&parse("a != b").unwrap()), Prop::True);
    }

    #[test]
    fn quantifiers_expand_over_universe() {
        let mut ctx = GroundContext::new(params(&["a", "b", "c"]));
        let w = parse("exists x. p(x)").unwrap();
        match ctx.ground(&w) {
            Prop::Or(ps) => assert_eq!(ps.len(), 3),
            other => panic!("expected disjunction, got {other:?}"),
        }
        let w = parse("forall x. p(x)").unwrap();
        match ctx.ground(&w) {
            Prop::And(ps) => assert_eq!(ps.len(), 3),
            other => panic!("expected conjunction, got {other:?}"),
        }
    }

    #[test]
    fn nested_quantifiers() {
        let mut ctx = GroundContext::new(params(&["a", "b"]));
        let w = parse("forall x. exists y. e(x, y)").unwrap();
        // (e(a,a) ∨ e(a,b)) ∧ (e(b,a) ∨ e(b,b))
        match ctx.ground(&w) {
            Prop::And(ps) => {
                assert_eq!(ps.len(), 2);
                assert!(matches!(ps[0], Prop::Or(_)));
            }
            other => panic!("expected conjunction, got {other:?}"),
        }
        assert_eq!(ctx.num_atoms(), 4);
    }

    #[test]
    fn quantified_equality_folds() {
        // ∃x (x = a) is true over any universe containing a.
        let mut ctx = GroundContext::new(params(&["a", "b"]));
        assert_eq!(ctx.ground(&parse("exists x. x = a").unwrap()), Prop::True);
        // ∀x (x = a) is false once the universe has a second element.
        assert_eq!(ctx.ground(&parse("forall x. x = a").unwrap()), Prop::False);
    }

    #[test]
    fn shadowing_respected() {
        let mut ctx = GroundContext::new(params(&["a"]));
        // exists x. p(x) & (exists x. q(x)) — inner x shadows outer.
        let w = parse("exists x. p(x) & (exists x. q(x))").unwrap();
        let _ = ctx.ground(&w);
        assert_eq!(ctx.num_atoms(), 2);
    }

    #[test]
    fn grounding_beside_the_registry_only_looks_it_up() {
        use epilog_syntax::Theory;
        let theory = Theory::from_text("p(a) | p(b)\nrain").unwrap();
        let kept = Grounding::build(&theory, params(&["a", "b", "slot"]), params(&["slot"]));
        let var = |src: &str| kept.registry.var_of(&atom(src));
        let (pa, pb) = (var("p(a)").unwrap(), var("p(b)").unwrap());
        assert_eq!(
            (var("p(slot)"), var("q(a)"), var("snow")),
            (None, None, None)
        );
        assert_eq!(kept.registry.atoms, 3);
        assert!(var("rain").is_some());
        // `stranger` takes the universe's slot; p(slot) and q(a) are not
        // registered and are numbered from 7, p(slot) once for both of
        // its occurrences.
        let rename = Renaming::new(params(&["stranger"]), kept.placeholders());
        let goal = parse("p(b) & (p(stranger) | q(a)) & ~p(stranger) & p(a)").unwrap();
        let (prop, unregistered) = kept.ground_beside(&goal, &rename, 7);
        assert_eq!(unregistered, 2);
        assert_eq!(
            prop,
            Prop::And(vec![
                Prop::Var(pb),
                Prop::Or(vec![Prop::Var(7), Prop::Var(8)]),
                Prop::Var(7).negate(),
                Prop::Var(pa),
            ])
        );
        assert_eq!(kept.registry.atoms, 3, "nothing was registered");
        assert_eq!(
            (
                rename.apply(Param::new("a")),
                rename.undo(Param::new("slot"))
            ),
            (Param::new("a"), Param::new("stranger"))
        );
        // Quantifiers range over the whole universe, slot included.
        let (prop, unregistered) =
            kept.ground_beside(&parse("exists x. p(x)").unwrap(), &rename, 7);
        assert_eq!(unregistered, 1);
        assert_eq!(
            prop,
            Prop::Or(vec![Prop::Var(pa), Prop::Var(pb), Prop::Var(7)])
        );
        // The model makes `rain` true and one of p(a), p(b) at least.
        let rows = |pred: &str, arity| kept.true_rows(Pred::new(pred, arity)).unwrap().count();
        assert_eq!(rows("rain", 0), 1);
        assert!((1..=2).contains(&rows("p", 1)));
        assert_eq!(rows("q", 1), 0);
    }

    #[test]
    #[should_panic(expected = "FOPCE")]
    fn modal_rejected() {
        let mut ctx = GroundContext::new(params(&["a"]));
        let _ = ctx.ground(&parse("K p(a)").unwrap());
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn free_variables_rejected() {
        let mut ctx = GroundContext::new(params(&["a"]));
        let _ = ctx.ground(&parse("p(x)").unwrap());
    }
}
