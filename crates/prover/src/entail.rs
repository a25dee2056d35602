//! First-order entailment for FOPCE by grounding + SAT.
//!
//! `Σ ⊨_FOPCE g` iff `Σ ∧ ¬g` has no model. Models of FOPCE theories are
//! worlds over the countably infinite parameter domain; we ground over the
//! finite universe consisting of the active domain plus a budget of fresh
//! witness parameters and hand the result to the CDCL solver. `Σ` is
//! grounded once per prover and kept (`ground::Grounding`); a goal is decided
//! against what was kept. See the crate docs for the exactness discussion.

use crate::ground::{ground_atom_free, Grounding, Renaming, Verdict};
use epilog_sat::Prop;
use epilog_storage::Database;
use epilog_syntax::{is_first_order, transform, Formula, Param, Theory};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Maximum number of fresh witness parameters appended to the active
/// domain. Existentials that are not nested under universals need one
/// witness each for exactness; more witnesses only grow the grounding.
const WITNESS_CAP: usize = 3;

/// A theorem prover for one fixed FOPCE theory `Σ`.
///
/// The first goal that needs the solver grounds `Σ`, runs Tseitin, builds
/// one solver and solves it once; the prover keeps the registry, the model
/// and the solver ([`Prover::entails`] says how each answers), and no
/// later goal grounds a sentence of `Σ` again. [`Prover::new`] and
/// [`Prover::updated`] build none of it. Verdicts the solver reached are
/// memoized per goal sentence.
///
/// [`Prover::new`] does not read `Σ` at all: its active domain and its
/// witnesses are picked on first use, so a definite theory answered from
/// its least model never pays for them.
///
/// A `Prover` is `Sync`: queries take `&self`, and the memo, the kept
/// groundings and the counters live behind `Mutex`es/atomics so an
/// immutable committed state can be shared across reader threads (the MVCC
/// serving layer). A clone shares the kept groundings with its original
/// (same `Σ`), so publishing a snapshot copies none of them; it copies the
/// memo. Two threads racing on the same uncached goal both decide it and
/// insert the same answer. The memo's lock is never held across a solver
/// run; the kept solver's own lock is held for exactly one run, so goals
/// the model does not refute queue on it per grounding, and the lock over
/// the kept groundings is held while one is built — every goal behind it
/// needs that grounding or one as costly. A panic poisons none of it for
/// good: a grounding whose run panicked is dropped and built afresh for
/// the next goal that needs it, and a memo or groundings map whose lock a
/// panic poisoned is emptied and used.
pub struct Prover {
    theory: Theory,
    /// Fresh parameters the groundings' universe makes room for (see
    /// [`Prover::witnesses`]); picked on first use.
    witnesses: OnceLock<Vec<Param>>,
    memo: Mutex<HashMap<Formula, bool>>,
    /// A materialized least model answering ground-atom goals without SAT
    /// (see [`Prover::with_atom_model`]).
    atom_model: Option<Database>,
    /// Count of solver runs (see [`Prover::sat_calls`]).
    sat_calls: AtomicU64,
    /// Count of goals a kept model refuted (see [`Prover::refuted`]).
    refuted: AtomicU64,
    /// The theory's active domain, sorted; scanned out of the sentences on
    /// first use and shared by every grounding universe and answer
    /// enumeration afterwards.
    active_domain: OnceLock<Vec<Param>>,
    /// `Σ` grounded and kept, by how many parameters outside the active
    /// domain the universe makes room for (see `Prover::grounding_for`).
    groundings: Arc<Mutex<BTreeMap<usize, Arc<Grounding>>>>,
}

impl Clone for Prover {
    fn clone(&self) -> Self {
        Prover {
            theory: self.theory.clone(),
            witnesses: self.witnesses.clone(),
            memo: Mutex::new(lock_cleared(&self.memo).clone()),
            atom_model: self.atom_model.clone(),
            sat_calls: AtomicU64::new(self.sat_calls.load(Ordering::Relaxed)),
            refuted: AtomicU64::new(self.refuted.load(Ordering::Relaxed)),
            active_domain: self.active_domain.clone(),
            groundings: Arc::clone(&self.groundings),
        }
    }
}

impl Prover {
    /// Build a prover for `theory`. Nothing of `Σ` is read until a goal
    /// needs it.
    pub fn new(theory: Theory) -> Self {
        Prover::assemble(theory, OnceLock::new(), None)
    }

    /// A prover that has answered nothing yet.
    fn assemble(
        theory: Theory,
        witnesses: OnceLock<Vec<Param>>,
        atom_model: Option<Database>,
    ) -> Self {
        Prover {
            theory,
            witnesses,
            memo: Mutex::new(HashMap::new()),
            atom_model,
            sat_calls: AtomicU64::new(0),
            refuted: AtomicU64::new(0),
            active_domain: OnceLock::new(),
            groundings: Arc::default(),
        }
    }

    /// Attach a materialized model that decides ground-atom goals without
    /// invoking the SAT pipeline: `entails(a)` for a ground atom `a`
    /// becomes a tuple lookup.
    ///
    /// # Soundness contract
    /// The caller must guarantee the model holds **exactly** the ground
    /// atoms entailed by the theory — true for the least model of a
    /// definite (negation- and disjunction-free) program, the routing
    /// `epilog-core` performs. All other goals still go through grounding
    /// and SAT.
    pub fn with_atom_model(mut self, model: Database) -> Self {
        self.atom_model = Some(model);
        self
    }

    /// The attached ground-atom model, if any.
    pub fn atom_model(&self) -> Option<&Database> {
        self.atom_model.as_ref()
    }

    /// Build a prover for an updated theory, reusing this prover's
    /// witnesses if it picked them — the model-maintenance hook for
    /// transactional updates.
    ///
    /// The memo starts empty (entailments may have changed), nothing is
    /// grounded until a goal asks, and `model`, when given, becomes the
    /// attached ground-atom model (same soundness contract as
    /// [`Prover::with_atom_model`]). Carrying the witnesses over is sound
    /// when the update adds or removes only **ground atoms**: they
    /// contribute no existential nodes, so the recomputed budget would be
    /// identical (a prover that picked none picks its own on first use).
    /// Updates that change quantified sentences should build a fresh
    /// [`Prover::new`] instead.
    pub fn updated(&self, theory: Theory, model: Option<Database>) -> Prover {
        Prover::assemble(theory, self.witnesses.clone(), model)
    }

    /// The theory this prover answers questions about.
    pub fn theory(&self) -> &Theory {
        &self.theory
    }

    /// The theory's active domain (every parameter some sentence
    /// mentions), sorted. Computed on first use and kept for the prover's
    /// lifetime (and its clones'); [`Prover::updated`] starts a fresh one.
    pub fn active_domain(&self) -> &[Param] {
        self.active_domain
            .get_or_init(|| self.theory.active_domain())
    }

    /// The candidate answer domain: active domain ∪ goal parameters (no
    /// witnesses — a fresh parameter is never a *certain* answer, because
    /// nothing in `Σ` constrains it; if it were entailed, infinitely many
    /// parameters would be, putting the goal outside the finite-instances
    /// fragment of §6).
    pub fn answer_domain(&self, goal: &Formula) -> Vec<Param> {
        let active = self.active_domain();
        let mut u = active.to_vec();
        // `params()` is sorted and duplicate-free, so membership in the
        // sorted active domain is all there is to check.
        u.extend(
            goal.params()
                .into_iter()
                .filter(|p| active.binary_search(p).is_err()),
        );
        u
    }

    /// `k` parameters that neither `Σ` nor `also` mentions, and no
    /// witness: stand-ins for the individuals nobody has named, drawn
    /// from the placeholders' pool, so asking for them interns no name.
    pub fn spares(&self, k: usize, also: &[Param]) -> Vec<Param> {
        let taken = self.in_every_universe();
        placeholders(k, |p| taken(p) || also.contains(p))
    }

    /// The fresh parameters every grounding's universe holds for `Σ`'s
    /// existentials: one per existential node of the theory (counted on
    /// the NNF so polarities are explicit), plus one spare for goal-side
    /// quantifiers, at least 1 (the FOPCE domain is never empty), clamped
    /// by the cap. Drawn from the placeholders' pool, so a prover per
    /// commit interns no name; placeholders skip the witnesses in turn.
    /// Picked on first use and kept, by clones and updates too.
    fn witnesses(&self) -> &[Param] {
        self.witnesses.get_or_init(|| {
            let exists_nodes: usize = (self.theory.sentences().iter())
                .map(|s| count_existentials(&transform::nnf(s)))
                .sum();
            let budget = (exists_nodes + 1).clamp(1, WITNESS_CAP);
            let active = self.active_domain();
            placeholders(budget, |p| active.binary_search(p).is_ok())
        })
    }

    /// Whether the universe of every grounding holds a parameter whatever
    /// the goal: a parameter of `Σ`, or a witness. The test has both read
    /// before it runs, so it runs under the placeholders' pool lock,
    /// which picking the witnesses takes.
    fn in_every_universe(&self) -> impl Fn(&Param) -> bool + '_ {
        let (active, witnesses) = (self.active_domain(), self.witnesses());
        move |p| active.binary_search(p).is_ok() || witnesses.contains(p)
    }

    /// The kept grounding that decides `goal`, and the renaming under
    /// which it does.
    ///
    /// A goal is decided over the universe active domain ∪ the goal's
    /// other ("foreign") parameters ∪ witnesses. `Σ` mentions no foreign
    /// parameter, so its grounding over that universe depends on their
    /// names only through a renaming: grounding `Σ` over `k` reserved
    /// placeholders instead and renaming the goal's `k` foreign
    /// parameters to them, in order, gives the same verdict. One
    /// grounding per `k` therefore serves every goal, however many
    /// distinct names clients send.
    pub(crate) fn grounding_for(&self, goal: &Formula) -> (Arc<Grounding>, Renaming) {
        let taken = self.in_every_universe();
        let foreign: Vec<Param> = goal.params().into_iter().filter(|p| !taken(p)).collect();
        let grounding = self.grounding(foreign.len());
        let rename = Renaming::new(foreign, grounding.placeholders());
        (grounding, rename)
    }

    /// `Σ` grounded over active domain ∪ `foreign` placeholders ∪
    /// witnesses: built, solved once and kept on first request.
    fn grounding(&self, foreign: usize) -> Arc<Grounding> {
        let mut kept = lock_cleared(&self.groundings);
        if let Some(grounding) = kept.get(&foreign) {
            return Arc::clone(grounding);
        }
        let placeholders = placeholders(foreign, self.in_every_universe());
        let active = self.active_domain();
        let mut universe = active.to_vec();
        universe.extend(&placeholders);
        // An update may have put a witness's name into `Σ`.
        universe.extend(
            self.witnesses()
                .iter()
                .filter(|w| active.binary_search(w).is_err()),
        );
        self.sat_calls.fetch_add(1, Ordering::Relaxed);
        let grounding = Arc::new(Grounding::build(&self.theory, universe, placeholders));
        kept.insert(foreign, Arc::clone(&grounding));
        grounding
    }

    /// Whether `Σ` is satisfiable. A theory with an attached least model
    /// is a definite program, which that model satisfies; any other theory
    /// is as satisfiable as its kept grounding turned out to be when it
    /// was solved for its model.
    pub fn satisfiable(&self) -> bool {
        self.atom_model.is_some() || self.grounding(0).satisfiable()
    }

    /// Decide `Σ ⊨_FOPCE g` for a FOPCE sentence `g`.
    ///
    /// Two kinds of goal never reach a grounding:
    ///
    /// * a **ground atom**, when a least model is attached
    ///   ([`Prover::with_atom_model`]): a tuple lookup;
    /// * a **closed equality-only goal** — `=` between parameters under
    ///   `¬ ∧ ∨ ⊃ ≡`, no atom, no quantifier — with or without a model.
    ///   Parameters denote pairwise distinct individuals in every world,
    ///   so such a goal has one truth value everywhere and `Σ` is
    ///   irrelevant to it: a true one is entailed by any `Σ`, a false one
    ///   exactly by an unsatisfiable `Σ` ([`Prover::satisfiable`], decided
    ///   once). These are the truth constants `ask` reduces `K`-literals
    ///   to and the `K (y = z)` heads of functional dependencies. (The
    ///   one satisfiability verdict stands in for grounding `Σ` once per
    ///   goal over a universe that also held the goal's parameters; the
    ///   two can differ only where the witness budget is already too
    ///   small for `Σ` — outside the crate's exact fragment.)
    ///
    /// Everything else is put to the kept grounding of `Σ` — over the
    /// active domain, the witnesses, and as many placeholders as `g` has
    /// parameters `Σ` does not mention, `g`'s being renamed to them (`Σ`
    /// cannot tell such parameters apart, so the verdict is the one over
    /// `g`'s own names) — at a cost in the size of ground `g`, not of
    /// ground `Σ`:
    ///
    /// * **the kept model answers first.** `g` is grounded beside the
    ///   registry and evaluated under the model `M` found when `Σ` was
    ///   grounded, the atoms ground `Σ` never mentions taken false. Those
    ///   atoms are free in `Σ`, so that extension of `M` is a model of
    ///   ground `Σ`; when `g` fails in it, it is a model of `Σ ∧ ¬g` and
    ///   the verdict is `false` — the verdict the solver would reach, on
    ///   any theory — with no solver run and no memo entry;
    /// * otherwise **the kept solver** decides `¬g` under assumptions —
    ///   bare literals for a ground atom, a clause or an existential over
    ///   atoms, which then add nothing to it: the verdict is memoized.
    ///
    /// # Panics
    /// Panics if `g` is modal or has free variables.
    pub fn entails(&self, g: &Formula) -> bool {
        assert!(is_first_order(g), "entailment goals must be FOPCE formulas");
        assert!(g.is_sentence(), "entailment goals must be sentences");
        if let (Some(model), Formula::Atom(a)) = (&self.atom_model, g) {
            if a.is_ground() {
                return model.contains(a);
            }
        }
        if let Some(truth) = equalities_value(g) {
            return truth || !self.satisfiable();
        }
        if let Some(&cached) = lock_cleared(&self.memo).get(g) {
            return cached;
        }
        let (grounding, rename) = self.grounding_for(g);
        match grounding.entails(g, &rename) {
            Verdict::Refuted => {
                self.refuted.fetch_add(1, Ordering::Relaxed);
                false
            }
            Verdict::Evident => true,
            Verdict::Solved(result) => {
                self.sat_calls.fetch_add(1, Ordering::Relaxed);
                lock_cleared(&self.memo).insert(g.clone(), result);
                result
            }
            // Every clone shares the kept groundings: drop this one for
            // them all, and ask again over one built afresh.
            Verdict::Poisoned => {
                lock_cleared(&self.groundings).retain(|_, kept| !Arc::ptr_eq(kept, &grounding));
                self.entails(g)
            }
        }
    }

    /// Number of memoized entailment results (diagnostics).
    pub fn memo_len(&self) -> usize {
        lock_cleared(&self.memo).len()
    }

    /// Number of solver runs so far — the one that finds the model of a
    /// kept grounding included (diagnostics).
    pub fn sat_calls(&self) -> u64 {
        self.sat_calls.load(Ordering::Relaxed)
    }

    /// Number of goals a kept model refuted without a solver run.
    pub fn refuted(&self) -> u64 {
        self.refuted.load(Ordering::Relaxed)
    }
}

/// Lock `m`. A lock that a panic poisoned is emptied first — the panic
/// may have left what it guards half-written — and then taken as is.
fn lock_cleared<T: Default>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        m.clear_poison();
        let mut guard = poisoned.into_inner();
        *guard = T::default();
        guard
    })
}

/// `k` parameters to stand in a universe for goal parameters `Σ` does not
/// mention, or to serve as a prover's witnesses: the first `k` of one
/// process-wide list — so a long-lived server interns a handful of names,
/// not `k` per commit — that `taken` does not rule out (a client is free
/// to assert a sentence that mentions one).
fn placeholders(k: usize, taken: impl Fn(&Param) -> bool) -> Vec<Param> {
    static POOL: Mutex<Vec<Param>> = Mutex::new(Vec::new());
    let mut pool = POOL.lock().expect("interning a parameter panicked");
    let mut out = Vec::with_capacity(k);
    let mut i = 0;
    while out.len() < k {
        if i == pool.len() {
            pool.push(Param::fresh("f"));
        }
        if !taken(&pool[i]) {
            out.push(pool[i]);
        }
        i += 1;
    }
    out
}

/// The truth value of a closed goal built from equalities between
/// parameters with `¬ ∧ ∨ ⊃ ≡` — the same in every world, by unique
/// names. `None` as soon as the goal mentions an atom or a quantifier.
fn equalities_value(g: &Formula) -> Option<bool> {
    let equalities_only = g.subformulas().iter().all(|w| {
        !matches!(
            w,
            Formula::Atom(_) | Formula::Forall(..) | Formula::Exists(..)
        )
    });
    if !equalities_only {
        return None;
    }
    // Grounding decides `p = q` on the spot and folds constants, so with
    // no atom to stand for a variable the whole goal folds to one.
    match ground_atom_free(g) {
        Prop::True => Some(true),
        Prop::False => Some(false),
        other => unreachable!("an atom-free grounding folds to a constant, got {other:?}"),
    }
}

fn count_existentials(w: &Formula) -> usize {
    let mut n = 0;
    for s in w.subformulas() {
        if matches!(s, Formula::Exists(..)) {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::tests::{panic_in_next_run, GroundContext};
    use epilog_syntax::{parse, Pred};

    impl Prover {
        /// The from-scratch pipeline the kept grounding replaced, as the
        /// oracle of the property suites: ground `Σ ∧ ¬g` over the goal's
        /// own universe, run Tseitin, solve on a fresh solver.
        pub(crate) fn entails_from_scratch(&self, g: &Formula) -> bool {
            use epilog_sat::{tseitin, Cnf, SatResult, Solver};
            let mut universe = self.answer_domain(g);
            for w in self.witnesses() {
                if !universe.contains(w) {
                    universe.push(*w);
                }
            }
            let mut ctx = GroundContext::new(universe);
            let mut roots: Vec<Prop> = self
                .theory
                .sentences()
                .iter()
                .map(|s| ctx.ground(s))
                .collect();
            roots.push(ctx.ground(&Formula::not(g.clone())));
            let mut cnf = Cnf::new();
            cnf.reserve_vars(ctx.num_atoms());
            for p in &roots {
                let root = tseitin(p, &mut cnf);
                cnf.add_unit(root);
            }
            matches!(Solver::new(&cnf).solve(), SatResult::Unsat)
        }

        /// How many groundings of `Σ` this prover and its clones keep.
        pub(crate) fn groundings_kept(&self) -> usize {
            lock_cleared(&self.groundings).len()
        }

        /// Whether this prover has scanned `Σ`'s active domain, and
        /// whether it has picked its witnesses.
        pub(crate) fn sigma_read(&self) -> (bool, bool) {
            (
                self.active_domain.get().is_some(),
                self.witnesses.get().is_some(),
            )
        }
    }

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

    fn entails(p: &Prover, src: &str) -> bool {
        p.entails(&parse(src).unwrap())
    }

    #[test]
    fn extensional_facts() {
        let p = teach();
        assert!(entails(&p, "Teach(John, Math)"));
        assert!(!entails(&p, "Teach(John, CS)"));
        assert!(!entails(&p, "~Teach(John, CS)"));
    }

    #[test]
    fn existential_knowledge() {
        let p = teach();
        assert!(entails(&p, "exists x. Teach(x, CS)"));
        assert!(entails(&p, "exists x. Teach(x, Math)"));
        assert!(!entails(&p, "exists x. Teach(x, Philosophy)"));
    }

    #[test]
    fn disjunctive_knowledge() {
        let p = teach();
        assert!(entails(&p, "Teach(Mary, Psych) | Teach(Sue, Psych)"));
        assert!(!entails(&p, "Teach(Mary, Psych)"));
        assert!(!entails(&p, "Teach(Sue, Psych)"));
        assert!(entails(&p, "exists x. Teach(x, Psych)"));
    }

    #[test]
    fn null_value_not_a_known_individual() {
        // ∃x Teach(x,CS) holds but no particular parameter teaches CS:
        // Teach(p, CS) is not entailed for any p in the answer domain.
        let p = teach();
        for param in ["John", "Math", "CS", "Mary", "Sue", "Psych"] {
            assert!(
                !entails(&p, &format!("Teach({param}, CS)")),
                "{param} should not be a known CS teacher"
            );
        }
    }

    #[test]
    fn rules_chain() {
        let p = Prover::new(
            Theory::from_text(
                "emp(Mary)
                 forall x. emp(x) -> person(x)
                 forall x. person(x) -> mortal(x)",
            )
            .unwrap(),
        );
        assert!(entails(&p, "mortal(Mary)"));
        assert!(entails(&p, "exists x. mortal(x)"));
        assert!(!entails(&p, "mortal(John)"));
    }

    #[test]
    fn equality_semantics_unique_names() {
        let p = Prover::new(Theory::from_text("p(a)").unwrap());
        assert!(entails(&p, "a = a"));
        assert!(entails(&p, "a != b"));
        assert!(!entails(&p, "a = b"));
        // Domain closure: something exists that equals a.
        assert!(entails(&p, "exists x. x = a"));
        // Infinitely many parameters: not everything equals a.
        assert!(entails(&p, "~(forall x. x = a)"));
        assert!(entails(&p, "exists x. x != a"));
    }

    #[test]
    fn satisfiability() {
        assert!(teach().satisfiable());
        let contradictory = Prover::new(Theory::from_text("p(a)\n~p(a)").unwrap());
        assert!(!contradictory.satisfiable());
        assert!(Prover::new(Theory::empty()).satisfiable());
    }

    #[test]
    fn consistency_check_definition_31() {
        // DB = {emp(Mary)} is consistent with the first-order IC
        // ∀x (emp(x) ⊃ ∃y ss(x,y)) — the failure of Definition 3.1.
        let p = Prover::new(Theory::from_text("emp(Mary)").unwrap());
        let ic = parse("forall x. emp(x) -> exists y. ss(x, y)").unwrap();
        assert!(
            !p.entails(&Formula::not(ic.clone())),
            "DB + IC is satisfiable"
        );
        // But DB does not entail it — the failure mode of Definition 3.2
        // is on the empty database below.
        assert!(!p.entails(&ic));
        let empty = Prover::new(Theory::empty());
        assert!(
            !empty.entails(&ic),
            "even the empty DB fails the entailment reading"
        );
    }

    #[test]
    fn a_panicked_solver_run_is_rebuilt_around() {
        let p = teach();
        let clone = p.clone();
        // Two goals `Σ` states outright: its model cannot refute them,
        // so each takes a solver run.
        let goals = [
            "Teach(Mary, Psych) | Teach(Sue, Psych)",
            "exists x. Teach(x, CS)",
        ];
        panic_in_next_run();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            entails(&p, "exists x. Teach(x, Psych)")
        }));
        assert!(run.is_err(), "the injected panic left the run");
        let fresh = teach();
        for goal in goals {
            assert_eq!(entails(&p, goal), entails(&fresh, goal), "{goal}");
        }
        // The clone shares the replacement, not the poisoned grounding.
        assert!(entails(&clone, "exists x. Teach(x, Psych)"));
        assert_eq!(
            p.groundings_kept(),
            1,
            "the poisoned grounding was replaced"
        );
        // A panic under the memo's lock empties the memo, and no more.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _memo = p.memo.lock().unwrap();
            panic!("poisons the memo");
        }));
        assert_eq!(p.memo_len(), 0);
        assert!(entails(&p, goals[0]));
        assert_eq!(p.memo_len(), 1);
    }

    #[test]
    fn memoization_counts() {
        let p = teach();
        let q = parse("Teach(John, Math)").unwrap();
        assert!(p.entails(&q));
        assert_eq!(
            p.sat_calls(),
            2,
            "one run finds the model of ground Σ, one decides the goal"
        );
        assert!(p.entails(&q));
        assert_eq!(p.sat_calls(), 2, "second call must hit the memo");
        assert_eq!(p.memo_len(), 1);
        // Ground Σ does not mention this atom, so the kept model refutes
        // it: no run, nothing memoized.
        assert!(!entails(&p, "Teach(Mary, Math)"));
        assert_eq!((p.sat_calls(), p.refuted(), p.memo_len()), (2, 1, 1));
    }

    #[test]
    fn atom_model_short_circuits_ground_atoms() {
        let theory = Theory::from_text("emp(Mary)\nforall x. emp(x) -> person(x)").unwrap();
        let mut model = Database::new();
        for s in ["emp(Mary)", "person(Mary)"] {
            let Formula::Atom(a) = parse(s).unwrap() else {
                unreachable!()
            };
            model.insert(&a);
        }
        let p = Prover::new(theory).with_atom_model(model);
        assert!(entails(&p, "person(Mary)"));
        assert!(!entails(&p, "person(Sue)"));
        assert_eq!(
            p.sat_calls(),
            0,
            "ground atoms must bypass the SAT pipeline"
        );
        // Non-atomic goals still go through grounding + SAT: one run for
        // the model of ground Σ, one for the goal.
        assert!(entails(&p, "exists x. person(x)"));
        assert_eq!(p.sat_calls(), 2);
    }

    #[test]
    fn updated_prover_answers_for_the_new_theory() {
        let old = Prover::new(Theory::from_text("emp(Mary)").unwrap());
        assert!(entails(&old, "emp(Mary)"));
        assert!(!entails(&old, "emp(Sue)"));
        let mut theory = old.theory().clone();
        theory.assert(parse("emp(Sue)").unwrap()).unwrap();
        let mut model = Database::new();
        for s in ["emp(Mary)", "emp(Sue)"] {
            let Formula::Atom(a) = parse(s).unwrap() else {
                unreachable!()
            };
            model.insert(&a);
        }
        let new = old.updated(theory, Some(model));
        assert!(entails(&new, "emp(Sue)"));
        assert_eq!(new.sat_calls(), 0, "model answers ground atoms");
        // The memo did not leak across the update.
        assert_eq!(new.memo_len(), 0);
        assert!(entails(&new, "exists x. emp(x)"));
    }

    #[test]
    fn empty_theory_tautologies() {
        let p = Prover::new(Theory::empty());
        assert!(entails(&p, "p(a) | ~p(a)"));
        assert!(entails(&p, "forall x. p(x) -> p(x)"));
        assert!(!entails(&p, "p(a)"));
        assert!(!entails(&p, "~p(a)"));
    }

    #[test]
    fn existential_rule_heads() {
        let p = Prover::new(
            Theory::from_text(
                "node(a)
                 forall x. node(x) -> exists y. edge(x, y)",
            )
            .unwrap(),
        );
        assert!(entails(&p, "exists y. edge(a, y)"));
        // No self-loop is forced: a fresh witness serves as the target.
        assert!(!entails(&p, "edge(a, a)"));
        assert!(!entails(&p, "exists x. edge(x, x)"));
    }

    #[test]
    fn closed_equality_goals_skip_the_sat_pipeline() {
        let p = teach();
        assert!(entails(&p, "John = John & Math != CS"));
        assert_eq!(p.sat_calls(), 0, "a true one holds whatever Σ says");
        assert!(!entails(&p, "John = Mary | ~(CS = CS)"));
        assert!(!entails(&p, "John = Sue"));
        assert_eq!(
            p.sat_calls(),
            1,
            "the run that found ground Σ a model, no more"
        );
        assert_eq!(p.memo_len(), 0);
        // An unsatisfiable Σ entails the false ones too.
        let absurd = Prover::new(Theory::from_text("p(a)\n~p(a)").unwrap());
        assert!(entails(&absurd, "a = b"));
        assert!(entails(&absurd, "~(a = a)"));
        assert_eq!(absurd.sat_calls(), 1);
    }

    #[test]
    fn active_domain_is_scanned_once_and_restarted_by_updates() {
        let p = Prover::new(Theory::from_text("p(b)\np(a)").unwrap());
        let (a, b, c) = (Param::new("a"), Param::new("b"), Param::new("c"));
        let mut sorted = vec![a, b];
        sorted.sort();
        assert_eq!(p.active_domain(), sorted);
        assert!(std::ptr::eq(p.active_domain(), p.active_domain()));
        // Goal parameters outside the domain follow it; inside, no repeat.
        let goal = parse("p(c) | p(a)").unwrap();
        assert_eq!(p.answer_domain(&goal), [sorted.clone(), vec![c]].concat());
        let mut theory = p.theory().clone();
        theory.assert(parse("p(c)").unwrap()).unwrap();
        assert!(p.updated(theory, None).active_domain().contains(&c));
    }

    #[test]
    fn sigma_is_grounded_once_and_only_when_asked() {
        let p = Prover::new(
            Theory::from_text(
                "p(c0) | p(c1)
                 exists x. q(x)
                 forall x. p(x) -> r(x)
                 r(c2)\nr(c3)\nr(c4)\nr(c5)\nr(c6)\nr(c7)\nr(c8)\nr(c9)",
            )
            .unwrap(),
        );
        assert_eq!(p.groundings_kept(), 0, "Prover::new grounds nothing");
        // 1 200 distinct goals over the active domain.
        for pred in ["p", "q", "r"] {
            for x in 0..10 {
                for y in 0..10 {
                    for goal in [
                        format!("{pred}(c{x}) | r(c{y})"),
                        format!("~{pred}(c{x}) | q(c{y})"),
                        format!("exists z. {pred}(z) & ~(z = c{x}) & ~(z = c{y})"),
                        format!("{pred}(c{x}) & {pred}(c{y}) -> r(c{x})"),
                    ] {
                        let goal = parse(&goal).unwrap();
                        assert_eq!(p.entails(&goal), p.entails_from_scratch(&goal), "{goal}");
                    }
                }
            }
        }
        assert_eq!(p.groundings_kept(), 1);
        // An update starts over, and builds nothing until asked.
        let mut theory = p.theory().clone();
        theory.assert(parse("q(c0)").unwrap()).unwrap();
        let next = p.updated(theory, None);
        assert_eq!(next.groundings_kept(), 0);
        assert!(entails(&next, "q(c0)"));
        assert_eq!((next.groundings_kept(), p.groundings_kept()), (1, 1));
    }

    #[test]
    fn clones_share_the_kept_grounding() {
        let p = teach();
        let early = p.clone();
        assert!(entails(&p, "exists x. Teach(x, Psych)"));
        let late = p.clone();
        let goal = parse("Teach(John, Math)").unwrap();
        let kept = p.grounding_for(&goal).0;
        for clone in [&early, &late] {
            assert!(Arc::ptr_eq(&kept, &clone.grounding_for(&goal).0));
            assert!(clone.entails(&goal));
        }
        assert_eq!(p.groundings_kept(), 1);
        // A clone counts the runs it caused on top of those it inherited.
        assert_eq!((early.sat_calls(), late.sat_calls()), (1, 3));
    }

    #[test]
    fn a_definite_prover_answering_from_its_model_reads_no_domain() {
        let atoms = |src: &[&str]| -> Database {
            src.iter()
                .map(|a| match parse(a).unwrap() {
                    Formula::Atom(a) => a,
                    other => panic!("not an atom: {other}"),
                })
                .collect()
        };
        let rules = "forall x. emp(x) -> person(x)\n";
        let theory = Theory::from_text(&format!("{rules}emp(Mary)")).unwrap();
        let p = Prover::new(theory).with_atom_model(atoms(&["emp(Mary)", "person(Mary)"]));
        assert_eq!(p.sigma_read(), (false, false), "Prover::new reads nothing");
        // What `demo` asks of a definite prover: ground atoms, and
        // selections of the attached model.
        assert!(entails(&p, "person(Mary)"));
        assert!(!entails(&p, "person(Sue)"));
        let people = p
            .atom_model()
            .unwrap()
            .select(Pred::new("person", 1), vec![None]);
        assert_eq!(people.count(), 1);
        assert_eq!(p.sigma_read(), (false, false));
        let theory = Theory::from_text(&format!("{rules}emp(Mary)\nemp(Sue)")).unwrap();
        let model = atoms(&["emp(Mary)", "emp(Sue)", "person(Mary)", "person(Sue)"]);
        let next = p.updated(theory, Some(model));
        assert!(entails(&next, "person(Sue)"));
        assert_eq!(
            (next.sigma_read(), p.clone().sigma_read()),
            ((false, false), (false, false))
        );
        // A goal the model does not answer reads `Σ` once; a clone keeps
        // both, an update the witnesses.
        assert!(entails(&next, "exists x. person(x) & ~(x = Mary)"));
        assert_eq!(next.sigma_read(), (true, true));
        assert_eq!(next.clone().sigma_read(), (true, true));
        let kept = next.updated(next.theory().clone(), next.atom_model().cloned());
        assert_eq!(kept.sigma_read(), (false, true));
        assert_eq!(kept.witnesses(), next.witnesses());
    }

    #[test]
    fn a_first_use_under_the_pool_lock_picks_the_witnesses_first() {
        // Spares are drawn under the placeholders' pool lock, and picking
        // the witnesses takes it: they must be picked before.
        let p = teach();
        assert_eq!(p.sigma_read(), (false, false));
        let spares = p.spares(2, &[]);
        assert_eq!(p.sigma_read(), (true, true));
        assert!(!spares.iter().any(|s| p.witnesses().contains(s)));
    }

    #[test]
    fn provers_of_one_theory_share_their_witnesses() {
        // Every rebuilt prover draws its witnesses from the pool, so a
        // stream of non-definite commits interns no parameter.
        let (a, b) = (teach(), teach());
        assert_eq!(a.witnesses(), b.witnesses());
        // They stay clear of Σ's parameters and of a goal's placeholders.
        let (grounding, _) = a.grounding_for(&parse("Teach(nobody, Math)").unwrap());
        let taken =
            |p: &Param| a.active_domain().contains(p) || grounding.placeholders().contains(p);
        assert!(!a.witnesses().iter().any(taken));
    }

    #[test]
    fn fresh_names_do_not_grow_what_is_kept() {
        let p = teach();
        assert!(!entails(&p, "Teach(nobody, Math)"));
        assert!(!entails(&p, "~Teach(nobody, Math)"));
        let foreign = p.grounding_for(&parse("Teach(nobody, Math)").unwrap()).0;
        let size = foreign.solver_size();
        for i in 0..10_000 {
            // An atom ground Σ never mentions, and one it does (under the
            // existential) — neither reaches the solver.
            assert!(!entails(&p, &format!("Teach(absent{i}, Math)")));
            assert!(!entails(&p, &format!("Teach(John, absent{i})")));
        }
        assert!(p.groundings_kept() <= 2);
        assert_eq!(foreign.solver_size(), size);
        assert_eq!(p.memo_len(), 1, "only the solver's verdict was memoized");
        // A literal goal that does reach the solver is a bare assumption:
        // it may need a variable, never a clause.
        for i in 0..50 {
            assert!(!entails(&p, &format!("~Teach(absent{i}, Math)")));
        }
        assert_eq!(foreign.solver_size().1, size.1);
        assert!(p.groundings_kept() <= 2);
    }

    mod properties {
        use super::*;
        use crate::testgen::{definite, equality_goal, goal, non_definite, RawTheory};
        use proptest::prelude::*;

        fn raw_theory() -> impl Strategy<Value = RawTheory> {
            (
                0u8..8,
                proptest::collection::vec((0u8..8, 0u8..8, 0u8..8), 0..7),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Deciding a closed equality-only goal by evaluation gives
            /// the verdict of grounding `Σ ∧ ¬g` and running the solver —
            /// with a model attached, without one, and on theories that
            /// are not definite, unsatisfiable ones included.
            #[test]
            fn equality_goals_match_the_sat_verdict(
                raw in raw_theory(),
                codes in proptest::collection::vec(0u8..255, 1..40),
            ) {
                let goal = equality_goal(&mut codes.into_iter(), 3);
                let (theory, model) = definite(&raw);
                let provers = [
                    Prover::new(theory.clone()).with_atom_model(model),
                    Prover::new(theory),
                    Prover::new(non_definite(&raw)),
                ];
                for p in &provers {
                    prop_assert_eq!(
                        p.entails(&goal),
                        p.entails_from_scratch(&goal),
                        "goal {} over {:?}", goal, p.theory().sentences()
                    );
                }
            }

            /// A sequence of goals put to one prover — so the kept
            /// registry, model, solver and memo are all exercised — gets,
            /// goal for goal, the verdict of the from-scratch pipeline:
            /// on definite theories (no model attached) and non-definite
            /// ones, unsatisfiable ones included, with quantifiers,
            /// equalities and parameters no theory mentions in the goals.
            #[test]
            fn kept_grounding_matches_the_from_scratch_pipeline(
                raw in raw_theory(),
                goals in proptest::collection::vec(
                    proptest::collection::vec(0u8..255, 1..24),
                    1..12,
                ),
            ) {
                let provers = [Prover::new(definite(&raw).0), Prover::new(non_definite(&raw))];
                for p in &provers {
                    let cloned = p.clone();
                    for (i, codes) in goals.iter().enumerate() {
                        let goal = goal(&mut codes.iter().copied(), 3);
                        let expected = p.entails_from_scratch(&goal);
                        // Every other goal goes to a clone, which shares
                        // the solver but not the memo; then again, to hit
                        // the memo or the solver a second time.
                        let asked = if i % 2 == 0 { p } else { &cloned };
                        prop_assert_eq!(
                            asked.entails(&goal),
                            expected,
                            "goal {} (#{}) over {:?}", goal, i, p.theory().sentences()
                        );
                        prop_assert_eq!(p.entails(&goal), expected, "asked again: {}", goal);
                        let negated = Formula::not(goal.clone());
                        prop_assert_eq!(
                            p.entails(&negated),
                            p.entails_from_scratch(&negated),
                            "negation of {}", goal
                        );
                    }
                    prop_assert!(p.groundings_kept() <= 10, "goal_param has nine names");
                }
            }
        }
    }
}
