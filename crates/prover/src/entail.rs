//! First-order entailment for FOPCE by grounding + SAT.
//!
//! `Σ ⊨_FOPCE g` iff `Σ ∧ ¬g` has no model. Models of FOPCE theories are
//! worlds over the countably infinite parameter domain; we ground over the
//! finite universe consisting of the active domain plus a budget of fresh
//! witness parameters and hand the result to the CDCL solver. See the crate
//! docs for the exactness discussion.

use crate::ground::GroundContext;
use epilog_sat::{tseitin, Cnf, Prop, SatResult, Solver};
use epilog_storage::Database;
use epilog_syntax::{is_first_order, transform, Formula, Param, Theory};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// How the finite grounding universe is chosen.
#[derive(Debug, Clone, Copy)]
pub struct UniversePolicy {
    /// Maximum number of fresh witness parameters appended to the active
    /// domain. Existentials that are not nested under universals need one
    /// witness each for exactness; more witnesses only grow the grounding.
    pub witness_cap: usize,
}

impl Default for UniversePolicy {
    fn default() -> Self {
        UniversePolicy { witness_cap: 3 }
    }
}

/// A theorem prover for one fixed FOPCE theory `Σ`.
///
/// Entailment results are memoized per goal sentence — the `demo`
/// evaluator asks the same ground questions repeatedly while backtracking.
///
/// A `Prover` is `Sync`: queries take `&self`, and the memo and SAT-call
/// counter live behind a `Mutex`/atomic so an immutable committed state
/// can be shared across reader threads (the MVCC serving layer). Two
/// threads racing on the same uncached goal both compute it and insert
/// the same answer; the lock is never held across a SAT call.
pub struct Prover {
    theory: Theory,
    witnesses: Vec<Param>,
    memo: Mutex<HashMap<Formula, bool>>,
    /// A materialized least model answering ground-atom goals without SAT
    /// (see [`Prover::with_atom_model`]).
    atom_model: Option<Database>,
    /// Count of SAT-solver invocations (see [`Prover::sat_calls`]).
    sat_calls: AtomicU64,
    /// The theory's active domain, sorted; scanned out of the sentences on
    /// first use and shared by every grounding universe and answer
    /// enumeration afterwards.
    active_domain: OnceLock<Vec<Param>>,
    /// Whether `Σ` is satisfiable, decided at most once per prover.
    satisfiable: OnceLock<bool>,
}

impl Clone for Prover {
    fn clone(&self) -> Self {
        Prover {
            theory: self.theory.clone(),
            witnesses: self.witnesses.clone(),
            memo: Mutex::new(self.memo.lock().unwrap().clone()),
            atom_model: self.atom_model.clone(),
            sat_calls: AtomicU64::new(self.sat_calls.load(Ordering::Relaxed)),
            active_domain: self.active_domain.clone(),
            satisfiable: self.satisfiable.clone(),
        }
    }
}

impl Prover {
    /// Build a prover with the default universe policy.
    pub fn new(theory: Theory) -> Self {
        Prover::with_policy(theory, UniversePolicy::default())
    }

    /// Build a prover with an explicit universe policy.
    pub fn with_policy(theory: Theory, policy: UniversePolicy) -> Self {
        // One witness per existential node of the theory (counted on the
        // NNF so polarities are explicit), plus one spare for goal-side
        // quantifiers, at least 1 (the FOPCE domain is never empty),
        // clamped by the cap.
        let mut exists_nodes = 0usize;
        for s in theory.sentences() {
            exists_nodes += count_existentials(&transform::nnf(s));
        }
        let budget = (exists_nodes + 1).clamp(1, policy.witness_cap.max(1));
        let witnesses = (0..budget).map(|_| Param::fresh("w")).collect();
        Prover {
            theory,
            witnesses,
            memo: Mutex::new(HashMap::new()),
            atom_model: None,
            sat_calls: AtomicU64::new(0),
            active_domain: OnceLock::new(),
            satisfiable: OnceLock::new(),
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

    /// Build a prover for an updated theory, reusing this prover's witness
    /// budget — the model-maintenance hook for transactional updates.
    ///
    /// The memo starts empty (entailments may have changed) and `model`,
    /// when given, becomes the attached ground-atom model (same soundness
    /// contract as [`Prover::with_atom_model`]). Carrying the witness
    /// budget over is sound when the update adds or removes only **ground
    /// atoms**: they contribute no existential nodes, so the recomputed
    /// budget would be identical. Updates that change quantified
    /// sentences should build a fresh [`Prover::new`] instead.
    pub fn updated(&self, theory: Theory, model: Option<Database>) -> Prover {
        Prover {
            theory,
            witnesses: self.witnesses.clone(),
            memo: Mutex::new(HashMap::new()),
            atom_model: model,
            sat_calls: AtomicU64::new(0),
            active_domain: OnceLock::new(),
            satisfiable: OnceLock::new(),
        }
    }

    /// The theory this prover answers questions about.
    pub fn theory(&self) -> &Theory {
        &self.theory
    }

    /// The theory's active domain (every parameter some sentence
    /// mentions), sorted. Computed on first use and kept for the prover's
    /// lifetime; [`Prover::updated`] starts a fresh one.
    pub fn active_domain(&self) -> &[Param] {
        self.active_domain
            .get_or_init(|| self.theory.active_domain())
    }

    /// The grounding universe for a goal: active domain ∪ goal parameters
    /// ∪ witnesses, deterministic order.
    pub fn universe_for(&self, goal: &Formula) -> Vec<Param> {
        let mut u = self.answer_domain(goal);
        u.extend(self.witnesses.iter().copied());
        u
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

    /// Whether `Σ` is satisfiable. Decided once per prover: a theory with
    /// an attached least model is a definite program, which that model
    /// satisfies; any other theory costs one SAT call, remembered.
    pub fn satisfiable(&self) -> bool {
        *self.satisfiable.get_or_init(|| {
            // Σ satisfiable iff Σ ⊭ (p ∧ ¬p) for a fresh proposition.
            self.atom_model.is_some()
                || !self.entails_uncached(&Formula::and(
                    Formula::prop("__absurd"),
                    Formula::not(Formula::prop("__absurd")),
                ))
        })
    }

    /// Whether `Σ ∧ g` is satisfiable (the consistency reading of
    /// integrity constraints, Definition 3.1).
    pub fn consistent_with(&self, g: &Formula) -> bool {
        !self.entails(&Formula::not(g.clone()))
    }

    /// Decide `Σ ⊨_FOPCE g` for a FOPCE sentence `g`.
    ///
    /// Two kinds of goal never reach grounding + SAT:
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
    /// Everything else is memoized per goal and decided by the SAT
    /// pipeline.
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
        if let Some(&cached) = self.memo.lock().unwrap().get(g) {
            return cached;
        }
        let result = self.entails_uncached(g);
        self.memo.lock().unwrap().insert(g.clone(), result);
        result
    }

    fn entails_uncached(&self, g: &Formula) -> bool {
        self.sat_calls.fetch_add(1, Ordering::Relaxed);
        let universe = self.universe_for(g);
        let mut ctx = GroundContext::new(universe);
        let mut cnf = Cnf::new();
        let mut roots = Vec::with_capacity(self.theory.len() + 1);
        for s in self.theory.sentences() {
            roots.push(ctx.ground(s));
        }
        roots.push(ctx.ground(&Formula::not(g.clone())));
        // Atom variables come first, then Tseitin auxiliaries.
        cnf.reserve_vars(ctx.num_atoms());
        for p in &roots {
            let root = tseitin(p, &mut cnf);
            cnf.add_unit(root);
        }
        matches!(Solver::new(&cnf).solve(), SatResult::Unsat)
    }

    /// Number of memoized entailment results (diagnostics).
    pub fn memo_len(&self) -> usize {
        self.memo.lock().unwrap().len()
    }

    /// Number of SAT-solver invocations so far (benches/tests).
    pub fn sat_calls(&self) -> u64 {
        self.sat_calls.load(Ordering::Relaxed)
    }

    /// Reset the SAT-call counter (benches).
    pub fn reset_sat_calls(&self) {
        self.sat_calls.store(0, Ordering::Relaxed);
    }
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
    match GroundContext::new(Vec::new()).ground(g) {
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
    use epilog_syntax::parse;

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
        assert!(p.consistent_with(&ic));
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
    fn memoization_counts() {
        let p = teach();
        let q = parse("Teach(John, Math)").unwrap();
        assert!(p.entails(&q));
        assert!(p.entails(&q));
        assert_eq!(p.sat_calls(), 1, "second call must hit the memo");
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
        // Non-atomic goals still go through grounding + SAT.
        assert!(entails(&p, "exists x. person(x)"));
        assert_eq!(p.sat_calls(), 1);
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
        assert!(!entails(&p, "John = Mary | ~(CS = CS)"));
        assert_eq!(p.sat_calls(), 1, "one satisfiability check, no more");
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

    mod properties {
        use super::*;
        use crate::testgen::{definite, equality_goal, non_definite, RawTheory};
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
                        p.entails_uncached(&goal),
                        "goal {} over {:?}", goal, p.theory().sentences()
                    );
                }
            }
        }
    }
}
