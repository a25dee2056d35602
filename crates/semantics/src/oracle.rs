//! The semantic oracle: `ℳ(Σ)` by brute-force enumeration, KFOPCE truth in
//! `(W, 𝒮)`, and the answer relation of Definition 2.1.

use crate::world::{holds_env, holds_in_world};
use epilog_core::Answer;
use epilog_storage::Database;
use epilog_syntax::formula::{Atom, Formula};
use epilog_syntax::{Param, Pred, Term, Theory, Var};
use std::collections::HashMap;

/// A finite set of worlds `𝒮` (usually `ℳ(Σ)`) over a fixed finite
/// universe.
#[derive(Debug, Clone)]
pub struct ModelSet {
    worlds: Vec<Database>,
    universe: Vec<Param>,
}

impl ModelSet {
    /// Enumerate `ℳ(Σ)`: all subsets of the Herbrand base over
    /// `universe` and `preds` that satisfy every sentence of `Σ`.
    ///
    /// Cost is `2^|base|` world checks — this *is* the exponential
    /// baseline. Keep `|base| ≤ ~20`.
    ///
    /// # Panics
    /// Panics if the Herbrand base exceeds 26 atoms (2²⁶ subsets), as a
    /// guard against accidental blow-up.
    pub fn models(theory: &Theory, universe: &[Param], preds: &[Pred]) -> ModelSet {
        let base = herbrand_base(universe, preds);
        assert!(
            base.len() <= 26,
            "Herbrand base of {} atoms is too large for brute-force enumeration",
            base.len()
        );
        let mut worlds = Vec::new();
        for mask in 0u64..(1u64 << base.len()) {
            let world: Database = base
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| a.clone())
                .collect();
            if theory
                .sentences()
                .iter()
                .all(|s| holds_in_world(s, &world, universe))
            {
                worlds.push(world);
            }
        }
        ModelSet {
            worlds,
            universe: universe.to_vec(),
        }
    }

    /// Wrap an explicit set of worlds (used by circumscription and by
    /// tests).
    pub fn from_worlds(worlds: Vec<Database>, universe: Vec<Param>) -> ModelSet {
        ModelSet { worlds, universe }
    }

    /// The worlds in the set.
    pub fn worlds(&self) -> &[Database] {
        &self.worlds
    }

    /// The evaluation universe.
    pub fn universe(&self) -> &[Param] {
        &self.universe
    }

    /// Whether the set is empty (i.e. `Σ` is unsatisfiable over this
    /// universe).
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Truth of a KFOPCE sentence in `(W, 𝒮)` where `W = worlds[w_idx]`
    /// and `𝒮 = self` — the recursion of §2, clause (5): `Kw` is true iff
    /// `w` is true in `(S, 𝒮)` for every `S ∈ 𝒮`.
    pub fn truth(&self, w: &Formula, w_idx: usize) -> bool {
        self.truth_in(w, &self.worlds[w_idx].clone())
    }

    /// Truth in `(W, 𝒮)` for an explicit world `W` — which need not be a
    /// member of `𝒮` (needed for KFOPCE *validity* checking, where the
    /// evaluation world and the epistemic alternatives vary
    /// independently).
    pub fn truth_in(&self, w: &Formula, world: &Database) -> bool {
        self.truth_env(w, world, &mut HashMap::new())
    }

    fn truth_env(&self, w: &Formula, world: &Database, env: &mut HashMap<Var, Param>) -> bool {
        match w {
            Formula::Know(body) => self
                .worlds
                .iter()
                .all(|s| self.truth_env(body, s, &mut env.clone())),
            Formula::Not(x) => !self.truth_env(x, world, env),
            Formula::And(a, b) => self.truth_env(a, world, env) && self.truth_env(b, world, env),
            Formula::Or(a, b) => self.truth_env(a, world, env) || self.truth_env(b, world, env),
            Formula::Implies(a, b) => {
                !self.truth_env(a, world, env) || self.truth_env(b, world, env)
            }
            Formula::Iff(a, b) => self.truth_env(a, world, env) == self.truth_env(b, world, env),
            Formula::Forall(x, body) => {
                let universe = self.universe.clone();
                universe.iter().all(|p| {
                    let shadow = env.insert(*x, *p);
                    let r = self.truth_env(body, world, env);
                    match shadow {
                        Some(q) => env.insert(*x, q),
                        None => env.remove(x),
                    };
                    r
                })
            }
            Formula::Exists(x, body) => {
                let universe = self.universe.clone();
                universe.iter().any(|p| {
                    let shadow = env.insert(*x, *p);
                    let r = self.truth_env(body, world, env);
                    match shadow {
                        Some(q) => env.insert(*x, q),
                        None => env.remove(x),
                    };
                    r
                })
            }
            // First-order leaves: delegate to world truth.
            Formula::Atom(_) | Formula::Eq(_, _) => holds_env(w, world, &self.universe, env),
        }
    }

    /// `Σ ⊨ q` (Definition 2.1 for sentences): `q` true in `(W, 𝒮)` for
    /// every `W ∈ 𝒮`.
    pub fn certain(&self, q: &Formula) -> bool {
        (0..self.worlds.len()).all(|i| self.truth(q, i))
    }

    /// The three-valued answer to a sentence query.
    pub fn answer(&self, q: &Formula) -> Answer {
        Answer::from_entailments(self.certain(q), self.certain(&Formula::not(q.clone())))
    }

    /// All answers to an open query: tuples `p̄` over the universe with
    /// `Σ ⊨ q|p̄`, aligned with `q.free_vars()`.
    pub fn answers(&self, q: &Formula) -> Vec<Vec<Param>> {
        let vars = q.free_vars();
        if vars.is_empty() {
            return if self.certain(q) {
                vec![vec![]]
            } else {
                vec![]
            };
        }
        let mut out = Vec::new();
        let n = self.universe.len();
        let total = n
            .checked_pow(vars.len() as u32)
            .expect("answer space overflow");
        for mut idx in 0..total {
            let mut tuple = vec![self.universe[0]; vars.len()];
            for slot in tuple.iter_mut().rev() {
                *slot = self.universe[idx % n];
                idx /= n;
            }
            let bound = q.bind_free(&tuple);
            if self.certain(&bound) {
                out.push(tuple);
            }
        }
        out
    }
}

/// The Herbrand base: every ground atom over the universe and predicates,
/// in deterministic order.
pub fn herbrand_base(universe: &[Param], preds: &[Pred]) -> Vec<Atom> {
    let mut out = Vec::new();
    for pred in preds {
        let arity = pred.arity();
        let total = universe.len().pow(arity as u32);
        for mut idx in 0..total {
            let mut terms = Vec::with_capacity(arity);
            for _ in 0..arity {
                terms.push(Term::Param(universe[idx % universe.len()]));
                idx /= universe.len();
            }
            out.push(Atom::new(*pred, terms));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    fn ps(names: &[&str]) -> Vec<Param> {
        names.iter().map(|n| Param::new(n)).collect()
    }

    /// The {p ∨ q} database of the introduction.
    fn p_or_q() -> ModelSet {
        let theory = Theory::from_text("p | q").unwrap();
        let preds = vec![Pred::new("p", 0), Pred::new("q", 0)];
        ModelSet::models(&theory, &ps(&["c"]), &preds)
    }

    #[test]
    fn intro_example_p_or_q() {
        let ms = p_or_q();
        assert_eq!(ms.worlds().len(), 3, "models: {{p}}, {{q}}, {{p,q}}");
        // Query p: unknown.
        assert_eq!(ms.answer(&parse("p").unwrap()), Answer::Unknown);
        // Query Kp ("do you know that p?"): no.
        assert_eq!(ms.answer(&parse("K p").unwrap()), Answer::No);
        // Query Kp ∨ K¬p ("do you know whether p?"): no.
        assert_eq!(ms.answer(&parse("K p | K ~p").unwrap()), Answer::No);
        // But the database does know p ∨ q.
        assert_eq!(ms.answer(&parse("K (p | q)").unwrap()), Answer::Yes);
    }

    #[test]
    fn k_does_not_depend_on_current_world() {
        let ms = p_or_q();
        for i in 0..ms.worlds().len() {
            assert!(!ms.truth(&parse("K p").unwrap(), i));
            assert!(ms.truth(&parse("K (p | q)").unwrap(), i));
        }
    }

    #[test]
    fn iterated_modalities_weak_s5() {
        let ms = p_or_q();
        // KKw ≡ Kw and ¬Kp ⊃ K¬Kp (negative introspection).
        assert_eq!(ms.answer(&parse("K K (p | q)").unwrap()), Answer::Yes);
        assert_eq!(ms.answer(&parse("K ~K p").unwrap()), Answer::Yes);
    }

    #[test]
    fn known_vs_unknown_individuals() {
        // Σ = {p(a), ∃x q(x)} over universe {a, b}.
        let theory = Theory::from_text("p(a)\nexists x. q(x)").unwrap();
        let preds = vec![Pred::new("p", 1), Pred::new("q", 1)];
        let ms = ModelSet::models(&theory, &ps(&["a", "b"]), &preds);
        // ∃x K p(x): a known individual with property p — yes (a).
        assert_eq!(ms.answer(&parse("exists x. K p(x)").unwrap()), Answer::Yes);
        // ∃x K q(x): no known q-individual.
        assert_eq!(ms.answer(&parse("exists x. K q(x)").unwrap()), Answer::No);
        // K ∃x q(x): but the database knows someone is a q.
        assert_eq!(
            ms.answer(&parse("K (exists x. q(x))").unwrap()),
            Answer::Yes
        );
    }

    #[test]
    fn answers_enumerate_certain_tuples() {
        let theory = Theory::from_text("p(a)\np(b)\nq(b)").unwrap();
        let preds = vec![Pred::new("p", 1), Pred::new("q", 1)];
        let ms = ModelSet::models(&theory, &ps(&["a", "b"]), &preds);
        let got = ms.answers(&parse("K p(x)").unwrap());
        assert_eq!(got.len(), 2);
        let got = ms.answers(&parse("K (p(x) & q(x))").unwrap());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0][0].name(), "b");
    }

    #[test]
    fn unsatisfiable_theory_has_no_worlds() {
        let theory = Theory::from_text("p\n~p").unwrap();
        let ms = ModelSet::models(&theory, &ps(&["c"]), &[Pred::new("p", 0)]);
        assert!(ms.is_empty());
        // Vacuously certain of everything.
        assert!(ms.certain(&parse("q").unwrap()));
    }

    #[test]
    fn herbrand_base_sizes() {
        let universe = ps(&["a", "b", "c"]);
        let preds = vec![Pred::new("p", 1), Pred::new("e", 2), Pred::new("r", 0)];
        let base = herbrand_base(&universe, &preds);
        assert_eq!(base.len(), 3 + 9 + 1);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn base_size_guard() {
        let universe = ps(&["a", "b", "c", "d", "e", "f"]);
        let preds = vec![Pred::new("e", 2)];
        let theory = Theory::empty();
        let _ = ModelSet::models(&theory, &universe, &preds);
    }

    #[test]
    fn subjective_sentences_never_unknown() {
        // Lemma 5.2 semantically: Σ ⊨ π or Σ ⊨ ¬π for subjective π.
        let ms = p_or_q();
        for q in ["K p", "~K p", "K (p | q)", "K p | K q"] {
            let w = parse(q).unwrap();
            assert!(epilog_syntax::is_subjective(&w));
            assert_ne!(
                ms.answer(&w),
                Answer::Unknown,
                "subjective {q} must be decided"
            );
        }
    }
}
