//! `Closure(Σ)` and closed-world query evaluation (§7).
//!
//! `Closure(Σ) = Σ ∪ {¬π : π atomic, Σ ⊬ π}` — the closed-world
//! assumption says the database completely represents all positive
//! information. The section's results, all implemented and tested here:
//!
//! * `Closure(Σ)` has **at most one model**: the set of entailed atoms
//!   (everything else false). It is satisfiable iff that candidate world
//!   actually models `Σ`.
//! * **Theorem 7.1**: `Closure(Σ) ⊨ σ|p̄ iff Closure(Σ) ⊨_FOPCE σ̂|p̄` —
//!   under CWA the `K` operator evaporates ([`ClosedDb::ask`] evaluates
//!   through [`strip_k`]).
//! * **Theorem 7.2**: the consistency and entailment readings of
//!   first-order constraint satisfaction coincide for satisfiable closures
//!   (both equal truth in the unique model).
//! * **Theorem 7.3**: `demo(ℛ(w), Σ)` soundly evaluates the FOPCE query
//!   `w` against `Closure(Σ)` **without computing the closure** —
//!   [`cwa_demo`].

use crate::oracle::herbrand_base;
use crate::transform::{modalize, strip_k};
use crate::world::holds_in_world;
use epilog_core::{demo, Answer, DemoStream};
use epilog_prover::answers::domain_walk;
use epilog_prover::Prover;
use epilog_storage::Database;
use epilog_syntax::formula::Formula;
use epilog_syntax::{Admissibility, Param, Theory};

/// A database under the closed-world assumption: the unique model of
/// `Closure(Σ)` (when satisfiable), materialized.
pub struct ClosedDb {
    /// The unique candidate world: all atoms entailed by `Σ` over the
    /// active-domain Herbrand base.
    world: Database,
    /// Whether `Closure(Σ)` is satisfiable (i.e. the candidate world
    /// models `Σ`).
    satisfiable: bool,
    /// Evaluation universe: the active domain plus one spare parameter
    /// standing in for the infinitely many unmentioned individuals.
    universe: Vec<Param>,
}

impl ClosedDb {
    /// Compute `Closure(Σ)`'s unique model.
    ///
    /// When the prover carries a materialized least model (a definite
    /// theory routed through the bottom-up engine, see
    /// [`epilog_core::prover_for`]), that model *is* the closure's
    /// candidate world and is taken directly; otherwise every atom of the
    /// active-domain Herbrand base is checked by entailment.
    pub fn new(prover: &Prover) -> ClosedDb {
        let theory = prover.theory();
        let domain = theory.active_domain();
        let world = match prover.atom_model() {
            Some(model) => model.clone(),
            None => {
                let base = herbrand_base(&domain, &theory.preds());
                let mut world = Database::new();
                for atom in &base {
                    if prover.entails(&Formula::Atom(atom.clone())) {
                        world.insert(atom);
                    }
                }
                world
            }
        };
        // The closure negates *every* non-entailed atom, including those
        // mentioning unmentioned parameters; one spare parameter (with all
        // its atoms false) represents them during quantifier evaluation.
        let mut universe = domain;
        universe.extend(prover.spares(1, &[]));
        let satisfiable = theory
            .sentences()
            .iter()
            .all(|s| holds_in_world(s, &world, &universe));
        ClosedDb {
            world,
            satisfiable,
            universe,
        }
    }

    /// The unique model (meaningful only when [`ClosedDb::satisfiable`]).
    pub fn world(&self) -> &Database {
        &self.world
    }

    /// Whether `Closure(Σ)` is satisfiable.
    pub fn satisfiable(&self) -> bool {
        self.satisfiable
    }

    /// Closed-world evaluation of an arbitrary KFOPCE sentence, via
    /// Theorem 7.1: strip the `K`s and evaluate the first-order remainder
    /// in the unique model. Under CWA every query is decided — the answer
    /// is never `Unknown` (for satisfiable closures).
    pub fn ask(&self, q: &Formula) -> Answer {
        if !self.satisfiable {
            // An unsatisfiable closure entails everything.
            return Answer::Yes;
        }
        let fo = strip_k(q);
        if holds_in_world(&fo, &self.world, &self.universe) {
            Answer::Yes
        } else {
            Answer::No
        }
    }

    /// All closed-world answers to an open query: tuples over the active
    /// domain making the stripped query true in the unique model — every
    /// tuple when the closure is unsatisfiable, which entails everything
    /// (as [`ClosedDb::ask`] answers).
    pub fn answers(&self, q: &Formula) -> Vec<Vec<Param>> {
        let fo = strip_k(q);
        let vars = fo.free_vars();
        if vars.is_empty() {
            return if self.ask(q) == Answer::Yes {
                vec![vec![]]
            } else {
                vec![]
            };
        }
        // The universe's last parameter is the spare, which is no answer.
        let domain = self.universe[..self.universe.len() - 1].to_vec();
        domain_walk(domain, vars.len())
            .filter(|tuple| {
                !self.satisfiable
                    || holds_in_world(&fo.bind_free(tuple), &self.world, &self.universe)
            })
            .collect()
    }
}

/// Theorem 7.3: closed-world evaluation of a FOPCE query by running `demo`
/// on the modalized transform `ℛ(w)` against the *open* theory `Σ` — no
/// closure computation. If the call succeeds with bindings `p̄` then
/// `Closure(Σ) ⊨_FOPCE w|p̄`; if it finitely fails then
/// `Closure(Σ) ⊨ ¬(∃x̄)w`.
pub fn cwa_demo<'a>(prover: &'a Prover, w: &Formula) -> Result<DemoStream<'a>, Admissibility> {
    let modal = modalize(w).rename_apart();
    demo(prover, &modal)
}

/// Build an explicit, finitely axiomatized closure theory.
///
/// `Closure(Σ)` proper is the infinite set `Σ ∪ {¬π : Σ ⊬ π}`; its unique
/// model makes exactly the entailed atoms true. We axiomatize that model
/// finitely: for each predicate, a domain-closure sentence
/// `∀x̄ (p(x̄) ⊃ ⋁_{entailed p(c̄)} x̄ = c̄)` (or `∀x̄ ¬p(x̄)` when nothing is
/// entailed), added to `Σ`. Every negated ground instance — including those
/// over unmentioned parameters — is a consequence.
pub fn closure_theory(prover: &Prover) -> Theory {
    use epilog_syntax::{Term, Var};
    let world = ClosedDb::new(prover).world;
    let theory = prover.theory();
    let mut out = theory.clone();
    for pred in theory.preds() {
        let vars: Vec<Var> = (0..pred.arity())
            .map(|i| Var::fresh(&format!("x{i}")))
            .collect();
        let head = Formula::atom(&pred.name(), vars.iter().map(|v| Term::Var(*v)).collect());
        let tuples = world.relation(pred).into_iter().flat_map(|r| r.iter());
        let disjuncts: Vec<Formula> = tuples
            .map(|tuple| {
                let eqs: Vec<Formula> = vars
                    .iter()
                    .zip(tuple.iter())
                    .map(|(v, c)| Formula::Eq(Term::Var(*v), Term::Param(*c)))
                    .collect();
                Formula::and_all(eqs).unwrap_or_else(|| {
                    let c = epilog_syntax::Param::new("c0");
                    Formula::eq(c, c)
                })
            })
            .collect();
        let mut sentence = match Formula::or_all(disjuncts) {
            Some(body) => Formula::implies(head, body),
            None => Formula::not(head),
        };
        for v in vars.into_iter().rev() {
            sentence = Formula::forall(v, sentence);
        }
        out.assert(sentence)
            .expect("closure axiom is a FOPCE sentence");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    fn closed(src: &str) -> (Prover, ClosedDb) {
        let p = Prover::new(Theory::from_text(src).unwrap());
        let c = ClosedDb::new(&p);
        (p, c)
    }

    #[test]
    fn closure_materializes_entailed_atoms() {
        let (_, c) = closed("p(a)\nforall x. p(x) -> q(x)");
        assert!(c.satisfiable());
        assert_eq!(c.world().len(), 2); // p(a), q(a)
    }

    #[test]
    fn routed_closure_matches_entailment_closure() {
        // A definite theory: the engine-routed prover must produce the
        // same closed world as the per-atom entailment sweep.
        let src = "e(a, b)
                   e(b, c)
                   forall x, y. e(x, y) -> t(x, y)
                   forall x, y, z. e(x, y) & t(y, z) -> t(x, z)";
        let plain = Prover::new(Theory::from_text(src).unwrap());
        let routed = epilog_core::prover_for(Theory::from_text(src).unwrap());
        assert!(routed.atom_model().is_some());
        let slow = ClosedDb::new(&plain);
        let fast = ClosedDb::new(&routed);
        assert_eq!(slow.world(), fast.world());
        assert_eq!(slow.satisfiable(), fast.satisfiable());
        assert_eq!(fast.ask(&parse("t(a, c)").unwrap()), Answer::Yes);
        assert_eq!(fast.ask(&parse("t(c, a)").unwrap()), Answer::No);
    }

    #[test]
    fn routed_and_plain_closures_agree_despite_index_warmup() {
        // `e` is a body predicate with no facts: probing it must not
        // surface a phantom empty relation in the world.
        let src = "f(b)\nforall x. e(a, x) -> g(x)";
        let theory = Theory::from_text(src).unwrap();
        let routed = epilog_core::prover_for(theory.clone());
        assert!(routed.atom_model().is_some());
        let plain = Prover::new(theory);
        assert_eq!(
            ClosedDb::new(&routed).world(),
            ClosedDb::new(&plain).world()
        );
    }

    #[test]
    fn closed_view() {
        // The view of a database's own prover, as callers take it.
        let d = epilog_core::EpistemicDb::from_text("p(a)\nq(b)").unwrap();
        let c = ClosedDb::new(d.prover());
        assert!(c.satisfiable());
        assert_eq!(c.ask(&parse("~p(b)").unwrap()), Answer::Yes);
    }

    #[test]
    fn example_71_closed_db_knows_whether() {
        // ∀x (Kp(x) ∨ K¬p(x)) holds in every closed-world database.
        let (_, c) = closed("p(a)\np(b)");
        assert_eq!(
            c.ask(&parse("forall x. K p(x) | K ~p(x)").unwrap()),
            Answer::Yes
        );
        // Whereas for the open database this fails on unknown atoms: the
        // equivalent stripped query is valid, so here it is the *open*
        // reading that differs — see the e7 integration tests.
    }

    #[test]
    fn theorem_71_k_collapse() {
        let (_, c) = closed("p(a)\nq(b)");
        for q in ["K p(a)", "p(a)", "K ~p(b)", "~p(b)", "K (p(a) & q(b))"] {
            let w = parse(q).unwrap();
            assert_eq!(
                c.ask(&w),
                c.ask(&strip_k(&w)),
                "Theorem 7.1 violated on {q}"
            );
        }
    }

    #[test]
    fn closed_world_decides_everything() {
        let (_, c) = closed("p(a)");
        assert_eq!(c.ask(&parse("p(a)").unwrap()), Answer::Yes);
        assert_eq!(c.ask(&parse("p(b)").unwrap()), Answer::No);
        assert_eq!(c.ask(&parse("K p(b)").unwrap()), Answer::No);
        assert_eq!(c.ask(&parse("~p(b)").unwrap()), Answer::Yes);
    }

    #[test]
    fn disjunctive_theory_closure_unsatisfiable() {
        // Σ = {p ∨ q} entails neither p nor q, so the closure adds ¬p and
        // ¬q — contradiction (the classic CWA failure on disjunctive DBs).
        let (_, c) = closed("p | q");
        assert!(!c.satisfiable());
        // It entails everything: every active-domain tuple is an answer.
        let (_, c) = closed("p(a) | p(b)");
        assert!(!c.satisfiable());
        assert_eq!(c.ask(&parse("p(a)").unwrap()), Answer::Yes);
        let a = epilog_syntax::Param::new("a");
        let b = epilog_syntax::Param::new("b");
        assert_eq!(c.answers(&parse("p(x)").unwrap()), [[a], [b]]);
        assert_eq!(c.answers(&parse("~p(x)").unwrap()), [[a], [b]]);
    }

    #[test]
    fn theorem_72_consistency_equals_entailment() {
        let (p, c) = closed("emp(Mary)\nss(Mary, n1)");
        assert!(c.satisfiable());
        let ic = parse("forall x. emp(x) -> exists y. ss(x, y)").unwrap();
        // Entailment reading against the explicit closure theory.
        let closure = closure_theory(&p);
        let closure_prover = Prover::new(closure);
        let entailed = closure_prover.entails(&ic);
        // Consistency reading.
        let consistent = crate::consistent_with(&closure_prover, &ic);
        assert_eq!(entailed, consistent, "Theorem 7.2");
        // Both equal truth in the closure's unique model.
        assert_eq!(c.ask(&ic) == Answer::Yes, entailed);
        assert!(entailed);
    }

    #[test]
    fn example_73_cwa_demo() {
        // Evaluate q(x) ∧ ¬∃y (r(x,y) ∧ q(y)) under CWA via demo(ℛ(w)).
        let p = Prover::new(Theory::from_text("q(a)\nq(b)\nr(a, b)").unwrap());
        let w = parse("q(x) & ~(exists y. r(x, y) & q(y))").unwrap();
        let got: Vec<Vec<String>> = cwa_demo(&p, &w)
            .unwrap()
            .map(|t| t.iter().map(|p| p.name()).collect())
            .collect();
        // a has an r-successor with q (namely b) → excluded; b has none.
        assert_eq!(got, vec![vec!["b".to_string()]]);
        // Cross-check against the materialized closure.
        let c = ClosedDb::new(&p);
        let direct = c.answers(&w);
        assert_eq!(direct.len(), 1);
        assert_eq!(direct[0][0].name(), "b");
    }

    #[test]
    fn theorem_73_failure_direction() {
        // If demo(ℛ(w)) finitely fails then Closure(Σ) ⊨ ¬∃x̄ w.
        let p = Prover::new(Theory::from_text("q(a)\nr(a, a)").unwrap());
        let w = parse("q(x) & ~(exists y. r(x, y) & q(y))").unwrap();
        let got: Vec<_> = cwa_demo(&p, &w).unwrap().collect();
        assert!(got.is_empty());
        let c = ClosedDb::new(&p);
        assert_eq!(
            c.ask(&parse("~(exists x. q(x) & ~(exists y. r(x, y) & q(y)))").unwrap()),
            Answer::Yes
        );
    }

    #[test]
    fn closure_theory_explicit() {
        let p = Prover::new(Theory::from_text("p(a)").unwrap());
        let closure = closure_theory(&p);
        // Σ plus one domain-closure axiom for p.
        assert_eq!(closure.len(), 2);
        let cp = Prover::new(closure);
        assert!(cp.entails(&parse("~p(b)").unwrap()));
        assert!(cp.entails(&parse("forall x. p(x) -> x = a").unwrap()));
        assert!(cp.entails(&parse("p(a)").unwrap()));
    }
}
