//! Circumscription and the generalized closed-world assumption (GCWA).
//!
//! Section 7 shows that Reiter's `Closure` collapses the `K` operator
//! (Theorem 7.1) — but Example 7.2 shows this is *false* for
//! circumscriptive closure (Lifschitz) and for Minker's GCWA: with
//! `Σ = {p ∨ q}`, both closures yield the two minimal models `{p}` and
//! `{q}`, so `Circ(Σ) ⊨ ¬Kp` while `Circ(Σ) ⊭_FOPCE ¬p`.
//!
//! We implement both over the brute-force [`ModelSet`]: circumscription
//! keeps the ⊆-minimal worlds; the GCWA adds `¬π` for every ground atom
//! `π` false in all minimal worlds.

use crate::oracle::ModelSet;
use epilog_storage::Database;
use epilog_syntax::formula::{Atom, Formula};

/// The ⊆-minimal worlds of a model set (circumscribing all predicates in
/// parallel, no fixed or varying predicates).
pub fn minimal_worlds(ms: &ModelSet) -> ModelSet {
    let worlds = ms.worlds();
    let minimal: Vec<Database> = worlds
        .iter()
        .filter(|w| {
            !worlds
                .iter()
                .any(|other| subset_of(other, w) && !subset_of(w, other))
        })
        .cloned()
        .collect();
    ModelSet::from_worlds(minimal, ms.universe().to_vec())
}

/// Whether `a ⊆ b` as sets of atoms.
fn subset_of(a: &Database, b: &Database) -> bool {
    a.relations()
        .all(|(pred, rel)| rel.iter().all(|t| b.contains_tuple(pred, t)))
}

/// The GCWA negations: `¬π` for every ground atom `π` of `base` that is
/// false in every minimal world. (Minker's GCWA adds exactly the negations
/// of atoms that are false in all minimal models.)
pub fn gcwa_negations(ms: &ModelSet, base: &[Atom]) -> Vec<Formula> {
    let min = minimal_worlds(ms);
    base.iter()
        .filter(|a| min.worlds().iter().all(|w| !w.contains(a)))
        .map(|a| Formula::not(Formula::Atom(a.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::herbrand_base;
    use epilog_core::Answer;
    use epilog_syntax::{parse, Param, Pred, Theory};

    fn p_or_q_models() -> ModelSet {
        let theory = Theory::from_text("p | q").unwrap();
        let preds = vec![Pred::new("p", 0), Pred::new("q", 0)];
        ModelSet::models(&theory, &[Param::new("c")], &preds)
    }

    #[test]
    fn subset() {
        let atom = |src: &str| match parse(src).unwrap() {
            Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        };
        let mut small = Database::new();
        small.insert(&atom("p(a)"));
        let mut big = small.clone();
        big.insert(&atom("p(b)"));
        assert!(subset_of(&small, &big));
        assert!(!subset_of(&big, &small));
        small.insert(&atom("p(b)"));
        assert!(subset_of(&big, &small));
    }

    #[test]
    fn example_72_minimal_models() {
        // Circ({p ∨ q}) has exactly the models {p} and {q}.
        let ms = p_or_q_models();
        let circ = minimal_worlds(&ms);
        assert_eq!(circ.worlds().len(), 2);
        for w in circ.worlds() {
            assert_eq!(w.len(), 1, "minimal models contain exactly one atom");
        }
    }

    #[test]
    fn example_72_k_does_not_collapse() {
        // Circ(Σ) ⊨ ¬Kp  but  Circ(Σ) ⊭_FOPCE ¬p.
        let circ = minimal_worlds(&p_or_q_models());
        assert_eq!(circ.answer(&parse("~K p").unwrap()), Answer::Yes);
        assert_ne!(circ.answer(&parse("~p").unwrap()), Answer::Yes);
        // So the epistemic query and its K-stripped version genuinely
        // differ under circumscription — unlike under Closure (Thm 7.1).
    }

    #[test]
    fn gcwa_on_disjunction_adds_nothing() {
        // Neither p nor q is false in all minimal models, so the GCWA adds
        // no negations: the disjunction stays indefinite.
        let ms = p_or_q_models();
        let base = herbrand_base(&[], &[Pred::new("p", 0), Pred::new("q", 0)]);
        let negs = gcwa_negations(&ms, &base);
        assert!(negs.is_empty());
    }

    #[test]
    fn gcwa_negates_underivable_atoms() {
        // Σ = {p}: q is false in the minimal model, so GCWA adds ¬q.
        let theory = Theory::from_text("p").unwrap();
        let preds = vec![Pred::new("p", 0), Pred::new("q", 0)];
        let ms = ModelSet::models(&theory, &[Param::new("c")], &preds);
        let base = herbrand_base(&[], &preds);
        let negs = gcwa_negations(&ms, &base);
        assert_eq!(negs.len(), 1);
        assert_eq!(negs[0].to_string(), "~q");
    }

    #[test]
    fn definite_theories_have_unique_minimal_model() {
        let theory = Theory::from_text("p(a)\nforall x. p(x) -> q(x)").unwrap();
        let universe = [Param::new("a"), Param::new("b")];
        let preds = vec![Pred::new("p", 1), Pred::new("q", 1)];
        let ms = ModelSet::models(&theory, &universe, &preds);
        let circ = minimal_worlds(&ms);
        assert_eq!(circ.worlds().len(), 1);
        let m = &circ.worlds()[0];
        assert_eq!(m.len(), 2, "p(a) and q(a) only");
    }
}
