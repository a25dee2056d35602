//! Formula transformations used throughout the paper.
//!
//! * [`kernel`] — expand the defined connectives `∨ ⊃ ≡ ∀` into the
//!   official primitives `¬ ∧ ∃ K` (the paper's language is built from
//!   `¬ ∧ ∀ K`; we use the dual `∃`-primitive form because the safe and
//!   admissible fragments are stated with `∃`).
//! * [`nnf`] — negation normal form (all connectives kept, negations pushed
//!   to atoms); used by the grounder.
//! * [`admissible_constraint`] — the rewriting of Example 5.4 turning the
//!   natural `∀/⊃` statements of integrity constraints into *admissible*
//!   sentences that `demo` can evaluate.
//!
//! The maps the paper's results are stated with — `σ ↦ σ̂` of Theorem 7.1,
//! `ℛ(w)` of Definition 7.1 and K45 flattening — are defined in
//! `epilog-semantics`.

use crate::classify::is_first_order;
use crate::formula::Formula;

/// Expand `∨ ⊃ ≡ ∀` into `¬ ∧ ∃` (leaving atoms, equality and `K`
/// untouched). The result is logically equivalent under both FOPCE and
/// KFOPCE semantics.
pub fn kernel(w: &Formula) -> Formula {
    match w {
        Formula::Atom(_) | Formula::Eq(_, _) => w.clone(),
        Formula::Not(a) => Formula::not(kernel(a)),
        Formula::And(a, b) => Formula::and(kernel(a), kernel(b)),
        // a ∨ b  ≡  ¬(¬a ∧ ¬b)
        Formula::Or(a, b) => Formula::not(Formula::and(
            Formula::not(kernel(a)),
            Formula::not(kernel(b)),
        )),
        // a ⊃ b  ≡  ¬(a ∧ ¬b)
        Formula::Implies(a, b) => Formula::not(Formula::and(kernel(a), Formula::not(kernel(b)))),
        // a ≡ b  ≡  ¬(a ∧ ¬b) ∧ ¬(b ∧ ¬a)
        Formula::Iff(a, b) => {
            let ka = kernel(a);
            let kb = kernel(b);
            Formula::and(
                Formula::not(Formula::and(ka.clone(), Formula::not(kb.clone()))),
                Formula::not(Formula::and(kb, Formula::not(ka))),
            )
        }
        // ∀x w  ≡  ¬∃x ¬w
        Formula::Forall(x, a) => Formula::not(Formula::exists(*x, Formula::not(kernel(a)))),
        Formula::Exists(x, a) => Formula::exists(*x, kernel(a)),
        Formula::Know(a) => Formula::know(kernel(a)),
    }
}

/// Expand only the *top* connective of a defined-connective formula
/// (`∨ ⊃ ≡ ∀`) into the primitives `¬ ∧ ∃`, leaving subformulas intact.
/// Identity on all other shapes. Used by evaluators that want to expand
/// abbreviations lazily, preserving first-order subtrees.
pub fn kernel_top(w: &Formula) -> Formula {
    match w {
        Formula::Or(a, b) => Formula::not(Formula::and(
            Formula::not((**a).clone()),
            Formula::not((**b).clone()),
        )),
        Formula::Implies(a, b) => {
            Formula::not(Formula::and((**a).clone(), Formula::not((**b).clone())))
        }
        Formula::Iff(a, b) => Formula::and(
            Formula::not(Formula::and((**a).clone(), Formula::not((**b).clone()))),
            Formula::not(Formula::and((**b).clone(), Formula::not((**a).clone()))),
        ),
        Formula::Forall(x, a) => Formula::not(Formula::exists(*x, Formula::not((**a).clone()))),
        other => other.clone(),
    }
}

/// Remove double negations everywhere: `¬¬w ↝ w`.
fn elim_double_neg(w: &Formula) -> Formula {
    match w {
        Formula::Not(a) => match a.as_ref() {
            Formula::Not(b) => elim_double_neg(b),
            _ => Formula::not(elim_double_neg(a)),
        },
        Formula::Atom(_) | Formula::Eq(_, _) => w.clone(),
        Formula::And(a, b) => Formula::and(elim_double_neg(a), elim_double_neg(b)),
        Formula::Or(a, b) => Formula::or(elim_double_neg(a), elim_double_neg(b)),
        Formula::Implies(a, b) => Formula::implies(elim_double_neg(a), elim_double_neg(b)),
        Formula::Iff(a, b) => Formula::iff(elim_double_neg(a), elim_double_neg(b)),
        Formula::Forall(x, a) => Formula::forall(*x, elim_double_neg(a)),
        Formula::Exists(x, a) => Formula::exists(*x, elim_double_neg(a)),
        Formula::Know(a) => Formula::know(elim_double_neg(a)),
    }
}

/// Negation normal form for **first-order** formulas: `⊃/≡` eliminated,
/// negations pushed inward until they sit on atoms or equalities.
///
/// # Panics
/// Panics when given a modal formula (`K` has no NNF dual in this setting).
pub fn nnf(w: &Formula) -> Formula {
    assert!(is_first_order(w), "nnf is defined for FOPCE formulas only");
    fn pos(w: &Formula) -> Formula {
        match w {
            Formula::Atom(_) | Formula::Eq(_, _) => w.clone(),
            Formula::Not(a) => neg(a),
            Formula::And(a, b) => Formula::and(pos(a), pos(b)),
            Formula::Or(a, b) => Formula::or(pos(a), pos(b)),
            Formula::Implies(a, b) => Formula::or(neg(a), pos(b)),
            Formula::Iff(a, b) => {
                Formula::and(Formula::or(neg(a), pos(b)), Formula::or(neg(b), pos(a)))
            }
            Formula::Forall(x, a) => Formula::forall(*x, pos(a)),
            Formula::Exists(x, a) => Formula::exists(*x, pos(a)),
            Formula::Know(_) => unreachable!("checked first-order"),
        }
    }
    fn neg(w: &Formula) -> Formula {
        match w {
            Formula::Atom(_) | Formula::Eq(_, _) => Formula::not(w.clone()),
            Formula::Not(a) => pos(a),
            Formula::And(a, b) => Formula::or(neg(a), neg(b)),
            Formula::Or(a, b) => Formula::and(neg(a), neg(b)),
            Formula::Implies(a, b) => Formula::and(pos(a), neg(b)),
            Formula::Iff(a, b) => {
                Formula::or(Formula::and(pos(a), neg(b)), Formula::and(pos(b), neg(a)))
            }
            Formula::Forall(x, a) => Formula::exists(*x, neg(a)),
            Formula::Exists(x, a) => Formula::forall(*x, neg(a)),
            Formula::Know(_) => unreachable!("checked first-order"),
        }
    }
    pos(w)
}

/// Rewrite an integrity constraint into an equivalent **admissible**
/// sentence, following Example 5.4 (which mirrors the Lloyd–Topor
/// transformations).
///
/// The rewriting is: expand the defined connectives ([`kernel`]), then
/// delete double negations, then rename quantified variables apart. For
/// every constraint of the natural `∀x̄ (Kφ ⊃ Kψ)` shape this produces the
/// paper's `¬∃x̄ (Kφ ∧ ¬Kψ)` form. The result is KFOPCE-equivalent to the
/// input (each step is an equivalence), so by Corollary 4.1 it can be used
/// in place of the original for integrity maintenance.
///
/// Returns the rewritten sentence; use
/// [`crate::classify::admissibility`] to verify the result is admissible
/// (it is for all of the paper's examples, but not every KFOPCE sentence
/// can be made admissible).
pub fn admissible_constraint(ic: &Formula) -> Formula {
    elim_double_neg(&kernel(ic)).rename_apart()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::admissibility;
    use crate::parse::parse;

    #[test]
    fn kernel_eliminates_sugar() {
        let w = parse("forall x. p(x) -> q(x) | r(x)").unwrap();
        let k = kernel(&w);
        assert_eq!(k.to_string(), "~(exists x. ~~(p(x) & ~~(~q(x) & ~r(x))))");
    }

    #[test]
    fn nnf_pushes_negations() {
        let w = parse("~(p & (q | ~r))").unwrap();
        assert_eq!(nnf(&w).to_string(), "~p | ~q & r");
        let w2 = parse("~ forall x. p(x)").unwrap();
        assert_eq!(nnf(&w2).to_string(), "exists x. ~p(x)");
        let w3 = parse("~(p -> q)").unwrap();
        assert_eq!(nnf(&w3).to_string(), "p & ~q");
    }

    #[test]
    #[should_panic(expected = "FOPCE")]
    fn nnf_rejects_modal() {
        let _ = nnf(&parse("K p").unwrap());
    }

    #[test]
    fn example_54_social_security() {
        // ∀x (Kemp(x) ⊃ K∃y ss(x,y))  ↝  ¬∃x (Kemp(x) ∧ ¬K∃y ss(x,y))
        let ic = parse("forall x. K emp(x) -> K exists y. ss(x, y)").unwrap();
        let a = admissible_constraint(&ic);
        assert_eq!(
            a.to_string(),
            "~(exists x. K emp(x) & ~K (exists y. ss(x, y)))"
        );
        assert!(admissibility(&a).is_admissible(), "{:?}", admissibility(&a));
    }

    #[test]
    fn example_54_male_female_exclusion() {
        // ∀x ¬K(male(x) ∧ female(x))  ↝  ¬∃x K(male(x) ∧ female(x))
        let ic = parse("forall x. ~K(male(x) & female(x))").unwrap();
        let a = admissible_constraint(&ic);
        assert_eq!(a.to_string(), "~(exists x. K (male(x) & female(x)))");
        assert!(admissibility(&a).is_admissible());
    }

    #[test]
    fn example_54_male_or_female_totality() {
        // ∀x (Kperson(x) ⊃ Kmale(x) ∨ Kfemale(x))
        //   ↝ ¬∃x (Kperson(x) ∧ ¬Kmale(x) ∧ ¬Kfemale(x))
        let ic = parse("forall x. K person(x) -> K male(x) | K female(x)").unwrap();
        let a = admissible_constraint(&ic);
        assert_eq!(
            a.to_string(),
            "~(exists x. K person(x) & (~K male(x) & ~K female(x)))"
        );
        assert!(admissibility(&a).is_admissible());
    }

    #[test]
    fn example_54_mother_typing() {
        let ic =
            parse("forall x, y. K mother(x, y) -> K(person(x) & female(x) & person(y))").unwrap();
        let a = admissible_constraint(&ic);
        assert_eq!(
            a.to_string(),
            "~(exists x. exists y. K mother(x, y) & ~K (person(x) & female(x) & person(y)))"
        );
        assert!(admissibility(&a).is_admissible());
    }

    #[test]
    fn example_54_functional_dependency() {
        // ∀x,y,z (Kss(x,y) ∧ Kss(x,z) ⊃ K y=z)
        //   ↝ ¬∃x,y,z (Kss(x,y) ∧ Kss(x,z) ∧ ¬K y=z)
        let ic = parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap();
        let a = admissible_constraint(&ic);
        assert_eq!(
            a.to_string(),
            "~(exists x. exists y. exists z. K ss(x, y) & K ss(x, z) & ~K y = z)"
        );
        assert!(admissibility(&a).is_admissible());
    }
}
