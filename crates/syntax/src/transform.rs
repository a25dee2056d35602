//! Formula transformations used throughout the paper.
//!
//! * [`kernel`] — expand the defined connectives `∨ ⊃ ≡ ∀` into the
//!   official primitives `¬ ∧ ∃ K` (the paper's language is built from
//!   `¬ ∧ ∀ K`; we use the dual `∃`-primitive form because the safe and
//!   admissible fragments are stated with `∃`).
//! * [`nnf`] — negation normal form (all connectives kept, negations pushed
//!   to atoms); used by the grounder.
//! * [`strip_k`] — the map `σ ↦ σ̂` of Theorem 7.1 deleting every `K`.
//! * [`modalize`] — the map `ℛ(w)` of Definition 7.1 replacing every
//!   predicate atom `a` by `Ka`.
//! * [`admissible_constraint`] — the rewriting of Example 5.4 turning the
//!   natural `∀/⊃` statements of integrity constraints into *admissible*
//!   sentences that `demo` can evaluate.
//! * [`flatten_k45`] — modal simplification valid in Levesque's semantics
//!   (a weak-S5 / KD45-style logic): `K` over a subjective formula is
//!   redundant and `K` distributes over `∧`.

use crate::classify::{is_first_order, is_subjective};
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

/// The map `σ ↦ σ̂` of Theorem 7.1: delete every occurrence of `K`.
///
/// Under the closed-world assumption `Closure(Σ) ⊨ σ|p̄ iff
/// Closure(Σ) ⊨_FOPCE σ̂|p̄` — the epistemic distinctions evaporate.
pub fn strip_k(w: &Formula) -> Formula {
    match w {
        Formula::Atom(_) | Formula::Eq(_, _) => w.clone(),
        Formula::Not(a) => Formula::not(strip_k(a)),
        Formula::And(a, b) => Formula::and(strip_k(a), strip_k(b)),
        Formula::Or(a, b) => Formula::or(strip_k(a), strip_k(b)),
        Formula::Implies(a, b) => Formula::implies(strip_k(a), strip_k(b)),
        Formula::Iff(a, b) => Formula::iff(strip_k(a), strip_k(b)),
        Formula::Forall(x, a) => Formula::forall(*x, strip_k(a)),
        Formula::Exists(x, a) => Formula::exists(*x, strip_k(a)),
        Formula::Know(a) => strip_k(a),
    }
}

/// The map `ℛ(w)` of Definition 7.1: replace every predicate atom `a` of a
/// FOPCE formula by `Ka`, homomorphically through all connectives.
///
/// Equality atoms are left unchanged: `t₁ = t₂` is already *subjective*
/// (Def. 5.2 rule 1) and `K(t₁ = t₂) ≡ (t₁ = t₂)` holds in the semantics
/// because the parameters are rigid designators.
///
/// Remark 7.1: `ℛ(w)` is a subjective K₁ formula.
///
/// # Panics
/// Panics when given a modal formula — `ℛ` is defined on FOPCE only.
pub fn modalize(w: &Formula) -> Formula {
    assert!(is_first_order(w), "ℛ(w) is defined for FOPCE formulas only");
    fn go(w: &Formula) -> Formula {
        match w {
            Formula::Atom(_) => Formula::know(w.clone()),
            Formula::Eq(_, _) => w.clone(),
            Formula::Not(a) => Formula::not(go(a)),
            Formula::And(a, b) => Formula::and(go(a), go(b)),
            Formula::Or(a, b) => Formula::or(go(a), go(b)),
            Formula::Implies(a, b) => Formula::implies(go(a), go(b)),
            Formula::Iff(a, b) => Formula::iff(go(a), go(b)),
            Formula::Forall(x, a) => Formula::forall(*x, go(a)),
            Formula::Exists(x, a) => Formula::exists(*x, go(a)),
            Formula::Know(_) => unreachable!("checked first-order"),
        }
    }
    go(w)
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

/// Modal flattening, sound for Levesque's weak-S5 semantics:
///
/// * `K(w₁ ∧ w₂) ↝ Kw₁ ∧ Kw₂` (K distributes over conjunction);
/// * `Kσ ↝ σ` when `σ` is subjective — a subjective formula's truth value
///   does not depend on the world of evaluation, so prefixing `K` is
///   redundant; this yields the K45-style reductions `KKw ≡ Kw` and
///   `K¬Kw ≡ ¬Kw`;
/// * `¬¬w ↝ w`.
///
/// Applied bottom-up to a fixpoint. Every K₁-subjective formula is left
/// with modal depth exactly 1 and iterated modalities are eliminated.
pub fn flatten_k45(w: &Formula) -> Formula {
    match w {
        Formula::Atom(_) | Formula::Eq(_, _) => w.clone(),
        Formula::Not(a) => {
            let a = flatten_k45(a);
            match a {
                Formula::Not(inner) => *inner,
                _ => Formula::not(a),
            }
        }
        Formula::And(a, b) => Formula::and(flatten_k45(a), flatten_k45(b)),
        Formula::Or(a, b) => Formula::or(flatten_k45(a), flatten_k45(b)),
        Formula::Implies(a, b) => Formula::implies(flatten_k45(a), flatten_k45(b)),
        Formula::Iff(a, b) => Formula::iff(flatten_k45(a), flatten_k45(b)),
        Formula::Forall(x, a) => Formula::forall(*x, flatten_k45(a)),
        Formula::Exists(x, a) => Formula::exists(*x, flatten_k45(a)),
        Formula::Know(a) => {
            let a = flatten_k45(a);
            if is_subjective(&a) {
                a
            } else if let Formula::And(l, r) = &a {
                Formula::and(
                    flatten_k45(&Formula::know((**l).clone())),
                    flatten_k45(&Formula::know((**r).clone())),
                )
            } else {
                Formula::know(a)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{admissibility, is_k1, is_subjective};
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
    fn strip_k_theorem71() {
        // Example 7.1: ∀x (Kp(x) ∨ K¬p(x)) strips to ∀x (p(x) ∨ ¬p(x)).
        let w = parse("forall x. K p(x) | K ~p(x)").unwrap();
        assert_eq!(strip_k(&w).to_string(), "forall x. p(x) | ~p(x)");
    }

    #[test]
    fn modalize_example_73() {
        // ℛ(q(x) ∧ ¬∃y (r(x,y) ∧ ¬q(y))) = Kq(x) ∧ ¬∃y (Kr(x,y) ∧ ¬Kq(y))
        let w = parse("q(x) & ~(exists y. r(x, y) & ~q(y))").unwrap();
        let m = modalize(&w);
        assert_eq!(m.to_string(), "K q(x) & ~(exists y. K r(x, y) & ~K q(y))");
        assert!(is_subjective(&m), "Remark 7.1: ℛ(w) is subjective");
        assert!(is_k1(&m), "Remark 7.1: ℛ(w) is K₁");
    }

    #[test]
    fn modalize_keeps_equality_bare() {
        let w = parse("x = y & p(x)").unwrap();
        assert_eq!(modalize(&w).to_string(), "x = y & K p(x)");
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

    #[test]
    fn flatten_removes_iterated_modalities() {
        let w = parse("K K p").unwrap();
        assert_eq!(flatten_k45(&w).to_string(), "K p");
        let w2 = parse("K ~K p").unwrap();
        assert_eq!(flatten_k45(&w2).to_string(), "~K p");
        let w3 = parse("K (p & q)").unwrap();
        assert_eq!(flatten_k45(&w3).to_string(), "K p & K q");
        // Equality under K is subjective, so K drops.
        let w4 = parse("K (a = b)").unwrap();
        assert_eq!(flatten_k45(&w4).to_string(), "a = b");
    }

    #[test]
    fn flatten_preserves_nonsubjective_k() {
        let w = parse("K p(x)").unwrap();
        assert_eq!(flatten_k45(&w), w);
    }
}
