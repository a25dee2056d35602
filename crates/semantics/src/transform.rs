//! The formula maps the paper's results are stated with.
//!
//! * [`strip_k`] — the map `σ ↦ σ̂` of Theorem 7.1 deleting every `K`.
//! * [`modalize`] — the map `ℛ(w)` of Definition 7.1 replacing every
//!   predicate atom `a` by `Ka`.
//! * [`flatten_k45`] — modal simplification valid in Levesque's semantics
//!   (a weak-S5 / KD45-style logic): `K` over a subjective formula is
//!   redundant and `K` distributes over `∧`.

use epilog_syntax::{is_first_order, is_subjective, Formula};

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
    use crate::classify::is_k1;
    use epilog_syntax::parse;

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
