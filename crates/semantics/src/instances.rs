//! The finiteness machinery of §6: `Instances(w, Σ)` and the class `F_Σ`.
//!
//! * **Definition 6.1** — `Instances(w, Σ)` is the set of parameter tuples
//!   `p̄` with `Σ ⊨ w|p̄`; [`instances`] computes it for first-order `w`
//!   (over the answer domain — exactly the set Lemma 6.3 proves finite for
//!   the Theorem 6.2 fragment).
//! * **Theorem 6.2's `F_Σ`** — positive existential formulas with
//!   disjunctively linked variables, plus the equality atoms
//!   `p = p'`, `p ≠ p'`, `x = p`, `p = x`. `in_f_sigma` is the
//!   membership test; [`admissible_wrt_f_sigma`] combines it with the
//!   almost-admissibility closure of Definition 6.2 and the
//!   distinct-variables condition of Remark 6.2 — the exact hypothesis of
//!   the completeness Theorems 6.1/6.2.
//!
//! `demo` is guaranteed *sound and complete* (returns, and enumerates
//! exactly the certain answers) on queries passing
//! [`admissible_wrt_f_sigma`] against elementary databases with finitely
//! many parameters — the property the `e6` test suite verifies.

use crate::classify::{almost_admissible, is_positive_existential, linked_beyond};
use crate::theory::is_elementary;
use epilog_prover::Prover;
use epilog_syntax::{is_first_order, Formula, Param, Term, Theory, Var};
use std::collections::BTreeSet;

/// `Instances(w, Σ)` (Definition 6.1) for a first-order formula, computed
/// over the answer domain. For formulas admissible wrt `F_Σ` this is the
/// complete instance set (Lemma 6.3: answers mention only `Σ`'s
/// parameters).
pub fn instances(prover: &Prover, w: &Formula) -> Vec<Vec<Param>> {
    assert!(is_first_order(w), "Instances is defined for FOPCE formulas");
    epilog_prover::AnswerIter::new(prover, w).collect()
}

/// Membership in the `F_Σ` of Theorem 6.2: positive existential with
/// disjunctively linked variables, or one of the permitted equality-atom
/// shapes. `bound` holds the variables an enclosing conjunction has
/// already bound (they count as parameters for the linkage check).
pub(crate) fn in_f_sigma(w: &Formula, bound: &BTreeSet<Var>) -> bool {
    match w {
        // p = p', x = p and p = x: one side names the individual.
        Formula::Eq(a, b) => is_known(a, bound) || is_known(b, bound),
        // p ≠ p': both sides do.
        Formula::Not(inner) => {
            matches!(inner.as_ref(), Formula::Eq(a, b) if is_known(a, bound) && is_known(b, bound))
        }
        _ => {
            if !is_positive_existential(w) {
                return false;
            }
            // Disjunctive linkage wrt the formula's *unbound* free
            // variables (bound ones behave as parameters).
            linked_beyond(w, bound)
        }
    }
}

/// Whether an equality side stands for one individual: a parameter, or
/// a variable an enclosing conjunction has bound (it acts as one). An
/// unbound variable ranges over every parameter, so `x = x`, `x = y` and
/// `x ≠ p` have infinitely many instances.
fn is_known(t: &Term, bound: &BTreeSet<Var>) -> bool {
    match t {
        Term::Param(_) => true,
        Term::Var(v) => bound.contains(v),
    }
}

/// The hypothesis of Theorems 6.1/6.2: almost admissible wrt `F_Σ`
/// (Definition 6.2) with quantified variables distinct from one another
/// and from the free variables (Remark 6.2). On queries passing this
/// check, `demo` terminates and enumerates exactly the certain answers
/// against any elementary database with finitely many parameters.
pub fn admissible_wrt_f_sigma(w: &Formula) -> bool {
    // Remark 6.2's variable condition.
    let free: BTreeSet<Var> = w.free_vars().into_iter().collect();
    let mut seen = BTreeSet::new();
    for q in w.quantified_vars() {
        if free.contains(&q) || !seen.insert(q) {
            return false;
        }
    }
    almost_admissible(w, &|f, bound| in_f_sigma(f, bound))
}

/// Check that `Instances(w, Σ)` is finite *by construction* for a query
/// admissible wrt `F_Σ` over an elementary theory (Lemma 6.1 + 6.3):
/// returns the instance count, or `None` if the hypotheses do not hold.
pub fn certified_instance_count(prover: &Prover, w: &Formula) -> Option<usize> {
    if !is_elementary(prover.theory()) || !admissible_wrt_f_sigma(w) {
        return None;
    }
    if is_first_order(w) {
        Some(instances(prover, w).len())
    } else {
        Some(epilog_core::all_answers(prover, w).ok()?.len())
    }
}

/// Convenience: the finiteness hypothesis of Theorem 6.2 for the theory —
/// elementary and mentioning finitely many parameters (always true for
/// our in-memory [`Theory`], kept explicit for documentation value).
pub fn theorem_62_applies(theory: &Theory, w: &Formula) -> bool {
    is_elementary(theory) && admissible_wrt_f_sigma(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    fn prover(src: &str) -> Prover {
        Prover::new(Theory::from_text(src).unwrap())
    }

    #[test]
    fn instances_of_simple_queries() {
        let p = prover("p(a)\np(b)\nq(b)");
        assert_eq!(instances(&p, &parse("p(x)").unwrap()).len(), 2);
        assert_eq!(instances(&p, &parse("p(x) & q(x)").unwrap()).len(), 1);
        assert_eq!(instances(&p, &parse("x = a").unwrap()).len(), 1);
    }

    #[test]
    fn f_sigma_membership() {
        let b = BTreeSet::new();
        assert!(in_f_sigma(&parse("p(x)").unwrap(), &b));
        assert!(in_f_sigma(&parse("p(x) & q(x)").unwrap(), &b));
        assert!(in_f_sigma(&parse("p(x) | q(x)").unwrap(), &b));
        assert!(in_f_sigma(&parse("a = b").unwrap(), &b));
        assert!(in_f_sigma(&parse("a != b").unwrap(), &b));
        assert!(in_f_sigma(&parse("x = a").unwrap(), &b));
        // Unlinked disjunction is out.
        assert!(!in_f_sigma(&parse("p(x) | q(y)").unwrap(), &b));
        // Negation of a non-equality formula is out.
        assert!(!in_f_sigma(&parse("~p(x)").unwrap(), &b));
        // Binding both variables (they then act as parameters) repairs the
        // linkage; binding only one does not.
        let mut bound = BTreeSet::new();
        bound.insert(epilog_syntax::Var::new("y"));
        assert!(!in_f_sigma(&parse("p(x) | q(y)").unwrap(), &bound));
        bound.insert(epilog_syntax::Var::new("x"));
        assert!(in_f_sigma(&parse("p(x) | q(y)").unwrap(), &bound));
    }

    #[test]
    fn admissible_wrt_f_sigma_examples() {
        for good in [
            "p(x)",
            "p(x) & q(x)",
            "p(x) | q(x)",
            "K p(x)",
            "exists x. K p(x)",
            "~(exists x. K p(x))",
            "p(x) & ~K q(x)",
            "K p(x) & x != a",
            // An equality side is a parameter or a bound variable: one
            // side for `=`, both for `≠`.
            "x = a",
            "K p(x) & x = a",
            "K p(x) & ~(x = a)",
            "K p(x) & K p(y) & ~(x = y)",
        ] {
            assert!(
                admissible_wrt_f_sigma(&parse(good).unwrap()),
                "expected admissible wrt F_Σ: {good}"
            );
        }
        for bad in [
            // Negation of a world formula is not in F_Σ's closure.
            "~p(a) & q(x)",
            // Unsafe.
            "~K p(x)",
            // Unlinked disjunction as the leading conjunct.
            "(p(x) | q(y)) & K p(x)",
            // An unbound variable ranges over every parameter.
            "x = x",
            "x = y",
            "~(x = y)",
            "~(x = a)",
        ] {
            assert!(
                !admissible_wrt_f_sigma(&parse(bad).unwrap()),
                "expected NOT admissible wrt F_Σ: {bad}"
            );
        }
    }

    #[test]
    fn certified_counts_are_finite_and_exact() {
        let p = prover("p(a)\np(b)\nq(b)\nforall x. q(x) -> p(x)");
        assert_eq!(
            certified_instance_count(&p, &parse("p(x)").unwrap()),
            Some(2)
        );
        assert_eq!(
            certified_instance_count(&p, &parse("K p(x) & ~K q(x)").unwrap()),
            Some(1)
        );
        // Non-elementary theory: no certificate.
        let p2 = prover("~p(a)");
        assert_eq!(certified_instance_count(&p2, &parse("p(x)").unwrap()), None);
    }

    #[test]
    fn theorem_62_hypothesis_check() {
        let t = Theory::from_text("p(a) | q(b)").unwrap();
        assert!(theorem_62_applies(&t, &parse("p(x)").unwrap()));
        assert!(!theorem_62_applies(&t, &parse("~p(x)").unwrap()));
        let neg = Theory::from_text("~p(a)").unwrap();
        assert!(!theorem_62_applies(&neg, &parse("p(x)").unwrap()));
        // Every parameter is a certain answer to `x = x`; `demo` returns
        // only the mentioned ones.
        let p = Theory::from_text("p(a)").unwrap();
        assert!(!theorem_62_applies(&p, &parse("x = x").unwrap()));
    }
}
