//! The syntactic classes of the paper.
//!
//! | class | paper | function |
//! |---|---|---|
//! | first-order (FOPCE) | §2 | [`is_first_order`] |
//! | modal | §5.1 | `is_modal` |
//! | subjective | Def. 5.2 | [`is_subjective`] |
//! | safe | Def. 5.1 | [`is_safe`] / [`safety`] |
//! | admissible | Def. 5.3 | [`is_admissible`] / [`admissibility`] |
//!
//! These decide what the engine accepts and how it evaluates. The classes
//! that only state the hypotheses of the paper's theorems — K₁, normal
//! queries, positive existential formulas, rules and elementary
//! sentences, disjunctive linkage, almost admissibility — are defined in
//! `epilog-semantics`.
//!
//! The safe and admissible fragments are defined by the paper over the
//! primitive connectives `¬ ∧ ∃ K` (the rest are abbreviations). For
//! formulas using the defined connectives `∨ ⊃ ≡ ∀` in *modal* positions we
//! therefore first expand abbreviations with [`crate::transform::kernel`];
//! first-order subformulas are safe by fiat whatever their shape (Def. 5.1
//! clause 1). This matches the paper's own practice: the last formula of
//! Example 5.1 mixes `∨` under a modal `¬` and is declared safe.

use crate::formula::Formula;
use crate::symbols::Var;
use crate::transform::kernel;
use std::collections::BTreeSet;
use std::fmt;

/// Whether `w` is a FOPCE formula: no occurrence of `K`.
pub fn is_first_order(w: &Formula) -> bool {
    !is_modal(w)
}

/// Whether `w` mentions `K` at least once (the paper's `modal(w)`): one
/// recursive walk, no allocation.
pub(crate) fn is_modal(w: &Formula) -> bool {
    match w {
        Formula::Know(_) => true,
        Formula::Atom(_) | Formula::Eq(_, _) => false,
        Formula::Not(a) | Formula::Forall(_, a) | Formula::Exists(_, a) => is_modal(a),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            is_modal(a) || is_modal(b)
        }
    }
}

/// The **subjective** formulas (Definition 5.2): formulas that say nothing
/// about the external world, only about the epistemic state of the
/// database.
///
/// 1. `t₁ = t₂` is subjective;
/// 2. `Kf` is subjective whenever `f` is first-order;
/// 3. if `π` is subjective, so are `Kπ`, `(∃x)π`, `¬π`;
/// 4. if `π₁`, `π₂` are subjective, so is `π₁ ∧ π₂`.
///
/// We additionally close under the defined connectives `∨ ⊃ ≡ ∀`, which is
/// conservative: expanding the abbreviations into `¬ ∧ ∃` yields a formula
/// subjective by rules 3–4.
pub fn is_subjective(w: &Formula) -> bool {
    match w {
        Formula::Eq(_, _) => true,
        Formula::Atom(_) => false,
        Formula::Know(f) => is_first_order(f) || is_subjective(f),
        Formula::Not(a) | Formula::Exists(_, a) | Formula::Forall(_, a) => is_subjective(a),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            is_subjective(a) && is_subjective(b)
        }
    }
}

/// Why a formula failed the safety check (Definition 5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnsafeReason {
    /// A negation `¬σ` in modal position whose scope has free variables not
    /// bound by an enclosing conjunction: negation-as-failure would run on
    /// unbound variables.
    OpenNegation {
        /// The offending negated formula, printed.
        scope: String,
        /// The free variables that are unbound at this point.
        unbound: Vec<Var>,
    },
    /// A modal formula whose top connective is not generated by the safety
    /// rules even after abbreviation expansion.
    UnsupportedShape {
        /// The offending subformula, printed.
        at: String,
    },
}

impl fmt::Display for UnsafeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsafeReason::OpenNegation { scope, unbound } => {
                let vars: Vec<String> = unbound.iter().map(|v| v.to_string()).collect();
                write!(
                    f,
                    "negation scope `{scope}` has unbound variables {{{}}}",
                    vars.join(", ")
                )
            }
            UnsafeReason::UnsupportedShape { at } => {
                write!(
                    f,
                    "modal subformula `{at}` is not covered by the safety rules"
                )
            }
        }
    }
}

/// Check safety (Definition 5.1), returning a witness for failure.
///
/// `bound` is the set of variables that may be treated as parameters:
/// clause 3 of the definition substitutes arbitrary parameters for the free
/// variables of a left conjunct before checking the right conjunct, and
/// safety does not depend on *which* parameter is substituted, so we track
/// the substituted variables instead of substituting.
pub fn safety(w: &Formula) -> Result<(), UnsafeReason> {
    fn go(w: &Formula, bound: &BTreeSet<Var>) -> Result<(), UnsafeReason> {
        // Clause 1: any first-order formula is safe.
        if is_first_order(w) {
            return Ok(());
        }
        match w {
            Formula::Know(a) => go(a, bound),
            Formula::Exists(_, a) => go(a, bound),
            Formula::Not(a) => {
                // Clause 2: ¬σ is safe when σ is safe *and a sentence*
                // (modulo the variables bound by enclosing conjunctions).
                let unbound: Vec<Var> = a
                    .free_vars()
                    .into_iter()
                    .filter(|v| !bound.contains(v))
                    .collect();
                if !unbound.is_empty() {
                    return Err(UnsafeReason::OpenNegation {
                        scope: a.to_string(),
                        unbound,
                    });
                }
                go(a, bound)
            }
            Formula::And(a, b) => {
                go(a, bound)?;
                let mut bound2 = bound.clone();
                bound2.extend(a.free_vars());
                go(b, &bound2)
            }
            // Defined connectives in modal position: expand and re-check.
            Formula::Or(..) | Formula::Implies(..) | Formula::Iff(..) | Formula::Forall(..) => {
                go(&kernel(w), bound)
            }
            Formula::Atom(_) | Formula::Eq(_, _) => Ok(()),
        }
    }
    go(w, &BTreeSet::new())
}

/// Whether `w` is **safe** (Definition 5.1) — the KFOPCE generalization of
/// Prolog's safe-for-negation requirement.
pub fn is_safe(w: &Formula) -> bool {
    safety(w).is_ok()
}

/// The result of the admissibility check (Definition 5.3), carrying the
/// reason for a failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admissibility {
    /// The formula is admissible: `demo` evaluates it soundly
    /// (Theorem 5.1).
    Admissible,
    /// Condition 1 failed: the formula is not safe.
    NotSafe(UnsafeReason),
    /// Condition 2 failed: a quantified variable collides with another
    /// quantified variable or with a free variable.
    VariableCollision(Var),
    /// Condition 3 failed: the scope of an existential quantifier is
    /// neither subjective nor first-order.
    BadExistentialScope(String),
    /// Condition 4 failed: the scope of a negation is neither subjective
    /// nor first-order.
    BadNegationScope(String),
}

impl Admissibility {
    /// `true` iff the check passed.
    pub fn is_admissible(&self) -> bool {
        matches!(self, Admissibility::Admissible)
    }
}

impl fmt::Display for Admissibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Admissibility::Admissible => write!(f, "admissible"),
            Admissibility::NotSafe(r) => write!(f, "not safe: {r}"),
            Admissibility::VariableCollision(v) => {
                write!(f, "quantified variable {v} is not distinct")
            }
            Admissibility::BadExistentialScope(s) => write!(
                f,
                "scope of existential quantifier `{s}` is neither subjective nor first-order"
            ),
            Admissibility::BadNegationScope(s) => write!(
                f,
                "scope of negation `{s}` is neither subjective nor first-order"
            ),
        }
    }
}

/// Check **admissibility** (Definition 5.3). A KFOPCE formula is admissible
/// iff
///
/// 1. it is safe,
/// 2. its quantified variables are distinct from one another and from its
///    free variables,
/// 3. the scope of every existential quantifier is subjective or
///    first-order,
/// 4. the scope of every negation sign is subjective or first-order.
///
/// Conditions 3 and 4 are checked on modal subformulas only — on
/// first-order subformulas they hold trivially by the "or is first order"
/// disjunct, matching clause 1 of Def. 5.1 which admits first-order
/// formulas of any shape.
pub fn admissibility(w: &Formula) -> Admissibility {
    // Condition 2.
    let free: BTreeSet<Var> = w.free_vars().into_iter().collect();
    let mut seen = BTreeSet::new();
    for q in w.quantified_vars() {
        if free.contains(&q) || !seen.insert(q) {
            return Admissibility::VariableCollision(q);
        }
    }
    // Condition 1.
    if let Err(r) = safety(w) {
        return Admissibility::NotSafe(r);
    }
    // Conditions 3 and 4, over all subformulas; first-order subtrees are
    // exempt wholesale.
    fn scopes(w: &Formula) -> Result<(), Admissibility> {
        if is_first_order(w) {
            return Ok(());
        }
        match w {
            Formula::Exists(_, a) => {
                if !(is_subjective(a) || is_first_order(a)) {
                    return Err(Admissibility::BadExistentialScope(a.to_string()));
                }
                scopes(a)
            }
            Formula::Not(a) => {
                if !(is_subjective(a) || is_first_order(a)) {
                    return Err(Admissibility::BadNegationScope(a.to_string()));
                }
                scopes(a)
            }
            Formula::Know(a) => scopes(a),
            Formula::And(a, b) => {
                scopes(a)?;
                scopes(b)
            }
            // Defined connectives in modal position: check the expansion.
            Formula::Or(..) | Formula::Implies(..) | Formula::Iff(..) | Formula::Forall(..) => {
                scopes(&kernel(w))
            }
            Formula::Atom(_) | Formula::Eq(_, _) => Ok(()),
        }
    }
    match scopes(w) {
        Ok(()) => Admissibility::Admissible,
        Err(e) => e,
    }
}

/// Whether `w` is admissible (Definition 5.3).
pub fn is_admissible(w: &Formula) -> bool {
    admissibility(w).is_admissible()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn p(src: &str) -> Formula {
        parse(src).unwrap()
    }

    // ----- first-order / modal -----------------------------------------

    #[test]
    fn first_order_vs_modal() {
        assert!(is_first_order(&p("forall x. p(x) -> q(x)")));
        assert!(is_modal(&p("K p")));
        assert!(is_modal(&p("exists x. p(x) & ~K q(x)")));
    }

    // ----- subjective (Def 5.2) -----------------------------------------

    #[test]
    fn subjective_examples() {
        assert!(is_subjective(&p("x = y")));
        assert!(is_subjective(&p("K p(x)")));
        assert!(is_subjective(&p("K (exists y. ss(x, y))")));
        assert!(is_subjective(&p("~K male(x) & ~K female(x)")));
        assert!(is_subjective(&p("exists x. K Teach(x, CS)")));
        assert!(is_subjective(&p("K ~K p")));
        // Atoms are about the world, hence not subjective.
        assert!(!is_subjective(&p("p(x)")));
        assert!(!is_subjective(&p("Teach(x, Psych) & ~K Teach(x, CS)")));
    }

    #[test]
    fn k_over_modal_nonsubjective_body() {
        // K(p ∧ Kq): body is modal but not subjective (p is an atom), so
        // rule 2 does not apply and rule 3 needs the body subjective.
        assert!(!is_subjective(&p("K (p & K q)")));
        // But K(Kp ∧ Kq) is subjective by rules 3–4.
        assert!(is_subjective(&p("K (K p & K q)")));
    }

    // ----- safety (Def 5.1, Examples 5.1 and 5.2) ------------------------

    #[test]
    fn example_51_safe() {
        for src in [
            "p(x, y) & K q(x) & ~K r(x)",
            "exists x. ~r(x)",
            "~K (exists x. exists y. p(x, y) -> q(x) | r(y))",
            "p(x, y) & ~K q(x) & ~K r(y)",
            "exists x. exists y. p(x, y) & ~(K q(x) | K ~r(y))",
        ] {
            assert!(
                is_safe(&p(src)),
                "expected safe: {src}: {:?}",
                safety(&p(src))
            );
        }
    }

    #[test]
    fn example_52_unsafe() {
        for src in [
            "exists x. ~K p(x)",
            "r(x) & ~K p(x) & ~K q(y)",
            "~K q(x) & K r(x)",
        ] {
            assert!(!is_safe(&p(src)), "expected unsafe: {src}");
        }
    }

    #[test]
    fn unsafe_reason_names_variables() {
        let w = p("~K q(x) & K r(x)");
        match safety(&w) {
            Err(UnsafeReason::OpenNegation { unbound, .. }) => {
                assert_eq!(unbound, vec![Var::new("x")]);
            }
            other => panic!("expected OpenNegation, got {other:?}"),
        }
    }

    #[test]
    fn lemma_51_reassociation_preserves_safety() {
        // (w₁ ∧ w₂) ∧ w₃ safe ⇒ w₁ ∧ (w₂ ∧ w₃) safe.
        let left = p("(p(x, y) & K q(x)) & ~K r(y)");
        let right = p("p(x, y) & (K q(x) & ~K r(y))");
        assert!(is_safe(&left));
        assert!(is_safe(&right));
    }

    // ----- admissibility (Def 5.3, Examples 5.3–5.5) ---------------------

    #[test]
    fn example_53_section1_queries() {
        // All §1 queries but the last are admissible.
        for src in [
            "Teach(Mary, CS)",
            "K Teach(Mary, CS)",
            "K ~Teach(Mary, CS)",
            "exists x. K Teach(John, x)",
            "exists x. K Teach(x, CS)",
            "K (exists x. Teach(x, CS))",
            "exists x. Teach(x, Psych)",
            "exists x. K Teach(x, Psych)",
            "exists x. Teach(x, Psych) & ~Teach(x, CS)",
        ] {
            assert!(
                is_admissible(&p(src)),
                "expected admissible: {src}: {}",
                admissibility(&p(src))
            );
        }
        // The last §1 query: scope of ∃ is neither subjective nor first
        // order.
        let last = p("exists x. Teach(x, Psych) & ~K Teach(x, CS)");
        assert!(matches!(
            admissibility(&last),
            Admissibility::BadExistentialScope(_)
        ));
        // And the other non-admissible formula of Example 5.3.
        let other = p("exists x. ~K Teach(x, CS) & K Teach(x, Psych)");
        assert!(!is_admissible(&other));
    }

    #[test]
    fn example_55() {
        assert!(is_admissible(&p("p(x) & K q(x)")));
        assert!(!is_admissible(&p("exists x. p(x) & K q(x)")));
    }

    #[test]
    fn result_51_distinct_quantified_vars_required() {
        // demo's cautionary example from §5.3:
        // (∃x)[K(∃x)(p(x)) ∧ Kq(x)] has a variable bound twice.
        let w = p("exists x. K (exists x. p(x)) & K q(x)");
        assert!(matches!(
            admissibility(&w),
            Admissibility::VariableCollision(_)
        ));
    }

    #[test]
    fn result_51_subjective_k1_admissible_iff_safe_and_distinct() {
        // For subjective K₁ sentences, admissibility reduces to safety +
        // distinct quantified variables.
        // (`epilog-semantics` checks that the sentence is K₁.)
        let sigma = p("~(exists x. K emp(x) & ~K (exists y. ss(x, y)))");
        assert!(is_subjective(&sigma) && sigma.is_sentence());
        assert!(is_safe(&sigma));
        assert!(is_admissible(&sigma));
    }

    #[test]
    fn quantified_var_colliding_with_free_var() {
        // x occurs free and bound.
        let w = p("K q(x) & (exists x. K p(x))");
        assert!(matches!(
            admissibility(&w),
            Admissibility::VariableCollision(_)
        ));
    }

    // ----- normal queries (§5.2) -----------------------------------------

    #[test]
    fn normal_query_admissible_iff_safe() {
        // §5.2: a normal query is admissible iff it is safe (both are
        // normal queries, which `epilog-semantics` checks).
        let safe = p("p(x) & ~K q(x)");
        assert!(is_safe(&safe) && is_admissible(&safe));
        let unsafe_q = p("~K q(x) & p(x)");
        assert!(!is_safe(&unsafe_q) && !is_admissible(&unsafe_q));
    }
}
