//! The syntactic classes only the paper's results are stated over.
//!
//! `epilog-syntax` keeps the classes that decide what the engine accepts
//! and how it evaluates (first-order, subjective, safe, admissible); the
//! ones below only state the hypotheses of the paper's theorems, which
//! this crate's definitions and the E-suites check.
//!
//! | class | paper | function |
//! |---|---|---|
//! | K₁ (no iterated modalities) | §5.3 | [`is_k1`] |
//! | normal query | §5.2 | [`is_normal_query`] |
//! | positive existential | Def. 6.3 | [`is_positive_existential`] |
//! | rule | Def. 6.3 | `is_rule` / `decompose_rule` |
//! | elementary sentence | Def. 6.3 | `is_elementary_sentence` |
//! | disjunctively linked variables | Def. 6.4 | [`disjunctively_linked`] |
//! | almost admissible wrt `F` | Def. 6.2 | [`almost_admissible`] |

use epilog_syntax::{is_first_order, is_subjective, Atom, Formula, Term, Var};
use std::collections::BTreeSet;

/// Whether `w` is a **K₁ formula**: no iterated modalities, i.e. no `K`
/// occurs within the scope of another `K` (§5.3).
pub fn is_k1(w: &Formula) -> bool {
    fn go(w: &Formula, under_k: bool) -> bool {
        match w {
            Formula::Atom(_) | Formula::Eq(_, _) => true,
            Formula::Know(a) => !under_k && go(a, true),
            Formula::Not(a) | Formula::Exists(_, a) | Formula::Forall(_, a) => go(a, under_k),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Iff(a, b) => go(a, under_k) && go(b, under_k),
        }
    }
    go(w, false)
}

/// Whether `w` is a **normal query** (§5.2): a conjunction `L₁ ∧ … ∧ Lₙ`
/// where each `Lᵢ` is a first-order literal, `Kl`, or `¬Kl` for a
/// first-order literal `l`.
pub fn is_normal_query(w: &Formula) -> bool {
    fn literal(w: &Formula) -> bool {
        match w {
            Formula::Atom(_) | Formula::Eq(_, _) => true,
            Formula::Not(a) => matches!(a.as_ref(), Formula::Atom(_) | Formula::Eq(_, _)),
            _ => false,
        }
    }
    fn conjunct(w: &Formula) -> bool {
        match w {
            Formula::Know(a) => literal(a),
            Formula::Not(a) => match a.as_ref() {
                Formula::Know(l) => literal(l),
                // ¬atom is a first-order literal.
                Formula::Atom(_) | Formula::Eq(_, _) => true,
                _ => false,
            },
            _ => literal(w),
        }
    }
    fn go(w: &Formula) -> bool {
        match w {
            Formula::And(a, b) => go(a) && go(b),
            _ => conjunct(w),
        }
    }
    go(w)
}

/// Whether `w` is a **positive existential** FOPCE formula (Definition
/// 6.3): built from non-equality atoms by `∃ ∧ ∨`.
pub fn is_positive_existential(w: &Formula) -> bool {
    match w {
        Formula::Atom(_) => true,
        Formula::Eq(_, _) => false,
        Formula::Exists(_, a) => is_positive_existential(a),
        Formula::And(a, b) | Formula::Or(a, b) => {
            is_positive_existential(a) && is_positive_existential(b)
        }
        _ => false,
    }
}

/// Whether `w` is a **rule** (Definition 6.3): a sentence
/// `(∀x̄)(A ⊃ B)` where `A` is a conjunction of non-equality atoms, `B` is
/// positive existential, and every variable of `x̄` occurs free in `A`
/// (range restriction).
pub(crate) fn is_rule(w: &Formula) -> bool {
    decompose_rule(w).is_some()
}

/// Decompose a rule into `(x̄, A-atoms, B)`; `None` if `w` is not a rule.
pub(crate) fn decompose_rule(w: &Formula) -> Option<(Vec<Var>, Vec<Atom>, &Formula)> {
    let mut vars = Vec::new();
    let mut cur = w;
    while let Formula::Forall(x, body) = cur {
        vars.push(*x);
        cur = body;
    }
    let Formula::Implies(a, b) = cur else {
        return None;
    };
    // Body: conjunction of non-equality atoms.
    fn atoms(w: &Formula, out: &mut Vec<Atom>) -> bool {
        match w {
            Formula::Atom(a) => {
                out.push(a.clone());
                true
            }
            Formula::And(l, r) => atoms(l, out) && atoms(r, out),
            _ => false,
        }
    }
    let mut body = Vec::new();
    if !atoms(a, &mut body) {
        return None;
    }
    if !is_positive_existential(b) {
        return None;
    }
    // Range restriction: every universally quantified variable occurs in A.
    let body_vars: BTreeSet<Var> = body
        .iter()
        .flat_map(|at| {
            at.terms.iter().filter_map(|t| match t {
                Term::Var(v) => Some(*v),
                Term::Param(_) => None,
            })
        })
        .collect();
    if !vars.iter().all(|v| body_vars.contains(v)) {
        return None;
    }
    // Sentence check: the rule's free variables must all be universally
    // quantified.
    if !w.is_sentence() {
        return None;
    }
    Some((vars, body, b))
}

/// Whether `w` is an **elementary sentence** (Definition 6.3): a positive
/// existential sentence or a rule. Elementary *theories* are sets of
/// elementary sentences; they make no mention of equality.
pub(crate) fn is_elementary_sentence(w: &Formula) -> bool {
    (w.is_sentence() && is_positive_existential(w)) || is_rule(w)
}

/// Whether `w` has **disjunctively linked variables** (Definition 6.4):
/// with `x̄` the free variables of `w`, for every subformula `w₁ ∨ w₂` of
/// `w`, the free variables of `w₁` among `x̄` are exactly those of `w₂`
/// among `x̄`.
pub fn disjunctively_linked(w: &Formula) -> bool {
    linked_beyond(w, &BTreeSet::new())
}

/// Disjunctive linkage with the variables of `bound` treated as
/// parameters: `x̄` is `w`'s free variables outside `bound`.
pub(crate) fn linked_beyond(w: &Formula, bound: &BTreeSet<Var>) -> bool {
    let top: BTreeSet<Var> = w
        .free_vars()
        .into_iter()
        .filter(|v| !bound.contains(v))
        .collect();
    let among_top = |f: &Formula| -> BTreeSet<Var> {
        f.free_vars()
            .into_iter()
            .filter(|v| top.contains(v))
            .collect()
    };
    w.subformulas().into_iter().all(|s| match s {
        Formula::Or(a, b) => among_top(a) == among_top(b),
        _ => true,
    })
}

/// The **almost admissible** formulas wrt a class `F` of first-order
/// formulas (Definition 6.2). `F` is given as a membership predicate; the
/// paper requires every member of `F` to have finitely many instances wrt
/// the database, which is the caller's obligation.
///
/// 1. `f ∈ F` is a.a.;
/// 2. if `σ` is a subjective a.a. *sentence*, `¬σ` is a.a.;
/// 3. if `σ` is a subjective a.a. formula, `(∃x)σ` is a.a.;
/// 4. if `σ` is a.a., so is `Kσ`;
/// 5. if `σ₁` (free variables `x̄`) is a.a. and `σ₂|p̄x̄` is a.a. for
///    parameters `p̄`, then `σ₁ ∧ σ₂` is a.a.
///
/// As with safety we track conjunction-bound variables instead of
/// substituting; the `F`-membership test receives the formula together with
/// the set of variables that may be treated as parameters.
pub fn almost_admissible(w: &Formula, in_f: &dyn Fn(&Formula, &BTreeSet<Var>) -> bool) -> bool {
    fn go(
        w: &Formula,
        bound: &BTreeSet<Var>,
        in_f: &dyn Fn(&Formula, &BTreeSet<Var>) -> bool,
    ) -> bool {
        if is_first_order(w) && in_f(w, bound) {
            return true;
        }
        match w {
            Formula::Not(a) => {
                let closed = a.free_vars().iter().all(|v| bound.contains(v));
                closed && is_subjective(a) && go(a, bound, in_f)
            }
            Formula::Exists(_, a) => is_subjective(a) && go(a, bound, in_f),
            Formula::Know(a) => go(a, bound, in_f),
            Formula::And(a, b) => {
                if !go(a, bound, in_f) {
                    return false;
                }
                let mut bound2 = bound.clone();
                bound2.extend(a.free_vars());
                go(b, &bound2, in_f)
            }
            _ => false,
        }
    }
    go(w, &BTreeSet::new(), in_f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    fn p(src: &str) -> Formula {
        parse(src).unwrap()
    }

    // ----- K₁ -------------------------------------------------------------

    #[test]
    fn k1_detection() {
        assert!(is_k1(&p("K p & ~K q")));
        assert!(!is_k1(&p("K K p")));
        assert!(!is_k1(&p("K (p & ~K q)")));
        assert!(is_k1(&p("p & q")));
    }

    #[test]
    fn result_51_sentence_is_k1() {
        // Result 5.1 is stated for subjective K₁ sentences; its example
        // is one (its admissibility is checked in `epilog-syntax`).
        let sigma = p("~(exists x. K emp(x) & ~K (exists y. ss(x, y)))");
        assert!(is_k1(&sigma) && sigma.is_sentence());
    }

    // ----- normal queries (§5.2) -----------------------------------------

    #[test]
    fn normal_queries() {
        assert!(is_normal_query(&p("p(x) & K q(x) & ~K r(x)")));
        assert!(is_normal_query(&p("~p(x)")));
        assert!(is_normal_query(&p("K ~p(x) & q(y)")));
        assert!(!is_normal_query(&p("K (p(x) & q(x))")));
        assert!(!is_normal_query(&p("exists x. K p(x)")));
        assert!(!is_normal_query(&p("p | q")));
    }

    #[test]
    fn section_52_examples_are_normal_queries() {
        // §5.2: a normal query is admissible iff it is safe; these two
        // are the ones `epilog-syntax` checks safe and unsafe.
        assert!(is_normal_query(&p("p(x) & ~K q(x)")));
        assert!(is_normal_query(&p("~K q(x) & p(x)")));
    }

    // ----- positive existential / rules / elementary (Def 6.3) -----------

    #[test]
    fn positive_existential() {
        assert!(is_positive_existential(&p(
            "exists x. p(x) & (q(x) | r(x))"
        )));
        assert!(!is_positive_existential(&p("~p")));
        assert!(!is_positive_existential(&p("x = y")));
        assert!(!is_positive_existential(&p("forall x. p(x)")));
    }

    #[test]
    fn rules() {
        assert!(is_rule(&p("forall x. p(x) -> q(x)")));
        assert!(is_rule(&p("forall x, y. e(x, y) -> exists z. e(y, z)")));
        assert!(is_rule(&p("forall x. p(x) & q(x) -> r(x) | s(x)")));
        // Range restriction violated: y not in the body.
        assert!(!is_rule(&p("forall x, y. p(x) -> q(x, y)")));
        // Body not a conjunction of atoms.
        assert!(!is_rule(&p("forall x. ~p(x) -> q(x)")));
        // Head not positive existential.
        assert!(!is_rule(&p("forall x. p(x) -> ~q(x)")));
        // Not a sentence (z free in head).
        assert!(!is_rule(&p("forall x. p(x) -> q(x, z)")));
    }

    #[test]
    fn elementary_sentences() {
        assert!(is_elementary_sentence(&p("Teach(John, Math)")));
        assert!(is_elementary_sentence(&p("exists x. Teach(x, CS)")));
        assert!(is_elementary_sentence(&p(
            "Teach(Mary, Psych) | Teach(Sue, Psych)"
        )));
        assert!(is_elementary_sentence(&p("forall x. p(x) -> q(x)")));
        assert!(!is_elementary_sentence(&p("~p")));
        assert!(!is_elementary_sentence(&p("p(x)"))); // not a sentence
        assert!(!is_elementary_sentence(&p("a = b"))); // mentions equality
    }

    // ----- disjunctively linked variables (Def 6.4, Example 6.1) ---------

    #[test]
    fn example_61_linked() {
        for src in [
            "P(a, b) | Q(a, c)",
            "forall x. U(x) | W(x)",
            "P(x, x) | Q(x, x)",
            "exists y, z. P(y, x) | R(y, z, x) | (exists u. P(u, a) & Q(u, x))",
        ] {
            assert!(disjunctively_linked(&p(src)), "expected linked: {src}");
        }
    }

    #[test]
    fn example_61_not_linked() {
        for src in ["forall x. U(x) | W(y)", "P(x, y) | Q(y, z)"] {
            assert!(!disjunctively_linked(&p(src)), "expected not linked: {src}");
        }
    }

    // ----- almost admissible (Def 6.2) ------------------------------------

    #[test]
    fn almost_admissible_wrt_atoms() {
        // F = all first-order atoms (plus anything with bound free vars).
        let in_f = |w: &Formula, _bound: &BTreeSet<Var>| matches!(w, Formula::Atom(_));
        assert!(almost_admissible(&p("p(x)"), &in_f));
        assert!(almost_admissible(&p("K p(x)"), &in_f));
        assert!(almost_admissible(&p("p(x) & K q(x)"), &in_f));
        assert!(almost_admissible(&p("exists x. K p(x)"), &in_f));
        // ¬σ needs σ to be a subjective sentence.
        assert!(!almost_admissible(&p("~K p(x)"), &in_f));
        assert!(almost_admissible(&p("~K p(a)"), &in_f));
        // A conjunction binds the left conjunct's variables for the right.
        assert!(almost_admissible(&p("p(x) & ~K q(x)"), &in_f));
        // Negated non-subjective formula is not a.a.
        assert!(!almost_admissible(&p("~p(a)"), &in_f));
    }
}
