//! Integrity constraints: the paper's analysis of §3.
//!
//! A constraint is a statement about what the database *knows*, not about
//! the world; so a constraint is a KFOPCE sentence and `Σ` satisfies `IC`
//! iff `Σ ⊨ IC` (Definition 3.5). The module also implements the four
//! classical definitions the paper argues against, so the failures it
//! exhibits (the `emp`/`ss#` examples) can be reproduced side by side:
//!
//! | id | reading | applies to |
//! |---|---|---|
//! | [`IcDefinition::Consistency`] | `Σ + IC` satisfiable | open DBs (Kowalski) |
//! | [`IcDefinition::Entailment`] | `Σ ⊨ IC` (first-order) | open DBs (early Reiter) |
//! | [`IcDefinition::CompConsistency`] | `Comp(Σ) + IC` satisfiable | Prolog-like DBs (Sadri–Kowalski) |
//! | [`IcDefinition::CompEntailment`] | `Comp(Σ) ⊨ IC` | Prolog-like DBs (Lloyd–Topor) |
//! | [`IcDefinition::Epistemic`] | `Σ ⊨ IC`, IC modal | **this paper** (Def. 3.5) |

use crate::completion::completion;
use epilog_core::CompiledConstraint;
use epilog_prover::Prover;
use epilog_syntax::{is_first_order, Formula, Theory};
use std::fmt;

/// The five notions of a database satisfying an integrity constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcDefinition {
    /// Definition 3.1 — `DB + IC` is satisfiable (first-order `IC`).
    Consistency,
    /// Definition 3.2 — `DB ⊨ IC` (first-order `IC`).
    Entailment,
    /// Definition 3.3 — `Comp(DB) + IC` is satisfiable. Only defined for
    /// Prolog-like databases.
    CompConsistency,
    /// Definition 3.4 — `Comp(DB) ⊨ IC`. Only defined for Prolog-like
    /// databases.
    CompEntailment,
    /// Definition 3.5 — `DB ⊨ IC` with `IC` a KFOPCE (epistemic) sentence:
    /// the paper's proposal.
    Epistemic,
}

impl fmt::Display for IcDefinition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcDefinition::Consistency => write!(f, "3.1 consistency"),
            IcDefinition::Entailment => write!(f, "3.2 entailment"),
            IcDefinition::CompConsistency => write!(f, "3.3 Comp-consistency"),
            IcDefinition::CompEntailment => write!(f, "3.4 Comp-entailment"),
            IcDefinition::Epistemic => write!(f, "3.5 epistemic (this paper)"),
        }
    }
}

/// The verdict of one definition on one database/constraint pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcReport {
    /// The database satisfies the constraint under this definition.
    Satisfied,
    /// It does not.
    Violated,
    /// The definition does not apply (e.g. `Comp` of a disjunctive
    /// database, or a modal `IC` under a first-order definition).
    Inapplicable,
}

impl fmt::Display for IcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcReport::Satisfied => write!(f, "satisfied"),
            IcReport::Violated => write!(f, "violated"),
            IcReport::Inapplicable => write!(f, "n/a"),
        }
    }
}

/// Whether `Σ ∧ g` is satisfiable, `Σ` being `prover`'s theory: the
/// consistency reading of integrity constraints (Definition 3.1).
pub fn consistent_with(prover: &Prover, g: &Formula) -> bool {
    !prover.entails(&Formula::not(g.clone()))
}

/// Evaluate constraint satisfaction under a chosen definition.
///
/// For [`IcDefinition::Epistemic`], `ic` may be any KFOPCE sentence and
/// satisfaction is `Σ ⊨ IC` — which is *identical to query evaluation*
/// (§3), and is decided by the constraint's [`CompiledConstraint`]: a
/// constraint whose [`admissible_constraint`](epilog_syntax::admissible_constraint)
/// rewrite is admissible — every constraint of the paper — is evaluated
/// by [`demo`](mod@epilog_core::demo) (Theorem 5.1: it succeeds iff
/// `Σ ⊨ IC`), which answers from a least model the prover carries where it
/// can and by first-order prover calls otherwise; the Levesque-style
/// reduction of [`certain`](epilog_core::ask::certain) decides the rest.
/// The first-order definitions return
/// [`IcReport::Inapplicable`] on modal constraints, and the `Comp`
/// definitions additionally require the database to be Prolog-like.
pub fn ic_satisfaction(prover: &Prover, ic: &Formula, def: IcDefinition) -> IcReport {
    let verdict = |b: bool| {
        if b {
            IcReport::Satisfied
        } else {
            IcReport::Violated
        }
    };
    match def {
        IcDefinition::Epistemic => {
            verdict(CompiledConstraint::compile(ic).violated(prover).is_none())
        }
        IcDefinition::Consistency => {
            if !is_first_order(ic) {
                return IcReport::Inapplicable;
            }
            verdict(consistent_with(prover, ic))
        }
        IcDefinition::Entailment => {
            if !is_first_order(ic) {
                return IcReport::Inapplicable;
            }
            verdict(prover.entails(ic))
        }
        IcDefinition::CompConsistency | IcDefinition::CompEntailment => {
            if !is_first_order(ic) {
                return IcReport::Inapplicable;
            }
            let Some(comp_prover) = completion_prover(prover.theory(), ic) else {
                return IcReport::Inapplicable;
            };
            match def {
                IcDefinition::CompConsistency => verdict(consistent_with(&comp_prover, ic)),
                _ => verdict(comp_prover.entails(ic)),
            }
        }
    }
}

/// `Comp(DB)` as a prover, when `DB` is Prolog-like (facts + Horn-ish
/// rules); `None` otherwise — the paper's point that Definitions 3.3/3.4
/// "do not have general applicability". Predicates mentioned only by the
/// constraint are closed off too (`∀x̄ ¬p(x̄)`): the completion is taken
/// over the whole language of the comparison, as Clark's semantics
/// intends.
fn completion_prover(theory: &Theory, ic: &Formula) -> Option<Prover> {
    use epilog_syntax::{Term, Var};
    let mut comp = completion(theory.sentences())?;
    let covered = theory.preds();
    for pred in ic.preds() {
        if !covered.contains(&pred) {
            let vars: Vec<Var> = (0..pred.arity())
                .map(|i| Var::fresh(&format!("x{i}")))
                .collect();
            let mut w = Formula::not(Formula::atom(
                &pred.name(),
                vars.iter().map(|v| Term::Var(*v)).collect(),
            ));
            for v in vars.into_iter().rev() {
                w = Formula::forall(v, w);
            }
            comp.push(w);
        }
    }
    Some(Prover::new(Theory::new(comp).ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    fn prover(src: &str) -> Prover {
        Prover::new(Theory::from_text(src).unwrap())
    }

    /// §3: the social-security constraint, first-order form.
    fn ic_fo() -> Formula {
        parse("forall x. emp(x) -> exists y. ss(x, y)").unwrap()
    }

    /// §3: the epistemic form — "every *known* employee has a *known*
    /// social-security number" (Example 3.4 variant with known number:
    /// ∀x (Kemp(x) ⊃ ∃y K ss(x,y))).
    fn ic_modal() -> Formula {
        parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap()
    }

    #[test]
    fn definition_31_fails_on_emp_mary() {
        // DB = {emp(Mary)}: consistency says "satisfied" (wrong — Mary has
        // no number on file).
        let p = prover("emp(Mary)");
        assert_eq!(
            ic_satisfaction(&p, &ic_fo(), IcDefinition::Consistency),
            IcReport::Satisfied,
            "this is the counterintuitive verdict the paper exhibits"
        );
        // The paper's definition gets it right: violated.
        assert_eq!(
            ic_satisfaction(&p, &ic_modal(), IcDefinition::Epistemic),
            IcReport::Violated
        );
    }

    #[test]
    fn definition_32_fails_on_empty_db() {
        // DB = {}: entailment says "violated" (wrong — an empty DB should
        // satisfy the constraint).
        let p = Prover::new(Theory::empty());
        assert_eq!(
            ic_satisfaction(&p, &ic_fo(), IcDefinition::Entailment),
            IcReport::Violated,
            "the counterintuitive verdict of Definition 3.2"
        );
        assert_eq!(
            ic_satisfaction(&p, &ic_modal(), IcDefinition::Epistemic),
            IcReport::Satisfied
        );
    }

    #[test]
    fn epistemic_definition_on_complete_db() {
        let p = prover("emp(Mary)\nss(Mary, n1)");
        assert_eq!(
            ic_satisfaction(&p, &ic_modal(), IcDefinition::Epistemic),
            IcReport::Satisfied
        );
    }

    #[test]
    fn example_34_number_known_to_exist_suffices() {
        // ∀x (Kemp(x) ⊃ K∃y ss(x,y)): the number need not be known, only
        // known to exist.
        let ic = parse("forall x. K emp(x) -> K (exists y. ss(x, y))").unwrap();
        let p = prover("emp(Mary)\nexists y. ss(Mary, y)");
        assert_eq!(
            ic_satisfaction(&p, &ic, IcDefinition::Epistemic),
            IcReport::Satisfied
        );
        // But the stronger Example 3.4-variant with a known number fails:
        assert_eq!(
            ic_satisfaction(&p, &ic_modal(), IcDefinition::Epistemic),
            IcReport::Violated
        );
    }

    #[test]
    fn example_31_no_hermaphrodites() {
        let ic = parse("forall x. ~K (male(x) & female(x))").unwrap();
        let ok = prover("male(Sam)\nfemale(Sue)");
        assert_eq!(
            ic_satisfaction(&ok, &ic, IcDefinition::Epistemic),
            IcReport::Satisfied
        );
        let bad = prover("male(Sam)\nfemale(Sam)");
        assert_eq!(
            ic_satisfaction(&bad, &ic, IcDefinition::Epistemic),
            IcReport::Violated
        );
    }

    #[test]
    fn example_32_sex_must_be_assigned() {
        let ic = parse("forall x. K person(x) -> K male(x) | K female(x)").unwrap();
        let ok = prover("person(Sam)\nmale(Sam)");
        assert_eq!(
            ic_satisfaction(&ok, &ic, IcDefinition::Epistemic),
            IcReport::Satisfied
        );
        let bad = prover("person(Sam)\nmale(Sam) | female(Sam)");
        // Disjunctive knowledge is not knowledge of either disjunct.
        assert_eq!(
            ic_satisfaction(&bad, &ic, IcDefinition::Epistemic),
            IcReport::Violated
        );
    }

    #[test]
    fn example_35_functional_dependency() {
        let ic = parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap();
        let ok = prover("ss(Mary, n1)\nss(Sue, n2)");
        assert_eq!(
            ic_satisfaction(&ok, &ic, IcDefinition::Epistemic),
            IcReport::Satisfied
        );
        let bad = prover("ss(Mary, n1)\nss(Mary, n2)");
        assert_eq!(
            ic_satisfaction(&bad, &ic, IcDefinition::Epistemic),
            IcReport::Violated
        );
    }

    #[test]
    fn comp_definitions_on_prolog_like_db() {
        let p = prover("emp(Mary)");
        // Comp({emp(Mary)}) ⊨ ¬∃y ss(Mary,y): the completion *closes* ss,
        // so the first-order IC is now *violated* under Comp-entailment.
        assert_eq!(
            ic_satisfaction(&p, &ic_fo(), IcDefinition::CompEntailment),
            IcReport::Violated
        );
        assert_eq!(
            ic_satisfaction(&p, &ic_fo(), IcDefinition::CompConsistency),
            IcReport::Violated,
            "Comp decides everything, so the two Comp readings agree here"
        );
    }

    #[test]
    fn comp_inapplicable_to_disjunctive_db() {
        // The paper: completion "would not apply … to databases with
        // existentially quantified or disjunctive information".
        let p = prover("emp(Mary) | emp(Sue)");
        assert_eq!(
            ic_satisfaction(&p, &ic_fo(), IcDefinition::CompEntailment),
            IcReport::Inapplicable
        );
    }

    #[test]
    fn first_order_definitions_inapplicable_to_modal_ic() {
        let p = prover("emp(Mary)");
        for def in [
            IcDefinition::Consistency,
            IcDefinition::Entailment,
            IcDefinition::CompConsistency,
            IcDefinition::CompEntailment,
        ] {
            assert_eq!(
                ic_satisfaction(&p, &ic_modal(), def),
                IcReport::Inapplicable
            );
        }
    }

    #[test]
    fn satisfaction_is_query_evaluation() {
        // §3: "testing constraint satisfaction is identical to querying a
        // first-order database with a KFOPCE sentence".
        use epilog_core::{ask, Answer};
        let p = prover("emp(Mary)\nss(Mary, n1)");
        let ic = ic_modal();
        let as_query = ask(&p, &ic) == Answer::Yes;
        let as_ic = ic_satisfaction(&p, &ic, IcDefinition::Epistemic) == IcReport::Satisfied;
        assert_eq!(as_query, as_ic);
    }
}
