//! Elementary theories (Definition 6.3): the databases §6's completeness
//! results are stated for, split into positive existential facts and
//! rules.

use crate::classify::{decompose_rule, is_elementary_sentence};
use epilog_syntax::{Atom, Formula, Theory, Var};

/// A structured view of a rule `(∀x̄)(A ⊃ B)` of an elementary theory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The universally quantified variables `x̄`.
    pub vars: Vec<Var>,
    /// The body `A`: a conjunction of non-equality atoms, range-restricted.
    pub body: Vec<Atom>,
    /// The head `B`: a positive existential formula.
    pub head: Formula,
}

/// Whether every sentence of `theory` is elementary (Definition 6.3).
pub fn is_elementary(theory: &Theory) -> bool {
    theory.sentences().iter().all(|s| is_elementary_sentence(s))
}

/// The rules of `theory`, in structured form. Non-rule sentences are
/// skipped.
pub fn rules(theory: &Theory) -> Vec<Rule> {
    theory
        .sentences()
        .iter()
        .filter_map(|s| {
            decompose_rule(s).map(|(vars, body, head)| Rule {
                vars,
                body,
                head: head.clone(),
            })
        })
        .collect()
}

/// The non-rule sentences of `theory` (for an elementary theory: the
/// positive existential facts).
pub fn facts(theory: &Theory) -> Vec<&Formula> {
    theory
        .sentences()
        .iter()
        .map(|s| &**s)
        .filter(|s| decompose_rule(s).is_none())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    fn teach_db() -> Theory {
        Theory::from_text(
            "Teach(John, Math)
             exists x. Teach(x, CS)
             Teach(Mary, Psych) | Teach(Sue, Psych)",
        )
        .unwrap()
    }

    #[test]
    fn teach_db_is_elementary() {
        assert!(is_elementary(&teach_db()));
        let mut t = teach_db();
        t.assert(parse("~Teach(John, CS)").unwrap()).unwrap();
        assert!(!is_elementary(&t));
    }

    #[test]
    fn rules_and_facts_split() {
        let t = Theory::from_text(
            "p(a)
             forall x. p(x) -> q(x)
             exists x. r(x)",
        )
        .unwrap();
        assert_eq!(rules(&t).len(), 1);
        assert_eq!(facts(&t).len(), 2);
        assert!(matches!(facts(&t)[0], Formula::Atom(_)));
        let rule = &rules(&t)[0];
        assert_eq!(rule.vars.len(), 1);
        assert_eq!(rule.body.len(), 1);
        // The Datalog engine evaluates `p(x) -> q(x)` under a vacuous `∀z`,
        // but it is no rule: `z` does not occur in the body.
        let vacuous = Theory::from_text("forall x, z. p(x) -> q(x)").unwrap();
        assert!(rules(&vacuous).is_empty());
    }
}
