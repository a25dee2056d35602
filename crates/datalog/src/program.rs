//! Datalog programs: definite rules over an extensional database.

use epilog_storage::Database;
use epilog_syntax::formula::{Atom, Formula};
use epilog_syntax::Var;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;

/// A definite Datalog rule `head ← body`: every body literal is an atom.
/// Facts are rules with empty bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body atoms, evaluated left to right.
    pub body: Vec<Atom>,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        for (i, a) in self.body.iter().enumerate() {
            write!(f, "{}{a}", if i == 0 { " <- " } else { ", " })?;
        }
        Ok(())
    }
}

/// Why a sentence was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// A sentence is neither a ground atom nor `∀x̄ (a₁ ∧ … ∧ aₙ ⊃ atom)`
    /// over atoms.
    NotARule(String),
    /// A head variable does not occur in the body (the Datalog safety
    /// condition).
    Unsafe(String),
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::NotARule(s) => write!(f, "`{s}` is not a Datalog rule"),
            DatalogError::Unsafe(s) => write!(f, "rule `{s}` is unsafe"),
        }
    }
}

impl std::error::Error for DatalogError {}

/// A definite Datalog program: rules plus an extensional database (EDB).
/// Its meaning is its least model.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The rules (body-less ones included).
    pub rules: Vec<Rule>,
    /// Extensional facts.
    pub edb: Database,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Add an extensional ground fact.
    pub fn fact(&mut self, atom: &Atom) {
        self.edb.insert(atom);
    }

    /// Build a program from FOPCE sentences: ground atoms are facts, and
    /// safe `∀x̄ (a₁ ∧ … ∧ aₙ ⊃ atom)` sentences over atoms are rules (a
    /// bare atom under `∀x̄` is a rule with an empty body). A negated body
    /// literal is refused ([`DatalogError::NotARule`]): the engine
    /// computes least models, and classical entailment from such a
    /// sentence is not one. Takes owned formulas or the shared pointers a
    /// `Theory` hands out.
    pub fn from_sentences(sentences: &[impl Borrow<Formula>]) -> Result<Self, DatalogError> {
        let mut prog = Program::new();
        for s in sentences {
            match s.borrow() {
                Formula::Atom(a) if a.is_ground() => prog.fact(a),
                s => prog.rules.push(read_rule(s)?),
            }
        }
        Ok(prog)
    }

    /// Parse using the `epilog-syntax` formula grammar: ground atoms are
    /// facts, `forall x̄. body -> head` sentences are rules.
    pub fn from_text(src: &str) -> Result<Self, String> {
        let sentences = epilog_syntax::parse_theory(src).map_err(|e| e.to_string())?;
        Program::from_sentences(&sentences).map_err(|e| e.to_string())
    }
}

/// Read `∀x̄ (a₁ ∧ … ∧ aₙ ⊃ head)` as a rule, atoms in written order,
/// checking that every head variable occurs in the body.
fn read_rule(s: &Formula) -> Result<Rule, DatalogError> {
    let mut cur = s;
    while let Formula::Forall(_, body) = cur {
        cur = body;
    }
    let (head, body) = match cur {
        Formula::Implies(body, head) => (head.as_ref(), Some(body.as_ref())),
        bare => (bare, None),
    };
    let Formula::Atom(head) = head else {
        return Err(DatalogError::NotARule(s.to_string()));
    };
    let mut atoms = Vec::new();
    if body.is_some_and(|b| !collect_atoms(b, &mut atoms)) {
        return Err(DatalogError::NotARule(s.to_string()));
    }
    let bound: BTreeSet<Var> = atoms.iter().flat_map(Atom::vars).collect();
    if head.vars().iter().any(|v| !bound.contains(v)) {
        return Err(DatalogError::Unsafe(s.to_string()));
    }
    Ok(Rule {
        head: head.clone(),
        body: atoms,
    })
}

fn collect_atoms(w: &Formula, out: &mut Vec<Atom>) -> bool {
    match w {
        Formula::And(a, b) => collect_atoms(a, out) && collect_atoms(b, out),
        Formula::Atom(a) => {
            out.push(a.clone());
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_text_parses_facts_and_rules() {
        let p = Program::from_text(
            "e(a, b)
             e(b, c)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
        )
        .unwrap();
        assert_eq!(p.edb.len(), 2);
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn negated_body_literals_are_not_a_program() {
        let sentences =
            epilog_syntax::parse_theory("p(a)\nforall x. p(x) & ~q(x) -> r(x)").unwrap();
        assert!(matches!(
            Program::from_sentences(&sentences),
            Err(DatalogError::NotARule(_))
        ));
    }

    #[test]
    fn safety_rejected() {
        let err = Program::from_text("forall x, y. p(x) -> q(x, y)").unwrap_err();
        assert!(err.contains("is unsafe"), "{err}");
    }

    #[test]
    fn non_rule_rejected() {
        let err = Program::from_text("p(a) | q(a)").unwrap_err();
        assert!(err.contains("not a Datalog rule"));
    }

    #[test]
    fn rule_display() {
        let p = Program::from_text("forall x. p(x) & q(x) -> r(x)").unwrap();
        assert_eq!(p.rules[0].to_string(), "r(x) <- p(x), q(x)");
    }
}
