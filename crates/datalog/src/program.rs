//! Datalog programs: definite rules over an extensional database, and the
//! clause reader they share with Clark's completion.

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
    /// A sentence is neither a ground atom nor `∀x̄ (l₁ ∧ … ∧ lₙ ⊃ atom)`
    /// over literals — or, for a [`Program`], one of the `lᵢ` is negated.
    NotARule(String),
    /// A head or negated-body variable does not occur in a positive body
    /// literal (the Datalog safety condition).
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
    /// safe `∀x̄ (a₁ ∧ … ∧ aₙ ⊃ atom)` sentences over atoms are rules. A
    /// negated body literal is refused ([`DatalogError::NotARule`]): the
    /// engine computes least models, and classical entailment from such a
    /// sentence is not one. Takes owned formulas or the shared pointers a
    /// `Theory` hands out.
    pub fn from_sentences(sentences: &[impl Borrow<Formula>]) -> Result<Self, DatalogError> {
        let mut prog = Program::new();
        for s in sentences {
            let s = s.borrow();
            match read_clause(s)? {
                Clause::Fact(a) => prog.fact(&a),
                Clause::Rule { head, body } => {
                    let body = body.into_iter().map(|l| l.positive.then_some(l.atom));
                    let body = body
                        .collect::<Option<_>>()
                        .ok_or_else(|| DatalogError::NotARule(s.to_string()))?;
                    prog.rules.push(Rule { head, body });
                }
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

/// A body literal of a Prolog-like clause: an atom or its negation.
pub(crate) struct Literal {
    pub(crate) atom: Atom,
    /// `false` for `~atom`.
    pub(crate) positive: bool,
}

/// One sentence read as a Prolog-like clause.
pub(crate) enum Clause {
    /// A ground atomic sentence.
    Fact(Atom),
    /// `∀x̄ (l₁ ∧ … ∧ lₙ ⊃ head)`, literals in written order; a bare atom
    /// under `∀x̄` (`forall x. p(a)`) is a clause with an empty body.
    Rule { head: Atom, body: Vec<Literal> },
}

/// Read a sentence as a safe Prolog-like clause: a ground atom, or
/// `∀x̄ (l₁ ∧ … ∧ lₙ ⊃ atom)` with each `lᵢ` an atom or a negated atom,
/// where every variable of the head and of a negated literal occurs in a
/// positive one. The one reader behind both [`Program::from_sentences`]
/// and [`completion`](crate::completion()).
pub(crate) fn read_clause(s: &Formula) -> Result<Clause, DatalogError> {
    if let Formula::Atom(a) = s {
        if a.is_ground() {
            return Ok(Clause::Fact(a.clone()));
        }
    }
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
    let mut lits = Vec::new();
    if body.is_some_and(|b| !collect_literals(b, &mut lits)) {
        return Err(DatalogError::NotARule(s.to_string()));
    }
    let bound: BTreeSet<Var> = lits
        .iter()
        .filter(|l| l.positive)
        .flat_map(|l| l.atom.vars())
        .collect();
    let negated = lits.iter().filter(|l| !l.positive);
    let mut needs = head
        .vars()
        .into_iter()
        .chain(negated.flat_map(|l| l.atom.vars()));
    if needs.any(|v| !bound.contains(&v)) {
        return Err(DatalogError::Unsafe(s.to_string()));
    }
    Ok(Clause::Rule {
        head: head.clone(),
        body: lits,
    })
}

fn collect_literals(w: &Formula, out: &mut Vec<Literal>) -> bool {
    let (atom, positive) = match w {
        Formula::And(a, b) => return collect_literals(a, out) && collect_literals(b, out),
        Formula::Atom(a) => (a, true),
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Atom(a) => (a, false),
            _ => return false,
        },
        _ => return false,
    };
    out.push(Literal {
        atom: atom.clone(),
        positive,
    });
    true
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
