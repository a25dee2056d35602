//! Datalog programs: rules with (possibly negated) body literals over an
//! extensional database.

use epilog_storage::Database;
use epilog_syntax::formula::{Atom, Formula};
use epilog_syntax::{Pred, Var};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A body literal: an atom with a polarity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Literal {
    /// The atom.
    pub atom: Atom,
    /// `true` for a positive occurrence, `false` for `not atom`.
    pub positive: bool,
}

/// A Datalog rule `head ← body`. Facts are rules with empty bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body literals, evaluated left to right.
    pub body: Vec<Literal>,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " <- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                if !l.positive {
                    write!(f, "~")?;
                }
                write!(f, "{}", l.atom)?;
            }
        }
        Ok(())
    }
}

/// Why a formula or program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// A sentence does not have the shape `∀x̄ (literals ⊃ atom)` or a
    /// ground atom.
    NotARule(String),
    /// A head or negated-body variable does not occur in a positive body
    /// literal (the Datalog safety condition).
    Unsafe(String),
    /// Negation occurs in a recursive cycle — the program is not
    /// stratifiable and has no perfect model.
    NotStratifiable(String),
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::NotARule(s) => write!(f, "`{s}` is not a Datalog rule"),
            DatalogError::Unsafe(s) => write!(f, "rule `{s}` is unsafe"),
            DatalogError::NotStratifiable(p) => {
                write!(f, "negation through recursion on predicate `{p}`")
            }
        }
    }
}

impl std::error::Error for DatalogError {}

/// A Datalog program: rules plus an extensional database (EDB).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The rules (facts included as body-less rules).
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

    /// Add a rule after checking Datalog safety: every head variable and
    /// every variable of a negated literal must occur in some positive body
    /// literal.
    pub fn rule(&mut self, rule: Rule) -> Result<(), DatalogError> {
        let positive_vars: BTreeSet<Var> = rule
            .body
            .iter()
            .filter(|l| l.positive)
            .flat_map(|l| l.atom.vars())
            .collect();
        let needs: Vec<Var> = rule
            .head
            .vars()
            .into_iter()
            .chain(
                rule.body
                    .iter()
                    .filter(|l| !l.positive)
                    .flat_map(|l| l.atom.vars()),
            )
            .collect();
        for v in needs {
            if !positive_vars.contains(&v) {
                return Err(DatalogError::Unsafe(rule.to_string()));
            }
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Build a program from FOPCE sentences of the restricted shapes:
    /// ground atoms (facts) and `∀x̄ (l₁ ∧ … ∧ lₙ ⊃ atom)` where each `lᵢ`
    /// is an atom or negated atom. Takes owned formulas or the shared
    /// pointers a `Theory` hands out.
    pub fn from_sentences(sentences: &[impl Borrow<Formula>]) -> Result<Self, DatalogError> {
        let mut prog = Program::new();
        for s in sentences {
            let s = s.borrow();
            match s {
                Formula::Atom(a) if a.is_ground() => prog.fact(a),
                _ => {
                    let rule =
                        as_datalog_rule(s).ok_or_else(|| DatalogError::NotARule(s.to_string()))?;
                    prog.rule(rule)?;
                }
            }
        }
        Ok(prog)
    }

    /// Every predicate mentioned anywhere (heads, bodies, EDB).
    pub fn preds(&self) -> BTreeSet<Pred> {
        let mut out: BTreeSet<Pred> = self.edb.preds().into_iter().collect();
        for r in &self.rules {
            out.insert(r.head.pred);
            for l in &r.body {
                out.insert(l.atom.pred);
            }
        }
        out
    }

    /// Assign each predicate a stratum such that positive dependencies stay
    /// within or below, and negative dependencies go strictly below.
    /// Returns `Err` when negation occurs through recursion.
    pub fn stratify(&self) -> Result<BTreeMap<Pred, usize>, DatalogError> {
        let preds: Vec<Pred> = self.preds().into_iter().collect();
        let mut stratum: BTreeMap<Pred, usize> = preds.iter().map(|p| (*p, 0)).collect();
        let max_iters = preds.len().saturating_add(2) * preds.len().saturating_add(2);
        for _ in 0..max_iters {
            let mut changed = false;
            for r in &self.rules {
                let h = stratum[&r.head.pred];
                for l in &r.body {
                    let b = stratum[&l.atom.pred];
                    let need = if l.positive { b } else { b + 1 };
                    if h < need {
                        stratum.insert(r.head.pred, need);
                        changed = true;
                    }
                }
            }
            if !changed {
                // A stratum above the predicate count implies a negative
                // cycle was being chased.
                if let Some((p, _)) = stratum.iter().find(|(_, &s)| s > preds.len()) {
                    return Err(DatalogError::NotStratifiable(p.name()));
                }
                return Ok(stratum);
            }
        }
        let culprit = self
            .rules
            .iter()
            .flat_map(|r| r.body.iter())
            .find(|l| !l.positive)
            .map(|l| l.atom.pred.name())
            .unwrap_or_default();
        Err(DatalogError::NotStratifiable(culprit))
    }
}

/// Decompose `∀x̄ (conjunction of literals ⊃ atom)` into a Datalog rule.
fn as_datalog_rule(w: &Formula) -> Option<Rule> {
    let mut cur = w;
    while let Formula::Forall(_, body) = cur {
        cur = body;
    }
    let Formula::Implies(body, head) = cur else {
        // A bare (possibly non-ground) atom as a rule with empty body.
        if let Formula::Atom(a) = cur {
            return Some(Rule {
                head: a.clone(),
                body: vec![],
            });
        }
        return None;
    };
    let Formula::Atom(h) = head.as_ref() else {
        return None;
    };
    let mut lits = Vec::new();
    if !collect_literals(body, &mut lits) {
        return None;
    }
    Some(Rule {
        head: h.clone(),
        body: lits,
    })
}

fn collect_literals(w: &Formula, out: &mut Vec<Literal>) -> bool {
    match w {
        Formula::Atom(a) => {
            out.push(Literal {
                atom: a.clone(),
                positive: true,
            });
            true
        }
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Atom(a) => {
                out.push(Literal {
                    atom: a.clone(),
                    positive: false,
                });
                true
            }
            _ => false,
        },
        Formula::And(a, b) => collect_literals(a, out) && collect_literals(b, out),
        _ => false,
    }
}

/// Convenience: parse a program from formula text, one sentence per line.
impl Program {
    /// Parse using the `epilog-syntax` formula grammar: ground atoms are
    /// facts, `forall x̄. body -> head` sentences are rules.
    pub fn from_text(src: &str) -> Result<Self, String> {
        let sentences = epilog_syntax::parse_theory(src).map_err(|e| e.to_string())?;
        Program::from_sentences(&sentences).map_err(|e| e.to_string())
    }

    /// Render the rules as FOPCE sentences (ground facts included).
    pub fn sentences(&self) -> Vec<Formula> {
        let mut out: Vec<Formula> = self.edb.atoms().map(Formula::Atom).collect();
        for r in &self.rules {
            out.push(rule_sentence(r));
        }
        out
    }
}

/// The FOPCE sentence of a rule.
pub(crate) fn rule_sentence(r: &Rule) -> Formula {
    let head = Formula::Atom(r.head.clone());
    if r.body.is_empty() {
        return head;
    }
    let lits: Vec<Formula> = r
        .body
        .iter()
        .map(|l| {
            let a = Formula::Atom(l.atom.clone());
            if l.positive {
                a
            } else {
                Formula::not(a)
            }
        })
        .collect();
    let body = Formula::and_all(lits).expect("nonempty body");
    let mut w = Formula::implies(body, head);
    let mut vars: Vec<Var> = Vec::new();
    for l in &r.body {
        for v in l.atom.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    for v in vars.into_iter().rev() {
        w = Formula::forall(v, w);
    }
    w
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
    fn negated_body_literals() {
        let p = Program::from_text(
            "node(a)
             node(b)
             e(a, b)
             forall x, y. node(x) & node(y) & ~e(x, y) -> unreached(x, y)",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 1);
        assert!(!p.rules[0].body[2].positive);
    }

    #[test]
    fn safety_rejected() {
        let mut p = Program::new();
        let head = match epilog_syntax::parse("q(x, y)").unwrap() {
            Formula::Atom(a) => a,
            _ => unreachable!(),
        };
        let batom = match epilog_syntax::parse("p(x)").unwrap() {
            Formula::Atom(a) => a,
            _ => unreachable!(),
        };
        let r = Rule {
            head,
            body: vec![Literal {
                atom: batom,
                positive: true,
            }],
        };
        assert!(matches!(p.rule(r), Err(DatalogError::Unsafe(_))));
    }

    #[test]
    fn non_rule_rejected() {
        let err = Program::from_text("p(a) | q(a)").unwrap_err();
        assert!(err.contains("not a Datalog rule"));
    }

    #[test]
    fn stratification_layers() {
        let p = Program::from_text(
            "e(a, b)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y. t(x, y) & ~e(x, y) -> extra(x, y)",
        )
        .unwrap();
        let s = p.stratify().unwrap();
        let e = Pred::new("e", 2);
        let t = Pred::new("t", 2);
        let extra = Pred::new("extra", 2);
        assert!(s[&t] >= s[&e]);
        assert!(s[&extra] > s[&e]);
    }

    #[test]
    fn negation_through_recursion_rejected() {
        let p = Program::from_text(
            "p(a)
             forall x. p(x) & ~q(x) -> r(x)
             forall x. r(x) -> q(x)
             forall x. q(x) -> r(x)",
        )
        .unwrap();
        assert!(matches!(
            p.stratify(),
            Err(DatalogError::NotStratifiable(_))
        ));
    }

    #[test]
    fn rule_display() {
        let p = Program::from_text("forall x. p(x) & ~q(x) -> r(x)").unwrap();
        assert_eq!(p.rules[0].to_string(), "r(x) <- p(x), ~q(x)");
    }

    #[test]
    fn sentences_round_trip() {
        let src = "e(a, b)\nforall x, y. e(x, y) -> t(x, y)";
        let p = Program::from_text(src).unwrap();
        let rendered = p.sentences();
        let p2 = Program::from_sentences(&rendered).unwrap();
        assert_eq!(p.rules, p2.rules);
        assert_eq!(p.edb, p2.edb);
    }
}
