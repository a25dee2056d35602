//! Clark's completion `Comp(DB)` (Clark 1978), as FOPCE sentences.
//!
//! Definitions 3.3 and 3.4 of the paper state integrity-constraint
//! satisfaction for closed Prolog-like databases in terms of the
//! completion: `DB satisfies IC iff Comp(DB) + IC is satisfiable`
//! (consistency reading) or `Comp(DB) ⊨ IC` (entailment reading). The
//! completion turns each predicate's rules into a biconditional definition
//! and is only defined for Prolog-like databases — which is exactly the
//! paper's complaint: it "would not apply, for example, to databases with
//! existentially quantified or disjunctive information".
//!
//! A Prolog-like clause may negate body literals, which a Datalog
//! [`Program`](epilog_datalog::Program) refuses, so the completion reads
//! the database's sentences itself.

use epilog_storage::Database;
use epilog_syntax::formula::{Atom, Formula};
use epilog_syntax::{Param, Pred, Term, Var};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};

/// Compute the Clark completion of a Prolog-like database, given as its
/// sentences: one biconditional per predicate (with an all-negative
/// closure sentence for predicates that have no defining rules or facts),
/// using equality to tie head arguments to rule instances. A predicate's
/// disjuncts list its facts first, in storage order, then its clauses in
/// the order written. `None` when some sentence is not a safe Prolog-like
/// clause — a ground atom or `∀x̄ (l₁ ∧ … ∧ lₙ ⊃ atom)` over literals.
pub fn completion(sentences: &[impl Borrow<Formula>]) -> Option<Vec<Formula>> {
    let mut facts = Database::new();
    let mut rules: Vec<(Atom, Vec<Literal>)> = Vec::new();
    for s in sentences {
        match read_clause(s.borrow())? {
            Clause::Fact(a) => {
                facts.insert(&a);
            }
            Clause::Rule { head, body } => rules.push((head, body)),
        }
    }
    let mut preds: BTreeSet<Pred> = facts.preds().into_iter().collect();
    for (head, body) in &rules {
        preds.insert(head.pred);
        preds.extend(body.iter().map(|l| l.atom.pred));
    }
    let completed = preds
        .into_iter()
        .map(|p| pred_completion(&facts, &rules, p));
    Some(completed.collect())
}

fn pred_completion(facts: &Database, rules: &[(Atom, Vec<Literal>)], pred: Pred) -> Formula {
    let arity = pred.arity();
    let head_vars: Vec<Var> = (0..arity).map(|i| Var::new(&format!("x{i}"))).collect();
    let head_atom = Formula::atom(
        &pred.name(),
        head_vars.iter().map(|v| Term::Var(*v)).collect(),
    );

    let mut disjuncts: Vec<Formula> = Vec::new();

    // Facts contribute `x̄ = c̄` disjuncts.
    if let Some(rel) = facts.relation(pred) {
        for tuple in rel.iter() {
            disjuncts.push(tuple_equalities(&head_vars, tuple));
        }
    }

    // Rules with this head contribute `∃ȳ (x̄ = t̄ ∧ body)`.
    for (head, body) in rules.iter().filter(|(h, _)| h.pred == pred) {
        // Rename rule variables that collide with the fresh head variables.
        let (head, body) = rename_away_from(head, body, &head_vars);
        let mut conjuncts: Vec<Formula> = Vec::new();
        for (hv, t) in head_vars.iter().zip(&head.terms) {
            conjuncts.push(Formula::Eq(Term::Var(*hv), *t));
        }
        for lit in &body {
            let a = Formula::Atom(lit.atom.clone());
            conjuncts.push(if lit.positive { a } else { Formula::not(a) });
        }
        let mut w = Formula::and_all(conjuncts).expect("head equalities are nonempty");
        // Existentially close the rule's own variables.
        let mut rule_vars: Vec<Var> = Vec::new();
        for a in std::iter::once(&head).chain(body.iter().map(|l| &l.atom)) {
            for v in a.vars() {
                if !rule_vars.contains(&v) && !head_vars.contains(&v) {
                    rule_vars.push(v);
                }
            }
        }
        for v in rule_vars.into_iter().rev() {
            w = Formula::exists(v, w);
        }
        disjuncts.push(w);
    }

    let body = Formula::or_all(disjuncts);
    let mut w = match body {
        Some(b) => Formula::iff(head_atom, b),
        // No facts and no rules: the predicate is everywhere false.
        None => Formula::not(head_atom),
    };
    for v in head_vars.into_iter().rev() {
        w = Formula::forall(v, w);
    }
    w
}

/// Rename any clause variable that collides with a head variable to a
/// fresh variable, so the completion's quantifiers cannot capture.
fn rename_away_from(head: &Atom, body: &[Literal], head_vars: &[Var]) -> (Atom, Vec<Literal>) {
    let mut ren: HashMap<Var, Term> = HashMap::new();
    for a in std::iter::once(head).chain(body.iter().map(|l| &l.atom)) {
        for v in a.vars() {
            if head_vars.contains(&v) && !ren.contains_key(&v) {
                ren.insert(v, Term::Var(Var::fresh(&v.name())));
            }
        }
    }
    let body = body.iter().map(|l| Literal {
        atom: l.atom.subst(&ren),
        positive: l.positive,
    });
    (head.subst(&ren), body.collect())
}

fn tuple_equalities(head_vars: &[Var], tuple: &[Param]) -> Formula {
    let eqs: Vec<Formula> = head_vars
        .iter()
        .zip(tuple)
        .map(|(v, p)| Formula::Eq(Term::Var(*v), Term::Param(*p)))
        .collect();
    Formula::and_all(eqs).unwrap_or_else(|| {
        // A 0-ary predicate's fact completes to "true"; represent it as the
        // reflexive equality of an arbitrary parameter.
        let c = Param::new("c0");
        Formula::eq(c, c)
    })
}

/// A body literal of a Prolog-like clause: an atom or its negation.
struct Literal {
    atom: Atom,
    /// `false` for `~atom`.
    positive: bool,
}

/// One sentence read as a Prolog-like clause.
enum Clause {
    /// A ground atomic sentence.
    Fact(Atom),
    /// `∀x̄ (l₁ ∧ … ∧ lₙ ⊃ head)`, literals in written order; a bare atom
    /// under `∀x̄` (`forall x. p(a)`) is a clause with an empty body.
    Rule { head: Atom, body: Vec<Literal> },
}

/// Read a sentence as a safe Prolog-like clause: a ground atom, or
/// `∀x̄ (l₁ ∧ … ∧ lₙ ⊃ atom)` with each `lᵢ` an atom or a negated atom,
/// where every variable of the head and of a negated literal occurs in a
/// positive one.
fn read_clause(s: &Formula) -> Option<Clause> {
    if let Formula::Atom(a) = s {
        if a.is_ground() {
            return Some(Clause::Fact(a.clone()));
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
        return None;
    };
    let mut lits = Vec::new();
    if body.is_some_and(|b| !collect_literals(b, &mut lits)) {
        return None;
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
        return None;
    }
    Some(Clause::Rule {
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
    use epilog_syntax::{parse, parse_theory, Theory};

    /// The completion of the sentences of `src`, printed.
    fn comp(src: &str) -> Option<Vec<String>> {
        let completed = completion(&parse_theory(src).unwrap())?;
        Some(completed.iter().map(|w| w.to_string()).collect())
    }

    #[test]
    fn completion_shape_facts_only() {
        let comp = comp("p(a)\np(b)").unwrap();
        assert_eq!(comp.len(), 1);
        assert_eq!(comp[0], "forall x0. p(x0) <-> x0 = a | x0 = b");
    }

    #[test]
    fn completion_shape_with_rule() {
        let comp = comp("e(a, b)\nforall x, y. e(x, y) -> t(x, y)").unwrap();
        let t_def = comp
            .iter()
            .find(|w| w.starts_with("forall x0. forall x1. t"))
            .expect("t must have a completion");
        assert_eq!(
            t_def,
            "forall x0. forall x1. t(x0, x1) <-> (exists x. exists y. x0 = x & x1 = y & e(x, y))"
        );
    }

    /// What decides whether the completion applies, and how a sentence is
    /// read: an unsafe clause has none, a vacuously quantified ground atom
    /// is a body-less clause (its disjunct follows the facts'), and a
    /// negated body literal is a Prolog-like clause even though it is not
    /// a definite program.
    #[test]
    fn completion_applies_to_safe_prolog_like_clauses_only() {
        let cases: [(&str, Option<&[&str]>); 7] = [
            ("forall x. ~q(x) -> p(x)", None),
            ("p(a) | p(b)", None),
            ("forall x. p(x) -> q(x) & r(x)", None),
            ("forall x, y. e(x, y) & x = y -> p(x)", None),
            (
                "forall x. p(a)\np(a)",
                Some(&["forall x0. p(x0) <-> x0 = a | x0 = a"]),
            ),
            (
                "p(a)\nforall x. p(x) & ~q(x) -> r(x)",
                Some(&[
                    "forall x0. p(x0) <-> x0 = a",
                    "forall x0. ~q(x0)",
                    "forall x0. r(x0) <-> (exists x. x0 = x & p(x) & ~q(x))",
                ]),
            ),
            ("p(a)\np(a)", Some(&["forall x0. p(x0) <-> x0 = a"])),
        ];
        for (src, expected) in cases {
            let got = comp(src);
            let Some(expected) = expected else {
                assert_eq!(got, None, "{src}");
                continue;
            };
            // Predicates come in interning order, which other tests move.
            let mut got = got.unwrap_or_else(|| panic!("no completion of {src}"));
            got.sort();
            let mut expected: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
            expected.sort();
            assert_eq!(got, expected, "{src}");
        }
    }

    #[test]
    fn undefined_predicate_everywhere_false() {
        let comp = comp("p(a)\nforall x. q(x) -> p(x)").unwrap();
        assert!(
            comp.iter().any(|w| w == "forall x0. ~q(x0)"),
            "q has no rules or facts, so its completion closes it off: {comp:?}"
        );
    }

    fn prover(src: &str) -> epilog_prover::Prover {
        let completed = completion(&parse_theory(src).unwrap()).unwrap();
        epilog_prover::Prover::new(Theory::new(completed).unwrap())
    }

    #[test]
    fn completion_entails_negative_facts() {
        // Comp({p(a)}) ⊨ ¬p(b): the closed-world consequence the paper's
        // Definitions 3.3/3.4 rely on.
        let prover = prover("p(a)");
        assert!(prover.entails(&parse("p(a)").unwrap()));
        assert!(prover.entails(&parse("~p(b)").unwrap()));
    }

    #[test]
    fn completion_with_negation() {
        let prover = prover(
            "p(a)
             q(b)
             forall x. p(x) & ~q(x) -> r(x)",
        );
        assert!(prover.entails(&parse("r(a)").unwrap()));
        assert!(prover.entails(&parse("~r(b)").unwrap()));
    }

    #[test]
    fn completion_sentences_are_valid_theory() {
        let sentences = parse_theory(
            "e(a, b)
             e(b, c)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
        )
        .unwrap();
        // All completion formulas are FOPCE sentences.
        let t = Theory::new(completion(&sentences).unwrap());
        assert!(t.is_ok());
    }
}
