//! Literals, CNF clause databases, and the Tseitin transform.

use std::fmt;

/// A propositional literal: variable index + sign, packed in a `u32`.
///
/// Variable `v`'s positive literal is `2v`, its negative literal `2v + 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of variable `v`.
    pub fn pos(v: u32) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of variable `v`.
    pub fn neg(v: u32) -> Lit {
        Lit((v << 1) | 1)
    }

    /// The underlying variable index.
    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    /// Whether this is a positive literal.
    pub(crate) fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index for watch lists.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "~x{}", self.var())
        }
    }
}

/// A CNF formula under construction: a variable counter plus clauses.
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// An empty (trivially satisfiable) CNF.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Allocate a fresh variable, returning its index.
    pub(crate) fn new_var(&mut self) -> u32 {
        let v = self.num_vars;
        self.num_vars += 1;
        v
    }

    /// Ensure at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: u32) {
        self.num_vars = self.num_vars.max(n);
    }

    /// The number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The clauses added so far.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Add a clause (a disjunction of literals). The empty clause makes the
    /// formula unsatisfiable. Duplicate literals are deduplicated;
    /// tautological clauses (containing `l` and `¬l`) are dropped.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        for w in c.windows(2) {
            if w[0].var() == w[1].var() {
                return; // tautology: both polarities present
            }
        }
        for l in &c {
            assert!(l.var() < self.num_vars, "literal uses unallocated variable");
        }
        self.clauses.push(c);
    }

    /// Add a unit clause.
    pub fn add_unit(&mut self, l: Lit) {
        self.add_clause(&[l]);
    }
}

/// An arbitrary propositional formula, for Tseitin encoding.
///
/// The grounder in `epilog-prover` lowers ground FOPCE sentences to this
/// shape (equalities between parameters become the constants `True`/
/// `False` since parameters are semantically pairwise distinct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prop {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A propositional variable.
    Var(u32),
    /// Negation.
    Not(Box<Prop>),
    /// N-ary conjunction (empty = true).
    And(Vec<Prop>),
    /// N-ary disjunction (empty = false).
    Or(Vec<Prop>),
}

impl Prop {
    /// Negation, with trivial simplification.
    #[must_use]
    pub fn negate(self) -> Prop {
        match self {
            Prop::True => Prop::False,
            Prop::False => Prop::True,
            Prop::Not(p) => *p,
            p => Prop::Not(Box::new(p)),
        }
    }

    /// Conjunction with constant folding.
    pub fn and_all(ps: Vec<Prop>) -> Prop {
        let mut out = Vec::with_capacity(ps.len());
        for p in ps {
            match p {
                Prop::True => {}
                Prop::False => return Prop::False,
                Prop::And(inner) => out.extend(inner),
                p => out.push(p),
            }
        }
        match out.len() {
            0 => Prop::True,
            1 => out.pop().expect("len checked"),
            _ => Prop::And(out),
        }
    }

    /// Disjunction with constant folding.
    pub fn or_all(ps: Vec<Prop>) -> Prop {
        let mut out = Vec::with_capacity(ps.len());
        for p in ps {
            match p {
                Prop::False => {}
                Prop::True => return Prop::True,
                Prop::Or(inner) => out.extend(inner),
                p => out.push(p),
            }
        }
        match out.len() {
            0 => Prop::False,
            1 => out.pop().expect("len checked"),
            _ => Prop::Or(out),
        }
    }

    /// Evaluate with `value` giving each variable's truth value.
    pub fn eval_with(&self, value: &impl Fn(u32) -> bool) -> bool {
        match self {
            Prop::True => true,
            Prop::False => false,
            Prop::Var(v) => value(*v),
            Prop::Not(p) => !p.eval_with(value),
            Prop::And(ps) => ps.iter().all(|p| p.eval_with(value)),
            Prop::Or(ps) => ps.iter().any(|p| p.eval_with(value)),
        }
    }
}

/// Tseitin-encode `p` into `cnf`, returning a literal equivalent to `p`.
///
/// The encoding is polarity-blind (full biconditional definitions), linear
/// in the formula size, and equisatisfiable: `cnf ∧ returned-literal` is
/// satisfiable iff `p` is (relative to the previously added clauses).
///
/// Callers typically finish with `cnf.add_unit(lit)`.
pub fn tseitin(p: &Prop, cnf: &mut Cnf) -> Lit {
    match p {
        Prop::True => {
            let v = cnf.new_var();
            cnf.add_unit(Lit::pos(v));
            Lit::pos(v)
        }
        Prop::False => {
            let v = cnf.new_var();
            cnf.add_unit(Lit::neg(v));
            Lit::pos(v)
        }
        Prop::Var(v) => {
            cnf.reserve_vars(v + 1);
            Lit::pos(*v)
        }
        Prop::Not(inner) => tseitin(inner, cnf).negate(),
        Prop::And(ps) => {
            let lits: Vec<Lit> = ps.iter().map(|q| tseitin(q, cnf)).collect();
            let out = Lit::pos(cnf.new_var());
            // out → each lᵢ ;  (∧ lᵢ) → out
            for l in &lits {
                cnf.add_clause(&[out.negate(), *l]);
            }
            let mut big: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
            big.push(out);
            cnf.add_clause(&big);
            out
        }
        Prop::Or(ps) => {
            let lits: Vec<Lit> = ps.iter().map(|q| tseitin(q, cnf)).collect();
            let out = Lit::pos(cnf.new_var());
            // lᵢ → out ;  out → (∨ lᵢ)
            for l in &lits {
                cnf.add_clause(&[l.negate(), out]);
            }
            let mut big = lits;
            big.push(out.negate());
            cnf.add_clause(&big);
            out
        }
    }
}

/// Add `p` to `cnf` as a constraint: afterwards `cnf` is satisfiable iff
/// it was together with `p`. Same models over the variables of `p` as
/// `tseitin` followed by a unit on its root, but the top of the formula
/// needs no definitions: a conjunction constrains conjunct by conjunct, a
/// disjunction is one clause over its disjuncts' roots.
pub fn constrain(p: &Prop, cnf: &mut Cnf) {
    match p {
        Prop::And(ps) => ps.iter().for_each(|q| constrain(q, cnf)),
        Prop::Or(ps) => {
            let lits: Vec<Lit> = ps.iter().map(|q| tseitin(q, cnf)).collect();
            cnf.add_clause(&lits);
        }
        other => {
            let root = tseitin(other, cnf);
            cnf.add_unit(root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::tests::certify;
    use crate::solver::{SatResult, Solver};

    impl Prop {
        /// Evaluate under a total assignment (indexed by variable).
        fn eval(&self, assignment: &[bool]) -> bool {
            self.eval_with(&|v| assignment[v as usize])
        }
    }

    #[test]
    fn literal_packing() {
        let l = Lit::pos(7);
        assert_eq!(l.var(), 7);
        assert!(l.is_pos());
        assert_eq!(l.negate().var(), 7);
        assert!(!l.negate().is_pos());
        assert_eq!(l.negate().negate(), l);
    }

    #[test]
    fn tautological_clauses_dropped() {
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        cnf.add_clause(&[Lit::pos(v), Lit::neg(v)]);
        assert!(cnf.clauses().is_empty());
    }

    #[test]
    fn duplicate_literals_dedup() {
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        cnf.add_clause(&[Lit::pos(v), Lit::pos(v)]);
        assert_eq!(cnf.clauses()[0].len(), 1);
    }

    #[test]
    fn prop_folding() {
        assert_eq!(Prop::and_all(vec![Prop::True, Prop::True]), Prop::True);
        assert_eq!(Prop::and_all(vec![Prop::Var(0), Prop::False]), Prop::False);
        assert_eq!(Prop::or_all(vec![]), Prop::False);
        assert_eq!(Prop::or_all(vec![Prop::Var(1)]), Prop::Var(1));
        assert_eq!(Prop::True.negate(), Prop::False);
        assert_eq!(Prop::Var(0).negate().negate(), Prop::Var(0));
    }

    #[test]
    fn tseitin_equisatisfiable() {
        // (x0 ∨ x1) ∧ ¬x0  — satisfiable with x1 = true.
        let p = Prop::and_all(vec![
            Prop::or_all(vec![Prop::Var(0), Prop::Var(1)]),
            Prop::Var(0).negate(),
        ]);
        let mut cnf = Cnf::new();
        cnf.reserve_vars(2);
        let root = tseitin(&p, &mut cnf);
        cnf.add_unit(root);
        match certify(&mut Solver::new(&cnf), &[]) {
            SatResult::Sat(m) => {
                assert!(!m[0] && m[1]);
                assert!(p.eval(&m));
            }
            SatResult::Unsat => panic!("should be satisfiable"),
        }
    }

    #[test]
    fn constraining_needs_no_definitions_at_the_top() {
        // x0 ∧ (x1 ∨ ¬x2) ∧ ¬(x1 ∧ x3): a unit, a clause, and one
        // definition for the conjunction under the negation.
        let p = Prop::and_all(vec![
            Prop::Var(0),
            Prop::or_all(vec![Prop::Var(1), Prop::Var(2).negate()]),
            Prop::and_all(vec![Prop::Var(1), Prop::Var(3)]).negate(),
        ]);
        let mut direct = Cnf::new();
        direct.reserve_vars(4);
        constrain(&p, &mut direct);
        assert_eq!(direct.num_vars(), 5);
        assert_eq!(direct.clauses().len(), 2 + 3 + 1);
        // Same projected models as the encoding with a root unit.
        let mut rooted = Cnf::new();
        rooted.reserve_vars(4);
        let root = tseitin(&p, &mut rooted);
        rooted.add_unit(root);
        let models = |cnf: &Cnf| {
            let (mut found, complete) = Solver::enumerate(cnf, 4, 32);
            assert!(complete);
            found.sort();
            found
        };
        assert_eq!(models(&direct), models(&rooted));
        assert!(models(&direct).iter().all(|m| p.eval(m)));
        assert_eq!(models(&direct).len(), 4);
    }

    #[test]
    fn tseitin_contradiction_unsat() {
        let p = Prop::and_all(vec![Prop::Var(0), Prop::Var(0).negate()]);
        let mut cnf = Cnf::new();
        cnf.reserve_vars(1);
        let root = tseitin(&p, &mut cnf);
        cnf.add_unit(root);
        assert_eq!(certify(&mut Solver::new(&cnf), &[]), SatResult::Unsat);
    }
}
