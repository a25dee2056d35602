//! The formula AST for KFOPCE (and its K-free sublanguage FOPCE).
//!
//! The paper's official language has the primitives `¬ ∧ ∀ K` plus atoms and
//! equality; `∨ ⊃ ≡ ∃` are definable. We keep the full connective set in the
//! AST because several syntactic classes of the paper (positive existential
//! formulas, rules, the safe/admissible fragments) are defined over the rich
//! surface syntax, and because pretty-printing the paper's examples requires
//! it. [`crate::transform`] provides the desugarings.

use crate::symbols::{Param, Pred, Var};
use crate::term::Term;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// The deepest a formula may nest to be parsed, stored in a theory or
/// registered as a constraint: every walk over a formula recurses once
/// per level, so this bounds the stack they use. A level is a `~`, a `K`,
/// a quantified variable, a binary connective or a parenthesis on a path
/// from the root — see [`Formula::within_nesting_bound`].
pub const MAX_NESTING: usize = 256;

/// An atomic formula `P(t₁, …, tₙ)`.
///
/// Invariant: `terms.len() == pred.arity()` (enforced by [`Atom::new`]).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Atom {
    /// The predicate symbol.
    pub pred: Pred,
    /// The argument terms, of length `pred.arity()`.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom, checking that the argument count matches the
    /// predicate's arity.
    ///
    /// # Panics
    /// Panics if `terms.len() != pred.arity()`; arity mismatches are
    /// programming errors, not data errors.
    pub fn new(pred: Pred, terms: Vec<Term>) -> Self {
        assert_eq!(
            terms.len(),
            pred.arity(),
            "arity mismatch for predicate {:?}",
            pred
        );
        Atom { pred, terms }
    }

    /// Whether every argument is a parameter. Ground atoms are the atomic
    /// *sentences* out of which worlds are built (§2).
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(Term::is_ground)
    }

    /// The variables occurring in the atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !seen.contains(v) {
                    seen.push(*v);
                }
            }
        }
        seen
    }

    /// Apply a variable→term substitution to the atom.
    pub fn subst(&self, map: &HashMap<Var, Term>) -> Atom {
        Atom {
            pred: self.pred,
            terms: self
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => map.get(v).copied().unwrap_or(*t),
                    Term::Param(_) => *t,
                })
                .collect(),
        }
    }

    /// If ground, the parameter tuple; otherwise `None`.
    pub fn param_tuple(&self) -> Option<Vec<Param>> {
        self.terms.iter().map(Term::as_param).collect()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_atom(self, &[], f)
    }
}

/// A KFOPCE formula. FOPCE formulas are exactly those containing no
/// [`Formula::Know`] node (test with [`crate::classify::is_first_order`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// An atomic formula `P(t̄)`.
    Atom(Atom),
    /// Equality `t₁ = t₂`. Parameters are semantically pairwise distinct.
    Eq(Term, Term),
    /// Negation `¬w`.
    Not(Box<Formula>),
    /// Conjunction `w₁ ∧ w₂`.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction `w₁ ∨ w₂`.
    Or(Box<Formula>, Box<Formula>),
    /// Material implication `w₁ ⊃ w₂`.
    Implies(Box<Formula>, Box<Formula>),
    /// Biconditional `w₁ ≡ w₂`.
    Iff(Box<Formula>, Box<Formula>),
    /// Universal quantification `(∀x)w`; `x` ranges over the parameters.
    Forall(Var, Box<Formula>),
    /// Existential quantification `(∃x)w`.
    Exists(Var, Box<Formula>),
    /// The epistemic operator `Kw`: "the database knows `w`".
    Know(Box<Formula>),
}

impl Formula {
    // ----- constructors ---------------------------------------------------

    /// Atom from a predicate name and terms (convenience; interns the
    /// predicate with the arity implied by `terms`).
    pub fn atom(pred: &str, terms: Vec<Term>) -> Formula {
        let n = terms.len();
        Formula::Atom(Atom::new(Pred::new(pred, n), terms))
    }

    /// A propositional atom (0-ary predicate).
    pub fn prop(name: &str) -> Formula {
        Formula::atom(name, vec![])
    }

    /// Equality `t₁ = t₂`.
    pub fn eq(a: impl Into<Term>, b: impl Into<Term>) -> Formula {
        Formula::Eq(a.into(), b.into())
    }

    /// Negation. (Deliberately shares its name with [`std::ops::Not`]:
    /// it is the constructor the combinator style `Formula::not(w)` and
    /// `prop_map(Formula::not)` read best with.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(w: Formula) -> Formula {
        Formula::Not(Box::new(w))
    }

    /// Binary conjunction.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// Binary disjunction.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// Implication.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// Biconditional.
    pub fn iff(a: Formula, b: Formula) -> Formula {
        Formula::Iff(Box::new(a), Box::new(b))
    }

    /// Universal quantification.
    pub fn forall(x: Var, w: Formula) -> Formula {
        Formula::Forall(x, Box::new(w))
    }

    /// Existential quantification.
    pub fn exists(x: Var, w: Formula) -> Formula {
        Formula::Exists(x, Box::new(w))
    }

    /// `K w`.
    pub fn know(w: Formula) -> Formula {
        Formula::Know(Box::new(w))
    }

    /// Conjunction of a sequence, in order, as a balanced tree (depth
    /// ⌈log₂ n⌉, so walks over it stay shallow however long it is);
    /// `None` on empty input.
    pub fn and_all(ws: Vec<Formula>) -> Option<Formula> {
        balanced(ws, Formula::and)
    }

    /// Disjunction of a sequence, in order, as a balanced tree (depth
    /// ⌈log₂ n⌉); `None` on empty input.
    pub fn or_all(ws: Vec<Formula>) -> Option<Formula> {
        balanced(ws, Formula::or)
    }

    // ----- structure ------------------------------------------------------

    /// Immediate subformulas.
    pub fn children(&self) -> Vec<&Formula> {
        match self {
            Formula::Atom(_) | Formula::Eq(_, _) => vec![],
            Formula::Not(w) | Formula::Know(w) | Formula::Forall(_, w) | Formula::Exists(_, w) => {
                vec![w]
            }
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Iff(a, b) => vec![a, b],
        }
    }

    /// All subformulas (including `self`), pre-order.
    pub fn subformulas(&self) -> Vec<&Formula> {
        let mut out = vec![self];
        let mut stack: Vec<&Formula> = self.children();
        while let Some(w) = stack.pop() {
            out.push(w);
            stack.extend(w.children());
        }
        out
    }

    /// Free variables, in a deterministic (sorted) order.
    pub fn free_vars(&self) -> Vec<Var> {
        fn go(w: &Formula, bound: &mut Vec<Var>, out: &mut BTreeSet<Var>) {
            match w {
                Formula::Atom(a) => {
                    for t in &a.terms {
                        if let Term::Var(v) = t {
                            if !bound.contains(v) {
                                out.insert(*v);
                            }
                        }
                    }
                }
                Formula::Eq(a, b) => {
                    for t in [a, b] {
                        if let Term::Var(v) = t {
                            if !bound.contains(v) {
                                out.insert(*v);
                            }
                        }
                    }
                }
                Formula::Not(w) | Formula::Know(w) => go(w, bound, out),
                Formula::And(a, b)
                | Formula::Or(a, b)
                | Formula::Implies(a, b)
                | Formula::Iff(a, b) => {
                    go(a, bound, out);
                    go(b, bound, out);
                }
                Formula::Forall(x, w) | Formula::Exists(x, w) => {
                    bound.push(*x);
                    go(w, bound, out);
                    bound.pop();
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out.into_iter().collect()
    }

    /// Whether the formula is a sentence (no free variables): one
    /// recursive walk whose bound variables are a list on the stack, so
    /// it allocates nothing.
    pub fn is_sentence(&self) -> bool {
        /// The variables bound above a subformula, innermost first.
        struct Bound<'a>(Var, Option<&'a Bound<'a>>);
        fn bound(v: Var, mut scope: Option<&Bound<'_>>) -> bool {
            while let Some(Bound(x, up)) = scope {
                if *x == v {
                    return true;
                }
                scope = *up;
            }
            false
        }
        fn closed(w: &Formula, scope: Option<&Bound<'_>>) -> bool {
            let term = |t: &Term| t.as_var().is_none_or(|v| bound(v, scope));
            match w {
                Formula::Atom(a) => a.terms.iter().all(term),
                Formula::Eq(a, b) => term(a) && term(b),
                Formula::Not(w) | Formula::Know(w) => closed(w, scope),
                Formula::And(a, b)
                | Formula::Or(a, b)
                | Formula::Implies(a, b)
                | Formula::Iff(a, b) => closed(a, scope) && closed(b, scope),
                Formula::Forall(x, w) | Formula::Exists(x, w) => closed(w, Some(&Bound(*x, scope))),
            }
        }
        closed(self, None)
    }

    /// Whether the formula nests within [`MAX_NESTING`] levels as
    /// [`parse`](crate::parse()) counts them reading its printed form:
    /// one per connective and quantifier on a path, and one per
    /// parenthesis the printer puts there. So whatever passes is read
    /// back. Recurses no deeper than the bound, however deep the formula.
    pub fn within_nesting_bound(&self) -> bool {
        nests_within(self, 0, MAX_NESTING)
    }

    /// Every parameter mentioned anywhere in the formula, sorted.
    pub fn params(&self) -> Vec<Param> {
        let mut out = BTreeSet::new();
        for w in self.subformulas() {
            match w {
                Formula::Atom(a) => {
                    for t in &a.terms {
                        if let Term::Param(p) = t {
                            out.insert(*p);
                        }
                    }
                }
                Formula::Eq(a, b) => {
                    for t in [a, b] {
                        if let Term::Param(p) = t {
                            out.insert(*p);
                        }
                    }
                }
                _ => {}
            }
        }
        out.into_iter().collect()
    }

    /// Every predicate mentioned anywhere in the formula, sorted.
    pub fn preds(&self) -> Vec<Pred> {
        let mut out = BTreeSet::new();
        for w in self.subformulas() {
            if let Formula::Atom(a) = w {
                out.insert(a.pred);
            }
        }
        out.into_iter().collect()
    }

    /// The variables bound by quantifiers, in pre-order of their binders
    /// (with repetition if a variable is bound twice).
    pub fn quantified_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(w) = stack.pop() {
            if let Formula::Forall(x, _) | Formula::Exists(x, _) = w {
                out.push(*x);
            }
            stack.extend(w.children());
        }
        out
    }

    // ----- substitution ---------------------------------------------------

    /// `w|ᵖₓ`: substitute terms for *free* occurrences of variables.
    ///
    /// Since the replacing terms are parameters in all of the paper's uses,
    /// no capture can occur; for generality, substituting a variable that
    /// would be captured panics (the paper's admissible formulas have
    /// distinct quantified variables, so this never triggers there).
    pub fn subst(&self, map: &HashMap<Var, Term>) -> Formula {
        match self {
            Formula::Atom(a) => Formula::Atom(a.subst(map)),
            Formula::Eq(a, b) => {
                let s = |t: &Term| match t {
                    Term::Var(v) => map.get(v).copied().unwrap_or(*t),
                    Term::Param(_) => *t,
                };
                Formula::Eq(s(a), s(b))
            }
            Formula::Not(w) => Formula::not(w.subst(map)),
            Formula::Know(w) => Formula::know(w.subst(map)),
            Formula::And(a, b) => Formula::and(a.subst(map), b.subst(map)),
            Formula::Or(a, b) => Formula::or(a.subst(map), b.subst(map)),
            Formula::Implies(a, b) => Formula::implies(a.subst(map), b.subst(map)),
            Formula::Iff(a, b) => Formula::iff(a.subst(map), b.subst(map)),
            Formula::Forall(x, w) | Formula::Exists(x, w) => {
                // Shadowing: the bound variable is untouched inside.
                let mut inner = map.clone();
                inner.remove(x);
                for t in inner.values() {
                    assert!(
                        t.as_var() != Some(*x),
                        "substitution would capture variable {x}"
                    );
                }
                let body = w.subst(&inner);
                match self {
                    Formula::Forall(..) => Formula::forall(*x, body),
                    _ => Formula::exists(*x, body),
                }
            }
        }
    }

    /// Substitute a tuple of parameters for the formula's free variables in
    /// the order returned by [`Formula::free_vars`]: the paper's `w|p̄x̄`.
    ///
    /// # Panics
    /// Panics if `params.len()` differs from the number of free variables.
    pub fn bind_free(&self, params: &[Param]) -> Formula {
        let fv = self.free_vars();
        assert_eq!(fv.len(), params.len(), "binding arity mismatch");
        let map: HashMap<Var, Term> = fv
            .into_iter()
            .zip(params.iter().map(|p| Term::Param(*p)))
            .collect();
        self.subst(&map)
    }

    /// Rename all quantified variables apart (from each other and from the
    /// free variables), producing an alpha-equivalent formula satisfying
    /// condition (2) of admissibility (Def. 5.3).
    pub fn rename_apart(&self) -> Formula {
        fn quantifier(
            is_forall: bool,
            x: &Var,
            body: &Formula,
            ren: &HashMap<Var, Var>,
            used: &mut BTreeSet<Var>,
        ) -> Formula {
            let nx = if used.contains(x) {
                Var::fresh(&x.name())
            } else {
                *x
            };
            used.insert(nx);
            let mut ren2 = ren.clone();
            ren2.insert(*x, nx);
            let body = go(body, &ren2, used);
            if is_forall {
                Formula::forall(nx, body)
            } else {
                Formula::exists(nx, body)
            }
        }
        fn go(w: &Formula, ren: &HashMap<Var, Var>, used: &mut BTreeSet<Var>) -> Formula {
            match w {
                Formula::Atom(a) => {
                    let map: HashMap<Var, Term> =
                        ren.iter().map(|(k, v)| (*k, Term::Var(*v))).collect();
                    Formula::Atom(a.subst(&map))
                }
                Formula::Eq(a, b) => {
                    let s = |t: &Term| match t {
                        Term::Var(v) => ren.get(v).map(|r| Term::Var(*r)).unwrap_or(*t),
                        Term::Param(_) => *t,
                    };
                    Formula::Eq(s(a), s(b))
                }
                Formula::Not(w) => Formula::not(go(w, ren, used)),
                Formula::Know(w) => Formula::know(go(w, ren, used)),
                Formula::And(a, b) => Formula::and(go(a, ren, used), go(b, ren, used)),
                Formula::Or(a, b) => Formula::or(go(a, ren, used), go(b, ren, used)),
                Formula::Implies(a, b) => Formula::implies(go(a, ren, used), go(b, ren, used)),
                Formula::Iff(a, b) => Formula::iff(go(a, ren, used), go(b, ren, used)),
                Formula::Forall(x, body) => quantifier(true, x, body, ren, used),
                Formula::Exists(x, body) => quantifier(false, x, body, ren, used),
            }
        }
        let mut used: BTreeSet<Var> = self.free_vars().into_iter().collect();
        go(self, &HashMap::new(), &mut used)
    }
}

/// Join neighbours pairwise, round after round, until one is left: a
/// balanced tree whose leaves read left to right as `ws` does.
fn balanced(mut ws: Vec<Formula>, join: fn(Formula, Formula) -> Formula) -> Option<Formula> {
    while ws.len() > 1 {
        let mut pairs = ws.into_iter();
        ws = std::iter::from_fn(|| {
            let a = pairs.next()?;
            Some(match pairs.next() {
                Some(b) => join(a, b),
                None => a,
            })
        })
        .collect();
    }
    ws.pop()
}

// ----- pretty printing ----------------------------------------------------

/// Whether `w`, printed under a parent of precedence `parent`, nests
/// within `room` levels. Mirrors [`fmt_prec`]: `t != u` prints without a
/// `~`, and an atom never takes parentheses.
fn nests_within(w: &Formula, parent: u8, room: usize) -> bool {
    let me = prec(w);
    let own = 1 + usize::from(me < parent);
    let within = |a: &Formula, p: u8| own <= room && nests_within(a, p, room - own);
    match w {
        Formula::Atom(_) | Formula::Eq(..) => true,
        Formula::Not(e) if matches!(**e, Formula::Eq(..)) => true,
        Formula::Not(a) | Formula::Know(a) | Formula::Forall(_, a) | Formula::Exists(_, a) => {
            within(a, me)
        }
        Formula::Implies(a, b) => within(a, me + 1) && within(b, me),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Iff(a, b) => {
            within(a, me) && within(b, me + 1)
        }
    }
}

/// Binding strength for the printer; higher binds tighter. Quantifiers get
/// the lowest strength because their scope extends maximally to the right:
/// they must be parenthesized in any non-rightmost position.
fn prec(w: &Formula) -> u8 {
    match w {
        Formula::Forall(..) | Formula::Exists(..) => 0,
        Formula::Iff(..) => 1,
        Formula::Implies(..) => 2,
        Formula::Or(..) => 3,
        Formula::And(..) => 4,
        Formula::Not(..) | Formula::Know(..) => 5,
        Formula::Atom(..) | Formula::Eq(..) => 6,
    }
}

/// Print one term with binder context: a parameter is `$`-escaped when
/// its name follows the variable convention (see [`Term`]'s `Display`)
/// **or** is shadowed by an enclosing quantifier — in either case the
/// parser would otherwise read the bare name back as a variable, breaking
/// the `parse(display(w)) == w` round-trip the persistence layer's text
/// formats rest on.
fn fmt_term(t: &Term, bound: &[Var], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match t {
        Term::Param(p) => p.fmt_escaped(bound.iter().any(|v| p.is_spelled_like(*v)), f),
        Term::Var(v) => fmt::Display::fmt(v, f),
    }
}

fn fmt_atom(a: &Atom, bound: &[Var], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    fmt::Display::fmt(&a.pred, f)?;
    if !a.terms.is_empty() {
        f.write_str("(")?;
        for (i, t) in a.terms.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            fmt_term(t, bound, f)?;
        }
        f.write_str(")")?;
    }
    Ok(())
}

fn fmt_prec(
    w: &Formula,
    parent: u8,
    bound: &mut Vec<Var>,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    let me = prec(w);
    let need = me < parent;
    if need {
        write!(f, "(")?;
    }
    match w {
        Formula::Atom(a) => fmt_atom(a, bound, f)?,
        Formula::Eq(a, b) => {
            fmt_term(a, bound, f)?;
            write!(f, " = ")?;
            fmt_term(b, bound, f)?;
        }
        Formula::Not(inner) => {
            // Print ¬(t₁ = t₂) as t₁ != t₂ for readability.
            if let Formula::Eq(a, b) = inner.as_ref() {
                fmt_term(a, bound, f)?;
                write!(f, " != ")?;
                fmt_term(b, bound, f)?;
            } else {
                write!(f, "~")?;
                fmt_prec(inner, me, bound, f)?;
            }
        }
        Formula::And(a, b) => {
            fmt_prec(a, me, bound, f)?;
            write!(f, " & ")?;
            fmt_prec(b, me + 1, bound, f)?;
        }
        Formula::Or(a, b) => {
            fmt_prec(a, me, bound, f)?;
            write!(f, " | ")?;
            fmt_prec(b, me + 1, bound, f)?;
        }
        Formula::Implies(a, b) => {
            fmt_prec(a, me + 1, bound, f)?;
            write!(f, " -> ")?;
            fmt_prec(b, me, bound, f)?;
        }
        Formula::Iff(a, b) => {
            // Left-associative, matching the parser.
            fmt_prec(a, me, bound, f)?;
            write!(f, " <-> ")?;
            fmt_prec(b, me + 1, bound, f)?;
        }
        Formula::Forall(x, body) => {
            write!(f, "forall {x}. ")?;
            bound.push(*x);
            fmt_prec(body, me, bound, f)?;
            bound.pop();
        }
        Formula::Exists(x, body) => {
            write!(f, "exists {x}. ")?;
            bound.push(*x);
            fmt_prec(body, me, bound, f)?;
            bound.pop();
        }
        Formula::Know(body) => {
            write!(f, "K ")?;
            fmt_prec(body, me, bound, f)?;
        }
    }
    if need {
        write!(f, ")")?;
    }
    Ok(())
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_prec(self, 0, &mut Vec::new(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }
    fn p(n: &str) -> Param {
        Param::new(n)
    }

    fn teach(a: impl Into<Term>, b: impl Into<Term>) -> Formula {
        Formula::atom("Teach", vec![a.into(), b.into()])
    }

    #[test]
    fn atom_arity_checked() {
        let pred = Pred::new("Teach", 2);
        let ok = Atom::new(pred, vec![p("John").into(), p("Math").into()]);
        assert!(ok.is_ground());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn atom_arity_mismatch_panics() {
        let pred = Pred::new("Teach", 2);
        let _ = Atom::new(pred, vec![p("John").into()]);
    }

    #[test]
    fn free_vars_respect_binding() {
        let x = v("x");
        let y = v("y");
        let w = Formula::exists(x, Formula::and(teach(x, y), teach(x, p("CS"))));
        assert_eq!(w.free_vars(), vec![y]);
        assert!(!w.is_sentence());
        assert!(Formula::forall(y, w.clone()).is_sentence());
    }

    #[test]
    fn subst_binds_only_free() {
        let x = v("x");
        let w = Formula::and(teach(x, p("CS")), Formula::exists(x, teach(x, p("Math"))));
        let s = w.subst(&HashMap::from([(x, Term::Param(p("John")))]));
        assert_eq!(
            s.to_string(),
            "Teach(John, CS) & (exists x. Teach(x, Math))"
        );
    }

    #[test]
    fn bind_free_in_sorted_order() {
        let x = v("ax");
        let y = v("by");
        let w = teach(y, x);
        let fv = w.free_vars();
        // sorted deterministic order
        assert_eq!(fv.len(), 2);
        let b = w.bind_free(&[p("P1"), p("P2")]);
        assert!(b.is_sentence());
    }

    #[test]
    fn params_and_preds_collected() {
        let w = Formula::and(teach(p("John"), p("Math")), Formula::prop("q"));
        assert_eq!(w.params(), vec![p("John"), p("Math")]);
        assert_eq!(w.preds().len(), 2);
    }

    #[test]
    fn rename_apart_makes_quantified_vars_distinct() {
        let x = v("x");
        // (exists x. (exists x. q(x)) & r(x))  — x bound twice (Result 5.1's
        // cautionary example shape).
        let w = Formula::exists(
            x,
            Formula::and(
                Formula::exists(x, Formula::atom("q", vec![x.into()])),
                Formula::atom("r", vec![x.into()]),
            ),
        );
        let r = w.rename_apart();
        let qv = r.quantified_vars();
        assert_eq!(qv.len(), 2);
        assert_ne!(qv[0], qv[1]);
    }

    #[test]
    fn display_precedence() {
        let a = Formula::prop("p");
        let b = Formula::prop("q");
        let c = Formula::prop("r");
        let w = Formula::or(Formula::and(a.clone(), b.clone()), c.clone());
        assert_eq!(w.to_string(), "p & q | r");
        let w2 = Formula::and(a.clone(), Formula::or(b.clone(), c.clone()));
        assert_eq!(w2.to_string(), "p & (q | r)");
        let w3 = Formula::not(Formula::and(a, b));
        assert_eq!(w3.to_string(), "~(p & q)");
    }

    #[test]
    fn display_negated_equality() {
        let w = Formula::not(Formula::eq(p("a"), p("b")));
        assert_eq!(w.to_string(), "a != b");
    }

    #[test]
    fn and_all_or_all() {
        let ws = vec![Formula::prop("p"), Formula::prop("q"), Formula::prop("r")];
        assert_eq!(
            Formula::and_all(ws.clone()).unwrap().to_string(),
            "p & q & r"
        );
        assert_eq!(Formula::or_all(ws).unwrap().to_string(), "p | q | r");
        assert!(Formula::and_all(vec![]).is_none());
        // Balanced: a thousand disjuncts nest ten deep, in order.
        let names: Vec<String> = (0..1000).map(|i| format!("p{i}")).collect();
        let w = Formula::or_all(names.iter().map(|n| Formula::prop(n)).collect()).unwrap();
        let leftmost = std::iter::successors(Some(&w), |w| w.children().first().copied());
        assert_eq!(leftmost.count(), 11);
        assert_eq!(w.to_string().replace(['(', ')'], ""), names.join(" | "));
    }

    #[test]
    fn subformulas_count() {
        let w = Formula::and(Formula::prop("p"), Formula::not(Formula::prop("q")));
        assert_eq!(w.subformulas().len(), 4);
    }
}
