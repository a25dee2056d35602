//! Terms of FOPCE/KFOPCE: variables and parameters.
//!
//! The fragment treated by the paper is function-free (footnote 1), so a
//! term is either a variable or a parameter.

use crate::symbols::{Param, Var};
use std::fmt;

/// A term: a variable or a parameter. No function symbols exist in this
/// fragment of the language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A variable occurrence.
    Var(Var),
    /// A parameter occurrence.
    Param(Param),
}

impl Term {
    /// The variable inside, if this term is a variable.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Param(_) => None,
        }
    }

    /// The parameter inside, if this term is a parameter.
    pub fn as_param(&self) -> Option<Param> {
        match self {
            Term::Param(p) => Some(*p),
            Term::Var(_) => None,
        }
    }

    /// Whether the term is ground (contains no variable), i.e. is a
    /// parameter.
    pub fn is_ground(&self) -> bool {
        matches!(self, Term::Param(_))
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Param> for Term {
    fn from(p: Param) -> Self {
        Term::Param(p)
    }
}

impl fmt::Display for Term {
    /// Prints the bare symbol name, except for a parameter whose name
    /// follows the variable-naming convention (`x`, `y1`, …): that one is
    /// escaped as `$x` so the parser reads it back as a parameter. This is
    /// the round-trip guarantee the persistence layer's textual log format
    /// rests on: `parse(w.to_string()) == w` for every sentence a database
    /// can hold (symbol names must be valid identifiers not starting with
    /// `$`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => fmt::Display::fmt(v, f),
            Term::Param(p) => p.fmt_escaped(false, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_predicates() {
        let v: Term = Var::new("x").into();
        let p: Term = Param::new("John").into();
        assert!(v.as_var().is_some());
        assert!(v.as_param().is_none());
        assert!(p.as_param().is_some());
        assert!(!v.is_ground());
        assert!(p.is_ground());
    }

    #[test]
    fn display() {
        let p: Term = Param::new("Math").into();
        assert_eq!(p.to_string(), "Math");
    }
}
