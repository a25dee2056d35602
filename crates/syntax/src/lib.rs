//! # epilog-syntax — the languages FOPCE and KFOPCE
//!
//! This crate implements the syntax of Levesque's logics **FOPCE**
//! (First-Order Predicate Calculus with Equality, over *parameters*) and
//! **KFOPCE** (FOPCE plus a single epistemic modal operator `K`), exactly as
//! used by Reiter in *"What Should a Database Know?"* (J. Logic Programming
//! 14:127–153, 1992).
//!
//! The language has:
//!
//! * **predicate symbols** of fixed arity ([`Pred`]),
//! * a countably infinite set of **variables** ([`Var`]),
//! * a countably infinite set of **parameters** ([`Param`]) — pairwise
//!   distinct constants that jointly form the single universal domain of
//!   discourse (there are no function symbols in this fragment; see the
//!   paper's footnote 1),
//! * equality `t₁ = t₂`, the connectives `¬ ∧ ∨ ⊃ ≡`, the quantifiers
//!   `∀ ∃`, and the modal operator `K` ("the database knows").
//!
//! Besides the AST ([`Formula`]) the crate provides:
//!
//! * a parser ([`parse()`](parse::parse)) and precedence-aware pretty-printer,
//! * substitution and free-variable machinery,
//! * the syntactic classes the engine decides with: *first-order*,
//!   *modal*, *subjective* (Def. 5.2), *safe* (Def. 5.1), *admissible*
//!   (Def. 5.3) — see [`classify`],
//! * the transforms the engine applies: abbreviation expansion, negation
//!   normal form, and the admissible rewriting of integrity constraints of
//!   Example 5.4 — see [`transform`].
//!
//! The classes and maps that only state the paper's results — K₁, normal
//! queries, elementary theories and their rules, disjunctive linkage,
//! almost admissibility, `ℛ(w)`, `σ̂`, K45 flattening — are defined in
//! `epilog-semantics`.

pub mod classify;
pub mod formula;
pub mod parse;
pub mod symbols;
pub mod term;
pub mod theory;
pub mod transform;

pub use classify::{
    admissibility, is_admissible, is_first_order, is_safe, is_subjective, Admissibility,
    UnsafeReason,
};
pub use formula::{Atom, Formula, MAX_NESTING};
pub use parse::{parse, parse_theory, ParseError};
pub use symbols::{FoldHasher, FoldState, Param, Pred, Var};
pub use term::Term;
pub use theory::Theory;
pub use transform::{admissible_constraint, nnf};
