//! # epilog-prover — a theorem prover for FOPCE
//!
//! The paper's `demo` evaluator (§5.1) is parameterized by a first-order
//! theorem prover `prove(f, Σ)` that *enumerates* all parameter tuples `p̄`
//! with `Σ ⊨_FOPCE f|p̄`. Reiter leaves the design of such a prover "an open
//! (but arguably straightforward) problem" because FOPCE is nonstandard:
//! its parameters are pairwise distinct (unique names) and jointly exhaust
//! the domain of discourse (domain closure over a countably infinite set).
//!
//! This crate supplies that prover:
//!
//! * [`ground`] instantiates FOPCE sentences over a finite universe —
//!   the active domain extended with fresh *witness* parameters — mapping
//!   ground atoms to propositional variables and deciding equality atoms
//!   immediately (parameters are rigid and pairwise distinct);
//! * [`entail`] reduces `Σ ⊨ f` to UNSAT of the grounding of `Σ ∧ ¬f`,
//!   decided by the CDCL solver of `epilog-sat`;
//! * [`answers`] implements the enumeration interface `prove(f, Σ)`
//!   needed by `demo`: a resumable, deterministic stream of answer tuples;
//! * [`canonical`] builds the canonical model `S(Σ)` of Lemma 6.2 for
//!   elementary theories (every elementary theory has a model mentioning
//!   only its own parameters), used to validate the finiteness machinery of
//!   §6.
//!
//! ## Exactness boundary
//!
//! Grounding over a finite universe is **sound**: if the grounding of
//! `Σ ∧ ¬f` is unsatisfiable then `Σ ⊨ f` (any FOPCE counter-world
//! restricts to a model of the grounding). For the converse direction the
//! universe must contain enough witnesses for the existential quantifiers:
//!
//! * existentials *not* nested under a universal quantifier are Skolem
//!   constants — one fresh witness each makes the reduction **exact**
//!   (this is the Bernays–Schönfinkel/EPR argument, adapted to FOPCE's
//!   unique-names semantics);
//! * existentials under universals (rule heads `∀x̄ (A ⊃ ∃ȳ B)`) may in
//!   principle require unboundedly many witnesses; we allocate
//!   [`UniversePolicy::witness_cap`] of them (default: the number of
//!   existential nodes, clamped to a small cap) and document that theories
//!   which force infinite models (e.g. an irreflexive transitive successor
//!   rule) can make the prover report `Σ ⊨ f` when a genuinely infinite
//!   counter-world exists. Every experiment in EXPERIMENTS.md stays inside
//!   the exact fragment.

pub mod answers;
pub mod canonical;
pub mod entail;
pub mod ground;
#[cfg(test)]
mod testgen;

pub use answers::AnswerIter;
pub use canonical::canonical_model;
pub use entail::{Prover, UniversePolicy};
pub use ground::{GroundContext, Grounding};
