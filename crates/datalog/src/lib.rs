//! # epilog-datalog — a Datalog engine for definite programs
//!
//! The paper notes (§5.1) that the database `Σ` "could, for example, be a
//! Datalog program and `prove` could be realized using negation-as-failure".
//! This crate realizes that alternative backend — once, bottom-up, for
//! definite programs, whose least model holds exactly the ground atoms
//! `Σ` entails (negation as failure belongs to the query, as `¬K`). The
//! *Clark completion* `Comp(DB)` that Definitions 3.3/3.4 are stated over
//! is defined in `epilog-semantics`.
//!
//! Components:
//!
//! * [`Program`] — definite Datalog rules `h ← a₁, …, aₙ` over atoms,
//!   plus an extensional database;
//! * [`RulePlan`] — rules compiled once into slot-numbered, reordered
//!   join plans with one variant per semi-naive delta position;
//! * the least-model fixpoint — one semi-naive loop on the calling thread
//!   behind four entry points: [`Program::eval`], [`Program::fixpoint`]
//!   (which also selects the naive rounds the differential suites and the
//!   report's F6 table use as the reference),
//!   [`Program::grow`] and [`Program::shrink`] (resume the least model
//!   after additions / retractions);
//! * provenance on demand — [`Program::why`] runs one semi-naive
//!   fixpoint, notes the round each tuple first appeared in, and returns a
//!   replayable minimal-height [`ProofTree`] per atom asked about.

pub mod engine;
pub mod plan;
pub mod program;
pub mod provenance;

pub use engine::EvalStats;
pub use plan::RulePlan;
pub use program::{DatalogError, Program, Rule};
pub use provenance::ProofTree;
