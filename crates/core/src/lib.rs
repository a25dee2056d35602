//! # epilog-core — the epistemic query engine of Reiter's
//! *"What Should a Database Know?"*
//!
//! A database `Σ` is a set of FOPCE sentences (truths about the world);
//! queries and integrity constraints are KFOPCE formulas (which may also
//! address what the database *knows*). This crate implements the paper's
//! machinery end to end:
//!
//! * [`mod@demo`] — the Prolog-style meta-evaluator of §5.1, sound for
//!   *admissible* queries (Theorem 5.1), with negation-as-failure, lazy
//!   backtracking, and the all-answers iteration of §6.1.1;
//! * [`mod@ask`] — a Levesque-style reduction of arbitrary KFOPCE queries to
//!   first-order entailment (the comparison point the paper cites in
//!   §5.1), giving three-valued [`Answer`]s (Definition 2.1);
//! * [`mod@engine`] — routing through the bottom-up Datalog engine: when
//!   the database is a definite program, its least model (computed by the
//!   compiled semi-naive fixpoint) answers every ground-atom entailment
//!   question without SAT — accelerating `demo`, `ask` and the constraint
//!   checks alike;
//! * [`mvcc`] — snapshot publication for concurrent serving: immutable
//!   [`CommittedState`]s behind an atomically swappable [`StateCell`],
//!   so readers query a pinned state while the single writer prepares
//!   the next one;
//! * [`mod@transaction`] — the update surface: batched [`Transaction`]s
//!   applied atomically, with the attached least model maintained
//!   incrementally and each constraint checked only on what the exact
//!   model diff can have violated ([`mod@incremental`] — the §8
//!   incremental-integrity discussion made executable, one violation
//!   compiled per constraint at registration into `demo`'s steps);
//! * [`EpistemicDb`] — the facade tying the pieces together.
//!
//! The paper's definitions this engine is proved against — the five
//! readings of integrity-constraint satisfaction (Definitions 3.1–3.5),
//! §4's optimisation, §6's instances and canonical model, §7's closure —
//! live in `epilog-semantics`, which depends on this crate; nothing here
//! depends on it.

pub mod answer;
pub mod ask;
pub mod db;
pub mod demo;
pub mod engine;
pub mod incremental;
pub mod mvcc;
pub mod transaction;

pub use answer::Answer;
pub use ask::ask;
pub use db::{DbError, EpistemicDb, Rejection};
pub use demo::{all_answers, demo, demo_sentence, DemoOutcome, DemoStream};
pub use engine::{definite_model, definite_program, prover_for};
pub use epilog_datalog::ProofTree;
pub use incremental::{CheckStats, CompiledConstraint};
pub use mvcc::{CommittedState, ReadHandle, StateCell};
pub use transaction::{CommitReport, ModelUpdate, PreparedCommit, Transaction};
