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
//!   §5.1), giving three-valued [`Answer`]s;
//! * [`constraints`] — integrity constraints as epistemic sentences
//!   (Definition 3.5), alongside the four classical definitions 3.1–3.4
//!   the paper argues against;
//! * [`closure`] — `Closure(Σ)` and closed-world query evaluation: the
//!   collapse of `K` (Theorem 7.1), the equivalence of the classical
//!   definitions under CWA (Theorem 7.2), and CWA evaluation through
//!   `demo(ℛ(w), Σ)` *without computing the closure* (Theorem 7.3);
//! * [`optimize`] — query/constraint optimization licensed by
//!   Corollaries 4.1/4.2: KFOPCE-equivalence checking over bounded
//!   structures and constraint-driven conjunct elimination;
//! * [`mod@engine`] — routing through the bottom-up Datalog engine: when
//!   the database is a definite program, its least model (computed by the
//!   compiled semi-naive fixpoint) answers every ground-atom entailment
//!   question without SAT — accelerating `demo`, `ask`, `closure` and the
//!   constraint checks alike;
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

pub mod ask;
pub mod closure;
pub mod constraints;
pub mod db;
pub mod demo;
pub mod engine;
pub mod incremental;
pub mod instances;
pub mod mvcc;
pub mod optimize;
pub mod transaction;

pub use ask::ask;
pub use closure::ClosedDb;
pub use constraints::{ic_satisfaction, IcDefinition, IcReport};
pub use db::{DbError, EpistemicDb, Rejection};
pub use demo::{all_answers, demo, demo_sentence, DemoOutcome, DemoStream};
pub use engine::{definite_model, definite_program, prover_for};
pub use epilog_datalog::ProofTree;
pub use epilog_semantics::Answer;
pub use incremental::{CheckStats, CompiledConstraint, ModelDiff};
pub use instances::{admissible_wrt_f_sigma, instances, theorem_62_applies};
pub use mvcc::{CommittedState, ReadHandle, StateCell};
pub use optimize::{eliminate_redundant_conjuncts, valid_kfopce};
pub use transaction::{CommitReport, ModelUpdate, PreparedCommit, Transaction};
