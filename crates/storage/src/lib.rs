//! # epilog-storage — relational substrate
//!
//! A small in-memory relational store used by every layer above it:
//!
//! * the Datalog engine stores its extensional and intensional relations
//!   here ([`Relation`], [`Database`]);
//! * the grounder of `epilog-prover` uses [`Relation`] iteration and
//!   selections to enumerate candidate bindings;
//! * the possible-world structures of `epilog-semantics` are thin wrappers
//!   over [`Database`] snapshots.
//!
//! A stored fact is a row: a fixed-arity sequence of
//! [`Param`](epilog_syntax::Param)s (the function-free FOPCE fragment has
//! no other ground terms). Each relation stores its rows at its arity —
//! a `[Param; n]` up to five columns, which covers every predicate of
//! every workload here (a binary row is 8 bytes, no tag, no length), a
//! boxed slice above that — and every reader sees a row as a
//! `&[Param]`. A fixpoint collects its heads in the same row type
//! ([`Rows`]), so deriving, sorting and storing a fact converts and
//! allocates nothing. A selection probes its pattern's first bound
//! column: column 0 through the row set, which is ordered by it, any
//! other through that column's index, which the first probe builds and
//! every mutation then updates **incrementally**. So selection with any
//! partial binding pattern stays sub-linear across fixpoint rounds, and
//! no caller names an index.
//!
//! Everything a [`Relation`] stores sits in one persistent container
//! (sorted runs behind `Arc`s, private to this crate): cloning a
//! [`Database`] copies pointers, not rows, and the clone shares every
//! run with its original until one of them writes to it. The layers
//! above lean on that — a transaction's candidate model, the MVCC
//! snapshot a commit publishes and each step of a recovery replay are
//! all plain `.clone()`s. See [`Relation`] for the cost model.
//!
//! Two further pieces serve the bottom-up evaluators:
//!
//! * [`DeltaDatabase`] — the stable/delta split a semi-naive fixpoint
//!   advances round by round;
//! * [`plan`] — compiled conjunction joins ([`ConjunctionPlan`]): dense
//!   variable slots, cost-based literal reordering, precomputed selection
//!   shapes, borrowing execution.

pub mod database;
pub mod delta;
pub mod plan;
pub mod relation;
mod row;
mod runset;

pub use database::Database;
pub use delta::DeltaDatabase;
pub use plan::{AtomTemplate, ConjunctionPlan, JoinStep, PatTerm, PlanStats, SlotMap};
pub use relation::{Matches, Relation, Selection};
pub use row::Rows;
