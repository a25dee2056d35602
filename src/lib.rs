//! # epilog — an epistemic deductive database engine
//!
//! A production-grade reproduction of Raymond Reiter's *"What Should a
//! Database Know?"* (J. Logic Programming 14:127–153, 1992; expanded from
//! the 1988/1990 conference papers).
//!
//! A database is a set of first-order sentences about the world; queries
//! and integrity constraints are sentences of the epistemic modal logic
//! **KFOPCE**, which can also address what the database *knows*:
//!
//! ```
//! use epilog::prelude::*;
//!
//! let db = EpistemicDb::from_text(
//!     "Teach(John, Math)
//!      exists x. Teach(x, CS)
//!      Teach(Mary, Psych) | Teach(Sue, Psych)",
//! ).unwrap();
//!
//! // Is Teach(Mary, CS) true in the world?           — unknown
//! assert_eq!(db.ask(&parse("Teach(Mary, CS)").unwrap()), Answer::Unknown);
//! // Does the database KNOW Teach(Mary, CS)?         — no
//! assert_eq!(db.ask(&parse("K Teach(Mary, CS)").unwrap()), Answer::No);
//! // Is there a KNOWN course John teaches?           — yes (Math)
//! assert_eq!(db.ask(&parse("exists x. K Teach(John, x)").unwrap()), Answer::Yes);
//! // Is someone known to teach CS, without being a known individual? — yes
//! assert_eq!(db.ask(&parse("K (exists x. Teach(x, CS))").unwrap()), Answer::Yes);
//! ```
//!
//! The crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`syntax`] | FOPCE/KFOPCE language, parser, the paper's syntactic classes |
//! | [`storage`] | relational substrate (relations, indexes, databases) |
//! | [`sat`] | CDCL SAT solver (the propositional engine) |
//! | [`prover`] | FOPCE theorem prover: entailment + the `prove` enumeration |
//! | [`datalog`] | least-model Datalog engine for definite programs |
//! | [`core`] | the `demo` evaluator, epistemic queries, compiled integrity constraints, transactions, MVCC snapshots |
//! | [`persist`] | durability: one write-ahead log per database, headed by a checkpoint, crash recovery — and the MVCC group-commit serving layer |
//! | [`server`] | TCP line-protocol sessions over snapshot reads and queued commits |
//! | [`semantics`] | the paper's definitions, executable: worlds and the brute-force oracle, the integrity-constraint definitions 3.1–3.5 and Clark completion, §4's optimisation, §6's instances and canonical model, §7's closure and circumscription — the specification the E-suites check the engine against; no other crate depends on it |

pub use epilog_core as core;
pub use epilog_datalog as datalog;
pub use epilog_persist as persist;
pub use epilog_prover as prover;
pub use epilog_sat as sat;
pub use epilog_semantics as semantics;
pub use epilog_server as server;
pub use epilog_storage as storage;
pub use epilog_syntax as syntax;

/// The items most programs need.
pub mod prelude {
    pub use epilog_core::{
        all_answers, ask, demo, demo_sentence, Answer, CommitReport, DbError, DemoOutcome,
        EpistemicDb, ModelUpdate, ProofTree, Rejection, Transaction,
    };
    pub use epilog_core::{CommittedState, ReadHandle, StateCell};
    pub use epilog_persist::{
        CommitReceipt, DurableDb, FaultInjector, FaultKind, FsyncPolicy, PersistError,
        RecoveryReport, ServeError, ServeOptions, ServingDb, TxOp,
    };
    pub use epilog_prover::Prover;
    pub use epilog_semantics::{ic_satisfaction, ClosedDb, IcDefinition, IcReport};
    pub use epilog_syntax::{
        admissibility, is_admissible, is_safe, is_subjective, parse, parse_theory, Formula, Param,
        Pred, Term, Theory, Var,
    };
}
