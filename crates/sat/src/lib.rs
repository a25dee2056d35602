//! # epilog-sat — a from-scratch CDCL SAT solver
//!
//! The propositional engine underneath the FOPCE theorem prover
//! (`epilog-prover`). First-order entailment `Σ ⊨ f` over the function-free
//! FOPCE fragment is decided by grounding `Σ ∧ ¬f` and testing the
//! resulting propositional formula for unsatisfiability; this crate does
//! the propositional part.
//!
//! Components:
//!
//! * [`Lit`]/[`Cnf`] — literals and clause databases;
//! * [`Prop`] + [`tseitin`] / [`constrain`] — arbitrary propositional
//!   formulas and their equisatisfiable CNF encoding;
//! * [`Solver`] — conflict-driven clause learning with two-watched
//!   literals, 1-UIP learning, VSIDS branching off an activity heap, and
//!   Luby restarts; long-lived: [`Solver::solve_with`] decides under
//!   assumption literals, keeps what it learnt, and takes new variables
//!   and clauses between runs — how the prover asks many goals of one
//!   grounded theory.
//!
//! The solver's own tests certify each verdict they reach: a model
//! against every clause, `Unsat` by reverse unit propagation.

pub mod cnf;
pub mod solver;

pub use cnf::{constrain, tseitin, Cnf, Lit, Prop};
pub use solver::{SatResult, Solver};
