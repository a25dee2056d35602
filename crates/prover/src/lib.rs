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
//!   decided by the CDCL solver of `epilog-sat`. `Σ` is grounded once per
//!   prover and kept — registry, one model, one long-lived solver — and a
//!   goal costs its own ground size: the model refutes it, or the solver
//!   decides `¬f` under assumptions;
//! * [`answers`] implements the enumeration interface `prove(f, Σ)`
//!   needed by `demo`: a resumable, deterministic stream of answer tuples.
//!
//! The canonical model `S(Σ)` of Lemma 6.2, which §6's finiteness results
//! rest on, is defined in `epilog-semantics`.
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
//!   principle require unboundedly many witnesses; we allocate one per
//!   existential node of `Σ` plus a spare, at most three in all, and
//!   document that theories which force infinite models (e.g. an
//!   irreflexive transitive successor rule) can make the prover report
//!   `Σ ⊨ f` when a genuinely infinite counter-world exists. Every
//!   row of `crates/bench/report.sample.txt` stays inside the exact fragment.
//!
//! ## What keeping the grounding changes: nothing
//!
//! Deciding a goal against the kept grounding gives, on every theory —
//! inside the exact fragment or outside it, satisfiable or not — the
//! verdict of grounding `Σ ∧ ¬f` from scratch over the universe *active
//! domain ∪ `f`'s other parameters ∪ witnesses* and solving it on a fresh
//! solver. Three steps carry that, each a checked property of this crate's
//! test suites rather than an argument only:
//!
//! * **Placeholders for foreign parameters.** `Σ` mentions none of the
//!   parameters of `f` outside the active domain, so ground `Σ` over that
//!   universe is, up to a one-to-one renaming of atoms, ground `Σ` over
//!   the universe with `k` reserved placeholders in their place; renaming
//!   `f`'s `k` foreign parameters to the placeholders (in order, and only
//!   them — a goal that names a witness means that witness) carries the
//!   same renaming through `¬f`. Satisfiability is invariant under
//!   renaming atoms, so one kept grounding per `k` decides every goal
//!   with `k` foreign parameters, whatever they are called.
//! * **Refutation by the kept model.** Building a grounding solves it
//!   once; let `M` be the model found. An atom ground `Σ` never mentions
//!   is free in it, so `M` with all such atoms false is again a model of
//!   ground `Σ`. If ground `f` is false there, that assignment satisfies
//!   ground `Σ ∧ ¬f`: the from-scratch pipeline would report "not
//!   entailed", and so do we, without a solver run. If ground `Σ` had no
//!   model, it entails every goal, and that is what every goal is told.
//!   For a single open atom the same `M` bounds `prove`'s candidates: an
//!   instance false in `M`, or absent from the registry, is not entailed,
//!   so only the instances `M` makes true are put to the solver, in the
//!   order the domain walk would have reached them.
//! * **Assumptions on one solver.** Otherwise `¬f` enters the kept solver
//!   as assumptions: ground `f` is a disjunction `d₁ ∨ … ∨ dₙ` (`n = 1`
//!   when it is none), `¬f` the conjunction of the `¬dᵢ`, and each `dᵢ`
//!   goes in as Tseitin definitions with its negated root assumed — a
//!   literal as itself, so a ground atom, a clause or an existential over
//!   atoms adds nothing to the solver. The definitions are full
//!   biconditionals over fresh variables — every assignment of the
//!   variables already there extends to them — so they change the
//!   satisfiability of nothing asked later; clauses the solver learns
//!   follow from the clauses alone, never from an assumption, so keeping
//!   them is sound; and the assumptions are undone when the run ends.
//!   "UNSAT under the assumptions" is exactly "ground `Σ ∧ ¬f` is
//!   unsatisfiable".

pub mod answers;
pub mod entail;
pub mod ground;
#[cfg(test)]
mod testgen;

pub use answers::AnswerIter;
pub use entail::Prover;
