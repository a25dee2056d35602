//! # epilog-semantics — the paper's definitions, executable
//!
//! Reiter's definitions, implemented as they are stated: the
//! specification the engine of `epilog-core` is proved sound and complete
//! against, and the reference every E-suite (`tests/e*.rs`) checks it by.
//! Nothing here is served: this crate depends on the engine's crates
//! (syntax, storage, prover, datalog, core), and no product crate depends
//! on it. In the paper's order:
//!
//! ## §2 — worlds, truth and answers
//!
//! * a **world** is a set of true atomic sentences; truth of a FOPCE
//!   sentence in a world is the usual recursion, with quantifiers ranging
//!   over the parameters and equality fixed by unique names ([`world`]);
//! * the truth of a KFOPCE sentence is relative to a pair `(W, 𝒮)` of a
//!   world and a set of worlds; `Kw` is true iff `w` is true in `(S, 𝒮)`
//!   for every `S ∈ 𝒮` ([`oracle::ModelSet::truth`]);
//! * `Σ ⊨ q|p̄` (Definition 2.1, the paper's notion of *answer*) holds iff
//!   `q|p̄` is true in `(W, ℳ(Σ))` for every model `W` of `Σ`
//!   ([`oracle::ModelSet::certain`]), and a query sentence's three-valued
//!   [`Answer`](epilog_core::Answer) is *yes*, *no* or *unknown*.
//!
//! The model set `ℳ(Σ)` is computed by **brute-force enumeration** of all
//! subsets of a finite Herbrand base — exponential by construction. That is
//! deliberate: it is the *oracle* Theorem 5.1 (the soundness of `demo`,
//! `tests/e5_soundness.rs`) and Theorem 6.2 (its completeness,
//! `tests/e6_completeness.rs`) are property-tested against, and the
//! propositional rows of the Section 1 table (`tests/e1_section1.rs`) are
//! checked by. Quantifiers are evaluated over a caller-fixed finite
//! universe; this approximates FOPCE's countably infinite parameter domain
//! and is exact for the finite-instances fragments the experiments use
//! (add spare parameters to the universe to tighten the approximation).
//!
//! ## §3 — integrity constraints
//!
//! [`constraints`] states the five readings of "`Σ` satisfies `IC`":
//! consistency and entailment (Definitions 3.1, 3.2), their `Comp(Σ)`
//! forms for Prolog-like databases (Definitions 3.3, 3.4, over Clark's
//! [`completion`](completion::completion)), and the paper's own,
//! `Σ ⊨ IC` for an epistemic `IC` (Definition 3.5), which runs a
//! constraint's compiled full check. The E2 table
//! (`tests/e2_ic_definitions.rs`) shows only Definition 3.5 right on both
//! of the paper's counterexamples; E3 (`tests/e3_constraint_examples.rs`)
//! enforces Examples 3.1–3.5 end to end.
//!
//! ## §4 — reasoning about queries and constraints
//!
//! [`optimize`] decides `⊨_KFOPCE` over bounded structures and with it
//! Corollaries 4.1 (interchangeable constraints) and 4.2 (queries with the
//! same answers under a constraint), and eliminates the conjuncts a
//! constraint makes redundant; [`flatten_k45`] is the K45 flattening that
//! `tests/prop_syntax.rs` checks truth-preserving in the oracle.
//!
//! ## §6 — finite instances and completeness
//!
//! [`classify`] holds the classes the completeness results are stated
//! over: K₁ and normal queries (§5.2–5.3, the E4 tables of
//! `tests/e4_safety_admissibility.rs`), positive existential formulas,
//! rules and elementary theories (Definition 6.3, split by [`theory`]),
//! disjunctive linkage (Definition 6.4) and almost admissibility
//! (Definition 6.2). [`mod@instances`] computes `Instances(w, Σ)`
//! (Definition 6.1) and the hypothesis of Theorems 6.1/6.2;
//! [`canonical`] builds the canonical model `S(Σ)` of Lemma 6.2. E6
//! (`tests/e6_completeness.rs`) checks Lemmas 6.2 and 6.3 and
//! Theorem 6.2 with them.
//!
//! ## §7 — the closed-world assumption
//!
//! [`closure`] materializes the unique model of `Closure(Σ)`
//! ([`ClosedDb`]) and evaluates queries under it through [`strip_k`]
//! (Theorem 7.1), builds the explicit closure theory (Theorem 7.2), and
//! answers a FOPCE query by `demo` on [`modalize`]'s `ℛ(w)` without
//! computing the closure (Theorem 7.3). [`circumscription`] implements the
//! minimal-model semantics and the generalized closed-world assumption
//! for Example 7.2, which shows that — unlike Reiter's `Closure` —
//! circumscription and the GCWA do *not* collapse the `K` operator. E7
//! (`tests/e7_closed_world.rs`) checks Theorems 7.1–7.3 and Example 7.2.

pub mod canonical;
pub mod circumscription;
pub mod classify;
pub mod closure;
pub mod completion;
pub mod constraints;
pub mod instances;
pub mod optimize;
pub mod oracle;
pub mod theory;
pub mod transform;
pub mod world;

pub use canonical::canonical_model;
pub use circumscription::{gcwa_negations, minimal_worlds};
pub use classify::{disjunctively_linked, is_k1, is_normal_query, is_positive_existential};
pub use closure::ClosedDb;
pub use completion::completion;
pub use constraints::{consistent_with, ic_satisfaction, IcDefinition, IcReport};
pub use instances::{admissible_wrt_f_sigma, instances, theorem_62_applies};
pub use optimize::{eliminate_redundant_conjuncts, valid_kfopce};
pub use oracle::ModelSet;
pub use theory::is_elementary;
pub use transform::{flatten_k45, modalize, strip_k};
pub use world::holds_in_world;
