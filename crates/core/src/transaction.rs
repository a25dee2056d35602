//! Transactional updates: batched `assert`/`retract` with incremental
//! model maintenance and compiled constraint checking.
//!
//! This is the paper's §8 discussion item (4) turned into the database's
//! *update surface*: "when a (normally) small change is made to [a KB],
//! it should not be necessary to verify all its constraints all over
//! again" — nor, for that matter, to recompute its least model. A
//! [`Transaction`] batches updates and applies them atomically on
//! [`Transaction::commit`]:
//!
//! * **Validation** happens against the current state before anything is
//!   cloned: operations that would not change the theory (duplicate
//!   assertions, retractions of absent sentences) are dropped, and a
//!   transaction with no effective operations commits without touching
//!   the prover at all.
//! * **Model maintenance**: when the theory is definite and the commit
//!   only touches ground atoms, the attached least model is *not*
//!   rebuilt. Assertions seed the semi-naive delta
//!   (`DeltaDatabase::resume`) and the fixpoint continues with
//!   delta-variant plans only (`Program::grow`); retractions
//!   run the over-delete/re-derive (DRed) fixpoint first
//!   (`Program::shrink`), and a mixed batch chains the two —
//!   both over the plan cache, so no full plan runs and nothing is
//!   compiled. The result is spliced into the prover through
//!   [`Prover::updated`].
//! * **Constraint checking** runs each registered constraint's compiled
//!   violation (see [`crate::incremental`]) once per commit, over the
//!   exact model diff when the model was maintained incrementally:
//!   constraints no atom of the diff matches are skipped, the others are
//!   checked on the violation instances the diff fires, and a commit
//!   without a diff re-checks them in full. Nothing is compiled here.
//! * **Atomicity**: a rejected commit returns
//!   [`DbError::ConstraintViolated`] and leaves the database observably
//!   unchanged; dropping a transaction (or [`Transaction::rollback`])
//!   discards it.
//!
//! The one-shot [`EpistemicDb::assert`] and [`EpistemicDb::retract`] are
//! thin wrappers over single-operation transactions.

use crate::db::{DbError, Definite, EpistemicDb, Rejection};
use crate::engine::prover_and_program;
use crate::incremental::{check, CheckStats, ModelDiff};
use epilog_datalog::{EvalStats, Program};
use epilog_prover::Prover;
use epilog_storage::Database;
use epilog_syntax::{FoldState, Formula, Theory};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One batched update operation.
#[derive(Debug, Clone)]
enum Op {
    Assert(Formula),
    Retract(Formula),
}

/// The sentences a batch has so far added (or removed), in the order it
/// did, each with the position of the operation that listed it, and the
/// membership test of a set: what Phase 1 of [`Transaction::prepare`]
/// asks of its two lists once per queued operation. Sized for every
/// operation that can list a sentence, and not hashing at all while
/// nothing is listed.
struct Listed<'a> {
    items: Vec<(&'a Formula, usize)>,
    /// Where in `items` each sentence sits.
    at: HashMap<&'a Formula, usize, FoldState>,
}

impl<'a> Listed<'a> {
    fn with_capacity(n: usize) -> Self {
        Listed {
            items: Vec::with_capacity(n),
            at: HashMap::with_capacity_and_hasher(n, FoldState::default()),
        }
    }

    fn contains(&self, w: &Formula) -> bool {
        !self.items.is_empty() && self.at.contains_key(w)
    }

    /// List `w`, the sentence of operation `op`.
    fn push(&mut self, w: &'a Formula, op: usize) {
        self.at.insert(w, self.items.len());
        self.items.push((w, op));
    }

    /// `Vec::swap_remove` by value: the last sentence takes the place of
    /// the removed one. Returns whether `w` was listed.
    fn swap_remove(&mut self, w: &Formula) -> bool {
        if self.items.is_empty() {
            return false;
        }
        let Some(i) = self.at.remove(w) else {
            return false;
        };
        self.items.swap_remove(i);
        if let Some(&(moved, _)) = self.items.get(i) {
            self.at.insert(moved, i);
        }
        true
    }

    /// The operations that listed the sentences, in list order.
    fn ops(&self) -> Vec<usize> {
        self.items.iter().map(|&(_, op)| op).collect()
    }
}

/// A batch of updates applied atomically on [`Transaction::commit`].
///
/// Obtained from [`EpistemicDb::transaction`]. Operations are recorded in
/// order and validated against the evolving candidate state, so
/// `retract(w)` after `assert(w)` cancels out. Dropping the transaction
/// discards every queued operation.
///
/// ```
/// use epilog_core::EpistemicDb;
/// use epilog_syntax::parse;
///
/// let mut db = EpistemicDb::from_text("ss(Mary, n1)").unwrap();
/// let report = db
///     .transaction()
///     .assert(parse("emp(Mary)").unwrap())
///     .assert(parse("ss(Sue, n2)").unwrap())
///     .commit()
///     .unwrap();
/// assert_eq!(report.asserted, 2);
/// ```
#[must_use = "a transaction does nothing until commit() — dropping it discards the batch"]
pub struct Transaction<'db> {
    db: &'db mut EpistemicDb,
    ops: Vec<Op>,
}

/// How a commit maintained the prover's attached least model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelUpdate {
    /// The commit touched only ground atoms of a definite theory: the
    /// existing least model was reused — retractions ran the
    /// over-delete/re-derive fixpoint, assertions resumed the semi-naive
    /// fixpoint from the transaction's delta — and no full plan ran.
    Incremental {
        /// Model tuples added by the resumed fixpoint (asserted facts
        /// plus their derived consequences).
        tuples_added: usize,
        /// Model tuples removed by the deletion fixpoint (retracted facts
        /// plus the derived consequences that lost their last support);
        /// 0 for assert-only commits.
        tuples_removed: usize,
        /// Combined counters of the deletion and insertion fixpoints;
        /// `full_firings` and `plans_compiled` are 0 by construction.
        stats: EvalStats,
    },
    /// The least model was recomputed from scratch (the commit asserted
    /// or retracted non-atomic, i.e. rule-shaped, sentences).
    Rebuilt,
    /// The updated theory is not a definite program — there is no
    /// attached model and entailment rides the grounding + SAT path.
    NotDefinite,
    /// No effective operation: the database was left untouched.
    Unchanged,
}

/// The structured receipt of a successful [`Transaction::commit`]: which
/// phase did how much work, so callers (and the report's F7 table) can
/// observe incrementality instead of trusting it.
#[derive(Debug, Clone)]
#[must_use = "the receipt says how the commit was maintained — inspect or explicitly drop it"]
pub struct CommitReport {
    /// Sentences the commit added (duplicates of existing sentences are
    /// not counted — they change nothing).
    pub asserted: usize,
    /// Sentences the commit removed (retractions of absent sentences are
    /// not counted).
    pub retracted: usize,
    /// How the attached least model was maintained.
    pub model: ModelUpdate,
    /// How each registered constraint was verified: skipped, checked on
    /// the update's violation instances only, or re-checked in full.
    pub checks: CheckStats,
}

impl CommitReport {
    fn unchanged() -> Self {
        CommitReport {
            asserted: 0,
            retracted: 0,
            model: ModelUpdate::Unchanged,
            checks: CheckStats::default(),
        }
    }
}

impl fmt::Display for CommitReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{} -{} sentences; ", self.asserted, self.retracted)?;
        match &self.model {
            ModelUpdate::Incremental {
                tuples_added,
                tuples_removed,
                stats,
            } => write!(
                f,
                "model +{tuples_added} -{tuples_removed} tuples (resumed: {} delta firings, {} rounds)",
                stats.rule_firings, stats.iterations
            )?,
            ModelUpdate::Rebuilt => write!(f, "model rebuilt")?,
            ModelUpdate::NotDefinite => write!(f, "no model (SAT path)")?,
            ModelUpdate::Unchanged => write!(f, "unchanged")?,
        }
        write!(
            f,
            "; constraints: {} skipped, {} specialized, {} full",
            self.checks.skipped, self.checks.specialized, self.checks.full
        )
    }
}

impl<'db> Transaction<'db> {
    pub(crate) fn new(db: &'db mut EpistemicDb) -> Self {
        Transaction {
            db,
            ops: Vec::new(),
        }
    }

    /// Queue a sentence for assertion.
    #[must_use = "assert only queues — the batch must still be committed"]
    pub fn assert(mut self, w: Formula) -> Self {
        self.ops.push(Op::Assert(w));
        self
    }

    /// Queue a sentence for retraction.
    #[must_use = "retract only queues — the batch must still be committed"]
    pub fn retract(mut self, w: Formula) -> Self {
        self.ops.push(Op::Retract(w));
        self
    }

    /// Number of queued (not yet validated) operations.
    pub fn pending(&self) -> usize {
        self.ops.len()
    }

    /// Discard the batch. Equivalent to dropping the transaction; spelled
    /// out for call sites that want the intent visible.
    pub fn rollback(self) {}

    /// Validate the batch and apply it atomically.
    ///
    /// Every queued formula must be a first-order sentence
    /// ([`DbError::Theory`] otherwise) and the updated state must satisfy
    /// every registered constraint ([`DbError::ConstraintViolated`]
    /// otherwise — naming the first violated constraint). On any error
    /// the database is left exactly as it was.
    pub fn commit(self) -> Result<CommitReport, DbError> {
        self.prepare().map(PreparedCommit::commit)
    }

    /// Validate the batch and build the candidate state **without
    /// publishing it**. This is the durability hook: a write-ahead log can
    /// sit between validation and application (`prepare` → append the
    /// effective delta to the log → [`PreparedCommit::commit`]), so a
    /// record reaches stable storage only for transactions that will
    /// commit, and state changes only after the record is durable.
    ///
    /// All the work happens here — validation, delta reduction, model
    /// maintenance, constraint checking; [`PreparedCommit::commit`] merely
    /// publishes the precomputed state. Dropping the `PreparedCommit`
    /// discards the batch with the database untouched.
    pub fn prepare(self) -> Result<PreparedCommit<'db>, DbError> {
        let Transaction { db, ops } = self;

        // Phase 1 — reduce to the *effective* delta. Ops are replayed in
        // order against a lightweight view of the current sentence set, so
        // duplicate asserts, absent retracts, and assert/retract pairs that
        // cancel out never cost a theory clone. Only assertions need
        // validating, each once: phase 2 validates what stays added, and a
        // cancelled one is validated where it is cancelled. An assert the
        // database or the batch already holds is valid, as an ill-formed
        // sentence can never be *stored*; retracting one is simply a no-op
        // (the documented contract of the one-shot `retract`).
        let current = db.prover.theory();
        let asserts = ops.iter().filter(|op| matches!(op, Op::Assert(_))).count();
        let mut added = Listed::with_capacity(asserts);
        let mut removed = Listed::with_capacity(ops.len() - asserts);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Assert(w) => {
                    // Held by the batch, or retracted by it (it was ours:
                    // un-retract), or held by the database: no change.
                    if !added.contains(w) && !removed.swap_remove(w) && !current.contains(w) {
                        added.push(w, i);
                    }
                }
                Op::Retract(w) => {
                    if added.swap_remove(w) {
                        // Asserted by the batch, never committed: cancel.
                        Theory::validate(w)?;
                    } else if !removed.contains(w) && current.contains(w) {
                        // Not retracted already, and held.
                        removed.push(w, i);
                    }
                }
            }
        }
        // The listed sentences move out of their operations: each is one
        // operation's, listed once.
        let (added, removed) = (added.ops(), removed.ops());
        let mut sentences: Vec<Option<Formula>> = ops
            .into_iter()
            .map(|(Op::Assert(w) | Op::Retract(w))| Some(w))
            .collect();
        let mut take = |op: usize| sentences[op].take().expect("listed once");
        let added: Vec<Formula> = added.into_iter().map(&mut take).collect();
        let removed: Vec<Formula> = removed.into_iter().map(&mut take).collect();
        if added.is_empty() && removed.is_empty() {
            return Ok(PreparedCommit {
                db,
                candidate: None,
                definite: None,
                report: CommitReport::unchanged(),
                added,
                removed,
            });
        }

        // Phase 2 — build the candidate theory.
        let mut theory = current.clone();
        for w in &removed {
            theory.retract(w);
        }
        for w in &added {
            theory.assert(w.clone())?;
        }

        // Phase 3 — maintain the least model. A commit that touches only
        // ground atoms of a definite theory never rebuilds: retractions
        // run the over-delete/re-derive fixpoint, assertions resume the
        // semi-naive fixpoint, a mixed batch chains the two. Everything
        // else rebuilds.
        let is_ground_atom = |w: &Formula| matches!(w, Formula::Atom(a) if a.is_ground());
        let facts_only = added.iter().all(is_ground_atom) && removed.iter().all(is_ground_atom);
        // The exact model diff, for the constraint router: `Some` exactly
        // on the incremental path, `None` when the model was rebuilt (or
        // there is none) and no per-tuple diff exists.
        let mut diff: Option<ModelDiff> = None;
        // `candidate_definite` is the candidate theory as a definite
        // program with its plans (`None` outside the fragment): installed
        // with the candidate, and what a rejection's proofs derive from.
        type Candidate = (Prover, ModelUpdate, Option<Definite>);
        let (candidate, model_update, candidate_definite): Candidate = 'prover: {
            if facts_only {
                if let (Some(old_model), Some(definite)) = (db.prover.atom_model(), &db.definite) {
                    // A facts-only commit leaves the rule set untouched,
                    // so the candidate's program is the cached one with
                    // this batch's atoms taken out of and put into its
                    // EDB — no walk over the sentences — and the plans
                    // cached on the db are exactly its plans: neither
                    // fixpoint compiles anything
                    // (`stats.plans_compiled == 0`).
                    let plans = &definite.plans;
                    let mut prog = Program::clone(&definite.program);
                    let mut new_facts = Database::new();
                    let mut removed_facts = Database::new();
                    for w in &removed {
                        if let Formula::Atom(a) = w {
                            removed_facts.insert(a);
                            prog.edb.remove(a);
                        }
                    }
                    for w in &added {
                        if let Formula::Atom(a) = w {
                            new_facts.insert(a);
                            prog.edb.insert(a);
                        }
                    }
                    prog.edb.prune_empty();
                    // Each fixpoint hands back what it changed: the
                    // exact model diff, derived consequences included.
                    let (model, mut stats, removed) = if removed_facts.is_empty() {
                        (old_model.clone(), EvalStats::default(), Database::new())
                    } else {
                        prog.shrink(plans, old_model.clone(), &removed_facts)
                    };
                    let (model, added) = if new_facts.is_empty() {
                        (model, Vec::new())
                    } else {
                        let (model, grown, added) = prog.grow(plans, model, &new_facts);
                        stats.absorb(&grown);
                        (model, added)
                    };
                    let model_diff = ModelDiff::new(added, removed);
                    let update = ModelUpdate::Incremental {
                        tuples_added: model_diff.added.iter().map(Database::len).sum(),
                        tuples_removed: model_diff.removed.len(),
                        stats,
                    };
                    diff = Some(model_diff);
                    let candidate = db.prover.updated(theory, Some(model));
                    let definite = Definite {
                        program: Arc::new(prog),
                        ..definite.clone()
                    };
                    break 'prover (candidate, update, Some(definite));
                }
            }
            // The plans derive from the rule-shaped sentences only: a
            // commit that changes them compiles them afresh, costed
            // against the candidate's model, and every following
            // ground-atom commit reuses them as they are.
            let (rebuilt, program) = prover_and_program(theory);
            let Some(model) = rebuilt.atom_model() else {
                break 'prover (rebuilt, ModelUpdate::NotDefinite, None);
            };
            let definite = program.map(|p| Definite::new(Arc::new(p), model));
            (rebuilt, ModelUpdate::Rebuilt, definite)
        };

        // Phase 4 — verify the constraints, once, over the exact model
        // diff where the incremental path produced one (which implies a
        // definite theory before and after the commit: the diff is then
        // exact for every compiled constraint) and in full otherwise.
        let mut checks = CheckStats::default();
        if let Some((ic, witnesses)) =
            check(&db.constraints, &candidate, diff.as_ref(), &mut checks)
        {
            return Err(DbError::ConstraintViolated(Box::new(Rejection {
                constraint: ic.clone(),
                witnesses,
                program: candidate_definite.map(|d| d.program),
            })));
        }

        // Phase 5 — the commit is decided; publication is deferred to
        // `PreparedCommit::commit` so a WAL append can sit in between.
        Ok(PreparedCommit {
            db,
            candidate: Some(candidate),
            definite: candidate_definite,
            report: CommitReport {
                asserted: added.len(),
                retracted: removed.len(),
                model: model_update,
                checks,
            },
            added,
            removed,
        })
    }
}

/// A validated, fully decided transaction awaiting publication — the
/// output of [`Transaction::prepare`]. Holds the candidate prover (model
/// already maintained, constraints already verified); [`PreparedCommit::commit`]
/// installs it. Dropping a `PreparedCommit` discards the batch and leaves
/// the database untouched, exactly like dropping a [`Transaction`].
#[must_use = "a prepared commit changes nothing until commit() — dropping it discards the batch"]
pub struct PreparedCommit<'db> {
    db: &'db mut EpistemicDb,
    /// `None` when the batch reduced to a no-op: nothing to publish.
    candidate: Option<Prover>,
    /// The candidate theory's definite program and plans (`None` when it
    /// has none), installed with the candidate.
    definite: Option<Definite>,
    report: CommitReport,
    added: Vec<Formula>,
    removed: Vec<Formula>,
}

impl PreparedCommit<'_> {
    /// The sentences this commit will add, post delta-reduction (duplicate
    /// asserts and cancelled pairs removed) — the exact payload a
    /// write-ahead log should record.
    pub fn added(&self) -> &[Formula] {
        &self.added
    }

    /// The sentences this commit will remove, post delta-reduction.
    pub fn removed(&self) -> &[Formula] {
        &self.removed
    }

    /// Whether the batch reduced to a no-op (nothing will change; a WAL
    /// need not record it).
    pub fn is_noop(&self) -> bool {
        self.candidate.is_none()
    }

    /// The receipt this commit will return, for inspection before
    /// publication.
    pub fn report(&self) -> &CommitReport {
        &self.report
    }

    /// Publish the prepared state. Infallible: every way the commit can
    /// fail was decided in [`Transaction::prepare`].
    pub fn commit(self) -> CommitReport {
        if let Some(candidate) = self.candidate {
            let db = self.db;
            db.prover = candidate;
            db.definite = self.definite;
            debug_assert!(
                db.program_is_current(),
                "cached program drifted from the theory"
            );
            // Facts-only commits keep the cached plans but may drift the
            // model away from the statistics those plans were costed
            // with; re-cost when it has halved or doubled.
            if let (Some(definite), Some(model)) = (&mut db.definite, db.prover.atom_model()) {
                db.plan_recosts += u64::from(definite.recost(model));
            }
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Answer;
    use epilog_syntax::parse;

    fn db(src: &str) -> EpistemicDb {
        EpistemicDb::from_text(src).unwrap()
    }

    fn f(src: &str) -> Formula {
        parse(src).unwrap()
    }

    #[test]
    fn batched_commit_applies_atomically() {
        let mut d = db("ss(Mary, n1)");
        let report = d
            .transaction()
            .assert(f("emp(Mary)"))
            .assert(f("ss(Sue, n2)"))
            .assert(f("emp(Sue)"))
            .commit()
            .unwrap();
        assert_eq!(report.asserted, 3);
        assert_eq!(report.retracted, 0);
        assert_eq!(d.ask(&f("K emp(Sue)")), Answer::Yes);
    }

    #[test]
    fn duplicate_and_cancelling_ops_reduce_to_noop() {
        let mut d = db("p(a)");
        let report = d
            .transaction()
            .assert(f("p(a)")) // already present
            .assert(f("q(b)"))
            .retract(f("q(b)")) // cancels the assert
            .retract(f("r(c)")) // absent
            .commit()
            .unwrap();
        assert_eq!(report.asserted, 0);
        assert_eq!(report.retracted, 0);
        assert_eq!(report.model, ModelUpdate::Unchanged);
        assert_eq!(d.theory().len(), 1);
    }

    #[test]
    fn a_cancelled_op_hands_its_place_to_the_last_one() {
        // The effective delta is what the log records and the order the
        // theory stores: a cancellation moves the list's last sentence
        // into the gap, on either side.
        let mut d = db("p(a)\np(b)\np(c)\np(d)");
        let queued = ["q(a)", "q(b)", "q(c)", "q(d)"];
        let txn = queued.iter().fold(d.transaction(), |t, w| t.assert(f(w)));
        let txn = queued
            .iter()
            .fold(txn, |t, w| t.retract(f(&w.replace('q', "p"))));
        let prepared = txn
            .retract(f("q(a)"))
            .assert(f("p(b)"))
            .assert(f("q(b)")) // still queued: no change
            .prepare()
            .unwrap();
        assert_eq!(prepared.added(), [f("q(d)"), f("q(b)"), f("q(c)")]);
        assert_eq!(prepared.removed(), [f("p(a)"), f("p(d)"), f("p(c)")]);
    }

    #[test]
    fn retract_then_assert_same_sentence_round_trips() {
        let mut d = db("p(a)");
        let report = d
            .transaction()
            .retract(f("p(a)"))
            .assert(f("p(a)"))
            .commit()
            .unwrap();
        // The pair cancels: retract queued first, assert un-retracts it.
        assert_eq!((report.asserted, report.retracted), (0, 0));
        assert!(d.theory().contains(&f("p(a)")));
    }

    #[test]
    fn ground_atom_commit_on_definite_theory_is_incremental() {
        let mut d = db("e(n0, n1)\nforall x, y. e(x, y) -> t(x, y)\nforall x, y, z. e(x, y) & t(y, z) -> t(x, z)");
        assert!(d.prover().atom_model().is_some());
        let report = d
            .transaction()
            .assert(f("e(n1, n2)"))
            .assert(f("e(n2, n3)"))
            .commit()
            .unwrap();
        let ModelUpdate::Incremental {
            tuples_added,
            tuples_removed,
            stats,
        } = report.model
        else {
            panic!("expected the incremental path, got {:?}", report.model);
        };
        // 2 edges + t(n1,n2), t(n2,n3), t(n0,n2), t(n1,n3), t(n0,n3).
        assert_eq!(tuples_added, 7);
        assert_eq!(tuples_removed, 0);
        assert_eq!(stats.full_firings, 0, "only delta variants may run");
        assert!(stats.rule_firings > 0);
        // The resumed model answers like a from-scratch one.
        assert_eq!(d.ask(&f("K t(n0, n3)")), Answer::Yes);
        let scratch = crate::engine::prover_for(d.theory().clone());
        assert_eq!(d.prover().atom_model(), scratch.atom_model());
    }

    #[test]
    fn retraction_takes_the_decremental_path() {
        let mut d = db("e(a, b)\ne(b, c)\nforall x, y. e(x, y) -> t(x, y)");
        let report = d.transaction().retract(f("e(b, c)")).commit().unwrap();
        let ModelUpdate::Incremental {
            tuples_added,
            tuples_removed,
            stats,
        } = report.model
        else {
            panic!("expected the decremental path, got {:?}", report.model);
        };
        // e(b,c) and its sole consequence t(b,c) leave the model.
        assert_eq!((tuples_added, tuples_removed), (0, 2));
        assert_eq!(stats.full_firings, 0, "no full plan may run");
        assert_eq!(stats.plans_compiled, 0, "the cached plans are reused");
        assert!(stats.tuples_overdeleted >= 2);
        assert_eq!(d.ask(&f("K t(b, c)")), Answer::No);
        assert_eq!(d.ask(&f("K t(a, b)")), Answer::Yes);
        // The shrunk model answers like a from-scratch one.
        let scratch = crate::engine::prover_for(d.theory().clone());
        assert_eq!(d.prover().atom_model(), scratch.atom_model());
    }

    #[test]
    fn mixed_batch_chains_deletion_and_insertion_fixpoints() {
        let mut d = db("e(n0, n1)\ne(n1, n2)\nforall x, y. e(x, y) -> t(x, y)\nforall x, y, z. e(x, y) & t(y, z) -> t(x, z)");
        let report = d
            .transaction()
            .retract(f("e(n1, n2)"))
            .assert(f("e(n1, n3)"))
            .assert(f("e(n3, n2)"))
            .commit()
            .unwrap();
        let ModelUpdate::Incremental {
            tuples_added,
            tuples_removed,
            stats,
        } = report.model
        else {
            panic!("expected the incremental path, got {:?}", report.model);
        };
        // The deletion fixpoint takes out e(n1,n2), t(n1,n2) and
        // t(n0,n2); the new edges restore both t-paths via n3, so those
        // two are in both models and in neither side of the diff. In:
        // e(n1,n3), e(n3,n2), t(n1,n3), t(n3,n2), t(n0,n3).
        assert_eq!((tuples_added, tuples_removed), (5, 1));
        assert_eq!(stats.full_firings, 0, "no full plan may run");
        assert_eq!(stats.plans_compiled, 0, "the cached plans are reused");
        assert_eq!(d.ask(&f("K t(n0, n2)")), Answer::Yes);
        assert_eq!(d.ask(&f("K t(n1, n2)")), Answer::Yes);
        assert_eq!(d.ask(&f("K e(n1, n2)")), Answer::No);
        let scratch = crate::engine::prover_for(d.theory().clone());
        assert_eq!(d.prover().atom_model(), scratch.atom_model());
    }

    #[test]
    fn retraction_violating_a_constraint_is_rejected_incrementally() {
        let mut d = db("emp(Mary)\nss(Mary, n1)\nhobby(Mary, chess)");
        d.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
            .unwrap();
        // Removing Mary's number while she is an employee violates the
        // constraint — caught on the specialized route, not a full check.
        let err = d
            .transaction()
            .retract(f("ss(Mary, n1)"))
            .commit()
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolated(_)));
        assert_eq!(d.ask(&f("K ss(Mary, n1)")), Answer::Yes, "no trace");
        // An irrelevant retraction skips the constraint entirely.
        let report = d
            .transaction()
            .retract(f("hobby(Mary, chess)"))
            .commit()
            .unwrap();
        assert_eq!(report.checks.skipped, 1);
        assert_eq!(report.checks.full, 0);
        // Retracting emp first makes the ss retraction legal.
        assert!(d.retract(&f("emp(Mary)")).unwrap());
        assert!(d.retract(&f("ss(Mary, n1)")).unwrap());
    }

    #[test]
    fn non_atomic_assertion_rebuilds_or_drops_the_model() {
        let mut d = db("p(a)");
        let report = d.transaction().assert(f("q(b) | q(c)")).commit().unwrap();
        assert_eq!(report.model, ModelUpdate::NotDefinite);
        assert!(d.prover().atom_model().is_none());
        assert_eq!(d.ask(&f("K (q(b) | q(c))")), Answer::Yes);
    }

    #[test]
    fn violating_commit_is_rejected_wholesale() {
        let mut d = db("emp(Mary)\nss(Mary, n1)");
        d.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
            .unwrap();
        let before = d.theory().clone();
        let err = d
            .transaction()
            .assert(f("ss(Sue, n2)"))
            .assert(f("emp(Sue)"))
            .assert(f("emp(Joe)")) // no number for Joe: rejected
            .commit()
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolated(_)));
        // Nothing from the batch landed — not even the valid prefix.
        assert_eq!(d.theory(), &before);
        assert_eq!(d.ask(&f("K emp(Sue)")), Answer::No);
        assert!(d.satisfies_constraints());
    }

    #[test]
    fn batch_satisfying_constraint_jointly_is_accepted() {
        // Individually ordered asserts would need "number first"; a batch
        // is checked only at commit, so order inside the batch is free.
        let mut d = db("emp(Mary)\nss(Mary, n1)");
        d.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
            .unwrap();
        let report = d
            .transaction()
            .assert(f("emp(Sue)")) // before its ss fact — fine in a batch
            .assert(f("ss(Sue, n2)"))
            .commit()
            .unwrap();
        assert_eq!(report.asserted, 2);
        assert!(report.checks.specialized > 0 || report.checks.full > 0);
        assert!(d.satisfies_constraints());
    }

    #[test]
    fn constraint_routing_is_reported() {
        let mut d = db("emp(Mary)\nss(Mary, n1)\nhobby(Mary, chess)");
        d.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
            .unwrap();
        d.add_constraint(f("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z"))
            .unwrap();
        // An update touching neither constraint: both skipped.
        let report = d
            .transaction()
            .assert(f("hobby(Mary, go)"))
            .commit()
            .unwrap();
        assert_eq!(report.checks.skipped, 2);
        assert_eq!(report.checks.specialized, 0);
        assert_eq!(report.checks.full, 0);
        // An ss+emp batch: each constraint is routed once — both have a
        // triggered predicate in the batch, so both specialize.
        let report = d
            .transaction()
            .assert(f("ss(Sue, n2)"))
            .assert(f("emp(Sue)"))
            .commit()
            .unwrap();
        assert_eq!(report.checks.specialized, 2, "one route per constraint");
        assert_eq!(report.checks.skipped, 0);
        assert_eq!(report.checks.full, 0);
    }

    #[test]
    fn non_rule_sentences_force_full_constraint_checks() {
        // `¬p(a) ∨ emp(b)` can make emp(b) certain when p(a) arrives.
        // The theory is not definite, so there is no least model and no
        // model diff to route by: the commit re-checks every constraint
        // in full and rejects.
        let mut d = db("~p(a) | emp(b)");
        d.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
            .unwrap();
        let err = d.transaction().assert(f("p(a)")).commit().unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolated(_)));
        assert!(d.satisfies_constraints());
        assert_eq!(d.theory().len(), 1, "rejected commit left no trace");
    }

    #[test]
    fn engine_only_rules_route_constraints_to_full_checks() {
        // A rule with an unused quantified variable is invisible to the
        // syntactic rule view but evaluated by the engine: the commit must
        // still notice that p derives q and reject the violation.
        let mut d = db("forall x, z. p(x) -> q(x)");
        d.add_constraint(f("forall x. ~K q(x)")).unwrap();
        let err = d.transaction().assert(f("p(a)")).commit().unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolated(_)));
        assert!(d.satisfies_constraints());
        assert_eq!(
            d.ask(&f("K p(a)")),
            Answer::No,
            "rejected commit left no trace"
        );
    }

    #[test]
    fn retracting_an_ill_formed_sentence_is_a_noop() {
        // Modal or open formulas can never be stored, so retracting one
        // reports "absent" instead of erroring (the seed contract).
        let mut d = db("p(a)");
        assert!(!d.retract(&f("K p(a)")).unwrap());
        assert!(!d.retract(&f("q(x)")).unwrap());
        assert_eq!(d.theory().len(), 1);
    }

    #[test]
    fn rollback_and_drop_discard() {
        let mut d = db("p(a)");
        d.transaction().assert(f("q(b)")).rollback();
        assert_eq!(d.theory().len(), 1);
        {
            let txn = d.transaction().assert(f("q(c)"));
            assert_eq!(txn.pending(), 1);
            // dropped here
        }
        assert_eq!(d.theory().len(), 1);
    }

    #[test]
    fn invalid_sentence_rejects_the_whole_batch() {
        let mut d = db("p(a)");
        let err = d
            .transaction()
            .assert(f("q(b)"))
            .assert(f("K q(b)")) // modal: not a database sentence
            .commit()
            .unwrap_err();
        assert!(matches!(err, DbError::Theory(_)));
        assert_eq!(d.theory().len(), 1);

        let err = d
            .transaction()
            .assert(f("q(x)")) // free variable
            .commit()
            .unwrap_err();
        assert!(matches!(err, DbError::Theory(_)));

        // Cancelled within the batch, it is still refused.
        let err = d
            .transaction()
            .assert(f("K q(b)"))
            .retract(f("K q(b)"))
            .commit()
            .unwrap_err();
        assert!(matches!(err, DbError::Theory(_)));
        assert_eq!(d.theory().len(), 1);
    }

    #[test]
    fn prepare_defers_publication() {
        let mut d = db("p(a)");
        let prepared = d.transaction().assert(f("q(b)")).prepare().unwrap();
        assert!(!prepared.is_noop());
        assert_eq!(prepared.added(), &[f("q(b)")]);
        assert!(prepared.removed().is_empty());
        assert_eq!(prepared.report().asserted, 1);
        // Dropping the prepared commit discards the batch…
        drop(prepared);
        assert_eq!(d.theory().len(), 1);
        // …while commit() publishes exactly the prepared state.
        let prepared = d.transaction().assert(f("q(b)")).prepare().unwrap();
        let report = prepared.commit();
        assert_eq!(report.asserted, 1);
        assert!(d.theory().contains(&f("q(b)")));
    }

    #[test]
    fn prepare_reports_noop_batches() {
        let mut d = db("p(a)");
        let prepared = d.transaction().assert(f("p(a)")).prepare().unwrap();
        assert!(prepared.is_noop());
        assert!(prepared.added().is_empty());
        assert_eq!(prepared.commit().model, ModelUpdate::Unchanged);
    }

    #[test]
    fn rule_changing_commits_reroute_constraints() {
        let mut d = db("ss(Mary, n1)\nemp(Mary)");
        d.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
            .unwrap();
        // Commit a *rule* that derives the trigger predicate: the rebuilt
        // model has no diff, so the constraint is re-checked in full…
        let report = d
            .transaction()
            .assert(f("forall x. hired(x) -> emp(x)"))
            .commit()
            .unwrap();
        assert_eq!(report.model, ModelUpdate::Rebuilt);
        assert_eq!(report.checks.full, 1);
        // …and from then on the emp(Sue) a hired-commit derives is in
        // the commit's model diff, which rejects it.
        let err = d
            .transaction()
            .assert(f("hired(Sue)"))
            .commit()
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolated(_)));
        // Once the rule is retracted hired no longer derives emp, so the
        // same batch is accepted and the constraint is skipped outright.
        let report = d
            .transaction()
            .retract(f("forall x. hired(x) -> emp(x)"))
            .commit()
            .unwrap();
        assert_eq!(report.retracted, 1);
        let report = d.transaction().assert(f("hired(Sue)")).commit().unwrap();
        assert_eq!(report.checks.skipped, 1);
        assert_eq!(report.checks.full, 0);
    }

    #[test]
    fn ground_atom_commits_compile_no_plans() {
        let mut d = db("e(n0, n1)\nforall x, y. e(x, y) -> t(x, y)\nforall x, y, z. e(x, y) & t(y, z) -> t(x, z)");
        assert!(d.definite.is_some(), "definite theory caches its plans");
        for i in 1..4 {
            let report = d
                .transaction()
                .assert(f(&format!("e(n{i}, n{})", i + 1)))
                .commit()
                .unwrap();
            let ModelUpdate::Incremental { stats, .. } = report.model else {
                panic!("expected the incremental path, got {:?}", report.model);
            };
            assert_eq!(
                stats.plans_compiled, 0,
                "commit {i} must reuse the cached plans"
            );
        }
    }

    #[test]
    fn rule_commits_rebuild_the_plan_cache() {
        let mut d = db("e(a, b)\nforall x, y. e(x, y) -> t(x, y)");
        assert_eq!(
            d.definite.as_ref().map(|d| d.plans.len()),
            Some(1),
            "one plan per rule"
        );
        // Commit a new rule: the cache must be rebuilt to include it, or
        // the next incremental commit would silently not derive u-facts.
        let _ = d
            .transaction()
            .assert(f("forall x, y. t(x, y) -> u2(x, y)"))
            .commit()
            .unwrap();
        let report = d.transaction().assert(f("e(b, c)")).commit().unwrap();
        assert!(matches!(report.model, ModelUpdate::Incremental { .. }));
        assert_eq!(d.ask(&f("K u2(b, c)")), Answer::Yes);
        // Leaving the definite fragment drops the cache entirely.
        let _ = d.transaction().assert(f("p(a) | p(b)")).commit().unwrap();
        assert!(d.definite.is_none());
    }

    #[test]
    fn incremental_commit_updates_answers_not_just_the_model() {
        let mut d = db("emp(Mary)\nforall x. emp(x) -> person(x)");
        let _ = d.transaction().assert(f("emp(Sue)")).commit().unwrap();
        // Derived consequence of the new fact via the rule:
        assert_eq!(d.ask(&f("K person(Sue)")), Answer::Yes);
        // And non-atomic queries (memo was not carried over stale):
        assert_eq!(d.ask(&f("exists x. K person(x)")), Answer::Yes);
    }
}
