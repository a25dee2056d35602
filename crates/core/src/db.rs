//! The `EpistemicDb` facade: a database that knows things.
//!
//! Wraps a FOPCE theory with the paper's full machinery: epistemic query
//! answering, the `demo` evaluator, integrity constraints as epistemic
//! sentences — each compiled once, when it is registered, and checked
//! through that one compiled violation ever after — with transactional
//! update checking.

use crate::ask;
use crate::demo;
use crate::engine::{definite_program, prover_and_program};
use crate::incremental::CompiledConstraint;
use crate::transaction::Transaction;
use crate::Answer;
use epilog_datalog::{Program, ProofTree, RulePlan};
use epilog_prover::Prover;
use epilog_storage::Database;
use epilog_syntax::formula::Atom;
use epilog_syntax::theory::TheoryError;
use epilog_syntax::{Admissibility, Formula, Param, Theory};
use std::fmt;
use std::sync::Arc;

/// The structured explanation of a constraint rejection: which constraint
/// the update would violate, the ground tuples witnessing the violation
/// (an instantiation of the constraint's positive `K`-literals that makes
/// the violation body certain in the candidate state), and — on request,
/// through [`Rejection::proofs`] — a derivation [`ProofTree`] for each
/// witness, derived against that rejected candidate state.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// The violated constraint, as registered.
    pub constraint: Formula,
    /// Ground witness tuples that trigger the violation in the rejected
    /// candidate state: the constraint's positive `K`-patterns under the
    /// first answer `demo` gives on its compiled violation body — read off
    /// the full check itself when the check ran in full. Empty only for a
    /// constraint outside the admissible `¬∃x̄ (K-conjunction)` fragment,
    /// which has no patterns to instantiate.
    pub witnesses: Vec<Atom>,
    /// The candidate state's definite program (`None` when it has none),
    /// shared with the candidate: what [`Rejection::proofs`] derives from.
    pub(crate) program: Option<Arc<Program>>,
}

impl Rejection {
    /// Proof trees for the witnesses, derived when asked from one
    /// fixpoint of the rejected candidate's program ([`Program::why`]):
    /// EDB witnesses appear as [`ProofTree::Fact`] leaves. Empty when the
    /// candidate theory is not definite.
    pub fn proofs(&self) -> Vec<ProofTree> {
        self.program.as_ref().map_or_else(Vec::new, |prog| {
            prog.why(&self.witnesses).into_iter().flatten().collect()
        })
    }
}

/// Errors from [`EpistemicDb`] operations.
#[derive(Debug)]
pub enum DbError {
    /// The sentence was not a valid database sentence.
    Theory(TheoryError),
    /// An update was rejected because it would violate an integrity
    /// constraint; the [`Rejection`] carries the offending constraint
    /// plus its ground witnesses (and their proof trees, on request) and
    /// the database is unchanged.
    ConstraintViolated(Box<Rejection>),
    /// A query outside the admissible fragment was given to `demo`.
    NotAdmissible(Admissibility),
    /// A constraint must be a sentence.
    OpenConstraint(Formula),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Theory(e) => write!(f, "{e}"),
            DbError::ConstraintViolated(r) => {
                write!(
                    f,
                    "update rejected: constraint `{}` would be violated",
                    r.constraint
                )?;
                if !r.witnesses.is_empty() {
                    write!(f, " (witnesses: ")?;
                    for (i, w) in r.witnesses.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{w}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            DbError::NotAdmissible(a) => write!(f, "query not admissible: {a}"),
            DbError::OpenConstraint(ic) => {
                write!(f, "constraint `{ic}` has free variables")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<TheoryError> for DbError {
    fn from(e: TheoryError) -> Self {
        DbError::Theory(e)
    }
}

/// A deductive database with epistemic queries and epistemic integrity
/// constraints.
///
/// Updates go through [`EpistemicDb::transaction`]: a batch of
/// `assert`/`retract` operations validated against the compiled
/// constraints and applied atomically, with the attached least model
/// maintained incrementally where possible. The one-shot
/// [`EpistemicDb::assert`]/[`EpistemicDb::retract`] wrap single-operation
/// transactions.
///
/// An `EpistemicDb` is `Clone + Sync`: queries take `&self`, so an
/// immutable clone wrapped in an `Arc` is a consistent snapshot any
/// number of reader threads can query concurrently (see
/// [`crate::mvcc`]). A clone shares with its original everything a
/// ground-atom commit does not change: the least model's storage run by
/// run (see [`epilog_storage::Relation`]), and the compiled constraints,
/// rule plans and definite program whole, behind `Arc`s. What a clone
/// still copies is the sentence list.
#[derive(Clone)]
pub struct EpistemicDb {
    pub(crate) prover: Prover,
    /// Every registered constraint in registration order, compiled once
    /// when it was registered.
    pub(crate) constraints: Arc<Vec<CompiledConstraint>>,
    /// The theory as a definite program with its plans; `Some` exactly
    /// when a least model is attached.
    pub(crate) definite: Option<Definite>,
    /// How many times the staleness trigger has recompiled the cached
    /// plans (observable via [`EpistemicDb::plan_recosts`]).
    pub(crate) plan_recosts: u64,
}

/// The theory as a definite Datalog program — what [`definite_program`]
/// would derive from the sentences — cached across commits with the plans
/// compiled from its rules. The rules depend only on the rule-shaped
/// sentences and the EDB is the set of ground-atom sentences, so a
/// ground-atom commit produces its candidate's program by editing a copy
/// of the EDB with the batch's own added and removed atoms (the copy
/// shares storage with this one) and never walks the sentence list, and
/// resumes the fixpoint through the cached plans without compiling
/// anything; only rule-changing commits derive both afresh. Debug builds
/// re-derive the program at every commit and compare.
#[derive(Clone)]
pub(crate) struct Definite {
    pub(crate) program: Arc<Program>,
    /// One [`RulePlan`] per rule of `program`, in order.
    pub(crate) plans: Arc<Vec<RulePlan>>,
    /// Total least-model size the plans were costed against: the baseline
    /// for the staleness trigger of [`Definite::recost`].
    pub(crate) costed_at: usize,
}

impl Definite {
    /// `program` with its plans compiled against its least model `model`
    /// as the cost statistics source (it covers intensional relations
    /// too).
    pub(crate) fn new(program: Arc<Program>, model: &Database) -> Self {
        let plans = program
            .rules
            .iter()
            .map(|r| RulePlan::compile(r, model))
            .collect();
        Definite {
            program,
            plans: Arc::new(plans),
            costed_at: model.len(),
        }
    }

    /// Re-cost the plans when `model` has drifted far from the statistics
    /// they were compiled against: the cost-based literal ordering is only
    /// as good as its cardinality estimates, and a model that has at least
    /// halved or doubled in total size since can invert join orders.
    /// Called after every commit (plans a rule-changing commit compiled
    /// are costed against its model already). Cheap when the trigger does
    /// not fire: one `len()` and two comparisons. Returns whether it
    /// recompiled.
    pub(crate) fn recost(&mut self, model: &Database) -> bool {
        let cur = model.len().max(1);
        let base = self.costed_at.max(1);
        if cur < base * 2 && base < cur * 2 {
            return false;
        }
        *self = Definite::new(Arc::clone(&self.program), model);
        true
    }
}

impl EpistemicDb {
    /// Open a database over a theory. Definite (fact + positive-rule)
    /// theories are routed through the bottom-up engine: their least model
    /// is materialized once and answers ground-atom questions directly.
    pub fn new(theory: Theory) -> Self {
        let (prover, program) = prover_and_program(theory);
        EpistemicDb {
            definite: program
                .zip(prover.atom_model())
                .map(|(p, model)| Definite::new(Arc::new(p), model)),
            prover,
            constraints: Arc::default(),
            plan_recosts: 0,
        }
    }

    /// Whether the cached program is what the sentences say it is (the
    /// invariant every commit maintains; checked in debug builds).
    pub(crate) fn program_is_current(&self) -> bool {
        let fresh = self
            .prover
            .atom_model()
            .and_then(|_| definite_program(self.prover.theory()));
        match (&self.definite, fresh) {
            (Some(d), Some(fresh)) => d.program.rules == fresh.rules && d.program.edb == fresh.edb,
            (None, None) => true,
            _ => false,
        }
    }

    /// How many times the planner's staleness trigger has recompiled the
    /// cached rule plans because the least model's total size halved or
    /// doubled since they were last costed.
    pub fn plan_recosts(&self) -> u64 {
        self.plan_recosts
    }

    /// Open a database from theory text.
    pub fn from_text(src: &str) -> Result<Self, DbError> {
        Ok(EpistemicDb::new(Theory::from_text(src)?))
    }

    /// The underlying theory.
    pub fn theory(&self) -> &Theory {
        self.prover.theory()
    }

    /// The underlying prover (for advanced callers: `demo`, the report,
    /// the differential suites).
    pub fn prover(&self) -> &Prover {
        &self.prover
    }

    /// The registered integrity constraints, as registered, in
    /// registration order.
    pub fn constraints(&self) -> impl ExactSizeIterator<Item = &Formula> {
        self.constraints.iter().map(|c| &c.original)
    }

    // ----- provenance -----------------------------------------------------

    /// Explain a ground atom of the least model: a minimal-height
    /// [`ProofTree`] down to EDB facts, derived when asked from one
    /// fixpoint of the cached definite program ([`Program::why`]). `None`
    /// when the theory is not definite (there is no least model to
    /// explain), the atom is not ground, or the atom is not in the model
    /// (the *why-not* answer: nothing derives it) — the last two read off
    /// the attached model without running anything.
    pub fn why(&self, atom: &Atom) -> Option<ProofTree> {
        if !self.prover.atom_model()?.contains(atom) {
            return None;
        }
        self.definite
            .as_ref()?
            .program
            .why(std::slice::from_ref(atom))
            .pop()
            .flatten()
    }

    // ----- queries --------------------------------------------------------

    /// Answer a KFOPCE sentence query: yes / no / unknown
    /// (Definition 2.1), via the Levesque-style reduction. An
    /// unsatisfiable theory entails every sentence: it answers *yes*.
    pub fn ask(&self, q: &Formula) -> Answer {
        ask::ask(&self.prover, q)
    }

    /// All certain answers to an open KFOPCE query.
    pub fn answers(&self, q: &Formula) -> Vec<Vec<Param>> {
        ask::answers(&self.prover, q)
    }

    /// Run the Prolog-style `demo` evaluator (sound for admissible
    /// queries, Theorem 5.1); returns the lazy binding stream.
    pub fn demo(&self, q: &Formula) -> Result<demo::DemoStream<'_>, DbError> {
        demo::demo(&self.prover, q).map_err(DbError::NotAdmissible)
    }

    /// All (deduplicated) `demo` answers — the §6.1.1 iteration.
    pub fn demo_all(&self, q: &Formula) -> Result<Vec<Vec<Param>>, DbError> {
        demo::all_answers(&self.prover, q).map_err(DbError::NotAdmissible)
    }

    // ----- integrity ------------------------------------------------------

    /// Register a constraint (a KFOPCE sentence); returns whether it was
    /// new. It is compiled once, here, and the current state must satisfy
    /// it, otherwise the registration is rejected with the witnesses of
    /// the violation. Commits check it on what their model diff can have
    /// violated; one outside the compilable fragment is re-checked in
    /// full at every commit. A constraint syntactically equal to one
    /// already registered changes nothing (`Ok(false)`): the state
    /// satisfies it already, and every commit checks it once. One nested
    /// deeper than [`MAX_NESTING`](epilog_syntax::MAX_NESTING) is refused
    /// ([`TheoryError::TooDeep`]).
    pub fn add_constraint(&mut self, ic: Formula) -> Result<bool, DbError> {
        if !ic.within_nesting_bound() {
            return Err(TheoryError::TooDeep.into());
        }
        if !ic.is_sentence() {
            return Err(DbError::OpenConstraint(ic));
        }
        if self.constraints().any(|c| *c == ic) {
            return Ok(false);
        }
        let compiled = CompiledConstraint::compile(&ic);
        if let Some(witnesses) = compiled.violated(&self.prover) {
            return Err(DbError::ConstraintViolated(Box::new(Rejection {
                constraint: ic,
                witnesses,
                program: self.definite.as_ref().map(|d| Arc::clone(&d.program)),
            })));
        }
        Arc::make_mut(&mut self.constraints).push(compiled);
        Ok(true)
    }

    /// Whether the database currently satisfies every registered
    /// constraint (`Σ ⊨ IC` for each, Definition 3.5).
    pub fn satisfies_constraints(&self) -> bool {
        self.constraints
            .iter()
            .all(|c| c.violated(&self.prover).is_none())
    }

    // ----- updates --------------------------------------------------------

    /// Open a transaction: a batch of `assert`/`retract` operations
    /// validated against the compiled constraints and applied atomically
    /// on [`Transaction::commit`]. See [`crate::transaction`] for the
    /// incremental-maintenance machinery behind it.
    pub fn transaction(&mut self) -> Transaction<'_> {
        Transaction::new(self)
    }

    /// Transactionally assert a sentence: if the enlarged database would
    /// violate a constraint, the update is rejected and the state is
    /// unchanged. Equivalent to a single-operation
    /// [`EpistemicDb::transaction`].
    pub fn assert(&mut self, w: Formula) -> Result<(), DbError> {
        self.transaction().assert(w).commit().map(|_| ())
    }

    /// Transactionally retract a sentence (no-op when absent, without
    /// cloning or re-checking anything); constraint checked like
    /// [`EpistemicDb::assert`]. Returns whether the sentence was present.
    pub fn retract(&mut self, w: &Formula) -> Result<bool, DbError> {
        let report = self.transaction().retract(w.clone()).commit()?;
        Ok(report.retracted > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    fn db(src: &str) -> EpistemicDb {
        EpistemicDb::from_text(src).unwrap()
    }

    #[test]
    fn ask_and_answers() {
        let d = db("Teach(John, Math)\nexists x. Teach(x, CS)");
        assert_eq!(d.ask(&parse("K Teach(John, Math)").unwrap()), Answer::Yes);
        assert_eq!(d.ask(&parse("Teach(John, CS)").unwrap()), Answer::Unknown);
        let got = d.answers(&parse("K Teach(John, x)").unwrap());
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn registering_a_constraint_twice_registers_it_once() {
        let mut d = db("emp(Mary)\nss(Mary, n1)");
        let ic = parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap();
        assert!(d.add_constraint(ic.clone()).unwrap());
        assert!(!d.add_constraint(ic.clone()).unwrap());
        assert_eq!(d.constraints().count(), 1);
        // Equal means syntactically equal: a rewording is another one.
        let reworded = parse("forall y. K emp(y) -> exists z. K ss(y, z)").unwrap();
        assert!(d.add_constraint(reworded).unwrap());
        assert_eq!(d.constraints().count(), 2);
    }

    #[test]
    fn demo_passthrough() {
        let d = db("p(a)\nq(a)");
        let got = d.demo_all(&parse("K p(x) & K q(x)").unwrap()).unwrap();
        assert_eq!(got.len(), 1);
        assert!(d.demo(&parse("exists x. p(x) & ~K q(x)").unwrap()).is_err());
    }

    #[test]
    fn constraint_lifecycle() {
        let mut d = db("emp(Mary)\nss(Mary, n1)");
        let ic = parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap();
        d.add_constraint(ic.clone()).unwrap();
        assert!(d.satisfies_constraints());
        // Adding an employee without a number is rejected.
        let err = d.assert(parse("emp(Sue)").unwrap()).unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolated(_)));
        // State unchanged.
        assert_eq!(d.ask(&parse("K emp(Sue)").unwrap()), Answer::No);
        // Adding both facts in the right order: number first.
        d.assert(parse("ss(Sue, n2)").unwrap()).unwrap();
        d.assert(parse("emp(Sue)").unwrap()).unwrap();
        assert!(d.satisfies_constraints());
    }

    #[test]
    fn constraint_must_hold_at_registration() {
        let mut d = db("emp(Mary)");
        let ic = parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap();
        assert!(matches!(
            d.add_constraint(ic),
            Err(DbError::ConstraintViolated(_))
        ));
        assert_eq!(d.constraints().len(), 0);
    }

    #[test]
    fn retract_can_restore_integrity_paths() {
        let mut d = db("emp(Mary)\nss(Mary, n1)");
        d.add_constraint(parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap())
            .unwrap();
        // Retracting the ss fact while Mary is an employee is rejected.
        let err = d.retract(&parse("ss(Mary, n1)").unwrap()).unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolated(_)));
        // Retract the employee first, then the number.
        assert!(d.retract(&parse("emp(Mary)").unwrap()).unwrap());
        assert!(d.retract(&parse("ss(Mary, n1)").unwrap()).unwrap());
        assert!(!d.retract(&parse("ss(Mary, n1)").unwrap()).unwrap());
    }

    #[test]
    fn fact_drift_triggers_plan_recosting() {
        let mut d = db("e(a, b)\nforall x, y. e(x, y) -> t(x, y)");
        assert_eq!(d.plan_recosts(), 0);
        // The model is {e(a,b), t(a,b)}; one more edge doubles it to 4
        // tuples, tripping the staleness trigger.
        d.assert(parse("e(b, c)").unwrap()).unwrap();
        assert_eq!(d.plan_recosts(), 1);
        // The baseline reset to 4: sub-doubling growth stays quiet.
        d.assert(parse("hobby(c, chess)").unwrap()).unwrap();
        assert_eq!(d.plan_recosts(), 1);
        // Rule commits recompile unconditionally and reset the baseline
        // without counting as a re-cost.
        d.assert(parse("forall x, y. t(x, y) -> u(x, y)").unwrap())
            .unwrap();
        assert_eq!(d.plan_recosts(), 1);
    }

    #[test]
    fn open_constraint_rejected() {
        let mut d = db("p(a)");
        assert!(matches!(
            d.add_constraint(parse("K p(x)").unwrap()),
            Err(DbError::OpenConstraint(_))
        ));
    }
}
