//! Bottom-up evaluation: naive and semi-naive fixpoints over stratified
//! programs, executing compiled [`RulePlan`]s.
//!
//! Every rule is compiled **once** before the fixpoint starts (dense
//! variable slots, greedily reordered literals, precomputed selection
//! shapes — see [`crate::plan`]), and the storage indexes the plans probe
//! are built once per stratum and maintained incrementally as facts are
//! inserted. Semi-naive rounds advance an explicit
//! [`DeltaDatabase`] stable/delta split: round 1 of a
//! stratum runs each rule's full plan, and every later round runs one plan
//! variant per positive literal whose predicate actually gained facts —
//! variants whose delta relation is empty are skipped without counting as
//! a firing.

use crate::plan::RulePlan;
use crate::program::{DatalogError, Program};
use crate::provenance::{ProvenanceSink, SupportTable};
use epilog_storage::{
    ConjunctionPlan, Database, DeltaDatabase, StepStrategy, Tuple, PAR_MIN_PROBE_OUTER,
};
use epilog_syntax::{Param, Pred};

/// Default minimum number of driving rows — the delta of a semi-naive
/// round, or the stable total seeding a full first round — before fanning
/// a round's firing jobs out across threads pays for the spawn and merge
/// overhead. Below it (one-row commit resumes, small strata) the round
/// runs sequentially at its current latency.
pub const PAR_MIN_FANOUT_ROWS: usize = 128;

/// Which join planner compiles the rule plans of an evaluation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlannerMode {
    /// The seed planner: literals ordered greedily by bound-column count,
    /// every step an index probe or a residual scan. Kept as the ablation
    /// baseline for the planner-differential property suite and the
    /// `f9_joins` bench.
    Greedy,
    /// Cost-based ordering from live relation cardinalities
    /// (EDB statistics), with hash build+probe steps for multi-column
    /// joins against large relations.
    #[default]
    CostBased,
}

/// Counters reported by an evaluation run (for the `f2_datalog`/
/// `f6_scaling`/`f9_joins` benches and for tests asserting that
/// semi-naive does strictly less work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of executed join plans: one per rule per naive round (and
    /// per round 1 of each semi-naive stratum), one per nonempty-delta
    /// variant in later semi-naive rounds.
    pub rule_firings: u64,
    /// The subset of [`EvalStats::rule_firings`] that executed a **full**
    /// (non-delta) plan: every naive firing, and round 1 of each
    /// semi-naive stratum. A resumed fixpoint
    /// ([`Program::eval_incremental`]) reports 0 here — it only ever runs
    /// delta variants.
    pub full_firings: u64,
    /// Number of head atoms derived (including duplicates).
    pub derivations: u64,
    /// Number of fixpoint iterations across all strata.
    pub iterations: u64,
    /// Join steps executed as single-column index probes, counted once
    /// per step per firing.
    pub probe_steps: u64,
    /// Join steps executed as hash build+probe, counted once per step per
    /// firing.
    pub hash_steps: u64,
    /// Join steps executed as full/residual scans, counted once per step
    /// per firing.
    pub scan_steps: u64,
    /// Semi-naive delta variants **skipped** because their delta relation
    /// was empty. Disambiguates "the variant never ran" from "the variant
    /// ran and matched nothing": a firing with zero derivations still
    /// counts its steps above, a skipped variant counts here and nowhere
    /// else.
    pub variants_skipped: u64,
    /// Candidate tuples examined across all join steps: tuples pulled
    /// from scans and probed buckets (including ones residual filtering
    /// rejected), tuples read while building hash tables, and hash-bucket
    /// entries probed. The deterministic work-done measure the F9 report
    /// table compares planners by.
    pub rows_examined: u64,
    /// Rule plans compiled for this run. Zero on the cached-plan path
    /// ([`Program::eval_incremental_with`]) — the `CommitReport` evidence
    /// that ground-atom commits recompile nothing.
    pub plans_compiled: u64,
    /// DRed phase 1 ([`Program::eval_decremental_with`]): tuples the
    /// over-deletion fixpoint removed from the model — the retracted
    /// facts themselves plus everything transitively derivable from them.
    pub tuples_overdeleted: u64,
    /// DRed phase 3: over-deleted tuples put back because an alternative
    /// derivation (or extensional membership) still supports them.
    pub tuples_rederived: u64,
    /// DRed phase 3: support queries executed — one per over-deleted
    /// tuple per candidate rule head, until one succeeds. These run the
    /// prebound `RulePlan::support` plan, never a full firing.
    pub support_checks: u64,
    /// Provenance: novel [`Support`](crate::provenance::Support) records
    /// a traced run retained after deduplication. Always 0 on the
    /// untraced entry points — the observable proof that tracking is off.
    pub supports_recorded: u64,
    /// DRed phase 3 with a support table
    /// ([`Program::eval_decremental_traced`]): over-deleted tuples whose
    /// recorded alternative support had no over-deleted parent, seeding
    /// re-derivation **without** running the support plan. Each hit is a
    /// [`EvalStats::support_checks`] probe saved.
    pub support_hits: u64,
    /// Fixpoint rounds whose firing jobs ran on ≥ 2 worker threads
    /// (rule-variant fan-out or partitioned hash probes). Zero whenever
    /// the thread budget is 1 or every round stayed under the work-size
    /// thresholds — the observable proof that `EPILOG_THREADS=1` takes
    /// the sequential path.
    pub parallel_rounds: u64,
    /// Maximum worker threads any parallel operation of the run engaged;
    /// 0 when the whole run was sequential. [`EvalStats::absorb`] merges
    /// this by maximum (it is a high-water mark, not a sum).
    pub threads_used: u64,
}

impl EvalStats {
    /// Accumulate another run's counters into this one — used by commits
    /// that chain a deletion fixpoint and an insertion fixpoint (a mixed
    /// retract/assert batch) into one reported figure.
    pub fn absorb(&mut self, other: &EvalStats) {
        self.rule_firings += other.rule_firings;
        self.full_firings += other.full_firings;
        self.derivations += other.derivations;
        self.iterations += other.iterations;
        self.probe_steps += other.probe_steps;
        self.hash_steps += other.hash_steps;
        self.scan_steps += other.scan_steps;
        self.variants_skipped += other.variants_skipped;
        self.rows_examined += other.rows_examined;
        self.plans_compiled += other.plans_compiled;
        self.tuples_overdeleted += other.tuples_overdeleted;
        self.tuples_rederived += other.tuples_rederived;
        self.support_checks += other.support_checks;
        self.supports_recorded += other.supports_recorded;
        self.support_hits += other.support_hits;
        self.parallel_rounds += other.parallel_rounds;
        self.threads_used = self.threads_used.max(other.threads_used);
    }
}

/// Evaluation options: strategy, planner, and the parallel-execution
/// knobs. [`EvalOptions::default`] is what [`Program::eval`] runs —
/// semi-naive, cost-based, thread budget resolved from the
/// `EPILOG_THREADS` environment override (or the hardware parallelism),
/// default work-size thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Semi-naive (`true`) or naive (`false`) fixpoint.
    pub seminaive: bool,
    /// Which planner compiles the rule plans.
    pub planner: PlannerMode,
    /// Worker-thread budget. `0` resolves to the `EPILOG_THREADS`
    /// environment override when set, else the hardware parallelism;
    /// `1` forces the sequential path bit-for-bit.
    pub threads: usize,
    /// Minimum driving rows before a round's firing jobs fan out
    /// ([`PAR_MIN_FANOUT_ROWS`]).
    pub par_fanout_min_rows: usize,
    /// Minimum estimated outer cardinality before a hash step's probes
    /// are partitioned ([`PAR_MIN_PROBE_OUTER`]).
    pub par_probe_min_outer: u64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            seminaive: true,
            planner: PlannerMode::CostBased,
            threads: 0,
            par_fanout_min_rows: PAR_MIN_FANOUT_ROWS,
            par_probe_min_outer: PAR_MIN_PROBE_OUTER,
        }
    }
}

/// Resolved parallel-execution context threaded through the fixpoint:
/// an effective thread budget (never 0) plus the work-size thresholds.
#[derive(Clone, Copy)]
struct ParCtx {
    threads: usize,
    fanout_min_rows: usize,
    probe_min_outer: u64,
}

impl ParCtx {
    fn from_opts(opts: &EvalOptions) -> ParCtx {
        let threads = if opts.threads == 0 {
            threadpool::configured()
        } else {
            opts.threads
        };
        ParCtx {
            threads,
            fanout_min_rows: opts.par_fanout_min_rows,
            probe_min_outer: opts.par_probe_min_outer,
        }
    }

    /// The context of the incremental/decremental entry points, which
    /// keep their historical signatures: default thresholds, thread
    /// budget from the environment.
    fn auto() -> ParCtx {
        Self::from_opts(&EvalOptions::default())
    }

    /// The same thresholds with the thread budget collapsed to 1 — used
    /// inside a fan-out so jobs never nest another parallel layer.
    fn sequential(self) -> ParCtx {
        ParCtx { threads: 1, ..self }
    }
}

impl Program {
    /// Compute the perfect model by **semi-naive** evaluation: after the
    /// first round of each stratum, only join against the delta of the
    /// previous round. Plans are compiled cost-based
    /// ([`PlannerMode::CostBased`]) from the EDB's live statistics.
    pub fn eval(&self) -> Result<(Database, EvalStats), DatalogError> {
        self.eval_opts(EvalOptions::default())
    }

    /// Compute the perfect model by **naive** evaluation: re-derive
    /// everything from scratch each iteration. Kept as the ablation
    /// baseline.
    pub fn eval_naive(&self) -> Result<(Database, EvalStats), DatalogError> {
        self.eval_opts(EvalOptions {
            seminaive: false,
            ..EvalOptions::default()
        })
    }

    /// Compute the perfect model with an explicit evaluation strategy and
    /// join planner — the ablation surface behind [`Program::eval`] /
    /// [`Program::eval_naive`], used by the planner-differential property
    /// suite and the `f9_joins` bench.
    pub fn eval_with(
        &self,
        seminaive: bool,
        planner: PlannerMode,
    ) -> Result<(Database, EvalStats), DatalogError> {
        self.eval_opts(EvalOptions {
            seminaive,
            planner,
            ..EvalOptions::default()
        })
    }

    /// Compute the perfect model with full [`EvalOptions`] control —
    /// notably an explicit thread budget and parallel work-size
    /// thresholds, which the parallel differential tests use to compare
    /// thread counts in-process without touching the environment.
    pub fn eval_opts(&self, opts: EvalOptions) -> Result<(Database, EvalStats), DatalogError> {
        self.run(opts, None)
    }

    /// [`Program::eval_opts`] with **provenance tracking**: every head
    /// derivation of the fixpoint records a
    /// [`Support`](crate::provenance::Support) — the firing rule and the
    /// ground positive body tuples it matched — into `table`. The model
    /// and every pre-existing [`EvalStats`] counter are identical to the
    /// untraced run's (recording happens inside the same match callbacks;
    /// parallel shards buffer their own records and merge in plan order).
    ///
    /// Semi-naive evaluation fires every ground rule instantiation whose
    /// body first becomes true, so for a **definite** program the table
    /// affords a proof tree ([`SupportTable::why`]) for every derived
    /// tuple of the least model. With stratified negation the recorded
    /// parents are the positive premises only.
    pub fn eval_traced(
        &self,
        opts: EvalOptions,
        table: &mut SupportTable,
    ) -> Result<(Database, EvalStats), DatalogError> {
        let mut sink = ProvenanceSink::new();
        let (db, mut stats) = self.run(opts, Some(&mut sink))?;
        stats.supports_recorded += table.absorb(sink);
        Ok((db, stats))
    }

    /// Resume the least-model fixpoint of a **definite** (negation-free)
    /// program from a model already computed for a smaller fact set.
    ///
    /// `model` must be the least model of this program minus `new_facts`
    /// (i.e. the state before the update), and `new_facts` the ground
    /// atoms an update adds. The genuinely new facts are installed as the
    /// semi-naive delta ([`DeltaDatabase::resume`]) and the fixpoint
    /// continues with **delta-variant plans only** — no full round
    /// re-derives the existing model, so the cost scales with the
    /// consequences of the delta rather than the size of the theory. The
    /// returned [`EvalStats`] covers only the resumed work
    /// (`full_firings` is always 0 on this path).
    ///
    /// Programs with negated body literals cannot be resumed
    /// monotonically — an addition may *retract* conclusions of a higher
    /// stratum — so they fall back to a full [`Program::eval`].
    pub fn eval_incremental(
        &self,
        model: Database,
        new_facts: &Database,
    ) -> Result<(Database, EvalStats), DatalogError> {
        if self.has_negation() {
            // Non-monotone: recompute from the enlarged EDB.
            drop(model);
            let mut prog = self.clone();
            prog.edb.union_with(new_facts);
            return prog.eval();
        }
        // Compile against the existing model: it covers the intensional
        // relations too, so the cost estimates are exact.
        let plans: Vec<RulePlan> = self
            .rules
            .iter()
            .map(|r| RulePlan::compile_with_stats(r, Some(&model)))
            .collect();
        let mut result = self.eval_incremental_with(&plans, model, new_facts)?;
        result.1.plans_compiled += plans.len() as u64;
        Ok(result)
    }

    /// [`Program::eval_incremental`] with **caller-supplied plans** — the
    /// cross-commit plan-cache hook. `plans` must be the compiled plans
    /// of exactly `self.rules`, in order (they depend only on the rule
    /// shapes, so a cache owner invalidates them precisely when a commit
    /// changes the rule set). Reports `plans_compiled == 0`: the whole
    /// point of the cache is that ground-atom commits recompile nothing.
    ///
    /// Falls back to a full [`Program::eval`] (which does compile) when
    /// the program has negated body literals, exactly like
    /// [`Program::eval_incremental`].
    pub fn eval_incremental_with(
        &self,
        plans: &[RulePlan],
        model: Database,
        new_facts: &Database,
    ) -> Result<(Database, EvalStats), DatalogError> {
        if self.has_negation() {
            drop(model);
            let mut prog = self.clone();
            prog.edb.union_with(new_facts);
            return prog.eval();
        }
        self.incremental_impl(plans, model, new_facts, None)
    }

    /// [`Program::eval_incremental_with`] with provenance: every firing
    /// of the resumed fixpoint records its
    /// [`Support`](crate::provenance::Support) into `table`, which must
    /// already hold the supports of `model`. Falls back to a full traced
    /// evaluation — rebuilding `table` from scratch — when the program
    /// has negated body literals, exactly like the untraced entry point.
    pub fn eval_incremental_traced(
        &self,
        plans: &[RulePlan],
        model: Database,
        new_facts: &Database,
        table: &mut SupportTable,
    ) -> Result<(Database, EvalStats), DatalogError> {
        if self.has_negation() {
            drop(model);
            let mut prog = self.clone();
            prog.edb.union_with(new_facts);
            *table = SupportTable::new();
            return prog.eval_traced(EvalOptions::default(), table);
        }
        let mut sink = ProvenanceSink::new();
        let (db, mut stats) = self.incremental_impl(plans, model, new_facts, Some(&mut sink))?;
        stats.supports_recorded += table.absorb(sink);
        Ok((db, stats))
    }

    fn incremental_impl(
        &self,
        plans: &[RulePlan],
        model: Database,
        new_facts: &Database,
        sink: Option<&mut ProvenanceSink>,
    ) -> Result<(Database, EvalStats), DatalogError> {
        debug_assert_eq!(plans.len(), self.rules.len(), "one plan per rule");
        let mut stats = EvalStats::default();
        let plan_refs: Vec<(usize, &RulePlan)> = plans.iter().enumerate().collect();
        let mut ddb = DeltaDatabase::resume(model, new_facts);
        {
            let (total, _) = ddb.parts_mut();
            for (_, plan) in &plan_refs {
                plan.ensure_total_indexes(total);
            }
        }
        seminaive_rounds(
            &plan_refs,
            &mut ddb,
            false,
            &mut stats,
            sink,
            ParCtx::auto(),
        );
        let mut db = ddb.into_total();
        db.prune_empty();
        Ok((db, stats))
    }

    /// Shrink the least model of a **definite** program after a
    /// retraction, without recomputing it from scratch — the
    /// delete-and-re-derive (DRed) algorithm. Compiles plans against the
    /// pre-retraction model; see [`Program::eval_decremental_with`] for
    /// the cached-plan variant and the contract.
    pub fn eval_decremental(
        &self,
        model: Database,
        removed_facts: &Database,
    ) -> Result<(Database, EvalStats), DatalogError> {
        if self.has_negation() {
            drop(model);
            return self.eval();
        }
        let plans: Vec<RulePlan> = self
            .rules
            .iter()
            .map(|r| RulePlan::compile_with_stats(r, Some(&model)))
            .collect();
        let mut result = self.eval_decremental_with(&plans, model, removed_facts)?;
        result.1.plans_compiled += plans.len() as u64;
        Ok(result)
    }

    /// [`Program::eval_decremental`] with **caller-supplied plans** — the
    /// cross-commit plan-cache hook for retract commits.
    ///
    /// `self` must be the **post-retraction** program (its EDB no longer
    /// holds `removed_facts`), `model` the least model of the
    /// pre-retraction program, and `removed_facts` the ground atoms the
    /// update removes. The result is exactly the least model of `self`,
    /// computed in four phases:
    ///
    /// 1. **over-delete**: starting from the removed facts still present
    ///    in the model, run the delta variants against the *original*
    ///    model to collect everything derivable from the deleted set —
    ///    the standard over-approximation of the facts that may have lost
    ///    their derivation;
    /// 2. **prune** the over-deleted set from the model
    ///    ([`Database::remove_tuple`] maintains column indexes
    ///    incrementally);
    /// 3. **re-derive seeds**: an over-deleted tuple survives if it is
    ///    still extensional, or if some rule body re-derives it from the
    ///    pruned model — answered per tuple by the prebound
    ///    [`RulePlan::support`] plan (`support_checks`), never by a full
    ///    firing;
    /// 4. **propagate**: the surviving seeds resume the ordinary
    ///    semi-naive insertion fixpoint, restoring everything reachable
    ///    from them.
    ///
    /// The returned stats report `full_firings == 0` and
    /// `plans_compiled == 0`; programs with negated body literals fall
    /// back to a full [`Program::eval`] exactly like the insertion path.
    pub fn eval_decremental_with(
        &self,
        plans: &[RulePlan],
        model: Database,
        removed_facts: &Database,
    ) -> Result<(Database, EvalStats), DatalogError> {
        if self.has_negation() {
            drop(model);
            return self.eval();
        }
        self.decremental_impl(plans, model, removed_facts, None)
    }

    /// [`Program::eval_decremental_with`] both **consuming and
    /// maintaining** a support table. Phase 3 consults the recorded
    /// supports first: an over-deleted tuple with a support whose parents
    /// all escaped over-deletion is known to survive without running its
    /// support probe (`support_hits` counts the saved `support_checks`).
    /// Probe fallbacks record the derivation they find, phase 4 records
    /// its re-derivations, and supports deriving — or depending on — a
    /// net-removed atom are purged, so `table` leaves holding exactly the
    /// supports of the returned model. Falls back to a full traced
    /// evaluation (rebuilding `table`) on programs with negation.
    pub fn eval_decremental_traced(
        &self,
        plans: &[RulePlan],
        model: Database,
        removed_facts: &Database,
        table: &mut SupportTable,
    ) -> Result<(Database, EvalStats), DatalogError> {
        if self.has_negation() {
            drop(model);
            *table = SupportTable::new();
            return self.eval_traced(EvalOptions::default(), table);
        }
        self.decremental_impl(plans, model, removed_facts, Some(table))
    }

    fn decremental_impl(
        &self,
        plans: &[RulePlan],
        model: Database,
        removed_facts: &Database,
        mut table: Option<&mut SupportTable>,
    ) -> Result<(Database, EvalStats), DatalogError> {
        debug_assert_eq!(plans.len(), self.rules.len(), "one plan per rule");
        let mut stats = EvalStats::default();
        let mut model = model;
        let par = ParCtx::auto();
        let plan_refs: Vec<(usize, &RulePlan)> = plans.iter().enumerate().collect();

        // Phase 1 — over-delete. Seed with the removed facts actually in
        // the model; absent retracts delete nothing. Over-deletion
        // firings are *removals*, never derivations — nothing here is
        // recorded as provenance.
        let mut seed = Database::new();
        for (pred, rel) in removed_facts.relations() {
            for t in rel.iter() {
                if model.contains_tuple(pred, t) {
                    seed.insert_tuple(pred, t.clone());
                }
            }
        }
        if seed.is_empty() {
            return Ok((model, stats));
        }
        for (_, plan) in &plan_refs {
            plan.ensure_total_indexes(&mut model);
        }
        let mut deleted = DeltaDatabase::new(Database::new());
        deleted.advance(&seed);
        while !deleted.delta().is_empty() {
            stats.iterations += 1;
            {
                // Delta-side index warm-up; the deleted split is disjoint
                // from `model`, so both borrows are independent.
                let (_, delta) = deleted.parts_mut();
                for (_, plan) in &plan_refs {
                    for (_, variant) in &plan.variants {
                        variant.ensure_indexes(&mut model, Some(delta));
                    }
                }
            }
            let mut next = Database::new();
            let mut jobs: Vec<(usize, &RulePlan, &ConjunctionPlan)> = Vec::new();
            for (idx, plan) in &plan_refs {
                for (pred, variant) in &plan.variants {
                    if deleted.delta().relation(*pred).is_none_or(|r| r.is_empty()) {
                        stats.variants_skipped += 1;
                        continue;
                    }
                    jobs.push((*idx, plan, variant));
                }
            }
            stats.rule_firings += jobs.len() as u64;
            let round_threads = fire_jobs(
                &jobs,
                &model,
                Some(deleted.delta()),
                deleted.delta().len(),
                &mut next,
                &mut stats,
                None,
                par,
            );
            if round_threads >= 2 {
                stats.parallel_rounds += 1;
            }
            // Every candidate is already in the model (the model is closed
            // under the rules and the delta is a subset of it), so advance
            // filters only against what is already marked deleted.
            deleted.advance(&next);
        }
        let deleted = deleted.into_total();
        stats.tuples_overdeleted = deleted.len() as u64;

        // Phase 2 — prune the over-approximation from the model.
        for (pred, rel) in deleted.relations() {
            for t in rel.iter() {
                model.remove_tuple(pred, t);
            }
        }

        // Phase 3 — find the survivors: extensional membership in the
        // post-retraction EDB, a recorded support disjoint from the
        // over-deleted set (every such parent is still in the pruned
        // model, so the body match is known without probing), or an
        // alternative derivation found by the prebound support plan.
        for (_, plan) in &plan_refs {
            plan.ensure_support_indexes(&mut model);
        }
        let over_ids = table.as_ref().map(|t| t.ids_in(&deleted));
        let mut seeds = Database::new();
        for (pred, rel) in deleted.relations() {
            for t in rel.iter() {
                if self.edb.contains_tuple(pred, t) {
                    seeds.insert_tuple(pred, t.clone());
                    continue;
                }
                if let (Some(tab), Some(over)) = (table.as_deref(), over_ids.as_ref()) {
                    if tab.has_surviving_support(pred, t, over) {
                        stats.support_hits += 1;
                        seeds.insert_tuple(pred, t.clone());
                        continue;
                    }
                }
                for (idx, plan) in &plan_refs {
                    if plan.head.pred != pred {
                        continue;
                    }
                    let mut env = vec![None; plan.slots.len()];
                    if !plan.bind_head(t, &mut env) {
                        continue;
                    }
                    stats.support_checks += 1;
                    let mut witness: Option<Vec<(Pred, Tuple)>> = None;
                    plan.support.for_each_match_counting(
                        &model,
                        None,
                        &mut env,
                        &mut stats.rows_examined,
                        &mut |env| {
                            if witness.is_none() {
                                // Ground the support plan's positive body
                                // — the parents of the found derivation.
                                witness = Some(
                                    plan.support
                                        .steps()
                                        .iter()
                                        .map(|s| (s.template.pred, s.template.ground(env)))
                                        .collect(),
                                );
                            }
                        },
                    );
                    if let Some(parents) = witness {
                        // The probe found a live derivation from the
                        // pruned model — record it so the next deletion
                        // can skip this probe.
                        if let Some(tab) = table.as_deref_mut() {
                            stats.supports_recorded +=
                                tab.record(pred, t, *idx as u32, &parents) as u64;
                        }
                        seeds.insert_tuple(pred, t.clone());
                        break;
                    }
                }
            }
        }

        // Phase 4 — propagate the survivors with the ordinary insertion
        // fixpoint. Everything it adds back was over-deleted (the model
        // was closed before the prune), so it reuses the delta variants.
        let mut sink = table.is_some().then(ProvenanceSink::new);
        let mut ddb = DeltaDatabase::resume(model, &seeds);
        {
            let (total, _) = ddb.parts_mut();
            for (_, plan) in &plan_refs {
                plan.ensure_total_indexes(total);
            }
        }
        seminaive_rounds(&plan_refs, &mut ddb, false, &mut stats, sink.as_mut(), par);
        let mut db = ddb.into_total();
        stats.tuples_rederived = deleted
            .relations()
            .map(|(pred, rel)| rel.iter().filter(|t| db.contains_tuple(pred, t)).count() as u64)
            .sum();
        db.prune_empty();
        if let (Some(tab), Some(sink)) = (table, sink) {
            // Net-removed atoms — over-deleted and not re-derived — take
            // their supports, and every support depending on them, out of
            // the table before the re-derivation records come in.
            let mut gone = Database::new();
            for (pred, rel) in deleted.relations() {
                for t in rel.iter() {
                    if !db.contains_tuple(pred, t) {
                        gone.insert_tuple(pred, t.clone());
                    }
                }
            }
            tab.purge(&gone);
            stats.supports_recorded += tab.absorb(sink);
        }
        Ok((db, stats))
    }

    fn has_negation(&self) -> bool {
        self.rules
            .iter()
            .any(|r| r.body.iter().any(|l| !l.positive))
    }

    fn run(
        &self,
        opts: EvalOptions,
        mut sink: Option<&mut ProvenanceSink>,
    ) -> Result<(Database, EvalStats), DatalogError> {
        let strata = self.stratify()?;
        let max_stratum = strata.values().copied().max().unwrap_or(0);
        let mut db = self.edb.clone();
        let mut stats = EvalStats::default();
        let par = ParCtx::from_opts(&opts);

        // Compile every rule exactly once; plans are reused each round.
        let edb_stats = match opts.planner {
            PlannerMode::Greedy => None,
            PlannerMode::CostBased => Some(&self.edb),
        };
        let plans: Vec<(usize, RulePlan)> = self
            .rules
            .iter()
            .map(|r| {
                (
                    strata[&r.head.pred],
                    RulePlan::compile_with_stats(r, edb_stats),
                )
            })
            .collect();
        stats.plans_compiled = plans.len() as u64;

        for level in 0..=max_stratum {
            // Each plan keeps its **global** rule index — the identity a
            // provenance record names — independent of stratum grouping.
            let level_plans: Vec<(usize, &RulePlan)> = plans
                .iter()
                .enumerate()
                .filter(|(_, (l, _))| *l == level)
                .map(|(i, (_, p))| (i, p))
                .collect();
            if level_plans.is_empty() {
                continue;
            }
            if opts.seminaive {
                db = fix_seminaive(&level_plans, db, &mut stats, sink.as_deref_mut(), par);
            } else {
                fix_naive(&level_plans, &mut db, &mut stats, sink.as_deref_mut(), par);
            }
        }
        // Index warm-up may have created empty relations for body
        // predicates without facts; the result is a set of atoms.
        db.prune_empty();
        Ok((db, stats))
    }
}

/// Semi-naive fixpoint of one stratum over a stable/delta split.
fn fix_seminaive(
    plans: &[(usize, &RulePlan)],
    db: Database,
    stats: &mut EvalStats,
    sink: Option<&mut ProvenanceSink>,
    par: ParCtx,
) -> Database {
    let mut ddb = DeltaDatabase::new(db);
    // Warm the total-side indexes once; incremental maintenance keeps
    // them fresh as `advance` inserts each round's facts.
    {
        let (total, _) = ddb.parts_mut();
        for (_, plan) in plans {
            plan.ensure_total_indexes(total);
        }
    }
    seminaive_rounds(plans, &mut ddb, true, stats, sink, par);
    ddb.into_total()
}

/// Run semi-naive rounds to fixpoint. With `full_first_round` set, the
/// first iteration executes every rule's full plan (the delta is
/// conceptually "everything" — a stratum starting from scratch); without
/// it, the caller pre-seeded the delta ([`DeltaDatabase::resume`]) and
/// only delta variants ever run.
fn seminaive_rounds(
    plans: &[(usize, &RulePlan)],
    ddb: &mut DeltaDatabase,
    full_first_round: bool,
    stats: &mut EvalStats,
    mut sink: Option<&mut ProvenanceSink>,
    par: ParCtx,
) {
    let mut first_round = full_first_round;
    loop {
        stats.iterations += 1;
        let mut new_facts = Database::new();
        let round_threads;
        if first_round {
            // Round 1: the delta is conceptually "everything", so each
            // rule runs its full plan once; the stable total is the
            // driving work size.
            first_round = false;
            let jobs: Vec<(usize, &RulePlan, &ConjunctionPlan)> =
                plans.iter().map(|(i, p)| (*i, *p, &p.full)).collect();
            stats.rule_firings += jobs.len() as u64;
            stats.full_firings += jobs.len() as u64;
            round_threads = fire_jobs(
                &jobs,
                ddb.total(),
                None,
                ddb.total().len(),
                &mut new_facts,
                stats,
                sink.as_deref_mut(),
                par,
            );
        } else {
            // The delta was replaced by `advance` (or pre-seeded by the
            // caller): rebuild the (rare) constant-probed delta-side
            // indexes.
            {
                let (total, delta) = ddb.parts_mut();
                for (_, plan) in plans {
                    for (_, variant) in &plan.variants {
                        variant.ensure_indexes(total, Some(delta));
                    }
                }
            }
            // The skip/run decision is made up front on the coordinator —
            // deterministic regardless of how the surviving jobs are
            // scheduled below.
            let mut jobs: Vec<(usize, &RulePlan, &ConjunctionPlan)> = Vec::new();
            for (idx, plan) in plans {
                for (pred, variant) in &plan.variants {
                    if ddb.delta().relation(*pred).is_none_or(|r| r.is_empty()) {
                        // Nothing new for this literal: the variant is
                        // skipped, not fired with an empty result.
                        stats.variants_skipped += 1;
                        continue;
                    }
                    jobs.push((*idx, plan, variant));
                }
            }
            stats.rule_firings += jobs.len() as u64;
            round_threads = fire_jobs(
                &jobs,
                ddb.total(),
                Some(ddb.delta()),
                ddb.delta().len(),
                &mut new_facts,
                stats,
                sink.as_deref_mut(),
                par,
            );
        }
        if round_threads >= 2 {
            stats.parallel_rounds += 1;
        }
        if ddb.advance(&new_facts) == 0 {
            break;
        }
    }
}

/// Naive fixpoint of one stratum: every rule's full plan, every round.
fn fix_naive(
    plans: &[(usize, &RulePlan)],
    db: &mut Database,
    stats: &mut EvalStats,
    mut sink: Option<&mut ProvenanceSink>,
    par: ParCtx,
) {
    for (_, plan) in plans {
        plan.ensure_total_indexes(db);
    }
    loop {
        stats.iterations += 1;
        let mut new_facts = Database::new();
        let jobs: Vec<(usize, &RulePlan, &ConjunctionPlan)> =
            plans.iter().map(|(i, p)| (*i, *p, &p.full)).collect();
        stats.rule_firings += jobs.len() as u64;
        stats.full_firings += jobs.len() as u64;
        let round_threads = fire_jobs(
            &jobs,
            db,
            None,
            db.len(),
            &mut new_facts,
            stats,
            sink.as_deref_mut(),
            par,
        );
        if round_threads >= 2 {
            stats.parallel_rounds += 1;
        }
        if db.union_with(&new_facts) == 0 {
            break;
        }
    }
}

/// Execute one round's firing jobs, fanning them out across worker
/// threads when the thread budget and the round's driving work size
/// allow. Each parallel job derives into its own candidate database and
/// [`EvalStats`] shard; shards are merged **in plan order** on the
/// coordinator, so every counter and the candidate set handed to
/// [`DeltaDatabase::advance`] are identical to the sequential run's
/// (candidates are sets, counters are sums — both order-independent).
/// Jobs inside a fan-out run with a sequential context: one layer of
/// parallelism at a time. Returns the maximum number of threads any part
/// of the round engaged (1 = fully sequential).
#[allow(clippy::too_many_arguments)]
fn fire_jobs(
    jobs: &[(usize, &RulePlan, &ConjunctionPlan)],
    total: &Database,
    delta: Option<&Database>,
    driving_rows: usize,
    out: &mut Database,
    stats: &mut EvalStats,
    mut sink: Option<&mut ProvenanceSink>,
    par: ParCtx,
) -> usize {
    if par.threads < 2 || jobs.len() < 2 || driving_rows < par.fanout_min_rows {
        let mut used = 1;
        for (idx, plan, join) in jobs {
            used = used.max(fire(
                *idx,
                plan,
                join,
                total,
                delta,
                out,
                stats,
                sink.as_deref_mut(),
                par,
            ));
        }
        return used;
    }
    let seq = par.sequential();
    let tracing = sink.is_some();
    let results = threadpool::parallel_map(jobs.len(), par.threads, |j| {
        let (idx, plan, join) = jobs[j];
        let mut shard_out = Database::new();
        let mut shard = EvalStats::default();
        // Tracing shards buffer their own records; the coordinator
        // concatenates them in plan order below, so the sink contents are
        // independent of scheduling.
        let mut shard_sink = tracing.then(ProvenanceSink::new);
        fire(
            idx,
            plan,
            join,
            total,
            delta,
            &mut shard_out,
            &mut shard,
            shard_sink.as_mut(),
            seq,
        );
        (shard_out, shard, shard_sink)
    });
    for (shard_out, shard, shard_sink) in results {
        out.union_with(&shard_out);
        stats.absorb(&shard);
        if let (Some(sink), Some(shard_sink)) = (sink.as_deref_mut(), shard_sink) {
            sink.extend_from(&shard_sink);
        }
    }
    let engaged = par.threads.min(jobs.len());
    stats.threads_used = stats.threads_used.max(engaged as u64);
    engaged
}

/// Execute one join plan: for every complete match whose negated literals
/// all fail against the total, ground the head into `out`. When the
/// thread budget allows and the plan carries a parallel-eligible hash
/// step, the probes are partitioned across threads
/// ([`ConjunctionPlan::for_each_match_partitioned`] — callback order and
/// counters stay bit-for-bit sequential). Returns the threads engaged.
#[allow(clippy::too_many_arguments)]
fn fire(
    rule_idx: usize,
    plan: &RulePlan,
    join: &ConjunctionPlan,
    total: &Database,
    delta: Option<&Database>,
    out: &mut Database,
    stats: &mut EvalStats,
    mut sink: Option<&mut ProvenanceSink>,
    par: ParCtx,
) -> usize {
    for step in join.steps() {
        match step.strategy {
            StepStrategy::IndexProbe => stats.probe_steps += 1,
            StepStrategy::HashBuildProbe => stats.hash_steps += 1,
            StepStrategy::Scan => stats.scan_steps += 1,
        }
    }
    let mut env = vec![None; plan.slots.len()];
    let mut derivations = 0u64;
    let mut used = 1;
    {
        let mut on_match = |env: &[Option<Param>]| {
            let blocked = plan
                .negatives
                .iter()
                .any(|n| total.contains_tuple(n.pred, &n.ground(env)));
            if !blocked {
                derivations += 1;
                let head = plan.head.ground(env);
                if let Some(sink) = sink.as_deref_mut() {
                    let start = sink.begin_record();
                    sink.push_tuple(plan.head.pred, &head);
                    for step in join.steps() {
                        sink.push_tuple(step.template.pred, &step.template.ground(env));
                    }
                    sink.finish_record(rule_idx as u32, start);
                }
                out.insert_tuple(plan.head.pred, head);
            }
        };
        if par.threads >= 2 && join.parallel_eligible_at(par.probe_min_outer) {
            used = join.for_each_match_partitioned(
                total,
                delta,
                &mut env,
                par.threads,
                &mut stats.rows_examined,
                &mut on_match,
            );
        } else {
            join.for_each_match_counting(
                total,
                delta,
                &mut env,
                &mut stats.rows_examined,
                &mut on_match,
            );
        }
    }
    stats.derivations += derivations;
    if used >= 2 {
        stats.threads_used = stats.threads_used.max(used as u64);
    }
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::formula::Atom;
    use epilog_syntax::parse;
    use epilog_syntax::Pred;

    fn atom(src: &str) -> Atom {
        match parse(src).unwrap() {
            epilog_syntax::Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        }
    }

    fn chain(n: usize) -> Program {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("e(n{i}, n{})\n", i + 1));
        }
        src.push_str("forall x, y. e(x, y) -> t(x, y)\n");
        src.push_str("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n");
        Program::from_text(&src).unwrap()
    }

    #[test]
    fn transitive_closure_chain() {
        let p = chain(5);
        let (db, _) = p.eval().unwrap();
        let t = Pred::new("t", 2);
        // 5+4+3+2+1 = 15 pairs.
        assert_eq!(db.relation(t).unwrap().len(), 15);
        assert!(db.contains(&atom("t(n0, n5)")));
        assert!(!db.contains(&atom("t(n5, n0)")));
    }

    #[test]
    fn naive_and_seminaive_agree() {
        for n in [1, 3, 6] {
            let p = chain(n);
            let (a, _) = p.eval().unwrap();
            let (b, _) = p.eval_naive().unwrap();
            assert_eq!(a, b, "models differ for chain({n})");
        }
    }

    #[test]
    fn seminaive_derives_less() {
        let p = chain(12);
        let (_, fast) = p.eval().unwrap();
        let (_, slow) = p.eval_naive().unwrap();
        assert!(
            fast.derivations < slow.derivations,
            "semi-naive {} vs naive {}",
            fast.derivations,
            slow.derivations
        );
    }

    #[test]
    fn seminaive_fires_fewer_plans() {
        let p = chain(12);
        let (_, fast) = p.eval().unwrap();
        let (_, slow) = p.eval_naive().unwrap();
        assert!(
            fast.rule_firings < slow.rule_firings,
            "empty-delta variants must be skipped: semi-naive {} vs naive {}",
            fast.rule_firings,
            slow.rule_firings
        );
    }

    #[test]
    fn incremental_matches_from_scratch_on_chains() {
        for (old, added) in [(5usize, 1usize), (4, 3), (1, 6)] {
            let before = chain(old);
            let (model, _) = before.eval().unwrap();
            // The program over the enlarged fact set…
            let after = chain(old + added);
            // …and the new facts alone.
            let mut new_facts = epilog_storage::Database::new();
            for i in old..old + added {
                new_facts.insert(&atom(&format!("e(n{i}, n{})", i + 1)));
            }
            let (inc, stats) = after.eval_incremental(model, &new_facts).unwrap();
            let (scratch, _) = after.eval().unwrap();
            assert_eq!(inc, scratch, "resume diverged for chain({old})+{added}");
            assert_eq!(
                stats.full_firings, 0,
                "a resumed fixpoint must only run delta variants"
            );
            assert!(stats.rule_firings > 0);
        }
    }

    #[test]
    fn incremental_with_duplicate_facts_is_a_fixpoint_noop() {
        let p = chain(4);
        let (model, _) = p.eval().unwrap();
        let mut dup = epilog_storage::Database::new();
        dup.insert(&atom("e(n0, n1)"));
        let (inc, stats) = p.eval_incremental(model.clone(), &dup).unwrap();
        assert_eq!(inc, model);
        assert_eq!(stats.rule_firings, 0, "empty delta fires nothing");
        assert_eq!(stats.full_firings, 0);
    }

    #[test]
    fn incremental_falls_back_on_negation() {
        let p = Program::from_text(
            "node(a)
             node(b)
             e(a, b)
             forall x, y. e(x, y) -> reach(x, y)
             forall x, y. node(x) & node(y) & ~reach(x, y) -> sep(x, y)",
        )
        .unwrap();
        let (model, _) = p.eval().unwrap();
        assert!(model.contains(&atom("sep(b, a)")));
        // Adding e(b, a) must *remove* sep(b, a): only the full fallback
        // can do that.
        let mut new_facts = epilog_storage::Database::new();
        new_facts.insert(&atom("e(b, a)"));
        let (inc, stats) = p.eval_incremental(model, &new_facts).unwrap();
        assert!(!inc.contains(&atom("sep(b, a)")));
        assert!(inc.contains(&atom("reach(b, a)")));
        assert!(stats.full_firings > 0, "fallback runs full plans");
    }

    #[test]
    fn planner_modes_agree_and_report_strategies() {
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("q(k{}, val{i})\nbig(k{}, val{i})\n", i % 2, i % 2));
        }
        src.push_str("forall x, y. q(x, y) & big(x, y) -> hit(x, y)\n");
        let p = Program::from_text(&src).unwrap();
        let (cost_db, cost) = p.eval_with(true, PlannerMode::CostBased).unwrap();
        let (greedy_db, greedy) = p.eval_with(true, PlannerMode::Greedy).unwrap();
        assert_eq!(cost_db, greedy_db);
        assert_eq!(cost.derivations, greedy.derivations);
        assert_eq!(cost.rule_firings, greedy.rule_firings);
        assert!(cost.hash_steps > 0, "two bound columns on a large relation");
        assert_eq!(greedy.hash_steps, 0, "the seed planner never hashes");
        assert!(greedy.probe_steps > 0);
        assert!(
            cost.rows_examined < greedy.rows_examined,
            "hash {} vs residual probe {}",
            cost.rows_examined,
            greedy.rows_examined
        );
        assert!(cost.plans_compiled > 0);
    }

    #[test]
    fn recursive_delta_rounds_never_do_more_work_than_greedy() {
        // r(y) ← r(x) ∧ a(x,y) ∧ b(x,y): every semi-naive round carries
        // a one-row delta, so rebuilding a hash table over `b` per round
        // would turn the Θ(n) greedy evaluation into Θ(n²). The outer-
        // cardinality gate must keep the probe strategy here.
        let n = 32;
        let mut src = String::from("r(n0)\n");
        for i in 0..n {
            src.push_str(&format!("a(n{i}, n{})\nb(n{i}, n{})\n", i + 1, i + 1));
        }
        src.push_str("forall x, y. r(x) & a(x, y) & b(x, y) -> r(y)\n");
        let p = Program::from_text(&src).unwrap();
        let (cost_db, cost) = p.eval_with(true, PlannerMode::CostBased).unwrap();
        let (greedy_db, greedy) = p.eval_with(true, PlannerMode::Greedy).unwrap();
        assert_eq!(cost_db, greedy_db);
        assert!(
            cost.rows_examined <= greedy.rows_examined,
            "cost-based {} must not exceed greedy {} on small-delta recursion",
            cost.rows_examined,
            greedy.rows_examined
        );
    }

    #[test]
    fn skipped_variants_are_counted_apart_from_firings() {
        let p = chain(6);
        let (_, stats) = p.eval().unwrap();
        assert!(
            stats.variants_skipped > 0,
            "the e-delta variant is skipped after round 2"
        );
        // Naive evaluation has no variants to skip.
        let (_, naive) = p.eval_naive().unwrap();
        assert_eq!(naive.variants_skipped, 0);
    }

    #[test]
    fn cached_plans_match_fresh_compiles_and_compile_nothing() {
        let before = chain(5);
        let (model, _) = before.eval().unwrap();
        let after = chain(8);
        let mut new_facts = epilog_storage::Database::new();
        for i in 5..8 {
            new_facts.insert(&atom(&format!("e(n{i}, n{})", i + 1)));
        }
        let plans: Vec<crate::plan::RulePlan> = after
            .rules
            .iter()
            .map(|r| crate::plan::RulePlan::compile_with_stats(r, Some(&model)))
            .collect();
        let (cached, cached_stats) = after
            .eval_incremental_with(&plans, model.clone(), &new_facts)
            .unwrap();
        let (fresh, fresh_stats) = after.eval_incremental(model, &new_facts).unwrap();
        assert_eq!(cached, fresh);
        assert_eq!(
            cached_stats.plans_compiled, 0,
            "cache path compiles nothing"
        );
        assert!(fresh_stats.plans_compiled > 0);
        assert_eq!(cached_stats.full_firings, 0);
    }

    #[test]
    fn decremental_matches_from_scratch_on_chains() {
        for (n, cut) in [(6usize, 2usize), (5, 0), (8, 7)] {
            let before = chain(n);
            let (model, _) = before.eval().unwrap();
            // Retract edge cut..cut+1; the post-retraction program is the
            // chain minus that edge.
            let removed_src = format!("e(n{cut}, n{})", cut + 1);
            let mut removed = epilog_storage::Database::new();
            removed.insert(&atom(&removed_src));
            let mut src = String::new();
            for i in (0..n).filter(|&i| i != cut) {
                src.push_str(&format!("e(n{i}, n{})\n", i + 1));
            }
            src.push_str("forall x, y. e(x, y) -> t(x, y)\n");
            src.push_str("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n");
            let after = Program::from_text(&src).unwrap();
            let (dec, stats) = after.eval_decremental(model, &removed).unwrap();
            let (scratch, _) = after.eval().unwrap();
            assert_eq!(dec, scratch, "DRed diverged for chain({n}) - edge {cut}");
            assert_eq!(stats.full_firings, 0, "DRed must never run a full plan");
            assert!(stats.tuples_overdeleted > 0);
        }
    }

    #[test]
    fn decremental_rederives_alternative_support() {
        // Two parallel edges a→b; retracting one must keep t(a, b) and
        // everything downstream, re-derived from the surviving edge.
        let before = Program::from_text(
            "e(a, b)
             e2(a, b)
             e(b, c)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y. e2(x, y) -> t(x, y)
             forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
        )
        .unwrap();
        let (model, _) = before.eval().unwrap();
        let mut removed = epilog_storage::Database::new();
        removed.insert(&atom("e(a, b)"));
        let after = Program::from_text(
            "e2(a, b)
             e(b, c)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y. e2(x, y) -> t(x, y)
             forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
        )
        .unwrap();
        let (dec, stats) = after.eval_decremental(model, &removed).unwrap();
        let (scratch, _) = after.eval().unwrap();
        assert_eq!(dec, scratch);
        assert!(dec.contains(&atom("t(a, b)")), "e2 still supports t(a, b)");
        assert!(!dec.contains(&atom("t(a, c)")), "a→…→c needed e(a, b)");
        assert!(stats.support_checks > 0, "survival went through support");
        assert!(stats.tuples_rederived > 0);
        assert_eq!(stats.full_firings, 0);
    }

    #[test]
    fn decremental_keeps_extensional_survivors() {
        // t(a, b) is *also* an extensional fact: over-deleting it via the
        // rule must re-seed it from EDB membership, no support query
        // needed for it.
        let before = Program::from_text(
            "e(a, b)
             t(a, b)
             forall x, y. e(x, y) -> t(x, y)",
        )
        .unwrap();
        let (model, _) = before.eval().unwrap();
        let mut removed = epilog_storage::Database::new();
        removed.insert(&atom("e(a, b)"));
        let after = Program::from_text(
            "t(a, b)
             forall x, y. e(x, y) -> t(x, y)",
        )
        .unwrap();
        let (dec, _) = after.eval_decremental(model, &removed).unwrap();
        let (scratch, _) = after.eval().unwrap();
        assert_eq!(dec, scratch);
        assert!(dec.contains(&atom("t(a, b)")));
        assert!(!dec.contains(&atom("e(a, b)")));
    }

    #[test]
    fn decremental_of_absent_fact_is_a_noop() {
        let p = chain(4);
        let (model, _) = p.eval().unwrap();
        let mut removed = epilog_storage::Database::new();
        removed.insert(&atom("e(n9, n10)"));
        let (dec, stats) = p.eval_decremental(model.clone(), &removed).unwrap();
        assert_eq!(dec, model);
        assert_eq!(stats.rule_firings, 0, "empty seed deletes nothing");
        assert_eq!(stats.tuples_overdeleted, 0);
    }

    #[test]
    fn decremental_falls_back_on_negation() {
        let p = Program::from_text(
            "node(a)
             node(b)
             e(a, b)
             e(b, a)
             forall x, y. e(x, y) -> reach(x, y)
             forall x, y. node(x) & node(y) & ~reach(x, y) -> sep(x, y)",
        )
        .unwrap();
        let (model, _) = p.eval().unwrap();
        assert!(!model.contains(&atom("sep(b, a)")));
        // Removing e(b, a) must *add* sep(b, a): only the fallback can.
        let mut removed = epilog_storage::Database::new();
        removed.insert(&atom("e(b, a)"));
        let after = Program::from_text(
            "node(a)
             node(b)
             e(a, b)
             forall x, y. e(x, y) -> reach(x, y)
             forall x, y. node(x) & node(y) & ~reach(x, y) -> sep(x, y)",
        )
        .unwrap();
        let (dec, stats) = after.eval_decremental(model, &removed).unwrap();
        assert!(dec.contains(&atom("sep(b, a)")));
        assert!(stats.full_firings > 0, "fallback runs full plans");
    }

    #[test]
    fn cached_decremental_plans_match_fresh_and_compile_nothing() {
        let before = chain(7);
        let (model, _) = before.eval().unwrap();
        let mut removed = epilog_storage::Database::new();
        removed.insert(&atom("e(n3, n4)"));
        let mut src = String::new();
        for i in (0..7).filter(|&i| i != 3) {
            src.push_str(&format!("e(n{i}, n{})\n", i + 1));
        }
        src.push_str("forall x, y. e(x, y) -> t(x, y)\n");
        src.push_str("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n");
        let after = Program::from_text(&src).unwrap();
        let plans: Vec<crate::plan::RulePlan> = after
            .rules
            .iter()
            .map(|r| crate::plan::RulePlan::compile_with_stats(r, Some(&model)))
            .collect();
        let (cached, cached_stats) = after
            .eval_decremental_with(&plans, model.clone(), &removed)
            .unwrap();
        let (fresh, fresh_stats) = after.eval_decremental(model, &removed).unwrap();
        assert_eq!(cached, fresh);
        assert_eq!(
            cached_stats.plans_compiled, 0,
            "cache path compiles nothing"
        );
        assert!(fresh_stats.plans_compiled > 0);
        assert_eq!(cached_stats.full_firings, 0);
    }

    #[test]
    fn stats_absorb_sums_every_counter() {
        let mut a = EvalStats {
            rule_firings: 1,
            full_firings: 2,
            derivations: 3,
            iterations: 4,
            probe_steps: 5,
            hash_steps: 6,
            scan_steps: 7,
            variants_skipped: 8,
            rows_examined: 9,
            plans_compiled: 10,
            tuples_overdeleted: 11,
            tuples_rederived: 12,
            support_checks: 13,
            supports_recorded: 14,
            support_hits: 15,
            parallel_rounds: 16,
            threads_used: 17,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.rule_firings, 2);
        assert_eq!(a.full_firings, 4);
        assert_eq!(a.derivations, 6);
        assert_eq!(a.iterations, 8);
        assert_eq!(a.probe_steps, 10);
        assert_eq!(a.hash_steps, 12);
        assert_eq!(a.scan_steps, 14);
        assert_eq!(a.variants_skipped, 16);
        assert_eq!(a.rows_examined, 18);
        assert_eq!(a.plans_compiled, 20);
        assert_eq!(a.tuples_overdeleted, 22);
        assert_eq!(a.tuples_rederived, 24);
        assert_eq!(a.support_checks, 26);
        assert_eq!(a.supports_recorded, 28);
        assert_eq!(a.support_hits, 30);
        assert_eq!(a.parallel_rounds, 32);
        // A high-water mark, not a sum: absorbing an equal run keeps it.
        assert_eq!(a.threads_used, 17);
        let wider = EvalStats {
            threads_used: 40,
            ..EvalStats::default()
        };
        a.absorb(&wider);
        assert_eq!(a.threads_used, 40);
    }

    /// Options forcing every parallel path at `threads` workers: zero
    /// work-size thresholds, so even toy programs fan out and partition.
    fn par_opts(threads: usize) -> EvalOptions {
        EvalOptions {
            threads,
            par_fanout_min_rows: 0,
            par_probe_min_outer: 0,
            ..EvalOptions::default()
        }
    }

    /// The counters that must be invariant across thread counts — i.e.
    /// everything except the parallelism observables themselves.
    fn scrubbed(mut s: EvalStats) -> EvalStats {
        s.parallel_rounds = 0;
        s.threads_used = 0;
        s
    }

    #[test]
    fn parallel_fanout_matches_sequential_counters_exactly() {
        // chain(12) runs a 2-rule stratum with recursive delta rounds:
        // with zeroed thresholds every round fans out. Model and every
        // merged counter — including variants_skipped and rows_examined,
        // tallied in thread-local shards — must equal the sequential
        // run's exactly.
        let p = chain(12);
        let (seq_db, seq) = p.eval_opts(par_opts(1)).unwrap();
        for threads in [2, 4, 8] {
            let (par_db, par) = p.eval_opts(par_opts(threads)).unwrap();
            assert_eq!(par_db, seq_db, "model diverged at {threads} threads");
            assert_eq!(
                scrubbed(par),
                scrubbed(seq),
                "counters diverged at {threads} threads"
            );
            assert!(par.parallel_rounds > 0, "fan-out must engage");
            assert!(par.threads_used >= 2);
        }
        assert_eq!(seq.parallel_rounds, 0, "1 thread is the sequential path");
        assert_eq!(seq.threads_used, 0);
    }

    #[test]
    fn partitioned_probes_match_sequential_counters_exactly() {
        // Skewed two-column join: the cost-based planner hashes `big`,
        // and with a zero outer threshold the single-rule round (no
        // fan-out possible) partitions the probe rows instead.
        let mut src = String::new();
        for i in 0..32 {
            src.push_str(&format!("q(k{}, val{i})\nbig(k{}, val{i})\n", i % 4, i % 4));
        }
        src.push_str("forall x, y. q(x, y) & big(x, y) -> hit(x, y)\n");
        let p = Program::from_text(&src).unwrap();
        let (seq_db, seq) = p.eval_opts(par_opts(1)).unwrap();
        assert!(seq.hash_steps > 0, "workload must exercise the hash path");
        let (par_db, par) = p.eval_opts(par_opts(4)).unwrap();
        assert_eq!(par_db, seq_db);
        assert_eq!(scrubbed(par), scrubbed(seq));
        assert!(par.threads_used >= 2, "partitioned probes must engage");
    }

    #[test]
    fn default_thresholds_keep_tiny_fixpoints_sequential() {
        // Even with a thread budget, a fixpoint below the work-size
        // thresholds must not spawn: same counters, zero parallelism
        // observables.
        let p = chain(6);
        let opts = EvalOptions {
            threads: 4,
            ..EvalOptions::default()
        };
        let (db, stats) = p.eval_opts(opts).unwrap();
        let (seq_db, seq) = p.eval().unwrap();
        assert_eq!(db, seq_db);
        assert_eq!(stats.parallel_rounds, 0);
        assert_eq!(stats.threads_used, 0);
        assert_eq!(scrubbed(stats), scrubbed(seq));
    }

    #[test]
    fn parallel_evaluation_respects_stratified_negation() {
        // Strata must still evaluate in order under fan-out: the negated
        // stratum reads a completed lower stratum.
        let src = "node(a)
             node(b)
             node(c)
             e(a, b)
             forall x, y. e(x, y) -> reach(x, y)
             forall x, y, z. reach(x, y) & e(y, z) -> reach(x, z)
             forall x, y. node(x) & node(y) & ~reach(x, y) -> sep(x, y)";
        let p = Program::from_text(src).unwrap();
        let (seq_db, seq) = p.eval_opts(par_opts(1)).unwrap();
        let (par_db, par) = p.eval_opts(par_opts(4)).unwrap();
        assert_eq!(par_db, seq_db);
        assert_eq!(scrubbed(par), scrubbed(seq));
        assert!(par_db.contains(&atom("sep(b, a)")));
    }

    #[test]
    fn stratified_negation() {
        // Reachability complement: unreachable pairs of nodes.
        let p = Program::from_text(
            "node(a)
             node(b)
             node(c)
             e(a, b)
             forall x, y. e(x, y) -> reach(x, y)
             forall x, y, z. reach(x, y) & e(y, z) -> reach(x, z)
             forall x, y. node(x) & node(y) & ~reach(x, y) -> sep(x, y)",
        )
        .unwrap();
        let (db, _) = p.eval().unwrap();
        assert!(db.contains(&atom("sep(b, a)")));
        assert!(db.contains(&atom("sep(a, a)")));
        assert!(!db.contains(&atom("sep(a, b)")));
        let sep = Pred::new("sep", 2);
        assert_eq!(db.relation(sep).unwrap().len(), 8); // 9 pairs − reach(a,b)
    }

    #[test]
    fn same_generation() {
        let p = Program::from_text(
            "par(c1, p1)
             par(c2, p1)
             par(p1, g1)
             par(p2, g1)
             forall x, y, z. par(x, z) & par(y, z) -> sg(x, y)
             forall x, y, u, v. par(x, u) & sg(u, v) & par(y, v) -> sg(x, y)",
        )
        .unwrap();
        let (db, _) = p.eval().unwrap();
        assert!(db.contains(&atom("sg(c1, c2)")));
        assert!(db.contains(&atom("sg(p1, p2)")));
        assert!(db.contains(&atom("sg(c1, c1)")));
        // Children are not same-generation with parents.
        assert!(!db.contains(&atom("sg(c1, p1)")));
    }

    #[test]
    fn facts_only_program() {
        let p = Program::from_text("p(a)\np(b)").unwrap();
        let (db, stats) = p.eval().unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(stats.derivations, 0);
    }

    #[test]
    fn ground_head_rules_fire_once() {
        // A rule with a body but a ground head, plus a body-less ground
        // rule (the degenerate plans).
        let p = Program::from_text(
            "p(a)
             forall x. p(x) -> q(b)",
        )
        .unwrap();
        let (db, _) = p.eval().unwrap();
        assert!(db.contains(&atom("q(b)")));
        let (db2, _) = p.eval_naive().unwrap();
        assert_eq!(db, db2);
    }

    #[test]
    fn no_phantom_relations_from_index_warmup() {
        // Body predicate `e` has no facts; index warm-up must not leave an
        // empty `e` relation in the result (it would break Database
        // equality and preds() for downstream oracles).
        let p = Program::from_text("f(b)\nforall x. e(a, x) -> g(x)").unwrap();
        let (db, _) = p.eval().unwrap();
        assert_eq!(db.preds(), vec![Pred::new("f", 1)]);
        assert!(db
            .preds()
            .into_iter()
            .all(|pr| !db.relation(pr).unwrap().is_empty()));
        let (db2, _) = p.eval_naive().unwrap();
        assert_eq!(db, db2);
    }

    #[test]
    fn non_ground_fact_rule() {
        // A body-less rule with variables would be unsafe; check rejection.
        let err = Program::from_text("forall x. p(x) -> q(x)\n")
            .and_then(|_| Program::from_text("q(x)").map(|_| ()));
        // `q(x)` alone: parse_theory gives a non-sentence... it parses as a
        // formula with free var; from_sentences sees a non-ground atom rule
        // with empty body → unsafe.
        assert!(err.is_err());
    }

    use crate::provenance::{params_of, SupportTable};

    /// Zero the provenance counters — the only ones a traced run is
    /// allowed to move relative to its untraced twin.
    fn scrub_prov(mut s: EvalStats) -> EvalStats {
        s.supports_recorded = 0;
        s.support_hits = 0;
        s
    }

    #[test]
    fn traced_eval_matches_untraced_and_proves_every_idb_tuple() {
        let p = chain(8);
        let (plain_db, plain) = p.eval().unwrap();
        let mut table = SupportTable::new();
        let (traced_db, traced) = p.eval_traced(EvalOptions::default(), &mut table).unwrap();
        assert_eq!(traced_db, plain_db);
        assert_eq!(scrub_prov(traced), plain, "tracking must not change work");
        assert!(traced.supports_recorded > 0);
        assert_eq!(plain.supports_recorded, 0, "untraced runs record nothing");
        assert!(table.consistent_with(&traced_db, p.rules.len()));
        for a in traced_db.atoms() {
            let t = params_of(&a).unwrap();
            let tree = table
                .why(&p.edb, a.pred, &t)
                .unwrap_or_else(|| panic!("no proof for {a}"));
            assert!(tree.replays(&p), "proof of {a} must replay");
        }
    }

    #[test]
    fn traced_table_is_deterministic_across_thread_counts() {
        let p = chain(12);
        let mut seq_table = SupportTable::new();
        let (seq_db, _) = p.eval_traced(par_opts(1), &mut seq_table).unwrap();
        for threads in [2, 4] {
            let mut par_table = SupportTable::new();
            let (par_db, par) = p.eval_traced(par_opts(threads), &mut par_table).unwrap();
            assert_eq!(par_db, seq_db);
            assert!(par.parallel_rounds > 0, "fan-out must engage");
            assert_eq!(
                par_table, seq_table,
                "shard merge order must make the table scheduling-independent"
            );
        }
    }

    #[test]
    fn traced_incremental_extends_the_table() {
        let before = chain(4);
        let mut table = SupportTable::new();
        let (model, _) = before
            .eval_traced(EvalOptions::default(), &mut table)
            .unwrap();
        let after = chain(6);
        let mut new_facts = epilog_storage::Database::new();
        for i in 4..6 {
            new_facts.insert(&atom(&format!("e(n{i}, n{})", i + 1)));
        }
        let plans: Vec<RulePlan> = after
            .rules
            .iter()
            .map(|r| RulePlan::compile_with_stats(r, Some(&model)))
            .collect();
        let (inc, stats) = after
            .eval_incremental_traced(&plans, model, &new_facts, &mut table)
            .unwrap();
        let (scratch, _) = after.eval().unwrap();
        assert_eq!(inc, scratch);
        assert!(stats.supports_recorded > 0);
        assert!(table.consistent_with(&inc, after.rules.len()));
        for a in inc.atoms() {
            let t = params_of(&a).unwrap();
            let tree = table.why(&after.edb, a.pred, &t).unwrap();
            assert!(
                tree.replays(&after),
                "proof of {a} must replay after resume"
            );
        }
    }

    #[test]
    fn traced_decremental_skips_probes_and_purges() {
        // Two parallel edges a→b (the alternative-support workload): the
        // recorded e2 support lets t(a, b) survive without a probe.
        let before = Program::from_text(
            "e(a, b)
             e2(a, b)
             e(b, c)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y. e2(x, y) -> t(x, y)
             forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
        )
        .unwrap();
        let mut table = SupportTable::new();
        let (model, _) = before
            .eval_traced(EvalOptions::default(), &mut table)
            .unwrap();
        let mut removed = epilog_storage::Database::new();
        removed.insert(&atom("e(a, b)"));
        let after = Program::from_text(
            "e2(a, b)
             e(b, c)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y. e2(x, y) -> t(x, y)
             forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
        )
        .unwrap();
        let plans: Vec<RulePlan> = after
            .rules
            .iter()
            .map(|r| RulePlan::compile_with_stats(r, Some(&model)))
            .collect();
        let (plain_db, plain) = after
            .eval_decremental_with(&plans, model.clone(), &removed)
            .unwrap();
        let (traced_db, traced) = after
            .eval_decremental_traced(&plans, model, &removed, &mut table)
            .unwrap();
        assert_eq!(traced_db, plain_db, "supports must not change the model");
        assert_eq!(traced.tuples_rederived, plain.tuples_rederived);
        assert!(traced.support_hits > 0, "t(a, b) survives on record alone");
        assert!(
            traced.support_checks < plain.support_checks,
            "every hit is a probe saved: {} vs {}",
            traced.support_checks,
            plain.support_checks
        );
        // The table is purged down to the shrunken model and stays
        // proof-complete for it.
        assert!(table.consistent_with(&traced_db, after.rules.len()));
        for a in traced_db.atoms() {
            let t = params_of(&a).unwrap();
            assert!(
                table.why(&after.edb, a.pred, &t).is_some(),
                "{a} must stay provable after deletion"
            );
        }
        assert!(
            !traced_db.contains(&atom("t(a, c)")),
            "a→…→c needed e(a, b)"
        );
    }
}
