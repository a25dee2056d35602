//! Bottom-up evaluation: naive and semi-naive fixpoints computing the
//! least model of a definite program, executing compiled [`RulePlan`]s.
//!
//! Every rule is compiled **once** before the fixpoint starts (dense
//! variable slots, cost-ordered literals, precomputed selection
//! shapes — see [`crate::plan`]). Storage builds the index a plan step
//! probes on its first probe and maintains it incrementally as facts are
//! inserted; the engine names no index. Semi-naive rounds advance an explicit
//! [`DeltaDatabase`] stable/delta split: round 1 runs each rule's full
//! plan, and every later round runs one plan variant per body atom whose
//! predicate actually gained facts — variants whose delta relation is
//! empty are skipped without counting as a firing.
//!
//! A round's heads reach the total as one ordered batch. Every firing
//! grounds the heads it derives straight into its predicate's [`Rows`]
//! in `Heads` — in that predicate's row type, a `[Param; n]` (one map
//! look-up and one dispatch on the arity per firing, none per
//! derivation); at the end of the round each batch is sorted and
//! deduplicated once, in the row type, and [`DeltaDatabase::advance`]
//! inserts it through a cursor that gallops forward from the previous
//! row's run, so a new row costs a search inside one run rather than one
//! over the whole relation. The new ones come back in order, in full
//! runs, as the next delta. No row is converted on the way. The same
//! sink serves DRed's over-deletion rounds and the naive reference
//! rounds.
//!
//! Four entry points, one per mode: [`Program::eval`] (the default full
//! fixpoint), [`Program::fixpoint`] (the full fixpoint with the naive
//! reference selector), [`Program::grow`] and [`Program::shrink`] (resume
//! the least model of a definite program after additions / retractions
//! over caller-supplied plans, and hand back the tuples they added /
//! removed). `grow` keeps each round's delta through a crate-private
//! hook, and [`Program::why`], which runs the semi-naive loop too, reads
//! each tuple's round through it. Everything runs on the calling thread.

use crate::plan::RulePlan;
use crate::program::Program;
use epilog_storage::{ConjunctionPlan, Database, DeltaDatabase, Rows};
use epilog_syntax::Pred;
use std::collections::BTreeMap;

/// Counters reported by an evaluation run (for the report's F6 and F9
/// tables and for tests asserting that semi-naive does strictly less
/// work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of executed join plans: one per rule per naive round (and
    /// per rule in the first semi-naive round), one per nonempty-delta
    /// variant in later semi-naive rounds.
    pub rule_firings: u64,
    /// The subset of [`EvalStats::rule_firings`] that executed a **full**
    /// (non-delta) plan: every naive firing, and the first round of a
    /// semi-naive run. A resumed fixpoint ([`Program::grow`],
    /// [`Program::shrink`]) reports 0 here — it only ever runs delta
    /// variants.
    pub full_firings: u64,
    /// Number of head atoms derived (including duplicates).
    pub derivations: u64,
    /// Number of fixpoint rounds.
    pub iterations: u64,
    /// Join steps with a bound column — single-column index probes and
    /// lookups of a fully bound tuple — counted once per step per firing.
    pub probe_steps: u64,
    /// Join steps executed as full scans (no column bound), counted once
    /// per step per firing.
    pub scan_steps: u64,
    /// Semi-naive delta variants **skipped** because their delta relation
    /// was empty. Disambiguates "the variant never ran" from "the variant
    /// ran and matched nothing": a firing with zero derivations still
    /// counts its steps above, a skipped variant counts here and nowhere
    /// else.
    pub variants_skipped: u64,
    /// Candidate tuples examined across all join steps: tuples pulled
    /// from scans and probed buckets (including ones residual filtering
    /// rejected), and one per lookup that found its tuple. The
    /// deterministic work-done measure the F9 report table pins.
    pub rows_examined: u64,
    /// Rule plans compiled for this run: positive for the full fixpoint
    /// ([`Program::eval`], [`Program::fixpoint`]), zero for
    /// [`Program::grow`] and [`Program::shrink`], which run the caller's
    /// plans — the `CommitReport` evidence that ground-atom commits
    /// recompile nothing.
    pub plans_compiled: u64,
    /// DRed phase 1 ([`Program::shrink`]): tuples the over-deletion
    /// fixpoint removed from the model — the retracted facts themselves
    /// plus everything transitively derivable from them.
    pub tuples_overdeleted: u64,
    /// DRed phase 3: over-deleted tuples put back because an alternative
    /// derivation (or extensional membership) still supports them.
    pub tuples_rederived: u64,
    /// DRed phase 3: support queries executed — one per over-deleted
    /// tuple per candidate rule head, until one succeeds. These run the
    /// prebound `RulePlan::support` plan, never a full firing.
    pub support_checks: u64,
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
        self.scan_steps += other.scan_steps;
        self.variants_skipped += other.variants_skipped;
        self.rows_examined += other.rows_examined;
        self.plans_compiled += other.plans_compiled;
        self.tuples_overdeleted += other.tuples_overdeleted;
        self.tuples_rederived += other.tuples_rederived;
        self.support_checks += other.support_checks;
    }
}

impl Program {
    /// Compute the least model by **semi-naive** evaluation: after the
    /// first round, only join against the delta of the previous round.
    /// Plans are compiled from the EDB's live statistics.
    pub fn eval(&self) -> (Database, EvalStats) {
        self.fixpoint(true)
    }

    /// Compute the least model with an explicit strategy — semi-naive
    /// (`true`) or the **naive** rounds that re-derive everything each
    /// iteration (`false`): the reference the differential property suites
    /// and the report's F6 table compare [`Program::eval`] against.
    pub fn fixpoint(&self, seminaive: bool) -> (Database, EvalStats) {
        // Compile every rule exactly once; plans are reused each round.
        let plans: Vec<RulePlan> = self
            .rules
            .iter()
            .map(|r| RulePlan::compile(r, &self.edb))
            .collect();
        let mut stats = EvalStats {
            plans_compiled: plans.len() as u64,
            ..EvalStats::default()
        };
        let mut db = self.edb.clone();
        if seminaive {
            db = fix_seminaive(&plans, db, &mut stats, |_| {});
        } else {
            fix_naive(&plans, &mut db, &mut stats);
        }
        (db, stats)
    }

    /// Resume the least-model fixpoint from a model already computed for
    /// a smaller fact set.
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
    /// `plans` must be the compiled plans of exactly `self.rules`, in
    /// order — the cross-commit plan-cache hook (they depend only on the
    /// rule shapes, so a cache owner invalidates them precisely when a
    /// commit changes the rule set; a caller without a cache compiles
    /// them with [`RulePlan::compile`] against `model`).
    /// Reports `plans_compiled == 0`: ground-atom commits recompile
    /// nothing.
    ///
    /// Third in the result are the tuples the fixpoint added — exactly
    /// the new model less `model` — as its rounds' deltas, pairwise
    /// disjoint, in the order the rounds ran: first the genuinely new
    /// facts (empty when there are none), then one per round that derived
    /// something new.
    pub fn grow(
        &self,
        plans: &[RulePlan],
        model: Database,
        new_facts: &Database,
    ) -> (Database, EvalStats, Vec<Database>) {
        debug_assert_eq!(plans.len(), self.rules.len(), "one plan per rule");
        let mut stats = EvalStats::default();
        let mut ddb = DeltaDatabase::resume(model, new_facts);
        let mut added = vec![ddb.delta().clone()];
        seminaive_rounds(plans, &mut ddb, false, &mut stats, |delta| {
            added.push(delta.clone())
        });
        (ddb.into_total(), stats, added)
    }

    /// Shrink the least model after a retraction, without recomputing it
    /// from scratch — the delete-and-re-derive (DRed) algorithm over
    /// caller-supplied plans (the same contract as [`Program::grow`]'s).
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
    /// `plans_compiled == 0`. Third in the result are the tuples the
    /// retraction removed — exactly `model` less the new model: the
    /// over-deleted set less what phase 4 put back.
    pub fn shrink(
        &self,
        plans: &[RulePlan],
        mut model: Database,
        removed_facts: &Database,
    ) -> (Database, EvalStats, Database) {
        debug_assert_eq!(plans.len(), self.rules.len(), "one plan per rule");
        let mut stats = EvalStats::default();

        // Phase 1 — over-delete. Seed with the removed facts actually in
        // the model; absent retracts delete nothing.
        let seed = removed_facts.relations().map(|(pred, rel)| {
            let mut present = Rows::new(pred.arity());
            present.extend(rel.iter().filter(|t| model.contains_tuple(pred, t)));
            (pred, present)
        });
        let mut deleted = DeltaDatabase::new(Database::new());
        if deleted.advance(seed) == 0 {
            return (model, stats, Database::new());
        }
        while !deleted.delta().is_empty() {
            stats.iterations += 1;
            let mut next = Heads::default();
            fire_delta_variants(plans, &model, deleted.delta(), &mut next, &mut stats);
            // Every candidate is already in the model (the model is closed
            // under the rules and the delta is a subset of it), so advance
            // filters only against what is already marked deleted.
            deleted.advance(next.into_batches());
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
        // post-retraction EDB, or an alternative derivation found by the
        // prebound support plan.
        let mut seeds = Vec::new();
        for (pred, rel) in deleted.relations() {
            let mut survivors = Rows::new(pred.arity());
            for t in rel.iter() {
                let survives = self.edb.contains_tuple(pred, t)
                    || plans.iter().any(|plan| {
                        if plan.head.pred != pred {
                            return false;
                        }
                        let mut env = vec![None; plan.slots.len()];
                        if !plan.bind_head(t, &mut env) {
                            return false;
                        }
                        stats.support_checks += 1;
                        let mut found = false;
                        plan.support.for_each_match_counting(
                            &model,
                            None,
                            &mut env,
                            &mut stats.rows_examined,
                            &mut |_| found = true,
                        );
                        found
                    });
                if survives {
                    survivors.push(t);
                }
            }
            seeds.push((pred, survivors));
        }

        // Phase 4 — propagate the survivors with the ordinary insertion
        // fixpoint. Everything it adds back was over-deleted (the model
        // was closed before the prune), so it reuses the delta variants.
        let mut ddb = DeltaDatabase::new(model);
        ddb.advance(seeds);
        seminaive_rounds(plans, &mut ddb, false, &mut stats, |_| {});
        // Each over-deleted tuple is either back or gone for good.
        let mut db = ddb.into_total();
        let mut removed = Database::new();
        for (pred, rel) in deleted.relations() {
            let mut gone = Rows::new(pred.arity());
            gone.extend(rel.iter().filter(|t| !db.contains_tuple(pred, t)));
            let gone = removed.relation_mut(pred).insert_ascending(gone);
            stats.tuples_rederived += (rel.len() - gone.len()) as u64;
        }
        db.prune_empty();
        removed.prune_empty();
        (db, stats, removed)
    }
}

/// Semi-naive fixpoint over a stable/delta split;
/// `on_round` sees each round's delta, as [`seminaive_rounds`] hands it out.
pub(crate) fn fix_seminaive(
    plans: &[RulePlan],
    db: Database,
    stats: &mut EvalStats,
    on_round: impl FnMut(&Database),
) -> Database {
    let mut ddb = DeltaDatabase::new(db);
    seminaive_rounds(plans, &mut ddb, true, stats, on_round);
    ddb.into_total()
}

/// Run semi-naive rounds to fixpoint. With `full_first_round` set, the
/// first iteration executes every rule's full plan (the delta is
/// conceptually "everything" — a fixpoint starting from scratch); without
/// it, the caller pre-seeded the delta ([`DeltaDatabase::resume`]) and
/// only delta variants ever run. After every round that derived something
/// new, `on_round` is handed that round's delta — the facts it derived
/// first — which is how [`Program::why`] learns each tuple's round.
fn seminaive_rounds(
    plans: &[RulePlan],
    ddb: &mut DeltaDatabase,
    full_first_round: bool,
    stats: &mut EvalStats,
    mut on_round: impl FnMut(&Database),
) {
    let mut first_round = full_first_round;
    loop {
        stats.iterations += 1;
        let mut new_facts = Heads::default();
        if first_round {
            // Round 1: the delta is conceptually "everything", so each
            // rule runs its full plan once.
            first_round = false;
            fire_full_plans(plans, ddb.total(), &mut new_facts, stats);
        } else {
            fire_delta_variants(plans, ddb.total(), ddb.delta(), &mut new_facts, stats);
        }
        if ddb.advance(new_facts.into_batches()) == 0 {
            break;
        }
        on_round(ddb.delta());
    }
}

/// Naive fixpoint: every rule's full plan, every round.
fn fix_naive(plans: &[RulePlan], db: &mut Database, stats: &mut EvalStats) {
    loop {
        stats.iterations += 1;
        let mut new_facts = Heads::default();
        fire_full_plans(plans, db, &mut new_facts, stats);
        let added: usize = new_facts
            .into_batches()
            .map(|(pred, batch)| db.relation_mut(pred).insert_ascending(batch).len())
            .sum();
        if added == 0 {
            break;
        }
    }
}

/// The heads one round derives, per predicate, in its row type and in
/// the order they were derived: the one sink every firing pushes to.
#[derive(Debug, Default)]
pub(crate) struct Heads(BTreeMap<Pred, Rows>);

impl Heads {
    /// Each predicate's heads sorted and deduplicated — the ascending
    /// batches [`DeltaDatabase::advance`] takes — skipping predicates
    /// whose firings derived nothing.
    pub(crate) fn into_batches(self) -> impl Iterator<Item = (Pred, Rows)> {
        self.0
            .into_iter()
            .filter(|(_, heads)| !heads.is_empty())
            .map(|(pred, mut heads)| {
                heads.sort_and_dedup();
                (pred, heads)
            })
    }
}

/// Fire every rule's full plan once against `total`: one naive round.
pub(crate) fn fire_full_plans(
    plans: &[RulePlan],
    total: &Database,
    out: &mut Heads,
    stats: &mut EvalStats,
) {
    for plan in plans {
        stats.rule_firings += 1;
        stats.full_firings += 1;
        fire(plan, &plan.full, total, None, out, stats);
    }
}

/// Fire every delta variant whose predicate gained facts in `delta`; a
/// variant with nothing new for its literal is skipped, not fired with an
/// empty result.
fn fire_delta_variants(
    plans: &[RulePlan],
    total: &Database,
    delta: &Database,
    out: &mut Heads,
    stats: &mut EvalStats,
) {
    for plan in plans {
        for (pred, variant) in &plan.variants {
            if delta.relation(*pred).is_none_or(|r| r.is_empty()) {
                stats.variants_skipped += 1;
                continue;
            }
            stats.rule_firings += 1;
            fire(plan, variant, total, Some(delta), out, stats);
        }
    }
}

/// Execute one join plan: ground the head of every complete match into
/// its predicate's batch in `out`.
fn fire(
    plan: &RulePlan,
    join: &ConjunctionPlan,
    total: &Database,
    delta: Option<&Database>,
    out: &mut Heads,
    stats: &mut EvalStats,
) {
    for step in join.steps() {
        match step.index_col {
            Some(_) => stats.probe_steps += 1,
            None => stats.scan_steps += 1,
        }
    }
    let mut env = vec![None; plan.slots.len()];
    let pred = plan.head.pred;
    // A delta round's heads are about as many as the delta's rows: room
    // for that many up front, rather than growing by doubling.
    let room = delta.map_or(0, Database::len);
    let out = out
        .0
        .entry(pred)
        .or_insert_with(|| Rows::with_capacity(pred.arity(), room));
    stats.derivations += join.derive_into(
        &plan.head,
        total,
        delta,
        &mut env,
        &mut stats.rows_examined,
        out,
    );
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

    /// Plans of `p` compiled afresh against `model` — what a caller of
    /// `grow` / `shrink` without a plan cache passes.
    fn plans_for(p: &Program, model: &Database) -> Vec<RulePlan> {
        p.rules
            .iter()
            .map(|r| RulePlan::compile(r, model))
            .collect()
    }

    #[test]
    fn transitive_closure_chain() {
        let p = chain(5);
        let (db, _) = p.eval();
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
            let (a, _) = p.eval();
            let (b, _) = p.fixpoint(false);
            assert_eq!(a, b, "models differ for chain({n})");
        }
    }

    #[test]
    fn seminaive_derives_less() {
        let p = chain(12);
        let (_, fast) = p.eval();
        let (_, slow) = p.fixpoint(false);
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
        let (_, fast) = p.eval();
        let (_, slow) = p.fixpoint(false);
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
            let (model, _) = before.eval();
            // The program over the enlarged fact set…
            let after = chain(old + added);
            // …and the new facts alone.
            let mut new_facts = epilog_storage::Database::new();
            for i in old..old + added {
                new_facts.insert(&atom(&format!("e(n{i}, n{})", i + 1)));
            }
            let (inc, stats, _) = after.grow(&plans_for(&after, &model), model, &new_facts);
            let (scratch, _) = after.eval();
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
        let (model, _) = p.eval();
        let mut dup = epilog_storage::Database::new();
        dup.insert(&atom("e(n0, n1)"));
        let (inc, stats, added) = p.grow(&plans_for(&p, &model), model.clone(), &dup);
        assert_eq!(inc, model);
        assert!(added.iter().all(Database::is_empty), "nothing was added");
        assert_eq!(stats.rule_firings, 0, "empty delta fires nothing");
        assert_eq!(stats.full_firings, 0);
    }

    #[test]
    fn planner_modes_agree_and_report_strategies() {
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("q(k{}, val{i})\nbig(k{}, val{i})\n", i % 2, i % 2));
        }
        src.push_str("forall x, y. q(x, y) & big(x, y) -> hit(x, y)\n");
        let p = Program::from_text(&src).unwrap();
        let (db, stats) = p.fixpoint(true);
        let (naive_db, naive) = p.fixpoint(false);
        assert_eq!(db, naive_db);
        assert_eq!(stats.derivations, 8);
        assert_eq!(stats.rule_firings, 1);
        // Both columns of `big` bound: one scan of `q`, then a lookup
        // per row that finds its tuple. (Probing `big`'s skewed column 0
        // instead would examine 8 + 8 × 4.)
        assert_eq!((stats.scan_steps, stats.probe_steps), (1, 1));
        assert_eq!(stats.rows_examined, 16);
        assert_eq!(naive.probe_steps, 2, "the same plan, fired in both rounds");
        assert!(stats.plans_compiled > 0);
    }

    #[test]
    fn recursive_delta_rounds_never_do_more_work_than_greedy() {
        // r(y) ← r(x) ∧ a(x,y) ∧ b(x,y): every semi-naive round carries
        // a one-row delta, and `b`, with both columns bound by then, is
        // one lookup per round — the evaluation stays Θ(n).
        let n = 32;
        let mut src = String::from("r(n0)\n");
        for i in 0..n {
            src.push_str(&format!("a(n{i}, n{})\nb(n{i}, n{})\n", i + 1, i + 1));
        }
        src.push_str("forall x, y. r(x) & a(x, y) & b(x, y) -> r(y)\n");
        let p = Program::from_text(&src).unwrap();
        let (db, stats) = p.fixpoint(true);
        assert_eq!(db.relation(Pred::new("r", 1)).unwrap().len(), n + 1);
        // One r-row, one a-probe hit and one b-lookup hit per round, plus
        // the last round's r-row that finds no `a`.
        assert_eq!(stats.rows_examined, 97);
    }

    #[test]
    fn skipped_variants_are_counted_apart_from_firings() {
        let p = chain(6);
        let (_, stats) = p.eval();
        assert!(
            stats.variants_skipped > 0,
            "the e-delta variant is skipped after round 2"
        );
        // Naive evaluation has no variants to skip.
        let (_, naive) = p.fixpoint(false);
        assert_eq!(naive.variants_skipped, 0);
    }

    #[test]
    fn cached_plans_match_fresh_compiles_and_compile_nothing() {
        let before = chain(5);
        let (model, _) = before.eval();
        let after = chain(8);
        let mut new_facts = epilog_storage::Database::new();
        for i in 5..8 {
            new_facts.insert(&atom(&format!("e(n{i}, n{})", i + 1)));
        }
        let plans = plans_for(&after, &model);
        let (cached, cached_stats, _) = after.grow(&plans, model, &new_facts);
        let (scratch, scratch_stats) = after.eval();
        assert_eq!(cached, scratch);
        assert_eq!(
            cached_stats.plans_compiled, 0,
            "cache path compiles nothing"
        );
        assert!(scratch_stats.plans_compiled > 0);
        assert_eq!(cached_stats.full_firings, 0);
    }

    #[test]
    fn decremental_matches_from_scratch_on_chains() {
        for (n, cut) in [(6usize, 2usize), (5, 0), (8, 7)] {
            let before = chain(n);
            let (model, _) = before.eval();
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
            let (dec, stats, _) = after.shrink(&plans_for(&after, &model), model, &removed);
            let (scratch, _) = after.eval();
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
        let (model, _) = before.eval();
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
        let (dec, stats, _) = after.shrink(&plans_for(&after, &model), model, &removed);
        let (scratch, _) = after.eval();
        assert_eq!(dec, scratch);
        assert!(dec.contains(&atom("t(a, b)")), "e2 still supports t(a, b)");
        assert!(!dec.contains(&atom("t(a, c)")), "a→…→c needed e(a, b)");
        assert!(stats.support_checks > 0, "survival went through support");
        assert!(stats.tuples_rederived > 0);
        assert_eq!(stats.full_firings, 0);
    }

    #[test]
    fn decremental_binds_repeated_and_constant_heads() {
        // Heads `bind_head` can refuse a tuple on: `self(x, x)` repeats a
        // slot, `tag(x, c0)` / `tag(x, c1)` fix a column.
        let rules = "forall x. f(x) -> self(x, x)
             forall x. g(x) -> self(x, x)
             forall x. f(x) -> tag(x, c0)
             forall x. g(x) -> tag(x, c1)";
        let before = Program::from_text(&format!("f(a)\ng(a)\n{rules}")).unwrap();
        let (model, _) = before.eval();
        let mut removed = epilog_storage::Database::new();
        removed.insert(&atom("f(a)"));
        let after = Program::from_text(&format!("g(a)\n{rules}")).unwrap();
        let (dec, stats, gone) = after.shrink(&plans_for(&after, &model), model, &removed);
        let (scratch, _) = after.eval();
        assert_eq!(dec, scratch);
        assert_eq!(stats.tuples_overdeleted, 3, "f(a), self(a, a), tag(a, c0)");
        assert_eq!(
            gone,
            [atom("f(a)"), atom("tag(a, c0)")].into_iter().collect()
        );
        // self(a, a): the f-rule's probe fails, the g-rule's re-derives it;
        // tag(a, c0): the f-rule's probe fails, the g-rule's head says c1
        // and is refused before any probe.
        assert_eq!(stats.support_checks, 3);
        assert_eq!(stats.tuples_rederived, 1);
        assert!(dec.contains(&atom("self(a, a)")));
        assert!(!dec.contains(&atom("tag(a, c0)")));
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
        let (model, _) = before.eval();
        let mut removed = epilog_storage::Database::new();
        removed.insert(&atom("e(a, b)"));
        let after = Program::from_text(
            "t(a, b)
             forall x, y. e(x, y) -> t(x, y)",
        )
        .unwrap();
        let (dec, _, _) = after.shrink(&plans_for(&after, &model), model, &removed);
        let (scratch, _) = after.eval();
        assert_eq!(dec, scratch);
        assert!(dec.contains(&atom("t(a, b)")));
        assert!(!dec.contains(&atom("e(a, b)")));
    }

    #[test]
    fn decremental_of_absent_fact_is_a_noop() {
        let p = chain(4);
        let (model, _) = p.eval();
        let mut removed = epilog_storage::Database::new();
        removed.insert(&atom("e(n9, n10)"));
        let (dec, stats, gone) = p.shrink(&plans_for(&p, &model), model.clone(), &removed);
        assert_eq!(dec, model);
        assert!(gone.is_empty());
        assert_eq!(stats.rule_firings, 0, "empty seed deletes nothing");
        assert_eq!(stats.tuples_overdeleted, 0);
    }

    #[test]
    fn cached_decremental_plans_match_fresh_and_compile_nothing() {
        let before = chain(7);
        let (model, _) = before.eval();
        let mut removed = epilog_storage::Database::new();
        removed.insert(&atom("e(n3, n4)"));
        let mut src = String::new();
        for i in (0..7).filter(|&i| i != 3) {
            src.push_str(&format!("e(n{i}, n{})\n", i + 1));
        }
        src.push_str("forall x, y. e(x, y) -> t(x, y)\n");
        src.push_str("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n");
        let after = Program::from_text(&src).unwrap();
        let plans = plans_for(&after, &model);
        let (cached, cached_stats, _) = after.shrink(&plans, model, &removed);
        let (scratch, scratch_stats) = after.eval();
        assert_eq!(cached, scratch);
        assert_eq!(
            cached_stats.plans_compiled, 0,
            "cache path compiles nothing"
        );
        assert!(scratch_stats.plans_compiled > 0);
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
            scan_steps: 7,
            variants_skipped: 8,
            rows_examined: 9,
            plans_compiled: 10,
            tuples_overdeleted: 11,
            tuples_rederived: 12,
            support_checks: 13,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.rule_firings, 2);
        assert_eq!(a.full_firings, 4);
        assert_eq!(a.derivations, 6);
        assert_eq!(a.iterations, 8);
        assert_eq!(a.probe_steps, 10);
        assert_eq!(a.scan_steps, 14);
        assert_eq!(a.variants_skipped, 16);
        assert_eq!(a.rows_examined, 18);
        assert_eq!(a.plans_compiled, 20);
        assert_eq!(a.tuples_overdeleted, 22);
        assert_eq!(a.tuples_rederived, 24);
        assert_eq!(a.support_checks, 26);
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
        let (db, _) = p.eval();
        assert!(db.contains(&atom("sg(c1, c2)")));
        assert!(db.contains(&atom("sg(p1, p2)")));
        assert!(db.contains(&atom("sg(c1, c1)")));
        // Children are not same-generation with parents.
        assert!(!db.contains(&atom("sg(c1, p1)")));
    }

    #[test]
    fn facts_only_program() {
        let p = Program::from_text("p(a)\np(b)").unwrap();
        let (db, stats) = p.eval();
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
        let (db, _) = p.eval();
        assert!(db.contains(&atom("q(b)")));
        let (db2, _) = p.fixpoint(false);
        assert_eq!(db, db2);
    }

    #[test]
    fn no_phantom_relations_from_index_warmup() {
        // Body predicate `e` has no facts; probing it must not leave an
        // empty `e` relation in the result (it would break Database
        // equality and preds() for downstream oracles).
        let p = Program::from_text("f(b)\nforall x. e(a, x) -> g(x)").unwrap();
        let (db, _) = p.eval();
        assert_eq!(db.preds(), vec![Pred::new("f", 1)]);
        assert!(db
            .preds()
            .into_iter()
            .all(|pr| !db.relation(pr).unwrap().is_empty()));
        let (db2, _) = p.fixpoint(false);
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
}
