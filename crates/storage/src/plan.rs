//! Compiled join plans over indexed relations.
//!
//! A [`ConjunctionPlan`] turns a conjunction of atoms into an executable
//! join: variables are numbered into dense **slots** (so a binding
//! environment is a flat `Vec<Option<Param>>` rather than a hash map),
//! atoms are reordered so cheap literals join first, and each step's
//! selection shape — which columns are constants, which are bound by
//! earlier steps, which bind fresh slots — is computed once at compile
//! time. Execution walks borrowed rows; nothing is copied until a full
//! match reaches the caller's callback — or, for a rule firing
//! ([`ConjunctionPlan::derive_into`]), until the head is grounded straight
//! into the row type of its predicate.
//!
//! The planner is **cost-based**: a compile reads relation statistics
//! from a [`Database`] through a [`PlanStats`] view, orders literals by
//! ascending estimated match count (relation cardinality divided by the
//! distinct counts of its bound columns, `Relation::distinct_count`).
//! Over an empty database every estimate is 1, and the tie-break is the
//! order: most bound columns first, then written order.
//!
//! How a step finds its candidates follows from its shape alone, through
//! [`Relation::select`]: a step binding **every** column is a lookup (one
//! search of the row set, at most one row), a step binding some
//! columns probes the first one ([`JoinStep::index_col`]) and filters the
//! rest residually, and a step binding none scans. Storage builds and
//! maintains whatever index a probe needs; a plan names none. An
//! execution looks each step's relation up once and keeps one storage
//! cursor per step beside it and its pattern buffer, and a step walks
//! its matches through [`Matches::for_each_counting`], whole run slices
//! at a time: each probe of a step resumes where its previous one landed,
//! which makes the ascending keys of a delta-first step (and of a step
//! under it, within one outer row) a forward walk, while keys in any
//! other order fall back to a fresh seek. Which rows a probe yields,
//! and how many it examines, do not depend on the cursor.
//!
//! Costing reads `Relation::distinct_count`, which counts without a
//! sort: key changes where the keys are stored in order, one bitset
//! pass otherwise.
//!
//! The Datalog engine compiles one plan per rule and delta position
//! (`epilog-datalog`'s `RulePlan`); the canonical-model grounder in
//! `epilog-prover` compiles one per rule body.
//!
//! [`Relation::select`]: crate::relation::Relation::select

use crate::database::Database;
use crate::relation::{Matches, Relation};
use crate::row::{by_width, Row, Rows};
use crate::runset::Cursor;
use epilog_syntax::formula::Atom;
use epilog_syntax::{Param, Pred, Term, Var};
use std::collections::HashMap;

/// Dense numbering of the variables appearing in a rule: slot `i` holds
/// the binding of `vars()[i]`.
#[derive(Debug, Clone, Default)]
pub struct SlotMap {
    vars: Vec<Var>,
}

impl SlotMap {
    /// An empty slot map.
    pub fn new() -> Self {
        SlotMap::default()
    }

    /// The slot of `v`, allocating the next dense slot on first sight.
    pub fn intern(&mut self, v: Var) -> usize {
        match self.get(v) {
            Some(s) => s,
            None => {
                self.vars.push(v);
                self.vars.len() - 1
            }
        }
    }

    /// The slot of `v`, if allocated.
    pub fn get(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|w| *w == v)
    }

    /// Number of allocated slots (= the environment length to allocate).
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no variable has been interned.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Slot-indexed variable names.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }
}

/// One argument position of a compiled atom: a constant parameter or a
/// variable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatTerm {
    /// A constant in the rule text.
    Const(Param),
    /// The variable numbered into this slot.
    Slot(usize),
}

/// An atom with its variables compiled to slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomTemplate {
    /// The predicate.
    pub pred: Pred,
    /// Per column, a constant or a slot.
    pub args: Vec<PatTerm>,
}

impl AtomTemplate {
    /// Compile an atom, interning its variables.
    pub fn compile(atom: &Atom, slots: &mut SlotMap) -> AtomTemplate {
        AtomTemplate {
            pred: atom.pred,
            args: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Param(p) => PatTerm::Const(*p),
                    Term::Var(v) => PatTerm::Slot(slots.intern(*v)),
                })
                .collect(),
        }
    }

    /// Write the selection pattern induced by the current environment
    /// into `out`, one entry per column.
    pub(crate) fn pattern_into(&self, env: &[Option<Param>], out: &mut [Option<Param>]) {
        for (o, a) in out.iter_mut().zip(&self.args) {
            *o = match a {
                PatTerm::Const(p) => Some(*p),
                PatTerm::Slot(s) => env[*s],
            };
        }
    }

    /// The ground row under a complete environment, owned.
    ///
    /// # Panics
    /// Panics when a slot the template mentions is unbound (ruled out for
    /// rule heads by Datalog safety).
    pub fn ground(&self, env: &[Option<Param>]) -> Box<[Param]> {
        self.ground_row(env)
    }

    /// [`AtomTemplate::ground`] in the row type `R`.
    fn ground_row<R: Row>(&self, env: &[Option<Param>]) -> R {
        R::build(self.args.len(), |c| match self.args[c] {
            PatTerm::Const(p) => p,
            PatTerm::Slot(s) => env[s].expect("unbound slot in ground template"),
        })
    }
}

/// One join step of a compiled plan. The selection shape is static: which
/// columns are constants or bound by earlier steps (and therefore filter),
/// which columns bind fresh slots, and which repeat a slot first bound by
/// an earlier column of the same atom.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// The compiled atom.
    pub template: AtomTemplate,
    /// Whether this literal matches the delta instead of the total.
    pub from_delta: bool,
    /// The first column known bound at compile time — the column
    /// [`Relation::select`](crate::Relation::select) probes; `None` means
    /// a full scan.
    pub index_col: Option<usize>,
    /// Estimated matches this step emits per outer row — the quantity the
    /// cost-based ordering minimizes.
    pub est: u64,
    /// Columns that bind a fresh slot (first occurrence in this atom).
    binders: Vec<(usize, usize)>,
    /// Columns that repeat a slot bound earlier in this same atom.
    checks: Vec<(usize, usize)>,
}

impl JoinStep {
    /// Whether every column is a constant or bound by an earlier step, so
    /// the step is a lookup of one row rather than a probe or a scan.
    pub fn is_lookup(&self) -> bool {
        self.index_col.is_some() && self.binders.is_empty()
    }
}

/// A compiled conjunction of atoms: steps in join order.
#[derive(Debug, Clone)]
pub struct ConjunctionPlan {
    steps: Vec<JoinStep>,
}

/// Relation statistics consulted while compiling a plan: live
/// cardinalities and per-column distinct counts read from a [`Database`]
/// (typically the program's EDB, or a cached least model). Predicates the
/// database does not hold — intensional relations whose size is unknown
/// before the fixpoint runs — are estimated at the size of the largest
/// known relation, which makes the cost order degrade gracefully to
/// bound-column count instead of gambling on recursion being small.
///
/// Distinct counts are memoized, and a rule compiler producing several
/// plan variants over the same database should build **one** `PlanStats`
/// and pass it to every [`ConjunctionPlan::compile`] call, so a
/// column's counting pass is paid once per rule, not once per variant.
pub struct PlanStats<'a> {
    db: &'a Database,
    /// Fallback cardinality for unknown predicates.
    default_len: usize,
    /// Memoized per-(predicate, column) distinct counts: the ordering
    /// loop re-estimates every remaining literal per iteration, and a
    /// `distinct_count` is a pass over the relation — pay it once.
    distinct_memo: std::cell::RefCell<HashMap<(Pred, usize), usize>>,
}

impl<'a> PlanStats<'a> {
    /// Snapshot a statistics view over `db`.
    pub fn new(db: &'a Database) -> Self {
        let default_len = db
            .relations()
            .map(|(_, r)| r.len())
            .max()
            .unwrap_or(1)
            .max(1);
        PlanStats {
            db,
            default_len,
            distinct_memo: std::cell::RefCell::new(HashMap::new()),
        }
    }

    fn len_of(&self, pred: Pred) -> usize {
        self.db
            .relation(pred)
            .map(|r| r.len())
            .unwrap_or(self.default_len)
    }

    fn distinct_of(&self, pred: Pred, c: usize) -> usize {
        *self
            .distinct_memo
            .borrow_mut()
            .entry((pred, c))
            .or_insert_with(|| {
                self.db
                    .relation(pred)
                    .map(|r| r.distinct_count(c))
                    .unwrap_or(self.default_len)
                    .max(1)
            })
    }

    /// Estimated matches per outer row for `template` given which slots
    /// are bound: cardinality over the product of the bound columns'
    /// distinct counts (clamped, integer arithmetic — deterministic).
    fn estimate(&self, template: &AtomTemplate, bound: &[bool]) -> u64 {
        let mut est = self.len_of(template.pred) as u64;
        for (c, arg) in template.args.iter().enumerate() {
            let is_bound = match arg {
                PatTerm::Const(_) => true,
                PatTerm::Slot(s) => bound[*s],
            };
            if is_bound {
                est /= self.distinct_of(template.pred, c) as u64;
            }
        }
        est
    }
}

impl ConjunctionPlan {
    /// Compile a conjunction against a (shared) slot map.
    ///
    /// When `delta_pos` is `Some(d)`, literal `d` joins first and matches
    /// the delta database — the delta is the smallest relation in sight
    /// by construction, so it is pinned to the outermost position rather
    /// than costed. The remaining literals all match the total and are
    /// ordered by ascending estimated match count (cardinality over
    /// bound-column distinct counts, read live from `stats`), ties broken
    /// by bound-column count then written order.
    pub fn compile(
        atoms: &[Atom],
        slots: &mut SlotMap,
        delta_pos: Option<usize>,
        stats: &PlanStats<'_>,
    ) -> Self {
        Self::compile_inner(atoms, slots, delta_pos, &[], stats)
    }

    /// Compile a conjunction whose `prebound` slots are already bound when
    /// the plan runs — the caller seeds the environment before
    /// [`ConjunctionPlan::for_each_match`]. Prebound slots are treated as
    /// bound throughout planning, so they route into index probes and
    /// lookups (never into binders that would clobber the seeded values
    /// on unwind). This is the shape of a *support query*:
    /// given a ground head, does any body match re-derive it?
    pub fn compile_support(
        atoms: &[Atom],
        slots: &mut SlotMap,
        prebound: &[usize],
        stats: &PlanStats<'_>,
    ) -> Self {
        Self::compile_inner(atoms, slots, None, prebound, stats)
    }

    fn compile_inner(
        atoms: &[Atom],
        slots: &mut SlotMap,
        delta_pos: Option<usize>,
        prebound: &[usize],
        stats: &PlanStats<'_>,
    ) -> Self {
        // Intern every variable up front so slot numbering follows written
        // order regardless of the join order chosen below.
        let templates: Vec<AtomTemplate> = atoms
            .iter()
            .map(|a| AtomTemplate::compile(a, slots))
            .collect();

        let mut bound = vec![false; slots.len()];
        for &s in prebound {
            bound[s] = true;
        }
        let mut steps = Vec::with_capacity(templates.len());
        let mut remaining: Vec<usize> = (0..templates.len()).collect();

        if let Some(d) = delta_pos {
            remaining.retain(|&i| i != d);
            steps.push(Self::make_step(&templates[d], true, &mut bound, stats));
        }
        while !remaining.is_empty() {
            let bound_count = |i: usize| {
                templates[i]
                    .args
                    .iter()
                    .filter(|a| match a {
                        PatTerm::Const(_) => true,
                        PatTerm::Slot(s) => bound[*s],
                    })
                    .count()
            };
            // The literal expected to emit the fewest matches per outer
            // row joins next; on a tie the one with the most bound
            // columns, then the earliest written.
            let pos = (0..remaining.len())
                .min_by_key(|&pos| {
                    let i = remaining[pos];
                    (
                        stats.estimate(&templates[i], &bound),
                        usize::MAX - bound_count(i),
                        pos,
                    )
                })
                .expect("remaining is nonempty");
            let i = remaining.remove(pos);
            steps.push(Self::make_step(&templates[i], false, &mut bound, stats));
        }
        ConjunctionPlan { steps }
    }

    fn make_step(
        template: &AtomTemplate,
        from_delta: bool,
        bound: &mut [bool],
        stats: &PlanStats<'_>,
    ) -> JoinStep {
        let mut index_col = None;
        let mut binders = Vec::new();
        let mut checks = Vec::new();
        let mut fresh_here = Vec::new();
        // A delta literal is estimated at its true (small) size — one
        // row — not at its predicate's total cardinality: the delta holds
        // only the last round's new facts.
        let est = if from_delta {
            1
        } else {
            stats.estimate(template, bound)
        };
        for (c, arg) in template.args.iter().enumerate() {
            match arg {
                PatTerm::Const(_) => {
                    index_col.get_or_insert(c);
                }
                PatTerm::Slot(s) => {
                    if bound[*s] {
                        index_col.get_or_insert(c);
                    } else if fresh_here.contains(s) {
                        checks.push((c, *s));
                    } else {
                        binders.push((c, *s));
                        fresh_here.push(*s);
                    }
                }
            }
        }
        for s in fresh_here {
            bound[s] = true;
        }
        JoinStep {
            template: template.clone(),
            from_delta,
            index_col,
            est,
            binders,
            checks,
        }
    }

    /// The steps in join order.
    pub fn steps(&self) -> &[JoinStep] {
        &self.steps
    }

    /// Run the join, invoking `f` with the environment of every complete
    /// match. `env` must hold at least `slots.len()` entries with every
    /// slot this plan binds set to `None`; it is restored on return.
    pub fn for_each_match(
        &self,
        total: &Database,
        delta: Option<&Database>,
        env: &mut [Option<Param>],
        f: &mut dyn FnMut(&[Option<Param>]),
    ) {
        let mut rows = 0;
        self.for_each_match_counting(total, delta, env, &mut rows, f);
    }

    /// Run the join as [`ConjunctionPlan::for_each_match_counting`] does,
    /// pushing `head` grounded under every complete match onto `out`,
    /// straight into its row type (one dispatch on `out`'s arity per call,
    /// none per match). Returns the number of matches.
    ///
    /// # Panics
    /// Panics if `head`'s arity is not `out`'s.
    pub fn derive_into(
        &self,
        head: &AtomTemplate,
        total: &Database,
        delta: Option<&Database>,
        env: &mut [Option<Param>],
        rows: &mut u64,
        out: &mut Rows,
    ) -> u64 {
        assert_eq!(head.args.len(), out.arity(), "tuple arity mismatch");
        let mut matches = 0;
        by_width!(&mut out.rows, heads => {
            self.for_each_match_counting(total, delta, env, rows, &mut |env| {
                matches += 1;
                heads.push(head.ground_row(env));
            });
        });
        matches
    }

    /// Like [`ConjunctionPlan::for_each_match`], additionally adding to
    /// `rows` every candidate row the join examined: rows pulled from
    /// scans and probed buckets (including ones residual filtering then
    /// rejected), and the row each successful lookup found. This is the
    /// deterministic work-done measure behind `EvalStats::rows_examined`.
    pub fn for_each_match_counting(
        &self,
        total: &Database,
        delta: Option<&Database>,
        env: &mut [Option<Param>],
        rows: &mut u64,
        f: &mut dyn FnMut(&[Option<Param>]),
    ) {
        // One pattern buffer per execution, a slice of it per step: a
        // probe refills its slice per outer row instead of allocating.
        // Likewise each step's relation, resolved once per execution, and
        // its cursor: each probe resumes where the step's previous one
        // landed.
        let width = self.steps.iter().map(|s| s.template.args.len()).sum();
        let mut patterns = vec![None; width];
        let mut probes: Vec<Probe<'_>> = self
            .steps
            .iter()
            .map(|step| {
                let db = if step.from_delta {
                    delta.expect("plan has a delta step but no delta database was given")
                } else {
                    total
                };
                (db.relation(step.template.pred), Cursor::default())
            })
            .collect();
        self.run_step(0, env, &mut patterns, &mut probes, rows, f);
    }

    fn run_step(
        &self,
        i: usize,
        env: &mut [Option<Param>],
        patterns: &mut [Option<Param>],
        probes: &mut [Probe<'_>],
        rows: &mut u64,
        f: &mut dyn FnMut(&[Option<Param>]),
    ) {
        let Some(step) = self.steps.get(i) else {
            f(env);
            return;
        };
        let (pattern, patterns) = patterns.split_at_mut(step.template.args.len());
        let ((relation, cursor), probes) = probes.split_first_mut().expect("one probe per step");
        step.template.pattern_into(env, pattern);
        let matches = relation.map_or_else(Matches::empty, |r| r.select_from(&*pattern, cursor));
        let examined = matches.for_each_counting(|row| {
            for &(c, s) in &step.binders {
                env[s] = Some(row[c]);
            }
            if step.checks.iter().all(|&(c, s)| env[s] == Some(row[c])) {
                self.run_step(i + 1, env, patterns, probes, rows, f);
            }
        });
        *rows += examined;
        for &(_, s) in &step.binders {
            env[s] = None;
        }
    }
}

/// A step's relation in the database it reads (`None` when absent) and
/// the cursor its probes resume from.
type Probe<'a> = (Option<&'a Relation>, Cursor);

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    fn atom(src: &str) -> Atom {
        match parse(src).unwrap() {
            epilog_syntax::Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        }
    }

    fn db(facts: &[&str]) -> Database {
        let mut db = Database::new();
        for f in facts {
            let a = atom(f);
            db.insert(&a);
        }
        db
    }

    /// Compile `atoms` against the statistics of `stats`.
    fn compile_on(
        atoms: &[Atom],
        slots: &mut SlotMap,
        delta_pos: Option<usize>,
        stats: &Database,
    ) -> ConjunctionPlan {
        ConjunctionPlan::compile(atoms, slots, delta_pos, &PlanStats::new(stats))
    }

    fn matches(plan: &ConjunctionPlan, slots: &SlotMap, db: &Database) -> Vec<Vec<Option<Param>>> {
        let mut env = vec![None; slots.len()];
        let mut out = Vec::new();
        plan.for_each_match(db, None, &mut env, &mut |e| out.push(e.to_vec()));
        out
    }

    #[test]
    fn joins_bind_across_atoms() {
        let atoms = vec![atom("e(x, y)"), atom("e(y, z)")];
        let mut slots = SlotMap::new();
        let db = db(&["e(a, b)", "e(b, c)", "e(b, d)"]);
        let plan = compile_on(&atoms, &mut slots, None, &db);
        let got = matches(&plan, &slots, &db);
        // Paths of length 2: a-b-c and a-b-d.
        assert_eq!(got.len(), 2);
        for env in &got {
            assert!(env.iter().all(Option::is_some), "all slots bound");
        }
    }

    #[test]
    fn greedy_reorder_puts_constant_literal_first() {
        // Written order starts with the unbound scan; with no statistics
        // to tell the literals apart, the one with a bound column leads.
        let atoms = vec![atom("e(x, y)"), atom("p(a, x)")];
        let mut slots = SlotMap::new();
        let plan = compile_on(&atoms, &mut slots, None, &Database::new());
        assert_eq!(plan.steps()[0].template.pred, Pred::new("p", 2));
        assert_eq!(plan.steps()[0].index_col, Some(0));
        // Second step: x is bound by then, so column 0 is indexable.
        assert_eq!(plan.steps()[1].template.pred, Pred::new("e", 2));
        assert_eq!(plan.steps()[1].index_col, Some(0));
    }

    #[test]
    fn repeated_variable_within_atom_checked() {
        let atoms = vec![atom("e(x, x)")];
        let mut slots = SlotMap::new();
        let db = db(&["e(a, a)", "e(a, b)"]);
        let plan = compile_on(&atoms, &mut slots, None, &db);
        let got = matches(&plan, &slots, &db);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0][0].unwrap().name(), "a");
    }

    #[test]
    fn empty_conjunction_matches_once() {
        let mut slots = SlotMap::new();
        let plan = compile_on(&[], &mut slots, None, &Database::new());
        let got = matches(&plan, &slots, &Database::new());
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn delta_step_joins_first_and_matches_delta_only() {
        // Rule body: e(x,y), t(y,z) — delta position on t.
        let atoms = vec![atom("e(x, y)"), atom("t(y, z)")];
        let mut slots = SlotMap::new();
        let total = db(&["e(a, b)", "t(b, c)", "t(b, d)"]);
        let delta = db(&["t(b, d)"]);
        let plan = compile_on(&atoms, &mut slots, Some(1), &total);
        assert!(plan.steps()[0].from_delta);
        assert_eq!(plan.steps()[0].template.pred, Pred::new("t", 2));

        let mut env = vec![None; slots.len()];
        let mut out = Vec::new();
        plan.for_each_match(&total, Some(&delta), &mut env, &mut |e| {
            out.push(e.to_vec());
        });
        // Only the delta tuple t(b,d) seeds the join.
        assert_eq!(out.len(), 1);
        let z = slots.get(Var::new("z")).unwrap();
        assert_eq!(out[0][z].unwrap().name(), "d");
    }

    #[test]
    fn running_a_plan_builds_the_indexes_it_probes() {
        // `e(y, x)` joins second, bound on its column 1.
        let atoms = vec![atom("p(a, x)"), atom("e(y, x)")];
        let mut slots = SlotMap::new();
        let total = db(&["p(a, b)", "e(c, b)", "e(c, d)"]);
        let plan = compile_on(&atoms, &mut slots, None, &total);
        assert_eq!(plan.steps()[1].index_col, Some(1));
        let e = total.relation(Pred::new("e", 2)).unwrap();
        assert!(!e.has_index(1));
        assert_eq!(matches(&plan, &slots, &total).len(), 1);
        assert!(e.has_index(1), "the probe built the index it walked");
        // Column 0 is probed through the row set: no index to build.
        assert!(!total.relation(Pred::new("p", 2)).unwrap().has_index(1));
    }

    #[test]
    fn hash_step_chosen_and_agrees_with_probe() {
        // big(x, y) joined on both columns: costed against the relation
        // or against an empty database, the `big` step binds every column
        // and is a lookup, and both plans give the same matches.
        let atoms = vec![atom("q(x, y)"), atom("big(x, y)")];
        let mut total = Database::new();
        for i in 0..8 {
            total.insert(&atom(&format!("big(k{}, val{i})", i % 2)));
            total.insert(&atom(&format!("q(k{}, val{i})", i % 2)));
        }
        let mut slots = SlotMap::new();
        let blind = compile_on(&atoms, &mut slots, None, &Database::new());
        let mut slots2 = SlotMap::new();
        let cost = compile_on(&atoms, &mut slots2, None, &total);
        for plan in [&blind, &cost] {
            let lookups: Vec<bool> = plan.steps().iter().map(JoinStep::is_lookup).collect();
            assert_eq!(lookups, [false, true]);
        }

        let a = matches(&blind, &slots, &total);
        let b = matches(&cost, &slots2, &total);
        assert_eq!(a.len(), 8);
        assert_eq!(a, b, "costed and uncosted plans must agree");

        // 8 (scan q) + 8 lookups that each find their tuple — not the
        // 8 × 4 tuples of `big`'s skewed column-0 buckets.
        let mut rows = 0;
        let mut env = vec![None; slots2.len()];
        cost.for_each_match_counting(&total, None, &mut env, &mut rows, &mut |_| {});
        assert_eq!(rows, 16);
    }

    #[test]
    fn cost_order_puts_small_relation_first() {
        // Written order starts with the big relation; bound counts tie at
        // zero, so empty statistics keep it there while live ones flip
        // to the 1-tuple relation.
        let atoms = vec![atom("big(x, y)"), atom("small(x)")];
        let mut total = Database::new();
        for i in 0..8 {
            total.insert(&atom(&format!("big(b{i}, c{i})")));
        }
        total.insert(&atom("small(b0)"));
        let mut slots = SlotMap::new();
        let written = compile_on(&atoms, &mut slots, None, &Database::new());
        assert_eq!(written.steps()[0].template.pred, Pred::new("big", 2));
        let mut slots2 = SlotMap::new();
        let cost = compile_on(&atoms, &mut slots2, None, &total);
        assert_eq!(cost.steps()[0].template.pred, Pred::new("small", 1));
        assert_eq!(cost.steps()[0].est, 1);
        // Same matches either way.
        assert_eq!(matches(&cost, &slots2, &total).len(), 1);
        assert_eq!(matches(&written, &slots, &total).len(), 1);
    }

    #[test]
    fn stats_compile_without_relation_falls_back() {
        // A predicate absent from the stats database (an IDB relation)
        // is estimated at the largest known size — the plan still
        // compiles and runs.
        let atoms = vec![atom("e(x, y)"), atom("t(y, z)")];
        let mut total = db(&["e(a, b)"]);
        let mut slots = SlotMap::new();
        let plan = compile_on(&atoms, &mut slots, None, &total);
        assert_eq!(plan.steps()[0].template.pred, Pred::new("e", 2));
        total.insert(&atom("t(b, c)"));
        assert_eq!(matches(&plan, &slots, &total).len(), 1);
    }

    #[test]
    fn support_plan_respects_preseeded_environment() {
        // Head t(x, z) over body e(x, y), e(y, z): with x and z prebound
        // the support plan must only enumerate matching y-paths, and must
        // leave the seeded slots intact after the run.
        let mut slots = SlotMap::new();
        let head = AtomTemplate::compile(&atom("t(x, z)"), &mut slots);
        let prebound: Vec<usize> = head
            .args
            .iter()
            .filter_map(|a| match a {
                PatTerm::Slot(s) => Some(*s),
                PatTerm::Const(_) => None,
            })
            .collect();
        let body = vec![atom("e(x, y)"), atom("e(y, z)")];
        let db = db(&["e(a, b)", "e(b, c)", "e(a, d)", "e(d, e)"]);
        let plan =
            ConjunctionPlan::compile_support(&body, &mut slots, &prebound, &PlanStats::new(&db));
        // Every step filters on an already-bound column: no full scans,
        // and the second step, with both columns bound, is a lookup.
        assert!(plan.steps().iter().all(|s| s.index_col.is_some()));
        let lookups: Vec<bool> = plan.steps().iter().map(JoinStep::is_lookup).collect();
        assert_eq!(lookups, [false, true]);

        let mut env = vec![None; slots.len()];
        let x = slots.get(Var::new("x")).unwrap();
        let z = slots.get(Var::new("z")).unwrap();
        env[x] = Some(Param::new("a"));
        env[z] = Some(Param::new("c"));
        let mut hits = 0;
        plan.for_each_match(&db, None, &mut env, &mut |e| {
            assert_eq!(e[x], Some(Param::new("a")));
            assert_eq!(e[z], Some(Param::new("c")));
            hits += 1;
        });
        assert_eq!(hits, 1, "only the a-b-c path supports t(a, c)");
        assert_eq!(env[x], Some(Param::new("a")), "seed survives the run");
        assert_eq!(env[z], Some(Param::new("c")));
        // A head with no support: same environment shape, zero matches.
        env[z] = Some(Param::new("b"));
        let mut misses = 0;
        plan.for_each_match(&db, None, &mut env, &mut |_| misses += 1);
        assert_eq!(misses, 0, "t(a, b) has no two-step path");
    }

    #[test]
    fn ground_template_instantiates_head() {
        let mut slots = SlotMap::new();
        let db = db(&["e(a, b)"]);
        let body = compile_on(&[atom("e(x, y)")], &mut slots, None, &db);
        let head = AtomTemplate::compile(&atom("t(y, x)"), &mut slots);
        let mut env = vec![None; slots.len()];
        let mut rows = Vec::new();
        body.for_each_match(&db, None, &mut env, &mut |e| rows.push(head.ground(e)));
        assert_eq!(rows, [[Param::new("b"), Param::new("a")].into()]);
        // Grounded into a batch in the head's row type, the same row.
        let mut batch = Rows::new(2);
        let mut examined = 0;
        assert_eq!(
            body.derive_into(&head, &db, None, &mut env, &mut examined, &mut batch),
            1
        );
        assert_eq!(examined, 1);
        let derived = crate::Relation::from_ascending(batch);
        assert!(derived.iter().eq(rows.iter().map(|t| &t[..])));
    }
}
