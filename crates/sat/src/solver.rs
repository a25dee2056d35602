//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! Standard architecture: two-watched-literal propagation, first-UIP
//! conflict analysis with clause learning, VSIDS variable activities (an
//! activity-ordered heap) with phase saving, Luby-scheduled restarts, and
//! solving under assumptions on a solver that outlives the call. No clause
//! deletion — the workloads this repository generates stay far below the
//! sizes where database reduction pays off.

use crate::cnf::{Cnf, Lit};

/// The outcome of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witnessing total assignment indexed by variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

const UNASSIGNED: i8 = 0;
/// `heap_pos` of a variable that is not in the heap.
const ABSENT: usize = usize::MAX;

/// The CDCL solver. Create with [`Solver::new`], run with [`Solver::solve`]
/// or, under assumptions, [`Solver::solve_with`].
///
/// A solver is **long-lived**: every run ends back at decision level 0
/// with the level-0 assignment and all learnt clauses kept, so the next
/// run starts from what the earlier ones worked out, and variables
/// ([`Solver::reserve_vars`]) and clauses ([`Solver::add_clause`]) can be added
/// between runs. Assumptions are decided before anything else and undone
/// when the run ends; a learnt clause follows from the clauses alone, so
/// keeping it is sound whatever the next run assumes. The usual shape of a
/// query is "are the clauses satisfiable together with `φ`": add `φ`'s
/// Tseitin definitions (they constrain no earlier variable) and assume its
/// root literal.
pub struct Solver {
    /// All clauses, original then learned. Clause ids index this vector.
    clauses: Vec<Vec<Lit>>,
    /// `watches[l.index()]`: ids of clauses currently watching literal `l`.
    watches: Vec<Vec<usize>>,
    /// Assignment by variable: 0 unassigned, +1 true, −1 false.
    assign: Vec<i8>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause for each propagated variable.
    reason: Vec<Option<usize>>,
    /// Assignment trail, in order.
    trail: Vec<Lit>,
    /// Trail indexes where each decision level starts.
    trail_lim: Vec<usize>,
    /// Propagation queue head (index into `trail`).
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// Saved phase per variable.
    phase: Vec<bool>,
    /// Binary heap over variables, most active first (lower index on
    /// ties). Holds every unassigned variable; assigned ones linger until
    /// `decide` pops them.
    heap: Vec<u32>,
    /// Where each variable sits in `heap`, or [`ABSENT`].
    heap_pos: Vec<usize>,
    /// `analyze`'s marks per variable; all false between calls.
    seen: Vec<bool>,
    /// Set once the clauses are unsatisfiable under no assumption at all.
    unsat: bool,
    /// Statistics: the number of conflicts seen so far.
    pub conflicts: u64,
    /// The clauses given and learnt, for this crate's tests.
    log: ProofLog,
}

/// A solver's clauses in order, as given and as learnt: recorded in this
/// crate's test build, whose tests certify each verdict from them, and
/// zero-sized with recording a no-op in every other build.
#[cfg(not(test))]
#[derive(Default)]
struct ProofLog;

#[cfg(not(test))]
impl ProofLog {
    fn record(&mut self, _clause: &[Lit], _learnt: bool) {}
}

impl Solver {
    /// Build a solver over a CNF.
    pub fn new(cnf: &Cnf) -> Self {
        let mut s = Solver {
            clauses: Vec::with_capacity(cnf.clauses().len()),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            phase: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            seen: Vec::new(),
            unsat: false,
            conflicts: 0,
            log: Default::default(),
        };
        s.reserve_vars(cnf.num_vars());
        for c in cnf.clauses() {
            s.log.record(c, false);
            // A `Cnf` keeps its clauses sorted, duplicate- and tautology-free.
            s.attach(c.clone());
        }
        s
    }

    /// The number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.assign.len() as u32
    }

    /// The number of stored clauses of two or more literals, learnt ones
    /// included (diagnostics).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Ensure at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: u32) {
        let (old, new) = (self.assign.len(), n as usize);
        if new <= old {
            return;
        }
        self.watches.resize_with(2 * new, Vec::new);
        self.assign.resize(new, UNASSIGNED);
        self.level.resize(new, 0);
        self.reason.resize(new, None);
        self.activity.resize(new, 0.0);
        self.phase.resize(new, false);
        self.seen.resize(new, false);
        // No activity and the highest indexes: last in the heap's order,
        // so they go in as leaves as they come.
        self.heap_pos
            .extend(self.heap.len()..self.heap.len() + (new - old));
        self.heap.extend(old as u32..n);
    }

    /// Add a clause between runs. Duplicate literals are deduplicated and
    /// tautological clauses dropped, as [`Cnf::add_clause`] does; the empty
    /// clause makes the solver unsatisfiable for good.
    ///
    /// # Panics
    /// Panics if a literal uses an unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.log.record(lits, false);
        let mut c = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        if c.windows(2).all(|w| w[0].var() != w[1].var()) {
            self.attach(c);
        }
    }

    /// Store a normalized clause, simplified by the level-0 assignment:
    /// dropped when a literal already holds, shortened by those that
    /// cannot, enqueued when one literal is left.
    fn attach(&mut self, mut c: Vec<Lit>) {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added between runs");
        let mut satisfied = false;
        c.retain(|&l| {
            assert!(
                l.var() < self.num_vars(),
                "literal uses unallocated variable"
            );
            satisfied |= self.value(l) == 1;
            self.value(l) != -1
        });
        if satisfied {
            return;
        }
        match c.len() {
            0 => self.unsat = true,
            1 => {
                let ok = self.enqueue(c[0], None);
                debug_assert!(ok, "the literal was unassigned");
            }
            _ => {
                let id = self.clauses.len();
                self.watches[c[0].index()].push(id);
                self.watches[c[1].index()].push(id);
                self.clauses.push(c);
            }
        }
    }

    fn value(&self, l: Lit) -> i8 {
        let a = self.assign[l.var() as usize];
        if l.is_pos() {
            a
        } else {
            -a
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) -> bool {
        match self.value(l) {
            1 => true,
            -1 => false,
            _ => {
                let v = l.var() as usize;
                self.assign[v] = if l.is_pos() { 1 } else { -1 };
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Propagate until fixpoint; returns the id of a conflicting clause.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            let fl = l.negate(); // literals watching `fl` just became false
            let mut ws = std::mem::take(&mut self.watches[fl.index()]);
            let mut i = 0;
            let mut conflict = None;
            'outer: while i < ws.len() {
                let ci = ws[i];
                // Make sure the false literal sits at position 1.
                if self.clauses[ci][0] == fl {
                    self.clauses[ci].swap(0, 1);
                }
                let first = self.clauses[ci][0];
                if self.value(first) == 1 {
                    i += 1;
                    continue; // clause already satisfied
                }
                // Look for a non-false literal to watch instead.
                for k in 2..self.clauses[ci].len() {
                    if self.value(self.clauses[ci][k]) != -1 {
                        self.clauses[ci].swap(1, k);
                        let nw = self.clauses[ci][1];
                        self.watches[nw.index()].push(ci);
                        ws.swap_remove(i);
                        continue 'outer;
                    }
                }
                // No replacement: clause is unit (first) or conflicting.
                if self.value(first) == -1 {
                    conflict = Some(ci);
                    break;
                }
                let ok = self.enqueue(first, Some(ci));
                debug_assert!(ok, "enqueue of unit literal cannot fail here");
                i += 1;
            }
            self.watches[fl.index()] = ws;
            if let Some(ci) = conflict {
                self.qhead = self.trail.len();
                return Some(ci);
            }
        }
        None
    }

    /// Whether variable `a` is decided before `b`: higher activity, lower
    /// index on ties — a total order, so the choice does not depend on how
    /// the heap happens to be laid out.
    fn before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !self.before(v, p) {
                break;
            }
            self.heap[i] = p;
            self.heap_pos[p as usize] = i;
            i = parent;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i;
    }

    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.before(self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            let c = self.heap[child];
            if !self.before(c, v) {
                break;
            }
            self.heap[i] = c;
            self.heap_pos[c as usize] = i;
            i = child;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i;
    }

    fn heap_insert(&mut self, v: u32) {
        if self.heap_pos[v as usize] == ABSENT {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1);
        }
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("the heap has a first element");
        self.heap_pos[top as usize] = ABSENT;
        if top != last {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Rescaling can round distinct activities into a tie, which the
            // index then breaks: put the heap back in order.
            for i in (0..self.heap.len() / 2).rev() {
                self.sift_down(i);
            }
        } else if self.heap_pos[v] != ABSENT {
            self.sift_up(self.heap_pos[v]);
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut confl: usize) -> (Vec<Lit>, u32) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0u32;
        let mut idx = self.trail.len();
        let mut p: Option<Lit> = None;

        loop {
            let skip = usize::from(p.is_some()); // reason clauses: clause[0] == p
            for k in skip..self.clauses[confl].len() {
                let q = self.clauses[confl][k];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[idx];
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            confl =
                self.reason[pl.var() as usize].expect("non-decision literal must have a reason");
            p = Some(pl);
        }
        // Every mark sits on a learnt literal or on the stretch of trail
        // just walked.
        for l in learnt.iter().chain(&self.trail[idx..]) {
            self.seen[l.var() as usize] = false;
        }

        let uip = p.expect("loop sets p before breaking").negate();
        let mut clause = Vec::with_capacity(learnt.len() + 1);
        clause.push(uip);
        clause.extend(learnt);

        // Backjump to the second-highest level in the clause; put a literal
        // of that level in watch position 1.
        let mut bl = 0;
        let mut pos = 0;
        for (k, l) in clause.iter().enumerate().skip(1) {
            let lv = self.level[l.var() as usize];
            if lv > bl {
                bl = lv;
                pos = k;
            }
        }
        if pos != 0 {
            clause.swap(1, pos);
        }
        (clause, bl)
    }

    fn backtrack(&mut self, to_level: u32) {
        while self.decision_level() > to_level {
            let start = self.trail_lim.pop().expect("level > 0 implies a limit");
            for i in start..self.trail.len() {
                let l = self.trail[i];
                let v = l.var() as usize;
                self.phase[v] = l.is_pos();
                self.assign[v] = UNASSIGNED;
                self.reason[v] = None;
                self.heap_insert(l.var());
            }
            self.trail.truncate(start);
        }
        self.qhead = self.trail.len();
    }

    /// The most active unassigned variable, in its saved phase.
    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assign[v as usize] == UNASSIGNED {
                return Some(if self.phase[v as usize] {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                });
            }
        }
        None
    }

    /// Run the CDCL loop to completion.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Decide whether the clauses are satisfiable with every literal of
    /// `assumptions` true. The assumptions bind this run only: `Unsat`
    /// here leaves the solver as satisfiable as it was without them.
    ///
    /// # Panics
    /// Panics if an assumption uses an unallocated variable.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        assert!(
            assumptions.iter().all(|l| l.var() < self.num_vars()),
            "assumption uses unallocated variable"
        );
        if self.unsat {
            return SatResult::Unsat;
        }
        let mut restart_count = 0u32;
        let mut conflicts_since_restart = 0u64;

        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                let (clause, bl) = self.analyze(confl);
                self.log.record(&clause, true);
                self.backtrack(bl);
                let assert_lit = clause[0];
                let reason = if clause.len() == 1 {
                    None
                } else {
                    let id = self.clauses.len();
                    self.watches[clause[0].index()].push(id);
                    self.watches[clause[1].index()].push(id);
                    self.clauses.push(clause);
                    Some(id)
                };
                let ok = self.enqueue(assert_lit, reason);
                debug_assert!(ok, "asserting literal must be enqueueable after backjump");
                self.var_inc /= 0.95;
            } else if conflicts_since_restart >= 64 * u64::from(luby(restart_count)) {
                restart_count += 1;
                conflicts_since_restart = 0;
                self.backtrack(0);
            } else {
                // Assumption `i` is the decision of level `i + 1`; one
                // that already holds gets an empty level of its own, so
                // the correspondence survives backjumps and restarts.
                let next = match assumptions.get(self.decision_level() as usize) {
                    Some(&a) if self.value(a) == -1 => {
                        // The clauses and the assumptions before `a`
                        // force `¬a`.
                        self.backtrack(0);
                        return SatResult::Unsat;
                    }
                    Some(&a) => Some(a),
                    None => self.decide(),
                };
                let Some(l) = next else {
                    // Total assignment, no conflict: a model.
                    let model = self.assign.iter().map(|&a| a == 1).collect::<Vec<bool>>();
                    self.backtrack(0);
                    return SatResult::Sat(model);
                };
                self.trail_lim.push(self.trail.len());
                let ok = self.enqueue(l, None);
                debug_assert!(ok, "a decision is unassigned, an assumption not false");
            }
        }
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
/// (`luby(0)` is the first element).
fn luby(i: u32) -> u32 {
    // Standard recurrence on 1-based index n: if n = 2^k − 1 the value is
    // 2^(k−1); otherwise recurse on n − (2^(k−1) − 1) where k is maximal
    // with 2^(k−1) − 1 < n.
    let mut n = i + 1;
    loop {
        // Smallest k with 2^k − 1 >= n.
        let mut k = 1u32;
        while (1u32 << k) - 1 < n {
            k += 1;
        }
        if (1u32 << k) - 1 == n {
            return 1 << (k - 1);
        }
        n -= (1u32 << (k - 1)) - 1;
    }
}

#[cfg(test)]
use tests::ProofLog;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cnf::{constrain, tseitin, Cnf, Prop};

    /// Every clause given to [`Solver::new`] or [`Solver::add_clause`] as
    /// the caller gave it, and every clause conflict analysis learnt
    /// (marked `true`), in order.
    #[derive(Default)]
    pub(super) struct ProofLog(Vec<(Vec<Lit>, bool)>);

    impl ProofLog {
        pub(super) fn record(&mut self, clause: &[Lit], learnt: bool) {
            self.0.push((clause.to_vec(), learnt));
        }
    }

    /// Whether unit propagation over `clauses` from `units` reaches a
    /// conflict — naively, pass after pass, sharing no code with the
    /// solver it checks.
    fn refutes(clauses: &[(Vec<Lit>, bool)], units: &[Lit], vars: usize) -> bool {
        let mut value: Vec<Option<bool>> = vec![None; vars];
        let mut found = units.to_vec();
        loop {
            for l in found.drain(..) {
                match value[l.var() as usize].replace(l.is_pos()) {
                    Some(b) if b != l.is_pos() => return true,
                    _ => {}
                }
            }
            for (c, _) in clauses {
                let holds = |l: &Lit| value[l.var() as usize].map(|b| b == l.is_pos());
                if c.iter().any(|l| holds(l) == Some(true)) {
                    continue;
                }
                // The literals left open, a repeated one counted once.
                let mut open = c.iter().filter(|l| holds(l).is_none());
                match open.next() {
                    None => return true,
                    Some(&l) if open.all(|&m| m == l) => found.push(l),
                    Some(_) => {}
                }
            }
            if found.is_empty() {
                return false;
            }
        }
    }

    /// Run `s` under `assumptions` and certify the verdict from `s`'s log
    /// alone. A model must satisfy every clause logged so far and every
    /// assumption. `Unsat` must be proved: each learnt clause follows by
    /// reverse unit propagation (RUP) from the clauses logged before it,
    /// and unit propagation over all of them from the assumptions reaches
    /// a conflict.
    pub(crate) fn certify(s: &mut Solver, assumptions: &[Lit]) -> SatResult {
        let verdict = s.solve_with(assumptions);
        let (log, vars) = (&s.log.0, s.num_vars() as usize);
        match &verdict {
            SatResult::Sat(m) => {
                let holds = |l: &Lit| m[l.var() as usize] == l.is_pos();
                assert!(assumptions.iter().all(holds), "model fails an assumption");
                for (c, _) in log {
                    assert!(c.iter().any(holds), "model violates clause {c:?}");
                }
            }
            SatResult::Unsat => {
                for (i, (c, learnt)) in log.iter().enumerate() {
                    let negated: Vec<Lit> = c.iter().map(|l| l.negate()).collect();
                    let rup = !learnt || refutes(&log[..i], &negated, vars);
                    assert!(rup, "learnt clause {c:?} is not RUP");
                }
                assert!(refutes(log, assumptions, vars), "no conflict reached");
            }
        }
        verdict
    }

    impl Solver {
        /// Enumerate models of `cnf`, projected onto the first `project`
        /// variables (the "real" atom variables, as opposed to Tseitin
        /// auxiliaries). Returns the distinct projected models, up to `limit`,
        /// together with a flag saying whether enumeration was exhaustive.
        ///
        /// Each found model is excluded with a blocking clause over the
        /// projection and the one solver is run again.
        pub(crate) fn enumerate(cnf: &Cnf, project: u32, limit: usize) -> (Vec<Vec<bool>>, bool) {
            assert!(
                project <= cnf.num_vars(),
                "projection exceeds variable count"
            );
            let mut solver = Solver::new(cnf);
            let mut models = Vec::new();
            while models.len() < limit {
                match certify(&mut solver, &[]) {
                    SatResult::Unsat => return (models, true),
                    SatResult::Sat(m) => {
                        let proj: Vec<bool> = m[..project as usize].to_vec();
                        let blocking: Vec<Lit> = proj
                            .iter()
                            .enumerate()
                            .map(|(v, &b)| {
                                let v = v as u32;
                                if b {
                                    Lit::neg(v)
                                } else {
                                    Lit::pos(v)
                                }
                            })
                            .collect();
                        solver.add_clause(&blocking);
                        models.push(proj);
                        if project == 0 {
                            // Projection is trivial; one (empty) model is all
                            // there is.
                            return (models, true);
                        }
                    }
                }
            }
            // Check whether anything is left.
            let exhausted = matches!(certify(&mut solver, &[]), SatResult::Unsat);
            (models, exhausted)
        }
    }

    impl SatResult {
        /// Whether the result is `Sat`.
        pub(crate) fn is_sat(&self) -> bool {
            matches!(self, SatResult::Sat(_))
        }
    }

    impl Solver {
        /// Allocate a fresh variable, returning its index.
        fn new_var(&mut self) -> u32 {
            let v = self.num_vars();
            self.reserve_vars(v + 1);
            v
        }
    }

    fn cnf_of(num_vars: u32, clauses: &[&[i32]]) -> Cnf {
        // DIMACS-ish: positive k = Lit::pos(k-1), negative = neg.
        let mut cnf = Cnf::new();
        cnf.reserve_vars(num_vars);
        for c in clauses {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&k| {
                    let v = k.unsigned_abs() - 1;
                    if k > 0 {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            cnf.add_clause(&lits);
        }
        cnf
    }

    /// A fresh solver over `cnf`, run once without assumptions, certified.
    fn solve(cnf: &Cnf) -> SatResult {
        certify(&mut Solver::new(cnf), &[])
    }

    #[test]
    fn trivial_cases() {
        assert!(solve(&cnf_of(1, &[])).is_sat());
        assert_eq!(solve(&cnf_of(1, &[&[1], &[-1]])), SatResult::Unsat);
        let mut cnf = Cnf::new();
        cnf.add_clause(&[]); // empty clause
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn simple_sat() {
        let cnf = cnf_of(3, &[&[1, 2], &[-1, 3], &[-2, -3], &[2, 3]]);
        assert!(solve(&cnf).is_sat());
    }

    #[test]
    fn chain_of_implications_unsat() {
        // x1, x1→x2, …, x9→x10, ¬x10
        let mut clauses: Vec<Vec<i32>> = vec![vec![1]];
        for i in 1..10 {
            clauses.push(vec![-i, i + 1]);
        }
        clauses.push(vec![-10]);
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        assert_eq!(solve(&cnf_of(10, &refs)), SatResult::Unsat);
    }

    /// Pigeonhole principle PHP(n+1, n): unsatisfiable, requires real
    /// conflict analysis to finish quickly.
    fn pigeonhole(holes: u32) -> Cnf {
        let pigeons = holes + 1;
        let mut cnf = Cnf::new();
        cnf.reserve_vars(pigeons * holes);
        let v = |p: u32, h: u32| p * holes + h;
        // Every pigeon in some hole.
        for p in 0..pigeons {
            let c: Vec<Lit> = (0..holes).map(|h| Lit::pos(v(p, h))).collect();
            cnf.add_clause(&c);
        }
        // No two pigeons share a hole.
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    cnf.add_clause(&[Lit::neg(v(p1, h)), Lit::neg(v(p2, h))]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 2..=6 {
            assert_eq!(solve(&pigeonhole(holes)), SatResult::Unsat, "PHP({holes})");
        }
    }

    /// PHP(7): ~10 s to solve and certify in release, ~40 s in debug.
    #[test]
    #[ignore = "slow; the nightly deep fuzz runs it"]
    fn pigeonhole_7_unsat() {
        assert_eq!(solve(&pigeonhole(7)), SatResult::Unsat);
    }

    #[test]
    fn satisfiable_assignment_verified() {
        // A slightly larger random-ish satisfiable instance.
        let cnf = cnf_of(
            6,
            &[
                &[1, -2, 3],
                &[-1, 2],
                &[2, 4, -5],
                &[-3, -4],
                &[5, 6],
                &[-6, 1],
                &[-2, -6, 4],
            ],
        );
        assert!(solve(&cnf).is_sat());
    }

    #[test]
    fn enumerate_all_models() {
        // x0 ∨ x1 over 2 vars: 3 models.
        let cnf = cnf_of(2, &[&[1, 2]]);
        let (models, complete) = Solver::enumerate(&cnf, 2, 10);
        assert!(complete);
        assert_eq!(models.len(), 3);
    }

    #[test]
    fn enumerate_respects_limit() {
        let cnf = cnf_of(3, &[]); // 8 models
        let (models, complete) = Solver::enumerate(&cnf, 3, 5);
        assert_eq!(models.len(), 5);
        assert!(!complete);
    }

    #[test]
    fn enumerate_projected() {
        // x0 free, x1 forced true: projecting onto x0 gives 2 models.
        let cnf = cnf_of(2, &[&[2]]);
        let (models, complete) = Solver::enumerate(&cnf, 1, 10);
        assert!(complete);
        assert_eq!(models.len(), 2);
    }

    #[test]
    fn assumptions_bind_one_run_only() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x3)
        let mut s = Solver::new(&cnf_of(3, &[&[1, 2], &[-1, 3]]));
        assert_eq!(
            certify(&mut s, &[Lit::neg(0), Lit::neg(1)]),
            SatResult::Unsat,
            "¬x1 ∧ ¬x2 contradicts the first clause"
        );
        match certify(&mut s, &[Lit::pos(0)]) {
            SatResult::Sat(m) => assert!(m[0] && m[2]),
            SatResult::Unsat => panic!("x1 is consistent with the clauses"),
        }
        let unsat = |s: &mut Solver, a: &[Lit]| certify(s, a) == SatResult::Unsat;
        assert!(unsat(&mut s, &[Lit::pos(0), Lit::neg(2)]));
        // An assumption and its complement, and one repeated.
        assert!(unsat(&mut s, &[Lit::pos(1), Lit::neg(1)]));
        assert!(!unsat(&mut s, &[Lit::pos(1), Lit::pos(1)]));
        assert!(!unsat(&mut s, &[]), "no assumption outlives its run");
    }

    #[test]
    fn clauses_and_variables_arrive_between_runs() {
        let mut s = Solver::new(&cnf_of(2, &[&[1, 2]]));
        assert!(certify(&mut s, &[]).is_sat());
        // x3 ≡ (x1 ∧ x2), then ask for ¬x3 with x1.
        let x3 = s.new_var();
        assert_eq!(x3, 2);
        s.add_clause(&[Lit::neg(x3), Lit::pos(0)]);
        s.add_clause(&[Lit::neg(x3), Lit::pos(1)]);
        s.add_clause(&[Lit::pos(x3), Lit::neg(0), Lit::neg(1)]);
        match certify(&mut s, &[Lit::neg(x3), Lit::pos(0)]) {
            SatResult::Sat(m) => assert!(m[0] && !m[1] && !m[2]),
            SatResult::Unsat => panic!("x1 ∧ ¬x2 satisfies it"),
        }
        let clauses = s.num_clauses();
        // A unit is propagated, a satisfied clause and a tautology dropped.
        s.add_clause(&[Lit::pos(0)]);
        s.add_clause(&[Lit::pos(0), Lit::pos(1)]);
        s.add_clause(&[Lit::pos(1), Lit::neg(1)]);
        assert_eq!(s.num_clauses(), clauses);
        assert_eq!(certify(&mut s, &[Lit::neg(0)]), SatResult::Unsat);
        assert!(certify(&mut s, &[]).is_sat());
        // The empty clause — here a unit against the level-0 assignment —
        // is for good.
        s.add_clause(&[Lit::neg(0)]);
        assert_eq!(certify(&mut s, &[]), SatResult::Unsat);
        assert_eq!(certify(&mut s, &[Lit::pos(1)]), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_under_an_activation_literal() {
        // PHP(5, 4) guarded by `act`: unsatisfiable exactly when assumed.
        let php = pigeonhole(4);
        let act = php.num_vars();
        let mut cnf = Cnf::new();
        cnf.reserve_vars(act + 1);
        for c in php.clauses() {
            let mut guarded = c.clone();
            guarded.push(Lit::neg(act));
            cnf.add_clause(&guarded);
        }
        let mut s = Solver::new(&cnf);
        assert_eq!(certify(&mut s, &[Lit::pos(act)]), SatResult::Unsat);
        assert!(s.conflicts > 0, "refuting PHP takes conflict analysis");
        assert!(certify(&mut s, &[]).is_sat());
        assert_eq!(certify(&mut s, &[Lit::pos(act)]), SatResult::Unsat);
    }

    /// Goals asked of one grounded theory as `epilog-prover`'s
    /// `Grounding::entails` asks them: the theory goes in once through
    /// `constrain`; each goal arrives as `tseitin` definitions between
    /// runs, its root's negation assumed.
    #[test]
    fn goals_asked_of_one_constrained_theory() {
        // Four pigeons, each in one of four holes, no two in one hole.
        let n = 4;
        let at = |p: u32, h: u32| Prop::Var(p * n + h);
        let mut sigma: Vec<Prop> = (0..n)
            .map(|p| Prop::or_all((0..n).map(|h| at(p, h)).collect()))
            .collect();
        for h in 0..n {
            for p in 0..n {
                for q in p + 1..n {
                    sigma.push(Prop::and_all(vec![at(p, h), at(q, h)]).negate());
                }
            }
        }
        let mut cnf = Cnf::new();
        cnf.reserve_vars(n * n);
        constrain(&Prop::and_all(sigma), &mut cnf);
        let mut s = Solver::new(&cnf);
        let full = |h: u32| Prop::or_all((0..n).map(|p| at(p, h)).collect());
        for (goal, entailed) in [
            (full(0), true),
            (Prop::and_all((0..n).map(full).collect()), true),
            (at(0, 0), false),
            (Prop::and_all(vec![at(0, 0), at(1, 0)]).negate(), true),
            (Prop::or_all(vec![at(0, 0), at(0, 1)]), false),
            (Prop::or_all(vec![at(0, 3), full(2)]), true),
        ] {
            let mut defs = Cnf::new();
            defs.reserve_vars(s.num_vars());
            let root = tseitin(&goal, &mut defs);
            s.reserve_vars(defs.num_vars());
            for c in defs.clauses() {
                s.add_clause(c);
            }
            let verdict = certify(&mut s, &[root.negate()]);
            assert_eq!(verdict == SatResult::Unsat, entailed, "{goal:?}");
        }
    }

    #[test]
    fn decisions_follow_activity_then_index() {
        let mut s = Solver::new(&cnf_of(5, &[]));
        s.bump(3);
        s.bump(1);
        s.bump(3);
        let order: Vec<u32> = std::iter::from_fn(|| {
            let l = s.decide()?;
            s.trail_lim.push(s.trail.len());
            s.enqueue(l, None);
            Some(l.var())
        })
        .collect();
        assert_eq!(order, [3, 1, 0, 2, 4]);
        s.backtrack(0);
        assert_eq!(s.heap.len(), 5, "backtracking returns every variable");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn lit((v, sign): (u32, u8)) -> Lit {
            if sign == 0 {
                Lit::pos(v)
            } else {
                Lit::neg(v)
            }
        }

        fn clause() -> impl Strategy<Value = Vec<(u32, u8)>> {
            proptest::collection::vec((0u32..10, 0u8..2), 1..4)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// One long-lived solver, put through a sequence of assumption
            /// sets with clauses arriving in between, has every verdict
            /// certified: each run under its assumptions, and each run
            /// under none after it (so no assumption outlives its run).
            #[test]
            fn long_lived_solver_verdicts_are_certified(
                base in proptest::collection::vec(clause(), 0..45),
                steps in proptest::collection::vec(
                    (proptest::collection::vec((0u32..10, 0u8..2), 0..4), clause()),
                    1..10,
                ),
            ) {
                let mut cnf = Cnf::new();
                cnf.reserve_vars(10);
                for c in &base {
                    cnf.add_clause(&c.iter().copied().map(lit).collect::<Vec<_>>());
                }
                let mut kept = Solver::new(&cnf);
                for (assumed, arriving) in &steps {
                    let assumed: Vec<Lit> = assumed.iter().copied().map(lit).collect();
                    certify(&mut kept, &assumed);
                    certify(&mut kept, &[]);
                    kept.add_clause(&arriving.iter().copied().map(lit).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u32> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}
