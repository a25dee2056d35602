//! Relations: ordered sets of fixed-arity tuples with incrementally
//! maintained per-column indexes, stored in persistent run sets so a
//! clone shares everything it does not change.

use crate::runset::{self, RunSet};
use crate::Tuple;
use epilog_syntax::Param;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// A selection pattern: per column, either a required parameter or a
/// wildcard. [`Relation::select`] borrows it as a slice, so a join can
/// refill one buffer per step instead of allocating a pattern per row; a
/// caller whose iterator outlives its buffer hands the pattern over.
pub type Selection = Vec<Option<Param>>;

/// A relation instance: a set of tuples of a fixed arity.
///
/// Tuples iterate in lexicographic order (important for the
/// reproducibility of every experiment). Per-column indexes are built on
/// demand via `Relation::ensure_index` and from then on maintained
/// **incrementally** by `insert`/`insert_ascending`/`remove` — a mutation never
/// tears an index down, which is what lets the semi-naive fixpoint keep
/// its indexes warm across iterations.
///
/// # Cost model
///
/// The tuple set and every index beside it are one kind of container: a
/// persistent sorted set of runs of at most 64 items, each run behind an
/// `Arc` (see `runset.rs`; two levels — a list of runs — are enough at
/// every size a workload here reaches, ≤ 4 641 runs at 148 500 tuples).
/// The index of a column `c ≥ 1` is that set over `(t[c], t)`, so all
/// tuples with one key are contiguous and ordered as the relation orders
/// them. The index of column 0 is **the tuple set itself** (the same
/// tuples in the same order): "building" it records a distinct-key
/// count. With `n` tuples and `k` built indexes on other columns:
///
/// * **clone** — `(1 + k) · n/64` reference-count bumps, no tuple
///   copied; the clone and the original share every run until one of
///   them writes to it. This is what makes a database snapshot (the MVCC
///   head, a transaction's candidate model, a recovery replay step) cost
///   its pointers rather than its tuples.
/// * **insert / remove** — per set (`1 + k` of them), one two-level
///   binary search and an edit of the one run the tuple lands in: in
///   place when nobody shares the run (bulk loads copy nothing, ascending
///   ones do not even search), after copying that run's ≤ 64 items when
///   a snapshot does. The search also shows the tuple's neighbours, all
///   a distinct-key count needs. So a snapshot costs later writers one
///   run copy per run they touch, whatever `n` is.
/// * **ascending batch insert** ([`Relation::insert_ascending`], how a
///   semi-naive round's sorted heads reach the total) — the tuple set
///   takes the batch through a forward cursor: each tuple gallops from
///   the run the previous one landed in and is searched for inside that
///   run only. Each other built index then takes the new tuples' entries,
///   sorted once, through a cursor of its own. Run copies and splits are
///   those of one insert after another.
/// * **bulk construction** (`Relation::from_ascending`, a round's
///   delta, a model difference) — the sorted tuples are cut into full
///   runs: one move and one arity check per tuple, no search, no index.
/// * **probe** ([`Relation::select`] on an indexed column) — one
///   two-level binary search to the first entry with the key, then a
///   walk that stops at the first entry with another key; that entry is
///   not counted in [`Matches::examined`].
/// * **lookup** ([`Relation::select`] binding every column) — one
///   two-level binary search of the tuple set, whatever indexes are
///   built; the tuple is counted in [`Matches::examined`] if stored.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    arity: usize,
    tuples: RunSet<Tuple>,
    /// `indexes[c]` is `Some` once column `c` is indexed.
    indexes: Vec<Option<ColumnIndex>>,
}

/// The index of one column: every tuple keyed by that column's value,
/// plus the number of distinct keys (the planner's statistic), kept
/// current by every mutation so no removal leaves residue to count
/// around.
#[derive(Debug, Clone)]
struct ColumnIndex {
    /// `(t[c], t)` for every tuple — left empty on column 0: ordered by
    /// `(t[0], t)` is ordered by `t`, which the tuple set is already.
    entries: RunSet<(Param, Tuple)>,
    distinct: usize,
}

impl ColumnIndex {
    fn build(tuples: &RunSet<Tuple>, c: usize) -> ColumnIndex {
        let mut entries: Vec<(Param, Tuple)> = Vec::new();
        if c > 0 {
            entries.extend(tuples.iter().map(|t| (t[c], t.clone())));
            entries.sort_unstable();
        }
        let mut keys: Vec<Param> = match c {
            0 => tuples.iter().map(|t| t[0]).collect(),
            _ => entries.iter().map(|e| e.0).collect(),
        };
        keys.dedup();
        ColumnIndex {
            distinct: keys.len(),
            entries: RunSet::from_ascending(entries),
        }
    }

    /// The entries from the first one keyed `key` (or above) onwards.
    fn seek(&self, key: Param) -> runset::Iter<'_, (Param, Tuple)> {
        self.entries.iter_from(|e| e.0 < key)
    }

    /// Add a tuple known to be new to the relation. Equal keys are
    /// contiguous, so the key is new iff neither neighbour carries it.
    fn insert(&mut self, key: Param, t: Tuple) {
        let around = self.entries.insert_between((key, t), |e| e.0);
        let around = around.expect("a new tuple is new to every index");
        self.distinct += usize::from(!around.contains(&Some(key)));
    }

    /// Add tuples known to be new to the relation, in any order: their
    /// entries are sorted once and go in through the cursor.
    fn insert_new(&mut self, c: usize, tuples: &[Tuple]) {
        let mut batch: Vec<(Param, Tuple)> = tuples.iter().map(|t| (t[c], t.clone())).collect();
        batch.sort_unstable();
        let distinct = &mut self.distinct;
        self.entries.insert_ascending(
            batch,
            |e| e.0,
            |e, around| *distinct += usize::from(!around.contains(&Some(e.0))),
        );
    }

    /// Drop a tuple known to be in the relation.
    fn remove(&mut self, key: Param, t: &[Param]) {
        let stored = |e: &(Param, Tuple)| (e.0, &*e.1).cmp(&(key, t));
        let around = self.entries.remove_between(stored, |e| e.0);
        let around = around.expect("a stored tuple is in every index");
        self.distinct -= usize::from(!around.contains(&Some(key)));
    }
}

/// Borrowing iterator over the tuples matching a selection pattern, in
/// deterministic (lexicographic within the probed key) order.
pub struct Matches<'a> {
    inner: MatchesInner<'a>,
    pattern: Cow<'a, [Option<Param>]>,
    examined: u64,
}

enum MatchesInner<'a> {
    Empty,
    Scan(runset::Iter<'a, Tuple>),
    /// The one tuple a pattern binding every column names, if stored.
    Lookup(Option<&'a Tuple>),
    /// A walk of the tuple set from the first tuple led by the key; ends
    /// at the first tuple led otherwise.
    Leading(runset::Iter<'a, Tuple>, Param),
    /// An index walk from the first entry of the key; ends at the first
    /// entry keyed otherwise.
    Probe(runset::Iter<'a, (Param, Tuple)>, Param),
}

impl<'a> Matches<'a> {
    /// An iterator yielding nothing (for absent relations).
    pub fn empty() -> Matches<'a> {
        Matches {
            inner: MatchesInner::Empty,
            pattern: Cow::Borrowed(&[]),
            examined: 0,
        }
    }

    /// Number of candidate tuples pulled from storage so far — including
    /// the ones the residual pattern filter rejected. The join executor
    /// reads this after draining the iterator to report true work done
    /// (`EvalStats::rows_examined`), which is what separates an index
    /// probe that lands on a selective key from one that residually
    /// scans a heavily repeated one.
    pub fn examined(&self) -> u64 {
        self.examined
    }
}

impl<'a> Iterator for Matches<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            let in_range = match &mut self.inner {
                MatchesInner::Empty => return None,
                MatchesInner::Scan(it) => it.next(),
                MatchesInner::Lookup(t) => t.take(),
                MatchesInner::Leading(it, key) => it.next().filter(|t| t[0] == *key),
                MatchesInner::Probe(it, key) => it.next().filter(|e| e.0 == *key).map(|(_, t)| t),
            };
            let Some(t) = in_range else {
                self.inner = MatchesInner::Empty;
                return None;
            };
            self.examined += 1;
            if Relation::matches(t, &self.pattern) {
                return Some(t);
            }
        }
    }
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            tuples: RunSet::default(),
            indexes: vec![None; arity],
        }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple; returns `true` if it was new. Built indexes are
    /// updated in place.
    ///
    /// # Panics
    /// Panics if the tuple's length differs from the relation's arity.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(t.len(), self.arity, "tuple arity mismatch");
        if self.indexes.iter().all(Option::is_none) {
            return self.tuples.insert(t);
        }
        let Some(around) = self.tuples.insert_between(t.clone(), |s| s[0]) else {
            return false;
        };
        for (c, idx) in self.indexes.iter_mut().enumerate() {
            match idx {
                Some(idx) if c == 0 => idx.distinct += usize::from(!around.contains(&Some(t[0]))),
                Some(idx) => idx.insert(t[c], t.clone()),
                None => {}
            }
        }
        true
    }

    /// Insert `batch`, which must ascend strictly (a sorted,
    /// deduplicated round of heads), through the forward cursor of the
    /// cost model; returns the tuples that were new, ascending. Built
    /// indexes are updated in place: the set, the counts and every probe
    /// afterwards are those of inserting the tuples one by one.
    ///
    /// # Panics
    /// Panics if a tuple's length differs from the relation's arity.
    pub fn insert_ascending(&mut self, batch: impl IntoIterator<Item = Tuple>) -> Vec<Tuple> {
        let arity = self.arity;
        let batch = batch.into_iter().inspect(|t| {
            assert_eq!(t.len(), arity, "tuple arity mismatch");
        });
        let mut fresh = Vec::new();
        let mut leading = 0;
        self.tuples.insert_ascending(
            batch,
            |s| s.first().copied(),
            |t, around| {
                leading += usize::from(!around.contains(&Some(t.first().copied())));
                fresh.push(t.clone());
            },
        );
        for (c, idx) in self.indexes.iter_mut().enumerate() {
            match idx {
                Some(idx) if c == 0 => idx.distinct += leading,
                Some(idx) => idx.insert_new(c, &fresh),
                None => {}
            }
        }
        fresh
    }

    /// A relation holding exactly `tuples`, which must ascend strictly,
    /// cut into full runs; no index is built.
    ///
    /// # Panics
    /// Panics if a tuple's length differs from `arity`.
    pub(crate) fn from_ascending(arity: usize, tuples: Vec<Tuple>) -> Relation {
        for t in &tuples {
            assert_eq!(t.len(), arity, "tuple arity mismatch");
        }
        Relation {
            arity,
            tuples: RunSet::from_ascending(tuples),
            indexes: vec![None; arity],
        }
    }

    /// Remove a tuple; returns `true` if it was present. Built indexes are
    /// updated in place.
    pub fn remove(&mut self, t: &[Param]) -> bool {
        let Some(around) = self.tuples.remove_between(|s| (**s).cmp(t), |s| s[0]) else {
            return false;
        };
        for (c, idx) in self.indexes.iter_mut().enumerate() {
            match idx {
                Some(idx) if c == 0 => idx.distinct -= usize::from(!around.contains(&Some(t[0]))),
                Some(idx) => idx.remove(t[c], t),
                None => {}
            }
        }
        true
    }

    /// Whether the exact tuple is present.
    pub fn contains(&self, t: &[Param]) -> bool {
        self.tuples.contains(|s| (**s).cmp(t))
    }

    /// Iterate over all tuples in deterministic (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Index column `c` if it is not indexed yet; once it is, the index
    /// is maintained incrementally by every mutation (column 0: marked
    /// and counted only, see the cost model — nothing observable differs).
    pub(crate) fn ensure_index(&mut self, c: usize) {
        if self.indexes[c].is_none() {
            self.indexes[c] = Some(ColumnIndex::build(&self.tuples, c));
        }
    }

    /// Number of distinct parameters in column `c` — the per-column
    /// statistic the cost-based planner divides by. When the column's
    /// index is built this is a counter the index keeps (read in O(1),
    /// exact under any insert/remove history); otherwise one scan
    /// collects the column and a sort counts its distinct values.
    /// Planners call this once per plan compilation, not per probe.
    pub(crate) fn distinct_count(&self, c: usize) -> usize {
        if let Some(idx) = &self.indexes[c] {
            return idx.distinct;
        }
        let mut keys: Vec<Param> = self.tuples.iter().map(|t| t[c]).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// All tuples matching a partial binding pattern, as a **borrowing**
    /// iterator — no tuple is cloned.
    ///
    /// A pattern binding every column is a **lookup**: one search of the
    /// tuple set, whatever indexes are built, yielding the tuple if it is
    /// stored ([`Matches::examined`] is then 1, else 0). Any other pattern
    /// probes the first bound column whose index is built (see
    /// `Relation::ensure_index`) and filters residually; with no usable
    /// index this is a full scan. The iterator borrows the pattern, or
    /// keeps it when handed a [`Selection`].
    pub fn select<'a>(&'a self, pattern: impl Into<Cow<'a, [Option<Param>]>>) -> Matches<'a> {
        let pattern = pattern.into();
        assert_eq!(pattern.len(), self.arity, "selection arity mismatch");
        let probed = pattern
            .iter()
            .zip(&self.indexes)
            .enumerate()
            .find_map(|(c, (p, idx))| Some((c, (*p)?, idx.as_ref()?)));
        let inner = match probed {
            _ if pattern.iter().all(Option::is_some) => {
                let key = || pattern.iter().flatten().copied();
                MatchesInner::Lookup(self.tuples.get(|t| t.iter().copied().cmp(key())))
            }
            Some((0, key, _)) => MatchesInner::Leading(self.tuples.iter_from(|t| t[0] < key), key),
            Some((_, key, idx)) => MatchesInner::Probe(idx.seek(key), key),
            None => MatchesInner::Scan(self.tuples.iter()),
        };
        Matches {
            inner,
            pattern,
            examined: 0,
        }
    }

    fn matches(t: &[Param], pattern: &[Option<Param>]) -> bool {
        t.iter()
            .zip(pattern)
            .all(|(v, p)| p.is_none_or(|q| q == *v))
    }

    /// The tuples stored here that `other` does not hold, in order. Runs
    /// the two relations still share (one is a clone of the other, a few
    /// edits apart) are stepped over without being read.
    pub(crate) fn difference<'a>(&'a self, other: &Relation) -> Vec<&'a Tuple> {
        self.tuples.difference(&other.tuples)
    }

    /// The set of parameters appearing anywhere in the relation.
    pub fn params(&self) -> BTreeSet<Param> {
        self.tuples.iter().flat_map(|t| t.iter().copied()).collect()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl FromIterator<Tuple> for Relation {
    /// Build a relation from tuples; the arity is taken from the first
    /// tuple (empty input yields a 0-ary relation).
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map(|t| t.len()).unwrap_or(0);
        let mut r = Relation::new(arity);
        for t in it {
            r.insert(t);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Relation {
        /// Whether the index for column `c` has been built.
        pub(crate) fn has_index(&self, c: usize) -> bool {
            self.indexes[c].is_some()
        }
    }

    fn p(n: &str) -> Param {
        Param::new(n)
    }

    fn rel() -> Relation {
        let mut r = Relation::new(2);
        r.insert(vec![p("a"), p("b")].into());
        r.insert(vec![p("a"), p("c")].into());
        r.insert(vec![p("d"), p("b")].into());
        r
    }

    fn sel(r: &Relation, pattern: &Selection) -> Vec<Tuple> {
        r.select(pattern).cloned().collect()
    }

    #[test]
    fn insert_and_contains() {
        let mut r = rel();
        assert_eq!(r.len(), 3);
        assert!(r.contains(&[p("a"), p("b")]));
        assert!(
            !r.insert(vec![p("a"), p("b")].into()),
            "duplicate insert returns false"
        );
        assert_eq!(r.len(), 3);
        assert!(r.remove(&[p("a"), p("b")]));
        assert!(!r.contains(&[p("a"), p("b")]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_enforced() {
        let mut r = Relation::new(2);
        r.insert(vec![p("a")].into());
    }

    #[test]
    fn select_scans_without_index() {
        let r = rel();
        assert_eq!(sel(&r, &vec![Some(p("a")), None]).len(), 2);
        assert_eq!(sel(&r, &vec![None, Some(p("b"))]).len(), 2);
        assert_eq!(
            sel(&r, &vec![Some(p("a")), Some(p("c"))]),
            vec![Tuple::from(vec![p("a"), p("c")])]
        );
        assert_eq!(sel(&r, &vec![None, None]).len(), 3);
    }

    #[test]
    fn indexed_select_matches_scan() {
        let scan = rel();
        let mut indexed = rel();
        indexed.ensure_index(0);
        indexed.ensure_index(1);
        for pattern in [
            vec![Some(p("a")), None],
            vec![None, Some(p("b"))],
            vec![None, None],
            vec![Some(p("zz")), None],
            vec![Some(p("a")), Some(p("c"))],
        ] {
            assert_eq!(sel(&indexed, &pattern), sel(&scan, &pattern));
        }
    }

    #[test]
    fn index_maintained_incrementally() {
        let mut r = rel();
        r.ensure_index(0);
        assert_eq!(sel(&r, &vec![Some(p("a")), None]).len(), 2);
        r.insert(vec![p("a"), p("z")].into());
        assert!(r.has_index(0), "mutation must not drop the index");
        assert_eq!(
            sel(&r, &vec![Some(p("a")), None]).len(),
            3,
            "index must see the new tuple"
        );
        r.remove(&[p("a"), p("b")]);
        assert_eq!(
            sel(&r, &vec![Some(p("a")), None]).len(),
            2,
            "index must forget the removed tuple"
        );
    }

    #[test]
    fn index_buckets_stay_sorted() {
        let mut r = Relation::new(2);
        r.ensure_index(0);
        r.insert(vec![p("a"), p("z")].into());
        r.insert(vec![p("a"), p("b")].into());
        r.insert(vec![p("a"), p("m")].into());
        let got = sel(&r, &vec![Some(p("a")), None]);
        let scan: Vec<Tuple> = r.iter().cloned().collect();
        assert_eq!(
            got, scan,
            "bucket iteration follows the relation's set order"
        );
    }

    #[test]
    fn batch_insert_returns_the_new_and_maintains_index() {
        let mut r = rel();
        r.ensure_index(1);
        let dup = Tuple::from(vec![p("a"), p("b")]);
        let new = Tuple::from(vec![p("x"), p("b")]);
        // Parameters order by interning: sort rather than assume.
        let mut batch = vec![dup, new.clone()];
        batch.sort();
        assert_eq!(r.insert_ascending(batch), vec![new]);
        assert_eq!(r.len(), 4);
        assert_eq!(sel(&r, &vec![None, Some(p("b"))]).len(), 3);
        assert_eq!(r.distinct_count(1), 2, "b was a key already");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn batch_insert_checks_arity() {
        rel().insert_ascending([Tuple::from(vec![p("zz")])]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn bulk_construction_checks_arity() {
        Relation::from_ascending(2, vec![Tuple::from(vec![p("a"), p("b"), p("c")])]);
    }

    #[test]
    fn distinct_counts_with_and_without_index() {
        let mut r = rel();
        assert_eq!(r.distinct_count(0), 2); // a, d
        assert_eq!(r.distinct_count(1), 2); // b, c
        r.ensure_index(0);
        assert_eq!(r.distinct_count(0), 2, "indexed count agrees");
        r.insert(vec![p("e"), p("b")].into());
        assert_eq!(r.distinct_count(0), 3, "maintained on insert");
        r.remove(&[p("d"), p("b")]);
        r.remove(&[p("e"), p("b")]);
        assert_eq!(
            r.distinct_count(0),
            1,
            "emptied buckets must not be counted"
        );
        assert_eq!(r.distinct_count(1), 2);
    }

    #[test]
    fn matches_counts_examined_tuples() {
        // A pattern binding every column is one search of the tuple set:
        // it examines the tuple if stored and nothing if not, whatever
        // indexes are built.
        let mut r = rel();
        for c in [None, Some(0), Some(1)] {
            if let Some(c) = c {
                r.ensure_index(c);
            }
            for (q, found) in [("c", 1), ("zz", 0)] {
                let pattern = vec![Some(p("a")), Some(p(q))];
                let mut it = r.select(&pattern);
                assert_eq!(it.by_ref().count(), found);
                assert_eq!(it.examined(), found as u64);
            }
        }
        // Any other pattern examines its whole probed bucket: `a` holds
        // 2 tuples; the residual filter on col 2 rejects one.
        let mut r = Relation::new(3);
        r.ensure_index(0);
        for t in [["a", "b", "x"], ["a", "c", "y"], ["d", "b", "x"]] {
            r.insert(t.map(p).to_vec().into());
        }
        let pattern = vec![Some(p("a")), None, Some(p("y"))];
        let mut it = r.select(&pattern);
        assert_eq!(it.by_ref().count(), 1);
        assert_eq!(it.examined(), 2);
        // A full scan examines everything.
        let all = vec![None, Some(p("zz")), None];
        let mut it = r.select(&all);
        assert_eq!(it.by_ref().count(), 0);
        assert_eq!(it.examined(), 3);
    }

    #[test]
    fn params_collected() {
        let r = rel();
        let names: Vec<String> = r.params().iter().map(|q| q.name()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn deterministic_iteration() {
        let r = rel();
        let order1: Vec<Tuple> = r.iter().cloned().collect();
        let r2 = rel();
        let order2: Vec<Tuple> = r2.iter().cloned().collect();
        assert_eq!(order1, order2);
    }

    #[test]
    fn from_iterator() {
        let r: Relation = [vec![p("a")], vec![p("b")]]
            .into_iter()
            .map(Tuple::from)
            .collect();
        assert_eq!(r.arity(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_matches_iterator() {
        assert_eq!(Matches::empty().count(), 0);
    }

    #[test]
    fn probe_does_not_count_the_entry_that_ends_its_range() {
        let mut r = Relation::new(2);
        r.ensure_index(0);
        for (a, b) in [("a", "x"), ("a", "y"), ("b", "x"), ("c", "x")] {
            r.insert(vec![p(a), p(b)].into());
        }
        // `a`'s range is followed by `b`'s entry, which stops the walk
        // without being a candidate.
        let pattern = vec![Some(p("a")), None];
        let mut it = r.select(&pattern);
        assert_eq!(it.by_ref().count(), 2);
        assert_eq!(it.examined(), 2);
        assert_eq!(it.next(), None, "stays finished");
        // The last key's range ends with the index.
        let pattern = vec![Some(p("c")), None];
        let mut it = r.select(&pattern);
        assert_eq!(it.by_ref().count(), 1);
        assert_eq!(it.examined(), 1);
    }

    #[test]
    fn fresh_key_churn_leaves_no_index_residue() {
        // Parameters order by interning, so interning the churn keys in
        // among the base keys lands them all over the sets, not only at
        // their ends.
        let mut leaves = Vec::new();
        let mut base = Vec::new();
        for i in 0..10_000 {
            leaves.push(Tuple::from(vec![
                p(&format!("churn-leaf{i}")),
                p(&format!("churn-w{i}")),
            ]));
            if i % 5 == 0 {
                let (k, v) = (format!("churn-base{}", i % 400), format!("churn-v{i}"));
                base.push(Tuple::from(vec![p(&k), p(&v)]));
            }
        }
        let mut r = Relation::new(2);
        r.ensure_index(0);
        r.ensure_index(1);
        for t in base {
            r.insert(t);
        }
        let shape = |r: &Relation| {
            let idx: Vec<usize> = r
                .indexes
                .iter()
                .map(|i| i.as_ref().unwrap().entries.run_count())
                .collect();
            (r.tuples.run_count(), idx)
        };
        let before = shape(&r);
        // 10 000 insert/remove pairs on keys never seen before or again
        // (the shape of `closure_write`'s leaf hires and fires).
        for t in leaves {
            assert!(r.insert(t.clone()));
            assert!(r.remove(&t));
        }
        // Never more runs than before; fewer where a pair's removal found
        // two short neighbours to join.
        let after = shape(&r);
        assert_eq!(after.1[0], 0, "the leading column keeps no entries");
        assert!(after.0 <= before.0, "{after:?} vs {before:?}");
        assert!(after.1.iter().zip(&before.1).all(|(a, b)| a <= b));
        assert!(after.0 * 2 > before.0, "and nothing but joins happened");
        let scratch: Relation = r.iter().cloned().collect();
        for c in 0..2 {
            assert_eq!(r.distinct_count(c), scratch.distinct_count(c));
        }
        assert_eq!((r.distinct_count(0), r.distinct_count(1)), (80, 2000));
    }

    #[test]
    fn a_clone_shares_all_but_the_touched_runs_of_every_set() {
        let mut base = Relation::new(2);
        base.ensure_index(0);
        base.ensure_index(1);
        for i in 0..5000 {
            base.insert(vec![p(&format!("k{}", i % 70)), p(&format!("n{i}"))].into());
        }
        let unshared = |a: &Relation, b: &Relation| {
            let sets = |r: &Relation| {
                let idx = r.indexes.iter().map(|i| &i.as_ref().unwrap().entries);
                (
                    r.tuples.run_count(),
                    idx.map(RunSet::run_count).sum::<usize>(),
                )
            };
            let (tuples, entries) = sets(a);
            let shared_entries: usize = a
                .indexes
                .iter()
                .zip(&b.indexes)
                .map(|(x, y)| {
                    let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
                    x.entries.runs_shared_with(&y.entries)
                })
                .sum();
            (
                tuples - a.tuples.runs_shared_with(&b.tuples),
                entries - shared_entries,
            )
        };
        let snapshot = base.clone();
        assert_eq!(unshared(&snapshot, &base), (0, 0));
        base.insert(vec![p("k7"), p("fresh")].into());
        let (tuples, entries) = unshared(&snapshot, &base);
        assert!(tuples <= 2 && entries <= 2, "{tuples} + {entries} copied");
        base.remove(&[p("k7"), p("n77")]);
        let (tuples, entries) = unshared(&snapshot, &base);
        assert!(tuples <= 4 && entries <= 4, "{tuples} + {entries} copied");
        // The snapshot still holds exactly what it held.
        assert_eq!(snapshot.len(), 5000);
        assert!(snapshot.contains(&[p("k7"), p("n77")]));
        assert!(!snapshot.contains(&[p("k7"), p("fresh")]));
    }

    #[derive(Debug, Clone)]
    enum Step {
        Insert(u8, u8),
        Remove(u8, u8),
        /// Inserted as one ascending batch.
        Batch(Vec<Tuple>),
        Index(usize),
        Snapshot,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => (0u8..12, 0u8..40).prop_map(|(a, b)| Step::Insert(a, b)),
            4 => (0u8..12, 0u8..40).prop_map(|(a, b)| Step::Remove(a, b)),
            2 => proptest::collection::vec((0u8..12, 0u8..40), 0..60).prop_map(|pairs| {
                let mut batch: Vec<Tuple> = pairs.into_iter().map(|(a, b)| tuple(a, b)).collect();
                batch.sort_unstable();
                batch.dedup();
                Step::Batch(batch)
            }),
            1 => (0usize..2).prop_map(Step::Index),
            1 => Just(Step::Snapshot),
        ]
    }

    fn tuple(a: u8, b: u8) -> Tuple {
        vec![p(&format!("a{a}")), p(&format!("b{b}"))].into()
    }

    /// Everything a reader can observe of `r`, against the `BTreeSet`
    /// that models it: scan order, every one- and two-column selection
    /// with its `examined()` count, and the planner statistics — and the
    /// same against a relation built from scratch (the bulk constructor,
    /// then the same indexes).
    fn check_against(r: &Relation, model: &BTreeSet<Tuple>) -> Result<(), TestCaseError> {
        prop_assert_eq!(r.len(), model.len());
        prop_assert!(r.iter().eq(model.iter()));
        let mut scratch = Relation::from_ascending(2, model.iter().cloned().collect());
        for c in 0..2 {
            let keys: BTreeSet<Param> = model.iter().map(|t| t[c]).collect();
            prop_assert_eq!(r.distinct_count(c), keys.len());
            prop_assert_eq!(scratch.distinct_count(c), keys.len());
            if r.has_index(c) {
                scratch.ensure_index(c);
                prop_assert_eq!(scratch.distinct_count(c), keys.len());
            }
        }
        let mut patterns: Vec<Selection> = vec![vec![None, None]];
        // `tuple(12, 40)` is never stored; the model's first tuples are.
        for t in [tuple(3, 7), tuple(0, 0), tuple(11, 39), tuple(12, 40)]
            .iter()
            .chain(model.iter().take(3))
        {
            patterns.push(vec![Some(t[0]), None]);
            patterns.push(vec![None, Some(t[1])]);
            patterns.push(vec![Some(t[0]), Some(t[1])]);
        }
        for pattern in &patterns {
            let want: Vec<&Tuple> = model
                .iter()
                .filter(|t| Relation::matches(t, pattern))
                .collect();
            let mut it = r.select(pattern);
            let got: Vec<&Tuple> = it.by_ref().collect();
            prop_assert_eq!(&got, &want);
            let mut fresh = scratch.select(pattern);
            prop_assert!(fresh.by_ref().eq(got));
            prop_assert_eq!(fresh.examined(), it.examined());
            // A pattern binding both columns is a lookup: it pulls the
            // tuple if stored and nothing else, whichever indexes `r` has
            // built at this point of the history (none, one or both).
            // Otherwise a probe pulls exactly the tuples carrying the key
            // of the first bound indexed column; anything else scans.
            let probed = (0..2).find(|c| pattern[*c].is_some() && r.has_index(*c));
            let pulled = match probed {
                _ if pattern.iter().all(Option::is_some) => want.len(),
                Some(c) => model.iter().filter(|t| Some(t[c]) == pattern[c]).count(),
                None => model.len(),
            };
            prop_assert_eq!(it.examined(), pulled as u64);
            // A probe of the leading column walks the tuple set itself:
            // the same tuples, in the same order, at the same count as
            // a probe of the explicit `(t[0], t)` index it stands in for.
            if let (Some(0), Some(key), None) = (probed, pattern[0], pattern[1]) {
                let explicit: RunSet<_> = r.tuples.iter().map(|t| (t[0], t.clone())).collect();
                let mut oracle = Matches {
                    inner: MatchesInner::Probe(explicit.iter_from(|e| e.0 < key), key),
                    pattern: pattern.into(),
                    examined: 0,
                };
                let mut it = r.select(pattern);
                prop_assert!(it.by_ref().eq(oracle.by_ref()));
                prop_assert_eq!(it.examined(), oracle.examined());
                let leading = r.indexes[0].as_ref().unwrap();
                prop_assert_eq!(leading.entries.len(), 0);
            }
        }
        Ok(())
    }

    proptest! {
        /// `Relation` against a `BTreeSet` model over random edits —
        /// single inserts and removals, and ascending batches through
        /// `insert_ascending` — with indexes appearing mid-stream and
        /// clones taken mid-stream: every clone keeps answering for the
        /// state it was taken in, as a relation built from scratch does.
        #[test]
        fn relation_matches_model_with_and_without_indexes(
            steps in proptest::collection::vec(step(), 0..250),
        ) {
            let mut r = Relation::new(2);
            let mut model: BTreeSet<Tuple> = BTreeSet::new();
            let mut snapshots = Vec::new();
            for s in steps {
                match s {
                    Step::Insert(a, b) => {
                        prop_assert_eq!(r.insert(tuple(a, b)), model.insert(tuple(a, b)));
                    }
                    Step::Remove(a, b) => {
                        prop_assert_eq!(r.remove(&tuple(a, b)), model.remove(&tuple(a, b)));
                    }
                    Step::Batch(batch) => {
                        let want: Vec<Tuple> =
                            batch.iter().filter(|t| model.insert((*t).clone())).cloned().collect();
                        prop_assert_eq!(r.insert_ascending(batch), want);
                    }
                    Step::Index(c) => r.ensure_index(c),
                    Step::Snapshot => snapshots.push((r.clone(), model.clone())),
                }
            }
            snapshots.push((r, model));
            for (r, model) in &snapshots {
                check_against(r, model)?;
            }
        }
    }
}
