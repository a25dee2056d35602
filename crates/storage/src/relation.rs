//! Relations: ordered sets of fixed-arity tuples, stored in persistent
//! run sets so a clone shares everything it does not change, with a
//! column index built by the first selection that probes the column.

use crate::runset::{self, Cursor, RunSet};
use crate::Tuple;
use epilog_syntax::Param;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// A selection pattern: per column, either a required parameter or a
/// wildcard. [`Relation::select`] borrows it as a slice, so a join can
/// refill one buffer per step instead of allocating a pattern per row; a
/// caller whose iterator outlives its buffer hands the pattern over.
pub type Selection = Vec<Option<Param>>;

/// The index of a column `c ≥ 1`: `(t[c], t)` for every tuple `t`, so all
/// tuples with one key are contiguous and ordered as the relation orders
/// them.
type Index = RunSet<(Param, Tuple)>;

/// A relation instance: a set of tuples of a fixed arity.
///
/// Tuples iterate in lexicographic order (important for the
/// reproducibility of every experiment). Which column a selection probes
/// is the relation's own decision: the pattern's first bound column. The
/// tuple set is ordered by `t[0]` already, so column 0 needs no index;
/// the index of any other column is built the first time a selection
/// probes it, and from then on maintained **incrementally** by
/// `insert`/`insert_ascending`/`remove` — a mutation never tears an index
/// down, which is what keeps a fixpoint's probes warm across rounds.
///
/// # Cost model
///
/// The tuple set and every index beside it are one kind of container: a
/// persistent sorted set of runs of at most 64 items, each run behind an
/// `Arc` (see `runset.rs`; two levels — a list of runs — are enough at
/// every size a workload here reaches, ≤ 4 641 runs at 148 500 tuples).
/// With `n` tuples and `k` built indexes:
///
/// * **clone** — `(1 + k) · n/64` reference-count bumps, no tuple
///   copied; the clone and the original share every run until one of
///   them writes to it. This is what makes a database snapshot (the MVCC
///   head, a transaction's candidate model, a recovery replay step) cost
///   its pointers rather than its tuples. A clone carries the indexes
///   built before it was taken; one built later is its own.
/// * **insert / remove** — per set (`1 + k` of them), one two-level
///   binary search and an edit of the one run the tuple lands in: in
///   place when nobody shares the run (bulk loads copy nothing, ascending
///   ones do not even search), after copying that run's ≤ 64 items when
///   a snapshot does. So a snapshot costs later writers one run copy per
///   run they touch, whatever `n` is.
/// * **ascending batch insert** ([`Relation::insert_ascending`], how a
///   semi-naive round's sorted heads reach the total) — the tuple set
///   takes the batch through a forward cursor: each tuple gallops from
///   the run and the slot the previous one landed in. Each built index
///   then takes the new tuples' entries, sorted once, through a cursor
///   of its own. Run copies and splits are those of one insert after
///   another.
/// * **bulk construction** (`Relation::from_ascending`, a round's
///   delta) — the sorted tuples are cut into full
///   runs: one move and one arity check per tuple, no search, no index.
/// * **probe** ([`Relation::select`] binding some columns) — the first
///   bound column's key is sought with one two-level binary search, in
///   the tuple set for column 0 and in the column's index otherwise, then
///   walked until an entry carries another key; that entry is not
///   counted in [`Matches::examined`]. A join step's probes resume
///   instead: each starts from where the step's previous one landed
///   and gallops forward when its key does not sort below that one's (a
///   repeated key: three comparisons), else searches afresh. The
///   first probe of a column `c ≥ 1` builds its index first: one sort of
///   the column's entries, once per relation value — a snapshot shared
///   by readers builds it once, whichever reader probes first.
/// * **lookup** ([`Relation::select`] binding every column) — one
///   two-level binary search of the tuple set, whatever indexes are
///   built; the tuple is counted in [`Matches::examined`] if stored.
/// * **distinct count** (the planner's statistic) — one pass, no sort:
///   over keys stored in order (column 0, a built index) it counts key
///   changes, over any other column it marks keys in a bitset.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    arity: usize,
    tuples: RunSet<Tuple>,
    /// `indexes[c - 1]` is column `c`'s index once a selection probed it.
    indexes: Vec<OnceLock<Index>>,
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
        Relation::from_ascending(arity, Vec::new())
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

    /// The built indexes with their columns, for a mutation to maintain.
    fn built_mut(&mut self) -> impl Iterator<Item = (usize, &mut Index)> {
        (1..)
            .zip(&mut self.indexes)
            .filter_map(|(c, i)| Some((c, i.get_mut()?)))
    }

    /// Insert a tuple; returns `true` if it was new. Built indexes are
    /// updated in place.
    ///
    /// # Panics
    /// Panics if the tuple's length differs from the relation's arity.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(t.len(), self.arity, "tuple arity mismatch");
        if !self.tuples.insert(t.clone()) {
            return false;
        }
        for (c, idx) in self.built_mut() {
            idx.insert((t[c], t.clone()));
        }
        true
    }

    /// Insert `batch`, which must ascend strictly (a sorted,
    /// deduplicated round of heads), through the forward cursor of the
    /// cost model; returns the tuples that were new, ascending. Built
    /// indexes are updated in place: the set and every probe afterwards
    /// are those of inserting the tuples one by one.
    ///
    /// # Panics
    /// Panics if a tuple's length differs from the relation's arity.
    pub fn insert_ascending(&mut self, batch: impl IntoIterator<Item = Tuple>) -> Vec<Tuple> {
        let arity = self.arity;
        let batch = batch.into_iter().inspect(|t| {
            assert_eq!(t.len(), arity, "tuple arity mismatch");
        });
        let mut fresh = Vec::new();
        self.tuples
            .insert_ascending(batch, |t| fresh.push(t.clone()));
        for (c, idx) in self.built_mut() {
            let mut entries: Vec<(Param, Tuple)> =
                fresh.iter().map(|t| (t[c], t.clone())).collect();
            entries.sort_unstable();
            idx.insert_ascending(entries, |_| {});
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
            indexes: (1..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Remove a tuple; returns `true` if it was present. Built indexes are
    /// updated in place.
    pub fn remove(&mut self, t: &[Param]) -> bool {
        if !self.tuples.remove(|s| (**s).cmp(t)) {
            return false;
        }
        for (c, idx) in self.built_mut() {
            idx.remove(|e| (e.0, &*e.1).cmp(&(t[c], t)));
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

    /// Column `c`'s index (`c ≥ 1`), built from the tuple set if no
    /// selection has probed the column yet.
    fn index(&self, c: usize) -> &Index {
        self.indexes[c - 1].get_or_init(|| {
            let mut entries: Vec<(Param, Tuple)> =
                self.tuples.iter().map(|t| (t[c], t.clone())).collect();
            entries.sort_unstable();
            RunSet::from_ascending(entries)
        })
    }

    /// Number of distinct parameters in column `c` — the per-column
    /// statistic the cost-based planner divides by, counted when asked
    /// and without a sort: where the keys are stored in order (the tuple
    /// set for column 0, a built index otherwise) it counts where the
    /// key changes, else it makes one pass that marks each key in a
    /// bitset by its [`Param::ordinal`]. Planners call this once per plan
    /// compilation, not per probe.
    pub(crate) fn distinct_count(&self, c: usize) -> usize {
        fn changes(keys: impl Iterator<Item = Param>) -> usize {
            let mut last = None;
            keys.filter(|k| last.replace(*k) != Some(*k)).count()
        }
        match c.checked_sub(1).map(|i| self.indexes[i].get()) {
            None => changes(self.tuples.iter().map(|t| t[0])),
            Some(Some(idx)) => changes(idx.iter().map(|e| e.0)),
            Some(None) => {
                let mut seen: Vec<u64> = Vec::new();
                let mut count = 0;
                for t in self.tuples.iter() {
                    let key = t[c].ordinal();
                    let (word, bit) = (key / 64, 1 << (key % 64));
                    if word >= seen.len() {
                        seen.resize(word + 1, 0);
                    }
                    count += usize::from(seen[word] & bit == 0);
                    seen[word] |= bit;
                }
                count
            }
        }
    }

    /// All tuples matching a partial binding pattern, as a **borrowing**
    /// iterator — no tuple is cloned.
    ///
    /// A pattern binding every column is a **lookup**: one search of the
    /// tuple set, whatever indexes are built, yielding the tuple if it is
    /// stored ([`Matches::examined`] is then 1, else 0). A pattern binding
    /// some columns **probes** the first bound one (building its index on
    /// the first probe, see the cost model) and filters the rest
    /// residually; a pattern binding none scans. The iterator borrows the
    /// pattern, or keeps it when handed a [`Selection`].
    pub fn select<'a>(&'a self, pattern: impl Into<Cow<'a, [Option<Param>]>>) -> Matches<'a> {
        self.select_from(pattern, &mut Cursor::default())
    }

    /// [`Relation::select`], whose probe resumes from `cursor` — where
    /// the previous probe through it landed — and leaves it where this
    /// one lands (see the cost model). A join step keeps one cursor per
    /// execution. Whatever the cursor holds, the matches and their
    /// [`Matches::examined`] count are those of a fresh probe.
    pub(crate) fn select_from<'a>(
        &'a self,
        pattern: impl Into<Cow<'a, [Option<Param>]>>,
        cursor: &mut Cursor,
    ) -> Matches<'a> {
        let pattern = pattern.into();
        assert_eq!(pattern.len(), self.arity, "selection arity mismatch");
        let probed = pattern
            .iter()
            .enumerate()
            .find_map(|(c, p)| Some((c, (*p)?)));
        let inner = match probed {
            _ if pattern.iter().all(Option::is_some) => {
                let key = || pattern.iter().flatten().copied();
                MatchesInner::Lookup(self.tuples.get(|t| t.iter().copied().cmp(key())))
            }
            Some((0, key)) => {
                MatchesInner::Leading(self.tuples.iter_from(cursor, |t| t[0] < key), key)
            }
            Some((c, key)) => {
                MatchesInner::Probe(self.index(c).iter_from(cursor, |e| e.0 < key), key)
            }
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
        /// Whether the index of column `c ≥ 1` has been built.
        pub(crate) fn has_index(&self, c: usize) -> bool {
            self.indexes[c - 1].get().is_some()
        }

        /// [`Relation::distinct_count`] by its definition, the oracle of
        /// its sort-free count: the column's keys sorted and deduplicated.
        fn distinct_count_by_sorting(&self, c: usize) -> usize {
            let mut keys: Vec<Param> = self.tuples.iter().map(|t| t[c]).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
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

    /// Probe column `c` of `r` once, as a join step would, so its index
    /// (if `c ≥ 1`) is built from then on.
    fn probe(r: &Relation, c: usize) {
        let mut pattern = vec![None; r.arity()];
        pattern[c] = Some(p("zz"));
        r.select(&pattern).for_each(drop);
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
    fn select_probes_the_first_bound_column() {
        let r = rel();
        // The leading column, a lookup and a scan need no index.
        assert_eq!(sel(&r, &vec![Some(p("a")), None]).len(), 2);
        assert_eq!(
            sel(&r, &vec![Some(p("a")), Some(p("c"))]),
            vec![Tuple::from(vec![p("a"), p("c")])]
        );
        assert_eq!(sel(&r, &vec![None, None]).len(), 3);
        assert!(!r.has_index(1));
        // The first probe of column 1 builds its index.
        assert_eq!(sel(&r, &vec![None, Some(p("b"))]).len(), 2);
        assert!(r.has_index(1));
    }

    #[test]
    fn indexed_select_matches_scan() {
        let indexed = rel();
        probe(&indexed, 1);
        for pattern in [
            vec![Some(p("a")), None],
            vec![None, Some(p("b"))],
            vec![None, None],
            vec![Some(p("zz")), None],
            vec![Some(p("a")), Some(p("c"))],
        ] {
            let scan: Vec<Tuple> = indexed
                .iter()
                .filter(|t| Relation::matches(t, &pattern))
                .cloned()
                .collect();
            assert_eq!(sel(&indexed, &pattern), scan);
        }
    }

    #[test]
    fn index_maintained_incrementally() {
        let mut r = rel();
        assert_eq!(sel(&r, &vec![None, Some(p("b"))]).len(), 2);
        r.insert(vec![p("z"), p("b")].into());
        assert!(r.has_index(1), "mutation must not drop the index");
        assert_eq!(
            sel(&r, &vec![None, Some(p("b"))]).len(),
            3,
            "index must see the new tuple"
        );
        r.remove(&[p("a"), p("b")]);
        assert_eq!(
            sel(&r, &vec![None, Some(p("b"))]).len(),
            2,
            "index must forget the removed tuple"
        );
    }

    #[test]
    fn index_buckets_stay_sorted() {
        let mut r = Relation::new(2);
        probe(&r, 1);
        r.insert(vec![p("z"), p("a")].into());
        r.insert(vec![p("b"), p("a")].into());
        r.insert(vec![p("m"), p("a")].into());
        let got = sel(&r, &vec![None, Some(p("a"))]);
        let scan: Vec<Tuple> = r.iter().cloned().collect();
        assert_eq!(
            got, scan,
            "bucket iteration follows the relation's set order"
        );
    }

    #[test]
    fn batch_insert_returns_the_new_and_maintains_index() {
        let mut r = rel();
        probe(&r, 1);
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
        probe(&r, 1);
        assert_eq!(r.distinct_count(1), 2, "counted off the index");
        r.insert(vec![p("e"), p("x")].into());
        assert_eq!((r.distinct_count(0), r.distinct_count(1)), (3, 3));
        r.remove(&[p("d"), p("b")]);
        r.remove(&[p("e"), p("x")]);
        assert_eq!(
            (r.distinct_count(0), r.distinct_count(1)),
            (1, 2),
            "keys no tuple carries any more are not counted"
        );
    }

    #[test]
    fn matches_counts_examined_tuples() {
        // A pattern binding every column is one search of the tuple set:
        // it examines the tuple if stored and nothing if not, whatever
        // indexes are built.
        let r = rel();
        for built in [false, true] {
            if built {
                probe(&r, 1);
            }
            for (q, found) in [("c", 1), ("zz", 0)] {
                let pattern = vec![Some(p("a")), Some(p(q))];
                let mut it = r.select(&pattern);
                assert_eq!(it.by_ref().count(), found);
                assert_eq!(it.examined(), found as u64);
            }
        }
        // Any other pattern examines its first bound column's bucket:
        // `a` holds 2 tuples; the residual filter on col 2 rejects one.
        let mut r = Relation::new(3);
        for t in [["a", "b", "x"], ["a", "c", "y"], ["d", "b", "x"]] {
            r.insert(t.map(p).to_vec().into());
        }
        let pattern = vec![Some(p("a")), None, Some(p("y"))];
        let mut it = r.select(&pattern);
        assert_eq!(it.by_ref().count(), 1);
        assert_eq!(it.examined(), 2);
        assert!(!r.has_index(1) && !r.has_index(2), "column 0 needs none");
        // The first probe of column 1 examines only `b`'s 2 entries, not
        // the relation, and leaves the index built; an absent key
        // examines nothing.
        let pattern = vec![None, Some(p("b")), Some(p("y"))];
        let mut it = r.select(&pattern);
        assert_eq!(it.by_ref().count(), 0);
        assert_eq!(it.examined(), 2);
        assert!(r.has_index(1) && !r.has_index(2));
        let absent = vec![None, Some(p("zz")), None];
        let mut it = r.select(&absent);
        assert_eq!(it.by_ref().count(), 0);
        assert_eq!(it.examined(), 0);
        // A pattern binding nothing scans everything.
        let all = vec![None, None, None];
        let mut it = r.select(&all);
        assert_eq!(it.by_ref().count(), 3);
        assert_eq!(it.examined(), 3);
    }

    #[test]
    fn concurrent_first_probes_build_one_index() {
        let mut r = Relation::new(2);
        for i in 0..500 {
            r.insert(vec![p(&format!("k{i}")), p(&format!("v{}", i % 7))].into());
        }
        let before = r.clone();
        let pattern = vec![None, Some(p("v3"))];
        let want: Vec<Tuple> = r.iter().filter(|t| t[1] == p("v3")).cloned().collect();
        {
            let barrier = std::sync::Barrier::new(2);
            let answers: Vec<Vec<&Tuple>> = std::thread::scope(|s| {
                let probes: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            r.select(&pattern).collect::<Vec<&Tuple>>()
                        })
                    })
                    .collect();
                probes.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for got in &answers {
                assert!(got.iter().copied().eq(&want));
            }
            // One index: both walks yielded the very same stored entries.
            let mut pairs = answers[0].iter().zip(&answers[1]);
            assert!(pairs.all(|(a, b)| std::ptr::eq(*a, *b)));
        }
        assert!(r.has_index(1));
        assert!(!before.has_index(1), "a clone taken earlier gains nothing");
        // Later edits reach the index.
        r.insert(vec![p("k-new"), p("v3")].into());
        r.remove(&[p("k3"), p("v3")]);
        let mut it = r.select(&pattern);
        let got: Vec<Tuple> = it.by_ref().cloned().collect();
        let want: Vec<Tuple> = r.iter().filter(|t| t[1] == p("v3")).cloned().collect();
        assert_eq!(got, want);
        assert_eq!(it.examined(), want.len() as u64, "walked the index");
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
        for (a, b) in [("a", "x"), ("a", "y"), ("b", "x"), ("c", "x")] {
            r.insert(vec![p(a), p(b)].into());
        }
        // `a`'s range is followed by `b`'s tuple, and `x`'s entries by
        // `y`'s, which stop the walk without being candidates.
        for (pattern, n) in [(vec![Some(p("a")), None], 2), (vec![None, Some(p("x"))], 3)] {
            let mut it = r.select(&pattern);
            assert_eq!(it.by_ref().count(), n);
            assert_eq!(it.examined(), n as u64);
            assert_eq!(it.next(), None, "stays finished");
        }
        // The last key's range ends with the set.
        for pattern in [vec![Some(p("c")), None], vec![None, Some(p("y"))]] {
            let mut it = r.select(&pattern);
            assert_eq!(it.by_ref().count(), 1);
            assert_eq!(it.examined(), 1);
        }
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
        probe(&r, 1);
        for t in base {
            r.insert(t);
        }
        let shape = |r: &Relation| {
            let idx = r.indexes[0].get().unwrap();
            (r.tuples.run_count(), idx.run_count())
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
        assert!(after.0 <= before.0, "{after:?} vs {before:?}");
        assert!(after.1 <= before.1, "{after:?} vs {before:?}");
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
        probe(&base, 1);
        for i in 0..5000 {
            base.insert(vec![p(&format!("k{}", i % 70)), p(&format!("n{i}"))].into());
        }
        let unshared = |a: &Relation, b: &Relation| {
            let (x, y) = (a.indexes[0].get().unwrap(), b.indexes[0].get().unwrap());
            (
                a.tuples.run_count() - a.tuples.runs_shared_with(&b.tuples),
                x.run_count() - x.runs_shared_with(y),
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
        /// A selection probing this column (building its index if `≥ 1`).
        Probe(usize),
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
            1 => (0usize..2).prop_map(Step::Probe),
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
    /// counted before and after its own first probes).
    fn check_against(r: &Relation, model: &BTreeSet<Tuple>) -> Result<(), TestCaseError> {
        prop_assert_eq!(r.len(), model.len());
        prop_assert!(r.iter().eq(model.iter()));
        let scratch = Relation::from_ascending(2, model.iter().cloned().collect());
        let keys = |c: usize| {
            model
                .iter()
                .map(|t| t[c])
                .collect::<BTreeSet<Param>>()
                .len()
        };
        for c in 0..2 {
            prop_assert_eq!(r.distinct_count(c), r.distinct_count_by_sorting(c));
            prop_assert_eq!(r.distinct_count(c), keys(c));
            prop_assert_eq!(scratch.distinct_count(c), keys(c));
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
            // tuple if stored and nothing else. Otherwise a probe pulls
            // exactly the tuples carrying the first bound column's key,
            // whatever `r` was probed for before (its index was built at
            // some point of the history, or just now, or not at all);
            // a pattern binding nothing pulls everything.
            let pulled = match pattern.iter().position(Option::is_some) {
                _ if pattern.iter().all(Option::is_some) => want.len(),
                Some(c) => model.iter().filter(|t| Some(t[c]) == pattern[c]).count(),
                None => model.len(),
            };
            prop_assert_eq!(it.examined(), pulled as u64);
            // A probe of the leading column walks the tuple set itself:
            // the same tuples, in the same order, at the same count as
            // a probe of the explicit `(t[0], t)` index it stands in for.
            if let (Some(key), None) = (pattern[0], pattern[1]) {
                let explicit: RunSet<_> = r.tuples.iter().map(|t| (t[0], t.clone())).collect();
                let mut oracle = Matches {
                    inner: MatchesInner::Probe(
                        explicit.iter_from(&mut Cursor::default(), |e| e.0 < key),
                        key,
                    ),
                    pattern: pattern.into(),
                    examined: 0,
                };
                let mut it = r.select(pattern);
                prop_assert!(it.by_ref().eq(oracle.by_ref()));
                prop_assert_eq!(it.examined(), oracle.examined());
            }
        }
        prop_assert!(scratch.has_index(1));
        prop_assert_eq!(scratch.distinct_count(1), keys(1));
        for c in 0..2 {
            prop_assert_eq!(r.distinct_count(c), r.distinct_count_by_sorting(c));
        }
        // Probes through one cursor per column — each key of the column
        // (repeated as often as it is stored) and two absent ones,
        // ascending and then descending — and through one cursor shared
        // by all the patterns above: each pulls the tuples, and counts
        // them, as a fresh probe does.
        for c in 0..2 {
            let mut keys: Vec<Param> = model.iter().map(|t| t[c]).collect();
            keys.extend([tuple(12, 40)[c], tuple(3, 7)[c]]);
            keys.sort_unstable();
            let descending = keys.clone().into_iter().rev();
            let mut cursor = Cursor::default();
            for key in keys.into_iter().chain(descending) {
                let mut pattern = vec![None, None];
                pattern[c] = Some(key);
                let mut fresh = r.select(&pattern);
                let mut resumed = r.select_from(&pattern, &mut cursor);
                prop_assert!(resumed.by_ref().eq(fresh.by_ref()));
                prop_assert_eq!(resumed.examined(), fresh.examined());
            }
        }
        let mut cursor = Cursor::default();
        for pattern in &patterns {
            let mut fresh = r.select(pattern);
            let mut resumed = r.select_from(pattern, &mut cursor);
            prop_assert!(resumed.by_ref().eq(fresh.by_ref()));
            prop_assert_eq!(resumed.examined(), fresh.examined());
        }
        Ok(())
    }

    proptest! {
        /// `Relation` against a `BTreeSet` model over random edits —
        /// single inserts and removals, and ascending batches through
        /// `insert_ascending` — with first probes (and so indexes)
        /// appearing mid-stream and clones taken mid-stream: every clone
        /// keeps answering for the state it was taken in, as a relation
        /// built from scratch does.
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
                    Step::Probe(c) => probe(&r, c),
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
