//! A persistent sorted set: sorted runs of items behind `Arc`s.
//!
//! This is the one container under [`Relation`](crate::Relation) — its
//! tuple set and every column index are a [`RunSet`] — and the reason a
//! snapshot of a database costs pointer bumps instead of a copy.
//!
//! # Shape and cost model
//!
//! The set is a `Vec` of runs; each run is an `Arc<Vec<T>>` holding
//! between 1 and [`RUN_LEN`] items in ascending order, and every item of
//! a run sorts below every item of the next. With `n` items there are
//! between `n / RUN_LEN` (ascending bulk load: every run full) and
//! `2n / RUN_LEN` (every run freshly split) runs.
//!
//! * **clone** — one `Vec` of `n / RUN_LEN` pointers is copied and each
//!   run's reference count bumped; no item is touched. Both copies then
//!   share every run.
//! * **insert / remove** — a binary search over the runs' first items,
//!   a binary search inside the one run the item lands in, and
//!   `Arc::make_mut` on that run: a run nobody else holds is edited in
//!   place, a shared run is copied first (≤ `RUN_LEN` items — the whole
//!   copy-on-write cost of a mutation, whatever `n` is). A run that
//!   outgrows `RUN_LEN` splits in half; a removal that leaves two
//!   neighbours fitting in one run joins them, so churn never leaves a
//!   trail of short runs behind. An item above everything stored is
//!   appended without a search, so ascending bulk loads run in place at
//!   one comparison per item.
//! * **ascending batch insert** — a round's new facts, sorted once: a
//!   cursor remembers the run and the slot the previous item landed in
//!   and gallops forward from them — over the runs' first items (1, 2,
//!   4, … runs, then a binary search inside the last stride), then
//!   inside the run, from the previous slot when the run is the same.
//!   Items a few runs or slots apart cost a comparison or two to place
//!   instead of two searches; only an item that lands in the last run is
//!   tested for the append. The copy-on-write, split and append rules
//!   are those of a single insert.
//! * **bulk construction** from ascending items (a delta, a fresh
//!   index): cut into full runs, one move per item, no
//!   comparison.
//! * **contains** — the two binary searches, no copy.
//! * **range start** ([`RunSet::iter_from`]) — the same two searches for
//!   a fresh cursor. A cursor kept from the previous seek resumes: when
//!   the item just before it still sorts below the new key (one
//!   comparison), the seek gallops forward from it, over the runs' last
//!   items and then inside the run, so a join's ascending probe keys
//!   cost `O(log d)` for a distance `d` moved and three comparisons for
//!   a repeated key. Any other cursor — a key below the last one, a set
//!   edited since — falls back to the two searches.
//! * **iteration** — run after run, item after item: exactly the order
//!   a `BTreeSet` would produce.
//!
//! Two levels are enough at every size a workload in this repository
//! reaches: at 148 500 tuples (the largest closure the tests build) a set
//! has ≤ 4 641 runs, so a clone is a 37 KB pointer copy plus as many
//! reference bumps (tens of microseconds) and a split shifts at most that
//! many pointers. A third level — runs of runs — would start to pay only
//! around 10⁷ items, where the run list itself becomes the thing a
//! snapshot copies.

use std::cmp::Ordering;
use std::sync::Arc;

/// Most items one run holds: the unit of copy-on-write. Larger runs mean
/// fewer pointers per clone and more items copied per shared-run edit.
const RUN_LEN: usize = 64;

/// A sorted set of `T` with `O(len / RUN_LEN)` clones that share storage
/// (see the module docs for the cost model).
#[derive(Debug, Clone)]
pub(crate) struct RunSet<T> {
    /// Non-empty ascending runs; consecutive runs ascend too.
    runs: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for RunSet<T> {
    fn default() -> Self {
        RunSet {
            runs: Vec::new(),
            len: 0,
        }
    }
}

/// Borrowing in-order iterator over a [`RunSet`] (or a tail of one).
#[derive(Debug)]
pub(crate) struct Iter<'a, T> {
    runs: std::slice::Iter<'a, Arc<Vec<T>>>,
    cur: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.cur.next() {
                return Some(item);
            }
            self.cur = self.runs.next()?.iter();
        }
    }
}

impl<T: Ord + Clone> RunSet<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where the item sits that `cmp` describes — `cmp(x)` being `x`'s
    /// order relative to it — as `(run, offset)`: `Ok` when stored, `Err`
    /// with its slot in the only run that can hold it (the last one
    /// starting at or below it; run 0 on an empty set) when not.
    fn find(&self, cmp: impl Fn(&T) -> Ordering) -> Result<(usize, usize), (usize, usize)> {
        let i = self
            .runs
            .partition_point(|r| cmp(&r[0]) != Ordering::Greater)
            .saturating_sub(1);
        let at = self.runs.get(i).map_or(Err(0), |r| r.binary_search_by(cmp));
        at.map(|at| (i, at)).map_err(|at| (i, at))
    }

    /// Whether the item `cmp` describes (see [`RunSet::find`]) is stored.
    pub(crate) fn contains(&self, cmp: impl Fn(&T) -> Ordering) -> bool {
        self.find(cmp).is_ok()
    }

    /// The stored item `cmp` describes (see [`RunSet::find`]), if any.
    pub(crate) fn get(&self, cmp: impl Fn(&T) -> Ordering) -> Option<&T> {
        self.find(cmp).ok().map(|(i, at)| &self.runs[i][at])
    }

    /// Insert `item`; returns whether it was new.
    pub(crate) fn insert(&mut self, item: T) -> bool {
        // Ascending loads (a sorted snapshot, a round's new facts) append:
        // one comparison, no search, and a full last run is followed by
        // a fresh one rather than split, so loaded runs stay full.
        if self.above_all(&item) {
            self.append(item);
            return true;
        }
        let Err((i, at)) = self.find(|x| x.cmp(&item)) else {
            return false;
        };
        self.insert_at(i, at, item);
        true
    }

    /// Insert `items`, which must ascend strictly, through a forward
    /// cursor (see the module docs), handing `new` each one not stored
    /// yet before it is stored.
    pub(crate) fn insert_ascending(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut new: impl FnMut(&T),
    ) {
        // The cursor, run `i` and slot `at`: every later item sorts above
        // that run's first item (or `i` is still 0) and above every item
        // before slot `at` of it. So the gallop starts at the next run.
        let (mut i, mut at) = (0, 0);
        for item in items {
            let next = (i + 1).min(self.runs.len());
            let landed = gallop(&self.runs, next, |r| r[0] <= item).saturating_sub(1);
            if landed != i {
                (i, at) = (landed, 0);
            }
            if i + 1 >= self.runs.len() && self.above_all(&item) {
                new(&item);
                self.append(item);
                i = self.runs.len() - 1;
                at = self.runs[i].len();
                continue;
            }
            at = gallop(&self.runs[i], at, |x| *x < item);
            if self.runs[i].get(at) == Some(&item) {
                at += 1;
                continue;
            }
            new(&item);
            self.insert_at(i, at, item);
            // Past the item. If a split moved it into run `i + 1`, the
            // next item sorts above that run's first one, so the next
            // gallop leaves run `i` and the slot restarts at 0.
            at += 1;
        }
    }

    /// Whether `item` sorts above everything stored (an empty set too).
    fn above_all(&self, item: &T) -> bool {
        self.runs.last().is_none_or(|r| r[r.len() - 1] < *item)
    }

    /// Append `item`, which sorts above everything stored: into the last
    /// run, or into a fresh one when it is full, so loaded runs stay full.
    fn append(&mut self, item: T) {
        match self.runs.last_mut() {
            Some(r) if r.len() < RUN_LEN => Arc::make_mut(r).push(item),
            _ => self.runs.push(Arc::new(vec![item])),
        }
        self.len += 1;
    }

    /// Store `item` at slot `at` of run `i`, splitting the run in half
    /// when it outgrows [`RUN_LEN`].
    fn insert_at(&mut self, i: usize, at: usize, item: T) {
        let run = Arc::make_mut(&mut self.runs[i]);
        run.insert(at, item);
        if run.len() > RUN_LEN {
            let upper = run.split_off(run.len() / 2);
            self.runs.insert(i + 1, Arc::new(upper));
        }
        self.len += 1;
    }

    /// A set of `items`, which must ascend strictly, cut into full runs.
    pub(crate) fn from_ascending(items: Vec<T>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "not ascending");
        let len = items.len();
        let mut runs = Vec::with_capacity(len.div_ceil(RUN_LEN));
        let mut items = items.into_iter();
        while !items.as_slice().is_empty() {
            runs.push(Arc::new(items.by_ref().take(RUN_LEN).collect()));
        }
        RunSet { runs, len }
    }

    /// Remove the item `cmp` describes (see [`RunSet::find`]); returns
    /// whether it was stored.
    pub(crate) fn remove(&mut self, cmp: impl Fn(&T) -> Ordering) -> bool {
        let Ok((i, at)) = self.find(cmp) else {
            return false;
        };
        Arc::make_mut(&mut self.runs[i]).remove(at);
        self.len -= 1;
        let fit = |a: &Arc<Vec<T>>, b: &Arc<Vec<T>>| a.len() + b.len() <= RUN_LEN;
        if self.runs[i].is_empty() {
            self.runs.remove(i);
        } else if i + 1 < self.runs.len() && fit(&self.runs[i], &self.runs[i + 1]) {
            self.join(i);
        } else if i > 0 && fit(&self.runs[i - 1], &self.runs[i]) {
            self.join(i - 1);
        }
        true
    }

    /// Append run `i + 1` to run `i`.
    fn join(&mut self, i: usize) {
        let upper = self.runs.remove(i + 1);
        let run = Arc::make_mut(&mut self.runs[i]);
        match Arc::try_unwrap(upper) {
            Ok(items) => run.extend(items),
            Err(shared) => run.extend(shared.iter().cloned()),
        }
    }

    /// Every item, ascending.
    pub(crate) fn iter(&self) -> Iter<'_, T> {
        Iter {
            runs: self.runs.iter(),
            cur: [].iter(),
        }
    }

    /// The items from the first one `below` rejects onwards, ascending.
    /// `below` must hold for a prefix of the set and for nothing after
    /// it (it is the "sorts below the range" test of a range probe).
    ///
    /// The seek resumes from `cursor` and leaves it where it landed. When
    /// the item just before the cursor is still below, so is everything
    /// before it, and the seek gallops forward from there: over the runs'
    /// last items, then inside the run it lands in. Otherwise — a fresh
    /// cursor, a key below the previous one, a set edited since — it
    /// searches both levels from the start.
    pub(crate) fn iter_from(&self, cursor: &mut Cursor, below: impl Fn(&T) -> bool) -> Iter<'_, T> {
        let before = match *cursor {
            Cursor { run: 0, at: 0 } => None,
            Cursor { run, at: 0 } => self.runs.get(run - 1).map(|r| &r[r.len() - 1]),
            Cursor { run, at } => self.runs.get(run).and_then(|r| r.get(at - 1)),
        };
        let (run, at) = match before {
            Some(x) if below(x) => {
                let run = gallop(&self.runs, cursor.run, |r| below(&r[r.len() - 1]));
                let from = if run == cursor.run { cursor.at } else { 0 };
                (
                    run,
                    self.runs.get(run).map_or(0, |r| gallop(r, from, &below)),
                )
            }
            _ => {
                let run = self.runs.partition_point(|r| below(&r[r.len() - 1]));
                (
                    run,
                    self.runs.get(run).map_or(0, |r| r.partition_point(&below)),
                )
            }
        };
        *cursor = Cursor { run, at };
        let mut runs = self.runs[run..].iter();
        let cur = runs.next().map_or([].iter(), |r| r[at..].iter());
        Iter { runs, cur }
    }
}

/// Where a seek of a [`RunSet`] landed, for the next one to resume from
/// ([`RunSet::iter_from`]). The default cursor has seen nothing: a seek
/// from it searches the whole set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cursor {
    run: usize,
    at: usize,
}

/// The first index at or after `from` whose item `below` rejects (or
/// `items.len()`), `below` holding for a prefix of `items`: strides of
/// 1, 2, 4, … items, then a binary search inside the stride that
/// overshot. An answer `d` places after `from` costs about `2 log d`
/// comparisons, one when it is `from` itself.
fn gallop<X>(items: &[X], from: usize, below: impl Fn(&X) -> bool) -> usize {
    let rest = &items[from..];
    let (mut lo, mut step) = (0, 1);
    while lo + step <= rest.len() && below(&rest[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step - 1).min(rest.len());
    from + lo + rest[lo..hi].partition_point(below)
}

impl<T: Ord + Clone> PartialEq for RunSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Ord + Clone> Eq for RunSet<T> {}

#[cfg(test)]
impl<T: Ord + Clone> FromIterator<T> for RunSet<T> {
    /// Ascending input is appended run by run; anything else is
    /// inserted item by item.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = RunSet::default();
        for item in iter {
            set.insert(item);
        }
        set
    }
}

#[cfg(test)]
impl<T> RunSet<T> {
    /// How many runs the set is stored in.
    pub(crate) fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// How many of this set's runs `other` holds too (same allocation).
    pub(crate) fn runs_shared_with(&self, other: &RunSet<T>) -> usize {
        self.runs
            .iter()
            .filter(|r| other.runs.iter().any(|o| Arc::ptr_eq(r, o)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn remove<T: Ord + Clone>(set: &mut RunSet<T>, item: T) -> bool {
        set.remove(|x| x.cmp(&item))
    }

    /// The representation invariant every operation must preserve.
    fn check_shape<T: Ord + Clone + std::fmt::Debug>(set: &RunSet<T>) {
        assert!(set.runs.iter().all(|r| !r.is_empty() && r.len() <= RUN_LEN));
        assert_eq!(set.runs.iter().map(|r| r.len()).sum::<usize>(), set.len);
        let items: Vec<&T> = set.iter().collect();
        assert!(items.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
    }

    #[test]
    fn ascending_load_fills_runs_and_splits_keep_order() {
        let mut set: RunSet<u32> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(set.run_count(), 1000usize.div_ceil(RUN_LEN));
        check_shape(&set);
        // An insert into a full run splits it; removing the item again
        // rejoins the halves.
        let before = set.run_count();
        assert!(set.insert(101));
        assert_eq!(set.run_count(), before + 1);
        assert!(!set.insert(101));
        assert!(remove(&mut set, 101));
        assert!(!remove(&mut set, 101));
        assert_eq!(set.run_count(), before);
        check_shape(&set);
        assert!(set.iter().copied().eq((0..1000).map(|i| i * 2)));
    }

    #[test]
    fn emptied_set_holds_no_runs() {
        let mut set: RunSet<u32> = (0..200).collect();
        for i in 0..200 {
            assert!(remove(&mut set, i));
        }
        assert!(set.is_empty());
        assert_eq!(set.run_count(), 0);
        assert_eq!(set.iter().count(), 0);
        assert!(set.insert(7));
        assert!(set.contains(|x| x.cmp(&7)));
    }

    #[test]
    fn range_start_lands_on_the_first_item_not_below() {
        let set: RunSet<u32> = (0..500).map(|i| i * 3).collect();
        for bound in [0, 1, 3, 190, 191, 192, 193, 1497, 1498, 5000] {
            let got: Vec<u32> = set
                .iter_from(&mut Cursor::default(), |x| *x < bound)
                .copied()
                .collect();
            let want: Vec<u32> = (0..500).map(|i| i * 3).filter(|x| *x >= bound).collect();
            assert_eq!(got, want, "bound {bound}");
        }
        assert_eq!(
            RunSet::<u32>::default()
                .iter_from(&mut Cursor::default(), |x| *x < 3)
                .count(),
            0
        );
    }

    #[test]
    fn a_clone_shares_every_run_and_an_edit_unshares_at_most_two() {
        let base: RunSet<u32> = (0..10_000).map(|i| i * 2).collect();
        let runs = base.run_count();
        let mut grown = base.clone();
        assert_eq!(grown.runs_shared_with(&base), runs);
        grown.insert(5001);
        assert!(base.runs_shared_with(&grown) >= runs - 2);
        let mut shrunk = base.clone();
        remove(&mut shrunk, 5000);
        assert!(base.runs_shared_with(&shrunk) >= runs - 2);
        // The clones went their own way; the original is untouched.
        assert!(base.iter().copied().eq((0..10_000).map(|i| i * 2)));
        assert!(grown.iter().copied().filter(|i| i % 2 == 1).eq([5001]));
        assert!(!shrunk.contains(|x| x.cmp(&5000)));
    }

    #[test]
    fn a_batch_gallops_past_runs_and_a_bulk_set_is_full_runs() {
        let mut set: RunSet<u32> = (0..2000).map(|i| i * 4).collect();
        let batch = [1, 2, 3, 4, 5, 6001, 6002, 7997, 7999, 9000];
        let mut seen = Vec::new();
        set.insert_ascending(batch, |x| seen.push(*x));
        // 4 is stored; 7999 and 9000 sit above everything (the append path).
        assert_eq!(seen, [1, 2, 3, 5, 6001, 6002, 7997, 7999, 9000]);
        check_shape(&set);
        assert_eq!(set.len(), 2009);
        let bulk = RunSet::from_ascending((0..1000u32).collect());
        assert_eq!(bulk.run_count(), 1000usize.div_ceil(RUN_LEN));
        assert!(bulk.runs.iter().rev().skip(1).all(|r| r.len() == RUN_LEN));
        check_shape(&bulk);
        assert!(bulk.iter().copied().eq(0..1000));
        assert_eq!(RunSet::<u32>::from_ascending(Vec::new()).run_count(), 0);
    }

    #[derive(Debug, Clone)]
    enum Step {
        Insert(u16),
        Remove(u16),
        /// Inserted as one ascending batch through the cursor.
        Batch(Vec<u16>),
        /// Rebuilt from its items by the bulk constructor.
        Rebuild,
        Snapshot,
        /// Range starts sought through the one cursor the run keeps.
        Seek(Vec<u16>),
    }

    /// Seek each of `keys` in `set` through `cursor`, checking that the
    /// seek starts and lands where a fresh one does.
    fn seek_as_fresh(
        set: &RunSet<u16>,
        cursor: &mut Cursor,
        keys: &[u16],
    ) -> Result<(), TestCaseError> {
        for k in keys {
            let mut fresh = Cursor::default();
            let want: Vec<&u16> = set.iter_from(&mut fresh, |y| y < k).collect();
            prop_assert!(set.iter_from(cursor, |y| y < k).eq(want));
            prop_assert_eq!(*cursor, fresh);
        }
        Ok(())
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => (0u16..600).prop_map(Step::Insert),
            3 => (0u16..600).prop_map(Step::Remove),
            2 => proptest::collection::vec(0u16..600, 0..90).prop_map(|mut b| {
                b.sort_unstable();
                b.dedup();
                Step::Batch(b)
            }),
            1 => Just(Step::Rebuild),
            1 => Just(Step::Snapshot),
            // Keys ascending, one key repeated, keys descending.
            2 => proptest::collection::vec(0u16..600, 0..12).prop_map(|mut keys| {
                keys.sort_unstable();
                Step::Seek(keys)
            }),
            1 => (0u16..600, 1usize..5).prop_map(|(k, n)| Step::Seek(vec![k; n])),
            1 => proptest::collection::vec(0u16..600, 0..12).prop_map(|mut keys| {
                keys.sort_unstable_by(|a, b| b.cmp(a));
                Step::Seek(keys)
            }),
        ]
    }

    proptest! {
        /// The run set against a `BTreeSet` model over random edit
        /// sequences — single inserts and removals, ascending batches
        /// through the cursor, bulk rebuilds — with clones taken
        /// mid-stream: every operation answers as the model does (a
        /// batch also about which of its items were new, in order), the
        /// shape invariant holds, and
        /// every clone still iterates exactly what it held when taken.
        /// Seeks through one cursor kept across all of it — across
        /// edits, and across the clones at the end — start and land
        /// where fresh seeks do.
        #[test]
        fn matches_btreeset_model_and_clones_are_snapshots(
            steps in proptest::collection::vec(step(), 0..400),
            probes in proptest::collection::vec(0u16..600, 8..9),
        ) {
            let mut set = RunSet::default();
            let mut model = BTreeSet::new();
            let mut snapshots: Vec<(RunSet<u16>, BTreeSet<u16>)> = Vec::new();
            let mut cursor = Cursor::default();
            for s in steps {
                match s {
                    Step::Insert(x) => prop_assert_eq!(set.insert(x), model.insert(x)),
                    Step::Remove(x) => prop_assert_eq!(set.remove(|y| y.cmp(&x)), model.remove(&x)),
                    Step::Batch(batch) => {
                        let want: Vec<u16> = batch.iter().copied().filter(|x| model.insert(*x)).collect();
                        let mut seen = Vec::new();
                        set.insert_ascending(batch, |y| seen.push(*y));
                        prop_assert_eq!(seen, want);
                        check_shape(&set);
                    }
                    Step::Rebuild => set = RunSet::from_ascending(model.iter().copied().collect()),
                    Step::Snapshot => snapshots.push((set.clone(), model.clone())),
                    Step::Seek(keys) => seek_as_fresh(&set, &mut cursor, &keys)?,
                }
            }
            snapshots.push((set, model));
            for (set, model) in &snapshots {
                check_shape(set);
                prop_assert_eq!(set.len(), model.len());
                prop_assert!(set.iter().eq(model.iter()));
                for x in &probes {
                    prop_assert_eq!(set.contains(|y| y.cmp(x)), model.contains(x));
                    prop_assert_eq!(set.get(|y| y.cmp(x)), model.get(x));
                    prop_assert!(set.iter_from(&mut Cursor::default(), |y| y < x).eq(model.range(x..)));
                }
                seek_as_fresh(set, &mut cursor, &probes)?;
            }
        }
    }
}
