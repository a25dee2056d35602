//! A persistent sorted set: sorted runs of items behind `Arc`s.
//!
//! This is the one container under [`Relation`](crate::Relation) — its
//! row set and every column index are a [`RunSet`], of the relation's
//! fixed-width rows (`[Param; n]`) and index entries (`[Param; n + 1]`) —
//! and the reason a snapshot of a database costs pointer bumps instead of
//! a copy.
//!
//! # Shape and cost model
//!
//! The set is a `Vec` of runs; each run is an `Arc<Vec<T>>` holding
//! between 1 and [`RUN_LEN`] items in ascending order, and every item of
//! a run sorts below every item of the next. With `n` items there are
//! between `n / RUN_LEN` (ascending bulk load: every run full) and
//! `2n / RUN_LEN` (every run freshly split) runs. A run of fixed-width
//! rows is one buffer of `RUN_LEN · 4n` bytes at most (512 for binary
//! rows, 768 for their index entries): what an edit shifts and a
//! copy-on-write copies, and what a walk of matches reads as one flat
//! slice of parameters ([`RunSet::run_from`]).
//!
//! * **clone** — one `Vec` of `n / RUN_LEN` pointers is copied and each
//!   run's reference count bumped; no item is touched. Both copies then
//!   share every run.
//! * **insert / remove** — a binary search over the runs' first items,
//!   a binary search inside the one run the item lands in, and
//!   `Arc::make_mut` on that run: a run nobody else holds is edited in
//!   place, shifting the items after the slot (a `memmove` of at most
//!   `RUN_LEN` rows), a shared run is copied first (≤ `RUN_LEN` items —
//!   the whole copy-on-write cost of a mutation, whatever `n` is). A run that
//!   outgrows `RUN_LEN` splits in half; a removal that leaves two
//!   neighbours fitting in one run joins them, so churn never leaves a
//!   trail of short runs behind. An item above everything stored is
//!   appended without a search, so ascending bulk loads run in place at
//!   one comparison per item.
//! * **ascending batch insert** — a round's new facts, sorted once, a
//!   destination run at a time. The run the next item lands in is found
//!   by galloping over the runs' first items from the run the previous
//!   items landed in (1, 2, 4, … runs, then a binary search inside the
//!   last stride); every item below the following run's first item lands
//!   in it too. Inside the run each item gallops on from the previous
//!   one's slot. The items it holds already are passed over; at its first
//!   new item the run is made writable with one `Arc::make_mut` (a run
//!   the batch adds nothing to is never copied, shared or not), each new
//!   item is placed at its slot — one `Vec::insert`, a move of the run's
//!   items above it, which beats a merge at the one or two new items a
//!   round brings to a run — and a run that outgrew `RUN_LEN` is cut
//!   once, into as few near-equal runs as fit, put into the list with one
//!   edit. Items above everything stored fill the last run and then fresh
//!   full runs, with no search. The batch comes back holding exactly its
//!   new items, so nothing is allocated for them.
//! * **bulk construction** from ascending items (a delta, a fresh
//!   index): cut into full runs, one move per item, no
//!   comparison.
//! * **contains** — the two binary searches, no copy.
//! * **range start** ([`RunSet::seek`]) — the same two searches for
//!   a fresh cursor. A cursor kept from the previous seek resumes: when
//!   the item just before it still sorts below the new key (one
//!   comparison), the seek gallops forward from it, over the runs' last
//!   items and then inside the run, so a join's ascending probe keys
//!   cost `O(log d)` for a distance `d` moved and three comparisons for
//!   a repeated key. Any other cursor — a key below the last one, a set
//!   edited since — falls back to the two searches.
//! * **iteration** — run after run, item after item: exactly the order
//!   a `BTreeSet` would produce, which for rows is lexicographic by
//!   parameter id.
//!
//! Two levels are enough at every size a workload in this repository
//! reaches: at 148 500 rows (the largest closure the tests build) a set
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

    /// Insert `items`, which must ascend strictly, a destination run at a
    /// time (see the module docs), leaving in `items` exactly those that
    /// were not stored yet, still ascending.
    pub(crate) fn insert_ascending(&mut self, items: &mut Vec<T>) {
        // `items[..kept]` are the new items placed so far, `items[next..]`
        // the ones still to place.
        let (mut kept, mut next) = (0, 0);
        // The run the previous items landed in: every later item sorts
        // above its first item (or it is still 0), so the search for the
        // next destination starts at the run after it.
        let mut i = 0;
        while next < items.len() {
            let first = &items[next];
            i = gallop(&self.runs, (i + 1).min(self.runs.len()), |r| r[0] <= *first)
                .saturating_sub(1);
            if i + 1 >= self.runs.len() && self.above_all(first) {
                // Everything left sorts above everything stored: it is
                // all new, and fills the last run, then fresh full ones.
                items.drain(kept..next);
                self.append_all(&items[kept..]);
                return;
            }
            // The items below the next run's first one land in run `i`.
            // Those it holds up to the first new one are passed over;
            // from that one on, the run is written in place, each new
            // item at its slot and moved down to `kept`.
            let (head, tail) = self.runs.split_at_mut(i + 1);
            let upper = tail.first().map(|r| &r[0]);
            let lands = |x: &T| upper.is_none_or(|u| x < u);
            let mut at = 0;
            while next < items.len() && lands(&items[next]) {
                at = gallop(&head[i], at, |x| *x < items[next]);
                if head[i].get(at) != Some(&items[next]) {
                    break;
                }
                (at, next) = (at + 1, next + 1);
            }
            if next == items.len() || !lands(&items[next]) {
                continue;
            }
            let run = Arc::make_mut(&mut head[i]);
            let before = kept;
            while next < items.len() && lands(&items[next]) {
                at = gallop(run, at, |x| *x < items[next]);
                if run.get(at) != Some(&items[next]) {
                    run.insert(at, items[next].clone());
                    items.swap(kept, next);
                    kept += 1;
                }
                (at, next) = (at + 1, next + 1);
            }
            self.len += kept - before;
            i += self.split(i) - 1;
        }
        items.truncate(kept);
    }

    /// Cut run `i`, if it outgrew [`RUN_LEN`], into as few near-equal runs
    /// as fit, put into the list with one edit. Returns how many runs its
    /// items now fill.
    fn split(&mut self, i: usize) -> usize {
        let len = self.runs[i].len();
        let pieces = len.div_ceil(RUN_LEN);
        if pieces > 1 {
            // The run's items, out of their `Arc` while the list is
            // edited; the first piece goes back into it.
            let mut run = std::mem::take(Arc::make_mut(&mut self.runs[i]));
            let size = |p: usize| len / pieces + usize::from(p < len % pieces);
            let mut rest = run.drain(size(0)..);
            let cut = (1..pieces).map(|p| Arc::new(rest.by_ref().take(size(p)).collect()));
            self.runs.splice(i + 1..i + 1, cut);
            drop(rest);
            *Arc::make_mut(&mut self.runs[i]) = run;
        }
        pieces
    }

    /// Append `items`, which ascend and sort above everything stored:
    /// into the last run until it is full, then into fresh full runs.
    fn append_all(&mut self, mut items: &[T]) {
        self.len += items.len();
        if let Some(last) = self.runs.last_mut() {
            let room = RUN_LEN.saturating_sub(last.len()).min(items.len());
            if room > 0 {
                Arc::make_mut(last).extend_from_slice(&items[..room]);
                items = &items[room..];
            }
        }
        self.runs
            .extend(items.chunks(RUN_LEN).map(|run| Arc::new(run.to_vec())));
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

    /// Where the first item `below` rejects sits (past the last item
    /// when there is none), left in `cursor` too. `below` must hold for a
    /// prefix of the set and for nothing after it (it is the "sorts below
    /// the range" test of a range probe).
    ///
    /// The seek resumes from `cursor`. When the item just before the
    /// cursor is still below, so is everything before it, and the seek
    /// gallops forward from there: over the runs' last items, then inside
    /// the run it lands in. Otherwise — a fresh cursor, a key below the
    /// previous one, a set edited since — it searches both levels from
    /// the start.
    pub(crate) fn seek(&self, cursor: &mut Cursor, below: impl Fn(&T) -> bool) -> Cursor {
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
        *cursor
    }

    /// The items from `at` to the end of its run; none past the last run.
    pub(crate) fn run_from(&self, at: Cursor) -> &[T] {
        self.runs.get(at.run).map_or(&[], |r| &r[at.at..])
    }

    /// Move `at` on by `n` items of its run, into the next run when that
    /// is the rest of this one.
    pub(crate) fn skip(&self, at: &mut Cursor, n: usize) {
        at.at += n;
        if at.at >= self.runs[at.run].len() {
            *at = Cursor {
                run: at.run + 1,
                at: 0,
            };
        }
    }
}

/// Where a seek of a [`RunSet`] landed, for the next one to resume from
/// ([`RunSet::seek`]). The default cursor has seen nothing: a seek
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
impl<T: Ord + Clone> RunSet<T> {
    /// The items from the first one `below` rejects onwards, ascending,
    /// sought through `cursor` ([`RunSet::seek`]).
    pub(crate) fn iter_from(&self, cursor: &mut Cursor, below: impl Fn(&T) -> bool) -> Iter<'_, T> {
        let at = self.seek(cursor, below);
        let mut runs = self.runs[at.run.min(self.runs.len())..].iter();
        let cur = runs.next().map_or([].iter(), |r| r[at.at..].iter());
        Iter { runs, cur }
    }

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
    use epilog_syntax::Param;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

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
        assert_eq!(set.len(), 0);
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
        let mut batch = vec![1, 2, 3, 4, 5, 6001, 6002, 7997, 7999, 9000];
        set.insert_ascending(&mut batch);
        // 4 is stored; 7999 and 9000 sit above everything (the append path).
        assert_eq!(batch, [1, 2, 3, 5, 6001, 6002, 7997, 7999, 9000]);
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
    fn seek_as_fresh<T: Ord + Clone>(
        set: &RunSet<T>,
        cursor: &mut Cursor,
        keys: &[T],
    ) -> Result<(), TestCaseError> {
        for k in keys {
            let mut fresh = Cursor::default();
            let want: Vec<&T> = set.iter_from(&mut fresh, |y| y < k).collect();
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

    /// The run set of `T` against a `BTreeSet` model: `steps` draw
    /// their items as `u16`s, and `item` turns each into a `T` (several
    /// into one, where `T` has fewer values); batches and seek keys are
    /// put back in order after that.
    fn matches_btreeset_model<T: Ord + Clone + std::fmt::Debug>(
        steps: &[Step],
        probes: &[u16],
        item: impl Fn(u16) -> T,
    ) -> Result<(), TestCaseError> {
        let mut set = RunSet::default();
        let mut model = BTreeSet::new();
        let mut snapshots: Vec<(RunSet<T>, BTreeSet<T>)> = Vec::new();
        let mut cursor = Cursor::default();
        for s in steps {
            match s {
                Step::Insert(x) => prop_assert_eq!(set.insert(item(*x)), model.insert(item(*x))),
                Step::Remove(x) => {
                    let x = item(*x);
                    prop_assert_eq!(set.remove(|y| y.cmp(&x)), model.remove(&x));
                }
                Step::Batch(batch) => {
                    let mut batch: Vec<T> = batch.iter().map(|x| item(*x)).collect();
                    batch.sort_unstable();
                    batch.dedup();
                    let want: Vec<T> = batch
                        .iter()
                        .filter(|x| model.insert((*x).clone()))
                        .cloned()
                        .collect();
                    set.insert_ascending(&mut batch);
                    prop_assert_eq!(batch, want);
                    check_shape(&set);
                }
                Step::Rebuild => set = RunSet::from_ascending(model.iter().cloned().collect()),
                Step::Snapshot => snapshots.push((set.clone(), model.clone())),
                Step::Seek(keys) => {
                    let mut keys_t: Vec<T> = keys.iter().map(|k| item(*k)).collect();
                    if keys.is_sorted() {
                        keys_t.sort();
                    } else {
                        keys_t.sort_by(|a, b| b.cmp(a));
                    }
                    seek_as_fresh(&set, &mut cursor, &keys_t)?
                }
            }
        }
        snapshots.push((set, model));
        let probes: Vec<T> = probes.iter().map(|k| item(*k)).collect();
        for (set, model) in &snapshots {
            check_shape(set);
            prop_assert_eq!(set.len(), model.len());
            prop_assert!(set.iter().eq(model.iter()));
            for x in &probes {
                prop_assert_eq!(set.contains(|y| y.cmp(x)), model.contains(x));
                prop_assert_eq!(set.get(|y| y.cmp(x)), model.get(x));
                prop_assert!(set
                    .iter_from(&mut Cursor::default(), |y| y < x)
                    .eq(model.range(x..)));
            }
            seek_as_fresh(set, &mut cursor, &probes)?;
        }
        Ok(())
    }

    /// How an ascending batch sits against the set it goes into.
    #[derive(Debug, Clone)]
    enum Shape {
        /// `n` consecutive values from `at`: inside one run when short, over
        /// a split (or several) when long.
        Dense { at: u32, n: u32 },
        /// `n` values spread `gap` apart from `at`, over many runs.
        Spread { at: u32, n: u32, gap: u32 },
        /// `n` values above everything stored.
        Above { n: u32 },
        /// Every `k`-th stored item, with `n` new values beside them.
        Stored { k: usize, n: u32 },
    }

    fn shape() -> impl Strategy<Value = Shape> {
        prop_oneof![
            (0u32..20_000, 1u32..200).prop_map(|(at, n)| Shape::Dense { at, n }),
            (0u32..20_000, 1u32..300, 2u32..90).prop_map(|(at, n, gap)| Shape::Spread {
                at,
                n,
                gap
            }),
            (1u32..300).prop_map(|n| Shape::Above { n }),
            (1usize..40, 0u32..60).prop_map(|(k, n)| Shape::Stored { k, n }),
        ]
    }

    proptest! {
        /// Ascending batches through the run-at-a-time insert, against a
        /// `BTreeSet`: batches inside one run, over splits, spread across
        /// many runs, above every run and repeating stored items, each
        /// into a set whose every earlier state a clone still holds. The
        /// batch comes back as exactly its new items; the shape invariant
        /// holds; and every clone still iterates what it held.
        #[test]
        fn ascending_batches_match_btreeset_with_clones_held(
            base in proptest::collection::vec(0u32..20_000, 0..800),
            shapes in proptest::collection::vec(shape(), 1..12),
        ) {
            let mut model: BTreeSet<u32> = base.into_iter().map(|x| x * 2).collect();
            let mut set = RunSet::from_ascending(model.iter().copied().collect());
            let mut clones = vec![(set.clone(), model.clone())];
            for shape in shapes {
                let mut batch: Vec<u32> = match shape {
                    Shape::Dense { at, n } => (at..at + n).collect(),
                    Shape::Spread { at, n, gap } => (0..n).map(|i| at + i * gap).collect(),
                    Shape::Above { n } => {
                        let top = model.last().map_or(0, |x| x + 1);
                        (top..top + n).collect()
                    }
                    Shape::Stored { k, n } => {
                        let mut b: Vec<u32> = model.iter().step_by(k).copied().collect();
                        b.extend((0..n).map(|i| i * 97 + 1));
                        b
                    }
                };
                batch.sort_unstable();
                batch.dedup();
                let want: Vec<u32> = batch.iter().copied().filter(|x| model.insert(*x)).collect();
                set.insert_ascending(&mut batch);
                prop_assert_eq!(batch, want);
                check_shape(&set);
                prop_assert!(set.iter().eq(model.iter()));
                clones.push((set.clone(), model.clone()));
            }
            for (set, model) in &clones {
                check_shape(set);
                prop_assert_eq!(set.len(), model.len());
                prop_assert!(set.iter().eq(model.iter()));
            }
        }
    }

    /// The `i`-th of 600 parameters, interned in order, so they ascend.
    fn param(i: u16) -> Param {
        static PARAMS: OnceLock<Vec<Param>> = OnceLock::new();
        PARAMS.get_or_init(|| (0..600).map(|i| Param::new(&format!("rs{i}"))).collect())
            [usize::from(i)]
    }

    /// `k`'s `width` digits in base `base`, most significant first, as
    /// parameters: rows that order as their `k`s do.
    fn digits(k: u16, width: u32, base: u16) -> impl Iterator<Item = Param> {
        (0..width).rev().map(move |c| param(k / base.pow(c) % base))
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
        /// where fresh seeks do. Over plain integers, and over the rows
        /// a relation stores — arities 0, 1, 2, 5 (the widest fixed
        /// row, `[Param; 5]`) and 6 (the first boxed one) — and a binary
        /// row's index entries.
        #[test]
        fn matches_btreeset_model_and_clones_are_snapshots(
            steps in proptest::collection::vec(step(), 0..400),
            probes in proptest::collection::vec(0u16..600, 8..9),
        ) {
            fn fixed<const N: usize>(k: u16, base: u16) -> [Param; N] {
                let mut row = digits(k, N as u32, base);
                std::array::from_fn(|_| row.next().expect("N digits"))
            }
            matches_btreeset_model(&steps, &probes, |k| k)?;
            // The rows, over the first steps only: what differs between
            // item types is their comparisons and moves, not the edits.
            let steps = &steps[..steps.len().min(100)];
            matches_btreeset_model(steps, &probes, |k| fixed::<0>(k, 2))?;
            matches_btreeset_model(steps, &probes, |k| fixed::<1>(k, 600))?;
            matches_btreeset_model(steps, &probes, |k| fixed::<2>(k, 25))?;
            matches_btreeset_model(steps, &probes, |k| fixed::<3>(k, 9))?;
            matches_btreeset_model(steps, &probes, |k| fixed::<5>(k, 4))?;
            matches_btreeset_model(steps, &probes, |k| digits(k, 6, 4).collect::<Box<[Param]>>())?;
        }
    }
}
