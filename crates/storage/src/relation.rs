//! Relations: ordered sets of fixed-arity rows, each arity in its own row
//! type, stored in persistent run sets so a clone shares everything it
//! does not change, with a column index built by the first selection that
//! probes the column.

use crate::row::{by_same_width, by_width, per_width, Chunks, Row, Rows};
use crate::runset::{Cursor, RunSet};
use epilog_syntax::Param;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::mem::size_of;
use std::sync::OnceLock;

/// A selection pattern: per column, either a required parameter or a
/// wildcard. [`Relation::select`] borrows it as a slice, so a join can
/// refill one buffer per step instead of allocating a pattern per row; a
/// caller whose iterator outlives its buffer hands the pattern over.
pub type Selection = Vec<Option<Param>>;

/// A relation instance: a set of rows of a fixed arity.
///
/// Rows iterate in lexicographic order by parameter id (important for
/// the reproducibility of every experiment). Which column a selection
/// probes is the relation's own decision: the pattern's first bound
/// column. The row set is ordered by `t[0]` already, so column 0 needs no
/// index; the index of any other column is built the first time a
/// selection probes it, and from then on maintained **incrementally** by
/// `insert`/`insert_ascending`/`remove` — a mutation never tears an index
/// down, which is what keeps a fixpoint's probes warm across rounds.
///
/// # Cost model
///
/// A row of arity `n ≤ 5` is a `[Param; n]`: `4n` bytes, no tag, no
/// length, compared as the array it is (a binary row is 8 bytes). Column
/// `c`'s index holds one entry per row, the key `t[c]` followed by the
/// row (`4(n + 1)` bytes: 12 for a binary row). A longer row is a boxed
/// slice. The relation dispatches on its arity once per call; what runs
/// per row is compiled for its row type, and a walk of matches reads a
/// run's rows as one flat slice of parameters.
///
/// The row set and every index beside it are one kind of container: a
/// persistent sorted set of runs of at most 64 items, each run behind an
/// `Arc` (see `runset.rs`; two levels — a list of runs — are enough at
/// every size a workload here reaches, ≤ 4 641 runs at 148 500 rows).
/// With `n` rows and `k` built indexes:
///
/// * **clone** — `(1 + k) · n/64` reference-count bumps, no row copied;
///   the clone and the original share every run until one of them writes
///   to it. This is what makes a database snapshot (the MVCC head, a
///   transaction's candidate model, a recovery replay step) cost its
///   pointers rather than its rows. A clone carries the indexes built
///   before it was taken; one built later is its own.
/// * **insert / remove** — per set (`1 + k` of them), one two-level
///   binary search and an edit of the one run the row lands in: in place
///   when nobody shares the run (bulk loads copy nothing, ascending ones
///   do not even search), after copying that run's ≤ 64 items when a
///   snapshot does. An edit shifts the items after it within the run:
///   at most 64 rows of `4n` bytes. So a snapshot costs later writers one
///   run copy per run they touch, whatever the relation's size.
/// * **ascending batch insert** ([`Relation::insert_ascending`], how a
///   semi-naive round's sorted heads reach the total) — the row set takes
///   the batch, already in the row type, a destination run at a time:
///   each row gallops from the run and the slot the previous one landed
///   in, a run gaining rows is copied (if shared) once and cut (if
///   overfull) once, and the batch itself comes back as the rows that
///   were new. Each built index then takes those rows' entries, sorted
///   once, the same way.
/// * **bulk construction** (`Relation::from_ascending`, a round's
///   delta) — the sorted rows are cut into full runs: one move per row,
///   no search, no index.
/// * **probe** ([`Relation::select`] binding some columns) — the first
///   bound column's key is sought with one two-level binary search, in
///   the row set for column 0 and in the column's index otherwise, then
///   walked until an item carries another key; that item is not counted
///   in [`Matches::examined`]. A join step's probes resume instead: each
///   starts from where the step's previous one landed and gallops forward
///   when its key does not sort below that one's (a repeated key: three
///   comparisons), else searches afresh. The first probe of a column
///   `c ≥ 1` builds its index first: one sort of the column's entries,
///   once per relation value — a snapshot shared by readers builds it
///   once, whichever reader probes first.
/// * **lookup** ([`Relation::select`] binding every column) — one
///   two-level binary search of the row set, whatever indexes are built;
///   the row is counted in [`Matches::examined`] if stored.
/// * **distinct count** (the planner's statistic) — one pass, no sort:
///   over keys stored in order (column 0, a built index) it counts key
///   changes, over any other column it marks keys in a bitset.
#[derive(Debug, Clone)]
pub struct Relation {
    arity: usize,
    store: per_width!(Store),
}

/// A relation's rows in their row type, and its column indexes.
#[derive(Debug, Clone)]
struct Store<R: Row> {
    rows: RunSet<R>,
    /// `indexes[c - 1]` is column `c`'s index once a selection probed it.
    indexes: Vec<OnceLock<RunSet<R::Entry>>>,
}

/// Borrowing iterator over the rows matching a selection pattern, in
/// deterministic (lexicographic within the probed key) order.
///
/// It walks the stored items a run at a time, each run as one flat slice
/// of parameters — `stride` of them per item, the row starting `skip` in
/// (an index entry's key comes first) — so what runs per row is the same
/// for every arity.
pub struct Matches<'a> {
    /// The rest of the run being walked: `left` items.
    chunk: &'a [Param],
    left: usize,
    stride: usize,
    skip: usize,
    /// The set the runs after this one come from, and where they start.
    rest: Option<(&'a dyn Chunks, Cursor)>,
    /// A probe's key: the walk ends at the first item not led by it.
    key: Option<Param>,
    pattern: Cow<'a, [Option<Param>]>,
    examined: u64,
}

impl<'a> Matches<'a> {
    /// An iterator yielding nothing (for absent relations).
    pub fn empty() -> Matches<'a> {
        Matches::one(None, Cow::Borrowed(&[]))
    }

    /// The row a lookup found, if any.
    fn one(row: Option<&'a [Param]>, pattern: Cow<'a, [Option<Param>]>) -> Matches<'a> {
        Matches {
            chunk: row.unwrap_or_default(),
            left: usize::from(row.is_some()),
            stride: row.map_or(0, <[Param]>::len),
            skip: 0,
            rest: None,
            key: None,
            pattern,
            examined: 0,
        }
    }

    /// The items of `set` from `at` on, `stride` parameters each with the
    /// row `skip` in, until one is not led by `key`.
    fn walk(
        set: &'a dyn Chunks,
        at: Cursor,
        stride: usize,
        skip: usize,
        key: Option<Param>,
        pattern: Cow<'a, [Option<Param>]>,
    ) -> Matches<'a> {
        Matches {
            chunk: &[],
            left: 0,
            stride,
            skip,
            rest: Some((set, at)),
            key,
            pattern,
            examined: 0,
        }
    }

    /// Number of candidate rows pulled from storage so far — including
    /// the ones the residual pattern filter rejected. The join executor
    /// reads this after draining the iterator to report true work done
    /// (`EvalStats::rows_examined`), which is what separates an index
    /// probe that lands on a selective key from one that residually
    /// scans a heavily repeated one.
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Hand `f` every match, as `for_each` does, and return the number of
    /// rows examined: what [`Matches::examined`] reads after the walk.
    /// This is how a join step consumes its probe.
    pub fn for_each_counting(self, mut f: impl FnMut(&'a [Param])) -> u64 {
        self.fold_rows((), |(), row| f(row)).1
    }

    /// [`Iterator::fold`] with the examined count: the walk of the
    /// matches that `next` makes one row at a time, over whole run slices,
    /// with its state in locals.
    fn fold_rows<B>(self, mut acc: B, mut f: impl FnMut(B, &'a [Param]) -> B) -> (B, u64) {
        let Matches {
            mut chunk,
            mut left,
            stride,
            skip,
            mut rest,
            key,
            pattern,
            mut examined,
        } = self;
        loop {
            while left > 0 {
                let (item, tail) = chunk.split_at(stride);
                chunk = tail;
                left -= 1;
                if key.is_some_and(|key| item[0] != key) {
                    return (acc, examined);
                }
                examined += 1;
                let row = &item[skip..];
                if Relation::matches(row, &pattern) {
                    acc = f(acc, row);
                }
            }
            let Some((set, at)) = rest.as_mut() else {
                return (acc, examined);
            };
            let Some((next, n)) = set.chunk(at) else {
                return (acc, examined);
            };
            (chunk, left) = (next, n);
        }
    }
}

impl<'a> Iterator for Matches<'a> {
    type Item = &'a [Param];

    fn next(&mut self) -> Option<&'a [Param]> {
        loop {
            if self.left == 0 {
                let (set, at) = self.rest.as_mut()?;
                let Some((chunk, n)) = set.chunk(at) else {
                    self.rest = None;
                    return None;
                };
                (self.chunk, self.left) = (chunk, n);
            }
            let (item, chunk) = self.chunk.split_at(self.stride);
            self.chunk = chunk;
            self.left -= 1;
            if self.key.is_some_and(|key| item[0] != key) {
                (self.left, self.rest) = (0, None);
                return None;
            }
            self.examined += 1;
            let row = &item[self.skip..];
            if Relation::matches(row, &self.pattern) {
                return Some(row);
            }
        }
    }

    fn fold<B, F: FnMut(B, &'a [Param]) -> B>(self, init: B, f: F) -> B {
        self.fold_rows(init, f).0
    }
}

impl<R: Row> Store<R> {
    /// A store of `rows`, which must ascend strictly, cut into full runs.
    fn from_ascending(arity: usize, rows: Vec<R>) -> Self {
        Store {
            rows: RunSet::from_ascending(rows),
            indexes: (1..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The built indexes with their columns, for a mutation to maintain.
    fn built_mut(&mut self) -> impl Iterator<Item = (usize, &mut RunSet<R::Entry>)> {
        (1..)
            .zip(&mut self.indexes)
            .filter_map(|(c, i)| Some((c, i.get_mut()?)))
    }

    fn insert(&mut self, t: R) -> bool {
        if !self.rows.insert(t.clone()) {
            return false;
        }
        for (c, idx) in self.built_mut() {
            idx.insert(t.entry(c));
        }
        true
    }

    /// Insert `batch` (ascending) into the rows and every built index;
    /// returns the rows that were new — the batch itself, with the ones
    /// already held taken out.
    fn insert_ascending(&mut self, mut batch: Vec<R>) -> Vec<R> {
        debug_assert!(batch.windows(2).all(|w| w[0] < w[1]), "not ascending");
        self.rows.insert_ascending(&mut batch);
        for (c, idx) in self.built_mut() {
            let mut entries: Vec<R::Entry> = batch.iter().map(|t| t.entry(c)).collect();
            entries.sort_unstable();
            idx.insert_ascending(&mut entries);
        }
        batch
    }

    fn remove(&mut self, t: &R) -> bool {
        if !self.rows.remove(|s| s.cmp(t)) {
            return false;
        }
        for (c, idx) in self.built_mut() {
            let entry = t.entry(c);
            idx.remove(|e| e.cmp(&entry));
        }
        true
    }

    /// Column `c`'s index (`c ≥ 1`), built from the row set if no
    /// selection has probed the column yet.
    fn index(&self, c: usize) -> &RunSet<R::Entry> {
        self.indexes[c - 1].get_or_init(|| {
            let mut entries: Vec<R::Entry> = self.rows.iter().map(|t| t.entry(c)).collect();
            entries.sort_unstable();
            RunSet::from_ascending(entries)
        })
    }

    fn distinct_count(&self, c: usize) -> usize {
        fn changes(keys: impl Iterator<Item = Param>) -> usize {
            let mut last = None;
            keys.filter(|k| last.replace(*k) != Some(*k)).count()
        }
        match c.checked_sub(1).map(|i| self.indexes[i].get()) {
            None => changes(self.rows.iter().map(|t| t.as_ref()[0])),
            Some(Some(idx)) => changes(idx.iter().map(|e| e.as_ref()[0])),
            Some(None) => {
                let mut seen: Vec<u64> = Vec::new();
                let mut count = 0;
                for t in self.rows.iter() {
                    let key = t.as_ref()[c].ordinal();
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

    fn select<'a>(
        &'a self,
        arity: usize,
        pattern: Cow<'a, [Option<Param>]>,
        cursor: &mut Cursor,
    ) -> Matches<'a> {
        let probed = pattern
            .iter()
            .enumerate()
            .find_map(|(c, p)| Some((c, (*p)?)));
        match probed {
            _ if pattern.iter().all(Option::is_some) => {
                let t = R::build(arity, |c| pattern[c].expect("every column is bound"));
                let found = self.rows.get(|s| s.cmp(&t)).map(AsRef::as_ref);
                Matches::one(found, pattern)
            }
            Some((0, key)) => {
                let at = self.rows.seek(cursor, |t| t.as_ref()[0] < key);
                Matches::walk(&self.rows, at, arity, 0, Some(key), pattern)
            }
            Some((c, key)) => {
                let index = self.index(c);
                let at = index.seek(cursor, |e| e.as_ref()[0] < key);
                Matches::walk(index, at, arity + 1, 1, Some(key), pattern)
            }
            None => Matches::walk(&self.rows, Cursor::default(), arity, 0, None, pattern),
        }
    }

    /// The bytes the rows and the built index entries take inside their
    /// runs.
    fn stored_bytes(&self) -> usize {
        let entries: usize = self
            .indexes
            .iter()
            .filter_map(OnceLock::get)
            .map(RunSet::len)
            .sum();
        self.rows.len() * size_of::<R>() + entries * size_of::<R::Entry>()
    }
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation::from_ascending(Rows::new(arity))
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        by_width!(&self.store, s => s.rows.len())
    }

    /// Whether the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a row; returns `true` if it was new. Built indexes are
    /// updated in place.
    ///
    /// # Panics
    /// Panics if the row's length differs from the relation's arity.
    pub fn insert(&mut self, t: &[Param]) -> bool {
        assert_eq!(t.len(), self.arity, "tuple arity mismatch");
        self.insert_with(|c| t[c])
    }

    /// [`Relation::insert`] of the row whose column `c` is `col(c)`.
    pub(crate) fn insert_with(&mut self, col: impl FnMut(usize) -> Param) -> bool {
        let arity = self.arity;
        by_width!(&mut self.store, s => s.insert(Row::build(arity, col)))
    }

    /// Insert `batch`, whose rows must ascend strictly (a sorted,
    /// deduplicated round of heads, [`Rows::sort_and_dedup`]; a debug
    /// build checks), through the forward cursor of the cost model;
    /// returns the rows that were new, as a relation in full runs with no
    /// index. Built indexes are updated in place: the set and every probe
    /// afterwards are those of inserting the rows one by one.
    ///
    /// # Panics
    /// Panics if the batch's arity differs from the relation's.
    pub fn insert_ascending(&mut self, batch: Rows) -> Relation {
        assert_eq!(batch.arity, self.arity, "tuple arity mismatch");
        let arity = self.arity;
        Relation {
            arity,
            store: by_same_width!(map &mut self.store, batch.rows, (s, rows) => {
                Store::from_ascending(arity, s.insert_ascending(rows))
            }),
        }
    }

    /// A relation holding exactly `rows`, which must ascend strictly (a
    /// debug build checks), cut into full runs; no index is built.
    pub(crate) fn from_ascending(rows: Rows) -> Relation {
        let arity = rows.arity;
        Relation {
            arity,
            store: by_width!(map rows.rows, rows => Store::from_ascending(arity, rows)),
        }
    }

    /// Every row, ascending, as a batch in the row type.
    pub fn to_rows(&self) -> Rows {
        Rows {
            arity: self.arity,
            rows: by_width!(map &self.store, s => s.rows.iter().cloned().collect()),
        }
    }

    /// Remove a row; returns `true` if it was present. Built indexes are
    /// updated in place.
    pub fn remove(&mut self, t: &[Param]) -> bool {
        let arity = self.arity;
        t.len() == arity && by_width!(&mut self.store, s => s.remove(&Row::build(arity, |c| t[c])))
    }

    /// Whether the exact row is present.
    pub fn contains(&self, t: &[Param]) -> bool {
        t.len() == self.arity && self.contains_with(|c| t[c])
    }

    /// [`Relation::contains`] of the row whose column `c` is `col(c)`.
    pub(crate) fn contains_with(&self, col: impl FnMut(usize) -> Param) -> bool {
        let arity = self.arity;
        by_width!(&self.store, s => {
            let t = Row::build(arity, col);
            s.rows.contains(|x| x.cmp(&t))
        })
    }

    /// Iterate over all rows in deterministic (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = &[Param]> + '_ {
        let arity = self.arity;
        by_width!(&self.store, s => {
            Matches::walk(&s.rows, Cursor::default(), arity, 0, None, Cow::Borrowed(&[]))
        })
    }

    /// Number of distinct parameters in column `c` — the per-column
    /// statistic the cost-based planner divides by, counted when asked
    /// and without a sort: where the keys are stored in order (the row
    /// set for column 0, a built index otherwise) it counts where the
    /// key changes, else it makes one pass that marks each key in a
    /// bitset by its [`Param::ordinal`]. Planners call this once per plan
    /// compilation, not per probe.
    pub(crate) fn distinct_count(&self, c: usize) -> usize {
        by_width!(&self.store, s => s.distinct_count(c))
    }

    /// All rows matching a partial binding pattern, as a **borrowing**
    /// iterator — no row is copied.
    ///
    /// A pattern binding every column is a **lookup**: one search of the
    /// row set, whatever indexes are built, yielding the row if it is
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
        by_width!(&self.store, s => s.select(self.arity, pattern, cursor))
    }

    fn matches(t: &[Param], pattern: &[Option<Param>]) -> bool {
        t.iter()
            .zip(pattern)
            .all(|(v, p)| p.is_none_or(|q| q == *v))
    }

    /// The set of parameters appearing anywhere in the relation.
    pub fn params(&self) -> BTreeSet<Param> {
        self.iter().flat_map(|t| t.iter().copied()).collect()
    }

    /// The bytes the rows and the built index entries take inside their
    /// runs — `4n` per row of arity `n ≤ 5` and `4(n + 1)` per index
    /// entry; a boxed row counts its pointer — not counting the runs'
    /// headers and spare capacity.
    pub fn stored_bytes(&self) -> usize {
        by_width!(&self.store, s => s.stored_bytes())
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && by_same_width!(&self.store, &other.store, (a, b) => a.rows == b.rows)
    }
}

impl Eq for Relation {}

impl<'a> FromIterator<&'a [Param]> for Relation {
    /// Build a relation from rows; the arity is taken from the first row
    /// (empty input yields a 0-ary relation).
    fn from_iter<I: IntoIterator<Item = &'a [Param]>>(iter: I) -> Self {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map_or(0, |t| t.len());
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
            by_width!(&self.store, s => s.indexes[c - 1].get().is_some())
        }

        /// [`Relation::distinct_count`] by its definition, the oracle of
        /// its sort-free count: the column's keys sorted and deduplicated.
        fn distinct_count_by_sorting(&self, c: usize) -> usize {
            let mut keys: Vec<Param> = self.iter().map(|t| t[c]).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        }

        /// How many runs hold the rows, and column 1's built index.
        fn run_counts(&self) -> (usize, usize) {
            by_width!(&self.store, s => {
                let idx = s.indexes[0].get().expect("column 1 is indexed");
                (s.rows.run_count(), idx.run_count())
            })
        }

        /// How many runs of the rows and of column 1's built index this
        /// relation holds that `other` does not share.
        fn runs_unshared_with(&self, other: &Relation) -> (usize, usize) {
            by_same_width!(&self.store, &other.store, (a, b) => {
                let (x, y) = (a.indexes[0].get().unwrap(), b.indexes[0].get().unwrap());
                (
                    a.rows.run_count() - a.rows.runs_shared_with(&b.rows),
                    x.run_count() - x.runs_shared_with(y),
                )
            })
        }
    }

    fn p(n: &str) -> Param {
        Param::new(n)
    }

    fn rel() -> Relation {
        let mut r = Relation::new(2);
        r.insert(&[p("a"), p("b")]);
        r.insert(&[p("a"), p("c")]);
        r.insert(&[p("d"), p("b")]);
        r
    }

    fn sel(r: &Relation, pattern: &Selection) -> Vec<Vec<Param>> {
        r.select(pattern).map(<[Param]>::to_vec).collect()
    }

    /// Probe column `c` of `r` once, as a join step would, so its index
    /// (if `c ≥ 1`) is built from then on.
    fn probe(r: &Relation, c: usize) {
        let mut pattern = vec![None; r.arity()];
        pattern[c] = Some(p("zz"));
        r.select(&pattern).for_each(drop);
    }

    /// `rows` sorted and deduplicated, as the batch `insert_ascending`
    /// takes.
    fn batch(arity: usize, rows: &[Vec<Param>]) -> Rows {
        let mut batch = Rows::new(arity);
        batch.extend(rows.iter().map(Vec::as_slice));
        batch.sort_and_dedup();
        batch
    }

    #[test]
    fn insert_and_contains() {
        let mut r = rel();
        assert_eq!(r.len(), 3);
        assert!(r.contains(&[p("a"), p("b")]));
        assert!(
            !r.insert(&[p("a"), p("b")]),
            "duplicate insert returns false"
        );
        assert_eq!(r.len(), 3);
        assert!(r.remove(&[p("a"), p("b")]));
        assert!(!r.contains(&[p("a"), p("b")]));
        assert!(!r.contains(&[p("a")]), "a row of another width is absent");
        assert!(!r.remove(&[p("a")]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_enforced() {
        let mut r = Relation::new(2);
        r.insert(&[p("a")]);
    }

    #[test]
    fn select_probes_the_first_bound_column() {
        let r = rel();
        // The leading column, a lookup and a scan need no index.
        assert_eq!(sel(&r, &vec![Some(p("a")), None]).len(), 2);
        assert_eq!(
            sel(&r, &vec![Some(p("a")), Some(p("c"))]),
            vec![vec![p("a"), p("c")]]
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
            let scan: Vec<Vec<Param>> = indexed
                .iter()
                .filter(|t| Relation::matches(t, &pattern))
                .map(<[Param]>::to_vec)
                .collect();
            assert_eq!(sel(&indexed, &pattern), scan);
        }
    }

    #[test]
    fn index_maintained_incrementally() {
        let mut r = rel();
        assert_eq!(sel(&r, &vec![None, Some(p("b"))]).len(), 2);
        r.insert(&[p("z"), p("b")]);
        assert!(r.has_index(1), "mutation must not drop the index");
        assert_eq!(
            sel(&r, &vec![None, Some(p("b"))]).len(),
            3,
            "index must see the new row"
        );
        r.remove(&[p("a"), p("b")]);
        assert_eq!(
            sel(&r, &vec![None, Some(p("b"))]).len(),
            2,
            "index must forget the removed row"
        );
    }

    #[test]
    fn index_buckets_stay_sorted() {
        let mut r = Relation::new(2);
        probe(&r, 1);
        r.insert(&[p("z"), p("a")]);
        r.insert(&[p("b"), p("a")]);
        r.insert(&[p("m"), p("a")]);
        let got = sel(&r, &vec![None, Some(p("a"))]);
        let scan: Vec<Vec<Param>> = r.iter().map(<[Param]>::to_vec).collect();
        assert_eq!(
            got, scan,
            "bucket iteration follows the relation's set order"
        );
    }

    #[test]
    fn batch_insert_returns_the_new_and_maintains_index() {
        let mut r = rel();
        probe(&r, 1);
        let new = vec![p("x"), p("b")];
        let fresh = r.insert_ascending(batch(2, &[vec![p("a"), p("b")], new.clone()]));
        assert!(fresh.iter().eq([new.as_slice()]));
        assert!(!fresh.has_index(1), "the new rows come back unindexed");
        assert_eq!(r.len(), 4);
        assert_eq!(sel(&r, &vec![None, Some(p("b"))]).len(), 3);
        assert_eq!(r.distinct_count(1), 2, "b was a key already");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn batch_insert_checks_arity() {
        rel().insert_ascending(batch(1, &[vec![p("zz")]]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn bulk_construction_checks_arity() {
        batch(2, &[vec![p("a"), p("b"), p("c")]]);
    }

    #[test]
    fn distinct_counts_with_and_without_index() {
        let mut r = rel();
        assert_eq!(r.distinct_count(0), 2); // a, d
        assert_eq!(r.distinct_count(1), 2); // b, c
        probe(&r, 1);
        assert_eq!(r.distinct_count(1), 2, "counted off the index");
        r.insert(&[p("e"), p("x")]);
        assert_eq!((r.distinct_count(0), r.distinct_count(1)), (3, 3));
        r.remove(&[p("d"), p("b")]);
        r.remove(&[p("e"), p("x")]);
        assert_eq!(
            (r.distinct_count(0), r.distinct_count(1)),
            (1, 2),
            "keys no row carries any more are not counted"
        );
    }

    #[test]
    fn matches_counts_examined_tuples() {
        // A pattern binding every column is one search of the row set:
        // it examines the row if stored and nothing if not, whatever
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
        // `a` holds 2 rows; the residual filter on col 2 rejects one.
        let mut r = Relation::new(3);
        for t in [["a", "b", "x"], ["a", "c", "y"], ["d", "b", "x"]] {
            r.insert(&t.map(p));
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
            r.insert(&[p(&format!("k{i}")), p(&format!("v{}", i % 7))]);
        }
        let before = r.clone();
        let pattern = vec![None, Some(p("v3"))];
        let want: Vec<&[Param]> = r.iter().filter(|t| t[1] == p("v3")).collect();
        {
            let barrier = std::sync::Barrier::new(2);
            let answers: Vec<Vec<&[Param]>> = std::thread::scope(|s| {
                let probes: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            r.select(&pattern).collect::<Vec<&[Param]>>()
                        })
                    })
                    .collect();
                probes.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for got in &answers {
                assert_eq!(got, &want);
            }
            // One index: both walks yielded the very same stored entries.
            let mut pairs = answers[0].iter().zip(&answers[1]);
            assert!(pairs.all(|(a, b)| std::ptr::eq(a.as_ptr(), b.as_ptr())));
        }
        assert!(r.has_index(1));
        assert!(!before.has_index(1), "a clone taken earlier gains nothing");
        // Later edits reach the index.
        r.insert(&[p("k-new"), p("v3")]);
        r.remove(&[p("k3"), p("v3")]);
        let mut it = r.select(&pattern);
        let got: Vec<&[Param]> = it.by_ref().collect();
        let want: Vec<&[Param]> = r.iter().filter(|t| t[1] == p("v3")).collect();
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
        assert!(rel().iter().eq(rel().iter()));
    }

    #[test]
    fn from_iterator() {
        let r: Relation = [[p("a")], [p("b")]].iter().map(|t| &t[..]).collect();
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
            r.insert(&[p(a), p(b)]);
        }
        // `a`'s range is followed by `b`'s row, and `x`'s entries by
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
            leaves.push([p(&format!("churn-leaf{i}")), p(&format!("churn-w{i}"))]);
            if i % 5 == 0 {
                let (k, v) = (format!("churn-base{}", i % 400), format!("churn-v{i}"));
                base.push([p(&k), p(&v)]);
            }
        }
        let mut r = Relation::new(2);
        probe(&r, 1);
        for t in &base {
            r.insert(t);
        }
        let before = r.run_counts();
        // 10 000 insert/remove pairs on keys never seen before or again
        // (the shape of `closure_write`'s leaf hires and fires).
        for t in &leaves {
            assert!(r.insert(t));
            assert!(r.remove(t));
        }
        // Never more runs than before; fewer where a pair's removal found
        // two short neighbours to join.
        let after = r.run_counts();
        assert!(after.0 <= before.0, "{after:?} vs {before:?}");
        assert!(after.1 <= before.1, "{after:?} vs {before:?}");
        assert!(after.0 * 2 > before.0, "and nothing but joins happened");
        let scratch: Relation = r.iter().collect();
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
            base.insert(&[p(&format!("k{}", i % 70)), p(&format!("n{i}"))]);
        }
        let snapshot = base.clone();
        assert_eq!(snapshot.runs_unshared_with(&base), (0, 0));
        base.insert(&[p("k7"), p("fresh")]);
        let (rows, entries) = snapshot.runs_unshared_with(&base);
        assert!(rows <= 2 && entries <= 2, "{rows} + {entries} copied");
        base.remove(&[p("k7"), p("n77")]);
        let (rows, entries) = snapshot.runs_unshared_with(&base);
        assert!(rows <= 4 && entries <= 4, "{rows} + {entries} copied");
        // The snapshot still holds exactly what it held.
        assert_eq!(snapshot.len(), 5000);
        assert!(snapshot.contains(&[p("k7"), p("n77")]));
        assert!(!snapshot.contains(&[p("k7"), p("fresh")]));
    }

    #[test]
    fn stored_bytes_are_rows_and_built_entries_at_their_width() {
        let mut r = rel();
        assert_eq!(r.stored_bytes(), 3 * 8);
        probe(&r, 1);
        assert_eq!(r.stored_bytes(), 3 * 8 + 3 * 12);
        r.insert(&[p("x"), p("y")]);
        assert_eq!(r.stored_bytes(), 4 * 20);
        let mut wide = Relation::new(6);
        wide.insert(&[p("a"); 6]);
        assert_eq!(wide.stored_bytes(), size_of::<Box<[Param]>>());
    }

    /// The arities the properties run at: the empty row, the unary and
    /// binary rows every workload stores, the widest fixed row and the
    /// first boxed one.
    const ARITIES: [usize; 5] = [0, 1, 2, 5, 6];

    #[derive(Debug, Clone)]
    enum Step {
        Insert(Vec<u8>),
        Remove(Vec<u8>),
        /// Inserted as one ascending batch.
        Batch(Vec<Vec<u8>>),
        /// A selection probing this column, modulo the arity (building
        /// its index if `≥ 1`).
        Probe(usize),
        Snapshot,
    }

    /// Edits over rows that `raw` draws, with batches of fewer than
    /// `batch` rows.
    fn steps(
        raw: impl Strategy<Value = Vec<u8>> + 'static,
        batch: usize,
    ) -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => raw.clone().prop_map(Step::Insert),
            4 => raw.clone().prop_map(Step::Remove),
            2 => proptest::collection::vec(raw, 0..batch).prop_map(Step::Batch),
            1 => (0usize..6).prop_map(Step::Probe),
            1 => Just(Step::Snapshot),
        ]
    }

    /// Six column values; a row of arity `n` keeps the first `n`.
    fn raw_row() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..40, 6..7)
    }

    /// A binary row drawn uniformly: 12 first and 40 second columns.
    fn raw_pair() -> impl Strategy<Value = Vec<u8>> {
        (0u8..12, 0u8..40).prop_map(|(a, b)| vec![a, b])
    }

    /// The row of `arity` that `raw` draws: column `c` takes one of a few
    /// values — fewer in wider rows, so their keys repeat too.
    fn row(arity: usize, raw: &[u8]) -> Vec<Param> {
        let values = |c: usize| match (arity, c) {
            (1, _) | (2, 1) => 40,
            (2, 0) => 12,
            (_, 0) => 6,
            _ => 3,
        };
        (0..arity)
            .map(|c| p(&format!("r{c}v{}", raw[c] % values(c))))
            .collect()
    }

    /// The binary row `(a, b)` by value: `row(2, ..)`'s for `a < 12` and
    /// `b < 40`, and never drawn otherwise.
    fn pair(a: u8, b: u8) -> Vec<Param> {
        vec![p(&format!("r0v{a}")), p(&format!("r1v{b}"))]
    }

    /// What [`check_against`] probes: every binding pattern of the
    /// model's first `stored` rows and of the `fixed` ones (drawn or
    /// not), and through cursors each column's keys — as often as they
    /// are stored if `every_copy`, else each distinct key twice — with
    /// the fixed rows' keys.
    struct Samples {
        stored: usize,
        fixed: Vec<Vec<Param>>,
        every_copy: bool,
    }

    /// Everything a reader can observe of `r`, against the `BTreeSet`
    /// that models it: scan order, every binding pattern's selection over
    /// the sample rows, with its `examined()` count, the planner
    /// statistics, and cursor re-probes — and the same against a relation
    /// built from scratch (the bulk constructor, counted before and after
    /// its own first probes).
    fn check_against(
        r: &Relation,
        model: &BTreeSet<Vec<Param>>,
        samples: &Samples,
    ) -> Result<(), TestCaseError> {
        let arity = r.arity();
        prop_assert_eq!(r.len(), model.len());
        prop_assert!(r.iter().eq(model.iter().map(Vec::as_slice)));
        let rows: Vec<Vec<Param>> = model.iter().cloned().collect();
        let scratch = Relation::from_ascending(batch(arity, &rows));
        prop_assert_eq!(&scratch, r);
        let keys = |c: usize| {
            model
                .iter()
                .map(|t| t[c])
                .collect::<BTreeSet<Param>>()
                .len()
        };
        for c in 0..arity {
            prop_assert_eq!(r.distinct_count(c), r.distinct_count_by_sorting(c));
            prop_assert_eq!(r.distinct_count(c), keys(c));
            prop_assert_eq!(scratch.distinct_count(c), keys(c));
        }
        // Every binding pattern of each sample row.
        let mut patterns: Vec<Selection> = Vec::new();
        for t in model.iter().take(samples.stored).chain(&samples.fixed) {
            for mask in 0..1usize << arity {
                let bound = |c: usize| mask >> c & 1 == 1;
                patterns.push(
                    (0..arity)
                        .map(|c| Some(t[c]).filter(|_| bound(c)))
                        .collect(),
                );
            }
        }
        for pattern in &patterns {
            let want: Vec<&[Param]> = model
                .iter()
                .map(Vec::as_slice)
                .filter(|t| Relation::matches(t, pattern))
                .collect();
            let mut it = r.select(pattern);
            let got: Vec<&[Param]> = it.by_ref().collect();
            prop_assert_eq!(&got, &want);
            let mut fresh = scratch.select(pattern);
            prop_assert!(fresh.by_ref().eq(got.iter().copied()));
            prop_assert_eq!(fresh.examined(), it.examined());
            // The walk over whole run slices (`fold`, and the join's
            // `for_each_counting`) yields what `next` does, at its count.
            let mut folded = Vec::new();
            let examined = r.select(pattern).for_each_counting(|t| folded.push(t));
            prop_assert_eq!(&folded, &got);
            prop_assert_eq!(examined, it.examined());
            prop_assert_eq!(r.select(pattern).count(), got.len());
            // A pattern binding every column is a lookup: it pulls the
            // row if stored and nothing else. Otherwise a probe pulls
            // exactly the rows carrying the first bound column's key,
            // whatever `r` was probed for before (its index was built at
            // some point of the history, or just now, or not at all);
            // a pattern binding nothing pulls everything.
            let pulled = match pattern.iter().position(Option::is_some) {
                _ if pattern.iter().all(Option::is_some) => want.len(),
                Some(c) => model.iter().filter(|t| Some(t[c]) == pattern[c]).count(),
                None => model.len(),
            };
            prop_assert_eq!(it.examined(), pulled as u64);
        }
        // A probe of the leading column walks the row set itself: the
        // same rows, in the same order, at the same count as a probe of
        // the explicit column-0 index it stands in for.
        by_width!(&r.store, s => {
            let explicit: RunSet<_> = s.rows.iter().filter(|_| arity > 0).map(|t| t.entry(0)).collect();
            for pattern in &patterns {
                let (Some(&Some(key)), false) =
                    (pattern.first(), pattern.iter().all(Option::is_some))
                else {
                    continue;
                };
                let at = explicit.seek(&mut Cursor::default(), |e| e.as_ref()[0] < key);
                let mut oracle =
                    Matches::walk(&explicit, at, arity + 1, 1, Some(key), pattern.into());
                let mut it = r.select(pattern);
                prop_assert!(it.by_ref().eq(oracle.by_ref()));
                prop_assert_eq!(it.examined(), oracle.examined());
            }
        });
        for c in 1..arity {
            prop_assert!(scratch.has_index(c));
            prop_assert_eq!(scratch.distinct_count(c), keys(c));
            prop_assert_eq!(r.distinct_count(c), r.distinct_count_by_sorting(c));
        }
        // Probes through one cursor per column — the column's keys and
        // the fixed rows', ascending and then descending — and through
        // one cursor shared by all the patterns above: each pulls the
        // rows, and counts them, as a fresh probe does.
        for c in 0..arity {
            let mut keys: Vec<Param> = if samples.every_copy {
                model.iter().map(|t| t[c]).collect()
            } else {
                let distinct: BTreeSet<Param> = model.iter().map(|t| t[c]).collect();
                distinct.iter().chain(&distinct).copied().collect()
            };
            keys.extend(samples.fixed.iter().map(|t| t[c]));
            keys.sort_unstable();
            let descending = keys.clone().into_iter().rev();
            let mut cursor = Cursor::default();
            for key in keys.into_iter().chain(descending) {
                let mut pattern = vec![None; arity];
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

    /// Run `steps` on a relation of `arity` and on its `BTreeSet` model,
    /// then check every clone taken along the way, and the end state,
    /// against the model it was taken with.
    fn run_against_model(
        arity: usize,
        steps: Vec<Step>,
        samples: &Samples,
    ) -> Result<(), TestCaseError> {
        let mut r = Relation::new(arity);
        let mut model: BTreeSet<Vec<Param>> = BTreeSet::new();
        let mut snapshots = Vec::new();
        for s in steps {
            match s {
                Step::Insert(raw) => {
                    let t = row(arity, &raw);
                    prop_assert_eq!(r.insert(&t), model.insert(t));
                }
                Step::Remove(raw) => {
                    let t = row(arity, &raw);
                    prop_assert_eq!(r.remove(&t), model.remove(&t));
                }
                Step::Batch(raws) => {
                    let rows: Vec<Vec<Param>> = raws.iter().map(|raw| row(arity, raw)).collect();
                    let batch = batch(arity, &rows);
                    let mut want: Vec<Vec<Param>> = rows
                        .into_iter()
                        .filter(|t| model.insert(t.clone()))
                        .collect();
                    want.sort_unstable();
                    let fresh = r.insert_ascending(batch);
                    prop_assert!(fresh.iter().eq(want.iter().map(Vec::as_slice)));
                }
                Step::Probe(c) if arity > 0 => probe(&r, c % arity),
                Step::Probe(_) => {}
                Step::Snapshot => snapshots.push((r.clone(), model.clone())),
            }
        }
        snapshots.push((r, model));
        for (r, model) in &snapshots {
            check_against(r, model, samples)?;
        }
        Ok(())
    }

    proptest! {
        /// The binary `Relation` every workload stores against a
        /// `BTreeSet` model over random edits — single inserts and
        /// removals, and ascending batches through `insert_ascending`,
        /// whose new rows come back in order — with first probes (and so
        /// indexes) appearing mid-stream and clones taken mid-stream:
        /// every clone keeps answering for the state it was taken in, as
        /// a relation built from scratch does. Probed at three stored rows
        /// and four fixed ones, `pair(12, 40)` never stored, and at every
        /// stored copy of each key.
        #[test]
        fn relation_matches_model_with_and_without_indexes(
            steps in proptest::collection::vec(steps(raw_pair(), 60), 0..250),
        ) {
            let fixed = vec![pair(3, 7), pair(0, 0), pair(11, 39), pair(12, 40)];
            run_against_model(2, steps, &Samples { stored: 3, fixed, every_copy: true })?;
        }

        /// The same at each arity of [`ARITIES`], over shorter histories
        /// (a row of arity `n` has `2^n` binding patterns): probed at the
        /// first stored row and one absent row, and at each distinct key
        /// twice.
        #[test]
        fn relation_matches_model_at_every_row_width(
            pick in 0usize..ARITIES.len(),
            steps in proptest::collection::vec(steps(raw_row(), 40), 0..150),
        ) {
            let arity = ARITIES[pick];
            // Column values no drawn row takes.
            let absent = (0..arity).map(|c| p(&format!("r{c}v-absent"))).collect();
            let samples = Samples { stored: 1, fixed: vec![absent], every_copy: false };
            run_against_model(arity, steps, &samples)?;
        }
    }
}
