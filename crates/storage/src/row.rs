//! Stored rows: a relation's rows at its arity.
//!
//! A row of arity `n ≤ 5` is a `[Param; n]` — `4n` bytes with no tag and
//! no length, ordered, compared and copied as the array it is — and a
//! longer one is a boxed slice (no predicate of any workload here is that
//! wide). A column index entry is the key followed by the row, one
//! parameter wider (`[Param; n + 1]`, or a boxed slice), so it orders as
//! `(key, row)` does. Every arity has its own row type, and one generic
//! implementation serves them all: each value that holds rows — a
//! relation's store, a batch of [`Rows`] — holds them in a [`ByWidth`],
//! and a call dispatches on it once, never once per row.

use crate::runset::{Cursor, RunSet};
use epilog_syntax::Param;
use std::fmt::Debug;

/// Items a run set can hand out as flat parameters: a probe or a scan
/// ([`crate::Matches`]) walks them a run at a time, whatever the type.
pub(crate) trait Stored: Sized {
    /// `items` (nonempty) as flat parameters, and how many items those
    /// are: all of them for a fixed-width item, the first alone for a
    /// boxed one.
    fn flatten(items: &[Self]) -> (&[Param], usize);
}

impl<const N: usize> Stored for [Param; N] {
    fn flatten(items: &[Self]) -> (&[Param], usize) {
        (items.as_flattened(), items.len())
    }
}

impl Stored for Box<[Param]> {
    fn flatten(items: &[Self]) -> (&[Param], usize) {
        (&items[0], 1)
    }
}

/// The row type of one arity (see the module docs).
pub(crate) trait Row:
    Stored + AsRef<[Param]> + Ord + Clone + Debug + Send + Sync + 'static
{
    /// A column index entry: the key, then the row.
    type Entry: Stored + AsRef<[Param]> + Ord + Clone + Debug + Send + Sync + 'static;

    /// The row whose column `i` is `col(i)`.
    ///
    /// # Panics
    /// Panics if `width` is not this row type's width.
    fn build(width: usize, col: impl FnMut(usize) -> Param) -> Self;

    /// This row's entry in the index of column `c`.
    fn entry(&self, c: usize) -> Self::Entry;
}

macro_rules! fixed_rows {
    ($($n:literal)*) => {$(
        impl Row for [Param; $n] {
            type Entry = [Param; $n + 1];

            #[inline]
            fn build(width: usize, col: impl FnMut(usize) -> Param) -> Self {
                assert_eq!(width, $n, "tuple arity mismatch");
                std::array::from_fn(col)
            }

            #[inline]
            fn entry(&self, c: usize) -> Self::Entry {
                std::array::from_fn(|i| if i == 0 { self[c] } else { self[i - 1] })
            }
        }
    )*};
}

fixed_rows!(0 1 2 3 4 5);

impl Row for Box<[Param]> {
    type Entry = Box<[Param]>;

    fn build(width: usize, col: impl FnMut(usize) -> Param) -> Self {
        (0..width).map(col).collect()
    }

    fn entry(&self, c: usize) -> Self::Entry {
        std::iter::once(self[c])
            .chain(self.iter().copied())
            .collect()
    }
}

/// A run set of [`Stored`] items read a run at a time: what a
/// [`crate::Matches`] walk pulls its items from, with the row type erased
/// — one dynamic call per run, none per item.
pub(crate) trait Chunks: Sync {
    /// The items from `at` on — the rest of its run at a fixed width, one
    /// boxed item otherwise — as flat parameters with their count, moving
    /// `at` past them; `None` past the last item.
    fn chunk(&self, at: &mut Cursor) -> Option<(&[Param], usize)>;
}

impl<T: Stored + Ord + Clone + Sync + Send> Chunks for RunSet<T> {
    fn chunk(&self, at: &mut Cursor) -> Option<(&[Param], usize)> {
        let items = self.run_from(*at);
        if items.is_empty() {
            return None;
        }
        let (flat, n) = T::flatten(items);
        self.skip(at, n);
        Some((flat, n))
    }
}

/// One value per row type: `W0` … `W5` hold the `[Param; 0]` …
/// `[Param; 5]` instance of something, `Wide` the boxed one (see
/// [`per_width!`]).
#[derive(Debug, Clone)]
pub(crate) enum ByWidth<A, B, C, D, E, F, G> {
    W0(A),
    W1(B),
    W2(C),
    W3(D),
    W4(E),
    W5(F),
    Wide(G),
}

/// The [`ByWidth`] of a generic type `$f` at every row type.
macro_rules! per_width {
    ($f:ident) => {
        $crate::row::ByWidth<
            $f<[::epilog_syntax::Param; 0]>,
            $f<[::epilog_syntax::Param; 1]>,
            $f<[::epilog_syntax::Param; 2]>,
            $f<[::epilog_syntax::Param; 3]>,
            $f<[::epilog_syntax::Param; 4]>,
            $f<[::epilog_syntax::Param; 5]>,
            $f<Box<[::epilog_syntax::Param]>>,
        >
    };
}

/// `$make` at the row type of `$arity`, in its [`ByWidth`] variant.
macro_rules! at_width {
    ($arity:expr, $make:expr) => {{
        use $crate::row::ByWidth as W;
        match $arity {
            0 => W::W0($make),
            1 => W::W1($make),
            2 => W::W2($make),
            3 => W::W3($make),
            4 => W::W4($make),
            5 => W::W5($make),
            _ => W::Wide($make),
        }
    }};
}

/// `$body` over the value `$x` a [`ByWidth`] holds, compiled once per row
/// type. With `map`, the result goes back into the same variant.
macro_rules! by_width {
    (map $value:expr, $x:ident => $body:expr) => {
        $crate::row::by_width!(@map $value, $x => $body; W0 W1 W2 W3 W4 W5 Wide)
    };
    (@arms $value:expr, $x:ident => $body:expr; $($v:ident)*) => {
        match $value { $($crate::row::ByWidth::$v($x) => $body,)* }
    };
    (@map $value:expr, $x:ident => $body:expr; $($v:ident)*) => {
        match $value { $($crate::row::ByWidth::$v($x) => $crate::row::ByWidth::$v($body),)* }
    };
    ($value:expr, $x:ident => $body:expr) => {
        $crate::row::by_width!(@arms $value, $x => $body; W0 W1 W2 W3 W4 W5 Wide)
    };
}

/// `$body` over the values two [`ByWidth`]s of one row type hold; a pair
/// of two row types is an arity mismatch. With `map`, the result goes
/// back into their variant.
macro_rules! by_same_width {
    (map $a:expr, $b:expr, ($x:ident, $y:ident) => $body:expr) => {
        $crate::row::by_same_width!(@map $a, $b, ($x, $y) => $body; W0 W1 W2 W3 W4 W5 Wide)
    };
    (@arms $a:expr, $b:expr, ($x:ident, $y:ident) => $body:expr; $($v:ident)*) => {
        match ($a, $b) {
            $(($crate::row::ByWidth::$v($x), $crate::row::ByWidth::$v($y)) => $body,)*
            _ => panic!("tuple arity mismatch"),
        }
    };
    (@map $a:expr, $b:expr, ($x:ident, $y:ident) => $body:expr; $($v:ident)*) => {
        match ($a, $b) {
            $(($crate::row::ByWidth::$v($x), $crate::row::ByWidth::$v($y)) => {
                $crate::row::ByWidth::$v($body)
            })*
            _ => panic!("tuple arity mismatch"),
        }
    };
    ($a:expr, $b:expr, ($x:ident, $y:ident) => $body:expr) => {
        $crate::row::by_same_width!(@arms $a, $b, ($x, $y) => $body; W0 W1 W2 W3 W4 W5 Wide)
    };
}

pub(crate) use {by_same_width, by_width, per_width};

/// Rows of one arity, held in that arity's row type: how a fixpoint
/// collects a round's heads ([`crate::ConjunctionPlan::derive_into`]
/// grounds each straight into it), sorts and deduplicates them, and hands
/// them to [`crate::Relation::insert_ascending`] — and what becomes of
/// the new ones, the round's delta — without converting a row.
#[derive(Debug, Clone)]
pub struct Rows {
    pub(crate) arity: usize,
    pub(crate) rows: per_width!(Vec),
}

impl Rows {
    /// No rows, of the given arity.
    pub fn new(arity: usize) -> Rows {
        Rows {
            arity,
            rows: at_width!(arity, Vec::new()),
        }
    }

    /// No rows, of the given arity, with room for `n` of them.
    pub fn with_capacity(arity: usize, n: usize) -> Rows {
        Rows {
            arity,
            rows: at_width!(arity, Vec::with_capacity(n)),
        }
    }

    /// The arity of every row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        by_width!(&self.rows, v => v.len())
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if its length differs from the arity.
    pub fn push(&mut self, t: &[Param]) {
        self.extend([t]);
    }

    /// Sort the rows ascending (lexicographically by parameter) and drop
    /// repeats: the batch [`crate::Relation::insert_ascending`] takes.
    pub fn sort_and_dedup(&mut self) {
        by_width!(&mut self.rows, v => {
            v.sort_unstable();
            v.dedup();
        });
    }
}

impl<'a> Extend<&'a [Param]> for Rows {
    /// Append rows, each converted to the row type.
    ///
    /// # Panics
    /// Panics if a row's length differs from the arity.
    fn extend<I: IntoIterator<Item = &'a [Param]>>(&mut self, rows: I) {
        let arity = self.arity;
        by_width!(&mut self.rows, v => {
            for t in rows {
                assert_eq!(t.len(), arity, "tuple arity mismatch");
                v.push(Row::build(arity, |c| t[c]));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn a_row_is_its_parameters_and_an_entry_one_more() {
        assert_eq!(size_of::<[Param; 1]>(), 4);
        assert_eq!(size_of::<[Param; 2]>(), 8);
        assert_eq!(size_of::<<[Param; 2] as Row>::Entry>(), 12);
        assert_eq!(size_of::<[Param; 5]>(), 20);
        assert_eq!(size_of::<<[Param; 0] as Row>::Entry>(), 4);
    }

    #[test]
    fn an_entry_is_the_key_then_the_row() {
        let [a, b, c] = ["ra", "rb", "rc"].map(Param::new);
        assert_eq!([a, b, c].entry(2), [c, a, b, c]);
        let wide: Box<[Param]> = vec![a, b, c, a, b, c].into();
        assert_eq!(&*wide.entry(1), &[b, a, b, c, a, b, c]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn a_fixed_row_has_its_width() {
        <[Param; 2]>::build(3, |_| Param::new("ra"));
    }

    #[test]
    fn rows_sort_and_dedup_in_their_row_type() {
        let [a, b] = ["ra", "rb"].map(Param::new);
        for arity in [0, 1, 2, 5, 6] {
            let mut rows = Rows::new(arity);
            for p in [b, a, b] {
                rows.push(&vec![p; arity]);
            }
            rows.sort_and_dedup();
            assert_eq!(rows.len(), if arity == 0 { 1 } else { 2 });
            assert_eq!(rows.arity(), arity);
        }
        assert!(Rows::new(3).is_empty());
    }
}
