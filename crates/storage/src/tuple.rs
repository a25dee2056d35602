//! Stored tuples: a `[Param]` held by value.

use epilog_syntax::Param;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Longest tuple held inline; a longer one spills to one boxed slice.
const INLINE_CAP: usize = 5;

/// A stored tuple: a fixed-arity sequence of parameters. It derefs to
/// `[Param]` and is ordered, compared, hashed and printed exactly as that
/// slice is — a `Vec<Param>` in everything but where it keeps its items:
/// up to five parameters (every predicate of every workload here) live
/// inside the 24-byte value itself, so building one, cloning one and
/// comparing two touch no heap, and a run of tuples is one buffer.
#[derive(Clone)]
pub struct Tuple(Repr);

#[derive(Clone)]
enum Repr {
    /// `items[..len]` with `len ≥ 1`; the rest repeats `items[0]`.
    Inline { len: u8, items: [Param; INLINE_CAP] },
    /// A longer tuple — or the empty one: a boxed `[]` owns no memory.
    Spilled(Box<[Param]>),
}

impl Deref for Tuple {
    type Target = [Param];

    #[inline]
    fn deref(&self) -> &[Param] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Spilled(items) => items,
        }
    }
}

impl From<Vec<Param>> for Tuple {
    fn from(items: Vec<Param>) -> Tuple {
        items.into_iter().collect()
    }
}

impl FromIterator<Param> for Tuple {
    fn from_iter<I: IntoIterator<Item = Param>>(iter: I) -> Tuple {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Tuple(Repr::Spilled(Box::default()));
        };
        let mut items = [first; INLINE_CAP];
        let mut len = 1u8;
        while let Some(p) = iter.next() {
            if usize::from(len) == INLINE_CAP {
                let spilled = items.into_iter().chain([p]).chain(iter);
                return Tuple(Repr::Spilled(spilled.collect()));
            }
            items[usize::from(len)] = p;
            len += 1;
        }
        Tuple(Repr::Inline { len, items })
    }
}

impl Borrow<[Param]> for Tuple {
    fn borrow(&self) -> &[Param] {
        self
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        **self == **other
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    /// Slice order. Two inline tuples are compared slot by slot on their
    /// common length, then by length, without building either slice.
    #[inline]
    fn cmp(&self, other: &Tuple) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, items: x }, Repr::Inline { len: b, items: y }) => {
                let n = usize::from(*a.min(b));
                for (p, q) in x.iter().zip(y).take(n) {
                    match p.cmp(q) {
                        Ordering::Equal => {}
                        unequal => return unequal,
                    }
                }
                a.cmp(b)
            }
            _ => (**self).cmp(&**other),
        }
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn params(ids: &[u8]) -> Vec<Param> {
        ids.iter().map(|i| Param::new(&format!("tp{i}"))).collect()
    }

    fn hash_of(x: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_tuple_is_three_words() {
        assert!(std::mem::size_of::<Tuple>() <= 24);
        const { assert!(INLINE_CAP >= 4) };
    }

    /// Arities 0, 1, the inline cap and one past it, and a few others.
    fn ids() -> impl Strategy<Value = Vec<u8>> {
        (0usize..8, proptest::collection::vec(0u8..4, 8..9)).prop_map(|(pick, mut ids)| {
            ids.truncate([0, 1, INLINE_CAP, INLINE_CAP + 1, 2, 3, 4, 8][pick]);
            ids
        })
    }

    proptest! {
        /// `Tuple` against the `Vec<Param>` it replaced, through every
        /// constructor: same items, order, equality, hash and printout.
        #[test]
        fn tuple_is_its_vec(a in ids(), b in ids()) {
            let (va, vb) = (params(&a), params(&b));
            let (ta, tb): (Tuple, Tuple) = (va.clone().into(), vb.iter().copied().collect());
            prop_assert_eq!(&*ta, va.as_slice());
            prop_assert!(ta.iter().eq(va.iter()));
            prop_assert_eq!(ta.len(), va.len());
            prop_assert_eq!(ta.cmp(&tb), va.cmp(&vb));
            prop_assert_eq!(ta.partial_cmp(&tb), va.partial_cmp(&vb));
            prop_assert_eq!(ta == tb, va == vb);
            prop_assert_eq!(hash_of(&ta), hash_of(&va));
            prop_assert_eq!(hash_of(&ta), hash_of(&va.as_slice()));
            prop_assert_eq!(format!("{ta:?}"), format!("{va:?}"));
            prop_assert_eq!(ta.clone(), ta);
        }
    }
}
