//! Interned symbols: predicates, parameters, and variables.
//!
//! FOPCE distinguishes three symbol kinds. *Parameters* play the role of
//! constants but carry a nonstandard semantics: they are pairwise distinct
//! and jointly constitute the universal domain of discourse (the logic bakes
//! in unique-names and domain-closure over the parameters, §2 of the paper).
//!
//! All three kinds are interned in a process-global table so that ids are
//! cheap `u32` handles that can be copied, hashed and compared without
//! touching the string heap. The table stores each name once, as an
//! `Arc<str>` that its list of names and its map share.
//!
//! # The seeded hasher
//!
//! The table's maps, [`Theory`](crate::Theory)'s sentence index and a
//! transaction's op lists hash with [`FoldHasher`]: each write — a
//! number, or a string's bytes two words at a time — is mixed in by one
//! 64 × 64 → 128-bit multiply under the map's key, whose halves are
//! folded together with XOR. On the short keys those maps hold (a name,
//! a formula's ids) that is two to three times cheaper than `std`'s
//! SipHash, and every fact a log, a snapshot or a request carries is
//! hashed at least once.
//!
//! It is **seeded**: each map draws its own key from `std`'s
//! [`RandomState`] when it is made ([`FoldState::default`]). Names and
//! sentences arrive off the socket, so a fixed key would let a client
//! compute colliding keys offline and flood one bucket of a map the
//! server keeps (hash flooding); with a key per map nobody outside the
//! process knows which keys collide. The mixing is not a keyed PRF as
//! SipHash is: the key is what keeps collisions out of a client's reach.
//! None of these maps is iterated, so the key never shows in any
//! output.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock, RwLock};

/// Builds [`FoldHasher`]s under one random key, drawn from `std`'s
/// [`RandomState`] when the map is made (see the module docs). A clone
/// keeps the key, as the table it hashes for is laid out under it.
#[derive(Clone, Debug)]
pub struct FoldState {
    key: [u64; 2],
}

impl Default for FoldState {
    /// A fresh key: every `RandomState` the process makes hashes
    /// differently, so two maps never share one.
    fn default() -> Self {
        let random = RandomState::new();
        FoldState {
            key: [random.hash_one(0u64), random.hash_one(1u64)],
        }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.key[0],
            key: self.key[1],
        }
    }
}

/// The folded-multiply hasher (see the module docs): each write is mixed
/// into the accumulator by one multiply under the map's key.
#[derive(Clone, Debug)]
pub struct FoldHasher {
    acc: u64,
    key: u64,
}

/// The 64 × 64 → 128-bit product of `a` and `b`, its halves folded
/// together.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The `N` bytes of `bytes` from `at`, as a little-endian number.
#[inline]
fn read<const N: usize>(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0; 8];
    word[..N].copy_from_slice(&bytes[at..at + N]);
    u64::from_le_bytes(word)
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        // The length first, as a word of its own: strings of different
        // lengths then collide only as the key makes them. Of one length,
        // the two words read from a short string's ends cover all of it
        // (they overlap below 16 bytes); a long one is read 16 bytes at
        // a time from the front, then its last 16.
        self.write_u64(len as u64);
        let (lo, hi) = match len {
            0 => (0, 0),
            1..=3 => (
                read::<1>(bytes, 0) | read::<1>(bytes, len / 2) << 8,
                read::<1>(bytes, len - 1),
            ),
            4..=7 => (read::<4>(bytes, 0), read::<4>(bytes, len - 4)),
            8..=16 => (read::<8>(bytes, 0), read::<8>(bytes, len - 8)),
            _ => {
                let mut chunks = bytes[..len - 1].chunks_exact(16);
                for chunk in &mut chunks {
                    self.acc = folded_multiply(
                        self.acc ^ read::<8>(chunk, 0),
                        self.key ^ read::<8>(chunk, 8),
                    );
                }
                (read::<8>(bytes, len - 16), read::<8>(bytes, len - 8))
            }
        };
        self.acc = folded_multiply(self.acc ^ lo, self.key ^ hi);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.acc = folded_multiply(self.acc ^ x, self.key);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc.rotate_left(23)
    }
}

/// Which namespace a symbol lives in. Predicates, parameters and variables
/// are interned in separate namespaces, so `p` the proposition and `p` the
/// parameter do not collide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Space {
    Pred,
    Param,
    Var,
}

#[derive(Default)]
struct Interner {
    /// Every name, at its id; the maps' keys are these same `Arc`s.
    names: Vec<Arc<str>>,
    /// One id map per [`Space`], queried by `&str` (via `Borrow<str>`),
    /// so a hit allocates nothing and hashes the name once.
    ids: [HashMap<Arc<str>, u32, FoldState>; 3],
}

impl Interner {
    fn intern(&mut self, space: Space, name: &str) -> u32 {
        if let Some(id) = self.get(space, name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("symbol table overflow");
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.ids[space as usize].insert(name, id);
        id
    }

    fn get(&self, space: Space, name: &str) -> Option<u32> {
        self.ids[space as usize].get(name).copied()
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(Interner::default()))
}

/// A hit — every symbol of a log or snapshot line after its first
/// occurrence — is answered under the read lock with one hash of the
/// name; only a new name takes the write lock, and [`Interner::intern`]
/// looks again under it.
fn intern(space: Space, name: &str) -> u32 {
    let hit = table()
        .read()
        .expect("symbol table poisoned")
        .get(space, name);
    hit.unwrap_or_else(|| {
        table()
            .write()
            .expect("symbol table poisoned")
            .intern(space, name)
    })
}

/// Run `f` on the name behind `id`, borrowed from the table. `f` must not
/// touch the table: the read lock is held while it runs.
fn with_name<R>(id: u32, f: impl FnOnce(&str) -> R) -> R {
    f(table().read().expect("symbol table poisoned").name(id))
}

fn resolve(id: u32) -> String {
    with_name(id, str::to_owned)
}

/// A predicate symbol together with its arity.
///
/// Arity is part of the identity: `p/0` (a proposition) and `p/2` are
/// distinct predicates and may coexist.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred {
    id: u32,
    arity: u8,
}

impl Pred {
    /// The most argument positions a predicate has.
    pub const MAX_ARITY: usize = u8::MAX as usize;

    /// Intern a predicate symbol of the given arity.
    ///
    /// # Panics
    /// Panics if `arity` exceeds [`Pred::MAX_ARITY`]; the parser refuses
    /// such an atom first.
    pub fn new(name: &str, arity: usize) -> Self {
        let arity = u8::try_from(arity).expect("predicate arity > 255 unsupported");
        Pred {
            id: intern(Space::Pred, name),
            arity,
        }
    }

    /// The predicate's name.
    pub fn name(&self) -> String {
        resolve(self.id)
    }

    /// The number of argument positions.
    pub fn arity(&self) -> usize {
        self.arity as usize
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        with_name(self.id, |name| f.write_str(name))
    }
}

impl fmt::Debug for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}/{}", self.arity)
    }
}

/// A parameter: one of the countably many pairwise-distinct individuals
/// that make up FOPCE's universal domain of discourse.
///
/// Parameters identify the *known individuals* of a database. The logic's
/// semantics treats distinct parameters as denoting distinct individuals
/// (unique names) and the parameters as exhausting the domain (domain
/// closure) — see §2 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Param(u32);

impl Param {
    /// Intern a parameter by name.
    pub fn new(name: &str) -> Self {
        Param(intern(Space::Param, name))
    }

    /// Create a fresh parameter guaranteed distinct from every parameter
    /// interned so far, for use as an anonymous witness ("labelled null").
    ///
    /// The name is derived from `hint` and a global counter.
    pub fn fresh(hint: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let name = format!("{hint}#{n}");
            // A user could in principle have interned this exact name; skip
            // collisions so freshness is real, not probabilistic.
            let guard = table().read().expect("symbol table poisoned");
            let exists = guard.get(Space::Param, &name).is_some();
            drop(guard);
            if !exists {
                return Param::new(&name);
            }
        }
    }

    /// The parameter's name.
    pub fn name(&self) -> String {
        resolve(self.0)
    }

    /// The parameter's position in the process's symbol table: distinct
    /// parameters have distinct ordinals, below the number of symbols
    /// interned so far, so a bitset over them has one bit per name.
    /// Parameters order as their ordinals do.
    pub fn ordinal(self) -> usize {
        self.0 as usize
    }

    /// Whether this parameter was manufactured by [`Param::fresh`].
    pub fn is_fresh(&self) -> bool {
        with_name(self.0, |name| name.contains('#'))
    }

    /// Whether the parameter and the variable are spelled alike, so that
    /// a quantifier binding `v` would capture the printed parameter.
    pub(crate) fn is_spelled_like(&self, v: Var) -> bool {
        let table = table().read().expect("symbol table poisoned");
        table.name(self.0) == table.name(v.0)
    }

    /// Print the name, `$`-escaped if it is spelled like a variable (see
    /// [`Term`](crate::Term)'s `Display`) or `shadowed` by a binder.
    pub(crate) fn fmt_escaped(&self, shadowed: bool, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        with_name(self.0, |name| {
            if shadowed || crate::parse::is_conventional_var(name) {
                f.write_str("$")?;
            }
            f.write_str(name)
        })
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        with_name(self.0, |name| f.write_str(name))
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A variable symbol, ranging (under quantification) over the parameters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Intern a variable by name.
    pub fn new(name: &str) -> Self {
        Var(intern(Space::Var, name))
    }

    /// Create a fresh variable distinct from every variable interned so far
    /// (used when renaming apart during transformations).
    pub fn fresh(hint: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let name = format!("{hint}'{n}");
            let guard = table().read().expect("symbol table poisoned");
            let exists = guard.get(Space::Var, &name).is_some();
            drop(guard);
            if !exists {
                return Var::new(&name);
            }
        }
    }

    /// The variable's name.
    pub fn name(&self) -> String {
        resolve(self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        with_name(self.0, |name| f.write_str(name))
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Param::new("John");
        let b = Param::new("John");
        assert_eq!(a, b);
        assert_eq!(a.name(), "John");
    }

    #[test]
    fn namespaces_are_disjoint() {
        let p = Param::new("p");
        let v = Var::new("p");
        // Different types, but also different underlying identities: the
        // name round-trips independently.
        assert_eq!(p.name(), "p");
        assert_eq!(v.name(), "p");
    }

    #[test]
    fn pred_arity_is_identity() {
        let p0 = Pred::new("p", 0);
        let p2 = Pred::new("p", 2);
        assert_ne!(p0, p2);
        assert_eq!(p0.arity(), 0);
        assert_eq!(p2.arity(), 2);
    }

    #[test]
    fn fresh_params_are_distinct() {
        let a = Param::fresh("w");
        let b = Param::fresh("w");
        assert_ne!(a, b);
        assert!(a.is_fresh());
        assert!(!Param::new("John").is_fresh());
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let a = Var::fresh("x");
        let b = Var::fresh("x");
        assert_ne!(a, b);
    }

    #[test]
    fn two_maps_hash_under_different_keys() {
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_ne!(a.key, b.key);
        // Each key hashes alike wherever it is used, and the two differ.
        for key in ["", "a", "sue", "s0n1", "a longer name than sixteen bytes"] {
            assert_eq!(a.hash_one(key), a.clone().hash_one(key));
            assert_ne!(a.hash_one(key), b.hash_one(key), "{key:?}");
        }
        // Lengths tell apart what zero padding would not.
        assert_ne!(
            a.hash_one([0u8; 3].as_slice()),
            a.hash_one([0u8; 4].as_slice())
        );
    }

    #[test]
    fn ids_are_handed_out_in_first_sight_order_per_space() {
        // Names no other test interns, seen once each in order: every
        // one gets an id above the one before, and reads back.
        let names: Vec<String> = (0..50).map(|i| format!("first-sight-{i}")).collect();
        let params: Vec<Param> = names.iter().map(|n| Param::new(n)).collect();
        assert!(params.windows(2).all(|w| w[0].ordinal() < w[1].ordinal()));
        let vars: Vec<Var> = names.iter().map(|n| Var::new(n)).collect();
        let preds: Vec<Pred> = names.iter().map(|n| Pred::new(n, 1)).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(params[i].name(), *name);
            assert_eq!(vars[i].name(), *name);
            assert_eq!(preds[i].name(), *name);
            // A name seen again keeps its id, in its space.
            assert_eq!(Param::new(name), params[i]);
            assert_eq!(Var::new(name), vars[i]);
            assert_eq!(Pred::new(name, 1), preds[i]);
            // The three spaces do not share ids: the later spaces' first
            // sights came after every parameter's.
            assert!(vars[i].0 > params[names.len() - 1].0);
            assert!(preds[i].id > vars[names.len() - 1].0);
        }
    }

    #[test]
    fn threads_interning_one_name_set_agree_on_each_id() {
        let names: Vec<String> = (0..200).map(|i| format!("raced-{}", i % 150)).collect();
        let ids: Vec<Vec<(u32, u32, u32)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let names = &names;
                    s.spawn(move || {
                        // Each thread walks the set from its own start.
                        (0..names.len())
                            .map(|i| {
                                let name = &names[(i + 50 * t) % names.len()];
                                (Param::new(name).0, Var::new(name).0, Pred::new(name, 2).id)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut seen = std::collections::HashMap::new();
        for (t, got) in ids.iter().enumerate() {
            for (i, &id) in got.iter().enumerate() {
                let name = &names[(i + 50 * t) % names.len()];
                assert_eq!(*seen.entry(name).or_insert(id), id, "{name}");
                assert_eq!(Param(id.0).name(), *name);
                assert_eq!(Var(id.1).name(), *name);
            }
        }
        let distinct: std::collections::HashSet<u32> =
            seen.values().flat_map(|&(p, v, q)| [p, v, q]).collect();
        assert_eq!(distinct.len(), 3 * 150, "one id per (space, name)");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Pred::new("Teach", 2).to_string(), "Teach");
        assert_eq!(format!("{:?}", Pred::new("Teach", 2)), "Teach/2");
        assert_eq!(format!("{:?}", Var::new("x")), "?x");
    }
}
