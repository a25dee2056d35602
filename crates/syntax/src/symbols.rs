//! Interned symbols: predicates, parameters, and variables.
//!
//! FOPCE distinguishes three symbol kinds. *Parameters* play the role of
//! constants but carry a nonstandard semantics: they are pairwise distinct
//! and jointly constitute the universal domain of discourse (the logic bakes
//! in unique-names and domain-closure over the parameters, §2 of the paper).
//!
//! All three kinds are interned in a process-global table so that ids are
//! cheap `u32` handles that can be copied, hashed and compared without
//! touching the string heap.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

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
    names: Vec<String>,
    /// One id map per [`Space`], keyed by owned name but **queried by
    /// `&str`** (via `Borrow<str>`), so the hot lookup-hit path allocates
    /// nothing.
    ids: [HashMap<String, u32>; 3],
}

impl Interner {
    fn intern(&mut self, space: Space, name: &str) -> u32 {
        let map = &mut self.ids[space as usize];
        if let Some(&id) = map.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("symbol table overflow");
        self.names.push(name.to_owned());
        map.insert(name.to_owned(), id);
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
/// occurrence — is answered under the read lock; only a new name takes
/// the write lock, and [`Interner::intern`] looks again under it.
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
    fn display_forms() {
        assert_eq!(Pred::new("Teach", 2).to_string(), "Teach");
        assert_eq!(format!("{:?}", Pred::new("Teach", 2)), "Teach/2");
        assert_eq!(format!("{:?}", Var::new("x")), "?x");
    }
}
