//! A database: a catalog of relations keyed by predicate.

use crate::relation::{Matches, Relation};
use crate::Tuple;
use epilog_syntax::formula::Atom;
use epilog_syntax::{Param, Pred, Term};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// A set of ground atoms organised as one [`Relation`] per predicate.
///
/// This is simultaneously the storage behind the Datalog engine's
/// extensional/intensional databases and the representation of a *world*
/// (a set of true atomic sentences, §2 of the paper) in `epilog-semantics`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Database {
    relations: BTreeMap<Pred, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Insert a ground atom; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the atom is not ground.
    pub fn insert(&mut self, atom: &Atom) -> bool {
        let t = ground(atom).expect("Database::insert requires a ground atom");
        self.insert_tuple(atom.pred, t)
    }

    /// Insert a tuple directly under a predicate.
    pub(crate) fn insert_tuple(&mut self, pred: Pred, t: Tuple) -> bool {
        self.relations
            .entry(pred)
            .or_insert_with(|| Relation::new(pred.arity()))
            .insert(t)
    }

    /// Remove a ground atom; returns `true` if it was present.
    pub fn remove(&mut self, atom: &Atom) -> bool {
        let t = ground(atom).expect("Database::remove requires a ground atom");
        self.remove_tuple(atom.pred, &t)
    }

    /// Remove a tuple directly under a predicate; returns `true` if it
    /// was present. Any column indexes are maintained incrementally.
    pub fn remove_tuple(&mut self, pred: Pred, t: &[Param]) -> bool {
        self.relations.get_mut(&pred).is_some_and(|r| r.remove(t))
    }

    /// Whether a ground atom is present.
    pub fn contains(&self, atom: &Atom) -> bool {
        ground(atom).is_some_and(|t| self.contains_tuple(atom.pred, &t))
    }

    /// Whether a tuple is present under a predicate.
    pub fn contains_tuple(&self, pred: Pred, t: &[Param]) -> bool {
        self.relations.get(&pred).is_some_and(|r| r.contains(t))
    }

    /// The relation stored under `pred`, if any.
    pub fn relation(&self, pred: Pred) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// Mutable access, creating an empty relation if absent.
    pub fn relation_mut(&mut self, pred: Pred) -> &mut Relation {
        self.relations
            .entry(pred)
            .or_insert_with(|| Relation::new(pred.arity()))
    }

    /// The predicates with at least one stored relation (possibly empty).
    pub fn preds(&self) -> Vec<Pred> {
        self.relations.keys().copied().collect()
    }

    /// Iterate over the stored relations, keyed by predicate, in
    /// deterministic order.
    pub fn relations(&self) -> impl Iterator<Item = (Pred, &Relation)> + '_ {
        self.relations.iter().map(|(p, r)| (*p, r))
    }

    /// Total number of stored atoms.
    pub fn len(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Whether no atoms are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over all stored atoms in deterministic order.
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        self.relations.iter().flat_map(|(pred, rel)| {
            rel.iter()
                .map(move |t| Atom::new(*pred, t.iter().map(|p| Term::Param(*p)).collect()))
        })
    }

    /// All tuples of `pred` matching a partial binding pattern, as a
    /// borrowing iterator: [`Relation::select`], which probes the first
    /// bound column (building that column's index on its first probe).
    pub fn select<'a>(
        &'a self,
        pred: Pred,
        pattern: impl Into<Cow<'a, [Option<Param>]>>,
    ) -> Matches<'a> {
        self.relations
            .get(&pred)
            .map(|r| r.select(pattern))
            .unwrap_or_else(Matches::empty)
    }

    /// Drop relations holding no tuples. Removals can empty a relation
    /// and leave its entry behind; semantically a database is a set of
    /// atoms, and derived equality / [`Database::preds`] compare the
    /// catalog, so a producer that removed tuples prunes before
    /// publishing a result.
    pub fn prune_empty(&mut self) {
        self.relations.retain(|_, r| !r.is_empty());
    }

    /// Every parameter stored anywhere.
    pub fn params(&self) -> BTreeSet<Param> {
        self.relations.values().flat_map(Relation::params).collect()
    }

    /// The set difference `self ∖ other` as a fresh database: every
    /// tuple stored here that `other` does not contain.
    ///
    /// Cost: per relation, a merge walk over the two run lists that
    /// skips every run both sides share by pointer comparison. When one
    /// database is a clone of the other a few edits on — the old and new
    /// model of a commit — that is `O(runs + touched runs × run length)`,
    /// the exact model delta of a retraction without one look-up per
    /// stored tuple. Unrelated databases cost one comparison per tuple.
    /// The walk yields each relation's survivors in order, so they are
    /// cut into full runs (`Relation::from_ascending`) without a search.
    pub fn difference(&self, other: &Database) -> Database {
        let mut out = Database::new();
        for (pred, rel) in &self.relations {
            let left = match other.relations.get(pred) {
                Some(theirs) => rel.difference(theirs),
                None => rel.iter().collect(),
            };
            if !left.is_empty() {
                let left = left.into_iter().cloned().collect();
                out.relations
                    .insert(*pred, Relation::from_ascending(rel.arity(), left));
            }
        }
        out
    }

    /// Whether `self ⊆ other` as sets of atoms.
    pub fn subset_of(&self, other: &Database) -> bool {
        self.relations.iter().all(|(pred, rel)| {
            rel.iter()
                .all(|t| other.relations.get(pred).is_some_and(|o| o.contains(t)))
        })
    }
}

/// If ground, the atom's parameter tuple — [`Atom::param_tuple`] without
/// the `Vec`.
fn ground(atom: &Atom) -> Option<Tuple> {
    atom.terms.iter().map(Term::as_param).collect()
}

impl FromIterator<Atom> for Database {
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Self {
        let mut db = Database::new();
        for a in iter {
            db.insert(&a);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;
    use proptest::prelude::*;

    fn ga(src: &str) -> Atom {
        match parse(src).unwrap() {
            epilog_syntax::Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        }
    }

    #[test]
    fn insert_contains_remove() {
        let mut db = Database::new();
        assert!(db.insert(&ga("Teach(John, Math)")));
        assert!(!db.insert(&ga("Teach(John, Math)")));
        assert!(db.contains(&ga("Teach(John, Math)")));
        assert!(!db.contains(&ga("Teach(John, CS)")));
        assert!(db.remove(&ga("Teach(John, Math)")));
        assert!(db.is_empty());
    }

    #[test]
    fn atoms_round_trip() {
        let mut db = Database::new();
        db.insert(&ga("p(a)"));
        db.insert(&ga("q(a, b)"));
        db.insert(&ga("r"));
        let all: Vec<Atom> = db.atoms().collect();
        assert_eq!(all.len(), 3);
        let db2: Database = all.into_iter().collect();
        assert_eq!(db, db2);
    }

    #[test]
    fn select_by_pattern() {
        let mut db = Database::new();
        db.insert(&ga("e(a, b)"));
        db.insert(&ga("e(a, c)"));
        db.insert(&ga("e(b, c)"));
        let pred = Pred::new("e", 2);
        let pattern = vec![Some(Param::new("a")), None];
        assert_eq!(db.select(pred, &pattern).count(), 2);
        let probe = vec![None, Some(Param::new("c"))];
        assert_eq!(db.select(pred, &probe).count(), 2);
        let missing = vec![None];
        assert_eq!(db.select(Pred::new("missing", 1), &missing).count(), 0);
    }

    #[test]
    fn subset() {
        let mut small = Database::new();
        small.insert(&ga("p(a)"));
        let mut big = small.clone();
        big.insert(&ga("p(b)"));
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
        small.insert(&ga("p(b)"));
        assert!(big.subset_of(&small));
    }

    #[test]
    fn difference_and_remove_tuple() {
        let mut a = Database::new();
        a.insert(&ga("p(a)"));
        a.insert(&ga("p(b)"));
        a.insert(&ga("q(a, b)"));
        let mut b = Database::new();
        b.insert(&ga("p(b)"));
        let diff = a.difference(&b);
        assert_eq!(diff.len(), 2);
        assert!(diff.contains(&ga("p(a)")));
        assert!(diff.contains(&ga("q(a, b)")));
        assert!(!diff.contains(&ga("p(b)")));
        let t = vec![Param::new("a")];
        assert!(a.remove_tuple(Pred::new("p", 1), &t));
        assert!(!a.remove_tuple(Pred::new("p", 1), &t));
        assert!(!a.remove_tuple(Pred::new("missing", 1), &t));
    }

    /// `a ∖ b` by the definition: one look-up in `b` per tuple of `a`.
    fn naive_difference(a: &Database, b: &Database) -> Database {
        let mut out = Database::new();
        for (pred, rel) in a.relations() {
            for t in rel.iter().filter(|t| !b.contains_tuple(pred, t)) {
                out.insert_tuple(pred, t.clone());
            }
        }
        out
    }

    type Edit = (bool, u8, u16, u16);

    fn apply(db: &mut Database, edits: &[Edit]) {
        for &(insert, pred, a, b) in edits {
            let pred = Pred::new(["dp", "dq", "dr"][pred as usize], 2);
            let t = Tuple::from(vec![
                Param::new(&format!("d{a}")),
                Param::new(&format!("d{b}")),
            ]);
            if insert {
                db.insert_tuple(pred, t);
            } else {
                db.remove_tuple(pred, &t);
            }
        }
    }

    proptest! {
        /// The run-walking difference equals the per-tuple definition,
        /// on databases that share runs (clones of one base a few edits
        /// apart, the commit shape) and on ones that share nothing.
        #[test]
        fn difference_matches_the_per_tuple_definition(
            base in proptest::collection::vec((Just(true), 0u8..2, 0u16..60, 0u16..60), 0..1500),
            left in proptest::collection::vec((any_bool(), 0u8..3, 0u16..60, 0u16..60), 0..30),
            right in proptest::collection::vec((any_bool(), 0u8..3, 0u16..60, 0u16..60), 0..30),
            other in proptest::collection::vec((Just(true), 0u8..3, 0u16..60, 0u16..60), 0..300),
        ) {
            let mut shared = Database::new();
            apply(&mut shared, &base);
            let (mut a, mut b) = (shared.clone(), shared.clone());
            apply(&mut a, &left);
            apply(&mut b, &right);
            let mut unrelated = Database::new();
            apply(&mut unrelated, &other);
            let all = [shared, a, b, unrelated, Database::new()];
            for x in &all {
                for y in &all {
                    prop_assert_eq!(x.difference(y), naive_difference(x, y));
                }
            }
        }
    }

    fn any_bool() -> impl Strategy<Value = bool> {
        (0u8..2).prop_map(|b| b == 1)
    }

    #[test]
    fn params_across_relations() {
        let mut db = Database::new();
        db.insert(&ga("p(a)"));
        db.insert(&ga("q(b, c)"));
        assert_eq!(db.params().len(), 3);
    }

    #[test]
    fn zero_ary_atoms() {
        let mut db = Database::new();
        assert!(db.insert(&ga("raining")));
        assert!(db.contains(&ga("raining")));
        assert_eq!(db.len(), 1);
    }
}
