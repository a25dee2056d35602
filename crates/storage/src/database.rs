//! A database: a catalog of relations keyed by predicate.

use crate::relation::{Matches, Relation};
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
        assert!(atom.is_ground(), "Database::insert requires a ground atom");
        self.relation_mut(atom.pred).insert_with(|c| param(atom, c))
    }

    /// Remove a ground atom; returns `true` if it was present.
    pub fn remove(&mut self, atom: &Atom) -> bool {
        let t = atom
            .param_tuple()
            .expect("Database::remove requires a ground atom");
        self.remove_tuple(atom.pred, &t)
    }

    /// Remove a tuple directly under a predicate; returns `true` if it
    /// was present. Any column indexes are maintained incrementally.
    pub fn remove_tuple(&mut self, pred: Pred, t: &[Param]) -> bool {
        self.relations.get_mut(&pred).is_some_and(|r| r.remove(t))
    }

    /// Whether a ground atom is present.
    pub fn contains(&self, atom: &Atom) -> bool {
        atom.is_ground()
            && self
                .relations
                .get(&atom.pred)
                .is_some_and(|r| r.contains_with(|c| param(atom, c)))
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

    /// The bytes every relation's rows and built index entries take
    /// inside their runs ([`Relation::stored_bytes`]).
    pub fn stored_bytes(&self) -> usize {
        self.relations.values().map(Relation::stored_bytes).sum()
    }
}

/// Column `c` of a ground atom.
fn param(atom: &Atom, c: usize) -> Param {
    atom.terms[c].as_param().expect("a ground atom")
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
    fn remove_tuple_reports_presence() {
        let mut a = Database::new();
        a.insert(&ga("p(a)"));
        let t = vec![Param::new("a")];
        assert!(a.remove_tuple(Pred::new("p", 1), &t));
        assert!(!a.remove_tuple(Pred::new("p", 1), &t));
        assert!(!a.remove_tuple(Pred::new("missing", 1), &t));
    }

    #[test]
    fn params_across_relations() {
        let mut db = Database::new();
        db.insert(&ga("p(a)"));
        db.insert(&ga("q(b, c)"));
        assert_eq!(db.params().len(), 3);
    }

    /// An edit drawn at random: a predicate by index into [`PREDS`], six
    /// column values (an atom keeps its arity's first), insert or remove.
    type Edit = (usize, Vec<u8>, bool);

    /// A predicate of each row width: the empty row, the unary and binary
    /// rows every workload stores, the widest fixed row, a boxed one.
    const PREDS: [(&str, usize); 5] = [("d0", 0), ("d1", 1), ("d2", 2), ("d5", 5), ("d6", 6)];

    fn edit_atom((pred, values, _): &Edit) -> (Pred, Vec<Param>) {
        let (name, arity) = PREDS[*pred];
        let t = values[..arity].iter().map(|v| Param::new(&format!("x{v}")));
        (Pred::new(name, arity), t.collect())
    }

    /// `edits` applied to an empty database and to the set of atoms that
    /// models it, emptied relations pruned.
    fn apply(edits: &[Edit]) -> (Database, BTreeSet<(Pred, Vec<Param>)>) {
        let (mut db, mut model) = (Database::new(), BTreeSet::new());
        for e in edits {
            let (pred, t) = edit_atom(e);
            if e.2 {
                assert_eq!(db.relation_mut(pred).insert(&t), model.insert((pred, t)));
            } else {
                assert_eq!(db.remove_tuple(pred, &t), model.remove(&(pred, t)));
            }
        }
        db.prune_empty();
        (db, model)
    }

    fn edits() -> impl proptest::strategy::Strategy<Value = Vec<Edit>> {
        use proptest::strategy::Strategy;
        let insert = (0u8..3).prop_map(|i| i > 0);
        let edit = (0usize..5, proptest::collection::vec(0u8..3, 6..7), insert);
        proptest::collection::vec(edit, 0..60)
    }

    proptest::proptest! {
        /// A database over predicates of every row width against the set
        /// of atoms it models: its atoms iterate by predicate, then
        /// lexicographically by parameter id, as the set does; its size
        /// and membership are the set's; two databases are equal exactly
        /// when their sets are, and one rebuilt from its atoms in reverse
        /// order equals it.
        #[test]
        fn a_database_is_its_set_of_atoms(a in edits(), b in edits()) {
            let (x, model_x) = apply(&a);
            let (y, model_y) = apply(&b);
            let atoms: Vec<(Pred, Vec<Param>)> = x
                .atoms()
                .map(|atom| (atom.pred, atom.param_tuple().unwrap()))
                .collect();
            proptest::prop_assert!(atoms.iter().eq(model_x.iter()));
            proptest::prop_assert_eq!(x.len(), model_x.len());
            for (pred, t) in model_y.iter() {
                proptest::prop_assert_eq!(x.contains_tuple(*pred, t), model_x.contains(&(*pred, t.clone())));
            }
            proptest::prop_assert_eq!(x == y, model_x == model_y);
            let mut rebuilt = Database::new();
            for (pred, t) in atoms.iter().rev() {
                rebuilt.relation_mut(*pred).insert(t);
            }
            proptest::prop_assert!(rebuilt == x);
        }
    }

    #[test]
    fn zero_ary_atoms() {
        let mut db = Database::new();
        assert!(db.insert(&ga("raining")));
        assert!(db.contains(&ga("raining")));
        assert_eq!(db.len(), 1);
    }
}
