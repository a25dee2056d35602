//! Delta-aware database view for semi-naive fixpoint rounds.
//!
//! Semi-naive evaluation needs two synchronized sets of facts: the
//! **total** database (everything derived so far — joined against by
//! non-delta literals) and the **delta** (only the facts that became true
//! in the previous round — the literal designated as "new" must match
//! here). [`DeltaDatabase`] owns both and keeps them consistent through
//! [`DeltaDatabase::advance`], which takes a round's candidates as one
//! ascending batch of [`Rows`] per predicate.

use crate::database::Database;
use crate::row::Rows;
use epilog_syntax::Pred;

/// A database split into the stable total and the last round's delta.
///
/// The delta starts **empty**: round 1 of a fixpoint evaluates full join
/// plans against the total, and each subsequent round's delta is installed
/// by [`DeltaDatabase::advance`].
#[derive(Debug, Clone, Default)]
pub struct DeltaDatabase {
    total: Database,
    delta: Database,
}

impl DeltaDatabase {
    /// Wrap an initial fact set; the delta starts empty.
    pub fn new(initial: Database) -> Self {
        DeltaDatabase {
            total: initial,
            delta: Database::new(),
        }
    }

    /// Resume from an existing fixpoint: `model` is a database already
    /// closed under whatever rules produced it, and `new_facts` are the
    /// facts an update wants to add. The genuinely new ones (those absent
    /// from `model`) are absorbed into the total **and** installed as the
    /// initial delta, so a semi-naive loop can continue with delta-variant
    /// plans only — no full round 1 re-deriving the old model.
    pub fn resume(model: Database, new_facts: &Database) -> Self {
        let mut ddb = DeltaDatabase::new(model);
        ddb.advance(
            new_facts
                .relations()
                .map(|(pred, rel)| (pred, rel.to_rows())),
        );
        ddb
    }

    /// Everything derived so far.
    pub fn total(&self) -> &Database {
        &self.total
    }

    /// The facts that became true in the last [`DeltaDatabase::advance`].
    pub fn delta(&self) -> &Database {
        &self.delta
    }

    /// Finish a round: add the candidates to the total, and install the
    /// ones it did not hold yet as the new delta. Returns the number of
    /// those genuinely new facts (0 means the fixpoint is reached).
    ///
    /// `candidates` holds each predicate at most once, with its rows
    /// ascending and free of duplicates (a round's heads, sorted once in
    /// their row type, [`Rows::sort_and_dedup`]). They go into the total
    /// as one batch per predicate
    /// ([`Relation::insert_ascending`](crate::Relation::insert_ascending)):
    /// each is searched for once, from where the previous one landed, and
    /// the total's own insert says whether it was new. The new ones come
    /// back ascending, in full runs, and are the delta's relation as
    /// they are. Neither half is left holding a relation without rows
    /// ([`Database`] equality sees the catalogue).
    pub fn advance(&mut self, candidates: impl IntoIterator<Item = (Pred, Rows)>) -> usize {
        let mut next = Database::new();
        for (pred, batch) in candidates {
            if batch.is_empty() {
                continue;
            }
            // A relation created here takes its first candidate at once.
            let fresh = self.total.relation_mut(pred).insert_ascending(batch);
            if !fresh.is_empty() {
                *next.relation_mut(pred) = fresh;
            }
        }
        self.delta = next;
        self.delta.len()
    }

    /// Unwrap the accumulated total.
    pub fn into_total(self) -> Database {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relation;
    use epilog_syntax::formula::Atom;
    use epilog_syntax::{parse, Param, Pred};
    use proptest::prelude::*;

    fn ga(src: &str) -> Atom {
        match parse(src).unwrap() {
            epilog_syntax::Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        }
    }

    #[test]
    fn delta_starts_empty() {
        let mut base = Database::new();
        base.insert(&ga("e(a, b)"));
        let d = DeltaDatabase::new(base);
        assert_eq!(d.total().len(), 1);
        assert!(d.delta().is_empty());
    }

    #[test]
    fn resume_seeds_only_genuinely_new_facts() {
        let mut model = Database::new();
        model.insert(&ga("e(a, b)"));
        model.insert(&ga("t(a, b)"));
        let mut new_facts = Database::new();
        new_facts.insert(&ga("e(a, b)")); // already in the model
        new_facts.insert(&ga("e(b, c)")); // genuinely new
        let d = DeltaDatabase::resume(model, &new_facts);
        assert_eq!(d.total().len(), 3);
        assert_eq!(d.delta().len(), 1);
        assert!(d.delta().contains(&ga("e(b, c)")));
    }

    /// A database's relations as the ascending batches `advance` takes.
    fn batches(db: &Database) -> Vec<(Pred, Rows)> {
        db.relations()
            .map(|(pred, rel)| (pred, rel.to_rows()))
            .collect()
    }

    #[test]
    fn advance_filters_dedups_and_installs() {
        let mut base = Database::new();
        base.insert(&ga("e(a, b)"));
        let mut d = DeltaDatabase::new(base);

        let mut round = Database::new();
        round.insert(&ga("e(a, b)")); // already known
        round.insert(&ga("t(a, b)")); // new
        assert_eq!(d.advance(batches(&round)), 1);
        assert_eq!(d.total().len(), 2);
        assert_eq!(d.delta().len(), 1);
        assert!(d.delta().contains(&ga("t(a, b)")));

        // A round deriving nothing new reaches the fixpoint.
        let mut again = Database::new();
        again.insert(&ga("t(a, b)"));
        assert_eq!(d.advance(batches(&again)), 0);
        assert!(d.delta().is_empty());
        assert_eq!(d.into_total().len(), 2);
    }

    /// [`DeltaDatabase::advance`] by its definition — filter the
    /// candidates against the total, then union the survivors in — which
    /// searched the total twice per new fact.
    fn advance_by_definition(ddb: &mut DeltaDatabase, candidates: &[(Pred, Rows)]) -> usize {
        let mut next = Database::new();
        for (pred, batch) in candidates {
            let pred = *pred;
            for t in Relation::from_ascending(batch.clone()).iter() {
                if !ddb.total.contains_tuple(pred, t) {
                    next.relation_mut(pred).insert(t);
                }
            }
        }
        let added = next.len();
        for (pred, rel) in next.relations() {
            for t in rel.iter() {
                ddb.total.relation_mut(pred).insert(t);
            }
        }
        ddb.delta = next;
        added
    }

    type Fact = (u8, u8, u8);

    fn facts(db: &mut Database, facts: &[Fact]) {
        for &(pred, a, b) in facts {
            let t = [a, b].map(|i| Param::new(&format!("v{i}")));
            db.relation_mut(Pred::new(["ap", "aq", "ar"][pred as usize], 2))
                .insert(&t);
        }
    }

    proptest! {
        /// The batch `advance` against its definition (filter by
        /// `contains`, then insert the survivors), round after round on ascending
        /// candidate vectors that overlap the total, with or without a
        /// column-1 index probed into the total beforehand, and with a
        /// candidate vector that holds nothing: same
        /// total, same delta, same count, no relation left without
        /// tuples, and every index probe and distinct count as a relation
        /// built from scratch answers.
        #[test]
        fn advance_matches_its_definition(
            base in proptest::collection::vec((0u8..2, 0u8..12, 0u8..12), 0..200),
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u8..3, 0u8..12, 0u8..12), 0..120),
                1..4,
            ),
            indexed in 0u8..2,
        ) {
            let mut initial = Database::new();
            facts(&mut initial, &base);
            if indexed == 1 {
                for (_, rel) in initial.relations() {
                    rel.select([None, Some(Param::new("v0"))].as_slice()).for_each(drop);
                }
            }
            let mut fast = DeltaDatabase::new(initial);
            let mut oracle = fast.clone();
            for round in &rounds {
                let mut candidates = Database::new();
                facts(&mut candidates, round);
                let mut candidates = batches(&candidates);
                candidates.push((Pred::new("as", 2), Rows::new(2)));
                let added = advance_by_definition(&mut oracle, &candidates);
                prop_assert_eq!(fast.advance(candidates), added);
                prop_assert_eq!(fast.delta().len(), added);
                prop_assert_eq!(fast.total(), oracle.total());
                prop_assert_eq!(fast.delta(), oracle.delta());
                for db in [fast.total(), fast.delta()] {
                    prop_assert!(db.relations().all(|(_, r)| !r.is_empty()));
                }
                // The indexes came along: every probe sees the new facts.
                for (pred, rel) in fast.total().relations() {
                    let scratch: Relation = rel.iter().collect();
                    for c in 0..2 {
                        prop_assert_eq!(rel.distinct_count(c), scratch.distinct_count(c));
                    }
                    for t in rel.iter().take(5) {
                        for pattern in [[Some(t[0]), None], [None, Some(t[1])]] {
                            let want: Vec<&[Param]> = scratch.select(&pattern).collect();
                            let got: Vec<&[Param]> = fast.total().select(pred, &pattern).collect();
                            prop_assert_eq!(got, want);
                        }
                    }
                }
            }
        }
    }
}
