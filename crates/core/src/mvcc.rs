//! MVCC snapshot publication: immutable committed states behind an
//! atomically swappable head pointer.
//!
//! The serving architecture is single-writer / many-reader. A
//! [`CommittedState`] is an immutable [`EpistemicDb`] (theory,
//! constraints, materialized model, cached rule plans, compiled
//! incremental checker) stamped with the WAL LSN it reflects. The one
//! writer builds the *next* state privately — through the ordinary
//! [`Transaction::prepare`](crate::Transaction::prepare) /
//! [`PreparedCommit`](crate::PreparedCommit) path — and publishes it
//! into a [`StateCell`] with a pointer swap. The state it publishes is a
//! clone of its working database, and a clone shares with its original
//! every storage run of the model the commit did not write to and the
//! rule-derived caches whole (see [`EpistemicDb`]), so keeping many
//! states alive costs their differences, not their sizes.
//!
//! Readers call [`StateCell::snapshot`] and get a [`ReadHandle`]: an
//! `Arc` clone of whatever state was head at that instant. Queries run
//! against the handle with no further coordination — a snapshot can
//! never change underneath a reader, a reader can never observe a
//! half-applied commit, and the writer never waits for readers (old
//! states are freed when their last handle drops).
//!
//! The head cell is a `RwLock<Arc<CommittedState>>` used only for the
//! pointer: `snapshot` holds the read lock for one `Arc::clone` and
//! `publish` holds the write lock for one pointer store. All commit
//! work — validation, WAL append, fsync, model maintenance — happens
//! before `publish` is called, so readers never block on a commit in
//! flight.

use crate::db::EpistemicDb;
use std::ops::Deref;
use std::sync::{Arc, RwLock};

/// An immutable committed database state stamped with its WAL LSN.
///
/// Dereferences to [`EpistemicDb`], so every read-only query
/// (`ask`, `demo`, `answers`, `closed`, …) is available directly.
#[derive(Clone)]
pub struct CommittedState {
    db: EpistemicDb,
    lsn: u64,
}

impl CommittedState {
    /// Wrap a database as the committed state at `lsn`.
    ///
    /// The caller hands over ownership; the state is immutable from
    /// here on (no `&mut` access is ever exposed).
    pub fn new(db: EpistemicDb, lsn: u64) -> Self {
        CommittedState { db, lsn }
    }

    /// The WAL LSN this state reflects (0 for the initial state).
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// The underlying database.
    pub fn db(&self) -> &EpistemicDb {
        &self.db
    }
}

impl Deref for CommittedState {
    type Target = EpistemicDb;
    fn deref(&self) -> &EpistemicDb {
        &self.db
    }
}

/// A reader's handle on one committed state: a cheap `Arc` clone that
/// pins the snapshot for as long as the handle lives.
pub type ReadHandle = Arc<CommittedState>;

/// The head pointer: which committed state new readers see.
pub struct StateCell {
    head: RwLock<Arc<CommittedState>>,
}

impl StateCell {
    /// Start with `db` as the committed state at `lsn`.
    pub fn new(db: EpistemicDb, lsn: u64) -> Self {
        StateCell {
            head: RwLock::new(Arc::new(CommittedState::new(db, lsn))),
        }
    }

    /// Pin the current head. One atomic refcount increment; never
    /// blocks on commit work (the write lock is held only for the
    /// pointer swap itself).
    pub fn snapshot(&self) -> ReadHandle {
        Arc::clone(&self.head.read().unwrap())
    }

    /// The LSN of the current head.
    pub fn head_lsn(&self) -> u64 {
        self.head.read().unwrap().lsn
    }

    /// Publish `next` as the new head. Readers that already hold a
    /// handle keep their old snapshot; new `snapshot` calls see `next`.
    ///
    /// Single-writer discipline: callers must ensure only one thread
    /// publishes, and that `next.lsn()` is not lower than the head's
    /// (enforced here by a debug assertion).
    pub fn publish(&self, next: Arc<CommittedState>) {
        let mut head = self.head.write().unwrap();
        debug_assert!(
            next.lsn >= head.lsn,
            "published state must not move the LSN backwards"
        );
        *head = next;
    }
}

// The whole point: committed states are shareable across threads.
const _: () = {
    const fn assert_sync<T: Send + Sync>() {}
    assert_sync::<CommittedState>();
    assert_sync::<StateCell>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Answer;
    use epilog_syntax::parse;

    fn db(text: &str) -> EpistemicDb {
        EpistemicDb::from_text(text).unwrap()
    }

    #[test]
    fn snapshots_pin_their_state_across_publishes() {
        let cell = StateCell::new(db("emp(Mary)"), 0);
        let before = cell.snapshot();
        assert_eq!(before.lsn(), 0);

        // Writer: build the next state privately, then publish.
        let mut next = before.db().clone();
        next.assert(parse("emp(Sue)").unwrap()).unwrap();
        cell.publish(Arc::new(CommittedState::new(next, 1)));

        let after = cell.snapshot();
        assert_eq!(after.lsn(), 1);
        let q = parse("K emp(Sue)").unwrap();
        assert_eq!(before.ask(&q), Answer::No, "old snapshot is immutable");
        assert_eq!(after.ask(&q), Answer::Yes);
        assert_eq!(cell.head_lsn(), 1);
    }

    #[test]
    fn concurrent_readers_and_publishes() {
        let cell = Arc::new(StateCell::new(db("p(a)"), 0));
        let q = parse("K p(a)").unwrap();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let cell = Arc::clone(&cell);
                let q = q.clone();
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..50 {
                        let h = cell.snapshot();
                        assert!(h.lsn() >= last, "snapshot LSNs are monotone");
                        last = h.lsn();
                        assert_eq!(h.ask(&q), Answer::Yes);
                    }
                });
            }
            let cell = Arc::clone(&cell);
            s.spawn(move || {
                for lsn in 1..=20u64 {
                    let mut next = cell.snapshot().db().clone();
                    next.assert(parse(&format!("q(c{lsn})")).unwrap()).unwrap();
                    cell.publish(Arc::new(CommittedState::new(next, lsn)));
                }
            });
        });
        assert_eq!(cell.head_lsn(), 20);
    }
}
