//! # epilog-persist — durability for the epistemic database
//!
//! Reiter's treatment views a database as an evolving epistemic theory
//! whose updates must preserve integrity; the iterated-revision
//! literature frames the knowledge base as the *history* of those
//! revisions. This crate makes that history durable:
//!
//! * [`Wal`] — the write-ahead log, and the whole database on disk: one
//!   file (`wal.log`) of textual records (sentences via the
//!   `epilog-syntax` pretty-printer, read back with `parse`), each framed
//!   by an LSN / length / checksum header, whose first record is a
//!   checkpoint of the whole state;
//! * [`Snapshot`] — the checkpoint record's codec: the theory and its
//!   constraints at a log position (the least model is derived from them
//!   on restore, never stored). [`DurableDb::compact`] replaces the log
//!   with one checkpoint of the current state, written by the crate's one
//!   file replacement (`<name>.tmp`, sync, rename, directory sync), whose
//!   strays recovery deletes;
//! * [`DurableDb`] — the wrapper that threads every commit through the
//!   log (log-before-apply, [`FsyncPolicy`] configurable) and whose
//!   [`DurableDb::recover`] restores the checkpoint and replays each record
//!   after it whole through the real commit path — recovered state
//!   re-verifies constraints and maintains the incremental model exactly
//!   as the live path does — tolerating a torn log tail (truncate at the
//!   first corrupt record, reported in the [`RecoveryReport`]) but
//!   refusing (`PersistError::Corrupt`, writing nothing) a log whose
//!   checkpoint is damaged or missing, or which holds a record that does
//!   not decode or does not replay;
//! * [`ServingDb`] — the concurrent serving layer: lock-free MVCC
//!   snapshot reads (`epilog-core`'s `StateCell`) with a single writer
//!   thread draining a bounded commit queue and batching many
//!   transactions into one log write + one fsync (group commit); the
//!   batch protocol itself is [`Writer::step`], callable by hand.
//!
//! # Loss windows are crash-only
//!
//! Under [`FsyncPolicy::Never`] acknowledged commits may await an
//! fsync until the next [`DurableDb::sync`] —
//! [`DurableDb::pending_unsynced`] reports how many right now. Only a
//! *crash* can lose them: dropping the database (or its [`Wal`]) flushes
//! the window, so any clean shutdown — including a panic that unwinds —
//! leaves the log complete. [`ServingDb`] acknowledges commits only
//! after the batch fsync, so its callers never see the window at all.
//!
//! # Quickstart
//!
//! ```
//! use epilog_core::Answer;
//! use epilog_persist::{DurableDb, FsyncPolicy};
//! use epilog_syntax::{parse, Theory};
//!
//! let dir = std::env::temp_dir().join(format!("epilog-quickstart-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // Create a durable database and commit through the log.
//! let theory = Theory::from_text("forall x. emp(x) -> person(x)").unwrap();
//! let mut db = DurableDb::create(&dir, theory, FsyncPolicy::Always).unwrap();
//! db.add_constraint(parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap()).unwrap();
//! let report = db
//!     .transaction()
//!     .assert(parse("ss(Mary, n1)").unwrap())
//!     .assert(parse("emp(Mary)").unwrap())
//!     .commit()
//!     .unwrap();
//! assert_eq!(report.asserted, 2);
//!
//! // "Crash": drop the handle without any shutdown ceremony.
//! drop(db);
//!
//! // Recover: checkpoint + log replay through the real commit path.
//! let (db, recovery) = DurableDb::recover(&dir, FsyncPolicy::Always).unwrap();
//! assert_eq!(recovery.records_replayed, 2); // the constraint + the batch
//! assert_eq!(db.ask(&parse("K person(Mary)").unwrap()), Answer::Yes);
//! assert!(db.satisfies_constraints());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod durable;
pub mod fault;
pub mod serve;
pub mod snapshot;
pub mod wal;

use std::fs::File;
use std::io;
use std::path::Path;

/// 64-bit FNV-1a — the checksum every log record (the checkpoint
/// included) frames its payload with. Tiny, dependency-free, and
/// plenty for torn-write detection; not a cryptographic seal.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `fsync` the directory itself, so the directory entries of freshly
/// created/renamed files (the log) survive power loss —
/// without this, `FsyncPolicy::Always`'s durability claim would cover
/// file *contents* but not their *names*. `inj` may fail it like any sync.
pub(crate) fn sync_dir(dir: &Path, inj: Option<&FaultInjector>) -> io::Result<()> {
    fault::injected_sync(inj)?;
    File::open(dir)?.sync_all()
}

/// Replace the file at `path` with one holding `bytes`, so that a crash
/// leaves the old file or the new one, never a mix: the bytes go to
/// `<name>.tmp`, which is synced and renamed over `path`, and then the
/// directory is synced. Every write and sync goes through `inj`. A failure
/// before the rename removes the temp file (best effort) and leaves
/// `path` as it was; once the rename is done, `renamed` gets the new
/// file's handle, positioned at its end, before the directory sync can
/// fail.
pub(crate) fn replace_file(
    path: &Path,
    bytes: &[u8],
    inj: Option<&FaultInjector>,
    renamed: impl FnOnce(File),
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(TEMP_SUFFIX);
    let written = (|| {
        let mut file = File::create(&tmp)?;
        fault::write_all(inj, &mut file, bytes)?;
        fault::sync_data(inj, &file)?;
        std::fs::rename(&tmp, path)?;
        Ok(file)
    })();
    match written {
        Ok(file) => renamed(file),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    }
    sync_dir(path.parent().expect("a file in a directory"), inj)
}

/// What [`replace_file`] writes under until its rename: the final name
/// with this after it.
const TEMP_SUFFIX: &str = ".tmp";

/// Delete the temp files a crash inside [`replace_file`] stranded in
/// `dir`. They are never state, and nothing else would remove them.
pub(crate) fn remove_temps(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.to_str().is_some_and(|p| p.ends_with(TEMP_SUFFIX)) {
            std::fs::remove_file(path)?;
        }
    }
    Ok(())
}

pub use durable::{CompactStats, DurableDb, DurableTransaction, PersistError, RecoveryReport};
pub use fault::{FaultInjector, FaultKind};
pub use serve::{
    CommitHandle, CommitReceipt, Endpoint, Request, ServeError, ServeOptions, ServeStats,
    ServingDb, TxOp, Writer,
};
pub use snapshot::Snapshot;
pub use wal::{FsyncPolicy, TornTail, Wal, WalOp, WalRecord, WalScan};
