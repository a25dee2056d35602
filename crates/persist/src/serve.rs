//! `ServingDb`: the concurrent serving layer — MVCC snapshot reads plus
//! a single-writer thread doing durable group commit.
//!
//! # Architecture
//!
//! A knowledge base is queried far more often than it is revised, so the
//! serving layer splits the two paths completely:
//!
//! * **Readers** call [`Endpoint::snapshot`] and get an
//!   [`epilog_core::ReadHandle`] — an `Arc` clone of the immutable
//!   committed state (theory, constraints, materialized model, compiled
//!   plans). Queries run on the handle with no locks and no coordination
//!   with commits in flight; a snapshot pins its state until dropped.
//! * **The writer** is one named thread (`epilog-commit-writer`)
//!   draining a bounded commit queue (128 requests deep). It owns a
//!   [`Writer`], which owns the [`DurableDb`] — the working state and its
//!   log — outright, so validation runs against the true head state with
//!   no locking at all.
//!
//! # Group commit
//!
//! The thread waits for one request, takes every other one already
//! queued (up to 64 in all), and hands the batch to [`Writer::step`],
//! which processes it as one durability unit: each transaction is
//! committed through the `DurableDb` — validated, its effective delta
//! appended to a log that does not sync on its own (rejected
//! transactions are answered immediately and never logged) — then the
//! whole batch is forced with **one**
//! `fdatasync`, the new state is published with a pointer swap, and only
//! then are the callers' completion handles fed their [`CommitReceipt`]s
//! — an acknowledged commit is both durable and visible to subsequent
//! snapshots. Under load, many transactions share each fsync
//! ([`Endpoint::stats`] reports the ratio), while an idle writer
//! degenerates to one fsync per commit — the same durability as
//! [`FsyncPolicy::Always`] with none of [`FsyncPolicy::Never`]'s
//! crash-loss window.
//!
//! The on-disk format is unchanged: a directory served by `ServingDb`
//! is a `DurableDb` directory, and either API can recover it.
//!
//! `step` is the whole protocol; the thread only collects batches for
//! it. A test forms any batch — and so any interleaving of commits,
//! refusals, faults and heals — by building [`Request`]s, or draining
//! what its [`Endpoint`]s queued ([`Writer::drain`]), and calling `step`
//! on one thread, with no timing involved.
//!
//! # Degraded mode and healing
//!
//! An I/O failure on the commit path (append or batch fsync — injectable
//! via [`FaultInjector`](crate::FaultInjector), real on a failing disk)
//! never panics the writer, and the writer has no failure protocol of
//! its own: it reads the outcome of the `DurableDb`'s step
//! ([`crate::durable`]). A refusal is answered at once; a failed append
//! that was rewound fails that one handle with [`ServeError::Io`]; and
//! when the `DurableDb` stops trusting its log — a compensation failed,
//! or the batch fsync did — the batch's handles get [`ServeError::Io`]
//! and log and working state are rolled back to the last durable LSN
//! (nothing un-acknowledged can survive a later crash). **Degraded
//! read-only mode** is that `DurableDb`'s refuse-until-recovered state
//! plus read-only serving: snapshots keep answering at the durable head,
//! commits are rejected fast with [`ServeError::Degraded`], and
//! [`Endpoint::stats`] reports it. A heal ([`Request::heal`]) is
//! recovery: cut un-acknowledged log bytes through
//! an un-injected handle, [`DurableDb::recover`], probe the disk, serve
//! the recovered database — or stay degraded (and heal retryable) if the
//! storage still fails.
//!
//! # Panics
//!
//! `step` serves each request — commit, constraint, flush or heal —
//! through one catch. A request whose serving panics (a `prove` walk
//! whose answer space overflows, in a constraint's check, say, or in
//! the checkpoint a heal recovers) is answered [`ServeError::Internal`],
//! and the writer goes on with the rest of the batch, degraded or not as
//! it was: the `DurableDb` prepares a commit or a constraint before
//! appending it, and a heal swaps the recovered database in only once
//! recovery and its probe sync succeeded, so nothing was logged and the
//! state is as it was. No request ends the writer. A request that is
//! dropped unanswered — only a panic outside any request's serving, in
//! the batch's sync or publication, could end the thread —
//! is [`ServeError::Closed`], and [`ServingDb::shutdown`] reports the
//! panic through its join.

use crate::durable::{DurableDb, PersistError, RecoveryReport};
use crate::wal::{FsyncPolicy, Wal, WAL_FILE};
use epilog_core::db::DbError;
use epilog_core::{CommitReport, CommittedState, ReadHandle, StateCell};
use epilog_syntax::{Formula, Theory};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Commit-queue capacity: enqueueing callers block (backpressure) when
/// the writer falls this far behind.
const QUEUE_DEPTH: usize = 128;
/// Most requests the writer folds into one durability unit (one WAL
/// sync, one publish).
const MAX_BATCH: usize = 64;

/// Options of a [`ServingDb`]: there are none, the queue depth and the
/// batch cap are fixed. Every `opts` parameter taking one is ignored; it
/// stays only so that callers written against the older signature (the
/// benchmark's replay, `trajectory/src/replay.rs`) keep compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {}

/// Errors surfaced through a [`CommitHandle`].
#[derive(Debug)]
pub enum ServeError {
    /// The database refused the transaction (constraint violation,
    /// ill-formed sentence, …); state and log are unchanged. Carries
    /// the head LSN at rejection time, so a rejection can be reported
    /// against the exact state it was validated on.
    Db(DbError, u64),
    /// The log append or sync failed; the transaction was not applied.
    Io(String),
    /// The writer is in degraded read-only mode after an I/O failure:
    /// snapshots keep answering, commits are rejected fast until
    /// a heal ([`Request::heal`]) succeeds. Carries the reason the mode was
    /// entered. Transient by design — a retry after a heal can succeed.
    Degraded(String),
    /// The request was dropped unanswered: the writer thread is gone.
    Closed,
    /// Serving the request panicked, with this message. Nothing was
    /// logged for it and the state is as it was: the writer goes on.
    Internal(String),
}

impl ServeError {
    /// The answer to a request whose serving panicked with `payload`.
    pub fn from_panic(payload: Box<dyn Any + Send>) -> ServeError {
        let text = payload.downcast_ref::<&str>().map(|m| m.to_string());
        ServeError::Internal(
            text.or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default(),
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Db(e, _) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Degraded(why) => write!(f, "degraded (read-only): {why}"),
            ServeError::Closed => write!(f, "serving database is shut down"),
            ServeError::Internal(why) => write!(f, "internal error: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One queued update operation.
#[derive(Debug, Clone)]
pub enum TxOp {
    /// Add a sentence to the theory.
    Assert(Formula),
    /// Remove a sentence from the theory.
    Retract(Formula),
}

/// What an acknowledged commit got: its WAL position and the usual
/// commit report. By the time the handle yields a receipt the record is
/// fsynced and the state published — a snapshot taken afterwards is
/// guaranteed to reflect it.
#[derive(Debug)]
pub struct CommitReceipt {
    /// LSN of the commit's log record (unchanged head LSN for no-ops).
    pub lsn: u64,
    /// The core engine's commit report (deltas, model update, checks).
    pub report: CommitReport,
}

/// Completion handle for a request: a commit's [`CommitReceipt`], or
/// the LSN a constraint, a flush or a heal answers with.
#[must_use = "a commit is not acknowledged until the handle is waited on"]
pub struct CommitHandle<T = CommitReceipt> {
    rx: Receiver<Result<T, ServeError>>,
}

impl<T> CommitHandle<T> {
    /// Block until the writer answers (durable + published, or
    /// rejected). A request dropped unanswered is
    /// [`ServeError::Closed`].
    pub fn wait(self) -> Result<T, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }
}

type Reply<T> = SyncSender<Result<T, ServeError>>;

/// One request to the writer. Each constructor returns it together with
/// the handle its answer arrives on: [`ServingDb`] queues the request,
/// a test may pass it to [`Writer::step`] itself.
pub struct Request(Op);

enum Op {
    Commit(Vec<TxOp>, Reply<CommitReceipt>),
    Constraint(Formula, Reply<u64>),
    Flush(Reply<u64>),
    Heal(Reply<u64>),
}

fn reply<T>() -> (Reply<T>, CommitHandle<T>) {
    let (tx, rx) = sync_channel(1);
    (tx, CommitHandle { rx })
}

impl Request {
    /// Commit `ops` as one transaction; answered with the receipt once
    /// durable and published, or at once if refused.
    pub fn commit(ops: Vec<TxOp>) -> (Request, CommitHandle) {
        let (tx, handle) = reply();
        (Request(Op::Commit(ops, tx)), handle)
    }

    /// Durably register an integrity constraint; answered with its LSN.
    pub fn constraint(ic: Formula) -> (Request, CommitHandle<u64>) {
        let (tx, handle) = reply();
        (Request(Op::Constraint(ic, tx)), handle)
    }

    /// A barrier: answered with the head LSN once every request ahead of
    /// it is answered and the log is synced.
    pub fn flush() -> (Request, CommitHandle<u64>) {
        let (tx, handle) = reply();
        (Request(Op::Flush(tx)), handle)
    }

    /// Attempt to leave degraded read-only mode: truncate every
    /// un-acknowledged log byte past the durable head, re-run ordinary
    /// recovery, probe the disk, and resume write service. Answered with
    /// the head LSN — trivially, without touching anything, when the
    /// writer is not degraded. On error the database *stays* degraded
    /// (snapshots keep answering) and the heal can be retried once the
    /// storage behaves again.
    pub fn heal() -> (Request, CommitHandle<u64>) {
        let (tx, handle) = reply();
        (Request(Op::Heal(tx)), handle)
    }
}

/// Writer-side counters, snapshotted by [`Endpoint::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Accepted (durable, published) transactions.
    pub commits: u64,
    /// Rejected transactions (constraint violations etc.).
    pub rejected: u64,
    /// Batches published.
    pub batches: u64,
    /// WAL syncs issued — `commits / fsyncs` is the group-commit
    /// amortization ratio.
    pub fsyncs: u64,
    /// I/O failures the writer observed (and survived) on the commit
    /// path.
    pub io_errors: u64,
    /// Successful heals ([`Request::heal`]) out of degraded mode.
    pub heals: u64,
    /// Whether the writer is in degraded read-only mode right now.
    pub degraded: bool,
}

#[derive(Default)]
struct Metrics {
    commits: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    fsyncs: AtomicU64,
    io_errors: AtomicU64,
    heals: AtomicU64,
    degraded: AtomicBool,
}

impl Metrics {
    fn stats(&self) -> ServeStats {
        ServeStats {
            commits: self.commits.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            heals: self.heals.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// What the clients of one serving writer share: the head cell snapshots
/// are read from, the queue requests go down, and the writer's counters.
/// A clone is three reference counts. [`ServingDb`] derefs to the one its
/// thread drains; [`Writer::new`] hands one out beside a writer that is
/// stepped by hand.
#[derive(Clone)]
pub struct Endpoint {
    head: Arc<StateCell>,
    queue: SyncSender<Request>,
    metrics: Arc<Metrics>,
}

impl Endpoint {
    /// Pin the current committed state. Never blocks on the writer: the
    /// head cell is locked only for the pointer swap itself.
    pub fn snapshot(&self) -> ReadHandle {
        self.head.snapshot()
    }

    /// Snapshot of the writer's counters.
    pub fn stats(&self) -> ServeStats {
        self.metrics.stats()
    }

    /// Queue `request`, blocking only while the queue is full, and return
    /// the handle its answer arrives on. A request no writer will take
    /// (it is gone) is dropped with its reply sender: the handle reads
    /// [`ServeError::Closed`].
    pub fn send<T>(&self, (request, handle): (Request, CommitHandle<T>)) -> CommitHandle<T> {
        let _ = self.queue.send(request);
        handle
    }
}

/// A durable [`EpistemicDb`](epilog_core::EpistemicDb) served
/// concurrently: any number of lock-free snapshot readers, one
/// group-committing writer thread.
///
/// See the [module docs](self) for the architecture. It derefs to the
/// writer's [`Endpoint`], whose clones the server's sessions hold; the
/// methods here are what only the owner of the thread does, and the
/// blocking forms of [`Endpoint::send`].
pub struct ServingDb {
    endpoint: Endpoint,
    writer: Option<JoinHandle<()>>,
}

impl ServingDb {
    /// Initialize a fresh durable database at `dir` and start serving
    /// it. Fails like [`DurableDb::create`] if `dir` already holds one.
    pub fn create(
        dir: impl AsRef<Path>,
        theory: Theory,
        opts: ServeOptions,
    ) -> Result<ServingDb, PersistError> {
        let durable = DurableDb::create(dir, theory, FsyncPolicy::Never)?;
        Ok(ServingDb::start(durable, opts))
    }

    /// Recover the database at `dir` (checkpoint + log replay) and start
    /// serving it.
    pub fn recover(
        dir: impl AsRef<Path>,
        opts: ServeOptions,
    ) -> Result<(ServingDb, RecoveryReport), PersistError> {
        let (durable, report) = DurableDb::recover(dir, FsyncPolicy::Never)?;
        Ok((ServingDb::start(durable, opts), report))
    }

    /// Recover `dir` if it holds a database, otherwise create one with
    /// `theory` — the server binary's entry point.
    pub fn open(
        dir: impl AsRef<Path>,
        theory: Theory,
        opts: ServeOptions,
    ) -> Result<(ServingDb, Option<RecoveryReport>), PersistError> {
        if dir.as_ref().join(WAL_FILE).exists() {
            let (db, report) = ServingDb::recover(dir, opts)?;
            Ok((db, Some(report)))
        } else {
            Ok((ServingDb::create(dir, theory, opts)?, None))
        }
    }

    /// Wrap an already-recovered [`DurableDb`] in a [`Writer`] and start
    /// its thread. A [`FaultInjector`](crate::FaultInjector) installed on
    /// the `DurableDb` rides along into the writer.
    ///
    /// # Panics
    /// Panics if the OS refuses to spawn the writer thread.
    pub fn start(durable: DurableDb, _opts: ServeOptions) -> ServingDb {
        let (mut writer, endpoint) = Writer::new(durable);
        let thread = thread::Builder::new()
            .name("epilog-commit-writer".into())
            .spawn(move || {
                // Exits when every endpoint (and thus every sender) is
                // gone and the queue is drained.
                while let Some(batch) = next_batch(&writer.queue) {
                    writer.step(batch);
                }
                let _ = writer.durable.sync();
            })
            .unwrap_or_else(|e| panic!("failed to spawn thread `epilog-commit-writer`: {e}"));
        ServingDb {
            endpoint,
            writer: Some(thread),
        }
    }

    /// Commit `ops` as one transaction and wait for the receipt: it
    /// comes once the commit is durable and published, or with the
    /// rejection as soon as validation fails.
    pub fn commit_wait(&self, ops: Vec<TxOp>) -> Result<CommitReceipt, ServeError> {
        self.send(Request::commit(ops)).wait()
    }

    /// Durably register an integrity constraint through the writer.
    /// Returns its LSN.
    pub fn add_constraint(&self, ic: Formula) -> Result<u64, ServeError> {
        self.send(Request::constraint(ic)).wait()
    }

    /// Graceful shutdown: stop accepting work, let the writer drain and
    /// acknowledge everything already queued, sync the log, and join
    /// the thread. The thread drains until every [`Endpoint`] clone is
    /// dropped too.
    pub fn shutdown(mut self) -> Result<(), PersistError> {
        match self.stop() {
            Some(Err(_)) => Err(PersistError::Corrupt(
                "commit writer panicked; the log is still crash-consistent".into(),
            )),
            _ => Ok(()),
        }
    }

    /// Drop this handle's sender, in favour of one whose receiver is
    /// already gone, and join the writer thread once it has drained.
    fn stop(&mut self) -> Option<thread::Result<()>> {
        self.endpoint.queue = sync_channel(0).0;
        self.writer.take().map(JoinHandle::join)
    }
}

impl std::ops::Deref for ServingDb {
    type Target = Endpoint;

    fn deref(&self) -> &Endpoint {
        &self.endpoint
    }
}

/// Dropping without [`ServingDb::shutdown`] still drains and joins the
/// writer (and the [`Wal`]'s own `Drop` flushes), so no queued commit
/// is silently discarded.
impl Drop for ServingDb {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// What a batch owes its callers once durable: the acknowledgments of
/// the operations it logged, and of the no-op commits it answered — a
/// no-op may be one only because a batch-mate already made its change —
/// and where the log stood when it began — the durable boundary, every
/// prior batch having synced or rolled back.
struct Batch {
    mark: (u64, u64),
    commits: Vec<(Reply<CommitReceipt>, CommitReceipt)>,
    noops: Vec<(Reply<CommitReceipt>, CommitReceipt)>,
    constraints: Vec<(Reply<u64>, u64)>,
}

/// The next batch off the queue: the first request to arrive and every
/// other one already queued behind it, up to [`MAX_BATCH`]. `None` once
/// every sender is gone and the queue is drained.
fn next_batch(rx: &Receiver<Request>) -> Option<Vec<Request>> {
    let mut batch = vec![rx.recv().ok()?];
    batch.extend(rx.try_iter().take(MAX_BATCH - 1));
    Some(batch)
}

/// The serving writer as a value: sole owner of the durable database
/// (the working state and its log), whose refuse-until-recovered state
/// *is* the degraded mode, and of the receiving end of its queue; it
/// publishes to the head cell and counts into the counters its
/// [`Endpoint`] reads. [`ServingDb`] runs one on its thread; a test
/// drives one by hand, batch by batch, through [`Writer::step`] — on
/// requests it built, or on what its endpoints queued ([`Writer::drain`])
/// — and dropping it between steps is a crash.
pub struct Writer {
    durable: DurableDb,
    head: Arc<StateCell>,
    metrics: Arc<Metrics>,
    queue: Receiver<Request>,
}

impl Writer {
    /// Take over `durable` and publish its state as the head. The log is
    /// put on [`FsyncPolicy::Never`] whatever policy it was opened with:
    /// the writer syncs explicitly, once per batch, and a log that also
    /// synced per record would amortize nothing.
    /// Returned with the writer: the endpoint its clients read and queue
    /// requests through.
    pub fn new(mut durable: DurableDb) -> (Writer, Endpoint) {
        durable.set_fsync_policy(FsyncPolicy::Never);
        let head = Arc::new(StateCell::new(durable.db().clone(), durable.last_lsn()));
        let metrics = Arc::<Metrics>::default();
        let (tx, queue) = sync_channel(QUEUE_DEPTH);
        let endpoint = Endpoint {
            head: Arc::clone(&head),
            queue: tx,
            metrics: Arc::clone(&metrics),
        };
        let writer = Writer {
            durable,
            head,
            metrics,
            queue,
        };
        (writer, endpoint)
    }

    /// Every request its endpoints have queued so far, in queue order,
    /// without waiting: a batch for [`Writer::step`] on the caller's own
    /// thread.
    pub fn drain(&self) -> Vec<Request> {
        self.queue.try_iter().collect()
    }

    fn degraded(&self) -> bool {
        self.durable.untrusted().is_some()
    }

    /// Serve `requests` as one batch: commit each through the
    /// `DurableDb` in order, answering every refusal and failed append at
    /// once; then one sync, then publish, then answer the rest — or, if
    /// the sync fails, roll back to the batch's start and fail them.
    pub fn step(&mut self, requests: Vec<Request>) {
        let mut batch = Batch {
            mark: self.durable.mark(),
            commits: Vec::new(),
            noops: Vec::new(),
            constraints: Vec::new(),
        };
        let mut flushes = Vec::new();
        for Request(op) in requests {
            match op {
                Op::Commit(ops, reply) => {
                    self.caught(reply, |w, reply| w.commit(ops, reply, &mut batch))
                }
                Op::Constraint(ic, reply) => {
                    self.caught(reply, |w, reply| w.constraint(ic, reply, &mut batch))
                }
                Op::Flush(reply) => self.caught(reply, |_, reply| flushes.push(reply)),
                Op::Heal(reply) => self.caught(reply, |w, reply| {
                    let _ = reply.send(w.heal());
                }),
            }
        }

        let accepted = batch.commits.len() + batch.constraints.len();
        if !self.degraded() && (accepted > 0 || !flushes.is_empty()) {
            // One fdatasync covers the whole batch. A failed sync means
            // durability cannot be promised for anything this batch
            // appended: fail the batch's handles with Io, roll the log
            // and the working state back to the durable boundary, and
            // serve read-only instead of acknowledgments the disk may
            // not honor.
            match self.durable.sync() {
                Ok(()) => {
                    self.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    self.metrics.io_errors.fetch_add(1, Ordering::Relaxed);
                    self.enter_degraded(&format!("batch fsync failed: {e}"), &mut batch);
                }
            }
        }
        // Empty by now if the batch degraded: enter_degraded failed them.
        if !batch.commits.is_empty() || !batch.constraints.is_empty() {
            // Publish after durability, acknowledge after publication:
            // an acknowledged commit is visible to every later snapshot.
            self.publish();
            self.metrics.batches.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .commits
                .fetch_add(batch.commits.len() as u64, Ordering::Relaxed);
        }
        for (reply, receipt) in batch.commits.into_iter().chain(batch.noops) {
            let _ = reply.send(Ok(receipt));
        }
        for (reply, lsn) in batch.constraints {
            let _ = reply.send(Ok(lsn));
        }
        // The barrier holds at the head, which this batch moved or (it
        // logged nothing, or rolled back) left at the durable boundary.
        for reply in flushes {
            let _ = reply.send(Ok(self.head.head_lsn()));
        }
    }

    /// Serve one request, the one way every request is served: a panic
    /// is answered [`ServeError::Internal`] through a second sender on
    /// its reply channel, and the writer goes on. It leaves nothing logged
    /// and the state as it was: a commit or a constraint is prepared
    /// before it is appended, and a heal swaps the recovered database in
    /// last. Nothing panics once a reply is owed to the batch, so the
    /// channel is still empty then.
    fn caught<T>(&mut self, reply: Reply<T>, serve: impl FnOnce(&mut Writer, Reply<T>)) {
        let spare = reply.clone();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| serve(self, reply))) {
            let _ = spare.try_send(Err(ServeError::from_panic(panic)));
        }
    }

    fn publish(&self) {
        self.head.publish(Arc::new(CommittedState::new(
            self.durable.db().clone(),
            self.durable.last_lsn(),
        )));
    }

    fn commit(&mut self, ops: Vec<TxOp>, reply: Reply<CommitReceipt>, batch: &mut Batch) {
        let logged_before = self.durable.last_lsn();
        let mut txn = self.durable.transaction();
        for op in ops {
            txn = match op {
                TxOp::Assert(w) => txn.assert(w),
                TxOp::Retract(w) => txn.retract(w),
            };
        }
        match txn.commit() {
            // Nothing was logged, nothing to publish — but the state the
            // no-op was decided on may hold unsynced batch-mates, so it is
            // acknowledged with them, once they are durable, and fails if
            // they roll back.
            Ok(report) => match self.durable.last_lsn() {
                lsn if lsn == logged_before => {
                    batch.noops.push((reply, CommitReceipt { lsn, report }))
                }
                lsn => batch.commits.push((reply, CommitReceipt { lsn, report })),
            },
            Err(e) => self.answer_failure(e, reply, batch),
        }
    }

    fn constraint(&mut self, ic: Formula, reply: Reply<u64>, batch: &mut Batch) {
        match self.durable.add_constraint(ic) {
            // A constraint already registered (maybe by a batch-mate)
            // logged nothing, and is acknowledged with the batch all the
            // same.
            Ok(_) => batch.constraints.push((reply, self.durable.last_lsn())),
            Err(e) => self.answer_failure(e, reply, batch),
        }
    }

    /// Answer an operation the `DurableDb` did not perform, by how it
    /// did not: a refusal against the state it was validated on; a failed
    /// append fails this handle alone (the log is back at its mark); a log
    /// no longer trusted degrades the writer, and from then on the
    /// `DurableDb`'s standing refusal is the fast rejection.
    fn answer_failure<T>(&mut self, e: PersistError, reply: Reply<T>, batch: &mut Batch) {
        let answer = match e {
            PersistError::Db(e) => {
                self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                ServeError::Db(e, self.durable.last_lsn())
            }
            PersistError::Io(e) => {
                self.metrics.io_errors.fetch_add(1, Ordering::Relaxed);
                ServeError::Io(e.to_string())
            }
            PersistError::Corrupt(why) if self.metrics.degraded.load(Ordering::Relaxed) => {
                ServeError::Degraded(why)
            }
            PersistError::Corrupt(why) => {
                self.metrics.io_errors.fetch_add(1, Ordering::Relaxed);
                // Flag first, as `enter_degraded` does for the batch-mates:
                // a caller that sees its handle fail must also see the
                // database degraded. This handle is answered before the
                // roll-back, its batch-mates after it (the F13 mini-soak
                // pins the order).
                self.metrics.degraded.store(true, Ordering::Relaxed);
                let _ = reply.send(Err(ServeError::Io(why.clone())));
                return self.enter_degraded(&why, batch);
            }
        };
        let _ = reply.send(Err(answer));
    }

    /// The `DurableDb` has stopped trusting its log: roll log and working
    /// state back to the batch's durable boundary (the batch's records are
    /// well-formed, and a later crash would replay them) and fail every
    /// pending acknowledgment of the batch with `Io`.
    fn enter_degraded(&mut self, reason: &str, batch: &mut Batch) {
        // The head is the last state every acknowledged commit reached;
        // anything newer in the working state belongs to failed commits.
        self.durable
            .roll_back(batch.mark, self.head.snapshot().db().clone());
        // Flag before the failure replies: a caller that sees its
        // handle fail must also see the database degraded.
        self.metrics.degraded.store(true, Ordering::Relaxed);
        for (reply, _) in batch.commits.drain(..).chain(batch.noops.drain(..)) {
            let _ = reply.send(Err(ServeError::Io(reason.to_string())));
        }
        for (reply, _) in batch.constraints.drain(..) {
            let _ = reply.send(Err(ServeError::Io(reason.to_string())));
        }
    }

    /// The way out of degraded mode is recovery: cut the log back to the
    /// last acknowledged record through an un-injected handle, recover,
    /// re-install the injector, probe the disk with a sync, and serve the
    /// recovered database. Any failure leaves the old one in place.
    fn heal(&mut self) -> Result<u64, ServeError> {
        let durable_lsn = self.head.head_lsn();
        if !self.degraded() {
            return Ok(durable_lsn);
        }
        let dir = self.durable.dir();
        Wal::truncate_after(&dir.join(WAL_FILE), durable_lsn)
            .map_err(|e| ServeError::Io(format!("heal truncation failed: {e}")))?;
        let (mut healed, _report) = DurableDb::recover(dir, FsyncPolicy::Never)
            .map_err(|e| ServeError::Io(format!("heal recovery failed: {e}")))?;
        healed.set_fault_injector(self.durable.fault_injector());
        // Probe through the injected path: a still-failing disk keeps
        // the writer degraded rather than resuming doomed service.
        healed
            .sync()
            .map_err(|e| ServeError::Io(format!("heal probe sync failed: {e}")))?;
        debug_assert_eq!(
            healed.last_lsn(),
            durable_lsn,
            "heal must land on the durable head"
        );
        self.durable = healed;
        self.metrics.degraded.store(false, Ordering::Relaxed);
        self.metrics.heals.fetch_add(1, Ordering::Relaxed);
        self.publish();
        Ok(self.durable.last_lsn())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use epilog_core::Answer;
    use epilog_syntax::parse;
    use std::path::PathBuf;

    fn dir() -> PathBuf {
        use std::sync::atomic::AtomicU32;
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "epilog-serve-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn f(src: &str) -> Formula {
        parse(src).unwrap()
    }

    fn registrar(d: &Path) -> ServingDb {
        let theory = Theory::from_text("forall x. emp(x) -> person(x)").unwrap();
        let db = ServingDb::create(d, theory, ServeOptions::default()).unwrap();
        db.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
            .unwrap();
        db
    }

    #[test]
    fn acknowledged_commits_are_visible_and_old_snapshots_pinned() {
        let d = dir();
        let db = registrar(&d);
        let before = db.snapshot();
        let receipt = db
            .commit_wait(vec![
                TxOp::Assert(f("ss(Mary, n1)")),
                TxOp::Assert(f("emp(Mary)")),
            ])
            .unwrap();
        assert_eq!(receipt.report.asserted, 2);
        let after = db.snapshot();
        assert!(after.lsn() >= receipt.lsn);
        let q = parse("K person(Mary)").unwrap();
        assert_eq!(before.ask(&q), Answer::No, "pinned snapshot");
        assert_eq!(after.ask(&q), Answer::Yes, "ack implies visibility");
        db.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn rejected_commits_leave_no_trace() {
        let d = dir();
        let db = registrar(&d);
        let err = db
            .commit_wait(vec![TxOp::Assert(f("emp(Joe)"))])
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Db(DbError::ConstraintViolated(_), _)
        ));
        assert_eq!(db.snapshot().lsn(), 1, "only the constraint record exists");
        assert_eq!(db.stats().rejected, 1);
        db.shutdown().unwrap();
        // Nothing of the rejected commit reached the log: it holds the
        // genesis checkpoint and the constraint.
        let scan = Wal::scan_file(d.join(WAL_FILE)).unwrap();
        assert_eq!(scan.records.len(), 2);
        std::fs::remove_dir_all(d).unwrap();
    }

    /// A [`Writer`] over the registrar and its endpoint, its log opened
    /// with `policy` and a [`FaultInjector`](crate::FaultInjector)
    /// installed on it, with the `emp` constraint registered through a
    /// first step.
    fn registrar_writer(
        d: &Path,
        policy: FsyncPolicy,
    ) -> (Writer, Endpoint, Arc<crate::FaultInjector>) {
        let theory = Theory::from_text("forall x. emp(x) -> person(x)").unwrap();
        let mut durable = DurableDb::create(d, theory, policy).unwrap();
        let inj = Arc::new(crate::FaultInjector::new(3));
        durable.set_fault_injector(Some(Arc::clone(&inj)));
        let (mut writer, endpoint) = Writer::new(durable);
        let (req, h) = Request::constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"));
        writer.step(vec![req]);
        h.wait().unwrap();
        (writer, endpoint, inj)
    }

    /// Step one batch of commits, each asserting its sentences; the
    /// handles come back already answered.
    fn step_commits<S: AsRef<str>, const N: usize>(
        writer: &mut Writer,
        commits: [Vec<S>; N],
    ) -> [CommitHandle; N] {
        let (batch, handles): (Vec<_>, Vec<_>) = commits
            .iter()
            .map(|ops| Request::commit(ops.iter().map(|w| TxOp::Assert(f(w.as_ref()))).collect()))
            .unzip();
        writer.step(batch);
        handles.try_into().ok().expect("one handle per commit")
    }

    #[test]
    fn a_stepped_burst_forms_one_batch_with_one_fsync() {
        // Whatever policy the log was opened with: under `Always` a log
        // left to itself would sync once per record as well.
        for policy in [FsyncPolicy::Never, FsyncPolicy::Always] {
            let d = dir();
            let (mut writer, ep, inj) = registrar_writer(&d, policy);
            let (base, syncs) = (ep.stats(), inj.syncs());
            let burst: [Vec<String>; 8] =
                std::array::from_fn(|i| vec![format!("ss(E{i}, n{i})"), format!("emp(E{i})")]);
            for h in step_commits(&mut writer, burst) {
                let _ = h.wait().unwrap();
            }
            let s = ep.stats();
            assert_eq!(s.commits - base.commits, 8);
            assert_eq!(s.batches - base.batches, 1, "one group");
            assert_eq!(s.fsyncs - base.fsyncs, 1, "one fsync for 8 commits");
            assert_eq!(inj.syncs() - syncs, 1, "{policy:?}: the disk saw one too");
            let snap = ep.snapshot();
            assert_eq!(snap.ask(&parse("K emp(E7)").unwrap()), Answer::Yes);
            drop(writer);
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn the_thread_takes_every_queued_request_up_to_the_batch_cap() {
        let (tx, rx) = sync_channel(QUEUE_DEPTH);
        let handles: Vec<_> = (0..MAX_BATCH + 3)
            .map(|_| {
                let (req, h) = Request::flush();
                tx.send(req).unwrap();
                h
            })
            .collect();
        drop(tx);
        let sizes: Vec<usize> = std::iter::from_fn(|| next_batch(&rx).map(|b| b.len())).collect();
        assert_eq!(sizes, [MAX_BATCH, 3]);
        drop(handles);
    }

    #[test]
    fn rejection_inside_a_batch_spares_the_others() {
        let d = dir();
        let (mut writer, ep, _) = registrar_writer(&d, FsyncPolicy::Never);
        let [ok1, bad, ok2] = step_commits(
            &mut writer,
            [
                vec!["ss(Sue, n2)", "emp(Sue)"],
                vec!["emp(Joe)"], // no ss number
                vec!["ss(Ann, n3)", "emp(Ann)"],
            ],
        );
        assert!(ok1.wait().is_ok());
        assert!(matches!(bad.wait(), Err(ServeError::Db(..))));
        assert!(ok2.wait().is_ok());
        let snap = ep.snapshot();
        assert_eq!(snap.ask(&parse("K emp(Sue)").unwrap()), Answer::Yes);
        assert_eq!(snap.ask(&parse("K emp(Joe)").unwrap()), Answer::No);
        assert_eq!(snap.ask(&parse("K emp(Ann)").unwrap()), Answer::Yes);
        assert_eq!(ep.stats().batches, 2, "the constraint's, then this one");
        drop(writer);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn shutdown_flushes_and_recovery_restores_the_served_state() {
        let d = dir();
        let db = registrar(&d);
        // Enqueue without waiting, then shut down immediately: the
        // graceful path must still drain, sync, and apply everything.
        let pending: Vec<CommitHandle> = (0..5)
            .map(|i| {
                db.send(Request::commit(vec![
                    TxOp::Assert(f(&format!("ss(W{i}, m{i})"))),
                    TxOp::Assert(f(&format!("emp(W{i})"))),
                ]))
            })
            .collect();
        let last = pending.into_iter().last().unwrap().wait().unwrap();
        db.shutdown().unwrap();

        let (db2, report) = ServingDb::recover(&d, ServeOptions::default()).unwrap();
        assert!(report.torn_tail.is_none());
        assert_eq!(report.last_lsn, last.lsn);
        let snap = db2.snapshot();
        assert_eq!(snap.lsn(), last.lsn);
        for i in 0..5 {
            let q = parse(&format!("K person(W{i})")).unwrap();
            assert_eq!(snap.ask(&q), Answer::Yes);
        }
        db2.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn served_snapshots_explain_and_rejections_prove_their_witnesses() {
        let d = dir();
        let theory = Theory::from_text(
            "edge(a, b)\nforall x. forall y. edge(x, y) -> path(x, y)\n\
             forall x. forall y. forall z. edge(x, y) & path(y, z) -> path(x, z)",
        )
        .unwrap();
        let db = ServingDb::create(&d, theory, ServeOptions::default()).unwrap();
        db.commit_wait(vec![TxOp::Assert(f("edge(b, c)"))]).unwrap();
        let snap = db.snapshot();
        let q = match f("path(a, c)") {
            Formula::Atom(a) => a,
            other => panic!("expected atom, got {other}"),
        };
        let proof = snap.why(&q).expect("transitive tuple has a proof");
        assert!(proof.height() >= 2, "needs the recursive rule");

        db.add_constraint(f("forall x. ~K path(x, x)")).unwrap();
        let head = db.snapshot().lsn();
        let err = db
            .commit_wait(vec![TxOp::Assert(f("edge(c, a)"))])
            .unwrap_err();
        match err {
            ServeError::Db(DbError::ConstraintViolated(rej), lsn) => {
                assert_eq!(lsn, head, "rejection stamped with the head LSN");
                assert!(!rej.witnesses.is_empty(), "ground witness extracted");
                let proofs = rej.proofs();
                assert_eq!(proofs.len(), rej.witnesses.len(), "every witness proved");
                assert!(proofs
                    .iter()
                    .zip(&rej.witnesses)
                    .all(|(p, w)| p.atom() == w));
            }
            other => panic!("expected a stamped constraint rejection, got {other:?}"),
        }
        // The rejected candidate's proofs never reached the head.
        let cycle = match f("path(a, a)") {
            Formula::Atom(a) => a,
            other => panic!("expected atom, got {other}"),
        };
        assert!(db.snapshot().why(&cycle).is_none());
        db.shutdown().unwrap();

        // A recovered database explains what it knows just the same.
        let (db2, _) = ServingDb::recover(&d, ServeOptions::default()).unwrap();
        assert_eq!(db2.snapshot().why(&q), Some(proof));
        db2.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn noop_commit_acks_without_logging() {
        let d = dir();
        let db = registrar(&d);
        let r = db.commit_wait(vec![]).unwrap();
        assert_eq!(r.lsn, 1);
        assert_eq!(db.stats().commits, 0, "no-ops are not group members");
        db.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn noop_ack_waits_for_the_batch_mate_that_made_it_one() {
        // The second `ss(E1, n1)` is a no-op only because the first, not
        // yet synced, asserted it: when the batch fsync fails, both fail.
        let d = dir();
        let (mut writer, ep, inj) = registrar_writer(&d, FsyncPolicy::Never);
        let twice = || [vec!["ss(E1, n1)"], vec!["ss(E1, n1)"]];
        inj.fail_nth_sync(inj.syncs());
        let [first, second] = step_commits(&mut writer, twice());
        assert!(matches!(first.wait(), Err(ServeError::Io(_))));
        let second = second.wait();
        assert!(matches!(second, Err(ServeError::Io(_))), "got {second:?}");
        let q = parse("exists y. K ss(E1, y)").unwrap();
        assert_eq!(ep.snapshot().ask(&q), Answer::No);
        // Without a fault the no-op is acknowledged at its batch-mate's LSN.
        let (heal, healed) = Request::heal();
        writer.step(vec![heal]);
        healed.wait().unwrap();
        let [first, second] = step_commits(&mut writer, twice());
        let lsn = first.wait().unwrap().lsn;
        assert_eq!(second.wait().unwrap().lsn, lsn);
        assert_eq!(ep.stats().commits, 1, "no-ops are not group members");
        drop(writer);
        std::fs::remove_dir_all(d).unwrap();
    }

    /// Like [`registrar`], but on a log opened with `policy` and with a
    /// [`FaultInjector`] installed on it before the writer starts.
    fn registrar_with_injector(
        d: &Path,
        seed: u64,
        policy: FsyncPolicy,
    ) -> (ServingDb, Arc<crate::FaultInjector>) {
        let theory = Theory::from_text("forall x. emp(x) -> person(x)").unwrap();
        let mut durable = DurableDb::create(d, theory, policy).unwrap();
        let inj = Arc::new(crate::FaultInjector::new(seed));
        durable.set_fault_injector(Some(Arc::clone(&inj)));
        let db = ServingDb::start(durable, ServeOptions::default());
        db.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
            .unwrap();
        (db, inj)
    }

    #[test]
    fn fsync_failure_degrades_and_heal_restores() {
        let d = dir();
        let (db, inj) = registrar_with_injector(&d, 11, FsyncPolicy::Never);
        let acked = db
            .commit_wait(vec![
                TxOp::Assert(f("ss(Mary, n1)")),
                TxOp::Assert(f("emp(Mary)")),
            ])
            .unwrap();

        // Fail the next batch fsync: that batch's commit gets Io, the
        // writer drops to degraded read-only mode.
        inj.fail_nth_sync(inj.syncs());
        let err = db
            .commit_wait(vec![
                TxOp::Assert(f("ss(Sue, n2)")),
                TxOp::Assert(f("emp(Sue)")),
            ])
            .unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "failed batch: {err}");
        assert!(db.stats().degraded);
        let s = db.stats();
        assert!(s.degraded && s.io_errors >= 1);

        // Degraded: commits rejected fast, snapshots keep answering at
        // the durable head, flush holds there too.
        let err = db
            .commit_wait(vec![
                TxOp::Assert(f("ss(Ann, n3)")),
                TxOp::Assert(f("emp(Ann)")),
            ])
            .unwrap_err();
        assert!(matches!(err, ServeError::Degraded(_)), "got {err}");
        let snap = db.snapshot();
        assert_eq!(snap.ask(&parse("K person(Mary)").unwrap()), Answer::Yes);
        assert_eq!(snap.ask(&parse("K person(Sue)").unwrap()), Answer::No);
        assert_eq!(snap.lsn(), acked.lsn);
        assert_eq!(db.send(Request::flush()).wait().unwrap(), acked.lsn);

        // Heal (the injector has no further faults scheduled) and
        // resume write service.
        assert_eq!(db.send(Request::heal()).wait().unwrap(), acked.lsn);
        assert!(!db.stats().degraded);
        assert_eq!(db.stats().heals, 1);
        db.commit_wait(vec![
            TxOp::Assert(f("ss(Ann, n3)")),
            TxOp::Assert(f("emp(Ann)")),
        ])
        .unwrap();
        assert_eq!(
            db.snapshot().ask(&parse("K person(Ann)").unwrap()),
            Answer::Yes
        );
        db.shutdown().unwrap();

        // On disk: every acknowledged record, nothing of the failed batch.
        let (db2, report) = ServingDb::recover(&d, ServeOptions::default()).unwrap();
        assert!(report.torn_tail.is_none());
        let snap = db2.snapshot();
        assert_eq!(snap.ask(&parse("K person(Mary)").unwrap()), Answer::Yes);
        assert_eq!(snap.ask(&parse("K person(Ann)").unwrap()), Answer::Yes);
        assert_eq!(snap.ask(&parse("K person(Sue)").unwrap()), Answer::No);
        db2.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_compacted_healed_database_is_one_file() {
        let d = dir();
        let theory = Theory::from_text("forall x. emp(x) -> person(x)").unwrap();
        let mut durable = DurableDb::create(&d, theory, FsyncPolicy::Never).unwrap();
        durable.assert(f("emp(Mary)")).unwrap();
        let _ = durable.compact().unwrap();
        let inj = Arc::new(crate::FaultInjector::new(5));
        durable.set_fault_injector(Some(Arc::clone(&inj)));
        let db = ServingDb::start(durable, ServeOptions::default());
        db.commit_wait(vec![TxOp::Assert(f("emp(Sue)"))]).unwrap();
        inj.fail_nth_sync(inj.syncs());
        let lost = db.commit_wait(vec![TxOp::Assert(f("emp(Ann)"))]);
        assert!(matches!(lost, Err(ServeError::Io(_))), "{lost:?}");
        assert_eq!(db.send(Request::heal()).wait().unwrap(), 2);
        db.commit_wait(vec![TxOp::Assert(f("emp(Joe)"))]).unwrap();
        db.shutdown().unwrap();
        let (db, report) = ServingDb::recover(&d, ServeOptions::default()).unwrap();
        assert_eq!((report.checkpoint_lsn, report.records_replayed), (1, 2));
        assert_eq!(db.snapshot().ask(&f("K emp(Ann)")), Answer::No);
        db.shutdown().unwrap();
        let names: Vec<_> = std::fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [WAL_FILE]);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn append_failure_fails_only_that_commit() {
        let d = dir();
        let (db, inj) = registrar_with_injector(&d, 23, FsyncPolicy::Never);
        db.commit_wait(vec![
            TxOp::Assert(f("ss(Mary, n1)")),
            TxOp::Assert(f("emp(Mary)")),
        ])
        .unwrap();

        // A clean append failure, then a torn one: each fails only its
        // own commit; the writer rewinds the tear and keeps serving.
        inj.fail_nth_write(inj.writes(), FaultKind::FailOp);
        let err = db
            .commit_wait(vec![
                TxOp::Assert(f("ss(Sue, n2)")),
                TxOp::Assert(f("emp(Sue)")),
            ])
            .unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "got {err}");
        assert!(!db.stats().degraded, "append failure alone never degrades");

        inj.fail_nth_write(inj.writes(), FaultKind::TornWrite);
        let err = db
            .commit_wait(vec![
                TxOp::Assert(f("ss(Ann, n3)")),
                TxOp::Assert(f("emp(Ann)")),
            ])
            .unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "got {err}");
        assert!(!db.stats().degraded);

        let acked = db
            .commit_wait(vec![
                TxOp::Assert(f("ss(Zoe, n4)")),
                TxOp::Assert(f("emp(Zoe)")),
            ])
            .unwrap();
        assert_eq!(db.stats().io_errors, 2);
        db.shutdown().unwrap();

        // The torn prefix was rewound: the log replays cleanly and
        // holds exactly the acknowledged commits.
        let (db2, report) = ServingDb::recover(&d, ServeOptions::default()).unwrap();
        assert!(report.torn_tail.is_none());
        assert_eq!(report.last_lsn, acked.lsn);
        let snap = db2.snapshot();
        assert_eq!(snap.ask(&parse("K person(Mary)").unwrap()), Answer::Yes);
        assert_eq!(snap.ask(&parse("K person(Sue)").unwrap()), Answer::No);
        assert_eq!(snap.ask(&parse("K person(Zoe)").unwrap()), Answer::Yes);
        db2.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_commit_that_degrades_sees_the_database_degraded() {
        // The append fails, then the sync of its rewind: the log is no
        // longer trusted (`Corrupt`). The caller reads the flag right
        // after its reply, on a thread of its own, so the flag must be up
        // before that reply is sent, not only before the batch-mates'.
        for _ in 0..200 {
            let d = dir();
            let theory = Theory::from_text("forall x. emp(x) -> person(x)").unwrap();
            let mut durable = DurableDb::create(&d, theory, FsyncPolicy::Never).unwrap();
            let inj = Arc::new(crate::FaultInjector::new(0));
            inj.fail_nth_write(0, FaultKind::FailOp);
            inj.fail_nth_sync(0);
            durable.set_fault_injector(Some(inj));
            let db = ServingDb::start(durable, ServeOptions::default());
            let err = db.commit_wait(vec![TxOp::Assert(f("emp(Sue)"))]);
            assert!(matches!(err, Err(ServeError::Io(_))), "got {err:?}");
            assert!(db.stats().degraded, "a failed commit must see the flag");
            drop(db);
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn heal_fails_while_the_disk_still_fails() {
        let d = dir();
        let (db, inj) = registrar_with_injector(&d, 31, FsyncPolicy::Never);
        db.commit_wait(vec![
            TxOp::Assert(f("ss(Mary, n1)")),
            TxOp::Assert(f("emp(Mary)")),
        ])
        .unwrap();
        inj.set_sync_rate(1, 1); // every sync fails from here on
        let err = db
            .commit_wait(vec![
                TxOp::Assert(f("ss(Sue, n2)")),
                TxOp::Assert(f("emp(Sue)")),
            ])
            .unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "got {err}");
        assert!(db.stats().degraded);

        // The probe sync refuses: the heal fails, the database stays
        // degraded (and readable), and the heal stays retryable.
        let err = db.send(Request::heal()).wait().unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "got {err}");
        assert!(db.stats().degraded);
        assert_eq!(db.stats().heals, 0);
        assert_eq!(
            db.snapshot().ask(&parse("K person(Mary)").unwrap()),
            Answer::Yes
        );

        // "Fix the disk" and retry.
        inj.disarm();
        db.send(Request::heal()).wait().unwrap();
        assert!(!db.stats().degraded);
        db.commit_wait(vec![
            TxOp::Assert(f("ss(Sue, n2)")),
            TxOp::Assert(f("emp(Sue)")),
        ])
        .unwrap();
        db.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn heal_refuses_a_log_whose_acknowledged_record_does_not_decode() {
        let d = dir();
        let (db, inj) = registrar_with_injector(&d, 37, FsyncPolicy::Never);
        let acked = db
            .commit_wait(vec![
                TxOp::Assert(f("ss(Mary, n1)")),
                TxOp::Assert(f("emp(Mary)")),
            ])
            .unwrap();
        inj.set_sync_rate(1, 1);
        let err = db.commit_wait(vec![TxOp::Assert(f("ss(Sue, n2)"))]);
        assert!(matches!(err, Err(ServeError::Io(_))), "got {err:?}");
        assert!(db.stats().degraded);
        inj.disarm();
        // Mary's acknowledged record becomes one whose checksum matches
        // but whose sentence does not parse.
        let path = d.join(WAL_FILE);
        let scan = Wal::scan_file(&path).unwrap();
        let kept = scan.records.iter().take_while(|r| r.lsn < acked.lsn);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(kept.last().unwrap().end_offset as usize);
        bytes.extend(crate::wal::tests::frame(acked.lsn, b"assert emp("));
        std::fs::write(&path, &bytes).unwrap();

        let err = db.send(Request::heal()).wait().unwrap_err();
        let why = err.to_string();
        assert!(why.contains(&format!("LSN {}", acked.lsn)), "{why}");
        assert!(why.contains("does not decode"), "{why}");
        assert!(db.stats().degraded);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "a refused heal wrote");
        drop(db);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_request_dropped_unanswered_waits_to_closed() {
        let (req, h) = Request::commit(vec![]);
        let waiter = thread::spawn(move || h.wait());
        drop(req);
        let answer = waiter.join().unwrap();
        assert!(matches!(answer, Err(ServeError::Closed)), "got {answer:?}");
    }

    #[test]
    fn a_heal_that_panics_is_answered_and_the_writer_stays_degraded() {
        let d = dir();
        let (mut writer, ep, inj) = registrar_writer(&d, FsyncPolicy::Never);
        inj.fail_nth_sync(inj.syncs());
        let [lost] = step_commits(&mut writer, [vec!["ss(Sue, n2)", "emp(Sue)"]]);
        assert!(matches!(lost.wait(), Err(ServeError::Io(_))));
        let head = ep.snapshot().lsn();
        let log = d.join(WAL_FILE);
        let good = std::fs::read(&log).unwrap();
        // A checkpoint at the durable head whose constraint check panics:
        // over 100 facts, `K (p(x1) | … | p(x10))` has 100^10 answers to
        // walk, which overflows.
        let xs: Vec<String> = (1..=10).map(|i| format!("x{i}")).collect();
        let ps: Vec<String> = xs.iter().map(|x| format!("p({x})")).collect();
        let poison = crate::Snapshot {
            lsn: head,
            sentences: (0..100).map(|i| f(&format!("p(c{i})"))).collect(),
            constraints: vec![f(&format!(
                "forall {}. ~K ({})",
                xs.join(", "),
                ps.join(" | ")
            ))],
        };
        let _ = poison.write(&d).unwrap();

        let (heal, healed) = Request::heal();
        writer.step(vec![heal]);
        let healed = healed.wait();
        assert!(matches!(healed, Err(ServeError::Internal(_))), "{healed:?}");
        assert!(ep.stats().degraded);
        assert_eq!(ep.snapshot().lsn(), head);
        assert_eq!(ep.snapshot().ask(&f("K emp(Sue)")), Answer::No);
        let (flush, flushed) = Request::flush();
        writer.step(vec![flush]);
        assert_eq!(flushed.wait().unwrap(), head);

        // The log restored, the heal succeeds.
        std::fs::write(&log, good).unwrap();
        let (heal, healed) = Request::heal();
        writer.step(vec![heal]);
        assert_eq!(healed.wait().unwrap(), head);
        assert!(!ep.stats().degraded);
        let [hired] = step_commits(&mut writer, [vec!["ss(Sue, n2)", "emp(Sue)"]]);
        assert_eq!(hired.wait().unwrap().lsn, head + 1);
        drop(writer);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn flush_is_a_queue_barrier() {
        let d = dir();
        let (mut writer, _, _) = registrar_writer(&d, FsyncPolicy::Never);
        let (commit, h) = Request::commit(vec![
            TxOp::Assert(f("ss(Zoe, n9)")),
            TxOp::Assert(f("emp(Zoe)")),
        ]);
        let (flush, flushed) = Request::flush();
        writer.step(vec![commit, flush]);
        // The flush came after the commit, so its LSN covers it.
        assert_eq!(flushed.wait().unwrap(), h.wait().unwrap().lsn);
        drop(writer);
        std::fs::remove_dir_all(d).unwrap();
    }
}
