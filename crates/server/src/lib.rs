//! # epilog-server — serving the epistemic database over TCP
//!
//! A thin network skin over the concurrent serving layer: reads are
//! answered from lock-free MVCC snapshots
//! ([`Endpoint::snapshot`]), writes are queued to the single
//! group-committing writer thread. Each accepted connection gets its
//! own named session thread (`std::thread::Builder`), so
//! a slow client never blocks another — and no session ever blocks a
//! commit, because sessions share nothing but the writer's [`Endpoint`]:
//! the `Arc`-swapped head state, the commit queue and the counters.
//!
//! The protocol is [`Session`], a state machine with no socket and no
//! thread of its own: it answers each request line with a [`Reply`],
//! finished or pending on the writer. The socket loop only frames lines —
//! it reads one, hands it to the session, waits on the reply and writes
//! it back. A test runs the same sessions on one thread over a
//! [`Writer`](epilog_persist::Writer) it steps itself.
//!
//! # Wire protocol
//!
//! Line-oriented UTF-8 text over TCP (`std::net`), one request per
//! line, answered with one `ok …`/`err …` line (plus `row` lines for
//! `demo`, announced by a count). Sentences use the `epilog-syntax`
//! grammar; responses that reflect committed state carry the snapshot
//! or commit LSN after an `@`.
//!
//! | request | response |
//! |---|---|
//! | `ask <sentence>` | `ok yes\|no\|unknown @<lsn>` (`ok yes` on an unsatisfiable theory, which entails every sentence); `err query … has free variables …` for an open formula (`demo` answers those) |
//! | `demo <sentence>` | `ok rows <n> @<lsn>`, then `n` × `row <params>`: each row's columns in the order the query's free variables first occur in its text, the rows sorted by their text, so a state answers the same bytes in every process |
//! | `why <atom>` | `ok why <n> @<lsn>`, then `n` × `row <proof line>`; `ok why none @<lsn>` when underivable; `err …` on a theory that is not definite |
//! | `begin` | `ok begin` |
//! | `assert <sentence>` | in txn `ok queued <n>`; else `ok committed @<lsn> +<a> -<r>` |
//! | `retract <sentence>` | likewise |
//! | `commit` | `ok committed @<lsn> +<a> -<r>` or `err rejected: … @<lsn>` |
//! | `rollback` | `ok rollback <n>` |
//! | `constraint <sentence>` | `ok constraint @<lsn>` or `err rejected: … @<lsn>`; on a degraded database `err degraded (read-only): …`, as every write |
//! | `flush` | `ok flushed @<lsn>` |
//! | `heal` | `ok healed @<lsn>` or `err heal failed: …` |
//! | `stats` | `ok stats commits=… rejected=… batches=… fsyncs=… plan_recosts=… io_errors=… heals=… degraded=… sat_calls=… refuted=…` (the last two: solver runs, and goals its kept model refuted without one, on the head state's prover) |
//! | `quit` | `ok bye`, connection closes |
//! | `shutdown` | `ok shutting-down`, server drains and exits |
//!
//! `begin`, `commit`, `rollback`, `flush`, `heal`, `stats`, `quit` and
//! `shutdown` take no argument: such a verb with anything after it is
//! answered `err <verb> takes no argument`, and the session goes on.
//!
//! A one-shot `assert`/`retract` outside `begin…commit` is a
//! single-operation transaction: validated, group-committed, and
//! acknowledged durable exactly like a batch.
//!
//! `why` works on any definite theory with nothing to switch on: it
//! derives the proof from the snapshot's least model when asked
//! ([`epilog_core::EpistemicDb::why`]), and each `row` line is one
//! indented step of the derivation, down to EDB facts. A rejected
//! commit's `err rejected:` line states the violated constraint and its
//! ground witnesses, stamped with the LSN of the state it was validated
//! against.
//!
//! # Robustness
//!
//! When the served database is in degraded read-only mode (an I/O
//! failure on the commit path), writes answer
//! `err degraded (read-only): …` while `ask`/`demo`/`why` keep
//! answering from snapshots; `heal` attempts the repair described at
//! [`Request::heal`]. Sessions can be given a read timeout
//! ([`ServerOptions::read_timeout`]) after which an idle connection is
//! sent a final `err timeout …` line and closed — one wedged client
//! cannot pin a session thread forever. A request line is read up to
//! 1 MiB: a client that sends more without a newline is answered
//! `err request line too long (limit 1048576 bytes)` and closed the same
//! way, so no session buffers an unbounded line. A line that is not UTF-8
//! is answered `err request is not UTF-8` and the session goes on.

use epilog_persist::{
    CommitHandle, CommitReceipt, Endpoint, PersistError, Request, ServeError, ServeStats,
    ServingDb, TxOp,
};
use epilog_syntax::{parse, Formula, Term, Var};
use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The longest request line a session reads, its newline excluded.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerOptions {
    /// Per-session read timeout: a connection that stays silent this
    /// long is sent a final `err timeout …` line and closed. `None`
    /// (the default) waits forever.
    pub read_timeout: Option<Duration>,
}

/// The wire protocol's state machine: one client's session over a
/// serving writer's [`Endpoint`]. It holds the endpoint and the session's
/// open transaction, if any, and does no I/O of its own: [`Session::handle`]
/// answers a request line with a [`Reply`], reading from the head state
/// and queueing writes. It waits for the writer only while the queue is
/// full, never for an answer.
///
/// The server runs one per connection and waits on each reply in turn. A
/// test on one thread can instead run any number of sessions over a
/// [`Writer`](epilog_persist::Writer) it steps itself: handle lines, pass
/// what they queued ([`Writer::drain`](epilog_persist::Writer::drain)) to
/// [`Writer::step`](epilog_persist::Writer::step), then read the replies.
pub struct Session {
    db: Endpoint,
    txn: Option<Vec<TxOp>>,
}

/// A session's answer to one request line.
pub enum Reply {
    /// The answer: one or more complete lines, without the last newline.
    Ready(String),
    /// A write queued to the writer, answered once the writer has served
    /// it.
    Pending(Pending),
    /// `quit`, answered `ok bye`: the connection closes after it.
    Quit,
    /// `shutdown`, answered `ok shutting-down`: the connection closes
    /// after it, and the server drains and stops.
    Shutdown,
}

impl Reply {
    /// The reply's text, one or more lines without the last newline. A
    /// pending reply blocks until the writer has answered its request.
    pub fn wait(self) -> String {
        match self {
            Reply::Ready(text) => text,
            Reply::Pending(Pending(print)) => print(),
            Reply::Quit => "ok bye".into(),
            Reply::Shutdown => "ok shutting-down".into(),
        }
    }
}

/// A queued write: its request's [`CommitHandle`] and how its outcome is
/// printed, as one closure that waits on the handle and prints what it
/// yields.
pub struct Pending(Box<dyn FnOnce() -> String + Send>);

/// The verbs that take no argument: a line with anything after one is
/// refused by name rather than served.
const NO_ARGUMENT: [&str; 8] = [
    "begin", "commit", "rollback", "flush", "heal", "stats", "quit", "shutdown",
];

impl Session {
    /// A session with no open transaction over `db`.
    pub fn new(db: Endpoint) -> Session {
        Session { db, txn: None }
    }

    /// Answer one request line. A request whose serving panics is
    /// answered `err internal error: …`, and the session goes on.
    pub fn handle(&mut self, line: &str) -> Reply {
        let line = line.trim();
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        if NO_ARGUMENT.contains(&verb) && !rest.is_empty() {
            return Reply::Ready(format!("err {verb} takes no argument"));
        }
        let reply = match verb {
            "quit" => return Reply::Quit,
            "shutdown" => return Reply::Shutdown,
            _ => panic::catch_unwind(AssertUnwindSafe(|| self.dispatch(verb, rest)))
                .unwrap_or_else(|panic| Err(ServeError::from_panic(panic).to_string())),
        };
        reply.unwrap_or_else(|e| Reply::Ready(format!("err {e}")))
    }

    fn dispatch(&mut self, verb: &str, rest: &str) -> Result<Reply, String> {
        Ok(match verb {
            "" => Reply::Ready("ok".into()),
            "ask" => Reply::Ready(self.ask(rest)?),
            "demo" => Reply::Ready(self.demo(rest)?),
            "why" => Reply::Ready(self.why(rest)?),
            "begin" if self.txn.is_some() => return Err("transaction already open".into()),
            "begin" => {
                self.txn = Some(Vec::new());
                Reply::Ready("ok begin".into())
            }
            "assert" => self.op(rest, TxOp::Assert)?,
            "retract" => self.op(rest, TxOp::Retract)?,
            "commit" => {
                let ops = self.txn.take().ok_or("no open transaction")?;
                self.send(Request::commit(ops), committed, "")
            }
            "rollback" => {
                let ops = self.txn.take().ok_or("no open transaction")?;
                Reply::Ready(format!("ok rollback {}", ops.len()))
            }
            "constraint" => {
                let req = Request::constraint(parse(rest).map_err(|e| format!("parse: {e}"))?);
                self.send(req, |lsn| format!("ok constraint @{lsn}"), "")
            }
            "flush" => self.send(Request::flush(), |lsn| format!("ok flushed @{lsn}"), ""),
            "heal" => self.send(
                Request::heal(),
                |lsn| format!("ok healed @{lsn}"),
                "heal failed: ",
            ),
            "stats" => Reply::Ready(stats_line(&self.db)),
            _ => return Err(format!("unknown request {verb:?}")),
        })
    }

    fn ask(&self, src: &str) -> Result<String, String> {
        let q = parse(src).map_err(|e| format!("parse: {e}"))?;
        if !q.is_sentence() {
            return Err(format!(
                "query `{q}` has free variables (demo answers open queries)"
            ));
        }
        let snap = self.db.snapshot();
        let verdict = match snap.ask(&q) {
            epilog_core::Answer::Yes => "yes",
            epilog_core::Answer::No => "no",
            epilog_core::Answer::Unknown => "unknown",
        };
        Ok(format!("ok {verdict} @{}", snap.lsn()))
    }

    /// `demo`'s answers, each row's columns in the order the query's free
    /// variables first occur in its text, the rows sorted by their text:
    /// one state answers the same bytes in every process, whatever order
    /// it interned its names in.
    fn demo(&self, src: &str) -> Result<String, String> {
        let q = parse(src).map_err(|e| format!("parse: {e}"))?;
        let snap = self.db.snapshot();
        let stream = snap.demo(&q).map_err(|e| e.to_string())?;
        let columns: Vec<usize> = text_order(&q)
            .iter()
            .map(|v| stream.vars().iter().position(|w| w == v).unwrap())
            .collect();
        let rows: BTreeSet<String> = stream
            .map(|row| {
                let mut line = String::from("row");
                for &c in &columns {
                    line.push(' ');
                    line.push_str(&row[c].to_string());
                }
                line
            })
            .collect();
        let mut out = format!("ok rows {} @{}", rows.len(), snap.lsn());
        for row in rows {
            out.push('\n');
            out.push_str(&row);
        }
        Ok(out)
    }

    fn why(&self, src: &str) -> Result<String, String> {
        let q = parse(src).map_err(|e| format!("parse: {e}"))?;
        let Formula::Atom(atom) = q else {
            return Err(format!("why needs a ground atom, got {q}"));
        };
        if !atom.is_ground() {
            return Err(format!("why needs a ground atom, got {atom}"));
        }
        let snap = self.db.snapshot();
        if snap.prover().atom_model().is_none() {
            return Err("why needs a definite theory (facts and positive rules)".into());
        }
        match snap.why(&atom) {
            Some(proof) => {
                let lines = proof.render();
                let mut out = format!("ok why {} @{}", lines.len(), snap.lsn());
                for l in lines {
                    out.push_str("\nrow ");
                    out.push_str(&l);
                }
                Ok(out)
            }
            None => Ok(format!("ok why none @{}", snap.lsn())),
        }
    }

    /// Buffer an operation in the open transaction, or commit it alone.
    fn op(&mut self, src: &str, wrap: impl Fn(Formula) -> TxOp) -> Result<Reply, String> {
        let op = wrap(parse(src).map_err(|e| format!("parse: {e}"))?);
        Ok(match &mut self.txn {
            Some(ops) => {
                ops.push(op);
                Reply::Ready(format!("ok queued {}", ops.len()))
            }
            None => self.send(Request::commit(vec![op]), committed, ""),
        })
    }

    /// The one way every write verb is served: queue its request, and
    /// print the writer's answer once it comes — with `print`, or, after
    /// `failed`, as the `err` line of a write the writer did not perform,
    /// the same for every verb: a refusal is `rejected:` and names the
    /// state it was checked on; anything else says what failed.
    fn send<T: Send + 'static>(
        &self,
        request: (Request, CommitHandle<T>),
        print: fn(T) -> String,
        failed: &'static str,
    ) -> Reply {
        let handle = self.db.send(request);
        Reply::Pending(Pending(Box::new(move || match handle.wait() {
            Ok(answer) => print(answer),
            Err(ServeError::Db(e, lsn)) => format!("err {failed}rejected: {e} @{lsn}"),
            Err(e) => format!("err {failed}{e}"),
        })))
    }
}

/// The free variables of `q` in the order they first occur in its text.
fn text_order(q: &Formula) -> Vec<Var> {
    let free = q.free_vars();
    let mut order = Vec::with_capacity(free.len());
    let mut stack = vec![q];
    while let Some(w) = stack.pop() {
        let terms: &[Term] = match w {
            Formula::Atom(a) => &a.terms,
            Formula::Eq(s, t) => &[*s, *t],
            _ => &[],
        };
        for t in terms {
            if let Term::Var(v) = t {
                if free.contains(v) && !order.contains(v) {
                    order.push(*v);
                }
            }
        }
        stack.extend(w.children().into_iter().rev());
    }
    order
}

fn committed(r: CommitReceipt) -> String {
    let (lsn, a, d) = (r.lsn, r.report.asserted, r.report.retracted);
    format!("ok committed @{lsn} +{a} -{d}")
}

fn stats_line(db: &Endpoint) -> String {
    let s = db.stats();
    let snap = db.snapshot();
    format!(
        "ok stats commits={} rejected={} batches={} fsyncs={} plan_recosts={} io_errors={} heals={} degraded={} sat_calls={} refuted={}",
        s.commits,
        s.rejected,
        s.batches,
        s.fsyncs,
        snap.plan_recosts(),
        s.io_errors,
        s.heals,
        s.degraded,
        snap.prover().sat_calls(),
        snap.prover().refuted()
    )
}

struct Inner {
    db: ServingDb,
    opts: ServerOptions,
    stop: AtomicBool,
    // Set when a session sends `shutdown`; Server::wait blocks on it.
    wanted: Mutex<bool>,
    bell: Condvar,
    sessions: Mutex<Vec<(JoinHandle<()>, TcpStream)>>,
}

impl Inner {
    fn request_shutdown(&self) {
        *self.wanted.lock().unwrap() = true;
        self.bell.notify_all();
    }
}

/// A running TCP server over one [`ServingDb`].
///
/// Start with [`Server::start`], connect with [`Client`] (or any
/// line-oriented TCP client), stop with [`Server::shutdown`] — which
/// drains the commit queue before returning, so an `ok committed`
/// answered to any client is on disk.
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serve `db` until [`Server::shutdown`].
    pub fn start(db: ServingDb, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Server::start_with(db, addr, ServerOptions::default())
    }

    /// [`Server::start`] with explicit [`ServerOptions`].
    pub fn start_with(
        db: ServingDb,
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            db,
            opts,
            stop: AtomicBool::new(false),
            wanted: Mutex::new(false),
            bell: Condvar::new(),
            sessions: Mutex::new(Vec::new()),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("epilog-accept".into())
                .spawn(move || accept_loop(&listener, &inner))?
        };
        Ok(Server {
            inner,
            accept: Some(accept),
            addr,
        })
    }

    /// The bound address (with the OS-chosen port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until some client sends `shutdown` (the binary's main
    /// thread parks here).
    pub fn wait_for_shutdown_request(&self) {
        let mut wanted = self.inner.wanted.lock().unwrap();
        while !*wanted {
            wanted = self.inner.bell.wait(wanted).unwrap();
        }
    }

    /// Graceful shutdown: stop accepting, close live sessions, join
    /// every thread, then drain and sync the commit queue. Returns the
    /// final writer counters.
    pub fn shutdown(mut self) -> Result<ServeStats, PersistError> {
        let inner = &self.inner;
        inner.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let sessions = std::mem::take(&mut *inner.sessions.lock().unwrap());
        for (handle, stream) in sessions {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
        let stats = inner.db.stats();
        let inner = Arc::try_unwrap(self.inner)
            .unwrap_or_else(|_| unreachable!("all session threads joined; no Inner clones remain"));
        inner.db.shutdown()?;
        Ok(stats)
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let spawned = {
            let inner = Arc::clone(inner);
            thread::Builder::new()
                .name("epilog-session".into())
                .spawn(move || session_loop(stream, &inner))
        };
        let Ok(handle) = spawned else {
            // The OS will not start a thread: refuse this client and keep
            // accepting — the next one may find room.
            let _ = (&peer).write_all(b"err busy: cannot start a session\n");
            let _ = peer.shutdown(Shutdown::Both);
            continue;
        };
        let mut sessions = inner.sessions.lock().unwrap();
        // Reap sessions whose threads already exited (clients that quit
        // or timed out), so a long-lived server's list stays bounded by
        // its *live* connections.
        sessions.retain(|(h, _)| !h.is_finished());
        sessions.push((handle, peer));
    }
}

fn session_loop(stream: TcpStream, inner: &Inner) {
    // The session is the protocol; this loop only frames its lines.
    let mut session = Session::new(Endpoint::clone(&inner.db));
    let _ = stream.set_read_timeout(inner.opts.read_timeout);
    let Ok(read) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read);
    let mut write = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an overlong line from one that fits.
        let mut capped = (&mut reader).take(MAX_REQUEST_LINE as u64 + 1);
        match capped.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // The configured idle timeout expired: tell the client
                // why (best effort) and free the session thread.
                let _ = write.write_all(b"err timeout: session idle too long, closing\n");
                let _ = write.flush();
                break;
            }
            Err(_) => break,
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_LINE && !line.ends_with(b"\n") {
            let refusal = format!("err request line too long (limit {MAX_REQUEST_LINE} bytes)\n");
            let _ = write.write_all(refusal.as_bytes());
            let _ = write.flush();
            break;
        }
        // The line is framed, so one that is not text is refused and the
        // session reads the next.
        let reply = match std::str::from_utf8(&line) {
            Ok(line) => session.handle(line),
            Err(_) => Reply::Ready("err request is not UTF-8".into()),
        };
        let shutdown = matches!(reply, Reply::Shutdown);
        let last = shutdown || matches!(reply, Reply::Quit);
        let reply = reply.wait();
        if write.write_all(reply.as_bytes()).is_err() || write.write_all(b"\n").is_err() {
            break;
        }
        let _ = write.flush();
        if shutdown {
            inner.request_shutdown();
        }
        if last {
            break;
        }
    }
    // Close the connection outright: the accept loop holds a clone of
    // this stream (for shutdown), so merely dropping ours would leave
    // the socket open and a well-behaved client blocked on a session
    // that no longer exists.
    let _ = write.shutdown(Shutdown::Both);
}

/// A minimal blocking client for the line protocol — what the example,
/// the soak test, and scripted sessions use.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Send one request line and read the one-line response.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_line()
    }

    /// Read one more response line (the `row` lines after a `demo`).
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// `demo` convenience: returns the answer rows as vectors of
    /// parameter names.
    pub fn demo(&mut self, sentence: &str) -> io::Result<Vec<Vec<String>>> {
        let head = self.request(&format!("demo {sentence}"))?;
        let n: usize = head
            .strip_prefix("ok rows ")
            .and_then(|r| r.split(' ').next())
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, head.clone()))?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let line = self.read_line()?;
            let row = line
                .strip_prefix("row")
                .unwrap_or(&line)
                .split_whitespace()
                .map(str::to_string)
                .collect();
            rows.push(row);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_persist::{DurableDb, FaultInjector, FsyncPolicy, Writer};
    use epilog_syntax::Theory;
    use proptest::prelude::*;
    use std::path::{Path, PathBuf};

    fn dir() -> PathBuf {
        use std::sync::atomic::AtomicU32;
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "epilog-server-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    const REGISTRAR: &str = "forall x. emp(x) -> person(x)";

    fn serve(d: &Path) -> Server {
        let theory = Theory::from_text(REGISTRAR).unwrap();
        let db = ServingDb::create(d, theory, Default::default()).unwrap();
        Server::start(db, "127.0.0.1:0").unwrap()
    }

    /// A served database on the test's own thread: a [`Writer`] stepped
    /// by hand and sessions over its endpoint. Each request's writes are
    /// stepped as a batch of their own before its reply is read, as a
    /// client that waits on each reply sees them served.
    struct Stepped {
        writer: Writer,
        endpoint: Endpoint,
        sessions: Vec<Session>,
    }

    impl Stepped {
        fn start(durable: DurableDb, sessions: usize) -> Stepped {
            let (writer, endpoint) = Writer::new(durable);
            let sessions = (0..sessions)
                .map(|_| Session::new(endpoint.clone()))
                .collect();
            Stepped {
                writer,
                endpoint,
                sessions,
            }
        }

        fn create(d: &Path, theory: &str) -> Stepped {
            let theory = Theory::from_text(theory).unwrap();
            Stepped::start(DurableDb::create(d, theory, FsyncPolicy::Never).unwrap(), 1)
        }

        /// Serve everything the sessions queued as one batch.
        fn step(&mut self) {
            let batch = self.writer.drain();
            self.writer.step(batch);
        }

        /// Session `s`'s whole reply to `line`.
        fn on(&mut self, s: usize, line: &str) -> String {
            let reply = self.sessions[s].handle(line);
            self.step();
            reply.wait()
        }

        fn request(&mut self, line: &str) -> String {
            self.on(0, line)
        }
    }

    #[test]
    fn protocol_round_trip() {
        let d = dir();
        let mut t = Stepped::create(&d, REGISTRAR);
        assert_eq!(
            t.request("constraint forall x. K emp(x) -> exists y. K ss(x, y)"),
            "ok constraint @1"
        );
        assert_eq!(t.request("ask K person(Mary)"), "ok no @1");

        // A transaction: out-of-order ops are fine, validated at commit.
        assert_eq!(t.request("begin"), "ok begin");
        assert_eq!(t.request("assert emp(Mary)"), "ok queued 1");
        assert_eq!(t.request("assert ss(Mary, n1)"), "ok queued 2");
        assert_eq!(t.request("commit"), "ok committed @2 +2 -0");
        assert_eq!(t.request("ask K person(Mary)"), "ok yes @2");

        // Constraint rejection: no ss number for Joe.
        let r = t.request("assert emp(Joe)");
        assert!(r.starts_with("err rejected:"), "got {r}");
        assert_eq!(t.request("ask K emp(Joe)"), "ok no @2");

        // demo returns the known employees.
        assert_eq!(t.request("demo exists x. K emp(x)"), "ok rows 1 @2\nrow");
        assert_eq!(t.request("demo K emp(x)"), "ok rows 1 @2\nrow Mary");

        // Parse errors and unknown verbs answer err; the session goes on.
        assert!(t.request("ask ((").starts_with("err parse:"));
        assert!(t.request("frobnicate").starts_with("err unknown"));
        assert_eq!(t.request("rollback"), "err no open transaction");
        assert_eq!(t.request(""), "ok");

        let stats = t.request("stats");
        assert!(stats.starts_with("ok stats commits=1 "), "got {stats}");
        // A definite database answers from its least model.
        assert!(stats.ends_with(" sat_calls=0 refuted=0"), "got {stats}");
        assert_eq!(t.request("quit"), "ok bye");
        assert!(matches!(t.sessions[0].handle("shutdown"), Reply::Shutdown));

        // A second session sees the same committed state.
        t.sessions.push(Session::new(t.endpoint.clone()));
        assert_eq!(t.on(1, "ask K person(Mary)"), "ok yes @2");
        assert_eq!(t.endpoint.stats().commits, 1);
        drop(t);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn demo_answers_in_text_order_whatever_was_interned_first() {
        // Symbol ids follow first interning: `y9041` before `x9041`,
        // `pb9041` before `pa9041`. The reply must follow neither.
        parse("f(y9041, x9041, pb9041, pa9041)").unwrap();
        let d = dir();
        let mut t = Stepped::create(
            &d,
            "e(pb9041, pb9041)\ne(pb9041, pa9041)\ne(pa9041, pb9041)",
        );
        let rows = "ok rows 3 @0\nrow pa9041 pb9041\nrow pb9041 pa9041\nrow pb9041 pb9041";
        assert_eq!(t.request("demo K e(x9041, y9041)"), rows);
        assert_eq!(t.request("demo K e(y9041, x9041)"), rows);
        assert_eq!(
            t.request("demo K e(x9041, y9041) & K e(y9041, y9041)"),
            "ok rows 2 @0\nrow pa9041 pb9041\nrow pb9041 pb9041"
        );
        drop(t);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn stats_count_the_head_provers_solver_runs_and_refutations() {
        let d = dir();
        let mut t = Stepped::create(
            &d,
            "Teach(John, Math)\nexists x. Teach(x, CS)\nTeach(Mary, Psych) | Teach(Sue, Psych)",
        );
        let counters = |t: &mut Stepped| -> (u64, u64) {
            let stats = t.request("stats");
            let field = |key: &str| {
                let rest = &stats[stats.find(key).expect(key) + key.len()..];
                let digits = rest.split(' ').next().unwrap();
                digits.parse().unwrap_or_else(|_| panic!("got {stats}"))
            };
            (field(" sat_calls="), field(" refuted="))
        };
        assert_eq!(counters(&mut t), (0, 0), "nothing is grounded unasked");
        assert_eq!(t.request("ask K Teach(John, Math)"), "ok yes @0");
        // One run found ground Σ a model, one decided the fact.
        assert_eq!(counters(&mut t), (2, 0));
        assert_eq!(t.request("ask K Teach(Sue, Math)"), "ok no @0");
        assert_eq!(counters(&mut t), (2, 1), "the kept model refutes it");
        // A commit publishes a new prover, which starts from zero.
        assert_eq!(
            t.request("assert Teach(Sue, Math)"),
            "ok committed @1 +1 -0"
        );
        assert_eq!(counters(&mut t), (0, 0));
        drop(t);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn why_and_stamped_rejections() {
        let d = dir();
        let mut t = Stepped::create(
            &d,
            "edge(a, b)\nedge(b, c)\nforall x. forall y. edge(x, y) -> path(x, y)\n\
             forall x. forall y. forall z. edge(x, y) & path(y, z) -> path(x, z)",
        );
        let why = t.request("why path(a, c)");
        let (head, rows) = why.split_once('\n').unwrap();
        let n: usize = head
            .strip_prefix("ok why ")
            .and_then(|r| r.strip_suffix(" @0"))
            .unwrap_or_else(|| panic!("got {head}"))
            .parse()
            .unwrap();
        assert!(n >= 3, "conclusion plus two premises at least, got {n}");
        assert_eq!(rows.lines().count(), n);
        assert!(
            rows.lines().all(|row| row.starts_with("row ")),
            "got {rows}"
        );

        assert_eq!(t.request("why path(c, a)"), "ok why none @0");
        assert!(t.request("why K edge(a, b)").starts_with("err"));

        // Rejections carry the violated constraint, its ground
        // witnesses, and the LSN of the state they were checked on.
        assert_eq!(
            t.request("constraint forall x. ~K path(x, x)"),
            "ok constraint @1"
        );
        let r = t.request("assert edge(c, a)");
        assert!(r.starts_with("err rejected:"), "got {r}");
        assert!(r.ends_with("@1"), "got {r}");
        assert!(r.contains("witnesses"), "got {r}");

        let stats = t.request("stats");
        assert!(
            stats.contains(" plan_recosts=0 io_errors=0 "),
            "got {stats}"
        );

        // A theory outside the definite fragment has no least model to
        // prove from.
        assert_eq!(
            t.request("assert edge(c, d) | edge(d, c)"),
            "ok committed @2 +1 -0"
        );
        let r = t.request("why path(a, c)");
        assert!(r.starts_with("err why needs a definite theory"), "got {r}");
        drop(t);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn why_of_a_deep_chain_answers_and_the_session_lives_on() {
        // A proof one level per step: walking, rendering or dropping it
        // one stack frame per level would overflow the session's stack.
        let d = dir();
        let mut src = String::from("r(n0)\nforall x, y. r(x) & next(x, y) -> r(y)\n");
        for i in 0..5_000 {
            src.push_str(&format!("next(n{i}, n{})\n", i + 1));
        }
        let mut t = Stepped::create(&d, &src);
        // 5 000 derived steps, each with its `next` fact, over `r(n0)`.
        let why = t.request("why r(n5000)");
        let mut lines = why.lines();
        assert_eq!(lines.next(), Some("ok why 10001 @0"));
        assert_eq!(lines.filter(|l| l.starts_with("row ")).count(), 10_001);
        assert!(t.request("stats").starts_with("ok stats "));
        drop(t);
        std::fs::remove_dir_all(d).unwrap();
    }

    /// Two clients' script, each line with the start of its expected
    /// reply, and the disk broken and fixed between lines.
    enum Act {
        Say(usize, &'static str, &'static str),
        BreakDisk,
        FixDisk,
    }

    /// Run `script`, asking through `say`, breaking and fixing `disk`.
    fn play(
        script: &[Act],
        disk: &FaultInjector,
        mut say: impl FnMut(usize, &str) -> String,
    ) -> Vec<String> {
        let mut replies = Vec::new();
        for act in script {
            match *act {
                Act::Say(who, line, want) => {
                    let reply = say(who, line);
                    assert!(reply.starts_with(want), "{line}: got {reply}");
                    replies.push(reply);
                }
                Act::BreakDisk => disk.set_sync_rate(1, 1),
                Act::FixDisk => disk.disarm(),
            }
        }
        replies
    }

    /// One request's whole reply over `c`: its first line, then the `row`
    /// lines that line announces.
    fn exchange(c: &mut Client, line: &str) -> String {
        let mut reply = c.request(line).unwrap();
        let rows = ["ok rows ", "ok why "]
            .iter()
            .find_map(|head| reply.strip_prefix(head)?.split(' ').next()?.parse().ok())
            .unwrap_or(0);
        for _ in 0..rows {
            reply.push('\n');
            reply.push_str(&c.read_line().unwrap());
        }
        reply
    }

    #[test]
    fn two_sessions_and_a_stepped_writer_answer_as_over_loopback() {
        use Act::{BreakDisk, FixDisk, Say};
        const A: usize = 0;
        const B: usize = 1;
        const DEGRADED: &str =
            "err degraded (read-only): log sync failed (injected fsync failure); recover the directory";
        let script = [
            Say(
                A,
                "constraint forall x. K p(x) -> exists y. K r(x, y)",
                "ok constraint @1",
            ),
            // Interleaved transactions: each session's buffer is its own.
            Say(A, "begin", "ok begin"),
            Say(B, "begin", "ok begin"),
            Say(A, "assert p(a)", "ok queued 1"),
            Say(B, "assert r(b, n2)", "ok queued 1"),
            Say(A, "assert r(a, n1)", "ok queued 2"),
            Say(B, "assert p(b)", "ok queued 2"),
            Say(B, "commit", "ok committed @2 +2 -0"),
            Say(A, "ask K q(a)", "ok no @2"),
            Say(A, "commit", "ok committed @3 +2 -0"),
            Say(B, "assert p(c)", "err rejected: update rejected: constraint `forall x. K p(x) -> (exists y. K r(x, y))` would be violated (witnesses: p(c)) @3"),
            Say(B, "demo K q(x)", "ok rows 2 @3\nrow "),
            Say(A, "begin", "ok begin"),
            Say(A, "assert p(d)", "ok queued 1"),
            // Break the disk: the in-flight commit fails with an io error
            // and the database degrades to read-only.
            BreakDisk,
            Say(B, "assert r(e, n5)", "err io error: batch fsync failed: io error: injected fsync failure"),
            Say(B, "assert r(e, n5)", DEGRADED),
            // An open transaction outlives the degrade.
            Say(A, "assert r(d, n4)", "ok queued 2"),
            // Every write verb answers the degraded database alike.
            Say(B, "constraint forall x. K q(x) -> K p(x)", DEGRADED),
            Say(B, "flush", "ok flushed @3"),
            Say(B, "ask K q(b)", "ok yes @3"),
            Say(B, "stats", "ok stats commits=2 rejected=1 batches=3 fsyncs=3 plan_recosts=2 io_errors=1 heals=0 degraded=true sat_calls=0 refuted=0"),
            // Healing against a still-broken disk fails and stays retryable.
            Say(A, "heal", "err heal failed: io error: heal probe sync failed: io error: injected fsync failure"),
            // Fix the disk and heal from the other session; the first
            // one's transaction then commits.
            FixDisk,
            Say(B, "heal", "ok healed @3"),
            Say(A, "commit", "ok committed @4 +2 -0"),
            Say(B, "why q(d)", "ok why 2 @4\nrow q(d) <= rule 0\nrow   p(d) (fact)"),
            Say(A, "stats", "ok stats commits=3 rejected=1 batches=4 fsyncs=4 plan_recosts=2 io_errors=1 heals=1 degraded=false sat_calls=0 refuted=0"),
            Say(B, "rollback", "err no open transaction"),
        ];
        let durable = |d: &Path| {
            let theory = Theory::from_text("forall x. p(x) -> q(x)").unwrap();
            let mut durable = DurableDb::create(d, theory, FsyncPolicy::Never).unwrap();
            let disk = Arc::new(FaultInjector::new(77));
            durable.set_fault_injector(Some(Arc::clone(&disk)));
            (durable, disk)
        };

        let d = dir();
        let (db, disk) = durable(&d);
        let mut t = Stepped::start(db, 2);
        let stepped = play(&script, &disk, |who, line| t.on(who, line));

        // Batch-mates from two sessions, which loopback cannot force: one
        // step serves both commits, the first is refused and spares the
        // second, and each reply carries the LSN of its own outcome.
        for (who, line) in [
            (B, "begin"),
            (B, "assert p(f)"),
            (A, "begin"),
            (A, "assert p(g)"),
            (A, "assert r(g, n7)"),
        ] {
            assert!(t.on(who, line).starts_with("ok "));
        }
        let before = t.endpoint.stats();
        let refused = t.sessions[B].handle("commit");
        let accepted = t.sessions[A].handle("commit");
        t.step();
        let refused = refused.wait();
        assert!(
            refused.starts_with("err rejected: ") && refused.ends_with(" @4"),
            "{refused}"
        );
        assert_eq!(accepted.wait(), "ok committed @5 +2 -0");
        let after = t.endpoint.stats();
        assert_eq!(
            (
                after.batches - before.batches,
                after.fsyncs - before.fsyncs,
                after.rejected - before.rejected
            ),
            (1, 1, 1)
        );
        drop(t);
        std::fs::remove_dir_all(d).unwrap();

        // The same script over loopback answers line for line the same.
        let d = dir();
        let (db, disk) = durable(&d);
        let server =
            Server::start(ServingDb::start(db, Default::default()), "127.0.0.1:0").unwrap();
        let mut clients: Vec<Client> = (0..2)
            .map(|_| Client::connect(server.local_addr()).unwrap())
            .collect();
        let wired = play(&script, &disk, |who, line| {
            exchange(&mut clients[who], line)
        });
        assert_eq!(wired, stepped);
        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn an_open_ask_is_refused_by_name() {
        let d = dir();
        let mut t = Stepped::create(&d, REGISTRAR);
        let r = t.request("ask K emp(x)");
        assert!(
            r.starts_with("err ") && !r.starts_with("err internal"),
            "got {r}"
        );
        assert!(r.contains("`K emp(x)` has free variables"), "got {r}");
        assert_eq!(t.request("ask K emp(Mary)"), "ok no @0");
        drop(t);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn an_unsatisfiable_theory_answers_every_ask_yes() {
        let d = dir();
        let mut t = Stepped::create(&d, "p(a)");
        assert_eq!(t.request("assert ~p(a)"), "ok committed @1 +1 -0");
        assert_eq!(t.request("ask p(a)"), "ok yes @1");
        assert_eq!(t.request("ask ~p(a)"), "ok yes @1");
        drop(t);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_repeated_constraint_is_acknowledged_at_the_current_lsn_and_logged_once() {
        let d = dir();
        let theory = Theory::from_text(REGISTRAR).unwrap();
        let durable = DurableDb::create(&d, theory, FsyncPolicy::Never).unwrap();
        let mut t = Stepped::start(durable, 2);
        let ic = "constraint forall x. K emp(x) -> exists y. K ss(x, y)";
        assert_eq!(t.request(ic), "ok constraint @1");
        assert_eq!(t.request(ic), "ok constraint @1");
        // Two sessions registering another one in one batch: the second
        // finds the first's, and both are answered once it is durable.
        let fd = "constraint forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z";
        let (a, b) = (t.sessions[0].handle(fd), t.sessions[1].handle(fd));
        t.step();
        assert_eq!(
            (a.wait(), b.wait()),
            ("ok constraint @2".into(), "ok constraint @2".into())
        );
        drop(t);
        let (db, report) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_eq!(report.records_replayed, 2, "{report}");
        assert_eq!(db.db().constraints().count(), 2);
        drop(db);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_request_that_panics_costs_that_request_only() {
        // Over 100 facts, `K (p(x1) | … | p(x10))` is one open leaf with
        // ten unbound variables: `prove` walks 100^10 tuples, which
        // overflows. As a constraint's check it panics the writer's step,
        // as a read the session's.
        let d = dir();
        let facts: Vec<String> = (0..100).map(|i| format!("p(c{i})")).collect();
        let mut t = Stepped::create(&d, &facts.join("\n"));
        let xs: Vec<String> = (1..=10).map(|i| format!("x{i}")).collect();
        let ps: Vec<String> = xs.iter().map(|x| format!("p({x})")).collect();
        let poison = format!("forall {}. ~K ({})", xs.join(", "), ps.join(" | "));
        let r = t.request(&format!("constraint {poison}"));
        assert!(r.starts_with("err internal"), "got {r}");
        assert_eq!(t.request("assert p(b)"), "ok committed @1 +1 -0");
        let r = t.request(&format!("demo K ({})", ps.join(" | ")));
        assert!(r.starts_with("err internal"), "got {r}");
        assert_eq!(t.request("ask K p(b)"), "ok yes @1");
        drop(t);
        let (db, report) = DurableDb::recover(&d, FsyncPolicy::Never).unwrap();
        assert_eq!(report.records_replayed, 1, "{report}");
        assert_eq!(db.db().constraints().len(), 0);
        drop(db);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_deeply_nested_request_is_refused_and_the_server_goes_on() {
        // Parsing 20 000 `~` recursed once for each and overflowed the
        // session thread's stack, which aborted the whole server.
        let d = dir();
        let mut t = Stepped::create(&d, REGISTRAR);
        let r = t.request(&format!("ask {}p(a)", "~".repeat(20_000)));
        assert!(r.starts_with("err parse:"), "got {r}");
        assert!(r.contains("nested deeper than 256 levels"), "got {r}");
        assert!(t.request("stats").starts_with("ok stats "));
        drop(t);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn an_atom_past_the_arity_limit_is_refused_and_the_session_goes_on() {
        let d = dir();
        let mut t = Stepped::create(&d, REGISTRAR);
        let wide = format!("q({})", vec!["a"; 256].join(", "));
        for request in [format!("ask K {wide}"), format!("assert {wide}")] {
            let r = t.request(&request);
            assert!(r.starts_with("err parse:"), "got {r}");
            assert!(r.contains("a predicate takes at most 255"), "got {r}");
        }
        assert_eq!(t.request("ask K emp(Sue)"), "ok no @0");
        assert!(t.request("stats").starts_with("ok stats commits=0 "));
        drop(t);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_verb_that_takes_no_argument_refuses_one_and_the_session_goes_on() {
        let d = dir();
        let mut t = Stepped::create(&d, REGISTRAR);
        assert_eq!(t.request("begin"), "ok begin");
        assert_eq!(t.request("assert emp(Sue)"), "ok queued 1");
        for (line, verb) in [
            ("commit forall x. emp(x)", "commit"),
            ("heal ),~ retract emp(Mary)", "heal"),
            ("shutdown junk", "shutdown"),
            ("quit forall(", "quit"),
            ("begin now", "begin"),
            ("rollback  all ", "rollback"),
            ("flush it", "flush"),
            ("stats please", "stats"),
        ] {
            assert_eq!(t.request(line), format!("err {verb} takes no argument"));
        }
        // Nothing was committed, rolled back or shut down: the open
        // transaction is still there, and commits as asked.
        assert_eq!(t.request("ask K emp(Sue)"), "ok no @0");
        assert_eq!(t.request("commit"), "ok committed @1 +1 -0");
        assert_eq!(t.request(" flush "), "ok flushed @1");
        assert_eq!(t.request("heal"), "ok healed @1");
        assert!(t.request("stats").starts_with("ok stats commits=1 "));
        assert_eq!(t.request("quit"), "ok bye");
        drop(t);
        std::fs::remove_dir_all(d).unwrap();
    }

    /// The request verbs.
    const VERBS: &str =
        "ask demo why begin assert retract commit rollback constraint flush heal stats quit shutdown";
    /// The grammar's words and symbols, and verbs out of place.
    const WORDS: &str =
        "K ~ & | -> <-> forall exists all some . ( ) , = != $ x y z1 a b p emp person ask commit";
    /// The theory's predicates.
    const PREDS: &str = "p emp ss person";
    /// Pieces of an atom's arguments: names, and the `$` escape beside
    /// characters that cannot start a name.
    const TERMS: &str = "a b x y1 Mary $ _ 1 ' #";

    /// One of the space-separated `words`.
    fn one_of(words: &'static str) -> impl Strategy<Value = String> {
        let words: Vec<&str> = words.split(' ').collect();
        (0..words.len()).prop_map(move |i| words[i].to_string())
    }

    /// A run of arbitrary bytes, read as UTF-8 lossily: a session only
    /// ever sees text.
    fn bytes() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u16..256, 1..4).prop_map(|bytes| {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        })
    }

    /// A request line: most often a verb and a space, then a body — up
    /// to 24 pieces, or up to 3, or one atom. A piece is a word, a space,
    /// an atom over the theory's predicates whose arguments are glued
    /// from term pieces and bytes, or bytes.
    fn garbage_line() -> impl Strategy<Value = String> {
        let verb = prop_oneof![
            4 => one_of(VERBS).prop_map(|verb| verb + " "),
            1 => Just(String::new()),
        ];
        let term = proptest::collection::vec(prop_oneof![4 => one_of(TERMS), 1 => bytes()], 1..3);
        let atom = (one_of(PREDS), proptest::collection::vec(term, 1..4)).prop_map(|(p, args)| {
            let args: Vec<String> = args.into_iter().map(|t| t.concat()).collect();
            format!("{p}({})", args.join(", "))
        });
        let piece = prop_oneof![
            6 => one_of(WORDS),
            4 => Just(" ".to_string()),
            2 => atom.clone(),
            1 => bytes(),
        ];
        let body = prop_oneof![
            2 => proptest::collection::vec(piece.clone(), 0..24).prop_map(|p| p.concat()),
            1 => proptest::collection::vec(piece, 1..4).prop_map(|p| p.concat()),
            1 => atom,
        ];
        (verb, body).prop_map(|(verb, body)| verb + &body)
    }

    proptest! {
        /// No line a client can send panics its session or the writer,
        /// every reply is an `ok` or an `err`, the session answers `stats`
        /// after all of them, and the log recovers to the head they left.
        #[test]
        fn garbage_lines_are_answered_and_the_session_goes_on(
            lines in proptest::collection::vec(garbage_line(), 1..8)
        ) {
            let d = dir();
            let mut t = Stepped::create(&d, "forall x. emp(x) -> person(x)\nemp(a)\nss(a, b)");
            for line in &lines {
                let reply = t.request(line);
                prop_assert!(
                    reply.starts_with("ok") || reply.starts_with("err"),
                    "{line:?}: got {reply:?}"
                );
                let bare = "begin commit rollback flush heal stats quit shutdown";
                if let Some((verb, rest)) = line.trim().split_once(' ') {
                    if bare.split(' ').any(|v| v == verb) && !rest.trim().is_empty() {
                        prop_assert_eq!(&reply, &format!("err {verb} takes no argument"));
                    }
                }
                prop_assert!(!reply.starts_with("err internal error"), "{line:?}: got {reply:?}");
            }
            let stats = t.request("stats");
            prop_assert!(stats.starts_with("ok stats "), "after {lines:?}: got {stats:?}");
            let head = t.endpoint.snapshot().lsn();
            drop(t);
            let recovered = DurableDb::recover(&d, FsyncPolicy::Never).map(|(db, _)| db.last_lsn());
            prop_assert!(recovered.as_ref().ok() == Some(&head), "after {lines:?}: {recovered:?}");
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    /// 20 `ask` round trips and one multi-row `demo`, each reply checked
    /// whole and in order, through `exchange` (send one request line,
    /// return the reply's lines). No time bound yet: replies still leave
    /// as two segments (`reply`, then `"\n"`), so every round trip waits
    /// ≈ 44 ms on Nagle's algorithm against the peer's delayed ACK. The
    /// change that sends one segment per message (ROADMAP item 1(a))
    /// raises this to 200 round trips inside 2 s.
    fn framing_round_trips(mut exchange: impl FnMut(&str, usize) -> Vec<String>) {
        for i in 0..10 {
            let reply = exchange(&format!("assert emp(e{i})"), 1);
            assert_eq!(reply, [format!("ok committed @{} +1 -0", i + 1)]);
        }
        for i in 0..20 {
            // Hired and never-hired employees interleave, so a reply out
            // of order or cut short cannot pass for the expected one.
            let verdict = if i % 3 == 0 { "yes" } else { "no" };
            let who = if i % 3 == 0 { i % 10 } else { 10 + i };
            let reply = exchange(&format!("ask K person(e{who})"), 1);
            assert_eq!(reply, [format!("ok {verdict} @10")], "ask {i}");
        }
        let rows = exchange("demo K emp(x)", 11);
        assert_eq!(rows[0], "ok rows 10 @10");
        let want: Vec<String> = (0..10).map(|i| format!("row e{i}")).collect();
        assert_eq!(rows[1..], want);
        assert_eq!(
            exchange("ask K emp(e3)", 1),
            ["ok yes @10"],
            "still in step"
        );
    }

    #[test]
    fn replies_arrive_whole_and_in_order_on_a_raw_socket() {
        let d = dir();
        let server = serve(&d);
        // No helper: a plain socket with default options, as any
        // third-party client would open it.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        framing_round_trips(|request, lines| {
            stream.write_all(format!("{request}\n").as_bytes()).unwrap();
            (0..lines)
                .map(|_| {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    assert!(line.ends_with('\n'), "complete line, got {line:?}");
                    line.trim_end().to_string()
                })
                .collect()
        });
        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn replies_arrive_whole_and_in_order_through_the_client() {
        let d = dir();
        let server = serve(&d);
        let mut c = Client::connect(server.local_addr()).unwrap();
        framing_round_trips(|request, lines| {
            let mut reply = vec![c.request(request).unwrap()];
            reply.extend((1..lines).map(|_| c.read_line().unwrap()));
            reply
        });
        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn idle_sessions_time_out_and_the_server_keeps_serving() {
        let d = dir();
        let theory = Theory::from_text("p(a)").unwrap();
        let db = ServingDb::create(&d, theory, Default::default()).unwrap();
        let opts = ServerOptions {
            read_timeout: Some(Duration::from_millis(60)),
        };
        let server = Server::start_with(db, "127.0.0.1:0", opts).unwrap();

        let mut idle = Client::connect(server.local_addr()).unwrap();
        assert_eq!(idle.request("ask K p(a)").unwrap(), "ok yes @0");
        // Stay silent past the timeout: the server sends a final err
        // line and closes the connection.
        let line = idle.read_line().unwrap();
        assert!(line.starts_with("err timeout"), "got {line}");
        assert!(idle.read_line().is_err(), "session closed after timeout");

        // The server is unharmed: the client reconnects and asks again.
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.request("ask K p(a)").unwrap(), "ok yes @0");

        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn an_overlong_request_line_closes_its_session_only() {
        let d = dir();
        let server = serve(&d);
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        // A server without the cap would wait for the newline forever.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // 2 MiB and no newline. The session stops reading at the cap, so
        // the flood is written from a thread of its own, whose write fails
        // once the session is gone.
        let flood = {
            let mut stream = stream.try_clone().unwrap();
            thread::spawn(move || {
                let _ = stream.write_all(&vec![b'a'; 2 << 20]);
            })
        };
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "err request line too long (limit 1048576 bytes)\n");
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).unwrap(),
            0,
            "then EOF: {line:?}"
        );

        let mut c = Client::connect(server.local_addr()).unwrap();
        assert!(c.request("stats").unwrap().starts_with("ok stats "));
        server.shutdown().unwrap();
        flood.join().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn a_request_line_that_is_not_utf8_is_refused_and_the_session_goes_on() {
        let d = dir();
        let server = serve(&d);
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.writer.write_all(b"ask p(\xff)\n").unwrap();
        assert!(c.read_line().unwrap().starts_with("err "));
        assert!(c.request("stats").unwrap().starts_with("ok stats "));
        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn shutdown_request_unparks_the_waiter() {
        let d = dir();
        let server = serve(&d);
        let addr = server.local_addr();
        let poker = thread::Builder::new()
            .name("epilog-test-poker".into())
            .spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                assert_eq!(c.request("shutdown").unwrap(), "ok shutting-down");
            })
            .unwrap();
        server.wait_for_shutdown_request();
        poker.join().unwrap();
        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }
}
