//! # epilog-server — serving the epistemic database over TCP
//!
//! A thin network skin over the concurrent serving layer: reads are
//! answered from lock-free MVCC snapshots
//! ([`ServingDb::snapshot`]), writes are queued to the single
//! group-committing writer thread. Each accepted connection gets its
//! own named session thread (`std::thread::Builder`), so
//! a slow client never blocks another — and no session ever blocks a
//! commit, because sessions share nothing but the `Arc`-swapped head
//! state and the commit queue.
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
//! | `demo <sentence>` | `ok rows <n> @<lsn>`, then `n` × `row <params>` |
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
//! [`ServingDb::heal`]. Sessions can be given a read timeout
//! ([`ServerOptions::read_timeout`]) after which an idle connection is
//! sent a final `err timeout …` line and closed — one wedged client
//! cannot pin a session thread forever. A request line is read up to
//! 1 MiB: a client that sends more without a newline is answered
//! `err request line too long (limit 1048576 bytes)` and closed the same
//! way, so no session buffers an unbounded line. A line that is not UTF-8
//! is answered `err request is not UTF-8` and the session goes on.

use epilog_persist::{PersistError, ServeError, ServeStats, ServingDb, TxOp};
use epilog_syntax::parse;
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

/// One client connection's state: the shared database plus the
/// session's open transaction, if any.
struct Session<'a> {
    db: &'a ServingDb,
    txn: Option<Vec<TxOp>>,
}

/// What a protocol line asks the connection loop to do after replying.
enum Disposition {
    Continue,
    Close,
    ShutdownServer,
}

impl<'a> Session<'a> {
    fn new(db: &'a ServingDb) -> Session<'a> {
        Session { db, txn: None }
    }

    /// Answer one request line. The response is one or more complete
    /// lines without a trailing newline. A request whose serving panics
    /// is answered `err internal error: …`, and the session goes on.
    fn handle(&mut self, line: &str) -> (String, Disposition) {
        let line = line.trim();
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        let reply = match verb {
            "quit" => return ("ok bye".into(), Disposition::Close),
            "shutdown" => return ("ok shutting-down".into(), Disposition::ShutdownServer),
            _ => panic::catch_unwind(AssertUnwindSafe(|| self.dispatch(verb, rest)))
                .unwrap_or_else(|panic| Err(ServeError::from_panic(panic).to_string())),
        };
        match reply {
            Ok(s) if s.is_empty() => ("ok".into(), Disposition::Continue),
            Ok(s) => (s, Disposition::Continue),
            Err(e) => (format!("err {e}"), Disposition::Continue),
        }
    }

    fn dispatch(&mut self, verb: &str, rest: &str) -> Result<String, String> {
        match verb {
            "" => Ok(String::new()),
            "ask" => self.ask(rest),
            "demo" => self.demo(rest),
            "why" => self.why(rest),
            "begin" => self.begin(),
            "assert" => self.op(rest, TxOp::Assert),
            "retract" => self.op(rest, TxOp::Retract),
            "commit" => self.commit(),
            "rollback" => self.rollback(),
            "constraint" => self.constraint(rest),
            "flush" => self.flush(),
            "heal" => self.heal(),
            "stats" => Ok(stats_line(self.db)),
            _ => Err(format!("unknown request {verb:?}")),
        }
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

    fn demo(&self, src: &str) -> Result<String, String> {
        let q = parse(src).map_err(|e| format!("parse: {e}"))?;
        let snap = self.db.snapshot();
        let rows = snap.demo_all(&q).map_err(|e| e.to_string())?;
        let mut out = format!("ok rows {} @{}", rows.len(), snap.lsn());
        for row in rows {
            out.push_str("\nrow");
            for p in row {
                out.push(' ');
                out.push_str(&p.to_string());
            }
        }
        Ok(out)
    }

    fn why(&self, src: &str) -> Result<String, String> {
        let q = parse(src).map_err(|e| format!("parse: {e}"))?;
        let epilog_syntax::Formula::Atom(atom) = q else {
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

    fn begin(&mut self) -> Result<String, String> {
        if self.txn.is_some() {
            return Err("transaction already open".into());
        }
        self.txn = Some(Vec::new());
        Ok("ok begin".into())
    }

    fn op(
        &mut self,
        src: &str,
        wrap: impl Fn(epilog_syntax::Formula) -> TxOp,
    ) -> Result<String, String> {
        let w = parse(src).map_err(|e| format!("parse: {e}"))?;
        match &mut self.txn {
            Some(ops) => {
                ops.push(wrap(w));
                Ok(format!("ok queued {}", ops.len()))
            }
            None => commit_ops(self.db, vec![wrap(w)]),
        }
    }

    fn commit(&mut self) -> Result<String, String> {
        let ops = self.txn.take().ok_or("no open transaction")?;
        commit_ops(self.db, ops)
    }

    fn rollback(&mut self) -> Result<String, String> {
        let ops = self.txn.take().ok_or("no open transaction")?;
        Ok(format!("ok rollback {}", ops.len()))
    }

    fn constraint(&self, src: &str) -> Result<String, String> {
        let ic = parse(src).map_err(|e| format!("parse: {e}"))?;
        let lsn = self.db.add_constraint(ic).map_err(not_written)?;
        Ok(format!("ok constraint @{lsn}"))
    }

    fn flush(&self) -> Result<String, String> {
        let lsn = self.db.flush().map_err(not_written)?;
        Ok(format!("ok flushed @{lsn}"))
    }

    fn heal(&self) -> Result<String, String> {
        let lsn = self
            .db
            .heal()
            .map_err(|e| format!("heal failed: {}", not_written(e)))?;
        Ok(format!("ok healed @{lsn}"))
    }
}

fn commit_ops(db: &ServingDb, ops: Vec<TxOp>) -> Result<String, String> {
    let r = db.commit_wait(ops).map_err(not_written)?;
    Ok(format!(
        "ok committed @{} +{} -{}",
        r.lsn, r.report.asserted, r.report.retracted
    ))
}

/// The text of the `err` line answering a write the writer did not
/// perform, the same for every write verb: a refusal is `rejected:` and
/// names the state it was checked on; anything else says what failed.
fn not_written(e: ServeError) -> String {
    match e {
        ServeError::Db(e, lsn) => format!("rejected: {e} @{lsn}"),
        e => e.to_string(),
    }
}

fn stats_line(db: &ServingDb) -> String {
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
    // Readers and the writer queue are shared through `inner`; the
    // transaction buffer is this session's alone.
    let mut session = Session::new(&inner.db);
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
        let (reply, disposition) = match std::str::from_utf8(&line) {
            Ok(line) => session.handle(line),
            Err(_) => ("err request is not UTF-8".into(), Disposition::Continue),
        };
        if write.write_all(reply.as_bytes()).is_err() || write.write_all(b"\n").is_err() {
            break;
        }
        let _ = write.flush();
        match disposition {
            Disposition::Continue => {}
            Disposition::Close => break,
            Disposition::ShutdownServer => {
                inner.request_shutdown();
                break;
            }
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
    use epilog_syntax::Theory;
    use std::path::PathBuf;

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

    fn serve(d: &std::path::Path) -> Server {
        let theory = Theory::from_text("forall x. emp(x) -> person(x)").unwrap();
        let db = ServingDb::create(d, theory, Default::default()).unwrap();
        Server::start(db, "127.0.0.1:0").unwrap()
    }

    #[test]
    fn protocol_round_trip_over_tcp() {
        let d = dir();
        let server = serve(&d);
        let mut c = Client::connect(server.local_addr()).unwrap();

        assert_eq!(
            c.request("constraint forall x. K emp(x) -> exists y. K ss(x, y)")
                .unwrap(),
            "ok constraint @1"
        );
        assert_eq!(c.request("ask K person(Mary)").unwrap(), "ok no @1");

        // A transaction: out-of-order ops are fine, validated at commit.
        assert_eq!(c.request("begin").unwrap(), "ok begin");
        assert_eq!(c.request("assert emp(Mary)").unwrap(), "ok queued 1");
        assert_eq!(c.request("assert ss(Mary, n1)").unwrap(), "ok queued 2");
        assert_eq!(c.request("commit").unwrap(), "ok committed @2 +2 -0");
        assert_eq!(c.request("ask K person(Mary)").unwrap(), "ok yes @2");

        // Constraint rejection: no ss number for Joe.
        let r = c.request("assert emp(Joe)").unwrap();
        assert!(r.starts_with("err rejected:"), "got {r}");
        assert_eq!(c.request("ask K emp(Joe)").unwrap(), "ok no @2");

        // demo returns the known employees.
        let rows = c.demo("exists x. K emp(x)").unwrap();
        assert_eq!(rows, vec![Vec::<String>::new()]);
        let rows = c.demo("K emp(x)").unwrap();
        assert_eq!(rows, vec![vec!["Mary".to_string()]]);

        // Parse errors and unknown verbs answer err without closing.
        assert!(c.request("ask ((").unwrap().starts_with("err parse:"));
        assert!(c.request("frobnicate").unwrap().starts_with("err unknown"));
        assert_eq!(c.request("rollback").unwrap(), "err no open transaction");

        let stats = c.request("stats").unwrap();
        assert!(stats.starts_with("ok stats commits=1 "), "got {stats}");
        // A definite database answers from its least model.
        assert!(stats.ends_with(" sat_calls=0 refuted=0"), "got {stats}");
        assert_eq!(c.request("quit").unwrap(), "ok bye");

        // Two clients see the same committed state.
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c2.request("ask K person(Mary)").unwrap(), "ok yes @2");

        let stats = server.shutdown().unwrap();
        assert_eq!(stats.commits, 1);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn stats_count_the_head_provers_solver_runs_and_refutations() {
        let d = dir();
        let theory = Theory::from_text(
            "Teach(John, Math)\nexists x. Teach(x, CS)\nTeach(Mary, Psych) | Teach(Sue, Psych)",
        )
        .unwrap();
        let db = ServingDb::create(&d, theory, Default::default()).unwrap();
        let server = Server::start(db, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let counters = |c: &mut Client| -> (u64, u64) {
            let stats = c.request("stats").unwrap();
            let field = |key: &str| {
                let rest = &stats[stats.find(key).expect(key) + key.len()..];
                let digits = rest.split(' ').next().unwrap();
                digits.parse().unwrap_or_else(|_| panic!("got {stats}"))
            };
            (field(" sat_calls="), field(" refuted="))
        };
        assert_eq!(counters(&mut c), (0, 0), "nothing is grounded unasked");
        assert_eq!(c.request("ask K Teach(John, Math)").unwrap(), "ok yes @0");
        // One run found ground Σ a model, one decided the fact.
        assert_eq!(counters(&mut c), (2, 0));
        assert_eq!(c.request("ask K Teach(Sue, Math)").unwrap(), "ok no @0");
        assert_eq!(counters(&mut c), (2, 1), "the kept model refutes it");
        // A commit publishes a new prover, which starts from zero.
        assert_eq!(
            c.request("assert Teach(Sue, Math)").unwrap(),
            "ok committed @1 +1 -0"
        );
        assert_eq!(counters(&mut c), (0, 0));
        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn why_and_stamped_rejections_over_tcp() {
        let d = dir();
        let theory = Theory::from_text(
            "edge(a, b)\nedge(b, c)\nforall x. forall y. edge(x, y) -> path(x, y)\n\
             forall x. forall y. forall z. edge(x, y) & path(y, z) -> path(x, z)",
        )
        .unwrap();
        let db = ServingDb::create(&d, theory, Default::default()).unwrap();
        let server = Server::start(db, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();

        let head = c.request("why path(a, c)").unwrap();
        assert!(head.starts_with("ok why "), "got {head}");
        let n: usize = head
            .strip_prefix("ok why ")
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(n >= 3, "conclusion plus two premises at least, got {n}");
        for _ in 0..n {
            let row = c.read_line().unwrap();
            assert!(row.starts_with("row "), "got {row}");
        }

        assert_eq!(c.request("why path(c, a)").unwrap(), "ok why none @0");
        assert!(c.request("why K edge(a, b)").unwrap().starts_with("err"));

        // Rejections carry the violated constraint, its ground
        // witnesses, and the LSN of the state they were checked on.
        assert_eq!(
            c.request("constraint forall x. ~K path(x, x)").unwrap(),
            "ok constraint @1"
        );
        let r = c.request("assert edge(c, a)").unwrap();
        assert!(r.starts_with("err rejected:"), "got {r}");
        assert!(r.ends_with("@1"), "got {r}");
        assert!(r.contains("witnesses"), "got {r}");

        let stats = c.request("stats").unwrap();
        assert!(
            stats.contains(" plan_recosts=0 io_errors=0 "),
            "got {stats}"
        );

        // A theory outside the definite fragment has no least model to
        // prove from.
        assert_eq!(
            c.request("assert edge(c, d) | edge(d, c)").unwrap(),
            "ok committed @2 +1 -0"
        );
        let r = c.request("why path(a, c)").unwrap();
        assert!(r.starts_with("err why needs a definite theory"), "got {r}");
        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn why_of_a_deep_chain_answers_and_the_session_lives_on() {
        // A proof one level per step: walking, rendering or dropping it
        // one stack frame per level would overflow the session thread.
        let d = dir();
        let mut src = String::from("r(n0)\nforall x, y. r(x) & next(x, y) -> r(y)\n");
        for i in 0..5_000 {
            src.push_str(&format!("next(n{i}, n{})\n", i + 1));
        }
        let db = ServingDb::create(&d, Theory::from_text(&src).unwrap(), Default::default());
        let server = Server::start(db.unwrap(), "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        // 5 000 derived steps, each with its `next` fact, over `r(n0)`.
        assert_eq!(c.request("why r(n5000)").unwrap(), "ok why 10001 @0");
        for _ in 0..10_001 {
            assert!(c.read_line().unwrap().starts_with("row "));
        }
        assert!(c.request("stats").unwrap().starts_with("ok stats "));
        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
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
    fn degraded_server_stays_readable_heals_and_retries_succeed() {
        use epilog_persist::{DurableDb, FaultInjector, FsyncPolicy};

        let d = dir();
        let theory = Theory::from_text("forall x. p(x) -> q(x)").unwrap();
        let mut durable = DurableDb::create(&d, theory, FsyncPolicy::Never).unwrap();
        let inj = Arc::new(FaultInjector::new(77));
        durable.set_fault_injector(Some(Arc::clone(&inj)));
        let db = ServingDb::start(durable, Default::default());
        let server = Server::start(db, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();

        assert_eq!(c.request("assert p(a)").unwrap(), "ok committed @1 +1 -0");

        // Break the disk: the in-flight commit fails with an io error
        // and the database degrades to read-only.
        inj.set_sync_rate(1, 1);
        let r = c.request("assert p(b)").unwrap();
        assert!(r.starts_with("err io error"), "got {r}");
        let r = c.request("assert p(c)").unwrap();
        assert!(r.starts_with("err degraded (read-only): "), "got {r}");
        // Every write verb answers the degraded database alike.
        let r = c.request("constraint forall x. K p(x) -> K q(x)").unwrap();
        assert!(r.starts_with("err degraded (read-only): "), "got {r}");
        assert_eq!(c.request("ask K q(a)").unwrap(), "ok yes @1");
        let stats = c.request("stats").unwrap();
        assert!(stats.contains("degraded=true"), "got {stats}");

        // Healing against a still-broken disk fails and stays retryable.
        let r = c.request("heal").unwrap();
        assert!(r.starts_with("err heal failed"), "got {r}");

        // Fix the disk and heal from a second session; the first one's
        // retried write then commits.
        inj.disarm();
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c2.request("heal").unwrap(), "ok healed @1");
        assert_eq!(c.request("assert p(b)").unwrap(), "ok committed @2 +1 -0");

        let stats = c.request("stats").unwrap();
        assert!(
            stats.contains("degraded=false") && stats.contains("heals=1"),
            "got {stats}"
        );
        assert_eq!(c.request("ask K q(b)").unwrap(), "ok yes @2");
        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn an_open_ask_is_refused_by_name() {
        let d = dir();
        let server = serve(&d);
        let mut c = Client::connect(server.local_addr()).unwrap();
        let r = c.request("ask K emp(x)").unwrap();
        assert!(
            r.starts_with("err ") && !r.starts_with("err internal"),
            "got {r}"
        );
        assert!(r.contains("`K emp(x)` has free variables"), "got {r}");
        assert_eq!(c.request("ask K emp(Mary)").unwrap(), "ok no @0");
        server.shutdown().unwrap();
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn an_unsatisfiable_theory_answers_every_ask_yes() {
        let d = dir();
        let theory = Theory::from_text("p(a)").unwrap();
        let db = ServingDb::create(&d, theory, Default::default()).unwrap();
        let server = Server::start(db, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.request("assert ~p(a)").unwrap(), "ok committed @1 +1 -0");
        assert_eq!(c.request("ask p(a)").unwrap(), "ok yes @1");
        assert_eq!(c.request("ask ~p(a)").unwrap(), "ok yes @1");
        server.shutdown().unwrap();
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
        let theory = Theory::from_text(&facts.join("\n")).unwrap();
        let db = ServingDb::create(&d, theory, Default::default()).unwrap();
        let server = Server::start(db, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let xs: Vec<String> = (1..=10).map(|i| format!("x{i}")).collect();
        let ps: Vec<String> = xs.iter().map(|x| format!("p({x})")).collect();
        let poison = format!("forall {}. ~K ({})", xs.join(", "), ps.join(" | "));
        let r = c.request(&format!("constraint {poison}")).unwrap();
        assert!(r.starts_with("err internal"), "got {r}");
        assert_eq!(c.request("assert p(b)").unwrap(), "ok committed @1 +1 -0");
        let r = c.request(&format!("demo K ({})", ps.join(" | "))).unwrap();
        assert!(r.starts_with("err internal"), "got {r}");
        assert_eq!(c.request("quit").unwrap(), "ok bye");
        server.shutdown().unwrap();
        let (db, report) = ServingDb::recover(&d, Default::default()).unwrap();
        assert_eq!(report.records_replayed, 1, "{report}");
        assert_eq!(db.snapshot().constraints().len(), 0);
        assert_eq!(
            db.snapshot().ask(&parse("K p(b)").unwrap()),
            epilog_core::Answer::Yes
        );
        db.shutdown().unwrap();
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
    fn a_deeply_nested_request_is_refused_and_the_server_goes_on() {
        // Parsing 20 000 `~` recursed once for each and overflowed the
        // session thread's stack, which aborted the whole server.
        let d = dir();
        let server = serve(&d);
        let mut c = Client::connect(server.local_addr()).unwrap();
        let r = c
            .request(&format!("ask {}p(a)", "~".repeat(20_000)))
            .unwrap();
        assert!(r.starts_with("err parse:"), "got {r}");
        assert!(r.contains("nested deeper than 256 levels"), "got {r}");
        assert!(c.request("stats").unwrap().starts_with("ok stats "));
        let mut other = Client::connect(server.local_addr()).unwrap();
        assert_eq!(other.request("ask K emp(Sue)").unwrap(), "ok no @0");
        server.shutdown().unwrap();
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
