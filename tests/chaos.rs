//! One seeded, single-threaded simulator of the served stack: wire
//! sessions ([`Session`]) over one [`Writer`] stepped on this thread, the
//! storage under it failing on a seeded schedule, and crashes.
//!
//! Three sessions send request lines — the registrar's hires, fires,
//! numberless hires and renumberings (multi-op ones inside `begin …
//! commit`, some rolled back, interleaved across sessions), the Teach
//! world's disjunctions, a rule, constraints (one whose check panics
//! among them), `flush`, `heal`, `stats` and reads. [`Writer::drain`] hands what they
//! queued to [`Writer::step`] at seeded points, so the seed also cuts the
//! batches. Reader pins are taken and released. Each writer lifetime arms
//! a scripted [`FaultInjector`] schedule (failed, torn and short writes,
//! failed syncs); between lifetimes the log is compacted, half the time
//! with a fault armed, and a compaction that fails serves on the same
//! [`DurableDb`]. A degraded writer may be handed a checkpoint whose
//! constraint check panics, which its heal must survive.
//! A crash drops the writer, then cuts the real `wal.log` at every byte
//! length it has had since its last successful sync and recovers each
//! cut; some crashes then smear a torn record over the tail.
//!
//! One oracle (`tests/oracle`) judges everything: the sequential replay
//! of acknowledged operations in queue order, each state answered by a
//! database rebuilt from its sentences. The invariants:
//!
//! * **every reply line** is the oracle's: an `ok` write replays on it
//!   with the same LSN and counts, an `err internal error` panics there
//!   too, reads answer as the rebuilt state at the head LSN does,
//!   `begin` / `queued` / `rollback` follow the session's buffer, `stats`
//!   counts only logged commits and every refusal;
//! * **verdicts agree in fault-free batches**: a refusal is the oracle's,
//!   message and LSN; `flush` answers the head, `heal` the durable head;
//! * **the published head**, degraded or not, sits at the last
//!   acknowledged LSN and holds the oracle's state there; a pinned handle
//!   keeps answering its own state after later commits;
//! * **acknowledged durability and no resurrection**: every recovery — of
//!   the log as the crash left it and of every shorter cut since the last
//!   successful sync — succeeds and lands on the last acknowledged LSN
//!   with the oracle's theory, constraints and answers, and satisfies
//!   them;
//! * **recovery is idempotent**: a torn tail is gone after one recovery,
//!   and a second leaves the log byte-identical;
//! * nothing answers `err serving database is shut down` but requests a
//!   crash dropped before the writer took them.
//!
//! `EPILOG_SIM_SEED` picks the history (a seed replays bit for bit) and
//! `EPILOG_SIM_STEPS` the number of writer lifetimes (default 40).
//! `EPILOG_ENUM_K` (default 3) bounds the enumeration, which runs every
//! stream of up to `k` requests over hire, fire, numberless hire,
//! constraint and heal, every split of it into batches, every single
//! write fault of each [`FaultKind`] and sync fault the fault-free run
//! reaches, and after a degrade both exits, crash or heal-then-crash.

mod oracle;

use epilog::persist::wal::WAL_FILE;
use epilog::persist::{Endpoint, Snapshot, Writer};
use epilog::prelude::*;
use epilog::server::{Reply, Session};
use oracle::{Lcg, Oracle, Write, ICS};
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const READS: [&str; 10] = [
    "ask K emp(E0)",
    "ask exists y. K ss(E1, y)",
    "ask K person(E2)",
    "ask K emp(Ghost)",
    "ask K numbered(E3)",
    "ask exists x. K Teach(x, Q0)",
    "ask K (Teach(H1, Q1) | Teach(G1, Q1))",
    "ask Teach(G2, Q2)",
    "demo K emp(x)",
    "demo K numbered(x)",
];
const RULE: &str = "forall x, y. ss(x, y) -> numbered(x)";
const SESSIONS: usize = 3;
const KINDS: [FaultKind; 3] = [
    FaultKind::FailOp,
    FaultKind::TornWrite,
    FaultKind::ShortWrite,
];

/// The registrar's rule and a Teach fact.
fn base() -> String {
    format!("{}\nTeach(T1, C1)", oracle::REGISTRAR)
}

/// A constraint whose check walks `|domain|^70` answers, which
/// overflows on any domain of two or more parameters.
fn poison() -> String {
    let xs: Vec<String> = (1..=70).map(|i| format!("x{i}")).collect();
    let ps: Vec<String> = xs.iter().map(|x| format!("p({x})")).collect();
    format!("forall {}. ~K ({})", xs.join(", "), ps.join(" | "))
}

/// The poison's overflow is an expected answer, not a failure: keep its
/// panic message out of the output. A panic that escapes is reported by
/// [`within`], with its context.
fn quiet_overflow() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if message(info.payload()) != "answer space overflow" {
                default(info)
            }
        }));
    });
}

fn message(payload: &(dyn std::any::Any + Send)) -> &str {
    let text = payload.downcast_ref::<&str>().copied();
    text.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("")
}

/// Run `f`, failing with `ctx` before the message of any panic in it.
fn within<R>(ctx: impl FnOnce() -> String, f: impl FnOnce() -> R) -> R {
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    ran.unwrap_or_else(|panic| panic!("{}: {}", ctx(), message(&*panic)))
}

/// How long a queued write's reply may take. The writer is stepped on
/// the test's thread before any queued reply is waited on (or dropped,
/// in a crash), so every reply is due at once: one still missing after
/// this long never comes, and the run is failed rather than left hanging.
const REPLY_DEADLINE: Duration = Duration::from_secs(60);

/// The replies being waited on, per thread, with when the wait began and
/// what to print if it never ends.
#[derive(Default)]
struct Watchdog {
    waits: Mutex<HashMap<ThreadId, (Instant, String)>>,
    bell: Condvar,
}

impl Watchdog {
    /// The process's one watchdog, its thread started on first use and
    /// left detached: it watches until the process ends, and it ends the
    /// process itself when it fires.
    fn get() -> &'static Watchdog {
        static DOG: OnceLock<Watchdog> = OnceLock::new();
        static START: Once = Once::new();
        let dog = DOG.get_or_init(Watchdog::default);
        START.call_once(|| drop(std::thread::spawn(|| dog.watch())));
        dog
    }

    /// Sleep until the oldest wait passes the deadline, then print its
    /// context and end the process: the thread stuck in it cannot be
    /// interrupted, and a test binary that exits nonzero fails.
    fn watch(&self) {
        let mut waits = self.waits.lock().unwrap();
        loop {
            let oldest = waits.values().min_by_key(|(since, _)| *since);
            let Some((since, ctx)) = oldest else {
                waits = self.bell.wait(waits).unwrap();
                continue;
            };
            let waited = since.elapsed();
            if waited >= REPLY_DEADLINE {
                // Past the test harness's capture, which an exit loses.
                let mut stderr = std::io::stderr();
                let _ = writeln!(stderr, "no reply after {REPLY_DEADLINE:?}: {ctx}");
                std::process::exit(1);
            }
            waits = self
                .bell
                .wait_timeout(waits, REPLY_DEADLINE - waited)
                .unwrap()
                .0;
        }
    }
}

/// `reply`'s text; a queued one is waited on under the [`Watchdog`],
/// which fails the run with `ctx` if it takes [`REPLY_DEADLINE`].
fn wait(reply: Reply, ctx: impl FnOnce() -> String) -> String {
    if !matches!(reply, Reply::Pending(_)) {
        return reply.wait();
    }
    let dog = Watchdog::get();
    let me = std::thread::current().id();
    dog.waits
        .lock()
        .unwrap()
        .insert(me, (Instant::now(), ctx()));
    dog.bell.notify_one();
    let text = reply.wait();
    dog.waits.lock().unwrap().remove(&me);
    text
}

/// A fresh directory. A crash is simulated in process, so what a real
/// fsync adds is never observed: a RAM-backed one keeps runs fast.
fn scratch(name: &str) -> PathBuf {
    let shm = Some(PathBuf::from("/dev/shm")).filter(|shm| shm.is_dir());
    let tmp = shm.unwrap_or_else(std::env::temp_dir);
    let dir = tmp.join(format!("epilog-sim-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A session and what the simulator knows of it.
struct Client {
    session: Session,
    /// The open transaction's operations.
    txn: Option<Vec<TxOp>>,
    /// The rest of the request it is sending.
    script: VecDeque<String>,
    /// Whether its last line waits on the writer.
    waiting: bool,
}

/// A write queued to the writer: the session, its line, what the oracle
/// replays, the reply.
type Queued = (usize, String, Write, Reply);

/// One writer lifetime.
struct Live {
    writer: Writer,
    endpoint: Endpoint,
    clients: Vec<Client>,
    queued: Vec<Queued>,
    inj: Arc<FaultInjector>,
    /// The scripted write faults, and the injector's write and fault
    /// counts after the last step: a fault that is no scripted write is a
    /// failed sync.
    write_faults: Vec<u64>,
    writes: u64,
    injected: u64,
    /// What `stats` must count: logged commits and refusals.
    commits: u64,
    rejected: u64,
}

#[derive(Debug, Default, PartialEq)]
struct Counts {
    acked: u64,
    refused: u64,
    failed: u64,
    internal: u64,
    degraded: u64,
    heals: u64,
    poisoned_heals: u64,
    pins: u64,
    failed_compactions: u64,
    cuts: u64,
    torn: u64,
}

struct Sim {
    dir: PathBuf,
    cut: PathBuf,
    oracle: Oracle,
    live: Option<Live>,
    pins: Vec<ReadHandle>,
    /// The log's length at its last successful sync, and whether a sync
    /// failed while the writer served on, which keeps later syncs from
    /// counting until a heal or a recovery.
    synced: u64,
    frozen: bool,
    /// Whether the next recovery must find a torn tail.
    torn: bool,
    n: Counts,
    /// Which run this is — the seed and the writer lifetime, or the
    /// enumerated stream — for a reply that never comes.
    run: String,
}

impl Sim {
    /// A database created on `base` in `dir`, and its oracle.
    fn new(dir: &Path, base: &str, reads: &[&str]) -> Sim {
        let theory = Theory::from_text(base).unwrap();
        drop(DurableDb::create(dir.join("db"), theory, FsyncPolicy::Never).unwrap());
        Sim {
            dir: dir.join("db"),
            cut: dir.join("cut"),
            oracle: Oracle::new(base, reads),
            live: None,
            pins: Vec::new(),
            synced: 0,
            frozen: false,
            torn: false,
            n: Counts::default(),
            run: String::new(),
        }
    }

    fn wal(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// What the watchdog prints for session `c`'s reply to `line`.
    fn waiting_on(&self, c: usize, line: &str) -> String {
        format!("{}, session {c}, last line sent {line:?}", self.run)
    }

    fn live(&mut self) -> &mut Live {
        self.live.as_mut().expect("a writer is running")
    }

    /// Recover the directory and demand the oracle at the last
    /// acknowledged LSN; after a torn tail, recover again: the second finds
    /// none and leaves the log byte-identical.
    fn recover(&mut self) -> DurableDb {
        let lsn = self.oracle.lsn;
        let (first, report) = DurableDb::recover(&self.dir, FsyncPolicy::Never)
            .unwrap_or_else(|e| panic!("recovery failed: {e}"));
        assert_eq!(
            report.last_lsn, lsn,
            "recovery must land on the last acknowledged LSN \
             (lost an acknowledged operation if below, resurrected a failed one if above)"
        );
        assert_eq!(report.torn_tail.is_some(), self.torn, "{report}");
        self.oracle.check(first.db(), lsn, true, "recovery");
        assert!(
            first.db().satisfies_constraints(),
            "a constraint is violated"
        );
        self.frozen = false;
        self.synced = first.wal_bytes();
        if !std::mem::take(&mut self.torn) {
            return first;
        }
        // The first recovery cut the tail: the only write it makes.
        drop(first);
        let bytes = std::fs::read(self.wal()).unwrap();
        let (second, again) = DurableDb::recover(&self.dir, FsyncPolicy::Never).unwrap();
        assert!(again.torn_tail.is_none(), "a torn tail outlived a recovery");
        assert_eq!(again.last_lsn, lsn);
        let same = std::fs::read(self.wal()).unwrap() == bytes;
        assert!(same, "a second recovery changed the log");
        self.oracle
            .check(second.db(), lsn, true, "a second recovery");
        second
    }

    /// Serve `durable` through a writer with `sessions` sessions, `inj`
    /// failing the writes `write_faults` names and any syncs it likes.
    fn open(
        &mut self,
        mut durable: DurableDb,
        inj: FaultInjector,
        write_faults: Vec<u64>,
        sessions: usize,
    ) {
        let inj = Arc::new(inj);
        durable.set_fault_injector(Some(Arc::clone(&inj)));
        let (writer, endpoint) = Writer::new(durable);
        let client = |_| {
            let (session, script) = (Session::new(endpoint.clone()), VecDeque::new());
            Client {
                session,
                txn: None,
                script,
                waiting: false,
            }
        };
        self.live = Some(Live {
            clients: (0..sessions).map(client).collect(),
            writer,
            endpoint,
            queued: Vec::new(),
            inj,
            write_faults,
            writes: 0,
            injected: 0,
            commits: 0,
            rejected: 0,
        });
    }

    /// Send `line` on session `c`: a finished reply is judged now, a
    /// write is queued.
    fn line(&mut self, c: usize, line: &str) {
        let lsn = self.oracle.lsn;
        let live = self.live.as_mut().unwrap();
        let reply = live.clients[c].session.handle(line);
        let client = &mut live.clients[c];
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        let want = match (verb, &mut client.txn) {
            ("ask" | "demo", _) => {
                let i = READS.iter().position(|r| *r == line).unwrap();
                self.oracle.read(i, lsn)
            }
            ("stats", _) => {
                let (commits, rejected) = (live.commits, live.rejected);
                let text = wait(reply, || self.waiting_on(c, line));
                let want = format!("ok stats commits={commits} rejected={rejected} ");
                return assert!(text.starts_with(&want), "got {text}, want {want}…");
            }
            ("begin", Some(_)) => "err transaction already open".into(),
            ("begin", txn) => {
                *txn = Some(Vec::new());
                "ok begin".into()
            }
            ("rollback" | "commit", None) => "err no open transaction".into(),
            ("rollback", txn) => format!("ok rollback {}", txn.take().unwrap().len()),
            ("assert" | "retract", Some(ops)) => {
                ops.push(oracle::op(line).unwrap());
                format!("ok queued {}", ops.len())
            }
            (_, txn) => {
                let write = match verb {
                    "commit" => Write::Commit(txn.take().unwrap()),
                    "assert" | "retract" => Write::Commit(vec![oracle::op(line).unwrap()]),
                    "constraint" => Write::Constraint(parse(rest).unwrap()),
                    "flush" => Write::Flush,
                    _ => Write::Heal,
                };
                assert!(matches!(reply, Reply::Pending(_)), "{line} was not queued");
                client.waiting = true;
                return live.queued.push((c, line.to_string(), write, reply));
            }
        };
        assert_eq!(
            wait(reply, || self.waiting_on(c, line)),
            want,
            "session {c}: {line}"
        );
    }

    /// Step what the sessions queued as one batch, judge every reply in
    /// queue order, then the head.
    fn step(&mut self) {
        let live = self.live.as_mut().unwrap();
        let before = live.endpoint.stats();
        let batch = live.writer.drain();
        live.writer.step(batch);
        let head = self.oracle.lsn;
        let queued = std::mem::take(&mut live.queued).into_iter();
        let run = &self.run;
        let replies: Vec<_> = queued
            .map(|(c, l, w, reply)| {
                let text = wait(reply, || {
                    format!("{run}, session {c}, last line sent {l:?}")
                });
                (c, l, w, text)
            })
            .collect();
        let failed = |r: &str| r.starts_with("err io error") || r.starts_with("err degraded");
        let clean = !replies.iter().any(|(.., r)| failed(r));
        let mut flushes = Vec::new();
        for (c, line, write, reply) in replies {
            live.clients[c].waiting = false;
            let ctx = format!("session {c}: {line}");
            match &write {
                Write::Flush => flushes.push(reply),
                // A heal lands on the durable head, or the disk still fails.
                Write::Heal if reply.starts_with("ok ") => {
                    assert_eq!(reply, format!("ok healed @{head}"), "{ctx}");
                }
                Write::Heal => assert!(reply.starts_with("err heal failed: io error"), "{ctx}"),
                write if reply.starts_with("ok ") => {
                    let replayed = self.oracle.apply(write);
                    assert_eq!(Ok(reply.clone()), replayed, "{ctx}: acknowledged");
                    self.n.acked += 1;
                    if matches!(write, Write::Commit(_)) && !reply.ends_with(" +0 -0") {
                        live.commits += 1;
                    }
                }
                write if reply.starts_with("err rejected: ") => {
                    live.rejected += 1;
                    self.n.refused += 1;
                    if clean {
                        assert_eq!(Err(reply), self.oracle.apply(write), "{ctx}: refused");
                    }
                }
                write if reply.starts_with("err internal error") => {
                    self.n.internal += 1;
                    assert_eq!(Err(reply), self.oracle.apply(write), "{ctx}: panicked");
                }
                _ if failed(&reply) => self.n.failed += 1,
                _ => panic!("{ctx}: unexpected reply {reply}"),
            }
        }
        let lsn = self.oracle.lsn;
        for reply in flushes {
            assert_eq!(reply, format!("ok flushed @{lsn}"));
        }
        // The head, degraded or not, is the last acknowledged state.
        let stats = live.endpoint.stats();
        let snap = live.endpoint.snapshot();
        assert_eq!(
            snap.lsn(),
            lsn,
            "the head is not the last acknowledged state"
        );
        self.oracle
            .check(snap.db(), lsn, stats.degraded, "the head");
        self.n.degraded += u64::from(stats.degraded);
        self.n.heals += stats.heals - before.heals;
        // What a crash may cut back to. A failed sync says nothing about
        // what the log holds until a heal or a recovery reads it back, so
        // one the writer serves on past, not degraded and not healed,
        // keeps every later write from counting as synced.
        let (writes, injected) = (live.inj.writes(), live.inj.injected());
        let window = live.writes..writes;
        let torn = live.write_faults.iter().filter(|n| window.contains(n));
        let failed = injected - live.injected > torn.count() as u64;
        (live.writes, live.injected) = (writes, injected);
        let healed = stats.heals > before.heals;
        self.frozen = (self.frozen && !healed) || (failed && !healed && !stats.degraded);
        if !self.frozen && (stats.fsyncs > before.fsyncs || healed) {
            self.synced = std::fs::metadata(self.wal()).unwrap().len();
        }
    }

    /// Drop the writer, then recover the log cut at every length it has
    /// had since its last successful sync.
    fn crash(&mut self) {
        let live = self.live.take().unwrap();
        drop(live.writer);
        for (c, line, _, reply) in live.queued {
            let reply = wait(reply, || self.waiting_on(c, &line));
            assert!(reply.ends_with("database is shut down"), "{line}: {reply}");
        }
        let bytes = std::fs::read(self.wal()).unwrap();
        let lsn = self.oracle.lsn;
        for cut in self.synced.min(bytes.len() as u64)..bytes.len() as u64 {
            self.n.cuts += 1;
            let _ = std::fs::remove_dir_all(&self.cut);
            std::fs::create_dir_all(&self.cut).unwrap();
            std::fs::write(self.cut.join(WAL_FILE), &bytes[..cut as usize]).unwrap();
            let ctx = format!("the log cut at byte {cut} of {}", bytes.len());
            let (db, report) = DurableDb::recover(&self.cut, FsyncPolicy::Never)
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            let landed = report.last_lsn;
            assert_eq!(
                landed, lsn,
                "{ctx}: recovery must land on the last acknowledged LSN"
            );
            self.oracle.check(db.db(), lsn, false, &ctx);
        }
    }

    /// Smear a torn record of `shape` (0, 1 or 2) claiming LSN `at` over
    /// the log's tail, as a crash mid-append leaves one.
    fn tear(&mut self, at: u64, shape: u64) {
        use std::io::Write as _;
        let garbage = match shape {
            0 => format!("@{at} 5"),
            1 => format!("@{at} 6 12345\nxxxxxx\n"),
            _ => format!("@{at} 999999 0\npartial"),
        };
        let log = std::fs::OpenOptions::new().append(true).open(self.wal());
        log.unwrap().write_all(garbage.as_bytes()).unwrap();
        self.torn = true;
        self.n.torn += 1;
    }

    // ----- the seeded history ----------------------------------------------

    /// One writer lifetime: recover, maybe compact under a fault, arm a
    /// schedule, serve seeded lines, batches, pins and faults, crash.
    fn lifetime(&mut self, rng: &mut Lcg, first: bool) {
        let mut durable = self.recover();
        if !first {
            let inj = Arc::new(FaultInjector::new(rng.next()));
            match rng.below(6) {
                0 => inj.fail_nth_write(0, KINDS[rng.below(3) as usize]),
                1 => inj.fail_nth_sync(0),
                2 => inj.fail_nth_sync(1),
                _ => {}
            }
            durable.set_fault_injector(Some(inj));
            match durable.compact() {
                Ok(stats) => assert_eq!(stats.checkpoint_lsn, self.oracle.lsn),
                Err(_) => self.n.failed_compactions += 1,
            }
            self.synced = std::fs::metadata(self.wal()).unwrap().len();
        }
        // No faults, scripted failed syncs, scripted write faults, or
        // write faults beside a sync that fails one time in three.
        let inj = FaultInjector::new(rng.next());
        let shape = rng.below(4);
        for _ in 0..rng.below(3) * u64::from(shape == 1) {
            inj.fail_nth_sync(rng.below(8));
        }
        let mut write_faults = Vec::new();
        for _ in 0..(1 + rng.below(2)) * u64::from(shape >= 2) {
            let n = rng.below(4);
            if !write_faults.contains(&n) {
                write_faults.push(n);
                inj.fail_nth_write(n, KINDS[rng.below(3) as usize]);
            }
        }
        if shape == 3 {
            inj.set_sync_rate(1, 3);
        }
        self.open(durable, inj, write_faults, SESSIONS);
        if first {
            for ic in ICS {
                self.line(0, &format!("constraint {ic}"));
                self.step();
            }
        }
        for _ in 0..8 + rng.below(24) {
            match rng.below(16) {
                0..=8 => self.advance(rng),
                9..=11 => self.step(),
                12 if self.pins.len() < 3 => {
                    let pin = self.live().endpoint.snapshot();
                    self.pins.push(pin);
                    self.n.pins += 1;
                }
                12 | 13 if !self.pins.is_empty() => {
                    let i = rng.below(self.pins.len() as u64) as usize;
                    let pin = self.pins.swap_remove(i);
                    self.oracle
                        .check(pin.db(), pin.lsn(), true, "a pinned handle");
                }
                _ if self.live().endpoint.stats().degraded => match rng.below(4) {
                    0 => self.live().inj.disarm(),
                    1 => self.poisoned_heal(),
                    _ => self.advance(rng),
                },
                _ => self.advance(rng),
            }
        }
        if rng.below(2) == 0 {
            self.step();
        }
        self.crash();
        if rng.below(3) == 0 {
            self.tear(1 + rng.below(900), rng.below(3));
        }
    }

    /// Send the next line of a seeded session's request, drawing a new
    /// request when it has none left; step first if every session waits.
    fn advance(&mut self, rng: &mut Lcg) {
        let clients = &self.live().clients;
        let ready: Vec<usize> = (0..SESSIONS).filter(|&c| !clients[c].waiting).collect();
        if ready.is_empty() {
            return self.step();
        }
        let c = ready[rng.below(ready.len() as u64) as usize];
        if self.live().clients[c].script.is_empty() {
            let roll = rng.next() >> 16;
            let pick = |words: &[&str]| words[roll as usize % words.len()].to_string();
            let request = match rng.below(16) {
                0..=4 => oracle::registrar(roll),
                5 => oracle::hire(roll % oracle::PEOPLE).replace("commit", "rollback"),
                6 | 7 => oracle::teach(roll),
                8 => pick(&["assert", "retract"]) + " " + RULE,
                9 => format!("constraint {}", pick(&[ICS[0], ICS[1], &poison()])),
                10..=12 => pick(&["flush", "heal", "stats"]),
                13 => pick(&["commit", "rollback", "begin"]),
                _ => pick(&READS),
            };
            self.live().clients[c].script = request.lines().map(String::from).collect();
        }
        let line = self.live().clients[c].script.pop_front().unwrap();
        self.line(c, &line);
    }

    /// The storage hands a degraded writer's heal a checkpoint whose
    /// constraint check panics: the heal fails, the writer stays degraded
    /// at its head, and heals once the log is whole again.
    fn poisoned_heal(&mut self) {
        if !self.live().queued.is_empty() {
            return;
        }
        let (good, lsn) = (std::fs::read(self.wal()).unwrap(), self.oracle.lsn);
        let mut bad = Snapshot::of(self.oracle.db(), lsn, false);
        bad.constraints.push(parse(&poison()).unwrap());
        let _ = bad.write(&self.dir).unwrap();
        let mut session = Session::new(self.live().endpoint.clone());
        let reply = session.handle("heal");
        let run = format!("{}, a poisoned heal", self.run);
        let live = self.live();
        let batch = live.writer.drain();
        live.writer.step(batch);
        let reply = wait(reply, || run);
        assert!(
            reply.starts_with("err heal failed: internal error"),
            "{reply}"
        );
        assert!(
            live.endpoint.stats().degraded,
            "a failed heal left degraded mode"
        );
        assert_eq!(live.endpoint.snapshot().lsn(), lsn);
        std::fs::write(self.wal(), good).unwrap();
        self.n.poisoned_heals += 1;
    }
}

/// A seeded history of writer lifetimes.
fn history(seed: u64, lifetimes: u64) -> Counts {
    let dir = scratch(&format!("history-{seed}"));
    let (mut sim, mut rng) = (Sim::new(&dir, &base(), &READS), Lcg(seed));
    for i in 0..lifetimes {
        let here = format!("seed {seed}, lifetime {i}");
        sim.run.clone_from(&here);
        within(|| here, || sim.lifetime(&mut rng, i == 0));
    }
    drop(sim.recover());
    for pin in std::mem::take(&mut sim.pins) {
        sim.oracle
            .check(pin.db(), pin.lsn(), true, "a pinned handle");
    }
    std::fs::remove_dir_all(dir).unwrap();
    sim.n
}

#[test]
fn chaos_crash_recover_continue_soak() {
    quiet_overflow();
    let seed = oracle::env("EPILOG_SIM_SEED", 3);
    let lifetimes = oracle::env("EPILOG_SIM_STEPS", 40);
    let n = history(seed, lifetimes);
    eprintln!("simulator: seed {seed}, {lifetimes} lifetimes: {n:?}");
    assert!(n.acked > 0 && n.refused > 0 && n.internal > 0 && n.pins > 0);
    if lifetimes >= 40 {
        assert!(n.failed > 0 && n.degraded > 0 && n.heals > 0 && n.poisoned_heals > 0);
        assert!(n.failed_compactions > 0 && n.torn > 0);
    }
}

/// Every torn tail a crash mid-append can leave is cut by the first
/// recovery, which lands on the oracle; a second recovery finds none,
/// answers as the first and leaves the log byte-identical.
#[test]
fn recovery_is_idempotent() {
    let dir = scratch("idem");
    let mut sim = Sim::new(&dir, &base(), &READS);
    for round in 0..6 {
        sim.run = format!("recovery_is_idempotent, round {round}");
        let durable = sim.recover();
        sim.open(durable, FaultInjector::new(0), vec![], 1);
        if round == 0 {
            for ic in ICS {
                sim.line(0, &format!("constraint {ic}"));
                sim.step();
            }
        }
        for line in oracle::hire(round).lines() {
            sim.line(0, line);
        }
        sim.step();
        sim.crash();
        sim.tear(sim.oracle.lsn + round % 2, round % 3);
    }
    drop(sim.recover());
    assert_eq!((sim.n.acked, sim.n.torn), (8, 6));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_seed_replays_bit_for_bit() {
    quiet_overflow();
    assert_eq!(history(7, 6), history(7, 6));
}

// ----- the enumeration ---------------------------------------------------

/// The enumeration's alphabet: hire, fire, numberless hire, the first
/// constraint (refused once a numberless hire is in), heal.
fn request(op: usize) -> String {
    match op {
        0 => oracle::hire(0),
        1 => oracle::fire(0),
        2 => oracle::BAD.into(),
        3 => format!("constraint {}", ICS[0]),
        _ => "heal".into(),
    }
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    Write(u64, FaultKind),
    Sync(u64),
}

/// Run `stream`, a batch ending after request `i` when bit `i` of `cuts`
/// is set and after the last, under `fault`, then heal (if asked) and
/// crash. Returns the writes and syncs the run performed and whether it
/// degraded.
fn run(
    sim: &mut Sim,
    genesis: &[u8],
    stream: &[usize],
    cuts: u32,
    fault: Fault,
    heal: bool,
) -> (u64, u64, bool) {
    std::fs::write(sim.wal(), genesis).unwrap();
    let (durable, _) = DurableDb::recover(&sim.dir, FsyncPolicy::Never).unwrap();
    sim.synced = durable.wal_bytes();
    let inj = FaultInjector::new(0);
    let write_faults = match fault {
        Fault::None => vec![],
        Fault::Write(n, kind) => {
            inj.fail_nth_write(n, kind);
            vec![n]
        }
        Fault::Sync(n) => {
            inj.fail_nth_sync(n);
            vec![]
        }
    };
    sim.open(durable, inj, write_faults, stream.len());
    let mut c = 0;
    for (i, &op) in stream.iter().enumerate() {
        for line in request(op).lines() {
            sim.line(c, line);
        }
        c += 1;
        if i + 1 == stream.len() || cuts & 1 << i != 0 {
            sim.step();
            c = 0;
        }
    }
    let live = sim.live();
    let seen = (
        live.inj.writes(),
        live.inj.syncs(),
        live.endpoint.stats().degraded,
    );
    if heal {
        live.inj.disarm();
        sim.line(0, "heal");
        sim.step();
        assert!(
            !sim.live().endpoint.stats().degraded,
            "still degraded after a heal"
        );
    }
    sim.crash();
    drop(sim.recover());
    seen
}

#[test]
fn every_small_stream_split_and_single_fault_keeps_acked_equal_durable() {
    quiet_overflow();
    let k = oracle::env("EPILOG_ENUM_K", 3) as usize;
    let dir = scratch("enum");
    let mut sim = Sim::new(&dir, oracle::REGISTRAR, &READS[..5]);
    let (genesis, oracle) = (std::fs::read(sim.wal()).unwrap(), sim.oracle.clone());
    let (mut streams, mut runs, mut degraded) = (0u64, 0u64, 0u64);
    for len in 1..=k {
        for code in 0..5usize.pow(len as u32) {
            let stream: Vec<usize> = (0..len).map(|i| code / 5usize.pow(i as u32) % 5).collect();
            streams += 1;
            for cuts in 0..1u32 << (len - 1) {
                let mut go = |fault, heal| {
                    runs += 1;
                    sim.oracle = oracle.clone();
                    let here = format!("stream {stream:?}, cuts {cuts:b}, {fault:?}, heal {heal}");
                    sim.run.clone_from(&here);
                    within(
                        || here,
                        || run(&mut sim, &genesis, &stream, cuts, fault, heal),
                    )
                };
                let (writes, syncs, _) = go(Fault::None, false);
                let writes = (0..writes).flat_map(|n| KINDS.map(|kind| Fault::Write(n, kind)));
                for fault in writes.chain((0..syncs).map(Fault::Sync)) {
                    if go(fault, false).2 {
                        degraded += 1;
                        go(fault, true);
                    }
                }
            }
        }
    }
    eprintln!(
        "enumeration: k = {k}, {streams} streams, {runs} runs, {degraded} degraded and healed"
    );
    assert!(degraded > 0, "no fault ever degraded the writer");
    std::fs::remove_dir_all(dir).unwrap();
}
