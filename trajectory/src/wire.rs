//! The wire side: build a database directory, serve it with the real
//! `epilog-server`, drive it closed-loop over loopback TCP, check every
//! reply, then kill the server and audit the log.

use crate::gen::{Body, Kind, Op, OpStream, Outcome, Workload, CONNECTIONS};
use crate::stats::mean;
use epilog_persist::{DurableDb, FsyncPolicy, Wal};
use epilog_syntax::{parse, Theory};
use std::collections::{BTreeSet, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// A hung server must fail the run, not hang it past the driver's limit.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A database directory that is removed on every exit path, panics
/// included.
pub struct DataDir(PathBuf);

impl DataDir {
    /// A fresh, empty directory under `root`.
    pub fn fresh(root: &Path, label: &str) -> io::Result<DataDir> {
        static N: AtomicU32 = AtomicU32::new(0);
        let path = root.join(format!(
            "{label}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(DataDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Copy this directory's files (a log and its snapshots) into a
    /// fresh sibling.
    pub fn copy(&self, root: &Path, label: &str) -> io::Result<DataDir> {
        let to = DataDir::fresh(root, label)?;
        for entry in std::fs::read_dir(&self.0)? {
            let entry = entry?;
            std::fs::copy(entry.path(), to.0.join(entry.file_name()))?;
        }
        Ok(to)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The server child: killed and reaped on every exit path. A stray
/// server spinning on a core skews every number taken after it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// The server binary beside this one, or why the benchmark cannot run.
    pub fn locate() -> Result<PathBuf, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
        let path = exe.with_file_name("epilog-server");
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "{} not found: the benchmark drives the real server binary. Run \
                 `cargo build --release` at the repository root with the same target \
                 directory (or use trajectory/run.sh, which builds both)",
                path.display()
            ))
        }
    }

    pub fn spawn(binary: &Path, dir: &Path) -> io::Result<Server> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let addr = BufReader::new(stdout)
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().rsplit(' ').next()?.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "epilog-server did not announce its address (said {line:?})"
            )));
        };
        Ok(Server { child, addr })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, as a crash would: no drain, no final sync.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A served database. The server is declared first so it is gone before
/// its directory is removed.
pub struct Served {
    pub server: Server,
    pub dir: DataDir,
}

/// Build `workload`'s base population as a durable directory: rules,
/// then constraints, then facts by commits, then `compact()` so the
/// server starts from a snapshot with an empty log tail.
pub fn build_dir(workload: Workload, dir: &Path) -> Result<(), String> {
    let base = workload.base();
    let sentence = |s: &str| parse(s).map_err(|e| format!("{s:?}: {e}"));
    let theory = Theory::from_text(base.rules).map_err(|e| e.to_string())?;
    let mut db = DurableDb::create(dir, theory, FsyncPolicy::Never).map_err(|e| e.to_string())?;
    for ic in base.constraints {
        db.add_constraint(sentence(ic)?)
            .map_err(|e| e.to_string())?;
    }
    for commit in &base.commits {
        let mut txn = db.transaction();
        for s in commit {
            txn = txn.assert(sentence(s)?);
        }
        let _ = txn.commit().map_err(|e| e.to_string())?;
    }
    let _ = db.compact().map_err(|e| e.to_string())?;
    Ok(())
}

/// Build a directory, start the server on it, and wait for its first
/// checked reply. Returns the served database and the seconds all of
/// that took — one `setup_s` sample.
pub fn setup(workload: Workload, binary: &Path, root: &Path) -> Result<(Served, f64), String> {
    let start = Instant::now();
    let dir = DataDir::fresh(root, workload.name()).map_err(|e| e.to_string())?;
    build_dir(workload, dir.path())?;
    let served = serve(workload, binary, dir)?;
    Ok((served, start.elapsed().as_secs_f64()))
}

/// Start the server on an already built directory and check its first
/// reply.
pub fn serve(workload: Workload, binary: &Path, dir: DataDir) -> Result<Served, String> {
    let server = Server::spawn(binary, dir.path()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
    let probe = client.run(&workload.probe());
    if !probe.ok {
        return Err(format!("first reply wrong: {}", probe.detail));
    }
    Ok(Served { server, dir })
}

/// One parsed reply head.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// `ok yes|no|unknown @<lsn>`
    Ask { verdict: String },
    /// `ok rows <n> @<lsn>`; `n` `row …` lines follow.
    Rows { n: usize },
    /// `ok committed @<lsn> +<a> -<r>`
    Committed {
        lsn: u64,
        added: usize,
        removed: usize,
    },
    /// `err rejected: …`
    Rejected,
    /// Any other `ok …` line, verbatim.
    Ok(String),
    /// Anything else: an error, a refusal, garbage.
    Other(String),
}

pub fn parse_reply(head: &str) -> Reply {
    let other = || Reply::Other(head.to_string());
    let words: Vec<&str> = head.split(' ').collect();
    match words.as_slice() {
        ["ok", verdict @ ("yes" | "no" | "unknown"), lsn] if lsn.starts_with('@') => Reply::Ask {
            verdict: verdict.to_string(),
        },
        ["ok", "rows", n, lsn] if lsn.starts_with('@') => {
            n.parse().map_or_else(|_| other(), |n| Reply::Rows { n })
        }
        ["ok", "committed", lsn, added, removed] => {
            let parsed = (|| {
                Some(Reply::Committed {
                    lsn: lsn.strip_prefix('@')?.parse().ok()?,
                    added: added.strip_prefix('+')?.parse().ok()?,
                    removed: removed.strip_prefix('-')?.parse().ok()?,
                })
            })();
            parsed.unwrap_or_else(other)
        }
        ["err", "rejected:", ..] => Reply::Rejected,
        ["ok", ..] => Reply::Ok(head.to_string()),
        _ => other(),
    }
}

/// Read one whole reply: the head line and, after `ok rows <n>`, its `n`
/// row payloads (the text after `row `).
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<(Reply, Vec<String>)> {
    let mut line = String::new();
    let mut next = |line: &mut String| -> io::Result<()> {
        line.clear();
        if reader.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    };
    next(&mut line)?;
    let reply = parse_reply(line.trim_end());
    let mut rows = Vec::new();
    if let Reply::Rows { n } = reply {
        for _ in 0..n {
            next(&mut line)?;
            let row = line.trim_end();
            rows.push(
                row.strip_prefix("row")
                    .unwrap_or(row)
                    .trim_start()
                    .to_string(),
            );
        }
    }
    Ok((reply, rows))
}

/// What running one op over the wire gave.
pub struct OpResult {
    pub ok: bool,
    /// What went wrong, for the first few failures' report.
    pub detail: String,
    pub lines: u32,
    /// `commit` line sent → reply, for transactions.
    pub commit_ms: Option<f64>,
    /// The LSN the server acknowledged, for the durability audit.
    pub acked: Option<u64>,
}

/// The benchmark's own line-protocol client: one request line out (in
/// one segment), one reply in; the caller waits.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Request lines sent so far.
    lines: u32,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            lines: 0,
        })
    }

    pub fn request(&mut self, line: &str) -> io::Result<(Reply, Vec<String>)> {
        self.lines += 1;
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        read_reply(&mut self.reader)
    }

    /// Run one op and match every reply against what the generator
    /// expects. A transport error counts as a missing reply.
    pub fn run(&mut self, op: &Op) -> OpResult {
        let mut result = OpResult {
            ok: true,
            detail: String::new(),
            lines: 0,
            commit_ms: None,
            acked: None,
        };
        let before = self.lines;
        if let Err(e) = self.run_checked(op, &mut result) {
            result.ok = false;
            result.detail = format!("{:?}: {e}", op.body);
        }
        result.lines = self.lines - before;
        result
    }

    fn run_checked(&mut self, op: &Op, result: &mut OpResult) -> Result<(), String> {
        let send = |client: &mut Client, line: &str| {
            client.request(line).map_err(|e| format!("{line:?}: {e}"))
        };
        match &op.body {
            Body::Ask { q, verdict } => match send(self, &format!("ask {q}"))? {
                (Reply::Ask { verdict: got }, _) if got == *verdict => Ok(()),
                (got, _) => Err(format!("wanted {verdict}, got {got:?}")),
            },
            Body::Demo { q, rows } => match send(self, &format!("demo {q}"))? {
                (Reply::Rows { .. }, mut got) => {
                    got.sort();
                    let mut want = rows.clone();
                    want.sort();
                    if got == want {
                        Ok(())
                    } else {
                        Err(format!("wanted rows {want:?}, got {got:?}"))
                    }
                }
                (got, _) => Err(format!("wanted rows, got {got:?}")),
            },
            Body::Txn { ops, outcome } => {
                match send(self, "begin")? {
                    (Reply::Ok(s), _) if s == "ok begin" => {}
                    (got, _) => return Err(format!("begin: got {got:?}")),
                }
                for (i, (assert, sentence)) in ops.iter().enumerate() {
                    let verb = if *assert { "assert" } else { "retract" };
                    match send(self, &format!("{verb} {sentence}"))? {
                        (Reply::Ok(s), _) if s == format!("ok queued {}", i + 1) => {}
                        (got, _) => return Err(format!("{verb}: got {got:?}")),
                    }
                }
                let sent = Instant::now();
                let (reply, _) = send(self, "commit")?;
                result.commit_ms = Some(sent.elapsed().as_secs_f64() * 1e3);
                match (reply, outcome) {
                    (
                        Reply::Committed {
                            lsn,
                            added,
                            removed,
                        },
                        Outcome::Committed {
                            added: a,
                            removed: r,
                        },
                    ) if added == *a && removed == *r => {
                        result.acked = Some(lsn);
                        Ok(())
                    }
                    (Reply::Rejected, Outcome::Rejected) => Ok(()),
                    (got, want) => Err(format!("wanted {want:?}, got {got:?}")),
                }
            }
        }
    }
}

/// One op's measurements.
pub struct Sample {
    pub kind: Kind,
    /// First line sent → last reply read.
    pub op_ms: f64,
    pub commit_ms: Option<f64>,
}

/// Everything a wire run observed.
#[derive(Default)]
pub struct WireRun {
    /// Ops that started after the warm-up and ended inside the window.
    pub samples: Vec<Sample>,
    /// Closed-loop throughput at the workload's stated mix: connections
    /// ÷ the mix-weighted mean op latency. Counting ops in the window
    /// measures the same thing, but a 10 s window holds ~20 hires of
    /// 380 ms each and whether it caught 19 or 22 of them moved the count
    /// by 7 % between seeds; the mix is fixed by design, so it is not
    /// sampled.
    pub ops_per_s: f64,
    /// Every op issued, warm-up included: all of them are checked.
    pub attempted: u64,
    /// Wrong, refused or missing replies, plus durability-audit misses.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    pub lines: u64,
    /// Server `VmHWM` just before it was killed.
    pub rss_mb: f64,
    /// Wire `stats` after the window.
    pub stats: HashMap<String, f64>,
}

impl WireRun {
    fn fail(&mut self, detail: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(detail);
        }
    }

    /// Whole-op latencies of one kind, in ms.
    pub fn op_ms(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.op_ms)
            .collect()
    }

    /// `commit`-line latencies of one kind, in ms.
    pub fn commit_ms(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .filter_map(|s| s.commit_ms)
            .collect()
    }
}

struct ConnRun {
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
    lines: u64,
    acked: Vec<u64>,
}

fn drive(addr: SocketAddr, mut stream: OpStream, warm_end: Instant, end: Instant) -> ConnRun {
    let mut run = ConnRun {
        samples: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        lines: 0,
        acked: Vec::new(),
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.attempted = 1;
            run.failures.push(format!("connect: {e}"));
            return run;
        }
    };
    loop {
        let started = Instant::now();
        if started >= end {
            return run;
        }
        let op = stream.next().expect("op streams are infinite");
        let result = client.run(&op);
        let finished = Instant::now();
        run.attempted += 1;
        run.lines += u64::from(result.lines);
        run.acked.extend(result.acked);
        if !result.ok {
            run.failures.push(result.detail);
            // After a transport error the session's state is unknown;
            // the rest of this connection's replies are missing.
            if run.failures.len() > 100 {
                return run;
            }
            continue;
        }
        if started >= warm_end && finished <= end {
            run.samples.push(Sample {
                kind: op.kind,
                op_ms: (finished - started).as_secs_f64() * 1e3,
                commit_ms: result.commit_ms,
            });
        }
    }
}

fn vm_hwm_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Drive `served` closed-loop for `warmup + window`, one generator
/// thread per connection, then read `stats` and peak memory, SIGKILL the
/// server and audit its log: LSNs contiguous, every acknowledged LSN
/// present, no torn tail. This covers process death only — the page
/// cache survives; fsync loss is `tests/chaos.rs`'s ground.
pub fn run_wire(
    workload: Workload,
    seed: u64,
    served: Served,
    warmup: Duration,
    window: Duration,
) -> WireRun {
    let Served { server, dir } = served;
    let addr = server.addr;
    let t0 = Instant::now();
    let (warm_end, end) = (t0 + warmup, t0 + warmup + window);
    let conns: Vec<ConnRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let stream = OpStream::new(workload, seed, conn);
                scope.spawn(move || drive(addr, stream, warm_end, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });

    let mut run = WireRun::default();
    let mut acked = BTreeSet::new();
    for conn in conns {
        run.samples.extend(conn.samples);
        run.attempted += conn.attempted;
        run.lines += conn.lines;
        acked.extend(conn.acked);
        for f in conn.failures {
            run.fail(f);
        }
    }

    // A kind the window happened to miss drops out and the rest are
    // reweighted.
    let (mut share_sum, mut weighted_ms) = (0.0, 0.0);
    for &(kind, share) in workload.mix() {
        let ms = run.op_ms(kind);
        if !ms.is_empty() {
            share_sum += share;
            weighted_ms += share * mean(&ms);
        }
    }
    if weighted_ms > 0.0 {
        run.ops_per_s = CONNECTIONS as f64 * 1e3 * share_sum / weighted_ms;
    }

    match Client::connect(addr).and_then(|mut c| c.request("stats")) {
        Ok((Reply::Ok(line), _)) => {
            for (key, value) in line.split(' ').filter_map(|w| w.split_once('=')) {
                if let Ok(v) = value.parse() {
                    run.stats.insert(key.to_string(), v);
                }
            }
        }
        other => run.fail(format!("stats: {other:?}")),
    }
    run.rss_mb = vm_hwm_mb(server.pid());
    server.kill();

    match Wal::scan_file(dir.path().join("wal.log")) {
        Ok(scan) => {
            // `scan_file` stops at the first LSN gap, so a gap shows up
            // as a torn tail too.
            if let Some(torn) = &scan.torn {
                run.fail(format!("log audit: {torn}"));
            }
            let logged: BTreeSet<u64> = scan.records.iter().map(|r| r.lsn).collect();
            for lsn in acked.difference(&logged) {
                run.fail(format!(
                    "log audit: acknowledged LSN {lsn} is not in the log"
                ));
            }
        }
        Err(e) => run.fail(format!("log audit: {e}")),
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reply_heads_parse() {
        assert_eq!(
            parse_reply("ok yes @12"),
            Reply::Ask {
                verdict: "yes".into()
            }
        );
        assert_eq!(
            parse_reply("ok unknown @0"),
            Reply::Ask {
                verdict: "unknown".into()
            }
        );
        assert_eq!(parse_reply("ok rows 30 @7"), Reply::Rows { n: 30 });
        assert_eq!(
            parse_reply("ok committed @103 +2 -0"),
            Reply::Committed {
                lsn: 103,
                added: 2,
                removed: 0
            }
        );
        assert_eq!(
            parse_reply("err rejected: constraint violated: forall x. K emp(x) -> … @102"),
            Reply::Rejected
        );
        assert_eq!(parse_reply("ok begin"), Reply::Ok("ok begin".into()));
        assert_eq!(parse_reply("ok queued 2"), Reply::Ok("ok queued 2".into()));
        for bad in [
            "",
            "ok maybe @3",
            "ok rows many @3",
            "ok committed @x +1 -0",
            "err degraded (read-only): x",
            "err parse: y",
        ] {
            match parse_reply(bad) {
                Reply::Other(s) => assert_eq!(s, bad),
                // `ok maybe @3` is an `ok` line, just not a verdict.
                Reply::Ok(s) => assert_eq!(s, "ok maybe @3"),
                other => panic!("{bad:?} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn multi_line_rows_replies_are_read_whole() {
        let mut wire = Cursor::new(b"ok rows 2 @5\nrow n7\nrow c1x2 c1x3\nok yes @5\n".to_vec());
        let (reply, rows) = read_reply(&mut wire).unwrap();
        assert_eq!(reply, Reply::Rows { n: 2 });
        assert_eq!(rows, ["n7", "c1x2 c1x3"]);
        // The next reply starts exactly after the last row.
        let (reply, rows) = read_reply(&mut wire).unwrap();
        assert_eq!(
            reply,
            Reply::Ask {
                verdict: "yes".into()
            }
        );
        assert!(rows.is_empty());
        assert!(read_reply(&mut wire).is_err(), "EOF is a missing reply");

        // `ok rows 1` with an empty tuple (a sentence that holds).
        let mut wire = Cursor::new(b"ok rows 1 @0\nrow\n".to_vec());
        assert_eq!(read_reply(&mut wire).unwrap().1, [""]);
        // A reply cut short is an error, not a short answer.
        let mut wire = Cursor::new(b"ok rows 3 @0\nrow a\n".to_vec());
        assert!(read_reply(&mut wire).is_err());
    }

    #[test]
    fn every_base_population_builds_and_answers_its_probe() {
        use epilog_core::Answer;
        let root = std::env::temp_dir().join(format!("trajectory-test-{}", std::process::id()));
        // The registrar's 100 hires take seconds even optimized; the two
        // cheap populations cover the build path.
        for w in [Workload::ClosureWrite, Workload::TeachMixed] {
            let dir = DataDir::fresh(&root, w.name()).unwrap();
            build_dir(w, dir.path()).unwrap();
            let (db, report) = DurableDb::recover(dir.path(), FsyncPolicy::Never).unwrap();
            assert_eq!(report.records_replayed, 0, "compacted: no log tail");
            match w.probe().body {
                Body::Ask { q, verdict } => {
                    assert_eq!(verdict, "yes");
                    assert_eq!(db.ask(&parse(&q).unwrap()), Answer::Yes);
                }
                Body::Demo { q, rows } => {
                    assert_eq!(db.demo_all(&parse(&q).unwrap()).unwrap().len(), rows.len());
                }
                Body::Txn { .. } => unreachable!("probes are reads"),
            }
            let copy = dir.copy(&root, "copy").unwrap();
            assert!(copy.path().join("wal.log").exists());
            let (path, copy_path) = (dir.path().to_path_buf(), copy.path().to_path_buf());
            drop((dir, copy));
            assert!(
                !path.exists() && !copy_path.exists(),
                "guards remove their directories"
            );
        }
        let _ = std::fs::remove_dir(&root);
    }
}
