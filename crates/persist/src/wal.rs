//! The write-ahead log: the whole durable database, as one file of
//! checksummed, LSN-stamped textual records.
//!
//! # Record format
//!
//! One record per committed transaction (or registered constraint):
//!
//! ```text
//! @<lsn> <payload-len> <fnv1a64-hex>\n
//! <payload>\n
//! ```
//!
//! The payload is UTF-8 text, one operation per line — `assert <sentence>`,
//! `retract <sentence>`, or `constraint <sentence>` — with sentences
//! serialized by the `epilog-syntax` pretty-printer and read back with
//! [`parse()`](fn@epilog_syntax::parse). The `parse(display(w)) == w` round-trip for every sentence a
//! database can hold (pinned by `tests/prop_syntax.rs`) is the correctness
//! floor of this format. LSNs increase by exactly 1 from record to record;
//! the checksum covers the payload bytes.
//!
//! # The checkpoint
//!
//! A durable database's log begins with a **checkpoint**: a record whose
//! payload opens with the line `checkpoint`, then holds the theory as
//! `assert` lines and the constraints as `constraint` lines — the whole
//! state as of its LSN ([`Snapshot`](crate::Snapshot) is its codec). The
//! records after it carry the LSNs that follow. `DurableDb::create` writes
//! the genesis checkpoint (LSN 0), and `DurableDb::compact` replaces the
//! log with a checkpoint of the current state; both go through the
//! crate's one file replacement (`<name>.tmp`, sync, rename, directory
//! sync), so the checkpoint is never torn by a crash.
//!
//! # Torn tails
//!
//! A crash mid-append leaves a partial final record. [`Wal::scan_file`]
//! stops at the first record that fails any framing check (header shape,
//! LSN continuity, payload length, terminator, checksum) and reports the
//! cut as a [`TornTail`]; [`Wal::open`] truncates the file there.
//! Everything before the cut is intact by checksum; everything after it
//! is unrecoverable by construction (records are not
//! self-synchronizing), which is exactly the log-ahead contract: the tail
//! being torn means the transaction never reported success.
//!
//! A record whose checksum matches is whole, so a crash cannot leave one
//! whose payload does not decode (not UTF-8, an unknown verb, a sentence
//! that does not parse). The scan stops there too, but reports it as
//! [`WalScan::corrupt`], not as a tear: recovery refuses such a log, and
//! nothing cuts it.

use crate::fault::{self, FaultInjector};
use crate::fnv1a64;
use crate::PersistError;
use epilog_syntax::{parse, Formula};
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the log inside a durable database directory.
pub const WAL_FILE: &str = "wal.log";

/// The first payload line of a checkpoint record.
const CHECKPOINT: &str = "checkpoint";

/// When appended records are forced to stable storage.
///
/// # The loss window is crash-only
///
/// Under [`Never`](FsyncPolicy::Never) committed records may sit in OS
/// caches, unsynced, until the next [`Wal::sync`]
/// ([`Wal::pending_unsynced`] reports the live count). That window can
/// only be lost to a **crash** (power cut, `kill -9`): a clean shutdown
/// flushes it, because dropping a [`Wal`] syncs any pending records (as
/// does dropping the `DurableDb` that owns it). Either way the log stays
/// crash-*consistent* — recovery truncates at the first torn record and
/// everything before it is intact by checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: a reported commit is durable. Slowest.
    Always,
    /// Never `fsync` on append; the OS flushes when it pleases (and
    /// [`Wal::sync`] forces it — the group-commit writer uses exactly
    /// this, one explicit sync per batch). Fastest, and still
    /// crash-*consistent* — just not crash-*durable*.
    Never,
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A sentence the transaction added.
    Assert(Formula),
    /// A sentence the transaction removed.
    Retract(Formula),
    /// An integrity constraint registered on the database.
    Constraint(Formula),
}

impl fmt::Display for WalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.line().fmt(f)
    }
}

/// One op line of a record's payload, its sentence borrowed: how a
/// [`WalOp`] prints, and how a checkpoint prints a state's sentences
/// without copying one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Line<'a>(&'static str, &'a Formula);

impl<'a> Line<'a> {
    pub(crate) fn assert(w: &'a Formula) -> Line<'a> {
        Line("assert", w)
    }

    pub(crate) fn retract(w: &'a Formula) -> Line<'a> {
        Line("retract", w)
    }

    pub(crate) fn constraint(w: &'a Formula) -> Line<'a> {
        Line("constraint", w)
    }
}

impl fmt::Display for Line<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.1)
    }
}

impl WalOp {
    fn line(&self) -> Line<'_> {
        match self {
            WalOp::Assert(w) => Line::assert(w),
            WalOp::Retract(w) => Line::retract(w),
            WalOp::Constraint(w) => Line::constraint(w),
        }
    }

    fn decode(line: &str) -> Result<WalOp, String> {
        let (verb, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("op line without a verb: {line:?}"))?;
        let w = parse(rest).map_err(|e| format!("unparseable sentence in {line:?}: {e}"))?;
        match verb {
            "assert" => Ok(WalOp::Assert(w)),
            "retract" => Ok(WalOp::Retract(w)),
            "constraint" => Ok(WalOp::Constraint(w)),
            _ => Err(format!("unknown op verb {verb:?}")),
        }
    }
}

/// A decoded record, with the byte offset just past it (a valid crash/cut
/// point — `tests/prop_persist.rs` truncates at and between these).
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// Whether this is a checkpoint: the whole state as of `lsn`, rather
    /// than one transaction (module docs).
    pub checkpoint: bool,
    /// The operations of the record, in application order.
    pub ops: Vec<WalOp>,
    /// Byte offset of the first byte after this record.
    pub end_offset: u64,
}

/// Where and why a log scan stopped before the end of the file.
#[derive(Debug, Clone)]
pub struct TornTail {
    /// Byte offset of the first unrecoverable byte.
    pub offset: u64,
    /// What failed: framing, checksum or LSN continuity.
    pub reason: String,
}

impl fmt::Display for TornTail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "torn tail at byte {}: {}", self.offset, self.reason)
    }
}

/// The result of scanning a log file.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every intact record, in LSN order.
    pub records: Vec<WalRecord>,
    /// The cut point, when the scan stopped before end-of-file.
    pub torn: Option<TornTail>,
    /// Bytes after the cut point (0 when the log is intact).
    pub truncated_bytes: u64,
    /// Why the scan stopped at a record whose checksum matches but whose
    /// payload does not decode, naming its LSN. Such a record is whole,
    /// so no crash left it: it is not a torn tail, nothing may cut it,
    /// and recovery refuses the log.
    pub corrupt: Option<String>,
}

impl WalScan {
    /// LSN of the last intact record (0 when the log is empty).
    pub fn last_lsn(&self) -> u64 {
        self.records.last().map_or(0, |r| r.lsn)
    }
}

/// The longest header a record can have: `@`, two `u64`s in decimal, the
/// checksum's 16 hex digits, two spaces and the newline.
const HEADER_MAX: usize = 1 + 20 + 1 + 20 + 1 + 16 + 1;

/// A framed record: its bytes sit at the end of a buffer whose first
/// bytes were the space reserved for the header and are not the
/// record's (see [`encode_record`]).
pub(crate) struct Framed {
    buf: Vec<u8>,
    start: usize,
}

impl Framed {
    /// The record: header, payload, newline.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

/// The one encoder: a checkpoint (`checkpoint`) or a transaction record
/// of `ops`, framed. The payload is printed once, into the buffer the
/// record is written from, after [`HEADER_MAX`] bytes left for the
/// header; the header then goes right in front of the payload, so no
/// byte of the payload is copied.
fn encode_record<'a>(
    lsn: u64,
    checkpoint: bool,
    ops: impl IntoIterator<Item = Line<'a>>,
) -> Framed {
    let mut buf = " ".repeat(HEADER_MAX);
    if checkpoint {
        buf.push_str(CHECKPOINT);
    }
    for op in ops {
        if buf.len() > HEADER_MAX {
            buf.push('\n');
        }
        write!(buf, "{op}").expect("formatting into a String cannot fail");
    }
    let mut buf = buf.into_bytes();
    let payload = &buf[HEADER_MAX..];
    let header = header(lsn, payload);
    let start = HEADER_MAX - header.len();
    buf[start..HEADER_MAX].copy_from_slice(header.as_bytes());
    buf.push(b'\n');
    Framed { buf, start }
}

/// The header line of `payload`'s record at `lsn`.
fn header(lsn: u64, payload: &[u8]) -> String {
    let header = format!("@{lsn} {} {:016x}\n", payload.len(), fnv1a64(payload));
    debug_assert!(header.len() <= HEADER_MAX);
    header
}

/// Scan raw log bytes into records, stopping at the first defect.
fn scan_bytes(bytes: &[u8]) -> WalScan {
    let mut scan = WalScan::default();
    let mut pos: usize = 0;
    let torn = |offset: usize, reason: String| TornTail {
        offset: offset as u64,
        reason,
    };
    while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            scan.torn = Some(torn(pos, "unterminated header".into()));
            break;
        };
        let header = &bytes[pos..pos + nl];
        let parsed = std::str::from_utf8(header)
            .ok()
            .and_then(|h| h.strip_prefix('@'))
            .and_then(|h| {
                let mut it = h.split(' ');
                let lsn = it.next()?.parse::<u64>().ok()?;
                let len = it.next()?.parse::<usize>().ok()?;
                let sum = u64::from_str_radix(it.next()?, 16).ok()?;
                it.next().is_none().then_some((lsn, len, sum))
            });
        let Some((lsn, len, sum)) = parsed else {
            scan.torn = Some(torn(pos, "malformed header".into()));
            break;
        };
        let expected = scan.last_lsn() + 1;
        if !scan.records.is_empty() && lsn != expected {
            scan.torn = Some(torn(
                pos,
                format!("LSN {lsn} breaks continuity (expected {expected})"),
            ));
            break;
        }
        let body = pos + nl + 1;
        // `len` comes from a possibly corrupt header: compare against the
        // bytes actually available (checked, so a huge declared length is
        // a torn tail rather than an overflow panic).
        let available = bytes.len().saturating_sub(body);
        if len >= available {
            scan.torn = Some(torn(
                pos,
                format!(
                    "payload truncated ({available} of {} bytes)",
                    len.saturating_add(1)
                ),
            ));
            break;
        }
        let payload = &bytes[body..body + len];
        if bytes[body + len] != b'\n' {
            scan.torn = Some(torn(pos, "missing record terminator".into()));
            break;
        }
        if fnv1a64(payload) != sum {
            scan.torn = Some(torn(pos, "checksum mismatch".into()));
            break;
        }
        let decoded = std::str::from_utf8(payload)
            .map_err(|_| "it is not UTF-8".to_string())
            .and_then(|text| {
                let mut lines = text.lines().peekable();
                let checkpoint = lines.next_if_eq(&CHECKPOINT).is_some();
                let ops = lines.map(WalOp::decode).collect::<Result<Vec<_>, _>>()?;
                Ok((checkpoint, ops))
            });
        let (checkpoint, ops) = match decoded {
            Ok(record) => record,
            Err(e) => {
                scan.corrupt = Some(format!(
                    "the log record at LSN {lsn} passes its checksum but does not decode: {e}"
                ));
                break;
            }
        };
        pos = body + len + 1;
        scan.records.push(WalRecord {
            lsn,
            checkpoint,
            ops,
            end_offset: pos as u64,
        });
    }
    if let Some(t) = &scan.torn {
        scan.truncated_bytes = bytes.len() as u64 - t.offset;
    }
    scan
}

/// An open write-ahead log, positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    next_lsn: u64,
    len_bytes: u64,
    /// Records after the checkpoint.
    records: u64,
    unsynced: u32,
    injector: Option<Arc<FaultInjector>>,
}

impl Wal {
    /// Create a fresh, empty log at `path`, with no checkpoint: its first
    /// record takes LSN 1. Fails if the file already exists (an existing
    /// log must go through [`Wal::open`] so its tail is validated, never
    /// blindly appended to). A durable database's log begins with a
    /// checkpoint instead, which `DurableDb::create` writes.
    pub fn create(path: impl Into<PathBuf>, policy: FsyncPolicy) -> io::Result<Wal> {
        let path = path.into();
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        if let Some(dir) = path.parent() {
            crate::sync_dir(dir, None)?;
        }
        Ok(Wal {
            file,
            path,
            policy,
            next_lsn: 1,
            len_bytes: 0,
            records: 0,
            unsynced: 0,
            injector: None,
        })
    }

    /// Write the log at `path` as one checkpoint of `ops` at `lsn`,
    /// replacing any file there whole, and position it for appending the
    /// record at `lsn + 1`.
    pub(crate) fn create_checkpoint<'a>(
        path: PathBuf,
        policy: FsyncPolicy,
        lsn: u64,
        ops: impl IntoIterator<Item = Line<'a>>,
    ) -> io::Result<Wal> {
        let mut wal = None;
        write_checkpoint(&path, lsn, ops, None, |file, len| {
            wal = Some(Wal {
                file,
                path: path.clone(),
                policy,
                next_lsn: lsn + 1,
                len_bytes: len,
                records: 0,
                unsynced: 0,
                injector: None,
            });
        })?;
        Ok(wal.expect("a replacement that succeeded renamed its file"))
    }

    /// Replace this log with one checkpoint of `ops` at `lsn` — the state
    /// every record so far built — through the installed fault injector.
    /// Appends follow the new file as soon as it is renamed into place.
    /// On `Err`, the flag says whether that happened: if not, the old file
    /// is untouched and this log still appends to it; if so, the
    /// directory sync after the rename failed, and the new file's name may
    /// not survive a crash.
    pub(crate) fn checkpoint<'a>(
        &mut self,
        lsn: u64,
        ops: impl IntoIterator<Item = Line<'a>>,
    ) -> Result<(), (io::Error, bool)> {
        let (path, injector) = (self.path.clone(), self.injector.clone());
        let mut renamed = false;
        let written = write_checkpoint(&path, lsn, ops, injector.as_deref(), |file, len| {
            self.file = file;
            self.next_lsn = lsn + 1;
            self.len_bytes = len;
            self.records = 0;
            self.unsynced = 0;
            renamed = true;
        });
        written.map_err(|e| (e, renamed))
    }

    /// Open the existing log at `path`, whose [`Wal::scan_file`] is
    /// `scan`, for appending after its last intact record: the torn tail
    /// the scan found, if any, is cut off the file first.
    pub fn open(path: impl Into<PathBuf>, policy: FsyncPolicy, scan: &WalScan) -> io::Result<Wal> {
        let path = path.into();
        let mut file = OpenOptions::new().write(true).open(&path)?;
        let good_len = scan.records.last().map_or(0, |r| r.end_offset);
        if scan.torn.is_some() {
            file.set_len(good_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(good_len))?;
        Ok(Wal {
            file,
            path,
            policy,
            next_lsn: scan.last_lsn() + 1,
            len_bytes: good_len,
            records: scan.records.iter().filter(|r| !r.checkpoint).count() as u64,
            unsynced: 0,
            injector: None,
        })
    }

    /// Route this log's appends and syncs through a [`FaultInjector`]
    /// (`None` restores direct I/O). Appends, explicit syncs, rewinds,
    /// checkpoints and the drop-flush all consult it; the recovery-side
    /// scan and truncation do not — recovery is the operator's path back
    /// to a working log.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.injector = injector;
    }

    /// The installed fault injector, if any.
    pub(crate) fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.injector.clone()
    }

    /// Scan a log file read-only: no truncation, no repositioning.
    /// Recovery reads the log through it, and tests and crash simulations
    /// enumerate record boundaries with it.
    pub fn scan_file(path: impl AsRef<Path>) -> io::Result<WalScan> {
        let bytes = std::fs::read(path)?;
        Ok(scan_bytes(&bytes))
    }

    /// Append one record and apply the fsync policy. Returns the record's
    /// LSN. The record is written with a single `write_all`, so a crash
    /// leaves either nothing or a (possibly partial, detectable) tail.
    ///
    /// On a failed append — the write, or the sync the policy asks for —
    /// the accounting is untouched but the file may hold a torn prefix of
    /// the record, or all of it unsynced; callers that continue appending
    /// must `rewind` to the pre-append `mark` first (`DurableDb` does).
    pub fn append(&mut self, ops: &[WalOp]) -> io::Result<u64> {
        self.append_lines(&ops.iter().map(WalOp::line).collect::<Vec<_>>())
    }

    /// [`Wal::append`] of op lines that borrow their sentences, so a
    /// commit logs its delta without copying a sentence.
    pub(crate) fn append_lines(&mut self, ops: &[Line<'_>]) -> io::Result<u64> {
        assert!(!ops.is_empty(), "a WAL record must carry at least one op");
        let lsn = self.next_lsn;
        let record = encode_record(lsn, false, ops.iter().copied());
        let bytes = record.bytes();
        fault::write_all(self.injector.as_deref(), &mut self.file, bytes)?;
        let sync_due = self.policy == FsyncPolicy::Always;
        if sync_due {
            fault::sync_data(self.injector.as_deref(), &self.file)?;
        }
        self.next_lsn += 1;
        self.len_bytes += bytes.len() as u64;
        self.records += 1;
        self.unsynced = if sync_due { 0 } else { self.unsynced + 1 };
        Ok(lsn)
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        fault::sync_data(self.injector.as_deref(), &self.file)?;
        self.unsynced = 0;
        Ok(())
    }

    /// Number of appended records not yet covered by an fsync — the
    /// crash-loss window right now. Always 0 under
    /// [`FsyncPolicy::Always`]; unbounded under `Never` until
    /// [`Wal::sync`] is called.
    pub fn pending_unsynced(&self) -> u32 {
        self.unsynced
    }

    /// LSN of the last appended record, or of the checkpoint when no
    /// record follows it (0 for an empty log).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Number of records in the file after its checkpoint.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current file length in bytes, the checkpoint included.
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Put the log back at a `mark` — the compensation for a failed
    /// append, or for a logged operation that was then refused. The
    /// accounting returns to the mark even on `Err`, when the file may
    /// still hold bytes past it and must not be appended to again.
    pub(crate) fn rewind(&mut self, len: u64, next_lsn: u64) -> io::Result<()> {
        self.records -= self.next_lsn - next_lsn;
        self.len_bytes = len;
        self.next_lsn = next_lsn;
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        fault::sync_data(self.injector.as_deref(), &self.file)?;
        self.unsynced = 0;
        Ok(())
    }

    pub(crate) fn mark(&self) -> (u64, u64) {
        (self.len_bytes, self.next_lsn)
    }

    pub(crate) fn set_policy(&mut self, policy: FsyncPolicy) {
        self.policy = policy;
    }

    /// Cut the log file at `path` down to its records with `lsn <=
    /// through`, through a fresh handle: the operator's path, deliberately
    /// not injected, for when a [`Wal`]'s own handle is what is failing.
    /// A log holding a record that does not decode
    /// ([`WalScan::corrupt`]) is refused, untouched.
    pub(crate) fn truncate_after(path: &Path, through: u64) -> Result<(), PersistError> {
        let scan = Wal::scan_file(path)?;
        if let Some(why) = scan.corrupt {
            return Err(PersistError::Corrupt(why));
        }
        let kept = scan.records.iter().take_while(|r| r.lsn <= through);
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(kept.last().map_or(0, |r| r.end_offset))?;
        Ok(f.sync_data()?)
    }
}

/// Replace the file at `path` with a log holding one checkpoint of `ops`
/// at `lsn`, through `crate::replace_file`; `renamed` gets the new file's
/// handle, positioned at its end, and its length.
fn write_checkpoint<'a>(
    path: &Path,
    lsn: u64,
    ops: impl IntoIterator<Item = Line<'a>>,
    injector: Option<&FaultInjector>,
    renamed: impl FnOnce(File, u64),
) -> io::Result<()> {
    let record = encode_record(lsn, true, ops);
    let bytes = record.bytes();
    crate::replace_file(path, bytes, injector, |file| {
        renamed(file, bytes.len() as u64)
    })
}

/// A cleanly dropped log leaves no loss window: any records appended
/// since the last fsync are flushed on `Drop`. A flush failure here is
/// swallowed (there is no way to report it from a destructor) — callers
/// that need the error should call [`Wal::sync`] explicitly first.
impl Drop for Wal {
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = fault::sync_data(self.injector.as_deref(), &self.file);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `payload` framed as the record at `lsn`, as [`encode_record`]
    /// frames it: header, payload, newline.
    pub(crate) fn frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
        let header = header(lsn, payload);
        let mut out = Vec::with_capacity(header.len() + payload.len() + 1);
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(payload);
        out.push(b'\n');
        out
    }

    fn dir() -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "epilog-wal-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn f(src: &str) -> Formula {
        parse(src).unwrap()
    }

    #[test]
    fn a_record_is_its_payload_framed_whatever_its_header_length() {
        let (p, q) = (f("p(a)"), f("q($x, b)"));
        let ops = || [Line::assert(&p), Line::retract(&q), Line::constraint(&p)];
        for lsn in [0, 7, 10_000, u64::MAX] {
            let record = encode_record(lsn, false, ops());
            let payload = b"assert p(a)\nretract q($x, b)\nconstraint p(a)";
            assert_eq!(record.bytes(), frame(lsn, payload));
            let checkpoint = encode_record(lsn, true, ops());
            let payload = b"checkpoint\nassert p(a)\nretract q($x, b)\nconstraint p(a)";
            assert_eq!(checkpoint.bytes(), frame(lsn, payload));
            assert_eq!(
                encode_record(lsn, true, []).bytes(),
                frame(lsn, b"checkpoint")
            );
        }
        let scan = scan_bytes(encode_record(3, false, ops()).bytes());
        assert!(scan.torn.is_none() && scan.corrupt.is_none());
        assert_eq!(scan.records[0].ops.len(), 3);
    }

    #[test]
    fn append_scan_roundtrip() {
        let d = dir();
        let mut wal = Wal::create(d.join(WAL_FILE), FsyncPolicy::Never).unwrap();
        assert_eq!(wal.append(&[WalOp::Assert(f("p(a)"))]).unwrap(), 1);
        assert_eq!(
            wal.append(&[WalOp::Retract(f("p(a)")), WalOp::Assert(f("q(b)"))])
                .unwrap(),
            2
        );
        assert_eq!(
            wal.append(&[WalOp::Constraint(f("forall x. ~K bad(x)"))])
                .unwrap(),
            3
        );
        wal.sync().unwrap();
        let scan = Wal::scan_file(d.join(WAL_FILE)).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[1].ops.len(), 2);
        assert_eq!(
            scan.records[2].ops,
            vec![WalOp::Constraint(f("forall x. ~K bad(x)"))]
        );
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let d = dir();
        let path = d.join(WAL_FILE);
        let mut wal = Wal::create(&path, FsyncPolicy::Always).unwrap();
        let _ = wal.append(&[WalOp::Assert(f("p(a)"))]).unwrap();
        let good = wal.len_bytes();
        let _ = wal.append(&[WalOp::Assert(f("q(b)"))]).unwrap();
        drop(wal);
        // Tear the second record: chop 3 bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let scan = Wal::scan_file(&path).unwrap();
        let wal = Wal::open(&path, FsyncPolicy::Always, &scan).unwrap();
        assert_eq!(scan.records.len(), 1);
        let torn = scan.torn.expect("tear must be reported");
        assert_eq!(torn.offset, good);
        assert_eq!(wal.last_lsn(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let d = dir();
        let path = d.join(WAL_FILE);
        let mut wal = Wal::create(&path, FsyncPolicy::Always).unwrap();
        let _ = wal.append(&[WalOp::Assert(f("p(a)"))]).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte, keeping the length intact.
        let n = bytes.len();
        bytes[n - 2] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let scan = Wal::scan_file(&path).unwrap();
        assert!(scan.records.is_empty());
        let reason = scan.torn.unwrap().reason;
        assert!(
            reason.contains("checksum") || reason.contains("sentence"),
            "unexpected reason: {reason}"
        );
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn huge_declared_length_is_a_torn_tail_not_a_panic() {
        // A corrupt header declaring a near-usize::MAX payload length
        // must be reported as a torn tail, not overflow the scanner.
        let d = dir();
        let path = d.join(WAL_FILE);
        std::fs::write(&path, format!("@1 {} 0000000000000000\np(a)\n", u64::MAX)).unwrap();
        let scan = Wal::scan_file(&path).unwrap();
        assert!(scan.records.is_empty());
        let reason = scan.torn.unwrap().reason;
        assert!(reason.contains("truncated"), "unexpected reason: {reason}");
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn appends_resume_after_open() {
        let d = dir();
        let path = d.join(WAL_FILE);
        let mut wal = Wal::create(&path, FsyncPolicy::Never).unwrap();
        let _ = wal.append(&[WalOp::Assert(f("p(a)"))]).unwrap();
        drop(wal);
        let scan = Wal::scan_file(&path).unwrap();
        assert!(scan.torn.is_none());
        let mut wal = Wal::open(&path, FsyncPolicy::Never, &scan).unwrap();
        assert_eq!(wal.append(&[WalOp::Assert(f("q(b)"))]).unwrap(), 2);
        wal.sync().unwrap();
        let scan = Wal::scan_file(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.last_lsn(), 2);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn pending_unsynced_tracks_the_loss_window() {
        let d = dir();
        let path = d.join(WAL_FILE);
        // Never counts appends until a sync; Always never opens a window.
        let mut never = Wal::create(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(never.pending_unsynced(), 0);
        for i in 0..5 {
            let _ = never
                .append(&[WalOp::Assert(f(&format!("p(a{i})")))])
                .unwrap();
        }
        assert_eq!(never.pending_unsynced(), 5);
        never.sync().unwrap();
        assert_eq!(never.pending_unsynced(), 0);
        let mut always = Wal::create(d.join("a.log"), FsyncPolicy::Always).unwrap();
        let _ = always.append(&[WalOp::Assert(f("p(a)"))]).unwrap();
        assert_eq!(always.pending_unsynced(), 0);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn drop_flushes_pending_records() {
        // Never with 1 append and no sync: the record sits unsynced until
        // the Wal is dropped, after which the file must scan complete.
        // (The scan would *usually* see it even without the drop-flush —
        // the data is in OS caches — so also assert the accounting that
        // the window was open.)
        let d = dir();
        let path = d.join(WAL_FILE);
        let mut wal = Wal::create(&path, FsyncPolicy::Never).unwrap();
        let _ = wal.append(&[WalOp::Assert(f("p(a)"))]).unwrap();
        assert_eq!(wal.pending_unsynced(), 1, "window open before drop");
        drop(wal);
        let scan = Wal::scan_file(&path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.last_lsn(), 1);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn compaction_drops_covered_prefix() {
        let d = dir();
        let path = d.join(WAL_FILE);
        let mut wal = Wal::create(&path, FsyncPolicy::Never).unwrap();
        let facts: Vec<WalOp> = (0..5)
            .map(|i| WalOp::Assert(f(&format!("p(a{i})"))))
            .collect();
        for fact in &facts {
            let _ = wal.append(std::slice::from_ref(fact)).unwrap();
        }
        wal.checkpoint(5, facts.iter().map(WalOp::line)).unwrap();
        assert_eq!((wal.records(), wal.last_lsn()), (0, 5));
        // The checkpoint holds the state, and the log stays appendable.
        assert_eq!(wal.append(&[WalOp::Assert(f("p(b)"))]).unwrap(), 6);
        wal.sync().unwrap();
        let scan = Wal::scan_file(&path).unwrap();
        let kinds: Vec<_> = scan.records.iter().map(|r| (r.lsn, r.checkpoint)).collect();
        assert_eq!(kinds, vec![(5, true), (6, false)]);
        assert_eq!(scan.records[0].ops, facts);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\ncheckpoint\nassert p(a0)\nassert p(a1)\n"),
            "{text}"
        );
        assert_eq!(wal.len_bytes(), text.len() as u64);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn sentences_round_trip_through_the_text_format() {
        // Sentence shapes a database can hold, incl. the $-escaped
        // parameter that collides with the variable convention.
        let d = dir();
        let path = d.join(WAL_FILE);
        let mut wal = Wal::create(&path, FsyncPolicy::Never).unwrap();
        let ws = [
            f("p(a)"),
            f("exists x. Teach(x, CS)"),
            f("Teach(Mary, Psych) | Teach(Sue, Psych)"),
            f("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)"),
            f("~(p(a) & q(b))"),
            f("a != b"),
            epilog_syntax::Formula::atom("p", vec![epilog_syntax::Param::new("x").into()]),
        ];
        let _ = wal
            .append(&ws.iter().cloned().map(WalOp::Assert).collect::<Vec<_>>())
            .unwrap();
        wal.sync().unwrap();
        let scan = Wal::scan_file(&path).unwrap();
        assert!(scan.torn.is_none());
        let got: Vec<Formula> = scan.records[0]
            .ops
            .iter()
            .map(|op| match op {
                WalOp::Assert(w) => w.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got.as_slice(), ws.as_slice());
        std::fs::remove_dir_all(d).unwrap();
    }
}
