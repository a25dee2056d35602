//! Deterministic storage-fault injection for the persistence layer.
//!
//! Real disks fail: a `write` can land partially (torn), stop one byte
//! short, or error outright; an `fsync` can refuse to promise anything.
//! The durability claims this crate makes — log-before-apply,
//! acknowledged-implies-durable, crash-consistency of the tail — are
//! only worth something if they hold *through* those failures, so every
//! [`Wal`](crate::Wal) append and sync, and every write of the log's
//! checkpoint by `DurableDb::compact` (one write, the temp file's sync,
//! then the directory's), can be routed through a [`FaultInjector`]: a
//! seeded, deterministic schedule of injected failures.
//!
//! # Design
//!
//! The injector is a narrow layer over exactly two primitives —
//! `fault::write_all` and `fault::sync_data` (crate-private; the
//! directory fsync of a file replacement consults it too) — the only file
//! operations the hot durability path performs. Each call first consults
//! the injector (when one is installed): the injector counts the
//! operation, decides from its seeded schedule whether to fail it, and
//! for torn/short writes flushes a chosen prefix of the buffer to the
//! file before returning the error — exactly what a crashed or failing
//! disk leaves behind.
//! When no injector is installed the layer is a single `Option` check
//! on the way into the real syscall: zero-cost when off.
//!
//! Injection is deterministic: the same seed, knobs, and operation
//! sequence produce the same faults, so a failing simulator run
//! (`tests/chaos.rs`) replays exactly from its printed seed.
//!
//! # Knobs
//!
//! * [`FaultInjector::fail_nth_write`] / [`fail_nth_sync`](FaultInjector::fail_nth_sync)
//!   — script a fault at an exact (0-based) operation index; indexes
//!   count *all* observed operations of that class since creation.
//! * [`FaultInjector::set_write_rate`] / [`set_sync_rate`](FaultInjector::set_sync_rate)
//!   — seeded random faults at a `num/den` per-operation probability.
//! * [`FaultInjector::disarm`] — a master switch, off for good:
//!   disarmed, every operation passes through untouched (the
//!   counters keep counting). Healing a degraded server only succeeds
//!   once the "disk" stops failing, i.e. after `disarm`.
//! * [`FaultInjector::writes`] / [`syncs`](FaultInjector::syncs) /
//!   [`injected`](FaultInjector::injected) — observability counters.

use std::fs::File;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The shape of an injected write failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails cleanly: an error is returned and no bytes
    /// reach the file.
    FailOp,
    /// A torn write: a seeded strict prefix of the buffer reaches the
    /// file, then the error — what a crash mid-`write` leaves behind.
    TornWrite,
    /// A short write: everything but the final byte reaches the file —
    /// the narrowest possible tear.
    ShortWrite,
}

/// What a random write fault draws from (seeded, uniform).
const WRITE_KINDS: [FaultKind; 3] = [
    FaultKind::FailOp,
    FaultKind::TornWrite,
    FaultKind::ShortWrite,
];

#[derive(Debug, Default)]
struct Plan {
    rng: u64,
    /// Per-write fault probability as `num/den`; `num == 0` disables.
    write_rate: (u32, u32),
    /// Per-sync fault probability as `num/den`; `num == 0` disables.
    sync_rate: (u32, u32),
    /// Scripted faults: `(0-based write index, kind)`.
    nth_write: Vec<(u64, FaultKind)>,
    /// Scripted sync failures: 0-based sync indexes.
    nth_sync: Vec<u64>,
}

impl Plan {
    fn next(&mut self) -> u64 {
        // The same LCG the test suites seed their workloads with.
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng
    }
}

/// A seeded, deterministic schedule of storage faults. See the
/// [module docs](self) for the knobs.
///
/// Shared as `Arc<FaultInjector>` between the test driver and the
/// database that is being failed; all methods take `&self`.
#[derive(Debug)]
pub struct FaultInjector {
    armed: AtomicBool,
    writes: AtomicU64,
    syncs: AtomicU64,
    injected: AtomicU64,
    plan: Mutex<Plan>,
}

impl FaultInjector {
    /// A fresh injector, armed, with no faults scheduled.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            armed: AtomicBool::new(true),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            plan: Mutex::new(Plan {
                rng: seed ^ 0x9e37_79b9_7f4a_7c15,
                ..Plan::default()
            }),
        }
    }

    /// Script a fault of `kind` at the `n`-th (0-based) write observed
    /// by this injector.
    pub fn fail_nth_write(&self, n: u64, kind: FaultKind) {
        self.plan.lock().unwrap().nth_write.push((n, kind));
    }

    /// Script a failure of the `n`-th (0-based) sync observed by this
    /// injector.
    pub fn fail_nth_sync(&self, n: u64) {
        self.plan.lock().unwrap().nth_sync.push(n);
    }

    /// Fail each write with probability `num/den` (seeded; `num = 0`
    /// disables), drawing the kind uniformly from the three
    /// [`FaultKind`]s.
    pub fn set_write_rate(&self, num: u32, den: u32) {
        self.plan.lock().unwrap().write_rate = (num, den.max(1));
    }

    /// Fail each sync with probability `num/den` (seeded; `num = 0`
    /// disables).
    pub fn set_sync_rate(&self, num: u32, den: u32) {
        self.plan.lock().unwrap().sync_rate = (num, den.max(1));
    }

    /// Master switch off: every operation passes through untouched
    /// (scripted and random schedules stay in place; counters keep
    /// counting). The "disk is fixed" precondition for a heal.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Write operations observed (armed or not).
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Sync operations observed (armed or not).
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Faults actually injected.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Consult the schedule for a write of `len` bytes. `Some((kind,
    /// cut))` means: flush `cut` bytes of prefix, then fail.
    fn decide_write(&self, len: usize) -> Option<(FaultKind, usize)> {
        let idx = self.writes.fetch_add(1, Ordering::Relaxed);
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        let mut plan = self.plan.lock().unwrap();
        let kind = if let Some(at) = plan.nth_write.iter().position(|(n, _)| *n == idx) {
            plan.nth_write.remove(at).1
        } else if plan.write_rate.0 > 0 && {
            let roll = plan.next();
            (roll % u64::from(plan.write_rate.1)) < u64::from(plan.write_rate.0)
        } {
            WRITE_KINDS[plan.next() as usize % WRITE_KINDS.len()]
        } else {
            return None;
        };
        let cut = match kind {
            FaultKind::FailOp => 0,
            FaultKind::ShortWrite => len.saturating_sub(1),
            // A strict, non-empty prefix when there is room for one.
            FaultKind::TornWrite => {
                if len > 1 {
                    1 + plan.next() as usize % (len - 1)
                } else {
                    0
                }
            }
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some((kind, cut))
    }

    /// Consult the schedule for a sync. `true` means fail it.
    fn decide_sync(&self) -> bool {
        let idx = self.syncs.fetch_add(1, Ordering::Relaxed);
        if !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        let mut plan = self.plan.lock().unwrap();
        let fail = if let Some(at) = plan.nth_sync.iter().position(|n| *n == idx) {
            plan.nth_sync.remove(at);
            true
        } else {
            plan.sync_rate.0 > 0 && {
                let roll = plan.next();
                (roll % u64::from(plan.sync_rate.1)) < u64::from(plan.sync_rate.0)
            }
        };
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fail
    }
}

/// The injectable `write_all`: consults the injector (when present),
/// lands the fault's prefix, and errors — or passes straight through.
pub(crate) fn write_all(
    inj: Option<&FaultInjector>,
    file: &mut File,
    buf: &[u8],
) -> io::Result<()> {
    if let Some(i) = inj {
        if let Some((kind, cut)) = i.decide_write(buf.len()) {
            if cut > 0 {
                // The prefix a torn/short write leaves behind; its own
                // failure is irrelevant — the op is failing anyway.
                let _ = file.write_all(&buf[..cut]);
            }
            return Err(io::Error::other(format!(
                "injected {kind:?}: {cut} of {} bytes written",
                buf.len()
            )));
        }
    }
    file.write_all(buf)
}

/// The injectable `sync_data`.
pub(crate) fn sync_data(inj: Option<&FaultInjector>, file: &File) -> io::Result<()> {
    injected_sync(inj)?;
    file.sync_data()
}

/// Fail a sync — of a file or of a directory — when `inj` says so.
pub(crate) fn injected_sync(inj: Option<&FaultInjector>) -> io::Result<()> {
    match inj {
        Some(i) if i.decide_sync() => Err(io::Error::other("injected fsync failure")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::path::PathBuf;

    fn dir() -> PathBuf {
        use std::sync::atomic::AtomicU32;
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "epilog-fault-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn tmp_file(d: &std::path::Path) -> File {
        File::create(d.join("f")).unwrap()
    }

    fn read_back(d: &std::path::Path) -> Vec<u8> {
        let mut buf = Vec::new();
        File::open(d.join("f"))
            .unwrap()
            .read_to_end(&mut buf)
            .unwrap();
        buf
    }

    #[test]
    fn scripted_write_faults_fire_at_their_index() {
        let d = dir();
        let mut f = tmp_file(&d);
        let inj = FaultInjector::new(1);
        inj.fail_nth_write(1, FaultKind::FailOp);
        assert!(write_all(Some(&inj), &mut f, b"aaaa").is_ok());
        assert!(write_all(Some(&inj), &mut f, b"bbbb").is_err());
        assert!(write_all(Some(&inj), &mut f, b"cccc").is_ok());
        assert_eq!(read_back(&d), b"aaaacccc", "clean failure: no bytes");
        assert_eq!(inj.writes(), 3);
        assert_eq!(inj.injected(), 1);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn torn_and_short_writes_leave_a_strict_prefix() {
        let d = dir();
        let mut f = tmp_file(&d);
        let inj = FaultInjector::new(7);
        inj.fail_nth_write(0, FaultKind::TornWrite);
        inj.fail_nth_write(1, FaultKind::ShortWrite);
        assert!(write_all(Some(&inj), &mut f, b"0123456789").is_err());
        let torn = read_back(&d).len();
        assert!((1..10).contains(&torn), "strict non-empty prefix: {torn}");
        assert!(write_all(Some(&inj), &mut f, b"abcd").is_err());
        assert_eq!(read_back(&d).len(), torn + 3, "short write: all but one");
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn disarm_passes_everything_through() {
        let d = dir();
        let mut f = tmp_file(&d);
        let inj = FaultInjector::new(3);
        inj.set_write_rate(1, 1); // every write would fail…
        inj.set_sync_rate(1, 1);
        inj.disarm(); // …but the switch is off
        assert!(write_all(Some(&inj), &mut f, b"xyz").is_ok());
        assert!(sync_data(Some(&inj), &f).is_ok());
        assert_eq!(inj.injected(), 0);
        assert_eq!((inj.writes(), inj.syncs()), (1, 1), "counters still count");
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn seeded_rates_are_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(seed);
            inj.set_sync_rate(1, 3);
            (0..32).map(|_| inj.decide_sync()).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
        let fired = run(42).iter().filter(|b| **b).count();
        assert!(fired > 0 && fired < 32, "rate is neither 0 nor 1: {fired}");
    }
}
