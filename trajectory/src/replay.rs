//! The traced run: connection 0's op stream replayed single-threaded
//! in-process through each layer's public functions, with a span around
//! every call, plus the micro-measures that have no place in an op.
//!
//! read   = `syntax.parse` → `core.snapshot` → `core.ask` | `core.demo`
//! commit = `syntax.parse`×k → `core.prepare` → `persist.wal_append` →
//!          `persist.wal_sync` → `core.apply` → `core.publish`
//!
//! which is the server's own sequence (`Session::ask`, the `serve.rs`
//! writer) minus sockets, the commit queue and batching. Spans stay in
//! memory and are written out at the end. End-to-end numbers never come
//! from here; spans inside the product are a later change.

use crate::gen::{Body, Kind, Op, OpStream, Outcome, Workload};
use crate::stats::{mean, median};
use crate::wire::DataDir;
use epilog_core::{definite_model, Answer, CommittedState, EpistemicDb, ModelUpdate, StateCell};
use epilog_persist::{DurableDb, FsyncPolicy, ServeOptions, ServingDb, Snapshot, TxOp, Wal, WalOp};
use epilog_syntax::{parse, Formula, Theory};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ops replayed at most (or as many as fit the replay's time budget).
pub const REPLAY_OPS: usize = 300;
/// Log records in the recovery tail (or as many as fit its time budget).
pub const RECOVERY_TAIL: usize = 50;
/// Repetitions of each one-shot micro-measure; the median is reported.
const MICRO_REPS: usize = 5;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for an op's root span.
    pub parent: Option<u32>,
    pub op_id: u32,
}

/// In-memory span recorder. Switched off it takes no clock readings, so
/// replaying the same ops with it on and off prices the tracing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>, op_id: u32) -> u32 {
        if !self.on {
            return 0;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        self.spans.len() as u32 - 1
    }

    fn close(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    fn span<T>(&mut self, name: &'static str, parent: u32, op_id: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent), op_id);
        let out = f();
        self.close(id);
        out
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent,
    /// op_id}`. A span's self time is its duration minus its children's.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        out.flush()
    }
}

/// What the replay learned about one op beyond its spans.
struct OpNote {
    kind: Kind,
    ok: bool,
    /// The read added a memo entry: it was not answered from the memo.
    cold: bool,
    sat_calls: u64,
    /// Index of the read's `core.ask` / `core.demo` span.
    call: Option<u32>,
    /// `CommitReport.checks` and the receipt's `EvalStats`, for commits.
    commit: Option<CommitNote>,
}

#[derive(Clone, Copy)]
struct CommitNote {
    checks: [u64; 3],
    /// firings, iterations, rows examined, derivations, over-deleted,
    /// re-derived, support checks, plans compiled.
    eval: [u64; 8],
}

/// The writer's state, as `persist::serve` holds it: the working
/// database, the log, and the published head.
struct Pipeline {
    working: EpistemicDb,
    cell: StateCell,
    wal: Wal,
    _wal_dir: DataDir,
}

impl Pipeline {
    fn new(base: &EpistemicDb, root: &Path) -> Result<Pipeline, String> {
        let wal_dir = DataDir::fresh(root, "replay-wal").map_err(|e| e.to_string())?;
        let wal = Wal::create(wal_dir.path().join("wal.log"), FsyncPolicy::Never)
            .map_err(|e| e.to_string())?;
        Ok(Pipeline {
            working: base.clone(),
            cell: StateCell::new(base.clone(), 0),
            wal,
            _wal_dir: wal_dir,
        })
    }

    fn run(&mut self, tr: &mut Tracer, op_id: u32, op: &Op) -> OpNote {
        let mut note = OpNote {
            kind: op.kind,
            ok: false,
            cold: false,
            sat_calls: 0,
            call: None,
            commit: None,
        };
        match &op.body {
            Body::Ask { q, .. } | Body::Demo { q, .. } => {
                let root = tr.open("op.read", None, op_id);
                let q = tr.span("syntax.parse", root, op_id, || parse(q));
                let snap = tr.span("core.snapshot", root, op_id, || self.cell.snapshot());
                let (memo, sat) = (snap.prover().memo_len(), snap.prover().sat_calls());
                if let Ok(q) = q {
                    note.call = Some(tr.spans.len() as u32);
                    note.ok = match &op.body {
                        Body::Ask { verdict, .. } => {
                            let got = tr.span("core.ask", root, op_id, || snap.ask(&q));
                            *verdict
                                == match got {
                                    Answer::Yes => "yes",
                                    Answer::No => "no",
                                    Answer::Unknown => "unknown",
                                }
                        }
                        Body::Demo { rows, .. } => {
                            let got = tr.span("core.demo", root, op_id, || snap.demo_all(&q));
                            got.is_ok_and(|got| {
                                let mut got: Vec<String> = got
                                    .iter()
                                    .map(|r| {
                                        r.iter()
                                            .map(ToString::to_string)
                                            .collect::<Vec<_>>()
                                            .join(" ")
                                    })
                                    .collect();
                                got.sort();
                                let mut want = rows.clone();
                                want.sort();
                                got == want
                            })
                        }
                        Body::Txn { .. } => unreachable!(),
                    };
                }
                tr.close(root);
                note.cold = snap.prover().memo_len() > memo;
                note.sat_calls = snap.prover().sat_calls() - sat;
            }
            Body::Txn { ops, outcome } => {
                let root = tr.open("op.commit", None, op_id);
                let parsed: Vec<(bool, Formula)> = ops
                    .iter()
                    .filter_map(|(assert, s)| {
                        let w = tr.span("syntax.parse", root, op_id, || parse(s)).ok()?;
                        Some((*assert, w))
                    })
                    .collect();
                let prepared = tr.span("core.prepare", root, op_id, || {
                    let mut txn = self.working.transaction();
                    for (assert, w) in parsed {
                        txn = if assert {
                            txn.assert(w)
                        } else {
                            txn.retract(w)
                        };
                    }
                    txn.prepare()
                });
                match prepared {
                    Err(_) => note.ok = *outcome == Outcome::Rejected,
                    Ok(p) => {
                        let mut wal_ops: Vec<WalOp> =
                            p.removed().iter().cloned().map(WalOp::Retract).collect();
                        wal_ops.extend(p.added().iter().cloned().map(WalOp::Assert));
                        let appended = tr.span("persist.wal_append", root, op_id, || {
                            self.wal.append(&wal_ops)
                        });
                        let synced = tr.span("persist.wal_sync", root, op_id, || self.wal.sync());
                        let report = tr.span("core.apply", root, op_id, || p.commit());
                        tr.span("core.publish", root, op_id, || {
                            let next =
                                CommittedState::new(self.working.clone(), self.wal.last_lsn());
                            self.cell.publish(Arc::new(next));
                        });
                        note.ok = appended.is_ok()
                            && synced.is_ok()
                            && *outcome
                                == Outcome::Committed {
                                    added: report.asserted,
                                    removed: report.retracted,
                                };
                        let mut commit = CommitNote {
                            checks: [
                                report.checks.skipped,
                                report.checks.specialized,
                                report.checks.full,
                            ],
                            eval: [0; 8],
                        };
                        if let ModelUpdate::Incremental { stats, .. } = &report.model {
                            commit.eval = [
                                stats.rule_firings,
                                stats.iterations,
                                stats.rows_examined,
                                stats.derivations,
                                stats.tuples_overdeleted,
                                stats.tuples_rederived,
                                stats.support_checks,
                                stats.plans_compiled,
                            ];
                        }
                        note.commit = Some(commit);
                    }
                }
                tr.close(root);
            }
        }
        note
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

/// Median milliseconds of `MICRO_REPS` runs of `f`.
fn micro(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..MICRO_REPS).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// What the traced run reports: per-layer values by metric name, the
/// span log, and how many in-process replies were wrong.
pub struct Traced {
    pub values: HashMap<&'static str, f64>,
    /// In-process p50 of one whole op (its root span) by kind, in ms —
    /// what the wire-overhead metrics subtract.
    pub op_ms: HashMap<Kind, f64>,
    pub tracer: Tracer,
    pub replayed: u64,
    pub failed: u64,
}

/// Replay and micro-measure `workload` on `pristine`, a built directory
/// no server has touched. `budget` bounds each of the replay's two
/// passes and the in-process serving run.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    pristine: &DataDir,
    root: &Path,
    budget: Duration,
) -> Result<Traced, String> {
    let mut v: HashMap<&'static str, f64> = HashMap::new();

    let (recovered, base_recover_ms) =
        timed(|| DurableDb::recover(pristine.path(), FsyncPolicy::Never));
    let (durable, _) = recovered.map_err(|e| e.to_string())?;
    let base: EpistemicDb = durable.db().clone();
    drop(durable);

    // Pass 1, spans off: as many of the first REPLAY_OPS ops as fit the
    // budget. Pass 2, spans on: exactly the same ops.
    let ops: Vec<Op> = OpStream::new(workload, seed, 0).take(REPLAY_OPS).collect();
    let mut off = Tracer::new(false);
    let mut pipe = Pipeline::new(&base, root)?;
    let start = Instant::now();
    let mut done = 0;
    for (i, op) in ops.iter().enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        let _ = pipe.run(&mut off, i as u32, op);
        done = i + 1;
    }
    let off_ms = ms(start.elapsed());
    drop(pipe);

    let mut tracer = Tracer::new(true);
    let mut pipe = Pipeline::new(&base, root)?;
    let start = Instant::now();
    let notes: Vec<OpNote> = ops[..done]
        .iter()
        .enumerate()
        .map(|(i, op)| pipe.run(&mut tracer, i as u32, op))
        .collect();
    let on_ms = ms(start.elapsed());
    v.insert(
        "trace.overhead_ratio",
        if off_ms > 0.0 { on_ms / off_ms } else { 0.0 },
    );

    // Span durations in ms, by span name and by the kind of their op.
    let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut by_kind: HashMap<(&str, Kind), Vec<f64>> = HashMap::new();
    let mut children_ms = vec![0.0; tracer.spans.len()];
    for s in &tracer.spans {
        let d = (s.end_ns - s.start_ns) as f64 / 1e6;
        by_name.entry(s.name).or_default().push(d);
        by_kind
            .entry((s.name, notes[s.op_id as usize].kind))
            .or_default()
            .push(d);
        if let Some(p) = s.parent {
            children_ms[p as usize] += d;
        }
    }
    let name_ms = |name: &str| by_name.get(name).map_or(0.0, |d| median(d));
    let kind_ms = |name: &str, kind: Kind| by_kind.get(&(name, kind)).map_or(0.0, |d| median(d));
    let unattributed: Vec<f64> = tracer
        .spans
        .iter()
        .zip(&children_ms)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(s, kids)| (s.end_ns - s.start_ns) as f64 / 1e3 - kids * 1e3)
        .collect();
    v.insert("trace.unattributed_us", median(&unattributed));
    let op_ms = by_kind
        .iter()
        .filter(|((name, _), _)| name.starts_with("op."))
        .map(|((_, kind), d)| (*kind, median(d)))
        .collect();

    v.insert("syntax.parse_us", name_ms("syntax.parse") * 1e3);
    v.insert("core.demo_us", name_ms("core.demo") * 1e3);
    v.insert("core.prepare_grow_ms", kind_ms("core.prepare", Kind::Grow));
    v.insert(
        "core.prepare_shrink_ms",
        kind_ms("core.prepare", Kind::Shrink),
    );
    v.insert(
        "core.prepare_point_ms",
        kind_ms("core.prepare", Kind::PointGrow),
    );
    v.insert(
        "core.prepare_reject_ms",
        kind_ms("core.prepare", Kind::Reject),
    );
    v.insert("core.apply_us", name_ms("core.apply") * 1e3);
    v.insert("core.publish_ms", name_ms("core.publish"));
    v.insert("persist.wal_append_us", name_ms("persist.wal_append") * 1e3);
    v.insert("persist.wal_sync_us", name_ms("persist.wal_sync") * 1e3);

    // Asks split by whether the memo answered them.
    let (mut warm, mut cold) = (Vec::new(), Vec::new());
    for note in notes.iter().filter(|n| n.kind != Kind::Demo) {
        if let Some(span) = note.call.map(|i| &tracer.spans[i as usize]) {
            let d = (span.end_ns - span.start_ns) as f64 / 1e6;
            if note.cold { &mut cold } else { &mut warm }.push(d);
        }
    }
    v.insert("core.ask_warm_us", median(&warm) * 1e3);
    v.insert("core.ask_cold_ms", median(&cold));
    let asks = (warm.len() + cold.len()).max(1) as f64;
    v.insert("core.ask_cold_share", cold.len() as f64 / asks);

    let reads: Vec<&OpNote> = notes.iter().filter(|n| n.kind.is_read()).collect();
    let sat: u64 = reads.iter().map(|n| n.sat_calls).sum();
    v.insert(
        "prover.sat_calls_per_read",
        sat as f64 / reads.len().max(1) as f64,
    );
    v.insert(
        "prover.memo_entries",
        pipe.cell.snapshot().prover().memo_len() as f64,
    );

    let commits: Vec<CommitNote> = notes.iter().filter_map(|n| n.commit).collect();
    let per_commit = |f: &dyn Fn(&CommitNote) -> u64| {
        mean(&commits.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    for (i, name) in [
        "core.constraints_skipped",
        "core.constraints_specialized",
        "core.constraints_full",
    ]
    .into_iter()
    .enumerate()
    {
        v.insert(name, per_commit(&|c| c.checks[i]));
    }
    for (i, name) in [
        "datalog.rule_firings_per_commit",
        "datalog.iterations_per_commit",
        "datalog.rows_examined_per_commit",
        "datalog.derivations_per_commit",
        "datalog.tuples_overdeleted_per_commit",
        "datalog.tuples_rederived_per_commit",
        "datalog.support_checks_per_commit",
        "datalog.plans_compiled_per_commit",
    ]
    .into_iter()
    .enumerate()
    {
        v.insert(name, per_commit(&|c| c.eval[i]));
    }
    let wal_records = pipe.wal.records().max(1) as f64;
    v.insert(
        "persist.wal_bytes_per_commit",
        pipe.wal.len_bytes() as f64 / wal_records,
    );

    // The stage sum of each grow commit, to set against the same kind of
    // commit going through the real writer below (kinds are not pooled:
    // a hire and a fire differ a hundredfold).
    let mut stage_sum: HashMap<u32, f64> = HashMap::new();
    for s in tracer.spans.iter().filter(|s| s.parent.is_some()) {
        let note = &notes[s.op_id as usize];
        if note.kind == Kind::Grow && note.commit.is_some() && s.name != "syntax.parse" {
            *stage_sum.entry(s.op_id).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
    }
    let stage_sum_ms = median(&stage_sum.values().copied().collect::<Vec<_>>());
    let failed = notes.iter().filter(|n| !n.ok).count() as u64;
    drop(pipe);

    micro_measures(workload, &base, root, &mut v)?;
    let serving = serving_measures(workload, seed, pristine, root, budget)?;
    v.insert("persist.serve_commit_ms", serving.commit_ms.unwrap_or(0.0));
    v.insert(
        "persist.queue_overhead_ms",
        serving.commit_ms.map_or(0.0, |ms| ms - stage_sum_ms),
    );
    v.insert(
        "persist.recover_ms_per_record",
        if serving.tail_records == 0 {
            0.0
        } else {
            (serving.tail_recover_ms - base_recover_ms).max(0.0) / serving.tail_records as f64
        },
    );

    Ok(Traced {
        values: v,
        op_ms,
        tracer,
        replayed: done as u64,
        failed,
    })
}

/// One-shot measures on the base state: building it, evaluating it,
/// copying it, snapshotting it.
fn micro_measures(
    workload: Workload,
    base: &EpistemicDb,
    root: &Path,
    v: &mut HashMap<&'static str, f64>,
) -> Result<(), String> {
    let base_commits = workload.base();
    let text = std::iter::once(base_commits.rules.to_string())
        .chain(base_commits.commits.into_iter().flatten())
        .collect::<Vec<_>>()
        .join("\n");
    v.insert(
        "core.build_ms",
        micro(|| {
            let theory = Theory::from_text(&text).expect("base sentences parse");
            std::hint::black_box(EpistemicDb::new(theory));
        }),
    );
    v.insert(
        "datalog.full_eval_ms",
        match definite_model(base.theory()) {
            Some(_) => micro(|| {
                std::hint::black_box(definite_model(base.theory()));
            }),
            None => 0.0,
        },
    );
    let model = base.prover().atom_model();
    v.insert(
        "storage.model_tuples",
        model.map_or(0.0, |m| m.len() as f64),
    );
    v.insert(
        "storage.model_clone_ms",
        model.map_or(0.0, |m| {
            micro(|| {
                std::hint::black_box(m.clone());
            })
        }),
    );

    // persist: snapshot write and load.
    let snap_dir = DataDir::fresh(root, "replay-snap").map_err(|e| e.to_string())?;
    let mut path = None;
    v.insert(
        "persist.snapshot_write_ms",
        micro(|| path = Snapshot::of(base, 0, true).write(snap_dir.path()).ok()),
    );
    let path = path.ok_or("snapshot write failed")?;
    v.insert(
        "persist.snapshot_bytes",
        std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
    );
    v.insert(
        "persist.snapshot_load_ms",
        micro(|| {
            std::hint::black_box(Snapshot::load(&path).map(|s| s.restore().is_ok()).ok());
        }),
    );

    Ok(())
}

struct Serving {
    /// p50 of `commit_wait` over the grow commits; `None` without any.
    commit_ms: Option<f64>,
    tail_recover_ms: f64,
    tail_records: u64,
}

/// The stream's accepted commits through the real group-commit writer
/// (`ServingDb::commit_wait`), then recovery over the log tail they left.
fn serving_measures(
    workload: Workload,
    seed: u64,
    pristine: &DataDir,
    root: &Path,
    budget: Duration,
) -> Result<Serving, String> {
    let dir = pristine
        .copy(root, "replay-serve")
        .map_err(|e| e.to_string())?;
    let (db, _) = ServingDb::open(dir.path(), Theory::empty(), ServeOptions::default())
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut waits = Vec::new();
    let writes = OpStream::new(workload, seed, 0)
        .take(20 * RECOVERY_TAIL)
        .filter_map(|op| match op.body {
            Body::Txn {
                ops,
                outcome: Outcome::Committed { .. },
            } => Some((op.kind, ops)),
            _ => None,
        });
    for (kind, ops) in writes.take(RECOVERY_TAIL) {
        if start.elapsed() >= budget {
            break;
        }
        let tx: Vec<TxOp> = ops
            .iter()
            .map(|(assert, s)| {
                let w = parse(s).expect("generated sentences parse");
                if *assert {
                    TxOp::Assert(w)
                } else {
                    TxOp::Retract(w)
                }
            })
            .collect();
        let (receipt, wait_ms) = timed(|| db.commit_wait(tx));
        receipt.map_err(|e| e.to_string())?;
        if kind == Kind::Grow {
            waits.push(wait_ms);
        }
    }
    db.shutdown().map_err(|e| e.to_string())?;
    let (recovered, tail_recover_ms) = timed(|| DurableDb::recover(dir.path(), FsyncPolicy::Never));
    let (_, report) = recovered.map_err(|e| e.to_string())?;
    Ok(Serving {
        commit_ms: (!waits.is_empty()).then(|| median(&waits)),
        tail_recover_ms,
        tail_records: report.records_replayed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::build_dir;

    #[test]
    fn replay_answers_every_op_and_fills_every_layer() {
        let root =
            std::env::temp_dir().join(format!("trajectory-replay-test-{}", std::process::id()));
        let pristine = DataDir::fresh(&root, "base").unwrap();
        build_dir(Workload::ClosureWrite, pristine.path()).unwrap();
        let t = traced_run(
            Workload::ClosureWrite,
            1,
            &pristine,
            &root,
            Duration::from_secs(2),
        )
        .unwrap();
        assert!(t.replayed > 0);
        assert_eq!(t.failed, 0, "in-process replies match the generator");
        assert_eq!(t.values["storage.model_tuples"], 49_500.0);
        assert_eq!(t.values["datalog.plans_compiled_per_commit"], 0.0);
        assert_eq!(t.values["prover.sat_calls_per_read"], 0.0);
        assert!(t.values["core.publish_ms"] > 0.0);
        assert!(t.values["persist.recover_ms_per_record"] >= 0.0);
        // Children lie inside their parents, and every op has one root.
        let roots = t.tracer.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots as u64, t.replayed);
        for s in &t.tracer.spans {
            if let Some(p) = s.parent {
                let p = &t.tracer.spans[p as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns && p.op_id == s.op_id);
            }
        }
        drop(pristine);
        let _ = std::fs::remove_dir(&root);
    }
}
