//! `trajectory` — a wire-level benchmark of the served epistemic
//! database, with per-layer attribution. See `README.md` beside
//! `Cargo.toml` for the metric glossary, the workloads and how to run.
//!
//! ```text
//! trajectory --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out FILE]
//! trajectory all [--seed <n>] [--seconds <s>] [--runs <r>] [--out FILE] [--trace-out PREFIX]
//! trajectory compare A.json B.json
//! ```

mod gen;
mod replay;
mod stats;
mod wire;

use gen::{Kind, Workload};
use stats::{iqr_share, median, percentile, Json};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use wire::{DataDir, Server, WireRun};

/// Discarded at the start of every wire run: connections open, caches
/// and the prover memo fill.
const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per end-to-end run, `setup_s` being their median: at least
/// `SETUPS.0`, then more while they have taken under `SETUP_BUDGET` in
/// all, up to `SETUPS.1` — a 5 ms set-up needs more repeats than a 5 s
/// one for its median to hold still.
const SETUPS: (usize, usize) = (3, 25);
const SETUP_BUDGET: f64 = 1.0;
/// Window length when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: u64 = 10;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

/// One reported metric: name, unit, direction and — for end-to-end
/// metrics — the share of the baseline's median it may worsen by.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the served database sees. Every one exists on every
/// workload and is never 0; op kinds that some workload lacks (commits
/// on `registrar_read`, asks on `closure_write`) are reported per kind
/// under `wire.*` below instead.
const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("read_p50_ms", "ms", Lower, 0.10),
];

/// Single-layer metrics (layer = crate, `wire` = the client's view per op
/// kind). A metric whose op does not occur on a workload reads 0 there.
const PER_LAYER: &[Metric] = &[
    layer("wire.ask_ground_p50_ms", "ms", Lower),
    layer("wire.ask_ground_p99_ms", "ms", Lower),
    layer("wire.ask_quant_p50_ms", "ms", Lower),
    layer("wire.demo_p50_ms", "ms", Lower),
    layer("wire.commit_grow_p50_ms", "ms", Lower),
    layer("wire.commit_grow_p90_ms", "ms", Lower),
    layer("wire.commit_shrink_p50_ms", "ms", Lower),
    layer("wire.commit_point_p50_ms", "ms", Lower),
    layer("wire.reject_p50_ms", "ms", Lower),
    layer("server.wire_overhead_read_ms", "ms", Lower),
    layer("server.wire_overhead_commit_ms", "ms", Lower),
    layer("server.lines_per_op", "count", Lower),
    layer("server.rss_mb", "MB", Lower),
    layer("syntax.parse_us", "us", Lower),
    layer("core.build_ms", "ms", Lower),
    layer("core.ask_warm_us", "us", Lower),
    layer("core.ask_cold_ms", "ms", Lower),
    layer("core.ask_cold_share", "ratio", Lower),
    layer("core.demo_us", "us", Lower),
    layer("core.prepare_grow_ms", "ms", Lower),
    layer("core.prepare_shrink_ms", "ms", Lower),
    layer("core.prepare_point_ms", "ms", Lower),
    layer("core.prepare_reject_ms", "ms", Lower),
    layer("core.apply_us", "us", Lower),
    layer("core.publish_ms", "ms", Lower),
    layer("core.constraints_skipped", "count", Higher),
    layer("core.constraints_specialized", "count", Lower),
    layer("core.constraints_full", "count", Lower),
    layer("datalog.rule_firings_per_commit", "count", Lower),
    layer("datalog.iterations_per_commit", "count", Lower),
    layer("datalog.rows_examined_per_commit", "count", Lower),
    layer("datalog.derivations_per_commit", "count", Lower),
    layer("datalog.tuples_overdeleted_per_commit", "count", Lower),
    layer("datalog.tuples_rederived_per_commit", "count", Lower),
    layer("datalog.support_checks_per_commit", "count", Lower),
    layer("datalog.plans_compiled_per_commit", "count", Lower),
    layer("datalog.full_eval_ms", "ms", Lower),
    layer("storage.model_tuples", "count", Lower),
    layer("storage.model_clone_ms", "ms", Lower),
    layer("prover.sat_calls_per_read", "count", Lower),
    layer("prover.memo_entries", "count", Lower),
    layer("persist.build_dir_ms", "ms", Lower),
    layer("persist.serve_commit_ms", "ms", Lower),
    layer("persist.queue_overhead_ms", "ms", Lower),
    layer("persist.wal_append_us", "us", Lower),
    layer("persist.wal_sync_us", "us", Lower),
    layer("persist.wal_bytes_per_commit", "bytes", Lower),
    layer("persist.commits_per_fsync", "ratio", Higher),
    layer("persist.commits_per_batch", "ratio", Higher),
    layer("persist.snapshot_write_ms", "ms", Lower),
    layer("persist.snapshot_bytes", "bytes", Lower),
    layer("persist.snapshot_load_ms", "ms", Lower),
    layer("persist.recover_ms_per_record", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.unattributed_us", "us", Lower),
];

/// The per-kind wire latencies: metric, op kind, percentile, and whether
/// the `commit` line alone is timed (transactions) or the whole op.
const WIRE_KINDS: &[(&str, Kind, f64, bool)] = &[
    ("wire.ask_ground_p50_ms", Kind::AskGround, 0.50, false),
    ("wire.ask_ground_p99_ms", Kind::AskGround, 0.99, false),
    ("wire.ask_quant_p50_ms", Kind::AskQuant, 0.50, false),
    ("wire.demo_p50_ms", Kind::Demo, 0.50, false),
    ("wire.commit_grow_p50_ms", Kind::Grow, 0.50, true),
    ("wire.commit_grow_p90_ms", Kind::Grow, 0.90, true),
    ("wire.commit_shrink_p50_ms", Kind::Shrink, 0.50, true),
    ("wire.commit_point_p50_ms", Kind::PointGrow, 0.50, true),
    ("wire.reject_p50_ms", Kind::Reject, 0.50, true),
];

/// Where and how a run happened — recorded with every result.
fn host(data_root: &Path) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    // The mount whose path is the longest prefix of the data directory.
    let root = data_root
        .canonicalize()
        .unwrap_or_else(|_| data_root.to_path_buf());
    let fs = std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, at, kind) = (f.next()?, f.next()?, f.next()?);
            root.starts_with(at).then(|| (at.len(), kind.to_string()))
        })
        .max()
        .map_or("unknown".to_string(), |(_, kind)| kind);
    vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "EPILOG_THREADS".into(),
            Json::str(std::env::var("EPILOG_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("data_fs".into(), Json::Str(fs)),
        ("commit".into(), Json::Str(commit)),
        ("connections".into(), Json::Num(gen::CONNECTIONS as f64)),
        ("warmup_s".into(), Json::Num(WARMUP.as_secs_f64())),
    ]
}

/// One run of one workload: a wire run, and with `trace` the in-process
/// replay after it.
struct Run {
    wire: WireRun,
    /// `setup_s` samples (one per set-up).
    setups: Vec<f64>,
    traced: Option<replay::Traced>,
}

fn run_once(
    workload: Workload,
    seed: u64,
    window: Duration,
    trace: bool,
    binary: &Path,
    data_root: &Path,
) -> Result<Run, String> {
    if !trace {
        // Each set-up but the last is torn down at once.
        let (mut served, secs) = wire::setup(workload, binary, data_root)?;
        let mut setups = vec![secs];
        while setups.len() < SETUPS.0
            || (setups.len() < SETUPS.1 && setups.iter().sum::<f64>() < SETUP_BUDGET)
        {
            drop(served);
            let (next, secs) = wire::setup(workload, binary, data_root)?;
            setups.push(secs);
            served = next;
        }
        let wire = wire::run_wire(workload, seed, served, WARMUP, window);
        return Ok(Run {
            wire,
            setups,
            traced: None,
        });
    }
    // Traced: build once, keep a pristine copy for the replay, serve the
    // original.
    let dir = DataDir::fresh(data_root, workload.name()).map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    wire::build_dir(workload, dir.path())?;
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    let pristine = dir.copy(data_root, "pristine").map_err(|e| e.to_string())?;
    let served = wire::serve(workload, binary, dir)?;
    let wire = wire::run_wire(workload, seed, served, WARMUP, window);
    let mut traced = replay::traced_run(workload, seed, &pristine, data_root, window / 2)?;
    traced.values.insert("persist.build_dir_ms", build_ms);
    Ok(Run {
        wire,
        setups: Vec::new(),
        traced: Some(traced),
    })
}

/// The samples a `wire.*` metric draws on, from one or several runs.
fn wire_samples(runs: &[&WireRun], kind: Kind, commit_line: bool) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| {
            if commit_line {
                r.commit_ms(kind)
            } else {
                r.op_ms(kind)
            }
        })
        .collect()
}

/// End-to-end values of one run, in `END_TO_END` order.
fn end_to_end(workload: Workload, run: &Run) -> Result<Vec<(&'static str, f64)>, String> {
    let w = &run.wire;
    // The driver needs every end-to-end metric on every run, so a thin
    // median is reported (its sample count is in the info line) where a
    // `wire.*` percentile would be omitted.
    let reads = w.op_ms(workload.primary_read());
    if reads.is_empty() {
        return Err("no primary read completed inside the window".into());
    }
    Ok(vec![
        ("setup_s", median(&run.setups)),
        ("ops_per_s", w.ops_per_s),
        ("read_p50_ms", median(&reads)),
    ])
}

/// Per-layer values, in `PER_LAYER` order, and the names of the metrics
/// omitted for want of samples (those read 0). `pool` is every wire run
/// whose samples the `wire.*` percentiles may draw on.
fn per_layer(
    workload: Workload,
    run: &Run,
    pool: &[&WireRun],
) -> (Vec<(&'static str, f64)>, Vec<&'static str>) {
    let traced = run
        .traced
        .as_ref()
        .expect("per-layer metrics come from a traced run");
    let w = &run.wire;
    let mut values: HashMap<&'static str, f64> = traced.values.clone();
    let mut omitted = Vec::new();
    for &(name, kind, p, commit_line) in WIRE_KINDS {
        let samples = wire_samples(pool, kind, commit_line);
        match percentile(&samples, p) {
            Some(v) => {
                values.insert(name, v);
            }
            None if samples.is_empty() => {}
            None => omitted.push(name),
        }
    }
    let overhead = |wire_ms: Option<f64>, kind: Kind| match (wire_ms, traced.op_ms.get(&kind)) {
        (Some(wire_ms), Some(inproc)) => wire_ms - inproc,
        _ => 0.0,
    };
    let read = workload.primary_read();
    values.insert(
        "server.wire_overhead_read_ms",
        overhead(percentile(&wire_samples(pool, read, false), 0.50), read),
    );
    // The commit line's wire time against the whole in-process op (its
    // parses, microseconds, included).
    values.insert(
        "server.wire_overhead_commit_ms",
        overhead(
            percentile(&wire_samples(pool, Kind::Grow, true), 0.50),
            Kind::Grow,
        ),
    );
    values.insert(
        "server.lines_per_op",
        w.lines as f64 / w.attempted.max(1) as f64,
    );
    values.insert("server.rss_mb", w.rss_mb);
    let stat = |key: &str| w.stats.get(key).copied().unwrap_or(0.0);
    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    values.insert(
        "persist.commits_per_fsync",
        per(stat("commits"), stat("fsyncs")),
    );
    values.insert(
        "persist.commits_per_batch",
        per(stat("commits"), stat("batches")),
    );
    let list = PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    (list, omitted)
}

/// Sample counts behind the timings: in-window ops per kind.
fn sample_counts(runs: &[&WireRun]) -> Json {
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for s in runs.iter().flat_map(|r| &r.samples) {
        *counts.entry(format!("{:?}", s.kind)).or_default() += 1.0;
    }
    Json::obj(counts.into_iter().map(|(k, n)| (k, Json::Num(n))))
}

/// `values` (in `defs` order) as the result line's `metrics` object.
fn metric_json(values: &[(&'static str, f64)], defs: &[Metric]) -> Json {
    Json::obj(values.iter().zip(defs).map(|((name, value), def)| {
        assert_eq!(*name, def.name, "values follow the metric table's order");
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]),
        )
    }))
}

struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: HashMap::new(),
            positional: Vec::new(),
        };
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    args.flags.insert(flag.to_string(), value);
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn num(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag} needs a whole number, got {v:?}")),
        }
    }
}

/// The driver's contract: one workload, one run, one result line.
fn driver_mode(args: &Args, workload: &str) -> Result<bool, String> {
    let workload = Workload::from_name(workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload:?}; one of {names:?}")
    })?;
    let seed = args.num("seed", 1)?;
    let seconds = args.num("seconds", DEFAULT_SECONDS)?.max(1);
    let trace = args.num("trace", 0)? != 0;
    let binary = Server::locate()?;
    let data_root = binary.with_file_name("trajectory-data");

    let run = run_once(
        workload,
        seed,
        Duration::from_secs(seconds),
        trace,
        &binary,
        &data_root,
    )?;
    let (metrics, omitted) = if trace {
        let (values, omitted) = per_layer(workload, &run, &[&run.wire]);
        (metric_json(&values, PER_LAYER), omitted)
    } else {
        (
            metric_json(&end_to_end(workload, &run)?, END_TO_END),
            Vec::new(),
        )
    };
    if let (Some(traced), Some(path)) = (&run.traced, args.flags.get("trace-out")) {
        traced
            .tracer
            .write(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let (replayed, replay_failed) = run
        .traced
        .as_ref()
        .map_or((0, 0), |t| (t.replayed, t.failed));
    let attempted = run.wire.attempted + replayed;
    let failed = run.wire.failed + replay_failed;

    let mut info = host(&data_root);
    info.extend([
        ("workload".into(), Json::str(workload.name())),
        ("seed".into(), Json::Num(seed as f64)),
        ("window_s".into(), Json::Num(seconds as f64)),
        ("samples".into(), sample_counts(&[&run.wire])),
        (
            "setup_s_samples".into(),
            Json::Arr(run.setups.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("replayed_ops".into(), Json::Num(replayed as f64)),
        (
            "omitted".into(),
            Json::Arr(omitted.into_iter().map(Json::str).collect()),
        ),
        (
            "failures".into(),
            Json::Arr(run.wire.failures.iter().map(Json::str).collect()),
        ),
    ]);
    println!("{}", Json::obj([("trajectory", Json::Obj(info))]));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics),
        ])
    );
    Ok(true)
}

/// Every workload: `runs` end-to-end runs on consecutive seeds and one
/// traced run, every metric printed by name with its unit. Returns
/// whether every reply of every run was right.
fn all_mode(args: &Args) -> Result<bool, String> {
    let seed = args.num("seed", 1)?;
    let seconds = args.num("seconds", DEFAULT_SECONDS)?.max(1);
    let runs = args.num("runs", 1)?.max(1);
    let window = Duration::from_secs(seconds);
    let binary = Server::locate()?;
    let data_root = binary.with_file_name("trajectory-data");

    let mut correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        println!("== {} — {}", workload.name(), workload.why());
        let mut e2e_runs = Vec::new();
        for r in 0..runs {
            let run = run_once(workload, seed + r, window, false, &binary, &data_root)?;
            e2e_runs.push((end_to_end(workload, &run)?, run));
        }
        let traced = run_once(workload, seed, window, true, &binary, &data_root)?;
        let pool: Vec<&WireRun> = e2e_runs
            .iter()
            .map(|(_, r)| &r.wire)
            .chain([&traced.wire])
            .collect();
        let (layers, omitted) = per_layer(workload, &traced, &pool);

        let (mut attempted, mut failed) = (0, 0);
        for w in &pool {
            attempted += w.attempted;
            failed += w.failed;
            for f in &w.failures {
                println!("   FAILED: {f}");
            }
        }
        let t = traced.traced.as_ref().expect("traced run");
        attempted += t.replayed;
        failed += t.failed;
        correct &= failed == 0;

        let mut e2e_json = Vec::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = e2e_runs.iter().map(|(v, _)| v[i].1).collect();
            println!(
                "   {:<38} {:>14.4} {:<6} (median of {} runs, IQR {:.1}% of it)",
                m.name,
                median(&values),
                m.unit,
                values.len(),
                iqr_share(&values) * 100.0
            );
            e2e_json.push((
                m.name,
                Json::obj([
                    ("value", Json::Num(median(&values))),
                    ("unit", Json::str(m.unit)),
                    ("iqr_share", Json::Num(iqr_share(&values))),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let failed_ratio = failed as f64 / attempted.max(1) as f64;
        println!(
            "   {:<38} {:>14.4} {:<6} ({failed} of {attempted} ops and audit checks)",
            "failed_ratio", failed_ratio, "ratio"
        );
        for ((name, value), def) in layers.iter().zip(PER_LAYER) {
            let unit = def.unit;
            let note = if omitted.contains(name) {
                " (omitted: too few samples)"
            } else {
                ""
            };
            println!("   {name:<38} {value:>14.4} {unit:<6}{note}");
        }
        if let Some(prefix) = args.flags.get("trace-out") {
            let path = PathBuf::from(format!("{prefix}.{}.jsonl", workload.name()));
            t.tracer
                .write(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        workloads.push((
            workload.name(),
            Json::obj([
                ("why", Json::str(workload.why())),
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("failed_ratio", Json::Num(failed_ratio)),
                ("end_to_end", Json::obj(e2e_json)),
                ("per_layer", metric_json(&layers, PER_LAYER)),
                ("samples", sample_counts(&pool)),
                ("replayed_ops", Json::Num(t.replayed as f64)),
                (
                    "omitted",
                    Json::Arr(omitted.into_iter().map(Json::str).collect()),
                ),
            ]),
        ));
    }
    let mut doc = host(&data_root);
    doc.extend([
        ("seed".into(), Json::Num(seed as f64)),
        ("runs".into(), Json::Num(runs as f64)),
        ("window_s".into(), Json::Num(seconds as f64)),
        ("workloads".into(), Json::obj(workloads)),
    ]);
    let doc = Json::Obj(doc);
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?
        }
        None => println!("{doc}"),
    }
    Ok(correct)
}

/// `compare A.json B.json`: one row per workload x end-to-end metric,
/// both medians, B's ratio to A (the base), and the bound. Returns
/// whether B stays within every bound.
fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let value = |doc: &Json, workload: &str, metric: &str| {
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    println!("base A = {a_path}, B = {b_path}; ratio = B / A");
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8}  {:<14} verdict",
        "workload", "metric", "A", "B", "ratio", "bound"
    );
    let mut within = true;
    for workload in Workload::ALL {
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let (Some(va), Some(vb)) = (
                value(&a, workload.name(), m.name),
                value(&b, workload.name(), m.name),
            ) else {
                println!(
                    "{:<16} {:<12} missing from one side",
                    workload.name(),
                    m.name
                );
                within = false;
                continue;
            };
            let ratio = vb / va;
            let (limit, breach) = match m.better {
                Lower => (format!("<= {:.2} x A", 1.0 + bound), ratio > 1.0 + bound),
                Higher => (format!(">= {:.2} x A", 1.0 - bound), ratio < 1.0 - bound),
            };
            within &= !breach;
            println!(
                "{:<16} {:<12} {va:>12.4} {vb:>12.4} {ratio:>8.3}  {limit:<14} {}",
                workload.name(),
                m.name,
                if breach { "BREACH" } else { "ok" }
            );
        }
        let failed = |doc: &Json| {
            doc.get("workloads")?
                .get(workload.name())?
                .get("failed_ratio")?
                .as_f64()
        };
        if let (Some(fa), Some(fb)) = (failed(&a), failed(&b)) {
            // Any rise in failures fails, whatever the other numbers say.
            let breach = fb > fa;
            within &= !breach;
            println!(
                "{:<16} {:<12} {fa:>12.4} {fb:>12.4} {:>8}  {:<14} {}",
                workload.name(),
                "failed_ratio",
                "-",
                "no rise",
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
        match (positional.as_slice(), args.flags.get("workload")) {
            ([], Some(workload)) => driver_mode(&args, workload),
            ([] | ["all"], None) => all_mode(&args),
            (["compare", a, b], None) => compare(a, b),
            _ => Err("usage: trajectory --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out FILE]\n       \
                      trajectory all [--seed <n>] [--seconds <s>] [--runs <r>] [--out FILE] [--trace-out PREFIX]\n       \
                      trajectory compare A.json B.json"
                .into()),
        }
    });
    match outcome {
        // `all` and `compare` fail on wrong replies and breached bounds;
        // a single driver run reports them in its result line instead.
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("trajectory: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| match m.get("name") {
                    Some(Json::Str(s)) => s.clone(),
                    _ => panic!("{key} entry without a name"),
                })
                .collect()
        };
        assert_eq!(names("workloads"), Workload::ALL.map(|w| w.name()));
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );

        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            unreachable!()
        };
        for (w, entry) in Workload::ALL.iter().zip(workloads) {
            assert_eq!(entry.get("why"), Some(&Json::str(w.why())));
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                unreachable!()
            };
            for (m, entry) in defs.iter().zip(items) {
                assert_eq!(entry.get("unit"), Some(&Json::str(m.unit)), "{}", m.name);
                let better = if m.better == Lower { "lower" } else { "higher" };
                assert_eq!(entry.get("better"), Some(&Json::str(better)), "{}", m.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn every_wire_metric_is_a_listed_per_layer_metric() {
        for (name, ..) in WIRE_KINDS {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }

    #[test]
    fn args_split_flags_from_positionals() {
        let args = Args::parse(
            ["compare", "a.json", "--seed", "7", "b.json"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert_eq!(args.positional, ["compare", "a.json", "b.json"]);
        assert_eq!(args.num("seed", 1), Ok(7));
        assert_eq!(args.num("seconds", 10), Ok(10));
        assert!(Args::parse(["--seed".to_string()].into_iter()).is_err());
    }
}
