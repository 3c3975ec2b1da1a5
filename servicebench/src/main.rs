//! `servicebench`: the end-to-end benchmark of `tps-service` and the
//! in-process `ShardedSampler`.
//!
//! ```text
//! servicebench --workload durable-ingest|live-query|inproc-query --seed N
//!              --seconds S --trace 0|1 --service-bin PATH --out DIR
//!              [--rustc V] [--commit C] [--source-digest D]
//! ```
//!
//! With `--trace 0` it runs untraced jobs for `S` seconds and reports the
//! end-to-end metrics; with `--trace 1` it runs one untraced job and then
//! replays the job in-process with spans around every call into a layer,
//! reporting the per-layer ledger. Every output is checked; the last line
//! of standard output is one JSON object, and any correctness mismatch
//! makes the exit code nonzero. `servicebench/run.py` builds everything and
//! is the command to use.

mod inproc;
mod replay;
mod service;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::turnstile::StrictTurnstileF0Sampler;
use tps_service::config::{job_signed_stream, job_stream, make_l2, make_turnstile};
use tps_service::{JobSpec, SamplerKind, ServiceBuilder, TransportKind};

use crate::inproc::InprocPlan;
use crate::replay::{ReplayOutcome, ReplayPlan};
use crate::service::{JobOutcome, Load, Ready};
use crate::stats::{median, percentile, ratio, Json};
use crate::trace::Tracer;

const UNIVERSE: u64 = 4096;
const WORKERS: usize = 2;
const CHUNK: usize = 65_536;

/// `durable-ingest`: 8M Zipf updates, `l2`, pipe transport, a checkpoint
/// barrier every 4 chunks, no query plane.
const DURABLE_COUNT: usize = 8_000_000;
const DURABLE_CHECKPOINT_EVERY: u64 = 4;

/// `live-query`: signed updates, TCP transport, query plane, no
/// checkpoint barrier after cut 0.
const LIVE_COUNT: usize = 8_000_000;
const LIVE_LOAD: (f64, f64) = (12.0, 200.0);
const LIVE_MAX_EPOCHS_STALE: u64 = 4;
const LIVE_STOP_FRACTION: f64 = 0.6;

/// `inproc-query`: a 4M stream fed 16 times in 64Ki batches.
const INPROC: InprocPlan = InprocPlan {
    seed: 0,
    count: 4_000_000,
    passes: 16,
    batch: 65_536,
    consistent_every: 16,
    setup_reps: 3,
};

/// Held-out check jobs run this share of the stream on a second seed.
const HELDOUT_DIVISOR: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DurableIngest,
    LiveQuery,
    InprocQuery,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "durable-ingest" => Some(Self::DurableIngest),
            "live-query" => Some(Self::LiveQuery),
            "inproc-query" => Some(Self::InprocQuery),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::DurableIngest => "durable-ingest",
            Self::LiveQuery => "live-query",
            Self::InprocQuery => "inproc-query",
        }
    }
}

/// The second seed every untraced run also checks: derived from the
/// measured seed, never measured itself.
fn heldout_seed(seed: u64) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    service_bin: PathBuf,
    out: PathBuf,
    provenance: Vec<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Option<String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let num = |v: Option<String>, key: &str| -> Result<f64, String> {
        v.ok_or_else(|| format!("missing {key}"))?
            .parse()
            .map_err(|_| format!("{key}: not a number"))
    };
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "--seed: not an integer")?;
    let seconds = num(get("--seconds"), "--seconds")?;
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let service_bin = PathBuf::from(get("--service-bin").ok_or("missing --service-bin")?);
    let out = PathBuf::from(get("--out").ok_or("missing --out")?);
    let mut provenance = vec![
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        ),
        ("heldout_seed".to_string(), heldout_seed(seed).to_string()),
    ];
    for key in ["rustc", "commit", "source-digest"] {
        if let Some(value) = get(&format!("--{key}")) {
            provenance.push((key.to_string(), value));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        service_bin: std::path::absolute(service_bin).map_err(|e| e.to_string())?,
        out: std::path::absolute(out).map_err(|e| e.to_string())?,
        provenance,
    })
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operation accounting and correctness for one run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    fn mismatch(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.mismatches.push(why);
    }
}

/// What a run reports besides its metrics.
struct RunReport {
    metrics: Vec<Metric>,
    /// Metrics that are not part of this mode's contract but that the run
    /// measured (printed and saved, not gated).
    extra: Vec<Metric>,
    tally: Tally,
    samples: Json,
    /// Whether any job or replay yielded measurements; without one the
    /// metrics are placeholders and the run fails.
    measured: bool,
}

// ---------------------------------------------------------------- service

struct ServiceWorkload {
    kind: SamplerKind,
    transport: &'static str,
    count: usize,
    checkpoint_every: u64,
    ready: Ready,
    load: Option<Load>,
}

fn service_workload(workload: Workload, count_divisor: usize) -> ServiceWorkload {
    match workload {
        Workload::DurableIngest => ServiceWorkload {
            kind: SamplerKind::L2,
            transport: "pipe",
            count: DURABLE_COUNT / count_divisor,
            checkpoint_every: DURABLE_CHECKPOINT_EVERY,
            ready: Ready::ManifestFrame,
            load: None,
        },
        Workload::LiveQuery => {
            let count = LIVE_COUNT / count_divisor;
            ServiceWorkload {
                kind: SamplerKind::Turnstile,
                transport: "tcp",
                count,
                checkpoint_every: count.div_ceil(CHUNK) as u64 + 1,
                ready: Ready::QueryListening,
                load: Some(Load {
                    consistent_per_s: LIVE_LOAD.0,
                    cached_per_s: LIVE_LOAD.1,
                    max_epochs_stale: LIVE_MAX_EPOCHS_STALE,
                    stop_fraction: LIVE_STOP_FRACTION,
                    count: count as u64,
                }),
            }
        }
        Workload::InprocQuery => unreachable!("inproc-query runs no service"),
    }
}

impl ServiceWorkload {
    fn common_args(&self, seed: u64) -> Vec<String> {
        [
            ("--workers", WORKERS.to_string()),
            ("--sampler", self.kind.as_str().to_string()),
            ("--universe", UNIVERSE.to_string()),
            ("--seed", seed.to_string()),
            ("--count", self.count.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect()
    }

    fn coordinator_args(&self, seed: u64) -> Vec<String> {
        let mut args = vec!["coordinator".to_string()];
        args.extend(self.common_args(seed));
        for (k, v) in [
            ("--chunk", CHUNK.to_string()),
            ("--checkpoint-every", self.checkpoint_every.to_string()),
            ("--transport", self.transport.to_string()),
        ] {
            args.push(k.to_string());
            args.push(v);
        }
        if self.load.is_some() {
            args.push("--query-listen".into());
            args.push("127.0.0.1:0".into());
        }
        args
    }

    fn reference_args(&self, seed: u64) -> Vec<String> {
        let mut args = vec!["reference".to_string()];
        args.extend(self.common_args(seed));
        args
    }

    fn spec(&self, seed: u64, chain_dir: &Path) -> JobSpec {
        let transport = match self.transport {
            "tcp" => TransportKind::Tcp {
                endpoints: Vec::new(),
            },
            _ => TransportKind::Pipe,
        };
        ServiceBuilder::new(self.kind, WORKERS)
            .universe(UNIVERSE)
            .seed(seed)
            .count(self.count)
            .chunk(CHUNK)
            .checkpoint_every(self.checkpoint_every)
            .checkpoint_dir(chain_dir)
            .transport(transport)
            .build()
            .expect("the benchmark's job specs are valid")
    }

    fn run(&self, args: &Args, seed: u64) -> JobOutcome {
        let dir = service::fresh_dir(&args.out.join("chains"), args.workload.name());
        service::run_job(
            &args.service_bin,
            &self.coordinator_args(seed),
            &dir,
            self.ready,
            self.load,
        )
    }
}

/// Checks one service job and counts its operations; `true` when its
/// measurements count (it ran and every answer checks out).
fn check_service_job(job: &JobOutcome, expected: &str, count: u64, tally: &mut Tally) -> bool {
    let ops = 1 + job.queries.len() as u64;
    tally.attempted += ops;
    if let Some(error) = &job.error {
        tally.fail(ops, format!("job failed: {error}"));
        return false;
    }
    if job.report.as_deref() != Some(expected) {
        let why = format!("final line {:?} != reference {expected:?}", job.report);
        tally.mismatch(ops, why);
        return false;
    }
    let answers = job.queries.iter().filter_map(|q| q.outcome.as_ref().ok());
    for answer in answers {
        let want = (answer.cut * CHUNK as u64).min(count);
        if answer.report.processed != want {
            let why = format!(
                "answer at cut {} has processed={}, expected {want}",
                answer.cut, answer.report.processed
            );
            tally.mismatch(ops, why);
            return false;
        }
    }
    for query in &job.queries {
        if let Err(why) = &query.outcome {
            tally.fail(1, format!("query failed: {why}"));
        }
    }
    true
}

/// Latency percentiles of a run's queries.
fn query_metrics(queries: &[service::QueryRecord]) -> Vec<Metric> {
    let ok = |consistent: bool| -> Vec<f64> {
        queries
            .iter()
            .filter(|q| q.consistent == consistent && q.outcome.is_ok())
            .map(|q| q.latency_s)
            .collect()
    };
    let (consistent, cached) = (ok(true), ok(false));
    let late: Vec<f64> = queries.iter().map(|q| q.late_s).collect();
    vec![
        metric(
            "query_consistent_p50_ms",
            percentile(&consistent, 50.0) * 1e3,
            "ms",
        ),
        metric(
            "query_consistent_p90_ms",
            percentile(&consistent, 90.0) * 1e3,
            "ms",
        ),
        metric("query_consistent_samples", consistent.len() as f64, "count"),
        metric("query_cached_p50_us", percentile(&cached, 50.0) * 1e6, "us"),
        metric("query_cached_p99_us", percentile(&cached, 99.0) * 1e6, "us"),
        metric("query_cached_samples", cached.len() as f64, "count"),
        metric("loadgen_late_p99_ms", percentile(&late, 99.0) * 1e3, "ms"),
    ]
}

fn job_samples(job: &JobOutcome) -> Json {
    Json::obj([
        ("setup_s", Json::Num(job.setup_s)),
        ("wall_s", Json::Num(job.wall_s)),
        ("cpu_s", Json::Num(job.cpu_s)),
        ("peak_rss_kb", Json::Int(job.peak_rss_kb as i64)),
        (
            "error",
            job.error.clone().map_or(Json::Bool(false), Json::Str),
        ),
        (
            "consistent_latency_s",
            Json::nums(
                &job.queries
                    .iter()
                    .filter(|q| q.consistent)
                    .map(|q| q.latency_s)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "cached_latency_s",
            Json::nums(
                &job.queries
                    .iter()
                    .filter(|q| !q.consistent)
                    .map(|q| q.latency_s)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "chain_bytes",
            Json::Obj(
                job.chain_bytes
                    .iter()
                    .map(|(name, len)| (name.clone(), Json::Int(*len as i64)))
                    .collect(),
            ),
        ),
    ])
}

fn untraced_service(args: &Args) -> Result<RunReport, String> {
    let mut tally = Tally::default();

    // The held-out seed first: same checks on a shorter stream. It also
    // warms the page cache for the binary before anything is timed.
    let heldout = service_workload(args.workload, HELDOUT_DIVISOR);
    let seed = heldout_seed(args.seed);
    let expected = service::reference_line(&args.service_bin, &heldout.reference_args(seed))?;
    let job = heldout.run(args, seed);
    check_service_job(&job, &expected, heldout.count as u64, &mut tally);

    let w = service_workload(args.workload, 1);
    let expected = service::reference_line(&args.service_bin, &w.reference_args(args.seed))?;
    let started = Instant::now();
    let mut jobs: Vec<(JobOutcome, bool)> = Vec::new();
    let mut walls = Vec::new();
    loop {
        let job = w.run(args, args.seed);
        let ok = check_service_job(&job, &expected, w.count as u64, &mut tally);
        walls.push(job.wall_s);
        jobs.push((job, ok));
        if started.elapsed().as_secs_f64() + median(&walls) > args.seconds {
            break;
        }
    }
    let good: Vec<&JobOutcome> = jobs.iter().filter(|(_, ok)| *ok).map(|(j, _)| j).collect();
    let per_job = |f: &dyn Fn(&JobOutcome) -> f64| -> f64 {
        median(&good.iter().map(|j| f(j)).collect::<Vec<_>>())
    };
    let mupdates = w.count as f64 / 1e6;
    let metrics = vec![
        metric("setup_s", per_job(&|j| j.setup_s), "s"),
        metric(
            "ingest_melem_s",
            per_job(&|j| mupdates / (j.wall_s - j.setup_s)),
            "Melem/s",
        ),
        metric(
            "cpu_s_per_mupdate",
            per_job(&|j| j.cpu_s / mupdates),
            "s/Melem",
        ),
        metric(
            "peak_rss_mb",
            per_job(&|j| j.peak_rss_kb as f64 / 1024.0),
            "MB",
        ),
    ];
    let queries: Vec<service::QueryRecord> = good
        .iter()
        .flat_map(|j| j.queries.iter().cloned())
        .collect();
    let mut extra = if w.load.is_some() {
        query_metrics(&queries)
    } else {
        Vec::new()
    };
    extra.push(metric("jobs", good.len() as f64, "count"));
    let samples = Json::obj([
        ("expected", Json::Str(expected)),
        (
            "jobs",
            Json::Arr(jobs.iter().map(|(job, _)| job_samples(job)).collect()),
        ),
    ]);
    Ok(RunReport {
        metrics,
        extra,
        tally,
        samples,
        measured: !good.is_empty(),
    })
}

/// The query cuts a service job served, from its replies.
fn served_cuts(job: &JobOutcome) -> BTreeSet<u64> {
    job.queries
        .iter()
        .filter_map(|q| q.outcome.as_ref().ok())
        .map(|a| a.cut)
        .collect()
}

fn run_replay(
    w: &ServiceWorkload,
    args: &Args,
    cuts: &BTreeSet<u64>,
    tracer: &mut Tracer,
) -> Result<ReplayOutcome, String> {
    let dir = service::fresh_dir(&args.out.join("chains"), "replay");
    let plan = ReplayPlan {
        spec: w.spec(args.seed, &dir),
        publish: w.load.is_some(),
        query_cuts: cuts.clone(),
        chain_dir: dir.clone(),
    };
    let (seed, count) = (args.seed, w.count);
    let outcome = match w.kind {
        SamplerKind::L2 => replay::replay::<TrulyPerfectLpSampler, _>(
            &plan,
            || job_stream(UNIVERSE, count, seed),
            |shard| make_l2(UNIVERSE, seed, shard),
            tracer,
        ),
        SamplerKind::Turnstile => replay::replay::<StrictTurnstileF0Sampler, _>(
            &plan,
            || job_signed_stream(UNIVERSE, count, seed),
            |shard| make_turnstile(UNIVERSE, seed, shard),
            tracer,
        ),
        other => return Err(format!("no replay for sampler kind {}", other.as_str())),
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome.map_err(|e| format!("replay failed: {e}"))
}

/// Checks a replay against the service job it replays.
fn check_replay(replayed: &ReplayOutcome, job: &JobOutcome, tally: &mut Tally) {
    tally.attempted += 1;
    let line = replayed.report.to_string();
    if job.report.as_deref() != Some(line.as_str()) {
        tally.mismatch(
            1,
            format!("replay ends at {line:?}, the service at {:?}", job.report),
        );
        return;
    }
    for answer in job.queries.iter().filter_map(|q| q.outcome.as_ref().ok()) {
        if replayed.cut_fnvs.get(&answer.cut) != Some(&answer.report.merged_fnv) {
            tally.mismatch(
                1,
                format!(
                    "answer at cut {} differs from the replay's merge",
                    answer.cut
                ),
            );
            return;
        }
    }
}

fn self_s(totals: &std::collections::BTreeMap<&str, trace::LayerTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64 * 1e-9)
}

/// Self time of every layer span (all but the replay root), in seconds.
fn layer_self_s(totals: &std::collections::BTreeMap<&str, trace::LayerTotals>) -> f64 {
    totals
        .iter()
        .filter(|(name, _)| **name != "replay")
        .map(|(_, t)| t.self_ns as f64 * 1e-9)
        .sum()
}

fn service_ledger(r: &ReplayOutcome, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let totals = tracer.totals();
    let c = &r.counters;
    let append_ms: Vec<f64> = totals
        .get("store.append")
        .map(|t| t.durations_ns.iter().map(|&ns| ns as f64 * 1e-6).collect())
        .unwrap_or_default();
    let apply_s = self_s(&totals, "engine.apply");
    vec![
        ("gen.busy_s", self_s(&totals, "gen")),
        ("route.busy_s", self_s(&totals, "route")),
        ("route.skew_ratio", c.route_skew()),
        ("wire.encode_busy_s", self_s(&totals, "wire.encode")),
        ("wire.decode_busy_s", self_s(&totals, "wire.decode")),
        ("wire.bytes_mb", c.wire_bytes as f64 / 1e6),
        ("engine.apply_busy_s", apply_s),
        (
            "engine.apply_melem_s",
            ratio(c.updates_applied as f64 / 1e6, apply_s),
        ),
        ("codec.snapshot_busy_s", self_s(&totals, "codec.snapshot")),
        (
            "codec.snapshot_bytes",
            ratio(c.snapshot_bytes as f64, c.snapshots as f64),
        ),
        ("delta.manifest_busy_s", self_s(&totals, "delta.manifest")),
        (
            "delta.manifest_frame_mb",
            c.manifest_frame_bytes as f64 / 1e6,
        ),
        ("delta.shard_busy_s", self_s(&totals, "delta.shard")),
        ("delta.shard_frame_mb", c.shard_frame_bytes as f64 / 1e6),
        (
            "delta.rebase_ratio",
            ratio(
                c.full_frames as f64,
                (c.manifest_frames + c.shard_frames) as f64,
            ),
        ),
        ("manifest.encode_busy_s", self_s(&totals, "manifest.encode")),
        (
            "manifest.bytes_per_barrier_mb",
            ratio(c.manifest_bytes as f64 / 1e6, c.manifest_encodes as f64),
        ),
        (
            "store.append_busy_s",
            self_s(&totals, "store.append") + self_s(&totals, "store.compact"),
        ),
        ("store.append_p99_ms", percentile(&append_ms, 99.0)),
        ("store.fsyncs", c.fsyncs as f64),
        (
            "coordinator.replay_buffer_busy_s",
            self_s(&totals, "replay_buffer"),
        ),
        (
            "merge.busy_ms_per_query",
            ratio(self_s(&totals, "merge") * 1e3, c.merges as f64),
        ),
        ("trace.coverage", ratio(layer_self_s(&totals), r.wall_s)),
    ]
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
const LEDGER: &[(&str, &str)] = &[
    ("gen.busy_s", "s"),
    ("route.busy_s", "s"),
    ("route.skew_ratio", "ratio"),
    ("wire.encode_busy_s", "s"),
    ("wire.decode_busy_s", "s"),
    ("wire.bytes_mb", "MB"),
    ("engine.apply_busy_s", "s"),
    ("engine.apply_melem_s", "Melem/s"),
    ("runtime.chunks", "count"),
    ("runtime.blocked", "count"),
    ("runtime.blocked_ratio", "ratio"),
    ("sharded.ingest_call_p99_us", "us"),
    ("sharded.flush_ms", "ms"),
    ("codec.snapshot_busy_s", "s"),
    ("codec.snapshot_bytes", "bytes"),
    ("delta.manifest_busy_s", "s"),
    ("delta.manifest_frame_mb", "MB"),
    ("delta.shard_busy_s", "s"),
    ("delta.shard_frame_mb", "MB"),
    ("delta.rebase_ratio", "ratio"),
    ("manifest.encode_busy_s", "s"),
    ("manifest.bytes_per_barrier_mb", "MB"),
    ("store.append_busy_s", "s"),
    ("store.append_p99_ms", "ms"),
    ("store.fsyncs", "count"),
    ("coordinator.replay_buffer_busy_s", "s"),
    ("merge.busy_ms_per_query", "ms"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.served", "count"),
    ("query.rejected", "count"),
    ("query.consistent_p50_ms", "ms"),
    ("query.consistent_p90_ms", "ms"),
    ("query.consistent_samples", "count"),
    ("query.cached_p50_us", "us"),
    ("query.cached_p99_us", "us"),
    ("query.cached_samples", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("ops.failed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Fills the full ledger: measured values by name, 0 for a layer the
/// workload does not exercise.
fn ledger_metrics(values: &[(&'static str, f64)]) -> Vec<Metric> {
    LEDGER
        .iter()
        .map(|&(name, unit)| {
            let samples: Vec<f64> = values
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .collect();
            metric(name, median(&samples), unit)
        })
        .collect()
}

/// Renames the end-to-end query metrics into the ledger's namespace.
fn ledger_query_values(queries: &[service::QueryRecord]) -> Vec<(&'static str, f64)> {
    let names = [
        "query.consistent_p50_ms",
        "query.consistent_p90_ms",
        "query.consistent_samples",
        "query.cached_p50_us",
        "query.cached_p99_us",
        "query.cached_samples",
        "loadgen.late_p99_ms",
    ];
    names
        .into_iter()
        .zip(query_metrics(queries))
        .map(|(name, m)| (name, m.value))
        .collect()
}

/// Repeats `(untraced replay, traced replay)` pairs until the run's time
/// is spent, handing every replay to `check` (with its tracer when
/// traced); returns the overhead ratios and the last traced tracer.
fn replay_pairs<R>(
    args: &Args,
    started: Instant,
    mut once: impl FnMut(&mut Tracer) -> Result<(R, f64), String>,
    mut check: impl FnMut(&R, Option<&Tracer>),
) -> Result<(Vec<f64>, Tracer), String> {
    let mut overheads = Vec::new();
    let mut pair_s = Vec::new();
    loop {
        let pair = Instant::now();
        let (plain, plain_s) = once(&mut Tracer::new(false))?;
        check(&plain, None);
        let mut tracer = Tracer::new(true);
        let (traced, traced_s) = once(&mut tracer)?;
        check(&traced, Some(&tracer));
        overheads.push(traced_s / plain_s);
        pair_s.push(pair.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + median(&pair_s) > args.seconds {
            return Ok((overheads, tracer));
        }
    }
}

fn traced_service(args: &Args) -> Result<RunReport, String> {
    let started = Instant::now();
    let mut tally = Tally::default();
    let w = service_workload(args.workload, 1);
    let expected = service::reference_line(&args.service_bin, &w.reference_args(args.seed))?;
    let job = w.run(args, args.seed);
    if !check_service_job(&job, &expected, w.count as u64, &mut tally) {
        return Ok(RunReport {
            metrics: ledger_metrics(&[]),
            extra: Vec::new(),
            tally,
            samples: job_samples(&job),
            measured: false,
        });
    }
    // With a query load, more jobs give the ledger's latencies samples; the
    // first job is the one replayed.
    let mut jobs = vec![&job];
    let mut more = Vec::new();
    while w.load.is_some() && started.elapsed().as_secs_f64() < args.seconds * 0.5 {
        let extra = w.run(args, args.seed);
        if check_service_job(&extra, &expected, w.count as u64, &mut tally) {
            more.push(extra);
        }
    }
    jobs.extend(&more);
    let cuts = served_cuts(&job);
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let (overheads, tracer) = replay_pairs(
        args,
        started,
        |tracer| {
            let r = run_replay(&w, args, &cuts, tracer)?;
            let wall = r.wall_s;
            Ok((r, wall))
        },
        |r, tracer| {
            check_replay(r, &job, &mut tally);
            if let Some(tracer) = tracer {
                values.extend(service_ledger(r, tracer));
            }
        },
    )?;
    values.push(("trace.overhead_ratio", median(&overheads)));
    let queries: Vec<service::QueryRecord> = jobs
        .iter()
        .flat_map(|j| j.queries.iter().cloned())
        .collect();
    values.extend(ledger_query_values(&queries));
    let planes: Vec<service::PlaneSummary> = jobs.iter().filter_map(|j| j.plane).collect();
    if !planes.is_empty() {
        let sum = |f: fn(&service::PlaneSummary) -> u64| planes.iter().map(f).sum::<u64>() as f64;
        let (hits, misses) = (sum(|p| p.cache_hits), sum(|p| p.cache_misses));
        values.push(("query.cache_hit_ratio", ratio(hits, hits + misses)));
        values.push(("query.served", sum(|p| p.served)));
        values.push(("query.rejected", sum(|p| p.rejected)));
    }
    write_spans(args, &tracer);
    Ok(RunReport {
        metrics: ledger_metrics(&values),
        extra: Vec::new(),
        tally,
        measured: true,
        samples: Json::obj([
            ("expected", Json::Str(expected)),
            (
                "jobs",
                Json::Arr(jobs.iter().map(|j| job_samples(j)).collect()),
            ),
            ("trace_overhead_ratios", Json::nums(&overheads)),
        ]),
    })
}

fn write_spans(args: &Args, tracer: &Tracer) {
    let path =
        args.out
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!(
            "servicebench: cannot write spans to {}: {e}",
            path.display()
        );
    }
}

// ---------------------------------------------------------------- inproc

fn inproc_plan(seed: u64, passes_divisor: usize) -> InprocPlan {
    InprocPlan {
        seed,
        passes: (INPROC.passes / passes_divisor).max(1),
        ..INPROC
    }
}

fn inproc_ops(job: &inproc::InprocOutcome) -> u64 {
    1 + (job.consistent_s.len() + job.cached_s.len()) as u64
}

/// Runs and checks one child job; `None` if it failed.
fn inproc_job(
    args: &Args,
    plan: InprocPlan,
    expected: &inproc::InprocReplay,
    tally: &mut Tally,
) -> Option<inproc::InprocOutcome> {
    let dir = service::fresh_dir(&args.out.join("chains"), "inproc");
    match inproc::run_job(plan, &dir) {
        Err(why) => {
            tally.attempted += 1;
            tally.fail(1, format!("inproc job failed: {why}"));
            None
        }
        Ok(job) => {
            let ops = inproc_ops(&job);
            tally.attempted += ops;
            let found = inproc::mismatches(&job, expected);
            if found.is_empty() {
                Some(job)
            } else {
                tally.mismatch(ops, found.join("; "));
                None
            }
        }
    }
}

fn untraced_inproc(args: &Args) -> Result<RunReport, String> {
    let mut tally = Tally::default();
    let heldout = inproc_plan(heldout_seed(args.seed), HELDOUT_DIVISOR);
    let expected = inproc::replay(heldout, &mut Tracer::new(false)).map_err(|e| e.to_string())?;
    inproc_job(args, heldout, &expected, &mut tally);

    let plan = inproc_plan(args.seed, 1);
    let expected = inproc::replay(plan, &mut Tracer::new(false)).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut jobs = Vec::new();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        if let Some(job) = inproc_job(args, plan, &expected, &mut tally) {
            jobs.push(job);
        }
        walls.push(t.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + median(&walls) > args.seconds {
            break;
        }
    }
    let per_job = |f: &dyn Fn(&inproc::InprocOutcome) -> f64| -> f64 {
        median(&jobs.iter().map(f).collect::<Vec<_>>())
    };
    let mupdates = plan.updates() as f64 / 1e6;
    let setups: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.setup_s.iter().copied())
        .collect();
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric(
            "ingest_melem_s",
            per_job(&|j| mupdates / (j.wall_s - j.setup_s.last().copied().unwrap_or(0.0))),
            "Melem/s",
        ),
        metric(
            "cpu_s_per_mupdate",
            per_job(&|j| j.cpu_s / mupdates),
            "s/Melem",
        ),
        metric(
            "peak_rss_mb",
            per_job(&|j| j.maxrss_kb as f64 / 1024.0),
            "MB",
        ),
    ];
    let consistent: Vec<f64> = jobs.iter().flat_map(|j| j.consistent_s.clone()).collect();
    let cached: Vec<f64> = jobs.iter().flat_map(|j| j.cached_s.clone()).collect();
    let extra = vec![
        metric(
            "query_consistent_p50_ms",
            percentile(&consistent, 50.0) * 1e3,
            "ms",
        ),
        metric(
            "query_consistent_p90_ms",
            percentile(&consistent, 90.0) * 1e3,
            "ms",
        ),
        metric("query_consistent_samples", consistent.len() as f64, "count"),
        metric("query_cached_p50_us", percentile(&cached, 50.0) * 1e6, "us"),
        metric("query_cached_p99_us", percentile(&cached, 99.0) * 1e6, "us"),
        metric("query_cached_samples", cached.len() as f64, "count"),
        metric("jobs", jobs.len() as f64, "count"),
    ];
    let samples = Json::obj([("jobs", Json::Arr(jobs.iter().map(inproc_samples).collect()))]);
    Ok(RunReport {
        metrics,
        extra,
        tally,
        samples,
        measured: !jobs.is_empty(),
    })
}

fn inproc_samples(job: &inproc::InprocOutcome) -> Json {
    Json::obj([
        ("setup_s", Json::nums(&job.setup_s)),
        ("wall_s", Json::Num(job.wall_s)),
        ("cpu_s", Json::Num(job.cpu_s)),
        ("maxrss_kb", Json::Int(job.maxrss_kb as i64)),
        ("flush_ms", Json::Num(job.flush_ms)),
        ("consistent_latency_s", Json::nums(&job.consistent_s)),
        ("cached_latency_s", Json::nums(&job.cached_s)),
    ])
}

fn traced_inproc(args: &Args) -> Result<RunReport, String> {
    let started = Instant::now();
    let mut tally = Tally::default();
    let plan = inproc_plan(args.seed, 1);
    let expected = inproc::replay(plan, &mut Tracer::new(false)).map_err(|e| e.to_string())?;
    let Some(job) = inproc_job(args, plan, &expected, &mut tally) else {
        return Ok(RunReport {
            metrics: ledger_metrics(&[]),
            extra: Vec::new(),
            tally,
            samples: Json::Arr(Vec::new()),
            measured: false,
        });
    };
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let (overheads, tracer) = replay_pairs(
        args,
        started,
        |tracer| {
            let r = inproc::replay(plan, tracer).map_err(|e| e.to_string())?;
            let wall = r.wall_s - r.check_s;
            Ok((r, wall))
        },
        |r, tracer| {
            tally.attempted += 1;
            let found = inproc::mismatches(&job, r);
            if !found.is_empty() {
                tally.mismatch(1, format!("replay: {}", found.join("; ")));
            }
            let Some(tracer) = tracer else { return };
            let totals = tracer.totals();
            let c = &r.counters;
            let apply_s = self_s(&totals, "engine.apply");
            values.extend([
                ("gen.busy_s", self_s(&totals, "gen")),
                ("route.busy_s", self_s(&totals, "route")),
                ("route.skew_ratio", c.route_skew()),
                ("engine.apply_busy_s", apply_s),
                (
                    "engine.apply_melem_s",
                    ratio(c.updates_applied as f64 / 1e6, apply_s),
                ),
                ("codec.snapshot_busy_s", self_s(&totals, "codec.snapshot")),
                (
                    "codec.snapshot_bytes",
                    ratio(c.snapshot_bytes as f64, c.snapshots as f64),
                ),
                (
                    "merge.busy_ms_per_query",
                    ratio(self_s(&totals, "merge") * 1e3, c.merges as f64),
                ),
                (
                    "trace.coverage",
                    ratio(layer_self_s(&totals), r.wall_s - r.check_s),
                ),
            ]);
        },
    )?;
    let call_us: Vec<f64> = job.call_s.iter().map(|s| s * 1e6).collect();
    values.extend([
        ("trace.overhead_ratio", median(&overheads)),
        ("runtime.chunks", job.chunks as f64),
        ("runtime.blocked", job.blocked as f64),
        (
            "runtime.blocked_ratio",
            ratio(job.blocked as f64, job.chunks as f64),
        ),
        ("sharded.ingest_call_p99_us", percentile(&call_us, 99.0)),
        ("sharded.flush_ms", job.flush_ms),
        (
            "query.cache_hit_ratio",
            ratio(job.hits as f64, (job.hits + job.misses) as f64),
        ),
        ("query.served", (job.hits + job.misses) as f64),
        ("query.rejected", 0.0),
        (
            "query.consistent_p50_ms",
            percentile(&job.consistent_s, 50.0) * 1e3,
        ),
        (
            "query.consistent_p90_ms",
            percentile(&job.consistent_s, 90.0) * 1e3,
        ),
        ("query.consistent_samples", job.consistent_s.len() as f64),
        ("query.cached_p50_us", percentile(&job.cached_s, 50.0) * 1e6),
        ("query.cached_p99_us", percentile(&job.cached_s, 99.0) * 1e6),
        ("query.cached_samples", job.cached_s.len() as f64),
    ]);
    write_spans(args, &tracer);
    Ok(RunReport {
        metrics: ledger_metrics(&values),
        extra: Vec::new(),
        tally,
        measured: true,
        samples: Json::obj([
            ("job", inproc_samples(&job)),
            ("trace_overhead_ratios", Json::nums(&overheads)),
        ]),
    })
}

// ---------------------------------------------------------------- output

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn finish(args: &Args, report: RunReport) -> ExitCode {
    let mut tally = report.tally;
    if tally.attempted == 0 {
        tally.attempted = 1;
        tally.fail(1, "nothing ran".into());
    }
    let correct = tally.mismatches.is_empty();
    let failed_ratio = ratio(tally.failed as f64, tally.attempted as f64);
    let mut metrics = report.metrics;
    for m in metrics.iter_mut().filter(|m| m.name == "ops.failed_ratio") {
        m.value = failed_ratio;
    }
    eprintln!(
        "servicebench {} seed={} trace={} attempted={} failed={} ops_failed_ratio={failed_ratio}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        tally.attempted,
        tally.failed,
    );
    for m in metrics.iter().chain(&report.extra) {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for why in tally.mismatches.iter().chain(&tally.failures) {
        eprintln!("  ! {why}");
    }

    let mut extra = report.extra;
    extra.push(metric("ops_failed_ratio", failed_ratio, "ratio"));
    let result = Json::obj([
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", Json::Int(args.seed as i64)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        (
            "provenance",
            Json::Obj(
                args.provenance
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.attempted as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        (
            "mismatches",
            Json::Arr(tally.mismatches.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "failures",
            Json::Arr(tally.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", metrics_json(&metrics)),
        ("extra_metrics", metrics_json(&extra)),
        ("samples", report.samples),
    ]);
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let path = args.out.join("results").join(format!(
        "{}-seed{}-trace{}-{unix}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(path.parent().expect("results dir"))
        .and_then(|()| std::fs::write(&path, result.render() + "\n"));
    if let Err(e) = written {
        eprintln!("servicebench: cannot write {}: {e}", path.display());
    }

    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(tally.attempted as i64)),
            ("failed", Json::Int(tally.failed as i64)),
            ("metrics", metrics_json(&metrics)),
        ])
        .render()
    );
    if !correct {
        eprintln!("servicebench: correctness gate failed");
        ExitCode::from(3)
    } else if !report.measured {
        eprintln!("servicebench: no job completed, nothing was measured");
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    }
}

fn inproc_job_main(args: &[String]) -> Result<(), String> {
    let get = |key: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {key}"))
    };
    let int = |key: &str| -> Result<usize, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key}: not an integer"))
    };
    let plan = InprocPlan {
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed: not an integer")?,
        count: int("--count")?,
        passes: int("--passes")?,
        batch: int("--batch")?,
        consistent_every: int("--consistent-every")?,
        setup_reps: int("--setup-reps")?,
    };
    inproc::job_main(plan, Path::new(&get("--snap-dir")?)).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("inproc-job") {
        return match inproc_job_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("inproc-job: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servicebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.workload, args.trace) {
        (Workload::InprocQuery, false) => untraced_inproc(&args),
        (Workload::InprocQuery, true) => traced_inproc(&args),
        (_, false) => untraced_service(&args),
        (_, true) => traced_service(&args),
    };
    match report {
        Ok(report) => finish(&args, report),
        Err(e) => {
            eprintln!("servicebench: {e}");
            ExitCode::FAILURE
        }
    }
}
