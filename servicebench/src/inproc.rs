//! The `inproc-query` workload: a 2-shard `ShardedSampler` (hash routing,
//! `make_l2` shards) fed through `ingest_batch`, with a consistent query
//! every `N` calls and a cached query on every call, then `flush`.
//!
//! Each job runs in a child process of the benchmark (`servicebench
//! inproc-job …`), so that the process holding the stream is measured
//! alone: its peak resident set and CPU are the job's. The child prints one
//! `key=value` line; the parent checks it against an in-process replay.

use std::collections::BTreeMap;
use std::io::{self, Read as _, Write as _};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::{
    hash_route, ShardedSampler, ShardedSamplerBuilder, ShardingStrategy, MERGE_SEED_SALT,
};
use tps_random::Xoshiro256;
use tps_service::config::{job_stream, make_l2};
use tps_streams::codec::checksum;
use tps_streams::{Item, QueryOptions, Snapshot};

use crate::replay::{merge_snapshots, Counters};
use crate::sys;
use crate::trace::Tracer;

/// Universe of the `l2` shards (the service workloads use the same).
pub const UNIVERSE: u64 = 4096;
pub const SHARDS: usize = 2;

/// The sizing of one in-process job.
#[derive(Debug, Clone, Copy)]
pub struct InprocPlan {
    pub seed: u64,
    /// Length of the generated stream.
    pub count: usize,
    /// How many times the stream is fed (a longer job without a larger
    /// resident stream).
    pub passes: usize,
    /// Updates per `ingest_batch` call.
    pub batch: usize,
    /// A consistent query every this many calls; cached queries accept
    /// answers this many calls stale.
    pub consistent_every: usize,
    /// Set-ups measured per job (the last one runs the job).
    pub setup_reps: usize,
}

impl InprocPlan {
    pub fn updates(&self) -> u64 {
        (self.count * self.passes) as u64
    }

    fn batches<'a>(&self, stream: &'a [Item]) -> impl Iterator<Item = &'a [Item]> + 'a {
        let batch = self.batch;
        (0..self.passes).flat_map(move |_| stream.chunks(batch))
    }

    fn to_args(self) -> Vec<String> {
        [
            ("--seed", self.seed.to_string()),
            ("--count", self.count.to_string()),
            ("--passes", self.passes.to_string()),
            ("--batch", self.batch.to_string()),
            ("--consistent-every", self.consistent_every.to_string()),
            ("--setup-reps", self.setup_reps.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect()
    }
}

fn build(seed: u64) -> ShardedSampler<TrulyPerfectLpSampler> {
    ShardedSamplerBuilder::new(SHARDS)
        .strategy(ShardingStrategy::Hash)
        .seed(seed)
        .build(|shard| make_l2(UNIVERSE, seed, shard))
}

fn list(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    parts.join(",")
}

/// The child side: runs one job and prints its measurements. Shard
/// snapshots after `flush` go to `snap_dir/shard-<i>.snap`.
pub fn job_main(plan: InprocPlan, snap_dir: &Path) -> io::Result<()> {
    let stream = job_stream(UNIVERSE, plan.count, plan.seed);
    let batches: Vec<&[Item]> = plan.batches(&stream).collect();
    let first = *batches
        .first()
        .ok_or_else(|| io::Error::other("empty stream"))?;

    let mut setups = Vec::new();
    for _ in 1..plan.setup_reps.max(1) {
        let t = Instant::now();
        let mut sampler = build(plan.seed);
        sampler.ingest_batch(first);
        setups.push(t.elapsed().as_secs_f64());
        drop(sampler);
    }

    let every = plan.consistent_every.max(1);
    let cached = QueryOptions::cached(every as u64);
    let mut call_s = Vec::with_capacity(batches.len());
    let mut consistent_s = Vec::new();
    let mut cached_s = Vec::new();
    let mut answers = Vec::new();
    let mut cached_bad = 0u64;
    let mut last_cut = None;

    let usage = sys::self_usage();
    let t0 = Instant::now();
    let mut sampler = build(plan.seed);
    for (i, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        sampler.ingest_batch(batch);
        call_s.push(t.elapsed().as_secs_f64());
        if i == 0 {
            setups.push(t0.elapsed().as_secs_f64());
        }
        if i % every == 0 {
            let t = Instant::now();
            let answer = sampler.query(&QueryOptions::consistent());
            consistent_s.push(t.elapsed().as_secs_f64());
            last_cut = Some(answer.cut);
            answers.push(answer);
        }
        let t = Instant::now();
        let answer = sampler.query(&cached);
        cached_s.push(t.elapsed().as_secs_f64());
        if !answer.cached || Some(answer.cut) != last_cut {
            cached_bad += 1;
        }
    }
    let t = Instant::now();
    sampler.flush();
    let flush_ms = t.elapsed().as_secs_f64() * 1e3;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::self_usage().cpu_s - usage.cpu_s;

    let stats = sampler.runtime_stats();
    let cache = sampler.query_cache_stats();
    std::fs::create_dir_all(snap_dir)?;
    for shard in 0..SHARDS {
        std::fs::write(
            snap_dir.join(format!("shard-{shard}.snap")),
            sampler.shard(shard).snapshot(),
        )?;
    }
    let fnvs: Vec<String> = answers
        .iter()
        .map(|a| format!("{}:{:016x}", a.cut, checksum(&a.value.snapshot())))
        .collect();
    let maxrss_kb = sys::self_usage().maxrss_kb;
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "setup_s={} wall_s={wall_s:?} cpu_s={cpu_s:?} maxrss_kb={maxrss_kb} flush_ms={flush_ms:?} \
         chunks={} blocked={} hits={} misses={} cached_bad={cached_bad} updates={} \
         consistent_s={} cached_s={} call_s={} consistent_fnv={}",
        list(&setups),
        stats.chunks,
        stats.blocked,
        cache.hits,
        cache.misses,
        plan.updates(),
        list(&consistent_s),
        list(&cached_s),
        list(&call_s),
        fnvs.join(","),
    )?;
    out.flush()
}

/// What the parent reads back from one child job.
#[derive(Debug, Clone, Default)]
pub struct InprocOutcome {
    pub setup_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub maxrss_kb: u64,
    pub flush_ms: f64,
    pub chunks: u64,
    pub blocked: u64,
    pub hits: u64,
    pub misses: u64,
    pub cached_bad: u64,
    pub updates: u64,
    pub consistent_s: Vec<f64>,
    pub cached_s: Vec<f64>,
    pub call_s: Vec<f64>,
    /// `(cut, merged checksum)` of every consistent answer, in order.
    pub consistent_fnv: Vec<(u64, u64)>,
    pub shard_snapshots: Vec<Vec<u8>>,
}

fn parse_list(value: &str) -> Result<Vec<f64>, String> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad number {s:?}")))
        .collect()
}

fn parse_outcome(line: &str) -> Result<InprocOutcome, String> {
    let mut o = InprocOutcome::default();
    let int = |v: &str| v.parse::<u64>().map_err(|_| format!("bad integer {v:?}"));
    let num = |v: &str| v.parse::<f64>().map_err(|_| format!("bad number {v:?}"));
    for field in line.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("bad field {field:?}"))?;
        match key {
            "setup_s" => o.setup_s = parse_list(value)?,
            "wall_s" => o.wall_s = num(value)?,
            "cpu_s" => o.cpu_s = num(value)?,
            "maxrss_kb" => o.maxrss_kb = int(value)?,
            "flush_ms" => o.flush_ms = num(value)?,
            "chunks" => o.chunks = int(value)?,
            "blocked" => o.blocked = int(value)?,
            "hits" => o.hits = int(value)?,
            "misses" => o.misses = int(value)?,
            "cached_bad" => o.cached_bad = int(value)?,
            "updates" => o.updates = int(value)?,
            "consistent_s" => o.consistent_s = parse_list(value)?,
            "cached_s" => o.cached_s = parse_list(value)?,
            "call_s" => o.call_s = parse_list(value)?,
            "consistent_fnv" => {
                for pair in value.split(',').filter(|s| !s.is_empty()) {
                    let (cut, fnv) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("bad answer {pair:?}"))?;
                    let fnv = u64::from_str_radix(fnv, 16)
                        .map_err(|_| format!("bad checksum {fnv:?}"))?;
                    o.consistent_fnv.push((int(cut)?, fnv));
                }
            }
            _ => return Err(format!("unknown field {key:?}")),
        }
    }
    Ok(o)
}

/// A child job taking longer than this is killed and counted as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(45);

/// Runs one job in a child process of this executable.
pub fn run_job(plan: InprocPlan, snap_dir: &Path) -> Result<InprocOutcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("inproc-job")
        .args(plan.to_args())
        .arg("--snap-dir")
        .arg(snap_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn inproc job: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + JOB_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("inproc job exceeded {}s", JOB_TIMEOUT.as_secs()));
            }
            Err(e) => break Err(format!("wait: {e}")),
        }
    };
    let stdout = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string());
    let result = (|| {
        let status = status?;
        if !status.success() {
            return Err(format!("inproc job exited with {status}"));
        }
        let stdout = stdout?.map_err(|e| format!("reading inproc job output: {e}"))?;
        let line = stdout.lines().last().ok_or("inproc job printed nothing")?;
        let mut outcome = parse_outcome(line)?;
        for shard in 0..SHARDS {
            let path = snap_dir.join(format!("shard-{shard}.snap"));
            outcome
                .shard_snapshots
                .push(std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        Ok(outcome)
    })();
    let _ = std::fs::remove_dir_all(snap_dir);
    result
}

/// The replay's end state: what every job with the same plan must match.
pub struct InprocReplay {
    pub wall_s: f64,
    /// Wall time spent on checks that are not part of the program's work.
    pub check_s: f64,
    pub shard_snapshots: Vec<Vec<u8>>,
    pub consistent_fnv: Vec<(u64, u64)>,
    pub counters: Counters,
}

/// Replays one job on this thread through the layers' public functions:
/// `hash_route` scatter, each shard's `ingest_batch`, and for every
/// consistent query a snapshot of each shard, restore and fold-merge with
/// the front-end's merge coins; cached queries clone the last merge.
pub fn replay(plan: InprocPlan, t: &mut Tracer) -> io::Result<InprocReplay> {
    let started = Instant::now();
    let mut check_s = 0.0;
    let mut c = Counters::default();
    let mut consistent_fnv = Vec::new();
    let every = plan.consistent_every.max(1);
    let shard_snapshots = t.span("replay", |t| -> io::Result<Vec<Vec<u8>>> {
        let stream = t.span("gen", |_| job_stream(UNIVERSE, plan.count, plan.seed));
        let mut shards: Vec<TrulyPerfectLpSampler> = (0..SHARDS)
            .map(|s| make_l2(UNIVERSE, plan.seed, s))
            .collect();
        let mut rng = Xoshiro256::seed_from_u64(plan.seed ^ MERGE_SEED_SALT);
        let mut last: Option<TrulyPerfectLpSampler> = None;
        let mut processed = 0u64;
        for (i, batch) in plan.batches(&stream).enumerate() {
            t.set_chunk(i as u64 + 1);
            let routed = t.span("route", |_| {
                let mut routed: Vec<Vec<Item>> = vec![Vec::new(); SHARDS];
                for &item in batch {
                    routed[hash_route(item, SHARDS)].push(item);
                }
                routed
            });
            c.count_routed(&routed);
            for (shard, updates) in shards.iter_mut().zip(&routed) {
                t.span("engine.apply", |_| {
                    tps_streams::UpdateSampler::ingest_batch(shard, updates)
                });
                c.updates_applied += updates.len() as u64;
            }
            processed += batch.len() as u64;
            if i % every == 0 {
                let snapshots: Vec<Vec<u8>> = shards
                    .iter()
                    .map(|shard| t.span("codec.snapshot", |_| shard.snapshot()))
                    .collect();
                c.snapshots += snapshots.len() as u64;
                c.snapshot_bytes += snapshots.iter().map(|s| s.len() as u64).sum::<u64>();
                c.merges += 1;
                let merged: TrulyPerfectLpSampler =
                    t.span("merge", |_| merge_snapshots(&snapshots, &mut rng))?;
                let check = Instant::now();
                consistent_fnv.push((processed, checksum(&merged.snapshot())));
                check_s += check.elapsed().as_secs_f64();
                last = Some(merged);
            }
            let cached = t.span("query.cache", |_| last.clone());
            std::hint::black_box(cached);
        }
        Ok(shards.iter().map(Snapshot::snapshot).collect())
    })?;
    Ok(InprocReplay {
        wall_s: started.elapsed().as_secs_f64(),
        check_s,
        shard_snapshots,
        consistent_fnv,
        counters: c,
    })
}

/// Checks one job against the replay; returns every mismatch found.
pub fn mismatches(job: &InprocOutcome, expected: &InprocReplay) -> Vec<String> {
    let mut found = Vec::new();
    for (shard, (got, want)) in job
        .shard_snapshots
        .iter()
        .zip(&expected.shard_snapshots)
        .enumerate()
    {
        if got != want {
            found.push(format!("shard {shard} snapshot differs from the replay"));
        }
    }
    if job.shard_snapshots.len() != expected.shard_snapshots.len() {
        found.push("shard count differs from the replay".into());
    }
    let want: BTreeMap<u64, u64> = expected.consistent_fnv.iter().copied().collect();
    if job.consistent_fnv.len() != expected.consistent_fnv.len() {
        found.push(format!(
            "{} consistent answers, replay has {}",
            job.consistent_fnv.len(),
            expected.consistent_fnv.len()
        ));
    }
    let wrong: Vec<u64> = job
        .consistent_fnv
        .iter()
        .filter(|(cut, fnv)| want.get(cut) != Some(fnv))
        .map(|&(cut, _)| cut)
        .collect();
    if let Some(first) = wrong.first() {
        found.push(format!(
            "{} consistent answers differ from the replay (first at cut {first})",
            wrong.len()
        ));
    }
    if job.cached_bad > 0 {
        found.push(format!(
            "{} cached answers were not served from the last consistent cut",
            job.cached_bad
        ));
    }
    if job.updates != expected.counters.updates_applied {
        found.push("update count differs from the replay".into());
    }
    found
}
