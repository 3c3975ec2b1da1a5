//! Runs one `tps-service coordinator` job as a user would and measures it:
//! set-up time, job wall, CPU of the job and its reaped descendants, the
//! coordinator's peak resident set, and — with a query plane — an
//! open-loop query load from two client threads.

use std::io::{BufRead, BufReader, Read};
use std::os::unix::process::CommandExt as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tps_service::{QueryClient, QueryError, QueryOptions, QueryReport};

use crate::sys;

/// A job taking longer than this is killed and counted as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(45);

/// How the benchmark decides that set-up is over.
#[derive(Debug, Clone, Copy)]
pub enum Ready {
    /// The cut-0 manifest frame is complete in `coordinator.ckpt`.
    ManifestFrame,
    /// The coordinator announced `query-listening <addr>`.
    QueryListening,
}

/// The open-loop query load of `live-query`.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub consistent_per_s: f64,
    pub cached_per_s: f64,
    pub max_epochs_stale: u64,
    /// Queries stop being due once a reply shows this share of the stream
    /// processed, so none races the end of the job.
    pub stop_fraction: f64,
    pub count: u64,
}

/// One query as the client saw it.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub consistent: bool,
    /// From when the query was due to when its reply arrived.
    pub latency_s: f64,
    /// How late the generator sent it.
    pub late_s: f64,
    pub outcome: Result<QueryAnswer, String>,
}

#[derive(Debug, Clone)]
pub struct QueryAnswer {
    pub report: QueryReport,
    /// Chunks routed at the cut that answered.
    pub cut: u64,
}

/// Counters from the coordinator's `query-plane:` summary line.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaneSummary {
    pub served: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected: u64,
}

/// Everything one job yields.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
    /// The final report line, if the job printed one.
    pub report: Option<String>,
    /// `None` when the job exited 0; otherwise why it failed.
    pub error: Option<String>,
    pub queries: Vec<QueryRecord>,
    pub plane: Option<PlaneSummary>,
    /// Bytes of each chain file at the end of the job.
    pub chain_bytes: Vec<(String, u64)>,
}

/// Whether `coordinator.ckpt` holds one complete frame.
fn manifest_frame_complete(dir: &Path) -> bool {
    let Ok(mut file) = std::fs::File::open(dir.join("coordinator.ckpt")) else {
        return false;
    };
    let mut prefix = [0u8; 8];
    if file.read_exact(&mut prefix).is_err() {
        return false;
    }
    let frame = u64::from_le_bytes(prefix);
    file.metadata()
        .map(|m| m.len() >= frame.saturating_add(8))
        .unwrap_or(false)
}

fn parse_plane_summary(line: &str) -> Option<PlaneSummary> {
    let rest = line.strip_prefix("query-plane: ")?;
    if rest.starts_with("served ") {
        return None; // a per-query line, not the summary
    }
    let mut summary = PlaneSummary::default();
    for field in rest.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        let value: u64 = value.parse().ok()?;
        match key {
            "served" => summary.served = value,
            "cache_hits" => summary.cache_hits = value,
            "cache_misses" => summary.cache_misses = value,
            "rejected" => summary.rejected = value,
            _ => {}
        }
    }
    Some(summary)
}

fn classify(e: &QueryError) -> String {
    match e {
        QueryError::Dial { .. } => format!("dial: {e}"),
        QueryError::Timeout { .. } => format!("timeout: {e}"),
        QueryError::Stale { .. } => format!("rejected-stale: {e}"),
        QueryError::Closed { .. } => format!("rejected-closed: {e}"),
        QueryError::Protocol(_) | QueryError::Io(_) => format!("protocol: {e}"),
    }
}

/// One open-loop client: query `i` is due at `start + i / rate`; a query
/// is sent when due (or as soon as the previous one returns, if the
/// generator is behind) and timed from when it was due.
fn client_loop(
    addr: &str,
    options: QueryOptions,
    per_s: f64,
    start: Instant,
    stop: &AtomicBool,
    progress: &AtomicU64,
    stop_at: u64,
) -> Vec<QueryRecord> {
    let client = QueryClient::new(addr.to_string())
        .dial_attempts(3)
        .read_timeout(Duration::from_secs(20));
    let consistent = options.max_epochs_stale().is_none();
    let mut records = Vec::new();
    for i in 0u64.. {
        let due = start + Duration::from_secs_f64(i as f64 / per_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Acquire) || progress.load(Ordering::Acquire) >= stop_at {
            break;
        }
        let sent = Instant::now();
        let outcome = client.query(&options);
        let done = Instant::now();
        let outcome = match outcome {
            Ok(snapshot) => {
                progress.fetch_max(snapshot.value.processed, Ordering::AcqRel);
                Ok(QueryAnswer {
                    report: snapshot.value,
                    cut: snapshot.cut,
                })
            }
            Err(e) => Err(classify(&e)),
        };
        records.push(QueryRecord {
            consistent,
            latency_s: (done - due).as_secs_f64(),
            late_s: (sent - due).as_secs_f64(),
            outcome,
        });
    }
    records
}

/// Runs `tps-service` with `args` (a `coordinator` invocation without
/// `--checkpoint-dir`/`--worker-exe`) in the fresh directory `chain_dir`,
/// removing the directory afterwards.
pub fn run_job(
    bin: &Path,
    args: &[String],
    chain_dir: &Path,
    ready: Ready,
    load: Option<Load>,
) -> JobOutcome {
    let mut outcome = JobOutcome {
        setup_s: 0.0,
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_kb: 0,
        report: None,
        error: None,
        queries: Vec::new(),
        plane: None,
        chain_bytes: Vec::new(),
    };
    if let Err(e) = run_job_into(bin, args, chain_dir, ready, load, &mut outcome) {
        outcome.error = Some(e);
    }
    let _ = std::fs::remove_dir_all(chain_dir);
    outcome
}

fn run_job_into(
    bin: &Path,
    args: &[String],
    chain_dir: &Path,
    ready: Ready,
    load: Option<Load>,
    out: &mut JobOutcome,
) -> Result<(), String> {
    if chain_dir.exists() {
        return Err(format!("{} already exists", chain_dir.display()));
    }
    let usage_before = sys::children_usage();
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .arg("--checkpoint-dir")
        .arg(chain_dir)
        .arg("--worker-exe")
        .arg(bin)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .process_group(0)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let pid = child.id();
    let stdout = child.stdout.take().expect("stdout is piped");
    let stderr = child.stderr.take().expect("stderr is piped");

    let exited = AtomicBool::new(false);
    let finished = AtomicBool::new(false);
    let progress = AtomicU64::new(0);
    let result = std::thread::scope(|scope| -> Result<(), String> {
        let (lines_tx, lines_rx) = mpsc::channel::<(Instant, String)>();
        let reader = scope.spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if lines_tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        let errors = scope.spawn(move || {
            let mut summary = None;
            let mut tail = Vec::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(parsed) = parse_plane_summary(&line) {
                    summary = Some(parsed);
                } else if !line.starts_with("query-plane: served ") {
                    tail.push(line);
                    if tail.len() > 20 {
                        tail.remove(0);
                    }
                }
            }
            (summary, tail)
        });
        let exited = &exited;
        let rss = scope.spawn(move || {
            let mut peak = 0;
            while !exited.load(Ordering::Acquire) {
                match sys::peak_rss_kb(pid) {
                    Some(kb) => peak = kb.max(peak),
                    None => break,
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });

        // Set-up: until the job can route its first update.
        let mut last_line = None;
        let mut listen_addr = None;
        match ready {
            Ready::ManifestFrame => loop {
                if manifest_frame_complete(chain_dir) {
                    out.setup_s = t0.elapsed().as_secs_f64();
                    break;
                }
                if let Ok((_, line)) = lines_rx.try_recv() {
                    last_line = Some(line);
                }
                if t0.elapsed() > JOB_TIMEOUT || reader.is_finished() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            },
            Ready::QueryListening => {
                while let Ok((at, line)) = lines_rx.recv_timeout(JOB_TIMEOUT) {
                    if let Some(addr) = line.strip_prefix("query-listening ") {
                        out.setup_s = (at - t0).as_secs_f64();
                        listen_addr = Some(addr.trim().to_string());
                        break;
                    }
                    last_line = Some(line);
                }
            }
        }
        let setup_at = t0 + Duration::from_secs_f64(out.setup_s);

        let clients = match (load, &listen_addr) {
            (Some(load), Some(addr)) if out.setup_s > 0.0 => {
                let stop_at = (load.count as f64 * load.stop_fraction) as u64;
                let spawn_client = |options: QueryOptions, per_s: f64| {
                    let (finished, progress) = (&finished, &progress);
                    let addr = addr.clone();
                    scope.spawn(move || {
                        client_loop(&addr, options, per_s, setup_at, finished, progress, stop_at)
                    })
                };
                vec![
                    spawn_client(QueryOptions::consistent(), load.consistent_per_s),
                    spawn_client(
                        QueryOptions::cached(load.max_epochs_stale),
                        load.cached_per_s,
                    ),
                ]
            }
            _ => Vec::new(),
        };

        // The job runs to its final report line and exit.
        let deadline = t0 + JOB_TIMEOUT;
        let mut timed_out = false;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match lines_rx.recv_timeout(left) {
                Ok((_, line)) => {
                    if QueryReport::parse(&line).is_some() {
                        finished.store(true, Ordering::Release);
                    }
                    last_line = Some(line);
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    timed_out = true;
                    break;
                }
            }
        }
        finished.store(true, Ordering::Release);
        if timed_out {
            let _ = child.kill();
        }
        let status = child.wait().map_err(|e| format!("wait: {e}"));
        out.wall_s = t0.elapsed().as_secs_f64();
        exited.store(true, Ordering::Release);
        // Pipe and listen workers may still hold stderr if the
        // coordinator died; make sure nothing of the job survives.
        if timed_out || !matches!(status, Ok(s) if s.success()) {
            sys::kill_group(pid);
        }
        let _ = reader.join();
        out.peak_rss_kb = rss.join().unwrap_or(0);
        let (summary, tail) = errors.join().unwrap_or_default();
        out.plane = summary;
        for client in clients {
            out.queries.extend(
                client
                    .join()
                    .map_err(|_| "query client panicked".to_string())?,
            );
        }
        out.report = last_line.filter(|line| QueryReport::parse(line).is_some());
        if timed_out {
            return Err(format!(
                "job exceeded {}s and was killed",
                JOB_TIMEOUT.as_secs()
            ));
        }
        match status? {
            s if s.success() => {}
            s => return Err(format!("coordinator exited with {s}: {}", tail.join(" | "))),
        }
        if out.setup_s == 0.0 {
            return Err("the job never became ready".into());
        }
        Ok(())
    });
    out.cpu_s = sys::children_usage().cpu_s - usage_before.cpu_s;
    if let Ok(entries) = std::fs::read_dir(chain_dir) {
        let mut sizes: Vec<(String, u64)> = entries
            .flatten()
            .map(|e| {
                let len = e.metadata().map(|m| m.len()).unwrap_or(0);
                (e.file_name().to_string_lossy().into_owned(), len)
            })
            .collect();
        sizes.sort();
        out.chain_bytes = sizes;
    }
    result
}

/// Runs `tps-service reference` for the same spec and returns its report
/// line.
pub fn reference_line(bin: &Path, args: &[String]) -> Result<String, String> {
    let output = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run reference: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "reference exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .filter(|line| QueryReport::parse(line).is_some())
        .ok_or_else(|| "reference printed no report line".to_string())
}

/// A fresh, not yet existing directory for one job's chains.
pub fn fresh_dir(root: &Path, tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    root.join(format!("{tag}-{}-{n}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_summary_parses_and_per_query_lines_do_not() {
        let line = "query-plane: served=12 cache_hits=9 cache_misses=3 rejected=1 \
                    latency_mean_us=5 latency_max_us=9";
        let s = parse_plane_summary(line).unwrap();
        assert_eq!(
            (s.served, s.cache_hits, s.cache_misses, s.rejected),
            (12, 9, 3, 1)
        );
        assert!(
            parse_plane_summary("query-plane: served epoch=3 cut=2 cached=true latency_us=4")
                .is_none()
        );
    }
}
