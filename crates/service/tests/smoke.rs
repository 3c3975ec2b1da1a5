//! End-to-end smoke test of the networked ingest service, driven through
//! the real binary (`CARGO_BIN_EXE_tps-service`): coordinator + worker
//! processes over pipes *and* TCP loopback, on-disk checkpoint chains,
//! a durable coordinator manifest chain, deterministic fault injection,
//! and a live query plane — all asserted against the single-process
//! reference.
//!
//! The headline contracts:
//!
//! * **Distributed = single-process**: the coordinator's merged query
//!   report equals the in-process sharded sampler's, byte for byte
//!   (snapshot checksum *and* sample outcome), for every sampler kind.
//! * **Recovery = uninterrupted**: SIGKILLing a *worker* (either
//!   transport) or the *coordinator* (pipe off-barrier, TCP mid-barrier —
//!   the widest crash window) mid-stream and recovering from the on-disk
//!   chains produces the identical final report.
//! * **Queries don't perturb**: a client query served mid-ingest over TCP
//!   returns the consistent cut at its chunk boundary, ingest continues
//!   past the query barrier, and the final report still matches the
//!   reference.
//!
//! On assertion failure, if `TPS_SMOKE_ARTIFACT_DIR` is set the job's
//! checkpoint directory (coordinator manifest chain + shard chains) is
//! preserved there for post-mortem — CI uploads it as an artifact.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use tps_service::config::{SamplerKind, ServiceBuilder, TransportKind};
use tps_service::coordinator::{run_reference, QueryReport};
use tps_service::store::CheckpointStore;
use tps_service::JobSpec;
use tps_streams::codec::delta::{peek_frame, FrameKind};
use tps_streams::wire::transport::{tcp_framed, Connection};
use tps_streams::wire::WireMessage;
use tps_streams::QueryOptions;

fn service_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_tps-service"))
}

/// A scratch checkpoint directory that cleans itself up on success and —
/// when `TPS_SMOKE_ARTIFACT_DIR` is set — preserves itself on panic.
struct JobDir {
    dir: PathBuf,
    tag: String,
}

impl JobDir {
    fn fresh(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("tps-smoke-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self {
            dir,
            tag: tag.to_string(),
        }
    }

    fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for JobDir {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(root) = std::env::var("TPS_SMOKE_ARTIFACT_DIR") {
                let dest = Path::new(&root).join(&self.tag);
                match copy_tree(&self.dir, &dest) {
                    Ok(()) => eprintln!("smoke: preserved {} at {}", self.tag, dest.display()),
                    Err(e) => eprintln!("smoke: could not preserve {}: {e}", self.tag),
                }
            }
        } else {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

fn copy_tree(src: &Path, dest: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dest)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dest.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

fn base_spec(kind: SamplerKind, dir: &Path, tcp: bool) -> JobSpec {
    let mut builder = ServiceBuilder::new(kind, 2)
        .universe(1 << 12)
        .seed(424_242)
        .count(30_000)
        .chunk(1_000)
        .checkpoint_every(3)
        .checkpoint_dir(dir)
        .worker_exe(service_exe());
    if tcp {
        builder = builder.transport(TransportKind::Tcp {
            endpoints: Vec::new(),
        });
    }
    builder.build().unwrap()
}

fn coordinator_cmd(spec: &JobSpec, extra: &[&str]) -> Command {
    let mut cmd = Command::new(service_exe());
    cmd.arg("coordinator")
        .arg("--workers")
        .arg(spec.workers.to_string())
        .arg("--sampler")
        .arg(spec.sampler.as_str())
        .arg("--universe")
        .arg(spec.universe.to_string())
        .arg("--seed")
        .arg(spec.seed.to_string())
        .arg("--count")
        .arg(spec.count.to_string())
        .arg("--chunk")
        .arg(spec.chunk.to_string())
        .arg("--checkpoint-every")
        .arg(spec.checkpoint_every.to_string())
        .arg("--checkpoint-dir")
        .arg(&spec.checkpoint_dir)
        .arg("--worker-exe")
        .arg(service_exe());
    if matches!(spec.transport, TransportKind::Tcp { .. }) {
        cmd.arg("--transport").arg("tcp");
    }
    cmd.args(extra);
    cmd
}

fn parse_report(stdout: &[u8]) -> QueryReport {
    let text = String::from_utf8(stdout.to_vec()).expect("utf8 report");
    let line = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap();
    QueryReport::parse(line.trim()).unwrap_or_else(|| panic!("unparseable report: {line:?}"))
}

/// Runs the coordinator subcommand of the real binary and parses its
/// report line.
fn run_service(spec: &JobSpec, extra: &[&str]) -> QueryReport {
    let output = coordinator_cmd(spec, extra)
        .output()
        .expect("coordinator runs");
    assert!(
        output.status.success(),
        "coordinator failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    parse_report(&output.stdout)
}

/// Runs a coordinator that is expected to die mid-job (simulated SIGKILL
/// via abort). Waits on the exit *status* only — capturing its pipes
/// would deadlock on TCP jobs, whose surviving listen workers inherit
/// the coordinator's stderr and outlive it by design.
fn run_service_until_death(spec: &JobSpec, extra: &[&str]) {
    let status = coordinator_cmd(spec, extra)
        .stdout(Stdio::null())
        .status()
        .expect("coordinator spawns");
    assert!(
        !status.success(),
        "coordinator with a die fault exited cleanly"
    );
}

/// Resumes a job from its coordinator manifest chain and parses the
/// report of the completed run.
fn resume_service(dir: &Path) -> QueryReport {
    let output = Command::new(service_exe())
        .arg("resume")
        .arg("--checkpoint-dir")
        .arg(dir)
        .arg("--worker-exe")
        .arg(service_exe())
        .output()
        .expect("resume runs");
    assert!(
        output.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    parse_report(&output.stdout)
}

fn assert_manifest_chain_healthy(dir: &Path) {
    let frames = CheckpointStore::for_coordinator(dir)
        .load_frames()
        .expect("coordinator chain loads");
    assert!(!frames.is_empty(), "coordinator chain is empty");
    let (kind, _) = peek_frame(&frames[0]).expect("chain frame peeks");
    assert!(
        matches!(kind, FrameKind::Full),
        "coordinator chain does not start with a full frame: {kind:?}"
    );
}

#[test]
fn service_matches_single_process_reference_for_every_kind() {
    for kind in [
        SamplerKind::L2,
        SamplerKind::F0,
        SamplerKind::G,
        SamplerKind::Turnstile,
    ] {
        let dir = JobDir::fresh(&format!("ref-{}", kind.as_str()));
        let spec = base_spec(kind, dir.path(), false);
        let service = run_service(&spec, &[]);
        let reference = run_reference(&spec).unwrap();
        assert_eq!(
            service,
            reference,
            "{}: distributed merged query drifted from the single-process reference",
            kind.as_str()
        );
        assert_eq!(service.processed, spec.count as u64);
    }
}

/// SIGKILL a worker mid-stream over both transports; the recovered run
/// must be byte-identical to the uninterrupted one and to the reference.
#[test]
fn killed_worker_recovers_byte_identically_over_both_transports() {
    for tcp in [false, true] {
        let label = if tcp { "tcp" } else { "pipe" };

        // Uninterrupted run.
        let calm_dir = JobDir::fresh(&format!("calm-{label}"));
        let calm_spec = base_spec(SamplerKind::L2, calm_dir.path(), tcp);
        let calm = run_service(&calm_spec, &[]);

        // Same job, but shard 1's worker is SIGKILLed after chunk 11 — two
        // chunks past the epoch-3 checkpoint (chunk 9), so recovery must
        // restore the checkpoint AND replay the two uncovered chunks.
        let chaos_dir = JobDir::fresh(&format!("chaos-{label}"));
        let chaos_spec = base_spec(SamplerKind::L2, chaos_dir.path(), tcp);
        let chaos = run_service(
            &chaos_spec,
            &["--kill-shard", "1", "--kill-after-chunks", "11"],
        );

        assert_eq!(
            calm, chaos,
            "{label}: recovery-from-checkpoint run drifted from the uninterrupted run"
        );
        assert_eq!(
            calm,
            run_reference(&calm_spec).unwrap(),
            "{label}: both drifted from reference"
        );

        // The killed shard's chain holds the pre-kill checkpoints and the
        // post-recovery ones, and actually contains delta frames (the
        // incremental path is exercised, not just full rebases).
        let chain = CheckpointStore::for_shard(chaos_dir.path(), 1)
            .load_frames()
            .unwrap();
        assert!(chain.len() >= 2, "{label}: killed shard's chain too short");
        let kinds: Vec<FrameKind> = chain
            .iter()
            .map(|frame| peek_frame(frame).expect("chain frame peeks").0)
            .collect();
        assert!(
            kinds
                .iter()
                .any(|kind| matches!(kind, FrameKind::Delta { .. })),
            "{label}: no delta frames in the killed shard's chain: {kinds:?}"
        );
    }
}

/// The turnstile kind survives a SIGKILL the same way: delta-chain
/// recovery plus replay reproduces the uninterrupted signed-stream run
/// byte for byte, and both match the in-process reference.
#[test]
fn killed_turnstile_worker_recovers_byte_identically() {
    let calm_dir = JobDir::fresh("turnstile-calm");
    let calm_spec = base_spec(SamplerKind::Turnstile, calm_dir.path(), false);
    let calm = run_service(&calm_spec, &[]);

    let chaos_dir = JobDir::fresh("turnstile-chaos");
    let chaos_spec = base_spec(SamplerKind::Turnstile, chaos_dir.path(), false);
    let chaos = run_service(
        &chaos_spec,
        &["--kill-shard", "1", "--kill-after-chunks", "11"],
    );

    assert_eq!(
        calm, chaos,
        "turnstile recovery run drifted from the uninterrupted run"
    );
    assert_eq!(
        calm,
        run_reference(&calm_spec).unwrap(),
        "turnstile service drifted from reference"
    );
}

/// SIGKILL the *coordinator* mid-job over pipes (off a barrier — pipe
/// workers die with it, so the crash point must not race a worker's disk
/// append); the resumed run finishes byte-identical to the uninterrupted
/// run, reconstructed from the manifest chain alone.
#[test]
fn killed_coordinator_resumes_byte_identically_over_pipes() {
    let calm_dir = JobDir::fresh("coord-calm-pipe");
    let calm_spec = base_spec(SamplerKind::L2, calm_dir.path(), false);
    let calm = run_service(&calm_spec, &[]);

    let chaos_dir = JobDir::fresh("coord-chaos-pipe");
    let chaos_spec = base_spec(SamplerKind::L2, chaos_dir.path(), false);
    // Chunk 11 is two past the epoch-3 checkpoint (chunk 9) and not a
    // barrier itself: everything after the manifest cut dies cleanly.
    run_service_until_death(&chaos_spec, &["--die-after-chunks", "11"]);
    assert_manifest_chain_healthy(chaos_dir.path());
    let resumed = resume_service(chaos_dir.path());

    assert_eq!(
        calm, resumed,
        "resumed coordinator drifted from the uninterrupted run"
    );
    assert_eq!(
        calm,
        run_reference(&calm_spec).unwrap(),
        "both drifted from reference"
    );
}

/// SIGKILL the coordinator over TCP *mid-barrier* — manifest written,
/// checkpoint barriers sent, zero acks collected. The listen workers
/// survive the coordinator, finish the checkpoint into their chains, and
/// the resumed coordinator re-dials them at the endpoints recorded in the
/// manifest. Still byte-identical.
#[test]
fn killed_coordinator_resumes_byte_identically_over_tcp_mid_barrier() {
    let calm_dir = JobDir::fresh("coord-calm-tcp");
    let calm_spec = base_spec(SamplerKind::L2, calm_dir.path(), true);
    let calm = run_service(&calm_spec, &[]);

    let chaos_dir = JobDir::fresh("coord-chaos-tcp");
    let chaos_spec = base_spec(SamplerKind::L2, chaos_dir.path(), true);
    // Dies inside the first checkpoint barrier at/after chunk 11 — the
    // epoch-4 barrier at chunk 12.
    run_service_until_death(
        &chaos_spec,
        &["--die-after-chunks", "11", "--die-mid-barrier", "true"],
    );
    assert_manifest_chain_healthy(chaos_dir.path());
    let resumed = resume_service(chaos_dir.path());

    assert_eq!(
        calm, resumed,
        "mid-barrier coordinator death: resumed run drifted from the uninterrupted run"
    );
    assert_eq!(
        calm,
        run_reference(&calm_spec).unwrap(),
        "both drifted from reference"
    );
}

/// A client query served over TCP while ingest runs returns the
/// consistent cut at its chunk boundary, and the job keeps ingesting past
/// the query barrier to a final report that still matches the reference —
/// queries never perturb sampler state.
#[test]
fn mid_ingest_query_returns_consistent_cut_without_stopping_ingest() {
    let dir = JobDir::fresh("query-plane");
    let spec = base_spec(SamplerKind::L2, dir.path(), true);

    let mut coordinator = coordinator_cmd(
        &spec,
        &[
            "--query-listen",
            "127.0.0.1:0",
            "--await-query-after-chunks",
            "15",
        ],
    )
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit())
    .spawn()
    .expect("coordinator spawns");

    // First stdout line announces the query endpoint; the coordinator
    // blocks at the chunk-15 boundary until a client shows up.
    let mut stdout = BufReader::new(coordinator.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("endpoint line");
    let addr = line
        .trim()
        .strip_prefix("query-listening ")
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
        .to_string();

    let query = Command::new(service_exe())
        .arg("query")
        .arg("--connect")
        .arg(&addr)
        .output()
        .expect("query client runs");
    assert!(
        query.status.success(),
        "query client failed: {}",
        String::from_utf8_lossy(&query.stderr)
    );
    let mid = parse_report(&query.stdout);

    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut stdout, &mut rest).expect("final report");
    let status = coordinator.wait().expect("coordinator exits");
    assert!(status.success(), "coordinator failed after serving a query");
    let fin = parse_report(&rest);

    // The query saw exactly the 15-chunk cut…
    assert_eq!(mid.processed, 15_000, "query cut at the wrong boundary");
    // …ingest continued past the query barrier to the full stream…
    assert_eq!(fin.processed, spec.count as u64);
    assert!(mid.processed < fin.processed, "ingest stopped at the query");
    // …and neither the barrier nor the off-path merge perturbed state.
    assert_eq!(
        fin,
        run_reference(&spec).unwrap(),
        "final report after a mid-ingest query drifted from the reference"
    );
}

/// Spawns a coordinator with the query plane bound on an ephemeral port,
/// returning the child, its buffered stdout (positioned after the
/// announcement line) and the announced query endpoint.
fn spawn_query_coordinator(
    spec: &JobSpec,
    extra: &[&str],
) -> (Child, BufReader<std::process::ChildStdout>, String) {
    let mut args = vec!["--query-listen", "127.0.0.1:0"];
    args.extend_from_slice(extra);
    let mut coordinator = coordinator_cmd(spec, &args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("coordinator spawns");
    let mut stdout = BufReader::new(coordinator.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("endpoint line");
    let addr = line
        .trim()
        .strip_prefix("query-listening ")
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
        .to_string();
    (coordinator, stdout, addr)
}

/// Reads the coordinator's final report and asserts a clean exit.
fn finish_coordinator(
    mut coordinator: Child,
    mut stdout: BufReader<std::process::ChildStdout>,
) -> QueryReport {
    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut stdout, &mut rest).expect("final report");
    let status = coordinator.wait().expect("coordinator exits");
    assert!(status.success(), "coordinator failed");
    parse_report(&rest)
}

/// A client that wedges is a client's problem, not the job's: with one
/// connection that never even sends a query and another that sends a
/// consistent query but never reads its reply, ingest must run to
/// completion and the final report must stay byte-identical to the
/// undisturbed run — over both worker transports. This is the tentpole
/// contract of the dedicated-thread query plane: before it, a stalled
/// client inside the barrier loop would have hung the coordinator.
#[test]
fn stalled_query_clients_do_not_stall_ingest_on_either_transport() {
    for tcp in [false, true] {
        let label = if tcp { "tcp" } else { "pipe" };

        let calm_dir = JobDir::fresh(&format!("stall-calm-{label}"));
        let calm_spec = base_spec(SamplerKind::L2, calm_dir.path(), tcp);
        let calm = run_service(&calm_spec, &[]);

        let dir = JobDir::fresh(&format!("stall-{label}"));
        let spec = base_spec(SamplerKind::L2, dir.path(), tcp);
        // Block at the chunk-15 cut so both stalls are provably
        // mid-ingest, then let the never-reading client's consistent
        // query release the barrier.
        let (coordinator, stdout, addr) =
            spawn_query_coordinator(&spec, &["--await-query-after-chunks", "15"]);

        // Stall #1: dials the plane and never sends a byte. Its handler
        // thread parks in recv() forever.
        let silent = TcpStream::connect(&addr).expect("silent client connects");

        // Stall #2: completes the handshake, asks for a consistent cut,
        // and never reads the reply — the worst-behaved real client.
        let mut deaf = tcp_framed(TcpStream::connect(&addr).expect("deaf client connects"))
            .expect("deaf client frames");
        match deaf.recv() {
            Ok(Some(WireMessage::Hello { .. })) => {}
            other => panic!("{label}: expected the plane's hello, got {other:?}"),
        }
        deaf.send(&WireMessage::Query {
            options: QueryOptions::consistent(),
        })
        .expect("deaf client queries");

        // The job must finish with both clients still wedged.
        let fin = finish_coordinator(coordinator, stdout);
        assert_eq!(
            fin, calm,
            "{label}: stalled query clients perturbed the final report"
        );
        assert_eq!(
            fin,
            run_reference(&spec).unwrap(),
            "{label}: final report drifted from the reference"
        );
        drop(silent);
        drop(deaf);
    }
}

/// N clients query the plane concurrently mid-ingest — consistent and
/// cached modes mixed, plus one deliberately stalled connection — and
/// every well-behaved client gets a valid cut while the job runs to a
/// reference-identical report. Latencies land in a small JSON artifact
/// when `TPS_SMOKE_ARTIFACT_DIR` is set (CI uploads it).
#[test]
fn concurrent_queries_mid_ingest_all_get_valid_cuts() {
    let dir = JobDir::fresh("concurrent-queries");
    // Double-length job: plenty of ingest left after the awaited cut for
    // every concurrent client to land mid-stream.
    let spec = JobSpec {
        count: 60_000,
        ..base_spec(SamplerKind::L2, dir.path(), true)
    };
    let (coordinator, stdout, addr) =
        spawn_query_coordinator(&spec, &["--await-query-after-chunks", "15"]);

    // One wedged connection up front: it must inconvenience nobody.
    let stalled = TcpStream::connect(&addr).expect("stalled client connects");

    // Four well-behaved clients in parallel: two consistent (the first
    // of them releases the awaited cut), two served from the snapshot
    // cache with a generous staleness bound.
    let modes: &[&[&str]] = &[&[], &[], &["--cached", "1000"], &["--cached", "1000"]];
    let started = Instant::now();
    let clients: Vec<(usize, Child, Instant)> = modes
        .iter()
        .enumerate()
        .map(|(i, mode)| {
            let mut cmd = Command::new(service_exe());
            cmd.arg("query")
                .arg("--connect")
                .arg(&addr)
                .arg("--dial-attempts")
                .arg("10")
                .args(*mode);
            (
                i,
                cmd.stdout(Stdio::piped())
                    .stderr(Stdio::piped())
                    .spawn()
                    .expect("client spawns"),
                Instant::now(),
            )
        })
        .collect();

    let mut latencies = Vec::new();
    for (i, client, spawned) in clients {
        let output = client.wait_with_output().expect("client finishes");
        let millis = spawned.elapsed().as_millis() as u64;
        assert!(
            output.status.success(),
            "client {i} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let text = String::from_utf8(output.stdout.clone()).expect("utf8 client output");
        // First line: `query-cut epoch=E cut=C cached=B`; last line: the
        // report. The cut metadata must agree with the report's cut.
        let meta = text.lines().next().expect("metadata line").to_string();
        assert!(
            meta.starts_with("query-cut "),
            "client {i}: no metadata: {meta:?}"
        );
        let field = |key: &str| -> String {
            meta.split_whitespace()
                .find_map(|f| f.strip_prefix(&format!("{key}=")).map(str::to_string))
                .unwrap_or_else(|| panic!("client {i}: no {key} in {meta:?}"))
        };
        let cut: u64 = field("cut").parse().expect("cut parses");
        let cached: bool = field("cached").parse().expect("cached parses");
        let report = parse_report(&output.stdout);
        // The reply is pinned to a real chunk cut, and its processed
        // count is exactly that cut's routed prefix.
        assert_eq!(
            report.processed,
            (cut * spec.chunk as u64).min(spec.count as u64),
            "client {i}: processed does not match the cut metadata"
        );
        assert!(
            cut <= (spec.count / spec.chunk) as u64,
            "client {i}: cut beyond the stream"
        );
        latencies.push((i, cached, report.processed, millis));
    }

    let fin = finish_coordinator(coordinator, stdout);
    drop(stalled);
    assert_eq!(fin.processed, spec.count as u64);
    assert_eq!(
        fin,
        run_reference(&spec).unwrap(),
        "final report after concurrent queries drifted from the reference"
    );

    if let Ok(root) = std::env::var("TPS_SMOKE_ARTIFACT_DIR") {
        let entries: Vec<String> = latencies
            .iter()
            .map(|(i, cached, processed, millis)| {
                format!(
                    "{{\"client\":{i},\"cached\":{cached},\"processed\":{processed},\
                     \"latency_ms\":{millis}}}"
                )
            })
            .collect();
        let json = format!(
            "{{\"job_ms\":{},\"queries\":[{}]}}\n",
            started.elapsed().as_millis(),
            entries.join(",")
        );
        let _ = std::fs::create_dir_all(&root);
        std::fs::write(Path::new(&root).join("query_latency.json"), json)
            .expect("latency artifact writes");
        eprintln!("smoke: wrote query_latency.json");
    }
}

/// Replay by regeneration across every barrier kind: a TCP turnstile job
/// publishes at each checkpoint barrier, serves a consistent query from a
/// query barrier *between* two checkpoints, and then loses a worker. The
/// replacement recovers the last checkpoint, and the coordinator
/// regenerates, re-routes and re-sends the chunks since that checkpoint's
/// boundary — the query epoch's chunks included. The mid-ingest answer
/// equals the reference over the routed prefix, and the final report
/// equals the reference over the whole stream.
#[test]
fn killed_turnstile_worker_after_mid_ingest_query_recovers_over_tcp() {
    let dir = JobDir::fresh("turnstile-query-kill");
    let spec = base_spec(SamplerKind::Turnstile, dir.path(), true);
    // Checkpoints every 3 chunks: the epoch-4 checkpoint lands at chunk
    // 12, the query barrier (epoch 5) at chunk 13, and shard 0 dies after
    // chunk 14, so its replay spans chunks 12–13.
    let (coordinator, stdout, addr) = spawn_query_coordinator(
        &spec,
        &[
            "--await-query-after-chunks",
            "13",
            "--kill-shard",
            "0",
            "--kill-after-chunks",
            "14",
        ],
    );
    let query = Command::new(service_exe())
        .arg("query")
        .arg("--connect")
        .arg(&addr)
        .output()
        .expect("query client runs");
    assert!(
        query.status.success(),
        "query client failed: {}",
        String::from_utf8_lossy(&query.stderr)
    );
    let mid = parse_report(&query.stdout);
    let fin = finish_coordinator(coordinator, stdout);

    let prefix = JobSpec {
        count: 13_000,
        ..spec.clone()
    };
    assert_eq!(
        mid,
        run_reference(&prefix).unwrap(),
        "mid-ingest answer drifted from the reference over the routed prefix"
    );
    assert_eq!(
        fin,
        run_reference(&spec).unwrap(),
        "recovery after a mid-ingest query drifted from the reference"
    );
}

/// An empty universe is a typed usage error at every entry point that
/// takes a spec — exit status 1 with a message, not a panic (101) in the
/// workload generator.
#[test]
fn empty_universe_is_rejected_cleanly() {
    let dir = JobDir::fresh("empty-universe");
    for command in ["reference", "coordinator"] {
        let output = Command::new(service_exe())
            .arg(command)
            .args([
                "--workers",
                "2",
                "--sampler",
                "turnstile",
                "--universe",
                "0",
            ])
            .args(["--seed", "1", "--count", "100", "--chunk", "10"])
            .args(["--checkpoint-every", "2", "--checkpoint-dir"])
            .arg(dir.path())
            .output()
            .expect("tps-service runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains("universe"), "{command}: {stderr}");
    }
}
