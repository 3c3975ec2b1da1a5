//! The coordinator: attaches one worker per shard over the job's
//! transport (spawned pipe children, self-spawned loopback listeners, or
//! externally-managed TCP endpoints), routes the stream with the exact
//! in-process routing function, drives checkpoint and query barriers,
//! recovers killed workers from their chains, persists its *own* state to
//! a manifest chain so a killed coordinator resumes, serves consistent-cut
//! queries to clients while ingest runs, and answers the final query by
//! restore-and-merge — byte-identical to a single-process
//! [`ShardedSampler`] over the same stream.
//!
//! ## Replay by regeneration
//!
//! The stream is never held: a [`JobCursor`] generates it chunk by chunk,
//! and nothing sent to a worker is retained. A checkpoint barrier `E`
//! sent after chunk `c` covers exactly the chunks before `c`, so the
//! coordinator keeps
//!
//! * one cursor at the first chunk that some shard's acked checkpoint
//!   does not cover;
//! * the boundaries `(E, c)` of every checkpoint barrier since.
//!
//! On a checkpoint **ack** from every worker, the cursor becomes a clone
//! of the live cursor and the older boundaries go. On a worker
//! **restart** announcing recovered epoch `e`, a clone of the cursor
//! regenerates and re-routes the stream up to the current cut, and the
//! worker is sent only its own sub-chunks from `e`'s boundary on. Query
//! barriers move no boundary: their chunks are replayed like any other.
//! The restored state is exactly the checkpoint-`e` cut, so re-ingesting
//! exactly the uncovered chunks reproduces the uninterrupted shard state
//! byte for byte — regardless of how much post-checkpoint work the dead
//! process had already absorbed (that work died with it).
//!
//! ## Coordinator durability
//!
//! The same argument is applied to the coordinator itself: before every
//! checkpoint barrier it commits a [`JobManifest`] — spec, barrier epoch,
//! chunks routed, per-shard acked epochs and endpoints, the boundaries
//! and the cursor — to its own chain, fsynced *before* any worker is told
//! to checkpoint (see `manifest.rs` for the case analysis). `resume_job`
//! reconstructs the job from that chain alone: re-handshake the workers,
//! regenerate from the cursor and re-send each worker the chunks its
//! recovered epoch doesn't cover, and route on from the recorded cut.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use tps_core::sharded::{
    fold_merge, hash_route, ShardedSampler, ShardedSamplerBuilder, ShardingStrategy,
    MERGE_SEED_SALT,
};
use tps_random::Xoshiro256;
use tps_streams::codec::delta::IncrementalCheckpointer;
use tps_streams::codec::{checksum, Restore, Snapshot};
use tps_streams::wire::transport::{tcp_connect, Connection, FramedConnection, TcpConnection};
use tps_streams::wire::{check_hello, BarrierKind, IngestPayload, WireError, WireMessage};
use tps_streams::{
    Item, MergeableSampler, SampleOutcome, SignedUpdate, StreamUpdate, UpdateSampler,
};

use crate::config::{
    job_signed_stream, job_stream, make_f0, make_g, make_l2, make_turnstile, FaultPlan, JobCursor,
    JobSpec, JobUpdate, QueryPlan, SamplerKind, TransportKind,
};
use crate::manifest::JobManifest;
use crate::query::{PublishedCut, QueryPlane};
use crate::store::CheckpointStore;

fn wire_to_io(e: WireError) -> io::Error {
    match e {
        WireError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The answer of a job's final consistent-cut query, printed as one line
/// (`processed=… merged_fnv=… sample=…`). Two runs whose lines are equal
/// produced byte-identical merged snapshots — this is the currency of the
/// smoke test's recovery and reference comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReport {
    /// Stream items routed (the logical stream length, not counting
    /// recovery re-sends; for a mid-ingest query, the length of the
    /// routed prefix at the query's consistent cut).
    pub processed: u64,
    /// FNV-1a 64 over the merged sampler's sealed snapshot bytes.
    pub merged_fnv: u64,
    /// The merged sampler's sample outcome, drawn after the snapshot.
    pub sample: String,
}

impl std::fmt::Display for QueryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "processed={} merged_fnv={:016x} sample={}",
            self.processed, self.merged_fnv, self.sample
        )
    }
}

impl QueryReport {
    /// Parses a line printed by [`QueryReport`]'s `Display` impl.
    pub fn parse(line: &str) -> Option<Self> {
        let mut processed = None;
        let mut merged_fnv = None;
        let mut sample = None;
        for field in line.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            match key {
                "processed" => processed = value.parse().ok(),
                "merged_fnv" => merged_fnv = u64::from_str_radix(value, 16).ok(),
                "sample" => sample = Some(value.to_string()),
                _ => return None,
            }
        }
        Some(Self {
            processed: processed?,
            merged_fnv: merged_fnv?,
            sample: sample?,
        })
    }
}

fn describe(outcome: SampleOutcome) -> String {
    match outcome {
        SampleOutcome::Index(i) => format!("index:{i}"),
        SampleOutcome::Empty => "empty".to_string(),
        SampleOutcome::Fail => "fail".to_string(),
    }
}

/// One attached worker.
struct WorkerHandle {
    shard: usize,
    conn: Box<dyn Connection>,
    /// The worker process, when this coordinator spawned it (pipe workers
    /// and self-spawned loopback listeners). Externally-managed TCP
    /// workers — including listeners inherited from a dead coordinator —
    /// have no child handle.
    child: Option<Child>,
    /// The worker's TCP endpoint, recorded in the manifest so a resumed
    /// coordinator can find the still-running listener.
    endpoint: Option<String>,
    /// The last checkpoint epoch this worker acked (or recovered to).
    acked_epoch: u64,
}

impl WorkerHandle {
    /// Wraps a fresh connection to the worker for `shard` and reads and
    /// verifies its `Hello` (protocol version and the capabilities the
    /// job's update type needs — see [`check_hello`]). The handle's acked
    /// epoch is the epoch the worker recovered to (`0` = fresh).
    fn attach(
        spec: &JobSpec,
        shard: usize,
        conn: Box<dyn Connection>,
        child: Option<Child>,
        endpoint: Option<String>,
    ) -> io::Result<Self> {
        let mut handle = Self {
            shard,
            conn,
            child,
            endpoint,
            acked_epoch: 0,
        };
        let caps = if spec.sampler.is_turnstile() {
            SignedUpdate::REQUIRED_CAPS
        } else {
            Item::REQUIRED_CAPS
        };
        let hello = handle.recv()?;
        let (said, resume_epoch) =
            check_hello(&hello, caps).map_err(|e| invalid(format!("worker {shard}: {e}")))?;
        if said != shard as u64 {
            return Err(invalid(format!("worker {shard} announced shard {said}")));
        }
        handle.acked_epoch = resume_epoch;
        Ok(handle)
    }

    fn send(&mut self, msg: &WireMessage) -> io::Result<()> {
        self.conn.send(msg)
    }

    fn recv(&mut self) -> io::Result<WireMessage> {
        self.conn.recv().map_err(wire_to_io)?.ok_or_else(|| {
            invalid(format!(
                "worker {} closed its connection mid-conversation",
                self.shard
            ))
        })
    }

    /// Reads the barrier ack for `epoch`, returning its snapshot field.
    fn expect_ack(&mut self, epoch: u64) -> io::Result<Option<Vec<u8>>> {
        match self.recv()? {
            WireMessage::BarrierAck {
                shard,
                epoch: acked,
                snapshot,
            } if shard == self.shard as u64 && acked == epoch => Ok(snapshot),
            other => Err(invalid(format!(
                "worker {}: expected ack for epoch {epoch}, got {other:?}",
                self.shard
            ))),
        }
    }
}

fn worker_command(spec: &JobSpec, exe: &Path, shard: usize) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--sampler")
        .arg(spec.sampler.as_str())
        .arg("--universe")
        .arg(spec.universe.to_string())
        .arg("--seed")
        .arg(spec.seed.to_string())
        .arg("--checkpoint-dir")
        .arg(&spec.checkpoint_dir);
    cmd
}

/// Spawns a pipe-transport worker and completes its handshake.
fn spawn_pipe_worker(spec: &JobSpec, exe: &Path, shard: usize) -> io::Result<WorkerHandle> {
    let mut child = worker_command(spec, exe, shard)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let input = child.stdin.take().expect("piped stdin");
    let output = child.stdout.take().expect("piped stdout");
    let conn = FramedConnection::new(output, input);
    WorkerHandle::attach(spec, shard, Box::new(conn), Some(child), None)
}

/// Spawns a `--listen` worker on a loopback ephemeral port, reads the
/// `listening <addr>` announcement from its stdout, dials it, and
/// completes the handshake.
fn spawn_listen_worker(spec: &JobSpec, exe: &Path, shard: usize) -> io::Result<WorkerHandle> {
    let mut child = worker_command(spec, exe, shard)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    let endpoint = line
        .trim()
        .strip_prefix("listening ")
        .ok_or_else(|| invalid(format!("worker {shard} announced {line:?}")))?
        .to_string();
    let conn = connect_retry(&endpoint, 250)?;
    WorkerHandle::attach(spec, shard, Box::new(conn), Some(child), Some(endpoint))
}

/// Dials an externally-managed (or inherited) listen worker.
fn connect_worker(
    spec: &JobSpec,
    endpoint: &str,
    shard: usize,
    attempts: u32,
) -> io::Result<WorkerHandle> {
    let conn = connect_retry(endpoint, attempts)?;
    let endpoint = Some(endpoint.to_string());
    WorkerHandle::attach(spec, shard, Box::new(conn), None, endpoint)
}

fn connect_retry(endpoint: &str, attempts: u32) -> io::Result<TcpConnection> {
    let mut last = None;
    for _ in 0..attempts {
        match tcp_connect(endpoint) {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Err(last.unwrap_or_else(|| invalid(format!("cannot reach worker at {endpoint}"))))
}

/// Attaches the worker for `shard` on a *fresh* job.
fn attach_worker(spec: &JobSpec, exe: &Path, shard: usize) -> io::Result<WorkerHandle> {
    match &spec.transport {
        TransportKind::Pipe => spawn_pipe_worker(spec, exe, shard),
        TransportKind::Tcp { endpoints } if endpoints.is_empty() => {
            spawn_listen_worker(spec, exe, shard)
        }
        TransportKind::Tcp { endpoints } => connect_worker(spec, &endpoints[shard], shard, 250),
    }
}

/// Re-attaches the worker for `shard` on a *resumed* job: listen workers
/// are still running and are re-dialed at their recorded endpoint (with a
/// respawn fallback for self-spawned loopback workers that died too);
/// everything else — pipe workers died with the old coordinator — attaches
/// as on a fresh job.
fn reattach_worker(
    spec: &JobSpec,
    exe: &Path,
    shard: usize,
    recorded: Option<&String>,
) -> io::Result<WorkerHandle> {
    match (&spec.transport, recorded) {
        (TransportKind::Tcp { endpoints }, Some(endpoint)) => {
            match connect_worker(spec, endpoint, shard, 25) {
                Err(e) if endpoints.is_empty() => {
                    eprintln!("coordinator: worker {shard} gone from {endpoint} ({e}); respawning");
                    spawn_listen_worker(spec, exe, shard)
                }
                attached => attached,
            }
        }
        _ => attach_worker(spec, exe, shard),
    }
}

/// Kills the worker outright (SIGKILL — no drain, simulating a crash) and
/// brings up a replacement, which recovers from its on-disk chain; the
/// caller then replays what the recovered checkpoint does not cover. Only
/// workers this coordinator spawned can be killed, so the replacement
/// attaches exactly like a fresh job's worker.
fn restart_worker(spec: &JobSpec, exe: &Path, handle: &mut WorkerHandle) -> io::Result<()> {
    let Some(child) = handle.child.as_mut() else {
        return Err(invalid(format!(
            "cannot kill worker {}: externally managed (no child process)",
            handle.shard
        )));
    };
    child.kill()?;
    child.wait()?;
    // Swap the replacement into the slot; the dead process's handles drop.
    *handle = attach_worker(spec, exe, handle.shard)?;
    Ok(())
}

/// Routes one chunk with the in-process routing function.
fn route<U: StreamUpdate>(chunk: &[U], workers: usize) -> Vec<Vec<U>> {
    let mut routed: Vec<Vec<U>> = vec![Vec::new(); workers];
    for &update in chunk {
        routed[hash_route(update.route_key(), workers)].push(update);
    }
    routed
}

/// Replay by regeneration: the workload cursor at the first chunk that
/// some shard's acked checkpoint does not cover, plus the checkpoint
/// boundaries since then (see the module docs).
struct ReplayLog {
    cursor: JobCursor,
    /// `(checkpoint epoch, first chunk it does not cover)`, ascending; the
    /// first entry is the cursor's own position.
    boundaries: Vec<(u64, u64)>,
}

impl ReplayLog {
    /// Records checkpoint barrier `epoch`, about to be sent at `chunk`.
    fn record(&mut self, epoch: u64, chunk: u64) {
        self.boundaries.push((epoch, chunk));
    }

    /// Every shard acked the checkpoint at `live`'s position: nothing
    /// before it will ever be replayed.
    fn acked(&mut self, epoch: u64, live: &JobCursor) {
        self.cursor = live.clone();
        self.boundaries = vec![(epoch, live.chunks())];
    }

    /// The first chunk a worker recovered to `epoch` is missing.
    fn first_uncovered(&self, shard: usize, epoch: u64) -> io::Result<u64> {
        self.boundaries
            .iter()
            .find(|&&(at, _)| at == epoch)
            .map(|&(_, chunk)| chunk)
            .ok_or_else(|| {
                invalid(format!(
                    "worker {shard} recovered epoch {epoch}, which no recorded checkpoint \
                     boundary covers — stale checkpoint directory?"
                ))
            })
    }

    /// Regenerates chunks from the cursor up to `to` (exclusive), routes
    /// them, and sends each worker in `shards` its sub-chunks from the
    /// boundary of the epoch it recovered to. Returns the cursor at `to`.
    fn replay<U: JobUpdate>(
        &self,
        workers: &mut [WorkerHandle],
        shards: &[usize],
        to: u64,
    ) -> io::Result<JobCursor> {
        let from = shards
            .iter()
            .map(|&shard| self.first_uncovered(shard, workers[shard].acked_epoch))
            .collect::<io::Result<Vec<u64>>>()?;
        let mut cursor = self.cursor.clone();
        let mut chunk: Vec<U> = Vec::new();
        while cursor.chunks() < to && cursor.next_chunk(&mut chunk) {
            let index = cursor.chunks() - 1;
            let mut routed = route(&chunk, workers.len());
            for (&shard, &first) in shards.iter().zip(&from) {
                let updates = std::mem::take(&mut routed[shard]);
                if index >= first && !updates.is_empty() {
                    workers[shard].send(&U::into_ingest(updates))?;
                }
            }
        }
        Ok(cursor)
    }
}

/// One barrier round at `epoch`, for every barrier kind: sends
/// `Barrier { epoch, kind }` to every worker, then collects every ack and
/// checks that it carries a snapshot exactly when `kind` asks for one.
/// Checkpoint kinds also record the ack. Returns the cut at
/// `chunks_routed` (`processed` stream items), with the snapshots in shard
/// order — none for a plain [`BarrierKind::Checkpoint`].
///
/// `crash` is the coordinator-death fault hook: the process aborts with
/// every barrier in flight and zero acks collected, the widest crash
/// window.
fn barrier_round(
    workers: &mut [WorkerHandle],
    epoch: u64,
    kind: BarrierKind,
    chunks_routed: u64,
    processed: u64,
    crash: bool,
) -> io::Result<PublishedCut> {
    for worker in workers.iter_mut() {
        worker.send(&WireMessage::Barrier { epoch, kind })?;
    }
    if crash {
        std::process::abort();
    }
    let publishes = kind != BarrierKind::Checkpoint;
    let mut snapshots = Vec::new();
    for worker in workers.iter_mut() {
        let snapshot = worker.expect_ack(epoch)?;
        if snapshot.is_some() != publishes {
            return Err(invalid(format!(
                "worker {}: {kind:?} ack carried the wrong payload (snapshot present: {})",
                worker.shard, !publishes
            )));
        }
        snapshots.extend(snapshot);
        if kind != BarrierKind::Query {
            worker.acked_epoch = epoch;
        }
    }
    Ok(PublishedCut {
        epoch,
        chunks_routed,
        processed,
        snapshots,
    })
}

/// Restores the per-shard snapshots and fold-merges them with
/// [`fold_merge`], merge coins from `seed ^ MERGE_SEED_SALT` — the exact
/// recipe of an in-process sharded sampler's first merged query. The bytes
/// come from other processes, so failures are typed `InvalidData` errors.
fn merge_snapshots<S, U>(
    snapshots: &[Vec<u8>],
    seed: u64,
    processed: u64,
) -> io::Result<QueryReport>
where
    S: MergeableSampler + UpdateSampler<U> + Snapshot + Restore,
    U: StreamUpdate,
{
    let shards = snapshots
        .iter()
        .enumerate()
        .map(|(index, bytes)| {
            S::restore(bytes)
                .map_err(|e| invalid(format!("shard {index} snapshot does not restore: {e}")))
        })
        .collect::<io::Result<Vec<S>>>()?;
    let mut rng = Xoshiro256::seed_from_u64(seed ^ MERGE_SEED_SALT);
    let mut merged = fold_merge(shards, &mut rng).map_err(|e| invalid(e.to_string()))?;
    let merged_bytes = merged.snapshot();
    Ok(QueryReport {
        processed,
        merged_fnv: checksum(&merged_bytes),
        sample: describe(merged.draw()),
    })
}

pub(crate) fn merge_report(
    kind: SamplerKind,
    snapshots: &[Vec<u8>],
    seed: u64,
    processed: u64,
) -> io::Result<QueryReport> {
    use crate::config::HuberSampler;
    use tps_core::f0::TrulyPerfectF0Sampler;
    use tps_core::lp::TrulyPerfectLpSampler;
    use tps_core::turnstile::StrictTurnstileF0Sampler;
    match kind {
        SamplerKind::L2 => {
            merge_snapshots::<TrulyPerfectLpSampler, Item>(snapshots, seed, processed)
        }
        SamplerKind::F0 => {
            merge_snapshots::<TrulyPerfectF0Sampler, Item>(snapshots, seed, processed)
        }
        SamplerKind::G => merge_snapshots::<HuberSampler, Item>(snapshots, seed, processed),
        SamplerKind::Turnstile => {
            merge_snapshots::<StrictTurnstileF0Sampler, SignedUpdate>(snapshots, seed, processed)
        }
    }
}

/// The coordinator's own durable chain: manifest snapshots checkpointed
/// through the same delta machinery the workers use, with the manifest
/// sequence number as the chain's epoch counter (distinct from job
/// epochs — the chain cares about "which manifest is newest", not about
/// barrier numbering).
struct Durability {
    store: CheckpointStore,
    writer: IncrementalCheckpointer,
    seq: u64,
}

impl Durability {
    fn persist(&mut self, manifest: Vec<u8>) -> io::Result<()> {
        self.seq += 1;
        self.store
            .commit(&self.writer.checkpoint_bytes(manifest, self.seq))
    }
}

/// Encodes the manifest of this barrier and persists it.
fn persist_manifest(
    durability: &mut Durability,
    spec: &JobSpec,
    epoch: u64,
    chunks_routed: u64,
    workers: &[WorkerHandle],
    log: &ReplayLog,
) -> io::Result<()> {
    durability.persist(JobManifest::encode_parts(
        spec,
        epoch,
        chunks_routed,
        workers
            .iter()
            .map(|worker| (worker.acked_epoch, worker.endpoint.as_deref())),
        &log.boundaries,
        &log.cursor,
    ))
}

/// The routed stream-prefix length at a chunk cut (the final chunk may
/// be short, so the product is clamped to the stream length).
fn routed_prefix(count: usize, chunks_routed: u64, chunk: usize) -> u64 {
    (chunks_routed * chunk as u64).min(count as u64)
}

/// The kind-generic job body: attach workers, route the stream chunk by
/// chunk from the workload cursor, checkpoint (manifest-before-barrier),
/// inject faults, serve mid-ingest queries, run the final query barrier,
/// shut down. `resume` is the newest manifest of the chain being resumed.
/// Returns the final consistent cut.
fn drive_job<U: JobUpdate>(
    spec: &JobSpec,
    fault: &FaultPlan,
    query: &QueryPlan,
    resume: Option<JobManifest>,
) -> io::Result<Arc<PublishedCut>> {
    let exe = match &spec.worker_exe {
        Some(path) => path.clone(),
        None => std::env::current_exe()?,
    };
    std::fs::create_dir_all(&spec.checkpoint_dir)?;

    let store = CheckpointStore::for_coordinator(&spec.checkpoint_dir);
    let mut workers: Vec<WorkerHandle> = Vec::with_capacity(spec.workers);
    let (mut durability, mut log, mut cursor, start_epoch) = match resume {
        None => {
            if store.recover()?.is_some() {
                return Err(invalid(format!(
                    "coordinator chain {} already exists — resume the job or clear the directory",
                    store.path().display()
                )));
            }
            for shard in 0..spec.workers {
                let handle = attach_worker(spec, &exe, shard)?;
                if handle.acked_epoch != 0 {
                    return Err(invalid(format!(
                        "worker {shard} recovered epoch {} on a fresh job — \
                         stale checkpoint directory?",
                        handle.acked_epoch
                    )));
                }
                workers.push(handle);
            }
            let mut durability = Durability {
                store,
                writer: IncrementalCheckpointer::new(),
                seq: 0,
            };
            let cursor = JobCursor::for_spec(spec);
            let log = ReplayLog {
                cursor: cursor.clone(),
                boundaries: vec![(0, 0)],
            };
            // The job is durable from the first moment it could need
            // resuming: a manifest at the zero cut covers death before the
            // first checkpoint.
            persist_manifest(&mut durability, spec, 0, 0, &workers, &log)?;
            (durability, log, cursor, 0)
        }
        Some(manifest) => {
            let chain = store
                .recover()?
                .ok_or_else(|| invalid("no coordinator chain to resume from".into()))?;
            let durability = Durability {
                writer: IncrementalCheckpointer::resume(
                    chain.epoch,
                    chain.snapshot,
                    chain.deltas_since_base,
                ),
                seq: chain.epoch,
                store,
            };
            for (shard, entry) in manifest.shards.iter().enumerate() {
                workers.push(reattach_worker(spec, &exe, shard, entry.endpoint.as_ref())?);
            }
            let log = ReplayLog {
                cursor: manifest.cursor,
                boundaries: manifest.boundaries,
            };
            // One regeneration pass brings every worker level with the
            // manifest's cut and leaves the live cursor there.
            let every: Vec<usize> = (0..spec.workers).collect();
            let cursor = log.replay::<U>(&mut workers, &every, manifest.chunks_routed)?;
            (durability, log, cursor, manifest.epoch)
        }
    };

    // The non-stalling query plane: a dedicated accept thread plus
    // detached handler threads serve clients from the published-cut
    // cache, so a wedged client can never hold up a barrier (`query.rs`).
    let plane = match &query.listen {
        Some(addr) => Some(QueryPlane::start(addr, spec.sampler, spec.seed)?),
        None => None,
    };

    let mut epoch = start_epoch; // last barrier epoch sent
    let mut kill_pending = fault.kill;
    let mut chunk: Vec<U> = Vec::new();
    while cursor.next_chunk(&mut chunk) {
        let routed = route(&chunk, spec.workers);
        for (worker, updates) in workers.iter_mut().zip(routed) {
            if !updates.is_empty() {
                worker.send(&U::into_ingest(updates))?;
            }
        }
        let chunks_routed = cursor.chunks();
        let processed = routed_prefix(spec.count, chunks_routed, spec.chunk);

        if let Some(kill) = kill_pending {
            if chunks_routed >= kill.after_chunks {
                if kill.shard >= spec.workers {
                    return Err(invalid(format!("no shard {} to kill", kill.shard)));
                }
                restart_worker(spec, &exe, &mut workers[kill.shard])?;
                log.replay::<U>(&mut workers, &[kill.shard], chunks_routed)?;
                kill_pending = None;
            }
        }
        let die_now = fault.die.filter(|die| chunks_routed >= die.after_chunks);
        if die_now.is_some_and(|die| !die.mid_barrier) {
            // Simulated coordinator SIGKILL: no drain, no cleanup, no
            // manifest write — whatever is durable is all that's left.
            std::process::abort();
        }

        if chunks_routed.is_multiple_of(spec.checkpoint_every) {
            epoch += 1;
            // Durability order: the manifest recording this barrier's
            // boundary is on disk before any worker is told to checkpoint.
            log.record(epoch, chunks_routed);
            persist_manifest(&mut durability, spec, epoch, chunks_routed, &workers, &log)?;
            // With a live query plane, checkpoint barriers *publish*: the
            // same barrier round that makes the cut durable also hands
            // its snapshots to the cut cache.
            let kind = if plane.is_some() {
                BarrierKind::CheckpointPublish
            } else {
                BarrierKind::Checkpoint
            };
            let crash = die_now.is_some_and(|die| die.mid_barrier);
            let cut = barrier_round(&mut workers, epoch, kind, chunks_routed, processed, crash)?;
            log.acked(epoch, &cursor);
            if let Some(plane) = &plane {
                plane.publish(cut);
            }
        }

        if let Some(plane) = &plane {
            // Consistent-cut demands wait in the plane's channel; one
            // query barrier per chunk boundary serves all of them with
            // the same published cut. The barrier never touches a client
            // socket — replies happen in the handlers' own threads.
            let pending = match query.await_after_chunks {
                // Deterministic test hook: block at exactly this cut
                // until a consistent query lands, however slow the client
                // is to dial in.
                Some(cut) if chunks_routed == cut => plane.wait_for_request()?,
                Some(cut) if chunks_routed < cut => Vec::new(),
                _ => plane.take_requests(),
            };
            if !pending.is_empty() {
                epoch += 1;
                let cut = barrier_round(
                    &mut workers,
                    epoch,
                    BarrierKind::Query,
                    chunks_routed,
                    processed,
                    false,
                )?;
                let published = plane.publish(cut);
                for request in pending {
                    request.fulfil(&published);
                }
            }
        }
    }

    epoch += 1;
    let cut = barrier_round(
        &mut workers,
        epoch,
        BarrierKind::Query,
        cursor.chunks(),
        spec.count as u64,
        false,
    )?;
    let cut = match plane {
        // Publish the final cut and answer any last consistent-cut
        // demands with it; then tear the plane down. Handler threads are
        // detached, so however wedged a client is, the job still ends —
        // the plane's drop rejects anything that arrives too late.
        Some(plane) => {
            let published = plane.publish(cut);
            for request in plane.take_requests() {
                request.fulfil(&published);
            }
            plane.finish();
            published
        }
        None => Arc::new(cut),
    };
    for worker in workers.iter_mut() {
        worker.send(&WireMessage::Shutdown)?;
    }
    for worker in workers.iter_mut() {
        if let Some(child) = worker.child.as_mut() {
            child.wait()?;
        }
    }
    Ok(cut)
}

/// The job body [`run_job`] and [`resume_job`] share: validate the spec,
/// drive the job for its update type (resuming from `manifest` when
/// given), merge the final cut.
fn execute(
    spec: &JobSpec,
    fault: &FaultPlan,
    query: &QueryPlan,
    manifest: Option<JobManifest>,
) -> io::Result<QueryReport> {
    spec.validate().map_err(invalid)?;
    let cut = if spec.sampler.is_turnstile() {
        drive_job::<SignedUpdate>(spec, fault, query, manifest)?
    } else {
        drive_job::<Item>(spec, fault, query, manifest)?
    };
    merge_report(spec.sampler, &cut.snapshots, spec.seed, cut.processed)
}

/// Runs a job from scratch: attach workers, stream, checkpoint (with the
/// coordinator's own manifest chain), inject the fault plan, serve the
/// query plan, merge, shut down.
pub fn run_job(spec: &JobSpec, fault: &FaultPlan, query: &QueryPlan) -> io::Result<QueryReport> {
    execute(spec, fault, query, None)
}

/// Resumes a job from the coordinator chain in `checkpoint_dir`: the
/// manifest *is* the config snapshot, so nothing else is needed. The
/// recorded spec's `worker_exe` can be overridden (tests relocate
/// binaries). The resumed run never re-injects faults — fault plans are
/// per-invocation, and the invocation that planned them is dead. A
/// manifest that does not decode, or records a spec that fails
/// validation, is an `InvalidData` error.
pub fn resume_job(
    checkpoint_dir: &Path,
    worker_exe: Option<PathBuf>,
    query: &QueryPlan,
) -> io::Result<QueryReport> {
    let store = CheckpointStore::for_coordinator(checkpoint_dir);
    let chain = store.recover()?.ok_or_else(|| {
        invalid(format!(
            "no coordinator chain at {} to resume from",
            store.path().display()
        ))
    })?;
    let mut manifest = JobManifest::decode(&chain.snapshot)
        .map_err(|e| invalid(format!("manifest does not decode: {e}")))?;
    if let Some(exe) = worker_exe {
        manifest.spec.worker_exe = Some(exe);
    }
    // Chains move with their directory; trust the caller's location over
    // the recorded absolute path.
    manifest.spec.checkpoint_dir = checkpoint_dir.to_path_buf();
    let spec = manifest.spec.clone();
    execute(&spec, &FaultPlan::default(), query, Some(manifest))
}

/// The single-process reference: an in-process sharded sampler over the
/// identical stream, queried once. Its report must equal the service's —
/// that equality is the distributed correctness gate. A spec that fails
/// validation is an `InvalidData` error, as for [`run_job`].
pub fn run_reference(spec: &JobSpec) -> io::Result<QueryReport> {
    spec.validate().map_err(invalid)?;
    fn typed<S, U>(
        spec: &JobSpec,
        stream: &[U],
        build: impl FnOnce(ShardedSamplerBuilder) -> ShardedSampler<S, U>,
    ) -> QueryReport
    where
        S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
        U: StreamUpdate,
    {
        let mut sampler = build(
            ShardedSamplerBuilder::new(spec.workers)
                .strategy(ShardingStrategy::Hash)
                .seed(spec.seed),
        );
        sampler.ingest_batch(stream);
        let mut merged = sampler.merged();
        let merged_bytes = merged.snapshot();
        QueryReport {
            processed: stream.len() as u64,
            merged_fnv: checksum(&merged_bytes),
            sample: describe(merged.draw()),
        }
    }
    Ok(match spec.sampler {
        SamplerKind::L2 => typed(
            spec,
            &job_stream(spec.universe, spec.count, spec.seed),
            |b| b.build(|shard| make_l2(spec.universe, spec.seed, shard)),
        ),
        SamplerKind::F0 => typed(
            spec,
            &job_stream(spec.universe, spec.count, spec.seed),
            |b| b.build(|shard| make_f0(spec.universe, spec.seed, shard)),
        ),
        SamplerKind::G => typed(
            spec,
            &job_stream(spec.universe, spec.count, spec.seed),
            |b| b.build(|shard| make_g(spec.universe, spec.seed, shard)),
        ),
        SamplerKind::Turnstile => typed(
            spec,
            &job_signed_stream(spec.universe, spec.count, spec.seed),
            |b| b.build_turnstile(|shard| make_turnstile(spec.universe, spec.seed, shard)),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceBuilder;
    use crate::manifest::ShardEntry;

    #[test]
    fn report_lines_round_trip() {
        let report = QueryReport {
            processed: 123_456,
            merged_fnv: 0xDEAD_BEEF_0BAD_F00D,
            sample: "index:42".to_string(),
        };
        assert_eq!(QueryReport::parse(&report.to_string()), Some(report));
        assert_eq!(QueryReport::parse("nonsense"), None);
    }

    #[test]
    fn reference_is_deterministic_per_seed() {
        let spec = ServiceBuilder::new(SamplerKind::L2, 3)
            .universe(1 << 12)
            .seed(5)
            .count(30_000)
            .chunk(1_000)
            .checkpoint_every(4)
            .checkpoint_dir(std::env::temp_dir())
            .build()
            .unwrap();
        let a = run_reference(&spec).unwrap();
        let b = run_reference(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.processed, 30_000);
        let other = JobSpec { seed: 6, ..spec };
        assert_ne!(a.merged_fnv, run_reference(&other).unwrap().merged_fnv);
    }

    /// A connection that records what the coordinator sends.
    struct Recorder(std::rc::Rc<std::cell::RefCell<Vec<WireMessage>>>);

    impl Connection for Recorder {
        fn send(&mut self, msg: &WireMessage) -> io::Result<()> {
            self.0.borrow_mut().push(msg.clone());
            Ok(())
        }

        fn recv(&mut self) -> Result<Option<WireMessage>, WireError> {
            Ok(None)
        }
    }

    /// Replay regenerates from the log's cursor and sends each listed
    /// shard exactly its routed sub-chunks from its recovered epoch's
    /// boundary to the cut: here one shard recovered to the older of two
    /// listed checkpoints and one to the newer, as after a coordinator
    /// death inside a checkpoint barrier. The returned cursor sits at the
    /// cut.
    #[test]
    fn replay_sends_each_shard_its_chunks_from_its_boundary() {
        let spec = ServiceBuilder::new(SamplerKind::L2, 2)
            .count(10_000)
            .chunk(1_000)
            .build()
            .unwrap();
        let stream = job_stream(spec.universe, spec.count, spec.seed);
        let mut cursor = JobCursor::for_spec(&spec);
        let mut chunk: Vec<Item> = Vec::new();
        for _ in 0..3 {
            cursor.next_chunk(&mut chunk);
        }
        let log = ReplayLog {
            cursor,
            boundaries: vec![(2, 3), (3, 6)],
        };
        let sent: Vec<_> = (0..2)
            .map(|_| std::rc::Rc::new(std::cell::RefCell::new(Vec::new())))
            .collect();
        let mut workers: Vec<WorkerHandle> = sent
            .iter()
            .zip([2, 3])
            .enumerate()
            .map(|(shard, (log, acked_epoch))| WorkerHandle {
                shard,
                conn: Box::new(Recorder(std::rc::Rc::clone(log))),
                child: None,
                endpoint: None,
                acked_epoch,
            })
            .collect();
        let at = log.replay::<Item>(&mut workers, &[0, 1], 8).unwrap();
        assert_eq!(at.chunks(), 8);
        for (shard, first) in [(0, 3), (1, 6)] {
            let expected: Vec<WireMessage> = stream[first * 1_000..8_000]
                .chunks(1_000)
                .map(|c| Item::into_ingest(route(c, 2).swap_remove(shard)))
                .collect();
            assert_eq!(*sent[shard].borrow(), expected, "shard {shard}");
        }
        // An epoch no boundary lists is a typed error, not a guess.
        workers[1].acked_epoch = 1;
        let err = log.replay::<Item>(&mut workers, &[1], 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// `resume_job` validates the spec it decodes from the manifest chain
    /// exactly like `run_job` validates its argument: a well-formed chain
    /// recording zero workers, a zero chunk size or an empty universe is a
    /// typed `InvalidData` error, not a panic in the routing loop or the
    /// workload generator.
    #[test]
    fn resume_rejects_an_invalid_recorded_spec() {
        let valid = ServiceBuilder::new(SamplerKind::L2, 3)
            .count(10_000)
            .chunk(1_000)
            .build()
            .unwrap();
        let broken = [
            (
                "workers",
                JobSpec {
                    workers: 0,
                    ..valid.clone()
                },
            ),
            (
                "chunk",
                JobSpec {
                    chunk: 0,
                    ..valid.clone()
                },
            ),
            (
                "universe",
                JobSpec {
                    universe: 0,
                    ..valid.clone()
                },
            ),
        ];
        for (field, spec) in broken {
            let dir = std::env::temp_dir()
                .join(format!("tps-resume-invalid-{field}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let manifest = JobManifest {
                epoch: 0,
                chunks_routed: 0,
                shards: (0..spec.workers)
                    .map(|_| ShardEntry {
                        acked_epoch: 0,
                        endpoint: None,
                    })
                    .collect(),
                boundaries: vec![(0, 0)],
                cursor: JobCursor::for_spec(&valid),
                spec,
            };
            let frame = IncrementalCheckpointer::new().checkpoint_bytes(manifest.encode(), 1);
            CheckpointStore::for_coordinator(&dir)
                .commit(&frame)
                .unwrap();
            let err = resume_job(&dir, None, &QueryPlan::default()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{field}: {err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// An empty universe is rejected before anything is spawned or
    /// generated: `run_job` and `run_reference` fail with a typed error
    /// instead of panicking in the Zipf table.
    #[test]
    fn run_job_rejects_an_empty_universe() {
        let spec = JobSpec {
            universe: 0,
            ..ServiceBuilder::new(SamplerKind::Turnstile, 2)
                .build()
                .unwrap()
        };
        let err = run_job(&spec, &FaultPlan::default(), &QueryPlan::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let err = run_reference(&spec).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(ServiceBuilder::new(SamplerKind::L2, 2)
            .universe(0)
            .build()
            .is_err());
    }
}
