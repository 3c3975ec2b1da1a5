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
//! ## Replay buffers
//!
//! Every chunk sent to a worker is retained, tagged with the epoch of the
//! last barrier *sent* before it. A chunk tagged `t` is covered by any
//! checkpoint with epoch `> t`:
//!
//! * on a checkpoint **ack** at epoch `E` (the frame is on disk), chunks
//!   tagged `< E` are dropped;
//! * on a worker **restart** announcing recovered epoch `e`, chunks
//!   tagged `≥ e` are re-sent in order (tagged `< e` are inside the
//!   recovered state and are dropped).
//!
//! The restored state is exactly the checkpoint-`e` cut, so re-ingesting
//! exactly the uncovered chunks reproduces the uninterrupted shard state
//! byte for byte — regardless of how much post-checkpoint work the dead
//! process had already absorbed (that work died with it).
//!
//! ## Coordinator durability
//!
//! The same argument is applied to the coordinator itself: before every
//! checkpoint barrier it appends a [`Manifest`] — spec, barrier epoch,
//! chunks routed, per-shard endpoints and (untrimmed) replay buffers — to
//! its own chain, fsynced *before* any worker is told to checkpoint (see
//! `manifest.rs` for the case analysis). `resume_job` reconstructs the
//! job from that chain alone: re-handshake the workers, re-send the
//! buffered chunks their recovered epochs don't cover, and re-route the
//! deterministic stream from the recorded chunk cut.

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
use tps_streams::{MergeableSampler, SampleOutcome, StreamUpdate, UpdateSampler};

use crate::config::{
    job_signed_stream, job_stream, make_f0, make_g, make_l2, make_turnstile, FaultPlan, JobSpec,
    QueryPlan, SamplerKind, TransportKind,
};
use crate::manifest::{peek_spec, Manifest, ShardState};
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

/// One attached worker plus its replay buffer.
struct WorkerHandle<U> {
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
    /// Chunks sent since the last acked checkpoint, each tagged with the
    /// epoch of the last barrier sent before it.
    replay: Vec<(u64, Vec<U>)>,
    /// The last checkpoint epoch this worker acked.
    acked_epoch: u64,
}

impl<U: IngestPayload> WorkerHandle<U> {
    /// Wraps a fresh connection to the worker for `shard` and reads and
    /// verifies its `Hello` (protocol version and capabilities included —
    /// see [`check_hello`]), returning the handle, with an empty replay
    /// buffer, and the epoch the worker recovered to (`0` = fresh).
    fn attach(
        shard: usize,
        conn: Box<dyn Connection>,
        child: Option<Child>,
        endpoint: Option<String>,
    ) -> io::Result<(Self, u64)> {
        let mut handle = Self {
            shard,
            conn,
            child,
            endpoint,
            replay: Vec::new(),
            acked_epoch: 0,
        };
        let hello = handle.recv()?;
        let (said, resume_epoch) = check_hello(&hello, U::REQUIRED_CAPS)
            .map_err(|e| invalid(format!("worker {shard}: {e}")))?;
        if said != shard as u64 {
            return Err(invalid(format!("worker {shard} announced shard {said}")));
        }
        Ok((handle, resume_epoch))
    }

    /// Brings a freshly attached worker level with the chunks in `replay`:
    /// every chunk tagged `≥ resume_epoch` is outside the worker's
    /// recovered checkpoint, so it is re-sent in order and buffered again;
    /// the rest are inside the recovered state and are dropped.
    fn resend_uncovered(
        &mut self,
        resume_epoch: u64,
        replay: Vec<(u64, Vec<U>)>,
    ) -> io::Result<()> {
        self.acked_epoch = resume_epoch;
        for (tag, items) in replay {
            if tag >= resume_epoch {
                self.send(&U::into_ingest(items.clone()))?;
                self.replay.push((tag, items));
            }
        }
        Ok(())
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
fn spawn_pipe_worker<U: IngestPayload>(
    spec: &JobSpec,
    exe: &Path,
    shard: usize,
) -> io::Result<(WorkerHandle<U>, u64)> {
    let mut child = worker_command(spec, exe, shard)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let input = child.stdin.take().expect("piped stdin");
    let output = child.stdout.take().expect("piped stdout");
    let conn = FramedConnection::new(output, input);
    WorkerHandle::attach(shard, Box::new(conn), Some(child), None)
}

/// Spawns a `--listen` worker on a loopback ephemeral port, reads the
/// `listening <addr>` announcement from its stdout, dials it, and
/// completes the handshake.
fn spawn_listen_worker<U: IngestPayload>(
    spec: &JobSpec,
    exe: &Path,
    shard: usize,
) -> io::Result<(WorkerHandle<U>, u64)> {
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
    WorkerHandle::attach(shard, Box::new(conn), Some(child), Some(endpoint))
}

/// Dials an externally-managed (or inherited) listen worker.
fn connect_worker<U: IngestPayload>(
    endpoint: &str,
    shard: usize,
    attempts: u32,
) -> io::Result<(WorkerHandle<U>, u64)> {
    let conn = connect_retry(endpoint, attempts)?;
    WorkerHandle::attach(shard, Box::new(conn), None, Some(endpoint.to_string()))
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
fn attach_worker<U: IngestPayload>(
    spec: &JobSpec,
    exe: &Path,
    shard: usize,
) -> io::Result<(WorkerHandle<U>, u64)> {
    match &spec.transport {
        TransportKind::Pipe => spawn_pipe_worker(spec, exe, shard),
        TransportKind::Tcp { endpoints } if endpoints.is_empty() => {
            spawn_listen_worker(spec, exe, shard)
        }
        TransportKind::Tcp { endpoints } => connect_worker(&endpoints[shard], shard, 250),
    }
}

/// Re-attaches the worker for `shard` on a *resumed* job: listen workers
/// are still running and are re-dialed at their recorded endpoint (with a
/// respawn fallback for self-spawned loopback workers that died too);
/// everything else — pipe workers died with the old coordinator — attaches
/// as on a fresh job.
fn reattach_worker<U: IngestPayload>(
    spec: &JobSpec,
    exe: &Path,
    shard: usize,
    recorded: Option<&String>,
) -> io::Result<(WorkerHandle<U>, u64)> {
    match (&spec.transport, recorded) {
        (TransportKind::Tcp { endpoints }, Some(endpoint)) => {
            match connect_worker(endpoint, shard, 25) {
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
/// brings up a replacement: the fresh process recovers from its on-disk
/// chain, and the coordinator re-sends the buffered chunks the recovered
/// checkpoint does not cover. Only workers this coordinator spawned can be
/// killed, so the replacement attaches exactly like a fresh job's worker.
fn restart_worker<U: IngestPayload>(
    spec: &JobSpec,
    exe: &Path,
    handle: &mut WorkerHandle<U>,
) -> io::Result<()> {
    let Some(child) = handle.child.as_mut() else {
        return Err(invalid(format!(
            "cannot kill worker {}: externally managed (no child process)",
            handle.shard
        )));
    };
    child.kill()?;
    child.wait()?;
    let (mut fresh, resume_epoch) = attach_worker(spec, exe, handle.shard)?;
    fresh.resend_uncovered(resume_epoch, std::mem::take(&mut handle.replay))?;
    // Swap the replacement into the slot; the dead process's handles drop.
    std::mem::swap(handle, &mut fresh);
    Ok(())
}

/// One barrier round at `epoch`, for every barrier kind: sends
/// `Barrier { epoch, kind }` to every worker, then collects every ack and
/// checks that it carries a snapshot exactly when `kind` asks for one.
/// Checkpoint kinds also record the ack and trim each replay buffer to the
/// chunks the new checkpoint does not cover. Returns the cut at
/// `chunks_routed` (`processed` stream items), with the snapshots in shard
/// order — none for a plain [`BarrierKind::Checkpoint`].
///
/// `crash` is the coordinator-death fault hook: the process aborts with
/// every barrier in flight and zero acks collected, the widest crash
/// window.
fn barrier_round<U: IngestPayload>(
    workers: &mut [WorkerHandle<U>],
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
            worker.replay.retain(|&(tag, _)| tag >= epoch);
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
    use tps_streams::{Item, SignedUpdate};
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
    fn persist<U: IngestPayload>(&mut self, manifest: &Manifest<U>) -> io::Result<()> {
        self.seq += 1;
        let frame = self.writer.checkpoint_bytes(manifest.encode(), self.seq);
        self.store.append_frame(frame.bytes())?;
        if !frame.is_delta() {
            self.store.compact()?;
        }
        Ok(())
    }
}

fn persist_manifest<U: IngestPayload>(
    durability: &mut Durability,
    spec: &JobSpec,
    epoch: u64,
    chunks_routed: u64,
    workers: &[WorkerHandle<U>],
) -> io::Result<()> {
    let manifest = Manifest {
        spec: spec.clone(),
        epoch,
        chunks_routed,
        shards: workers
            .iter()
            .map(|worker| ShardState {
                acked_epoch: worker.acked_epoch,
                endpoint: worker.endpoint.clone(),
                replay: worker.replay.clone(),
            })
            .collect(),
    };
    durability.persist(&manifest)
}

/// The routed stream-prefix length at a chunk cut (the final chunk may
/// be short, so the product is clamped to the actual stream length).
fn routed_prefix(stream_len: usize, chunks_routed: u64, chunk: usize) -> u64 {
    (chunks_routed * chunk as u64).min(stream_len as u64)
}

/// The kind-generic job body: attach workers, route the stream,
/// checkpoint (manifest-before-barrier), inject faults, serve mid-ingest
/// queries, run the final query barrier, shut down. `resume` is the
/// newest manifest of the chain being resumed. Returns the final
/// consistent cut.
fn drive_job<U: IngestPayload>(
    spec: &JobSpec,
    stream: &[U],
    fault: &FaultPlan,
    query: &QueryPlan,
    resume: Option<&[u8]>,
) -> io::Result<Arc<PublishedCut>> {
    let exe = match &spec.worker_exe {
        Some(path) => path.clone(),
        None => std::env::current_exe()?,
    };
    std::fs::create_dir_all(&spec.checkpoint_dir)?;

    let store = CheckpointStore::for_coordinator(&spec.checkpoint_dir);
    let (mut durability, shard_states, start_epoch, start_chunks) = match resume {
        None => {
            if store.recover()?.is_some() {
                return Err(invalid(format!(
                    "coordinator chain {} already exists — resume the job or clear the directory",
                    store.path().display()
                )));
            }
            (
                Durability {
                    store,
                    writer: IncrementalCheckpointer::new(),
                    seq: 0,
                },
                None,
                0,
                0,
            )
        }
        Some(bytes) => {
            let manifest = Manifest::<U>::decode(bytes)
                .map_err(|e| invalid(format!("manifest does not decode: {e}")))?;
            let chain = store
                .recover()?
                .ok_or_else(|| invalid("no coordinator chain to resume from".into()))?;
            let seq = chain.epoch;
            (
                Durability {
                    store,
                    writer: IncrementalCheckpointer::resume(
                        chain.epoch,
                        chain.snapshot,
                        chain.deltas_since_base,
                    ),
                    seq,
                },
                Some(manifest.shards),
                manifest.epoch,
                manifest.chunks_routed,
            )
        }
    };

    let mut workers: Vec<WorkerHandle<U>> = Vec::with_capacity(spec.workers);
    match shard_states {
        None => {
            for shard in 0..spec.workers {
                let (handle, resume_epoch) = attach_worker(spec, &exe, shard)?;
                if resume_epoch != 0 {
                    return Err(invalid(format!(
                        "worker {shard} recovered epoch {resume_epoch} on a fresh job — \
                         stale checkpoint directory?"
                    )));
                }
                workers.push(handle);
            }
            // The job is durable from the first moment it could need
            // resuming: a manifest at the zero cut covers death before the
            // first checkpoint.
            persist_manifest(&mut durability, spec, 0, 0, &workers)?;
        }
        Some(states) => {
            if states.len() != spec.workers {
                return Err(invalid(format!(
                    "manifest records {} shards for a {}-worker job",
                    states.len(),
                    spec.workers
                )));
            }
            for (shard, state) in states.into_iter().enumerate() {
                let (mut handle, resume_epoch) =
                    reattach_worker(spec, &exe, shard, state.endpoint.as_ref())?;
                handle.resend_uncovered(resume_epoch, state.replay)?;
                workers.push(handle);
            }
        }
    }

    // The non-stalling query plane: a dedicated accept thread plus
    // detached handler threads serve clients from the published-cut
    // cache, so a wedged client can never hold up a barrier (`query.rs`).
    let plane = match &query.listen {
        Some(addr) => Some(QueryPlane::start(addr, spec.sampler, spec.seed)?),
        None => None,
    };

    let mut epoch = start_epoch; // last barrier epoch sent
    let mut chunks_routed = start_chunks;
    let mut kill_pending = fault.kill;
    for (index, chunk) in stream.chunks(spec.chunk).enumerate() {
        if (index as u64) < start_chunks {
            continue; // routed (and manifest-covered) before the resume cut
        }
        let mut routed: Vec<Vec<U>> = vec![Vec::new(); spec.workers];
        for &update in chunk {
            routed[hash_route(update.route_key(), spec.workers)].push(update);
        }
        for (worker, updates) in workers.iter_mut().zip(routed) {
            if updates.is_empty() {
                continue;
            }
            worker.send(&U::into_ingest(updates.clone()))?;
            worker.replay.push((epoch, updates));
        }
        chunks_routed += 1;
        let processed = routed_prefix(stream.len(), chunks_routed, spec.chunk);

        if let Some(kill) = kill_pending {
            if chunks_routed >= kill.after_chunks {
                if kill.shard >= spec.workers {
                    return Err(invalid(format!("no shard {} to kill", kill.shard)));
                }
                restart_worker(spec, &exe, &mut workers[kill.shard])?;
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
            // Durability order: the manifest recording this barrier's cut
            // is on disk before any worker is told to checkpoint.
            persist_manifest(&mut durability, spec, epoch, chunks_routed, &workers)?;
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
    let processed = stream.len() as u64;
    let cut = barrier_round(
        &mut workers,
        epoch,
        BarrierKind::Query,
        chunks_routed,
        processed,
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
/// generate the job's stream for its update type, drive the job (resuming
/// from `manifest` when given), merge the final cut.
fn execute(
    spec: &JobSpec,
    fault: &FaultPlan,
    query: &QueryPlan,
    manifest: Option<&[u8]>,
) -> io::Result<QueryReport> {
    spec.validate().map_err(invalid)?;
    let cut = if spec.sampler.is_turnstile() {
        let stream = job_signed_stream(spec.universe, spec.count, spec.seed);
        drive_job(spec, &stream, fault, query, manifest)?
    } else {
        let stream = job_stream(spec.universe, spec.count, spec.seed);
        drive_job(spec, &stream, fault, query, manifest)?
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
/// recorded spec that fails validation is an `InvalidData` error.
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
    let mut spec = peek_spec(&chain.snapshot)
        .map_err(|e| invalid(format!("manifest does not decode: {e}")))?;
    if let Some(exe) = worker_exe {
        spec.worker_exe = Some(exe);
    }
    // Chains move with their directory; trust the caller's location over
    // the recorded absolute path.
    spec.checkpoint_dir = checkpoint_dir.to_path_buf();
    execute(&spec, &FaultPlan::default(), query, Some(&chain.snapshot))
}

/// The single-process reference: an in-process sharded sampler over the
/// identical stream, queried once. Its report must equal the service's —
/// that equality is the distributed correctness gate.
pub fn run_reference(spec: &JobSpec) -> QueryReport {
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
    match spec.sampler {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceBuilder;

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
        let a = run_reference(&spec);
        let b = run_reference(&spec);
        assert_eq!(a, b);
        assert_eq!(a.processed, 30_000);
        let other = JobSpec { seed: 6, ..spec };
        assert_ne!(a.merged_fnv, run_reference(&other).merged_fnv);
    }

    /// `resume_job` validates the spec it decodes from the manifest chain
    /// exactly like `run_job` validates its argument: a well-formed chain
    /// recording zero workers or a zero chunk size is a typed
    /// `InvalidData` error, not a panic in the routing loop.
    #[test]
    fn resume_rejects_an_invalid_recorded_spec() {
        use crate::manifest::ShardState;
        use tps_streams::Item;

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
            ("chunk", JobSpec { chunk: 0, ..valid }),
        ];
        for (field, spec) in broken {
            let dir = std::env::temp_dir()
                .join(format!("tps-resume-invalid-{field}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let manifest = Manifest::<Item> {
                epoch: 0,
                chunks_routed: 0,
                shards: (0..spec.workers)
                    .map(|_| ShardState {
                        acked_epoch: 0,
                        endpoint: None,
                        replay: Vec::new(),
                    })
                    .collect(),
                spec,
            };
            let frame = IncrementalCheckpointer::new().checkpoint_bytes(manifest.encode(), 1);
            CheckpointStore::for_coordinator(&dir)
                .append_frame(frame.bytes())
                .unwrap();
            let err = resume_job(&dir, None, &QueryPlan::default()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{field}: {err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
