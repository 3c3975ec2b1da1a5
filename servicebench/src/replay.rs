//! In-process replay of one `tps-service` job through the layers' public
//! functions, for the traced run.
//!
//! Per chunk it does what the coordinator and its workers do, in the same
//! order and on the same bytes: route the chunk with `hash_route`, keep the
//! coordinator's replay buffer, encode and decode each shard's ingest frame
//! and apply it with the shard sampler's `ingest_batch`. At a checkpoint
//! barrier it builds and encodes the `Manifest`, deltas it and appends it
//! to a chain, then snapshots, deltas and appends every shard. At a query
//! barrier it snapshots every shard, restores and fold-merges. Transport
//! (pipe or TCP) is the one part it leaves out. The replay must end at the
//! service's `merged_fnv`, which is what makes its ledger trustworthy.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use tps_core::sharded::{hash_route, MERGE_SEED_SALT};
use tps_random::Xoshiro256;
use tps_service::manifest::{Manifest, ShardState};
use tps_service::{CheckpointStore, JobSpec, QueryReport};
use tps_streams::codec::checksum;
use tps_streams::codec::delta::{CheckpointFrame, IncrementalCheckpointer};
use tps_streams::wire::{decode_message, encode_message, BarrierKind, IngestPayload, WireMessage};
use tps_streams::{MergeableSampler, Restore, SampleOutcome, Snapshot, UpdateSampler};

use crate::trace::Tracer;

/// What to replay.
pub struct ReplayPlan {
    pub spec: JobSpec,
    /// Whether the service ran a query plane: checkpoint barriers then
    /// publish, so their acks also carry full snapshots.
    pub publish: bool,
    /// Chunk cuts at which the service ran a query barrier (observed from
    /// its query replies); the final barrier is always replayed.
    pub query_cuts: BTreeSet<u64>,
    /// A fresh directory for the replay's checkpoint chains.
    pub chain_dir: PathBuf,
}

/// Counts made at the layer boundaries, next to the spans.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub updates_applied: u64,
    pub wire_bytes: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    pub manifest_encodes: u64,
    pub manifest_bytes: u64,
    pub manifest_frames: u64,
    pub manifest_frame_bytes: u64,
    pub shard_frames: u64,
    pub shard_frame_bytes: u64,
    pub full_frames: u64,
    pub fsyncs: u64,
    pub merges: u64,
    /// Updates routed to each shard.
    pub routed: Vec<u64>,
}

impl Counters {
    pub fn count_routed<U>(&mut self, routed: &[Vec<U>]) {
        self.routed.resize(routed.len(), 0);
        for (total, shard) in self.routed.iter_mut().zip(routed) {
            *total += shard.len() as u64;
        }
    }

    /// Busiest shard's updates over the mean per shard (1 = balanced).
    pub fn route_skew(&self) -> f64 {
        let total: u64 = self.routed.iter().sum();
        let max = self.routed.iter().copied().max().unwrap_or(0);
        crate::stats::ratio(max as f64 * self.routed.len() as f64, total as f64)
    }
}

/// The replay's answer and its counts.
pub struct ReplayOutcome {
    pub wall_s: f64,
    pub report: QueryReport,
    /// Merged checksum at every replayed query cut.
    pub cut_fnvs: BTreeMap<u64, u64>,
    pub counters: Counters,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The spelling the coordinator's report line uses for a sample.
pub fn describe(outcome: SampleOutcome) -> String {
    match outcome {
        SampleOutcome::Index(i) => format!("index:{i}"),
        SampleOutcome::Empty => "empty".to_string(),
        SampleOutcome::Fail => "fail".to_string(),
    }
}

/// Restores per-shard snapshots and fold-merges them in shard order with
/// the merge coins `rng` — the recipe the query plane and an in-process
/// `ShardedSampler` share.
pub fn merge_snapshots<S>(snapshots: &[Vec<u8>], rng: &mut Xoshiro256) -> io::Result<S>
where
    S: MergeableSampler + Restore,
{
    let mut merged: Option<S> = None;
    for (index, bytes) in snapshots.iter().enumerate() {
        let shard = S::restore(bytes)
            .map_err(|e| invalid(format!("shard {index} snapshot does not restore: {e}")))?;
        merged = Some(match merged {
            None => shard,
            Some(acc) if acc.merge_compatible(&shard) => acc.merge(shard, rng),
            Some(_) => return Err(invalid("shard snapshots are not merge-compatible".into())),
        });
    }
    merged.ok_or_else(|| invalid("no shards to merge".into()))
}

/// One shard as the worker process holds it.
struct Shard<S, U> {
    sampler: S,
    checkpointer: IncrementalCheckpointer,
    store: CheckpointStore,
    /// The coordinator's replay buffer for this shard.
    replay: Vec<(u64, Vec<U>)>,
    acked_epoch: u64,
}

/// Encodes and decodes one message, as the sending and receiving ends do.
fn wire_trip(t: &mut Tracer, c: &mut Counters, msg: &WireMessage) -> io::Result<WireMessage> {
    let frame = t.span("wire.encode", |_| encode_message(msg));
    // Both transports prefix each frame with a u32 length.
    c.wire_bytes += frame.len() as u64 + 4;
    t.span("wire.decode", |_| decode_message(&frame))
        .map_err(|e| invalid(format!("frame does not decode: {e}")))
}

/// Appends a frame to a chain (fsync) and compacts it after a rebase.
fn append(
    t: &mut Tracer,
    c: &mut Counters,
    store: &CheckpointStore,
    frame: &CheckpointFrame,
) -> io::Result<()> {
    t.span("store.append", |_| store.append_frame(frame.bytes()))?;
    c.fsyncs += 1;
    if !frame.is_delta() {
        c.full_frames += 1;
        // A rewrite syncs the new file and its directory.
        if t.span("store.compact", |_| store.compact())? > 0 {
            c.fsyncs += 2;
        }
    }
    Ok(())
}

struct Durability {
    store: CheckpointStore,
    writer: IncrementalCheckpointer,
    seq: u64,
}

fn persist_manifest<S, U: IngestPayload>(
    t: &mut Tracer,
    c: &mut Counters,
    durability: &mut Durability,
    spec: &JobSpec,
    epoch: u64,
    chunks_routed: u64,
    shards: &[Shard<S, U>],
) -> io::Result<()> {
    durability.seq += 1;
    let bytes = t.span("manifest.encode", |_| {
        Manifest {
            spec: spec.clone(),
            epoch,
            chunks_routed,
            shards: shards
                .iter()
                .map(|shard| ShardState {
                    acked_epoch: shard.acked_epoch,
                    endpoint: None,
                    replay: shard.replay.clone(),
                })
                .collect(),
        }
        .encode()
    });
    c.manifest_encodes += 1;
    c.manifest_bytes += bytes.len() as u64;
    let seq = durability.seq;
    let frame = t.span("delta.manifest", |_| {
        durability.writer.checkpoint_bytes(bytes, seq)
    });
    c.manifest_frames += 1;
    c.manifest_frame_bytes += frame.bytes().len() as u64;
    append(t, c, &durability.store, &frame)
}

/// Runs a query barrier: every shard acks its full snapshot over the wire.
fn query_barrier<S, U>(
    t: &mut Tracer,
    c: &mut Counters,
    shards: &[Shard<S, U>],
    epoch: u64,
) -> io::Result<Vec<Vec<u8>>>
where
    S: Snapshot,
{
    let mut snapshots = Vec::with_capacity(shards.len());
    for (index, shard) in shards.iter().enumerate() {
        wire_trip(
            t,
            c,
            &WireMessage::Barrier {
                epoch,
                kind: BarrierKind::Query,
            },
        )?;
        let snapshot = t.span("codec.snapshot", |_| shard.sampler.snapshot());
        c.snapshots += 1;
        c.snapshot_bytes += snapshot.len() as u64;
        let ack = wire_trip(
            t,
            c,
            &WireMessage::BarrierAck {
                shard: index as u64,
                epoch,
                snapshot: Some(snapshot),
            },
        )?;
        match ack {
            WireMessage::BarrierAck {
                snapshot: Some(bytes),
                ..
            } => snapshots.push(bytes),
            other => return Err(invalid(format!("query ack decoded as {other:?}"))),
        }
    }
    Ok(snapshots)
}

/// Restore and fold-merge with fresh merge coins, as the query plane does
/// for every cut it serves.
fn merge_cut<S, U>(
    t: &mut Tracer,
    c: &mut Counters,
    snapshots: &[Vec<u8>],
    seed: u64,
    processed: u64,
) -> io::Result<QueryReport>
where
    S: MergeableSampler + UpdateSampler<U> + Snapshot + Restore,
    U: IngestPayload,
{
    c.merges += 1;
    t.span("merge", |_| {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ MERGE_SEED_SALT);
        let mut merged: S = merge_snapshots(snapshots, &mut rng)?;
        Ok(QueryReport {
            processed,
            merged_fnv: checksum(&merged.snapshot()),
            sample: describe(merged.draw()),
        })
    })
}

/// Replays the job described by `plan` over the stream `generate` makes,
/// with shards from `make(shard)`.
pub fn replay<S, U>(
    plan: &ReplayPlan,
    generate: impl FnOnce() -> Vec<U>,
    make: impl Fn(usize) -> S,
    t: &mut Tracer,
) -> io::Result<ReplayOutcome>
where
    S: MergeableSampler + UpdateSampler<U> + Snapshot + Restore,
    U: IngestPayload,
{
    let spec = &plan.spec;
    std::fs::create_dir_all(&plan.chain_dir)?;
    let started = Instant::now();
    let mut c = Counters::default();
    let mut cut_fnvs = BTreeMap::new();
    let report = t.span("replay", |t| -> io::Result<QueryReport> {
        let stream = t.span("gen", |_| generate());
        let mut shards: Vec<Shard<S, U>> = (0..spec.workers)
            .map(|index| Shard {
                sampler: make(index),
                checkpointer: IncrementalCheckpointer::new(),
                store: CheckpointStore::for_shard(&plan.chain_dir, index),
                replay: Vec::new(),
                acked_epoch: 0,
            })
            .collect();
        let mut durability = Durability {
            store: CheckpointStore::for_coordinator(&plan.chain_dir),
            writer: IncrementalCheckpointer::new(),
            seq: 0,
        };
        persist_manifest(t, &mut c, &mut durability, spec, 0, 0, &shards)?;

        let mut epoch = 0u64;
        let mut chunks_routed = 0u64;
        for (index, chunk) in stream.chunks(spec.chunk).enumerate() {
            t.set_chunk(index as u64 + 1);
            let routed = t.span("route", |_| {
                let mut routed: Vec<Vec<U>> = vec![Vec::new(); spec.workers];
                for &update in chunk {
                    routed[hash_route(update.route_key(), spec.workers)].push(update);
                }
                routed
            });
            c.count_routed(&routed);
            for (shard, updates) in shards.iter_mut().zip(routed) {
                if updates.is_empty() {
                    continue;
                }
                let message = t.span("replay_buffer", |_| {
                    let message = U::into_ingest(updates.clone());
                    shard.replay.push((epoch, updates));
                    message
                });
                let received = wire_trip(t, &mut c, &message)?;
                let updates = U::from_ingest(received)
                    .map_err(|other| invalid(format!("ingest decoded as {other:?}")))?;
                c.updates_applied += updates.len() as u64;
                t.span("engine.apply", |_| shard.sampler.ingest_batch(&updates));
            }
            chunks_routed += 1;

            if chunks_routed.is_multiple_of(spec.checkpoint_every) {
                epoch += 1;
                persist_manifest(
                    t,
                    &mut c,
                    &mut durability,
                    spec,
                    epoch,
                    chunks_routed,
                    &shards,
                )?;
                let kind = if plan.publish {
                    BarrierKind::CheckpointPublish
                } else {
                    BarrierKind::Checkpoint
                };
                for (index, shard) in shards.iter_mut().enumerate() {
                    wire_trip(t, &mut c, &WireMessage::Barrier { epoch, kind })?;
                    let full = t.span("codec.snapshot", |_| shard.sampler.snapshot());
                    c.snapshots += 1;
                    c.snapshot_bytes += full.len() as u64;
                    let frame = t.span("delta.shard", |_| {
                        shard.checkpointer.checkpoint_bytes(full, epoch)
                    });
                    c.shard_frames += 1;
                    c.shard_frame_bytes += frame.bytes().len() as u64;
                    append(t, &mut c, &shard.store, &frame)?;
                    let snapshot = plan.publish.then(|| {
                        c.snapshots += 1;
                        let bytes = t.span("codec.snapshot", |_| shard.sampler.snapshot());
                        c.snapshot_bytes += bytes.len() as u64;
                        bytes
                    });
                    wire_trip(
                        t,
                        &mut c,
                        &WireMessage::BarrierAck {
                            shard: index as u64,
                            epoch,
                            snapshot,
                        },
                    )?;
                    t.span("replay_buffer", |_| {
                        shard.replay.retain(|&(tag, _)| tag >= epoch)
                    });
                    shard.acked_epoch = epoch;
                }
            }

            if plan.query_cuts.contains(&chunks_routed) {
                epoch += 1;
                let snapshots = query_barrier(t, &mut c, &shards, epoch)?;
                let processed = (chunks_routed * spec.chunk as u64).min(stream.len() as u64);
                let answer = merge_cut::<S, U>(t, &mut c, &snapshots, spec.seed, processed)?;
                cut_fnvs.insert(chunks_routed, answer.merged_fnv);
            }
        }

        t.set_chunk(chunks_routed + 1);
        epoch += 1;
        let snapshots = query_barrier(t, &mut c, &shards, epoch)?;
        for _ in &shards {
            wire_trip(t, &mut c, &WireMessage::Shutdown)?;
        }
        let report = merge_cut::<S, U>(t, &mut c, &snapshots, spec.seed, stream.len() as u64)?;
        cut_fnvs.insert(chunks_routed, report.merged_fnv);
        Ok(report)
    })?;
    Ok(ReplayOutcome {
        wall_s: started.elapsed().as_secs_f64(),
        report,
        cut_fnvs,
        counters: c,
    })
}
