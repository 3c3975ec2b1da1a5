//! The persistent sharded runtime: long-lived worker threads behind
//! bounded command channels.
//!
//! PR 3's scatter-gather front-end ([`crate::sharded`]) paid two system
//! costs the samplers themselves never charge: every `update_batch` spawned
//! and joined `2k` scoped threads, and every query deep-cloned all `k`
//! shards before fold-merging (`O(total state)` on the query path, with
//! ingest stalled behind it). This module removes both:
//!
//! * **Persistent workers.** [`ShardPool::start`] pins each shard to one
//!   long-lived OS thread fed by a bounded `std::sync::mpsc::sync_channel`
//!   (the shard's *ring*) of coarse commands (`ShardCmd`): ingest chunks,
//!   epoch barriers, snapshot requests. Steady-state ingest pays one send
//!   per 32Ki-item chunk instead of a spawn/join per batch.
//! * **Snapshot-isolated queries.** A snapshot barrier makes every worker
//!   emit its shard's PR-4 codec snapshot *in-band* — after everything
//!   enqueued before the barrier, before anything after it — so the `k`
//!   byte records form a consistent cut of the stream. The coordinator
//!   restores and fold-merges them off the ingest path; by the pinned
//!   restore-then-merge ≡ in-process-merge law the answer is byte-identical
//!   to merging live clones, but ingest only stalls for the (cheap,
//!   per-shard) serialisation, never for the merge.
//! * **Backpressure policy.** When a ring is full the pool either blocks
//!   the caller ([`Backpressure::Block`]), spills the chunk to a
//!   coordinator-side queue retried later ([`Backpressure::Spill`]) — which
//!   keeps ingest calls non-blocking even while workers are busy
//!   snapshotting — or sheds it outright ([`Backpressure::Fail`]), keeping
//!   both latency and memory bounded at the cost of sampling only the
//!   admitted sub-stream. Every policy's pressure events are counted in
//!   [`RuntimeStats`] so front-ends can observe instead of flying blind.
//!
//! ## Ownership model
//!
//! Workers own their shards. [`ShardPool::start`] takes the shard samplers
//! by value and moves each one into its worker thread, which keeps it until
//! its ring closes; no other thread can reach it. The coordinator sees
//! shard state only through barrier snapshots: [`ShardPool::snapshot_all`]
//! returns every shard's sealed codec bytes at a consistent cut, and the
//! coordinator restores them into its own copies. Dropping the pool sends
//! every spilled chunk, closes every ring, lets each worker drain what is
//! already queued, and joins it; the shard states are dropped with their
//! workers. A worker panic is re-raised on the coordinator thread at the
//! next barrier (or at drop), never swallowed.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;
use std::time::Duration;

use tps_streams::codec::Snapshot;
use tps_streams::{Item, StreamUpdate, UpdateSampler};

/// What the sharded runtime does when a shard's ingest ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Block the caller until the worker drains a slot. Ingest throughput
    /// then tracks the slowest shard, but memory stays bounded by
    /// `capacity × chunk` per shard.
    #[default]
    Block,
    /// Never block: the caller keeps the chunk in a coordinator-side spill
    /// queue and retries on later calls (and drains it, blocking, before
    /// any barrier). Ingest calls stay non-blocking even while a worker is
    /// busy emitting a snapshot, at the cost of temporarily unbounded
    /// coordinator memory under sustained overload.
    Spill,
    /// Never block *and* never buffer: a chunk that finds its ring full is
    /// dropped on the floor (load shedding), counted in the runtime's
    /// stats. Both latency and memory stay bounded under overload; the
    /// price is that the sampler answers for the *admitted* sub-stream, so
    /// front-ends choosing this policy must watch the drop counters.
    Fail,
}

/// Tuning knobs for [`ShardPool::start`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// What to do when a shard's command ring is full.
    pub backpressure: Backpressure,
    /// Commands buffered per shard ring, exactly. Must be positive: a
    /// zero-capacity channel would hand every chunk over in rendezvous.
    pub ring_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            backpressure: Backpressure::Block,
            // 8 in-flight chunks per shard: enough to ride out scheduling
            // hiccups, small enough that Block-mode memory stays bounded.
            ring_capacity: 8,
        }
    }
}

/// Pressure and throughput counters for a [`ShardPool`] (cumulative over
/// the pool's lifetime, summed across shards). Cheap to read — plain
/// coordinator-side integers, no atomics, no barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Chunks accepted for delivery (pushed to a ring or parked for
    /// guaranteed later delivery). Excludes shed chunks.
    pub chunks: u64,
    /// Times an ingest call found a ring full and had to park
    /// ([`Backpressure::Block`] only).
    pub blocked: u64,
    /// Chunks that overflowed into the coordinator-side spill queue
    /// ([`Backpressure::Spill`] only; cumulative, not currently parked).
    pub spilled: u64,
    /// Chunks currently parked in spill queues awaiting retry.
    pub spilled_pending: usize,
    /// Chunks shed because their ring was full ([`Backpressure::Fail`]).
    pub dropped_chunks: u64,
    /// Items lost inside those shed chunks.
    pub dropped_items: u64,
    /// Snapshot barriers completed ([`ShardPool::snapshot_all`]) — each
    /// one is a consistent-cut query the pool served by serialising every
    /// shard in-band.
    pub snapshots: u64,
}

/// One command on a shard's ingest ring. Coarse by design: the ring is
/// crossed once per chunk, not once per update.
enum ShardCmd<U> {
    /// Feed a chunk of routed updates through the shard's batched ingest
    /// path. The buffer is recycled back to the coordinator once drained.
    Ingest(Vec<U>),
    /// Epoch barrier: acknowledge once everything enqueued earlier has been
    /// applied. With `snapshot` set, also emit the shard's sealed snapshot
    /// bytes at that point — the consistent-cut query mechanism.
    Barrier { epoch: u64, snapshot: bool },
}

/// Worker → coordinator responses (one shared `std::sync::mpsc` hub).
enum ShardReply<U> {
    /// A drained ingest buffer, cleared, for the coordinator to reuse.
    Recycled(Vec<U>),
    /// Barrier acknowledgement (with snapshot bytes if requested).
    Barrier {
        shard: usize,
        epoch: u64,
        snapshot: Option<Vec<u8>>,
    },
}

/// A pool of persistent shard workers (see the module docs).
///
/// Not generic over the sampler type: the type is erased into the worker
/// closures at [`ShardPool::start`], so coordinators can hold a `ShardPool`
/// without threading `S` through their own fields. It *is* generic over the
/// update type `U` moving through the rings — the sampler-family seam: the
/// same pool hosts insertion-only shards (`U = Item`, the default) and
/// turnstile shards (`U = SignedUpdate`) with identical transport,
/// backpressure and barrier machinery.
///
/// [`SignedUpdate`]: tps_streams::SignedUpdate
pub struct ShardPool<U: StreamUpdate = Item> {
    producers: Vec<SyncSender<ShardCmd<U>>>,
    handles: Vec<Option<JoinHandle<()>>>,
    replies: Receiver<ShardReply<U>>,
    /// Per-shard overflow queues ([`Backpressure::Spill`] only): chunks
    /// that found their ring full, in stream order, retried before any new
    /// chunk and drained (blocking) before any barrier.
    spill: Vec<VecDeque<Vec<U>>>,
    /// Cleared ingest buffers handed back by workers, reused by
    /// [`ShardPool::take_buffer`] so steady-state ingest allocates nothing.
    free: Vec<Vec<U>>,
    backpressure: Backpressure,
    epoch: u64,
    stats: RuntimeStats,
}

/// How long a barrier wait sleeps between liveness checks of the workers.
const BARRIER_POLL: Duration = Duration::from_millis(100);

impl<U: StreamUpdate> ShardPool<U> {
    /// Spawns one persistent worker per sampler in `shards` and wires each
    /// to a bounded command ring. Each worker owns its sampler from here
    /// on: the caller sees shard state only through the barrier snapshots
    /// of [`Self::snapshot_all`], which restore into copies.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or `config.ring_capacity == 0`.
    pub fn start<S>(shards: Vec<S>, config: RuntimeConfig) -> Self
    where
        S: UpdateSampler<U> + Snapshot + Send + 'static,
    {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(config.ring_capacity > 0, "ring_capacity must be positive");
        let (reply_tx, replies) = mpsc::channel::<ShardReply<U>>();
        let mut producers = Vec::with_capacity(shards.len());
        let mut handles = Vec::with_capacity(shards.len());
        for (index, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<ShardCmd<U>>(config.ring_capacity);
            let reply_tx = reply_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("tps-shard-{index}"))
                .spawn(move || worker_loop(shard, rx, index, reply_tx))
                .expect("spawn shard worker");
            producers.push(tx);
            handles.push(Some(handle));
        }
        Self {
            spill: vec![VecDeque::new(); producers.len()],
            free: Vec::new(),
            producers,
            handles,
            replies,
            backpressure: config.backpressure,
            epoch: 0,
            stats: RuntimeStats::default(),
        }
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.producers.len()
    }

    /// The configured backpressure policy.
    pub fn backpressure(&self) -> Backpressure {
        self.backpressure
    }

    /// Chunks currently parked in coordinator-side spill queues
    /// ([`Backpressure::Spill`] only).
    pub fn spilled_chunks(&self) -> usize {
        self.spill.iter().map(VecDeque::len).sum()
    }

    /// Cumulative pressure/throughput counters (see [`RuntimeStats`]).
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            spilled_pending: self.spilled_chunks(),
            ..self.stats
        }
    }

    /// A cleared, capacity-bearing ingest buffer — recycled from a worker
    /// when one is available, freshly allocated otherwise.
    pub fn take_buffer(&mut self) -> Vec<U> {
        if self.free.is_empty() {
            self.harvest_replies();
        }
        self.free.pop().unwrap_or_default()
    }

    /// Enqueues one routed chunk for `shard`, applying the backpressure
    /// policy. Order per shard is preserved even under spill: a new chunk
    /// never overtakes a previously spilled one.
    pub fn send(&mut self, shard: usize, chunk: Vec<U>) {
        if chunk.is_empty() {
            self.free.push(chunk);
            return;
        }
        match self.backpressure {
            Backpressure::Block => {
                // Fast path first so the parking events are observable.
                match self.producers[shard].try_send(ShardCmd::Ingest(chunk)) {
                    Ok(()) => self.stats.chunks += 1,
                    Err(TrySendError::Full(cmd)) => {
                        self.stats.blocked += 1;
                        if self.producers[shard].send(cmd).is_err() {
                            self.worker_died(shard);
                        }
                        self.stats.chunks += 1;
                    }
                    Err(TrySendError::Disconnected(_)) => self.worker_died(shard),
                }
            }
            Backpressure::Spill => {
                self.retry_spill(shard);
                self.stats.chunks += 1;
                if self.spill[shard].is_empty() {
                    match self.producers[shard].try_send(ShardCmd::Ingest(chunk)) {
                        Ok(()) => {}
                        Err(TrySendError::Full(cmd)) => {
                            let ShardCmd::Ingest(chunk) = cmd else {
                                unreachable!("spill path only pushes ingest commands")
                            };
                            self.stats.spilled += 1;
                            self.spill[shard].push_back(chunk);
                        }
                        Err(TrySendError::Disconnected(_)) => self.worker_died(shard),
                    }
                } else {
                    self.stats.spilled += 1;
                    self.spill[shard].push_back(chunk);
                }
            }
            Backpressure::Fail => {
                match self.producers[shard].try_send(ShardCmd::Ingest(chunk)) {
                    Ok(()) => self.stats.chunks += 1,
                    Err(TrySendError::Full(cmd)) => {
                        let ShardCmd::Ingest(mut chunk) = cmd else {
                            unreachable!("fail path only pushes ingest commands")
                        };
                        // Shed the chunk: count the loss, recycle the buffer.
                        self.stats.dropped_chunks += 1;
                        self.stats.dropped_items += chunk.len() as u64;
                        chunk.clear();
                        self.recycle(chunk);
                    }
                    Err(TrySendError::Disconnected(_)) => self.worker_died(shard),
                }
            }
        }
    }

    /// Non-blocking retry of `shard`'s spilled chunks, oldest first.
    fn retry_spill(&mut self, shard: usize) {
        while let Some(chunk) = self.spill[shard].pop_front() {
            match self.producers[shard].try_send(ShardCmd::Ingest(chunk)) {
                Ok(()) => {}
                Err(TrySendError::Full(cmd)) => {
                    let ShardCmd::Ingest(chunk) = cmd else {
                        unreachable!("spill path only pushes ingest commands")
                    };
                    self.spill[shard].push_front(chunk);
                    return;
                }
                Err(TrySendError::Disconnected(_)) => self.worker_died(shard),
            }
        }
    }

    /// Sends `shard`'s spilled chunks, oldest first, with blocking sends.
    /// Returns `false` if the shard's worker is gone.
    fn send_spilled(&mut self, shard: usize) -> bool {
        let ring = &self.producers[shard];
        self.spill[shard]
            .drain(..)
            .all(|chunk| ring.send(ShardCmd::Ingest(chunk)).is_ok())
    }

    /// Blocks until everything sent so far — including spilled chunks — has
    /// been applied by every worker.
    pub fn flush(&mut self) {
        let _ = self.barrier(false);
    }

    /// Consistent-cut query: blocks until every worker has applied its
    /// pending ingest and emitted its shard's snapshot at that point.
    /// Returns the `k` sealed snapshot byte records in shard order.
    pub fn snapshot_all(&mut self) -> Vec<Vec<u8>> {
        self.barrier(true)
            .into_iter()
            .map(|bytes| bytes.expect("snapshot barrier returns bytes for every shard"))
            .collect()
    }

    fn barrier(&mut self, snapshot: bool) -> Vec<Option<Vec<u8>>> {
        self.epoch += 1;
        if snapshot {
            self.stats.snapshots += 1;
        }
        let epoch = self.epoch;
        for shard in 0..self.producers.len() {
            // A barrier must sit after every chunk of the cut, so spilled
            // chunks are flushed first.
            if !self.send_spilled(shard)
                || self.producers[shard]
                    .send(ShardCmd::Barrier { epoch, snapshot })
                    .is_err()
            {
                self.worker_died(shard);
            }
        }
        let k = self.producers.len();
        let mut pending = k;
        let mut acked = vec![false; k];
        let mut out: Vec<Option<Vec<u8>>> = (0..k).map(|_| None).collect();
        while pending > 0 {
            match self.replies.recv_timeout(BARRIER_POLL) {
                Ok(ShardReply::Recycled(buffer)) => self.recycle(buffer),
                Ok(ShardReply::Barrier {
                    shard,
                    epoch: acked_epoch,
                    snapshot,
                }) => {
                    // Barriers are issued and awaited serially, so every
                    // ack we can see belongs to the current epoch.
                    debug_assert_eq!(acked_epoch, epoch, "barrier epochs must serialise");
                    debug_assert!(!acked[shard], "one ack per shard per barrier");
                    acked[shard] = true;
                    out[shard] = snapshot;
                    pending -= 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(dead) = (0..k).find(|&shard| {
                        !acked[shard]
                            && self.handles[shard]
                                .as_ref()
                                .is_some_and(JoinHandle::is_finished)
                    }) {
                        self.worker_died(dead);
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every worker holds a reply sender for its lifetime;
                    // all of them gone mid-barrier means they all died.
                    self.worker_died(0);
                }
            }
        }
        out
    }

    /// Drains any already-delivered replies without blocking (harvesting
    /// recycled buffers on the ingest path).
    fn harvest_replies(&mut self) {
        while let Ok(reply) = self.replies.try_recv() {
            match reply {
                ShardReply::Recycled(buffer) => self.recycle(buffer),
                ShardReply::Barrier { .. } => {
                    unreachable!("barrier acks are consumed by the issuing barrier")
                }
            }
        }
    }

    fn recycle(&mut self, buffer: Vec<U>) {
        // Bound the free list: beyond a few buffers per shard the extras
        // are dead capacity.
        if self.free.len() < 4 * self.producers.len() {
            self.free.push(buffer);
        }
    }

    /// A worker's ring disconnected or its thread finished early: the only
    /// cause is a panic in the shard's own update path. Join it and re-raise
    /// the payload on the coordinator thread.
    fn worker_died(&mut self, shard: usize) -> ! {
        if let Some(handle) = self.handles[shard].take() {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        panic!("shard worker {shard} exited before its pool shut down");
    }
}

impl<U: StreamUpdate> Drop for ShardPool<U> {
    fn drop(&mut self) {
        // Spilled chunks were admitted for guaranteed delivery, so they go
        // out before the close. A shard whose worker is gone is skipped:
        // the join below re-raises its panic.
        for shard in 0..self.producers.len() {
            self.send_spilled(shard);
        }
        // Closing the rings (dropping the producers) is the shutdown
        // signal: each worker drains what is already queued, then exits —
        // drop is a graceful drain, not an abort.
        self.producers.clear();
        let mut worker_panic = None;
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            if let Err(payload) = handle.join() {
                worker_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = worker_panic {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl<U: StreamUpdate> std::fmt::Debug for ShardPool<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("num_shards", &self.num_shards())
            .field("backpressure", &self.backpressure)
            .field("epoch", &self.epoch)
            .field("spilled_chunks", &self.spilled_chunks())
            .finish()
    }
}

/// The worker body: apply commands from the ring in order until the
/// coordinator closes it, acknowledging barriers and recycling buffers.
fn worker_loop<S, U>(
    mut sampler: S,
    commands: Receiver<ShardCmd<U>>,
    shard: usize,
    replies: mpsc::Sender<ShardReply<U>>,
) where
    S: UpdateSampler<U> + Snapshot + Send,
    U: StreamUpdate,
{
    while let Ok(cmd) = commands.recv() {
        match cmd {
            ShardCmd::Ingest(mut chunk) => {
                sampler.ingest_batch(&chunk);
                chunk.clear();
                let _ = replies.send(ShardReply::Recycled(chunk));
            }
            ShardCmd::Barrier { epoch, snapshot } => {
                let bytes = snapshot.then(|| sampler.snapshot());
                let _ = replies.send(ShardReply::Barrier {
                    shard,
                    epoch,
                    snapshot: bytes,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::TrulyPerfectLpSampler;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};
    use tps_streams::codec::Restore;
    use tps_streams::StreamSampler;

    fn samplers(k: usize, seed: u64) -> Vec<TrulyPerfectLpSampler> {
        (0..k as u64)
            .map(|j| TrulyPerfectLpSampler::new(2.0, 256, 0.1, seed ^ (j << 32)))
            .collect()
    }

    fn stream(len: usize) -> Vec<Item> {
        (0..len as u64)
            .map(|i| i.wrapping_mul(0x9E37) % 97)
            .collect()
    }

    /// Counts the items it applies. Its worker stops inside the first
    /// batch: the test's first wait on `gate` returns once the worker holds
    /// that batch, and the second lets it go on. Reports its count to
    /// `on_drop` when the worker drops its shard.
    struct GatedCounter {
        seen: u64,
        gate: Option<Arc<Barrier>>,
        on_drop: Arc<AtomicU64>,
    }
    impl StreamSampler for GatedCounter {
        fn update(&mut self, _item: Item) {
            self.seen += 1;
        }
        fn update_batch(&mut self, items: &[Item]) {
            if let Some(gate) = self.gate.take() {
                gate.wait();
                gate.wait();
            }
            self.seen += items.len() as u64;
        }
        fn sample(&mut self) -> tps_streams::SampleOutcome {
            tps_streams::SampleOutcome::Empty
        }
    }
    impl Snapshot for GatedCounter {
        const TAG: u16 = 0xFFFD;
        fn encode_into(&self, w: &mut tps_streams::SnapshotWriter) {
            w.put_tag(Self::TAG);
            w.put_u64(self.seen);
        }
    }
    impl Drop for GatedCounter {
        fn drop(&mut self) {
            self.on_drop.store(self.seen, Ordering::SeqCst);
        }
    }

    /// A one-shard pool on a [`GatedCounter`], with its gate and its drop
    /// report.
    fn gated_pool(config: RuntimeConfig) -> (ShardPool, Arc<Barrier>, Arc<AtomicU64>) {
        let gate = Arc::new(Barrier::new(2));
        let on_drop = Arc::new(AtomicU64::new(0));
        let shard = GatedCounter {
            seen: 0,
            gate: Some(Arc::clone(&gate)),
            on_drop: Arc::clone(&on_drop),
        };
        (ShardPool::start(vec![shard], config), gate, on_drop)
    }

    /// Round-robin chunks through the pool ≡ the same chunks applied
    /// directly: the pool adds routing-free transport, nothing else.
    #[test]
    fn pool_ingest_matches_direct_ingest() {
        for backpressure in [Backpressure::Block, Backpressure::Spill] {
            let mut direct = samplers(3, 9);
            let items = stream(30_000);
            let mut pool = ShardPool::start(
                samplers(3, 9),
                RuntimeConfig {
                    backpressure,
                    // Tiny ring so both policies hit their full-ring path.
                    ring_capacity: 2,
                },
            );
            for (index, chunk) in items.chunks(1_000).enumerate() {
                let shard = index % 3;
                let mut buffer = pool.take_buffer();
                buffer.extend_from_slice(chunk);
                pool.send(shard, buffer);
                direct[shard].update_batch(chunk);
            }
            let cut = pool.snapshot_all();
            assert_eq!(pool.spilled_chunks(), 0);
            for (bytes, b) in cut.iter().zip(&direct) {
                assert_eq!(bytes, &b.snapshot(), "{backpressure:?}");
            }
        }
    }

    /// The snapshot barrier is a consistent cut: bytes equal each shard's
    /// own snapshot at exactly the pre-barrier prefix, and ingest enqueued
    /// after the barrier is excluded from it but lands before the next.
    #[test]
    fn snapshot_barrier_cuts_between_chunks() {
        let mut reference = samplers(2, 4);
        let prefix = stream(8_000);
        let suffix: Vec<Item> = stream(8_000).into_iter().map(|x| x + 1).collect();
        let mut pool = ShardPool::start(samplers(2, 4), RuntimeConfig::default());
        for (j, half) in prefix.chunks(prefix.len() / 2).enumerate() {
            pool.send(j, half.to_vec());
        }
        let cut_bytes = pool.snapshot_all();
        for (j, half) in suffix.chunks(suffix.len() / 2).enumerate() {
            pool.send(j, half.to_vec());
        }
        let final_bytes = pool.snapshot_all();
        for (j, half) in prefix.chunks(prefix.len() / 2).enumerate() {
            reference[j].update_batch(half);
        }
        for (j, bytes) in cut_bytes.iter().enumerate() {
            assert_eq!(bytes, &reference[j].snapshot(), "shard {j} cut drifted");
            let restored = TrulyPerfectLpSampler::restore(bytes).unwrap();
            assert_eq!(restored.processed(), reference[j].processed());
        }
        for (j, half) in suffix.chunks(suffix.len() / 2).enumerate() {
            reference[j].update_batch(half);
            assert_eq!(final_bytes[j], reference[j].snapshot());
        }
    }

    /// Spill mode never blocks the sender: with a 2-slot ring and the
    /// worker held inside its first chunk, every further send succeeds by
    /// spilling, and the barrier drains everything in order.
    #[test]
    fn spill_mode_parks_overflow_and_flush_drains_it() {
        /// Holds its worker inside the first batch until `gate` opens.
        struct Gated {
            inner: TrulyPerfectLpSampler,
            gate: Option<mpsc::Receiver<()>>,
        }
        impl StreamSampler for Gated {
            fn update(&mut self, item: Item) {
                self.inner.update(item);
            }
            fn update_batch(&mut self, items: &[Item]) {
                if let Some(gate) = self.gate.take() {
                    let _ = gate.recv();
                }
                self.inner.update_batch(items);
            }
            fn sample(&mut self) -> tps_streams::SampleOutcome {
                self.inner.sample()
            }
        }
        impl Snapshot for Gated {
            const TAG: u16 = TrulyPerfectLpSampler::TAG;
            fn encode_into(&self, w: &mut tps_streams::SnapshotWriter) {
                self.inner.encode_into(w);
            }
        }
        let mut direct = samplers(1, 11);
        let items = stream(50_000);
        let (open, gate) = mpsc::channel();
        let gated = Gated {
            inner: samplers(1, 11).remove(0),
            gate: Some(gate),
        };
        let mut pool = ShardPool::start(
            vec![gated],
            RuntimeConfig {
                backpressure: Backpressure::Spill,
                ring_capacity: 2,
            },
        );
        for chunk in items.chunks(500) {
            pool.send(0, chunk.to_vec());
            direct[0].update_batch(chunk);
        }
        // The held worker has taken at most one chunk and the ring holds
        // two, so the other 97 of the 100 sends must have spilled.
        assert!(pool.spilled_chunks() >= 97, "spill path never exercised");
        open.send(()).unwrap();
        pool.flush();
        assert_eq!(pool.spilled_chunks(), 0);
        assert_eq!(pool.snapshot_all()[0], direct[0].snapshot());
    }

    /// Fail mode sheds chunks instead of blocking or buffering: against a
    /// deliberately slow worker behind a 2-slot ring, rapid sends drop some
    /// chunks, the counters account for every chunk and item, and the
    /// barrier still completes (barriers are never shed). Dropping the pool
    /// drains what is still queued before the worker drops its shard.
    #[test]
    fn fail_mode_sheds_chunks_and_counts_them() {
        struct SlowCounter {
            seen: u64,
            /// Receives `seen` when the worker drops its shard.
            on_drop: Arc<AtomicU64>,
        }
        impl StreamSampler for SlowCounter {
            fn update(&mut self, _item: Item) {
                self.seen += 1;
            }
            fn update_batch(&mut self, items: &[Item]) {
                std::thread::sleep(Duration::from_millis(20));
                self.seen += items.len() as u64;
            }
            fn sample(&mut self) -> tps_streams::SampleOutcome {
                tps_streams::SampleOutcome::Empty
            }
        }
        impl Snapshot for SlowCounter {
            const TAG: u16 = 0xFFFE;
            fn encode_into(&self, w: &mut tps_streams::SnapshotWriter) {
                w.put_tag(Self::TAG);
                w.put_u64(self.seen);
            }
        }
        impl Drop for SlowCounter {
            fn drop(&mut self) {
                self.on_drop.store(self.seen, Ordering::SeqCst);
            }
        }
        let counter = |seen| SlowCounter {
            seen,
            on_drop: Arc::default(),
        };
        let on_drop = Arc::new(AtomicU64::new(0));
        let mut pool = ShardPool::start(
            vec![SlowCounter {
                seen: 0,
                on_drop: Arc::clone(&on_drop),
            }],
            RuntimeConfig {
                backpressure: Backpressure::Fail,
                ring_capacity: 2,
            },
        );
        for _ in 0..24 {
            pool.send(0, vec![1, 2, 3]);
        }
        let cut = pool.snapshot_all();
        let stats = pool.stats();
        assert!(stats.dropped_chunks > 0, "fail path never shed a chunk");
        assert_eq!(stats.chunks + stats.dropped_chunks, 24);
        assert_eq!(stats.dropped_items, 3 * stats.dropped_chunks);
        assert_eq!(stats.spilled, 0);
        assert_eq!(stats.spilled_pending, 0);
        // Delivered chunks all landed; shed chunks never did.
        assert_eq!(cut[0], counter(3 * stats.chunks).snapshot());
        // No barrier after these: drop must drain the admitted ones.
        for _ in 0..8 {
            pool.send(0, vec![1, 2, 3]);
        }
        let delivered = pool.stats().chunks;
        drop(pool);
        assert_eq!(on_drop.load(Ordering::SeqCst), 3 * delivered);
    }

    #[test]
    fn worker_panic_surfaces_at_the_barrier() {
        struct Bomb;
        impl StreamSampler for Bomb {
            fn update(&mut self, _item: Item) {
                panic!("boom");
            }
            fn sample(&mut self) -> tps_streams::SampleOutcome {
                tps_streams::SampleOutcome::Empty
            }
        }
        impl Snapshot for Bomb {
            const TAG: u16 = 0xFFFF;
            fn encode_into(&self, w: &mut tps_streams::SnapshotWriter) {
                w.put_tag(Self::TAG);
            }
        }
        let result = std::panic::catch_unwind(|| {
            let mut pool = ShardPool::start(vec![Bomb], RuntimeConfig::default());
            pool.send(0, vec![1, 2, 3]);
            pool.flush();
        });
        let payload = result.expect_err("worker panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(message, "boom");
    }

    /// A ring holds exactly `ring_capacity` chunks: with the worker holding
    /// its first chunk, a Fail-mode pool admits three more into a 3-slot
    /// ring and sheds the other six.
    #[test]
    fn ring_capacity_is_exact() {
        let (mut pool, gate, on_drop) = gated_pool(RuntimeConfig {
            backpressure: Backpressure::Fail,
            ring_capacity: 3,
        });
        pool.send(0, vec![1, 2, 3]);
        gate.wait();
        for _ in 1..10 {
            pool.send(0, vec![1, 2, 3]);
        }
        let stats = pool.stats();
        gate.wait();
        drop(pool);
        assert_eq!(stats.chunks, 4);
        assert_eq!(stats.dropped_chunks, 10 - stats.chunks);
        assert_eq!(on_drop.load(Ordering::SeqCst), 3 * stats.chunks);
    }

    #[test]
    #[should_panic(expected = "ring_capacity must be positive")]
    fn zero_ring_capacity_is_rejected() {
        ShardPool::<Item>::start(
            samplers(1, 1),
            RuntimeConfig {
                backpressure: Backpressure::Block,
                ring_capacity: 0,
            },
        );
    }

    /// Spilled chunks count as admitted, so dropping a Spill-mode pool
    /// must deliver them before the worker drops its shard.
    #[test]
    fn spill_mode_drop_delivers_spilled_chunks() {
        let (mut pool, gate, on_drop) = gated_pool(RuntimeConfig {
            backpressure: Backpressure::Spill,
            ring_capacity: 2,
        });
        pool.send(0, vec![1, 2, 3]);
        gate.wait();
        for _ in 1..100 {
            pool.send(0, vec![1, 2, 3]);
        }
        let spilled = pool.spilled_chunks();
        gate.wait();
        drop(pool);
        assert_eq!(spilled, 97);
        assert_eq!(on_drop.load(Ordering::SeqCst), 300);
    }
}
