//! Scatter-gather sharding: parallel ingest across `k` sampler shards with
//! query-time merging.
//!
//! The samplers in this workspace are one-pass and oblivious to how the
//! stream is partitioned, so the single-core ingest ceiling is not a system
//! ceiling: [`ShardedSampler`] routes updates across `k` independent shard
//! instances, feeds each shard's amortised batch path through the
//! persistent worker pool of [`crate::runtime`] (one long-lived thread per
//! shard behind a bounded SPSC ring — no per-batch spawn/join), and answers
//! queries from snapshot-isolated cuts merged through the shards'
//! [`MergeableSampler`] implementation.
//!
//! ## Routing and exactness
//!
//! * [`ShardingStrategy::Hash`] (the default) routes every occurrence of an
//!   item to the same shard. Merged suffix counts are then exact, so the
//!   sharded sampler is **distributionally equivalent** to a single
//!   instance over the interleaved stream for *every* measure `G` (and for
//!   the `F_0` sampler, whose shards must share one seed so their pre-drawn
//!   subsets coincide — see `TrulyPerfectF0Sampler`'s merge docs).
//! * [`ShardingStrategy::RoundRobin`] balances load perfectly regardless of
//!   skew but splits an item's occurrences across shards; it is exact for
//!   constant-increment measures (`L_1`, where acceptance ignores suffix
//!   counts) and an approximation otherwise.
//!
//! ## Query semantics (snapshot isolation)
//!
//! While the runtime is live, [`StreamSampler::sample`] no longer clones
//! live shards. It enqueues a snapshot barrier: each worker emits its
//! shard's PR-4 codec snapshot in-band, so the `k` records form a
//! consistent cut (everything ingested before the query, nothing after).
//! The coordinator restores and fold-merges the records off the ingest
//! path; by the pinned restore-then-merge ≡ in-process-merge law the result
//! is byte-identical to the old clone-and-merge, but workers resume
//! ingesting as soon as their (cheap) serialisation is done instead of
//! stalling behind an `O(total state)` merge.
//!
//! On top of that, [`ShardedSampler::query`] is the typed front door over
//! [`ShardedSampler::merged`]: a
//! [`QueryConsistency::Consistent`] request forces the fresh fold-merge
//! above and publishes it into a [`CutCache`] — the same cut cache the
//! service's query plane serves from — while [`QueryConsistency::Cached`]
//! reuses the newest published fold-merge when it is within the caller's
//! staleness bound — no barrier, no merge, no waiting on ingest. Staleness
//! is measured in in-process *epochs* (one per ingest call); cache hits
//! and misses are counted in [`QueryCacheStats`].
//!
//! ## Construction and configuration
//!
//! The front door is [`ShardedSampler::builder`]: shard count, routing
//! strategy, seed, backpressure policy, parallel cutoff and runtime chunk
//! size as named setters, then [`ShardedSamplerBuilder::build`] with the
//! per-shard factory. Backpressure when a shard's ring fills: block the
//! caller, spill chunks to a coordinator-side queue so ingest calls never
//! block, or shed chunks outright ([`Backpressure::Fail`]) — with
//! [`ShardedSampler::runtime_stats`] exposing the blocked/spilled/dropped
//! counters either way.

use std::sync::{Arc, Mutex};

use crate::runtime::{RuntimeConfig, RuntimeStats, ShardPool};
use tps_random::{StreamRng, Xoshiro256};
use tps_streams::codec::{self, CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
use tps_streams::spsc::Backpressure;
use tps_streams::{
    CutCache, Item, MergeableSampler, QueryOptions, QuerySnapshot, SampleOutcome, SignedUpdate,
    SpaceUsage, StreamSampler, StreamUpdate, TurnstileSampler, UpdateSampler,
};

pub use tps_streams::QueryCacheStats;
#[cfg(doc)]
use tps_streams::QueryConsistency;

/// How [`ShardedSampler`] routes updates to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardingStrategy {
    /// Route by a fixed hash of the item: all occurrences of an item land
    /// on one shard, making merged suffix counts — and therefore the merged
    /// output distribution — exact for every measure.
    Hash,
    /// Route cyclically: perfect load balance under any skew, exact for
    /// constant-increment measures only.
    RoundRobin,
}

/// The splitmix64 finalizer: the same mixer the workspace's internal maps
/// hash with, used here to assign items to shards.
#[inline]
fn mix(item: Item) -> u64 {
    let mut z = item.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a mixed hash onto `[0, shards)` with Lemire's multiply-shift range
/// reduction — one widening multiply instead of the 64-bit division a `%`
/// would cost per scattered item.
#[inline]
fn route(hash: u64, shards: usize) -> usize {
    (((hash as u128) * (shards as u128)) >> 64) as usize
}

/// The shard index an item lands on under [`ShardingStrategy::Hash`] with
/// `shards` shards — the routing function itself, exposed so *external*
/// partitioners (e.g. a multi-process ingest service splitting one stream
/// across worker processes) route exactly like an in-process
/// [`ShardedSampler`] and the merged answers line up byte for byte.
#[inline]
pub fn hash_route(item: Item, shards: usize) -> usize {
    route(mix(item), shards)
}

/// Salt XORed into the builder seed to derive the query-time merge RNG.
/// Public for the same reason as [`hash_route`]: an external coordinator
/// that restores per-shard snapshots and fold-merges them in shard order
/// with `Xoshiro256::seed_from_u64(seed ^ MERGE_SEED_SALT)` reproduces an
/// in-process [`ShardedSampler`]'s first merged query byte for byte.
pub const MERGE_SEED_SALT: u64 = 0x5AAD_ED00;

/// Fold-merges shard samplers in shard order with merge coins from `rng`:
/// the one merge recipe behind [`ShardedSampler::merged`] and any external
/// coordinator that restores per-shard snapshots (seed `rng` as described
/// at [`MERGE_SEED_SALT`] to reproduce an in-process sampler's first
/// merged query byte for byte).
///
/// # Errors
///
/// [`IncompatibleShard`] when a shard fails
/// [`MergeableSampler::merge_compatible`] against the fold of the shards
/// before it.
///
/// # Panics
///
/// Panics if `shards` is empty.
pub fn fold_merge<S: MergeableSampler>(
    shards: impl IntoIterator<Item = S>,
    rng: &mut dyn StreamRng,
) -> Result<S, IncompatibleShard> {
    let mut shards = shards.into_iter();
    let mut merged = shards.next().expect("at least one shard");
    for (index, shard) in (1..).zip(shards) {
        if !merged.merge_compatible(&shard) {
            return Err(IncompatibleShard { index });
        }
        merged = merged.merge(shard, rng);
    }
    Ok(merged)
}

/// [`fold_merge`]'s error: shard `index` disagrees with the shards before
/// it on sampler configuration, so the two cannot merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncompatibleShard {
    /// The shard that failed the compatibility check.
    pub index: usize,
}

impl std::fmt::Display for IncompatibleShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} is not merge-compatible with the shards before it",
            self.index
        )
    }
}

impl std::error::Error for IncompatibleShard {}

/// Batches smaller than this many items *per shard* are scattered and
/// drained on the calling thread while the runtime is not yet live: below
/// it, the routed work is too small to be worth waking `k` workers for.
/// The sequential path is chunking-equivalent to the runtime one (same
/// routing, same per-shard order), so the cutoff is invisible to sampler
/// semantics. Once the first large batch has started the runtime, all
/// subsequent updates flow through it.
const PARALLEL_MIN_PER_SHARD: usize = 4_096;

/// Items staged per shard before a chunk is shipped to the shard's ring.
/// Coarse enough that ring crossings and reply traffic are amortised away,
/// fine enough that a batch pipelines across workers instead of arriving
/// as one monolith per shard.
const RUNTIME_CHUNK: usize = 32 * 1024;

/// Named-setter construction for [`ShardedSampler`] — the front door that
/// replaced the positional-argument constructor.
///
/// Every knob has a sensible default; only the shard count is mandatory:
///
/// ```
/// use tps_core::sharded::{ShardedSamplerBuilder, ShardingStrategy};
/// use tps_core::lp::TrulyPerfectLpSampler;
/// use tps_streams::spsc::Backpressure;
///
/// let sampler = ShardedSamplerBuilder::new(4)
///     .strategy(ShardingStrategy::Hash)
///     .seed(42)
///     .backpressure(Backpressure::Spill)
///     .build(|shard| TrulyPerfectLpSampler::new(2.0, 512, 0.1, 42 ^ ((shard as u64) << 32)));
/// assert_eq!(sampler.shard_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedSamplerBuilder {
    shards: usize,
    strategy: ShardingStrategy,
    seed: u64,
    backpressure: Backpressure,
    parallel_cutoff: usize,
    chunk_len: usize,
}

impl ShardedSamplerBuilder {
    /// Starts a builder for `shards` shard instances. Defaults:
    /// [`ShardingStrategy::Hash`], seed `0`, [`Backpressure::Block`],
    /// a 4096-item-per-shard parallel cutoff and 32Ki-item runtime chunks.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self {
            shards,
            strategy: ShardingStrategy::Hash,
            seed: 0,
            backpressure: Backpressure::Block,
            parallel_cutoff: PARALLEL_MIN_PER_SHARD,
            chunk_len: RUNTIME_CHUNK,
        }
    }

    /// Routing strategy (see [`ShardingStrategy`] for the exactness
    /// trade-off).
    pub fn strategy(mut self, strategy: ShardingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Seed for the query-time merge coins. Shard seeding stays with the
    /// factory passed to [`Self::build`], which decides whether shards draw
    /// independently (reservoirs) or share a seed (`F_0`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// What ingest does when a shard's ring is full: block, spill to a
    /// coordinator-side queue, or shed the chunk ([`Backpressure::Fail`]).
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.backpressure = policy;
        self
    }

    /// Per-shard batch size below which (pre-runtime) batches are scattered
    /// and drained on the calling thread instead of waking the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `items_per_shard == 0`.
    pub fn parallel_cutoff(mut self, items_per_shard: usize) -> Self {
        assert!(items_per_shard > 0, "parallel cutoff must be positive");
        self.parallel_cutoff = items_per_shard;
        self
    }

    /// Items staged per shard before a chunk ships to that shard's ring.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0`.
    pub fn chunk_len(mut self, items: usize) -> Self {
        assert!(items > 0, "runtime chunk length must be positive");
        self.chunk_len = items;
        self
    }

    /// Builds an insertion-only sampler, creating shard `idx` as
    /// `factory(idx)`. The factory decides seeding: independent seeds for
    /// the reservoir samplers; one shared seed for `F_0` shards (their
    /// merge requires identical pre-drawn subsets).
    pub fn build<S>(self, factory: impl FnMut(usize) -> S) -> ShardedSampler<S>
    where
        S: MergeableSampler + UpdateSampler<Item> + Clone + Send + Snapshot + Restore + 'static,
    {
        self.assemble(factory)
    }

    /// Builds a sharded *turnstile* sampler over shards that consume
    /// [`SignedUpdate`]s — same routing, staging, runtime and fold-merge
    /// plumbing as [`Self::build`], instantiated for the strict-turnstile
    /// update type. The factory must give every shard the same seed when
    /// the shard type's merge law requires identical pre-drawn structure
    /// (as `StrictTurnstileF0Sampler`'s does).
    pub fn build_turnstile<S>(
        self,
        factory: impl FnMut(usize) -> S,
    ) -> ShardedSampler<S, SignedUpdate>
    where
        S: MergeableSampler
            + UpdateSampler<SignedUpdate>
            + Clone
            + Send
            + Snapshot
            + Restore
            + 'static,
    {
        self.assemble(factory)
    }

    /// The update-type-generic constructor both `build` flavours share.
    fn assemble<S, U: StreamUpdate>(
        self,
        mut factory: impl FnMut(usize) -> S,
    ) -> ShardedSampler<S, U> {
        ShardedSampler {
            shards: Shards::Parked((0..self.shards).map(&mut factory).collect()),
            shard_count: self.shards,
            strategy: self.strategy,
            cursor: 0,
            scratch: Vec::new(),
            rng: Xoshiro256::seed_from_u64(self.seed ^ MERGE_SEED_SALT),
            processed: 0,
            backpressure: self.backpressure,
            parallel_cutoff: self.parallel_cutoff,
            chunk_len: self.chunk_len,
            epoch: 0,
            cache: CutCache::default(),
        }
    }
}

/// Where the shard states live.
enum Shards<S, U: StreamUpdate> {
    /// Before the runtime starts, the coordinator owns every shard.
    Parked(Vec<S>),
    /// Once it has started, each worker owns its shard, and the coordinator
    /// reads shard state only through snapshot barriers. Behind a `Mutex`
    /// so `&self` readers can issue a barrier.
    Live(Mutex<RuntimeState<U>>),
}

/// Why the runtime lock can be poisoned: a barrier re-raises a worker's
/// panic on the coordinator thread while the lock is held.
const POISONED: &str = "an earlier shard worker panic poisoned the runtime lock";

/// The live half of the runtime: the worker pool plus the per-shard
/// staging buffers of routed-but-unshipped items.
struct RuntimeState<U: StreamUpdate> {
    pool: ShardPool<U>,
    staging: Vec<Vec<U>>,
}

impl<U: StreamUpdate> RuntimeState<U> {
    /// Ships every non-empty staging buffer to its ring (order-preserving:
    /// staged items were routed after everything already shipped).
    fn ship_staged(&mut self) {
        for (shard, buffer) in self.staging.iter_mut().enumerate() {
            if !buffer.is_empty() {
                let chunk = std::mem::take(buffer);
                self.pool.send(shard, chunk);
            }
        }
    }
}

/// A scatter-gather front-end over `k` shard instances of a mergeable
/// sampler (see the module docs).
///
/// Generic over the update type `U`: `ShardedSampler<S>` (the default,
/// `U = Item`) hosts insertion-only shards and implements
/// [`StreamSampler`]; `ShardedSampler<S, SignedUpdate>` (built with
/// [`ShardedSamplerBuilder::build_turnstile`]) hosts strict-turnstile
/// shards and implements [`TurnstileSampler`]. The routing, staging,
/// worker-pool and fold-merge plumbing is written once against
/// [`StreamUpdate`]/[`UpdateSampler`] and shared by both instantiations.
pub struct ShardedSampler<S, U: StreamUpdate = Item> {
    shards: Shards<S, U>,
    /// Fixed at build time; kept outside `shards` so per-item routing
    /// helpers never take the runtime lock.
    shard_count: usize,
    strategy: ShardingStrategy,
    /// Round-robin cursor: the shard the next update is routed to.
    cursor: usize,
    /// Transient per-shard scatter buffers for the sequential (pre-runtime)
    /// batch path; never holds data across calls and never serialised.
    scratch: Vec<Vec<U>>,
    /// Coins for the query-time merge draws.
    rng: Xoshiro256,
    processed: u64,
    /// Policy applied when the runtime starts. Serialised since format
    /// v2, so a restored sampler keeps the policy it was built with.
    backpressure: Backpressure,
    /// Per-shard batch size below which (pre-runtime) batches take the
    /// sequential path. Serialised since format v2.
    parallel_cutoff: usize,
    /// Items staged per shard before a chunk ships to its ring.
    /// Serialised since format v2.
    chunk_len: usize,
    /// Ingest generation counter (one per [`Self::ingest`] /
    /// [`Self::ingest_batch`] call): the staleness clock of the query
    /// cache. Transient — never serialised, so a restored sampler starts
    /// at epoch 0 just like it starts with a cold runtime.
    epoch: u64,
    /// The newest consistent fold-merge, reused by cached queries, and
    /// the hit/miss counts. Transient for the same reason as the runtime:
    /// operational state, not logical state.
    cache: CutCache<S>,
}

impl<S, U> ShardedSampler<S, U>
where
    S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
    U: StreamUpdate,
{
    /// Starts configuring a sharded sampler over `shards` shard instances
    /// (see [`ShardedSamplerBuilder`] for the knobs and their defaults).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn builder(shards: usize) -> ShardedSamplerBuilder {
        ShardedSamplerBuilder::new(shards)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Number of updates processed across all shards (counted at routing
    /// time, so it includes staged and in-flight items).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The routing strategy.
    pub fn strategy(&self) -> ShardingStrategy {
        self.strategy
    }

    /// The backpressure policy the runtime (will) run with.
    pub fn backpressure(&self) -> Backpressure {
        self.backpressure
    }

    /// Configures what ingest does when a shard's ring is full. Must be
    /// called before the runtime starts (i.e. before the first batch large
    /// enough to cross the parallel cutoff).
    ///
    /// # Panics
    ///
    /// Panics if the worker pool is already running.
    pub fn set_backpressure(&mut self, policy: Backpressure) {
        assert!(
            !self.runtime_active(),
            "set the backpressure policy before the runtime starts"
        );
        self.backpressure = policy;
    }

    /// Whether the persistent worker pool is live.
    pub fn runtime_active(&self) -> bool {
        matches!(self.shards, Shards::Live(_))
    }

    /// The per-shard parallel cutoff (items per shard below which a
    /// pre-runtime batch stays on the calling thread).
    pub fn parallel_cutoff(&self) -> usize {
        self.parallel_cutoff
    }

    /// The runtime chunk length (items staged per shard before a chunk
    /// ships to its ring).
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Cumulative pressure/throughput counters of the live runtime —
    /// chunks delivered, ingest calls that blocked, chunks spilled or shed
    /// (see [`RuntimeStats`]). All zeros while the worker pool has not
    /// started; reset when it restarts (clone, restore).
    pub fn runtime_stats(&self) -> RuntimeStats {
        match &self.shards {
            Shards::Live(runtime) => runtime.lock().expect(POISONED).pool.stats(),
            Shards::Parked(_) => RuntimeStats::default(),
        }
    }

    /// Blocks until every routed update has been applied to its shard
    /// (no-op while the runtime is not live).
    pub fn flush(&mut self) {
        if let Shards::Live(runtime) = &mut self.shards {
            let state = runtime.get_mut().expect(POISONED);
            state.ship_staged();
            state.pool.flush();
        }
    }

    /// A copy of one shard's state (diagnostics and tests), including every
    /// update routed so far. While the runtime is live, the copy is
    /// restored from a snapshot barrier: the worker keeps the shard itself.
    pub fn shard(&self, idx: usize) -> S {
        self.shard_states().swap_remove(idx)
    }

    /// The shard index an item is routed to under [`ShardingStrategy::Hash`].
    #[inline]
    pub fn hash_shard_of(&self, item: Item) -> usize {
        route(mix(item), self.shard_count())
    }

    /// Owned copies of every shard's state in shard order, covering every
    /// update routed so far: clones while parked, restored barrier
    /// snapshots while live. The one path every `&self` reader of shard
    /// state goes through.
    fn shard_states(&self) -> Vec<S> {
        match &self.shards {
            Shards::Parked(shards) => shards.clone(),
            Shards::Live(runtime) => {
                let mut state = runtime.lock().expect(POISONED);
                state.ship_staged();
                state
                    .pool
                    .snapshot_all()
                    .iter()
                    .map(|bytes| S::restore(bytes).expect("a worker-emitted snapshot restores"))
                    .collect()
            }
        }
    }

    /// Routes `updates` into the live runtime's staging buffers, shipping
    /// each buffer as it reaches [`RUNTIME_CHUNK`]. Per-shard update order
    /// is exactly the loop order, so the engines' batch ≡ loop law carries
    /// over chunk boundaries unchanged.
    fn scatter_to_runtime(&mut self, updates: &[U]) {
        let k = self.shard_count;
        let strategy = self.strategy;
        let chunk_len = self.chunk_len;
        let mut cursor = self.cursor;
        let Shards::Live(runtime) = &mut self.shards else {
            unreachable!("runtime is live")
        };
        let state = runtime.get_mut().expect(POISONED);
        for &update in updates {
            let shard = match strategy {
                ShardingStrategy::Hash => route(mix(update.route_key()), k),
                ShardingStrategy::RoundRobin => {
                    let shard = cursor;
                    cursor += 1;
                    if cursor == k {
                        cursor = 0;
                    }
                    shard
                }
            };
            let buffer = &mut state.staging[shard];
            buffer.push(update);
            if buffer.len() >= chunk_len {
                let mut fresh = state.pool.take_buffer();
                std::mem::swap(buffer, &mut fresh);
                state.pool.send(shard, fresh);
            }
        }
        self.cursor = cursor;
    }

    /// Routes one update to its shard — the kind-generic ingest surface
    /// both stream-model trait impls (and generic callers like the ingest
    /// service's reference run) delegate to.
    pub fn ingest(&mut self, update: U) {
        self.processed += 1;
        self.epoch += 1;
        let Shards::Parked(shards) = &mut self.shards else {
            self.scatter_to_runtime(std::slice::from_ref(&update));
            return;
        };
        let shard = match self.strategy {
            ShardingStrategy::Hash => route(mix(update.route_key()), self.shard_count),
            ShardingStrategy::RoundRobin => {
                let shard = self.cursor;
                self.cursor = (self.cursor + 1) % self.shard_count;
                shard
            }
        };
        shards[shard].ingest(update);
    }

    /// Routes a batch of updates: scatter, then either ship to the runtime
    /// or drain sequentially (see the `update_batch` docs on the
    /// [`StreamSampler`] impl). Kind-generic twin of [`Self::ingest`].
    pub fn ingest_batch(&mut self, updates: &[U]) {
        self.processed += updates.len() as u64;
        if updates.is_empty() {
            return;
        }
        self.epoch += 1;
        let Shards::Parked(shards) = &mut self.shards else {
            self.scatter_to_runtime(updates);
            return;
        };
        let k = self.shard_count;
        if k == 1 {
            shards[0].ingest_batch(updates);
            return;
        }
        if updates.len() >= k * self.parallel_cutoff {
            // The workers take the shards over from here on.
            let pool = ShardPool::start(
                std::mem::take(shards),
                RuntimeConfig {
                    backpressure: self.backpressure,
                    ..RuntimeConfig::default()
                },
            );
            self.shards = Shards::Live(Mutex::new(RuntimeState {
                pool,
                staging: vec![Vec::new(); k],
            }));
            self.scatter_to_runtime(updates);
            return;
        }
        // Sequential small-batch path: scatter on the calling thread, then
        // drain each shard's sub-batch in stream order. The scratch matrix
        // is transient state, sized lazily so restoring a snapshot never
        // allocates it up front.
        if self.scratch.len() != k {
            self.scratch = vec![Vec::new(); k];
        }
        for buffer in &mut self.scratch {
            buffer.clear();
        }
        let cursor = self.cursor;
        scatter_chunk(updates, &mut self.scratch, self.strategy, cursor);
        if self.strategy == ShardingStrategy::RoundRobin {
            self.cursor = (cursor + updates.len()) % k;
        }
        for (shard, buffer) in shards.iter_mut().zip(&self.scratch) {
            if !buffer.is_empty() {
                shard.ingest_batch(buffer);
            }
        }
    }

    /// Builds a merged sampler answering for the combined stream of all
    /// shards: fold-merges the shard states (restored from a consistent-cut
    /// snapshot barrier while the runtime is live, so the shards keep
    /// ingesting in the meantime) with [`fold_merge`]. Merge coins come
    /// from the front-end's own RNG, so repeated queries draw independent
    /// merged states.
    pub fn merged(&mut self) -> S {
        fold_merge(self.shard_states(), &mut self.rng)
            .expect("shards built by one factory are merge-compatible")
    }

    /// The ingest generation this sampler is at: one epoch per
    /// [`Self::ingest`] / [`Self::ingest_batch`] call. This is the clock
    /// [`QueryConsistency::Cached`]'s staleness bound is measured against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Hit/miss counters of the query cache (see [`QueryCacheStats`]).
    pub fn query_cache_stats(&self) -> QueryCacheStats {
        self.cache.stats()
    }

    /// The typed query surface over [`Self::merged`] — the in-process
    /// twin of the service's query plane.
    ///
    /// A [`QueryConsistency::Consistent`] request behaves exactly like
    /// [`Self::merged`] (same fold-merge, same merge coins — the two are
    /// byte-identical) and additionally republishes the result into the
    /// query cache. A [`QueryConsistency::Cached`] request is answered
    /// from that cache when the cache's epoch is at most
    /// `max_epochs_stale` ingest calls behind [`Self::epoch`] — without
    /// touching the shards, the runtime, or the merge coins — and
    /// escalates to the consistent path otherwise. Cached answers are
    /// clones of one published merge, so repeated cached queries return
    /// byte-identical samplers.
    pub fn query(&mut self, options: &QueryOptions) -> QuerySnapshot<S> {
        if let Some(hit) = self.cache.lookup(options, self.epoch) {
            return hit.map(|value| S::clone(&value));
        }
        self.cache.record_miss();
        let value = self.merged();
        let (epoch, cut) = (self.epoch, self.processed);
        self.cache.publish(epoch, cut, Arc::new(value.clone()));
        QuerySnapshot {
            value,
            epoch,
            cut,
            cached: false,
        }
    }
}

/// Scatters one chunk into `k` per-shard buffers. `base` is the chunk's
/// global offset within the batch (plus the round-robin cursor), so cyclic
/// routing reproduces the per-update loop's assignment exactly.
fn scatter_chunk<U: StreamUpdate>(
    chunk: &[U],
    buffers: &mut [Vec<U>],
    strategy: ShardingStrategy,
    base: usize,
) {
    let k = buffers.len();
    // Pre-size for a balanced split plus 50% skew headroom, so growth
    // reallocations stay off the scatter path.
    let hint = chunk.len() / k + chunk.len() / (2 * k) + 8;
    for buffer in buffers.iter_mut() {
        buffer.reserve(hint);
    }
    match strategy {
        ShardingStrategy::Hash => {
            for &update in chunk {
                buffers[route(mix(update.route_key()), k)].push(update);
            }
        }
        ShardingStrategy::RoundRobin => {
            for (offset, &update) in chunk.iter().enumerate() {
                buffers[(base + offset) % k].push(update);
            }
        }
    }
}

impl<S> StreamSampler for ShardedSampler<S>
where
    S: MergeableSampler + UpdateSampler<Item> + Clone + Send + Snapshot + Restore + 'static,
{
    fn update(&mut self, item: Item) {
        self.ingest(item);
    }

    /// The persistent-runtime ingest path.
    ///
    /// While the worker pool is live (or once this batch is large enough —
    /// the configured [`parallel_cutoff`](ShardedSampler::parallel_cutoff)
    /// items per shard — to start it), the coordinator routes items into
    /// per-shard staging buffers and ships each as a
    /// [`chunk_len`](ShardedSampler::chunk_len)-sized chunk onto that
    /// shard's SPSC ring;
    /// workers drain their rings through the engines' amortised
    /// `update_batch`. The call returns as soon as the batch is enqueued —
    /// chunks pipeline across shards with no spawn/join and no barrier per
    /// batch. Use [`ShardedSampler::flush`] (or any query/snapshot) for a
    /// completion barrier.
    ///
    /// Routing is deterministic (hash of the item, or the round-robin
    /// cursor), each shard owns a private RNG, and the engines'
    /// batch ≡ loop law makes multi-chunk draining chunking-invariant — so
    /// sharded batch ingestion ≡ sharded per-item ingestion regardless of
    /// how chunks land on worker threads. Batches below the cutoff (before
    /// the runtime has started) take an equivalent scatter-and-drain path
    /// on the calling thread.
    fn update_batch(&mut self, items: &[Item]) {
        self.ingest_batch(items);
    }

    /// Merges the shards — from snapshot-isolated cuts while the runtime is
    /// live — and queries the merged instance.
    fn sample(&mut self) -> SampleOutcome {
        self.merged().draw()
    }
}

impl<S> TurnstileSampler for ShardedSampler<S, SignedUpdate>
where
    S: MergeableSampler + UpdateSampler<SignedUpdate> + Clone + Send + Snapshot + Restore + 'static,
{
    fn update(&mut self, update: SignedUpdate) {
        self.ingest(update);
    }

    /// Same routed ingest path as the insertion-only impl, over signed
    /// updates: an update is routed by its *coordinate*
    /// ([`StreamUpdate::route_key`]), so under [`ShardingStrategy::Hash`]
    /// every update touching an item lands on one shard and merged
    /// frequencies are exact. For shard types whose merge is linear in the
    /// update stream (the turnstile `F_0` sampler), round-robin routing is
    /// exact too.
    fn update_batch(&mut self, updates: &[SignedUpdate]) {
        self.ingest_batch(updates);
    }

    /// Merges the shards — from snapshot-isolated cuts while the runtime is
    /// live — and queries the merged instance.
    fn sample(&mut self) -> SampleOutcome {
        self.merged().draw()
    }
}

impl<S, U> Clone for ShardedSampler<S, U>
where
    S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
    U: StreamUpdate,
{
    /// Clones the coordinator state and copies of the shard states (see
    /// [`ShardedSampler::shard`]). The clone starts without a live runtime
    /// and with a cold query cache; its pool starts lazily at its first
    /// large batch.
    fn clone(&self) -> Self {
        Self {
            shards: Shards::Parked(self.shard_states()),
            shard_count: self.shard_count,
            strategy: self.strategy,
            cursor: self.cursor,
            scratch: Vec::new(),
            rng: self.rng.clone(),
            processed: self.processed,
            backpressure: self.backpressure,
            parallel_cutoff: self.parallel_cutoff,
            chunk_len: self.chunk_len,
            epoch: self.epoch,
            cache: CutCache::default(),
        }
    }
}

impl<S, U> std::fmt::Debug for ShardedSampler<S, U>
where
    S: MergeableSampler
        + UpdateSampler<U>
        + Clone
        + Send
        + Snapshot
        + Restore
        + 'static
        + std::fmt::Debug,
    U: StreamUpdate,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSampler")
            .field("strategy", &self.strategy)
            .field("cursor", &self.cursor)
            .field("processed", &self.processed)
            .field("epoch", &self.epoch)
            .field("backpressure", &self.backpressure)
            .field("runtime_active", &self.runtime_active())
            .field("cached_query", &self.cache.newest_epoch().is_some())
            .field("shards", &self.shard_states())
            .finish()
    }
}

/// Wire format (v2): the router configuration (strategy, then — new in
/// format version 2 — the backpressure policy, parallel cutoff and runtime
/// chunk length, then round-robin cursor, processed count, merge-coin RNG
/// position) followed by each shard's own snapshot. Worker-pool state is
/// operational, not logical: encoding ships only the shard states (read
/// through a snapshot barrier while the pool is live), and a restored sampler starts with a cold runtime — but,
/// since v2, with the ingest configuration it was built with rather than
/// the defaults (v1 snapshots migrate with the frozen v1 defaults spliced
/// in; see `tps_streams::codec::migrate`).
///
/// Because each shard is itself a complete snapshot of a mergeable
/// sampler, the per-shard records can also be shipped to *different*
/// processes and recombined there through [`MergeableSampler`] —
/// restore-then-merge is both the cross-machine scatter-gather path and
/// what the runtime's own snapshot-isolated queries replay in-process.
impl<S, U> Snapshot for ShardedSampler<S, U>
where
    S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
    U: StreamUpdate,
{
    const TAG: u16 = codec::tag::SHARDED_SAMPLER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        let shards = self.shard_states();
        w.put_tag(Self::TAG);
        w.put_u8(match self.strategy {
            ShardingStrategy::Hash => 0,
            ShardingStrategy::RoundRobin => 1,
        });
        w.put_u8(match self.backpressure {
            Backpressure::Block => 0,
            Backpressure::Spill => 1,
            Backpressure::Fail => 2,
        });
        w.put_usize(self.parallel_cutoff);
        w.put_usize(self.chunk_len);
        w.put_usize(self.cursor);
        w.put_u64(self.processed);
        self.rng.encode_into(w);
        w.put_len(shards.len());
        for shard in &shards {
            shard.encode_into(w);
        }
    }
}

impl<S, U> Restore for ShardedSampler<S, U>
where
    S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
    U: StreamUpdate,
{
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let strategy = match r.get_u8()? {
            0 => ShardingStrategy::Hash,
            1 => ShardingStrategy::RoundRobin,
            _ => {
                return Err(CodecError::InvalidValue {
                    what: "sharding strategy flag must be 0 or 1",
                })
            }
        };
        let backpressure = match r.get_u8()? {
            0 => Backpressure::Block,
            1 => Backpressure::Spill,
            2 => Backpressure::Fail,
            _ => {
                return Err(CodecError::InvalidValue {
                    what: "backpressure flag must be 0, 1 or 2",
                })
            }
        };
        let parallel_cutoff = r.get_usize()?;
        let chunk_len = r.get_usize()?;
        if parallel_cutoff == 0 || chunk_len == 0 {
            return Err(CodecError::InvalidValue {
                what: "parallel cutoff and chunk length must be positive",
            });
        }
        let cursor = r.get_usize()?;
        let processed = r.get_u64()?;
        let rng = Xoshiro256::decode_from(r)?;
        let count = r.get_len(1)?;
        // Shard counts track core counts; the cap leaves an order of
        // magnitude beyond any real host while keeping a hostile length
        // from driving the per-shard decode loop.
        const MAX_SHARDS: usize = 1 << 10;
        if count == 0 || count > MAX_SHARDS {
            return Err(CodecError::InvalidValue {
                what: "shard count out of range",
            });
        }
        if cursor >= count {
            return Err(CodecError::InvalidValue {
                what: "round-robin cursor outside the shard range",
            });
        }
        let mut shards: Vec<S> = Vec::with_capacity(count);
        for _ in 0..count {
            let shard = S::decode_from(r)?;
            // Individually valid shards can still disagree on configuration
            // (exponent, instance count, pre-drawn subsets); the query-time
            // fold-merge asserts on that, so reject it here as a typed
            // error instead of letting restored state panic at the first
            // sample.
            if shards
                .first()
                .is_some_and(|first| !first.merge_compatible(&shard))
            {
                return Err(CodecError::InvalidValue {
                    what: "shards disagree on sampler configuration",
                });
            }
            shards.push(shard);
        }
        Ok(Self {
            shards: Shards::Parked(shards),
            shard_count: count,
            strategy,
            cursor,
            // Sized lazily by the first sequential batch — never inside
            // the decoder.
            scratch: Vec::new(),
            rng,
            processed,
            backpressure,
            parallel_cutoff,
            chunk_len,
            // Like the runtime: operational state restarts cold.
            epoch: 0,
            cache: CutCache::default(),
        })
    }
}

impl<S, U> SpaceUsage for ShardedSampler<S, U>
where
    S: MergeableSampler
        + UpdateSampler<U>
        + Clone
        + Send
        + Snapshot
        + Restore
        + 'static
        + SpaceUsage,
    U: StreamUpdate,
{
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .shard_states()
                .iter()
                .map(SpaceUsage::space_bytes)
                .sum::<usize>()
            + self
                .scratch
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<U>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::TrulyPerfectLpSampler;

    fn zipfish_stream(len: usize, universe: u64) -> Vec<Item> {
        (0..len as u64)
            .map(|i| {
                let z = mix(i);
                if z.is_multiple_of(3) {
                    z % 5
                } else {
                    z % universe
                }
            })
            .collect()
    }

    fn sharded_l2(
        shards: usize,
        strategy: ShardingStrategy,
        seed: u64,
    ) -> ShardedSampler<TrulyPerfectLpSampler> {
        ShardedSamplerBuilder::new(shards)
            .strategy(strategy)
            .seed(seed)
            .build(|idx| TrulyPerfectLpSampler::new(2.0, 512, 0.1, seed ^ ((idx as u64) << 32)))
    }

    #[test]
    fn hash_routing_keeps_items_on_one_shard() {
        let mut sharded = sharded_l2(4, ShardingStrategy::Hash, 1);
        let stream = zipfish_stream(5_000, 97);
        sharded.update_batch(&stream);
        assert_eq!(sharded.processed(), 5_000);
        // Every item's full frequency must sit on its hash shard.
        let per_shard: Vec<u64> = (0..4).map(|j| sharded.shard(j).processed()).collect();
        assert_eq!(per_shard.iter().sum::<u64>(), 5_000);
        let mut expected = vec![0u64; 4];
        for &item in &stream {
            expected[sharded.hash_shard_of(item)] += 1;
        }
        assert_eq!(per_shard, expected);
    }

    /// Sharded batch ≡ sharded loop: deterministic routing plus per-shard
    /// batch ≡ loop gives identical states, checked by comparing sample
    /// draws (which also compares the query RNG position).
    #[test]
    fn sharded_batch_equals_sharded_loop() {
        for strategy in [ShardingStrategy::Hash, ShardingStrategy::RoundRobin] {
            let stream = zipfish_stream(3_000, 61);
            let mut looped = sharded_l2(3, strategy, 7);
            for &x in &stream {
                looped.update(x);
            }
            let mut batched = sharded_l2(3, strategy, 7);
            for chunk in stream.chunks(271) {
                batched.update_batch(chunk);
            }
            for draw in 0..6 {
                assert_eq!(
                    looped.sample(),
                    batched.sample(),
                    "{strategy:?} diverged at draw {draw}"
                );
            }
        }
    }

    /// The runtime path (one whole-stream batch above the per-shard
    /// parallelism cutoff, for both backpressure policies) and the
    /// sequential small-batch path (many chunks below it) leave identical
    /// states — same shard contents, same query RNG position — for both
    /// routing strategies. Every reader of shard state agrees byte for
    /// byte across the two: barrier snapshots on the live side, the parked
    /// shards on the sequential side.
    #[test]
    fn runtime_path_equals_sequential_path_and_loop() {
        let len = 3 * PARALLEL_MIN_PER_SHARD + 1_234;
        let stream = zipfish_stream(len, 61);
        for strategy in [ShardingStrategy::Hash, ShardingStrategy::RoundRobin] {
            for backpressure in [Backpressure::Block, Backpressure::Spill] {
                let mut looped = sharded_l2(3, strategy, 21);
                for &x in &stream {
                    looped.update(x);
                }
                let mut sequential = sharded_l2(3, strategy, 21);
                sequential.set_backpressure(backpressure);
                for piece in stream.chunks(501) {
                    sequential.update_batch(piece);
                }
                let mut parallel = sharded_l2(3, strategy, 21);
                parallel.set_backpressure(backpressure);
                parallel.update_batch(&stream);
                assert!(parallel.runtime_active(), "cutoff must start the runtime");
                for draw in 0..6 {
                    let want = looped.sample();
                    assert_eq!(
                        want,
                        parallel.sample(),
                        "{strategy:?}/{backpressure:?} runtime path diverged at draw {draw}"
                    );
                    assert_eq!(
                        want,
                        sequential.sample(),
                        "{strategy:?} sequential path diverged at draw {draw}"
                    );
                }
                assert!(parallel.runtime_active() && !sequential.runtime_active());
                let label = format!("{strategy:?}/{backpressure:?}");
                assert_eq!(parallel.snapshot(), sequential.snapshot(), "{label}");
                assert_eq!(
                    parallel.clone().snapshot(),
                    sequential.clone().snapshot(),
                    "{label} clone"
                );
                for j in 0..3 {
                    assert_eq!(
                        parallel.shard(j).snapshot(),
                        sequential.shard(j).snapshot(),
                        "{label} shard {j}"
                    );
                }
                // Both front-ends sit at the same merge-coin position here.
                assert_eq!(
                    parallel.merged().snapshot(),
                    sequential.merged().snapshot(),
                    "{label} merged"
                );
            }
        }
    }

    /// Queries issued *while* the runtime keeps ingesting match a
    /// quiesce-then-query reference: the snapshot barrier cuts exactly at
    /// the routed prefix, and later batches land on top of the same state.
    #[test]
    fn snapshot_isolated_queries_interleave_with_ingest() {
        let len = 3 * PARALLEL_MIN_PER_SHARD;
        let stream = zipfish_stream(2 * len, 61);
        let (first, second) = stream.split_at(len);
        let mut live = sharded_l2(3, ShardingStrategy::Hash, 33);
        let mut reference = sharded_l2(3, ShardingStrategy::Hash, 33);
        live.update_batch(first);
        assert!(live.runtime_active());
        reference.update_batch(first);
        reference.flush();
        // Query mid-stream: must answer for exactly the prefix.
        assert_eq!(live.sample(), reference.sample());
        live.update_batch(second);
        reference.update_batch(second);
        for draw in 0..4 {
            assert_eq!(live.sample(), reference.sample(), "draw {draw} diverged");
        }
    }

    /// Clones and snapshots taken while the runtime is live observe the
    /// full routed stream (read through a snapshot barrier), and the clone
    /// behaves like an independent sampler from that point.
    #[test]
    fn clone_and_snapshot_read_the_live_runtime() {
        let len = 2 * PARALLEL_MIN_PER_SHARD;
        let stream = zipfish_stream(len, 97);
        let mut live = sharded_l2(2, ShardingStrategy::Hash, 5);
        live.update_batch(&stream);
        assert!(live.runtime_active());
        let mut cloned = live.clone();
        assert!(!cloned.runtime_active());
        assert_eq!(cloned.processed(), live.processed());
        let bytes = live.snapshot();
        let mut restored: ShardedSampler<TrulyPerfectLpSampler> =
            ShardedSampler::restore(&bytes).unwrap();
        for draw in 0..4 {
            let want = live.sample();
            assert_eq!(want, cloned.sample(), "clone diverged at draw {draw}");
            assert_eq!(want, restored.sample(), "restore diverged at draw {draw}");
        }
    }

    /// Compile-time check that the front-end is `Send` for both update
    /// kinds with no `unsafe impl`: every field, worker pool included, is.
    const _: fn() = || {
        fn assert_send<T: Send>() {}
        assert_send::<ShardedSampler<TrulyPerfectLpSampler>>();
        assert_send::<ShardedSampler<crate::turnstile::StrictTurnstileF0Sampler, SignedUpdate>>();
    };

    #[test]
    fn round_robin_balances_exactly() {
        let mut sharded = sharded_l2(4, ShardingStrategy::RoundRobin, 3);
        sharded.update_batch(&zipfish_stream(1_000, 13));
        for j in 0..4 {
            assert_eq!(sharded.shard(j).processed(), 250);
        }
    }

    /// `fold_merge` refuses shards that disagree on configuration, naming
    /// the first one, instead of panicking inside the merge.
    #[test]
    fn fold_merge_rejects_incompatible_shards() {
        let shards = vec![
            TrulyPerfectLpSampler::new(2.0, 512, 0.1, 1),
            TrulyPerfectLpSampler::new(2.0, 512, 0.1, 2),
            TrulyPerfectLpSampler::new(1.0, 512, 0.1, 3),
        ];
        let mut rng = Xoshiro256::seed_from_u64(0);
        assert_eq!(
            fold_merge(shards, &mut rng).err(),
            Some(IncompatibleShard { index: 2 })
        );
    }

    #[test]
    fn empty_sharded_sampler_reports_empty() {
        let mut sharded = sharded_l2(4, ShardingStrategy::Hash, 9);
        assert_eq!(sharded.sample(), SampleOutcome::Empty);
    }

    #[test]
    fn merged_seen_covers_the_whole_stream() {
        let mut sharded = sharded_l2(5, ShardingStrategy::Hash, 11);
        sharded.update_batch(&zipfish_stream(4_321, 37));
        assert_eq!(sharded.merged().processed(), 4_321);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = sharded_l2(0, ShardingStrategy::Hash, 1);
    }

    /// The ingest configuration survives the snapshot round trip (new in
    /// format v2): policy, cutoff and chunk length come back, and the
    /// builder's routing helper agrees with the public `hash_route`.
    #[test]
    fn ingest_config_round_trips_through_snapshots() {
        let mut sampler = ShardedSamplerBuilder::new(2)
            .seed(3)
            .backpressure(Backpressure::Fail)
            .parallel_cutoff(1_000)
            .chunk_len(2_048)
            .build(|idx| TrulyPerfectLpSampler::new(2.0, 512, 0.1, 3 ^ ((idx as u64) << 32)));
        sampler.update_batch(&zipfish_stream(500, 13));
        let restored: ShardedSampler<TrulyPerfectLpSampler> =
            ShardedSampler::restore(&sampler.snapshot()).unwrap();
        assert_eq!(restored.backpressure(), Backpressure::Fail);
        assert_eq!(restored.parallel_cutoff(), 1_000);
        assert_eq!(restored.chunk_len(), 2_048);
        for item in [0u64, 1, 99, u64::MAX] {
            assert_eq!(sampler.hash_shard_of(item), hash_route(item, 2));
        }
    }

    /// `runtime_stats` observes the live pool: chunks flow once the
    /// runtime starts, and a cold sampler reports all zeros.
    #[test]
    fn runtime_stats_observe_the_pool() {
        let mut sampler = sharded_l2(2, ShardingStrategy::Hash, 17);
        assert_eq!(sampler.runtime_stats(), RuntimeStats::default());
        sampler.update_batch(&zipfish_stream(2 * PARALLEL_MIN_PER_SHARD, 61));
        assert!(sampler.runtime_active());
        sampler.flush();
        let stats = sampler.runtime_stats();
        assert!(stats.chunks > 0, "runtime ingest must count chunks");
        assert_eq!(stats.dropped_chunks, 0);
        assert_eq!(stats.spilled_pending, 0);
    }

    /// A consistent `query()` is `merged()` by another name: same merged
    /// snapshot bytes, same merge-coin consumption, so the two paths stay
    /// interchangeable draw for draw.
    #[test]
    fn consistent_query_equals_merged() {
        let stream = zipfish_stream(3_000, 61);
        let mut via_merged = sharded_l2(3, ShardingStrategy::Hash, 13);
        let mut via_query = sharded_l2(3, ShardingStrategy::Hash, 13);
        via_merged.update_batch(&stream);
        via_query.update_batch(&stream);
        let merged = via_merged.merged();
        let snap = via_query.query(&QueryOptions::consistent());
        assert!(!snap.cached);
        assert_eq!(snap.cut, 3_000);
        assert_eq!(snap.value.snapshot(), merged.snapshot());
        // Both consumed the same coins: the next draws still agree.
        for draw in 0..4 {
            assert_eq!(
                via_merged.sample(),
                via_query.sample(),
                "coin streams diverged at draw {draw}"
            );
        }
    }

    /// A cached query within its staleness bound is a pure cache read:
    /// byte-identical to the consistent merge that filled the cache, no
    /// merge coins consumed, and the hit is counted.
    #[test]
    fn cached_query_serves_the_published_merge_without_coins() {
        let stream = zipfish_stream(2_000, 61);
        let mut live = sharded_l2(2, ShardingStrategy::Hash, 23);
        let mut reference = sharded_l2(2, ShardingStrategy::Hash, 23);
        live.update_batch(&stream);
        reference.update_batch(&stream);
        let published = live.query(&QueryOptions::consistent());
        let _ = reference.query(&QueryOptions::consistent());
        // Repeated cached reads answer from the same published merge.
        for round in 0..3 {
            let hit = live.query(&QueryOptions::cached(0));
            assert!(hit.cached, "round {round} missed a warm cache");
            assert_eq!(hit.epoch, published.epoch);
            assert_eq!(hit.cut, published.cut);
            assert_eq!(hit.value.snapshot(), published.value.snapshot());
        }
        assert_eq!(live.query_cache_stats().hits, 3);
        assert_eq!(live.query_cache_stats().misses, 1);
        // The cache reads drew no merge coins: the next consistent query
        // matches a reference that never queried the cache.
        assert_eq!(
            live.query(&QueryOptions::consistent()).value.snapshot(),
            reference
                .query(&QueryOptions::consistent())
                .value
                .snapshot()
        );
    }

    /// A cache staler than the caller's bound escalates to the consistent
    /// path; a tolerant bound keeps serving the old cut and reports its
    /// (older) epoch honestly.
    #[test]
    fn stale_cache_escalates_within_the_bound() {
        let stream = zipfish_stream(2_000, 61);
        let (first, second) = stream.split_at(1_000);
        let mut sampler = sharded_l2(2, ShardingStrategy::Hash, 29);
        sampler.update_batch(first);
        let published = sampler.query(&QueryOptions::consistent());
        // One more ingest call moves the live epoch past the cache.
        sampler.update_batch(second);
        assert_eq!(sampler.epoch(), published.epoch + 1);
        // Tolerating one epoch of lag still hits, pinned to the old cut.
        let lagged = sampler.query(&QueryOptions::cached(1));
        assert!(lagged.cached);
        assert_eq!(lagged.cut, 1_000);
        assert!(
            sampler.epoch() - lagged.epoch <= 1,
            "staleness bound violated"
        );
        // Demanding the current epoch escalates: fresh cut, full stream.
        let fresh = sampler.query(&QueryOptions::cached(0));
        assert!(!fresh.cached, "stale cache served past its bound");
        assert_eq!(fresh.cut, 2_000);
        assert_eq!(fresh.epoch, sampler.epoch());
        // And the escalation republished: cached(0) now hits.
        assert!(sampler.query(&QueryOptions::cached(0)).cached);
    }

    /// Epoch, cache and counters are operational state: a snapshot round
    /// trip resets them (like the runtime), while the logical sampler
    /// state is untouched.
    #[test]
    fn query_cache_is_transient_across_snapshots() {
        let mut sampler = sharded_l2(2, ShardingStrategy::Hash, 31);
        sampler.update_batch(&zipfish_stream(1_500, 37));
        let _ = sampler.query(&QueryOptions::consistent());
        assert!(sampler.query(&QueryOptions::cached(0)).cached);
        let restored: ShardedSampler<TrulyPerfectLpSampler> =
            ShardedSampler::restore(&sampler.snapshot()).unwrap();
        assert_eq!(restored.epoch(), 0);
        assert_eq!(restored.query_cache_stats(), QueryCacheStats::default());
        // A restored sampler has no cache to serve: cached(anything) must
        // escalate to a fresh consistent merge.
        let mut restored = restored;
        assert!(!restored.query(&QueryOptions::cached(u64::MAX)).cached);
    }

    // ----- turnstile instantiation: the same plumbing hosts signed shards -

    use crate::turnstile::StrictTurnstileF0Sampler;

    /// A strict stream: inserts with a deterministic sprinkling of
    /// insert-then-delete pairs, so every prefix keeps counts ≥ 0.
    fn signed_stream(len: usize, universe: u64) -> Vec<SignedUpdate> {
        let mut out = Vec::with_capacity(len * 2);
        for i in 0..len as u64 {
            let item = mix(i) % universe;
            out.push(SignedUpdate { item, delta: 1 });
            if i.is_multiple_of(3) {
                out.push(SignedUpdate { item, delta: 1 });
                out.push(SignedUpdate { item, delta: -1 });
            }
        }
        out
    }

    fn sharded_turnstile(
        shards: usize,
        strategy: ShardingStrategy,
        seed: u64,
    ) -> ShardedSampler<StrictTurnstileF0Sampler, SignedUpdate> {
        // One shared seed across shards: the turnstile merge law requires
        // identical pre-drawn subsets (same reason as the F0 kind).
        ShardedSamplerBuilder::new(shards)
            .strategy(strategy)
            .seed(seed)
            .build_turnstile(|_idx| StrictTurnstileF0Sampler::new(512, seed))
    }

    /// Sharded turnstile batch ≡ loop ≡ runtime path, for both routing
    /// strategies (round-robin is exact here: the turnstile merge is
    /// linear, so any partitioning works).
    #[test]
    fn sharded_turnstile_paths_agree() {
        let stream = signed_stream(3 * PARALLEL_MIN_PER_SHARD, 509);
        for strategy in [ShardingStrategy::Hash, ShardingStrategy::RoundRobin] {
            let mut looped = sharded_turnstile(3, strategy, 19);
            for &u in &stream {
                looped.update(u);
            }
            let mut batched = sharded_turnstile(3, strategy, 19);
            for chunk in stream.chunks(407) {
                batched.update_batch(chunk);
            }
            let mut parallel = sharded_turnstile(3, strategy, 19);
            parallel.update_batch(&stream);
            assert!(parallel.runtime_active(), "cutoff must start the runtime");
            for draw in 0..4 {
                let want = looped.sample();
                assert_eq!(
                    want,
                    batched.sample(),
                    "{strategy:?} batch path diverged at draw {draw}"
                );
                assert_eq!(
                    want,
                    parallel.sample(),
                    "{strategy:?} runtime path diverged at draw {draw}"
                );
            }
        }
    }

    /// The sharded turnstile sampler answers exactly like one unsharded
    /// instance over the interleaved stream: merging is linear (syndromes
    /// and membership counters add), so the shard cut is invisible — the
    /// merged snapshot is byte-identical, not just distributionally right.
    #[test]
    fn sharded_turnstile_equals_single_instance() {
        let stream = signed_stream(4_000, 389);
        let mut single = StrictTurnstileF0Sampler::new(512, 77);
        single.update_batch(&stream);
        let mut sharded = sharded_turnstile(4, ShardingStrategy::Hash, 77);
        sharded.update_batch(&stream);
        let merged = sharded.merged();
        assert_eq!(
            merged.snapshot(),
            single.snapshot(),
            "merged turnstile shards drifted from the single instance"
        );
        assert_eq!(sharded.sample(), single.sample());
    }

    /// Snapshot round trip of the sharded turnstile front-end: restore
    /// continues byte-identically (same draws) as the uninterrupted
    /// original.
    #[test]
    fn sharded_turnstile_snapshot_round_trips() {
        let stream = signed_stream(3_000, 257);
        let mut sampler = sharded_turnstile(3, ShardingStrategy::Hash, 5);
        sampler.update_batch(&stream);
        let bytes = sampler.snapshot();
        let mut restored: ShardedSampler<StrictTurnstileF0Sampler, SignedUpdate> =
            ShardedSampler::restore(&bytes).unwrap();
        for draw in 0..4 {
            assert_eq!(
                sampler.sample(),
                restored.sample(),
                "restored sharded turnstile diverged at draw {draw}"
            );
        }
    }
}
