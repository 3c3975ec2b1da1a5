//! Shared configuration: which sampler family a job runs, how shards are
//! seeded, the deterministic workload both the service and the
//! single-process reference consume — and the typed [`JobSpec`] +
//! [`ServiceBuilder`] that every entry point (CLI, library, manifest
//! recovery) funnels through.
//!
//! Everything here is used by *both* sides of the byte-equality contract
//! (worker processes and the in-process reference), so it lives in one
//! place: a seed derivation that drifts between the two would break the
//! merged-query equality the smoke test pins.
//!
//! [`JobSpec`] is codec-serializable (same [`SnapshotWriter`] discipline
//! as every other persistent structure), which is what lets the
//! coordinator's durable manifest *be* the config snapshot: a resumed
//! coordinator reconstructs the full job — sampler kind, workload seed,
//! transport, chunking — from its chain alone.

use std::path::PathBuf;
use std::sync::Arc;

use tps_core::f0::TrulyPerfectF0Sampler;
use tps_core::framework::MeasureNormalizer;
use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::turnstile::StrictTurnstileF0Sampler;
use tps_core::TrulyPerfectGSampler;
use tps_random::{StreamRng, Xoshiro256};
use tps_streams::codec::{CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
use tps_streams::generators::ZipfTable;
use tps_streams::measure::Huber;
use tps_streams::wire::IngestPayload;
use tps_streams::{Item, SignedUpdate};

/// The Huber G-sampler variant the service's `g` kind runs.
pub type HuberSampler = TrulyPerfectGSampler<Huber, MeasureNormalizer<Huber>>;

/// Which sampler family the shards of a job instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Truly perfect `L_2` sampler ([`TrulyPerfectLpSampler`], `p = 2`).
    L2,
    /// Truly perfect `F_0` (support) sampler ([`TrulyPerfectF0Sampler`]).
    F0,
    /// Truly perfect Huber M-estimator sampler ([`HuberSampler`]).
    G,
    /// Strict-turnstile `F_0` sampler ([`StrictTurnstileF0Sampler`]): the
    /// shards consume *signed* updates from the deterministic
    /// insert/delete workload of [`job_signed_stream`].
    Turnstile,
}

impl SamplerKind {
    /// Parses the CLI spelling (`l2` | `f0` | `g` | `turnstile`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "l2" => Some(SamplerKind::L2),
            "f0" => Some(SamplerKind::F0),
            "g" => Some(SamplerKind::G),
            "turnstile" => Some(SamplerKind::Turnstile),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SamplerKind::L2 => "l2",
            SamplerKind::F0 => "f0",
            SamplerKind::G => "g",
            SamplerKind::Turnstile => "turnstile",
        }
    }

    /// Whether the kind's shards consume signed (turnstile) updates
    /// rather than unit insertions.
    pub fn is_turnstile(self) -> bool {
        matches!(self, SamplerKind::Turnstile)
    }
}

/// Failure probability the service's reservoir samplers are built with.
pub const DELTA: f64 = 0.1;

/// Instance count of the `g` kind's skip-ahead engine.
pub const G_INSTANCES: usize = 64;

/// The per-shard sampler seed. Reservoir samplers draw independently per
/// shard; the `F_0` kind deliberately ignores the shard index because its
/// merge law requires all shards to share one pre-drawn subset (see
/// `TrulyPerfectF0Sampler`'s merge docs).
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Shard `shard`'s `l2` sampler.
pub fn make_l2(universe: u64, seed: u64, shard: usize) -> TrulyPerfectLpSampler {
    TrulyPerfectLpSampler::new(2.0, universe, DELTA, shard_seed(seed, shard))
}

/// Shard `shard`'s `f0` sampler (shared seed — see [`shard_seed`]).
pub fn make_f0(universe: u64, seed: u64, _shard: usize) -> TrulyPerfectF0Sampler {
    TrulyPerfectF0Sampler::new(universe, DELTA, seed)
}

/// Shard `shard`'s `turnstile` sampler (shared seed, like `f0`: the
/// strict-turnstile sampler's merge law requires every shard to pre-draw
/// the same membership subset and the same syndrome evaluation points).
pub fn make_turnstile(universe: u64, seed: u64, _shard: usize) -> StrictTurnstileF0Sampler {
    StrictTurnstileF0Sampler::new(universe, seed)
}

/// Shard `shard`'s `g` (Huber) sampler.
pub fn make_g(_universe: u64, seed: u64, shard: usize) -> HuberSampler {
    let g = Huber::new(1.0);
    TrulyPerfectGSampler::with_instances(
        g,
        MeasureNormalizer::new(g),
        G_INSTANCES,
        shard_seed(seed, shard),
    )
}

/// Salt separating the workload RNG from the sampler seeds.
const STREAM_SALT: u64 = 0x57E4_0A4B_5F00_D5EE;

/// Zipf exponent of the job workload: skewed enough that one shard runs
/// hot (the regime delta checkpoints are built for).
pub const STREAM_ALPHA: f64 = 1.2;

/// Extra salt separating the turnstile workload's delete coins from the
/// item draws.
const DELETE_SALT: u64 = 0xD31E_7E00_0000_0001;

/// The deterministic hot-shard Zipf workload for a job: both the
/// coordinator and the single-process reference generate exactly this.
/// It is the whole of a fresh [`JobCursor`], drained in one chunk.
pub fn job_stream(universe: u64, count: usize, seed: u64) -> Vec<Item> {
    whole_stream(universe, count, seed)
}

/// The deterministic *strict-turnstile* workload for a `turnstile` job:
/// the [`job_stream`] Zipf items reinterpreted as signed updates, where
/// roughly a quarter of the touches delete one unit of an item that still
/// has positive count. Counts never go negative (the strict-turnstile
/// promise), and both the coordinator and the reference generate exactly
/// this sequence. It is the whole of a fresh signed [`JobCursor`].
pub fn job_signed_stream(universe: u64, count: usize, seed: u64) -> Vec<SignedUpdate> {
    whole_stream(universe, count, seed)
}

/// A fresh cursor's stream, drawn as one chunk.
fn whole_stream<U: JobUpdate>(universe: u64, count: usize, seed: u64) -> Vec<U> {
    let mut stream = Vec::new();
    JobCursor::new(universe, count, seed, count.max(1), U::SIGNED).next_chunk(&mut stream);
    stream
}

/// The job's workload as a resumable cursor: it yields, chunk by chunk,
/// exactly the updates [`job_stream`] / [`job_signed_stream`] return, and
/// its whole state fits in a manifest:
///
/// * the Xoshiro state of the item draws;
/// * for a signed (turnstile) cursor, the Xoshiro state of the delete
///   coins and every item's live count (dense over the universe in
///   memory; encoded as a bitmap of the live items and their counts);
/// * the number of chunks already yielded.
///
/// So the coordinator keeps cursors instead of copies of the stream: a
/// clone of a cursor regenerates any stretch of the stream on demand. The
/// Zipf table is rebuilt from the spec, never stored, and clones share it.
#[derive(Debug, Clone)]
pub struct JobCursor {
    table: Arc<ZipfTable>,
    count: usize,
    chunk: usize,
    chunks: u64,
    items: Xoshiro256,
    signs: Option<Signs>,
}

/// A signed cursor's extra state.
#[derive(Debug, Clone)]
struct Signs {
    coins: Xoshiro256,
    live: Vec<i64>,
}

impl JobCursor {
    fn new(universe: u64, count: usize, seed: u64, chunk: usize, signed: bool) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        Self {
            table: Arc::new(ZipfTable::new(universe, STREAM_ALPHA)),
            count,
            chunk,
            chunks: 0,
            items: Xoshiro256::seed_from_u64(seed ^ STREAM_SALT),
            signs: signed.then(|| Signs {
                coins: Xoshiro256::seed_from_u64(seed ^ STREAM_SALT ^ DELETE_SALT),
                live: vec![0; universe as usize],
            }),
        }
    }

    /// A cursor at the start of `spec`'s stream, yielding `spec.chunk`
    /// updates per chunk (signed for the turnstile kind).
    ///
    /// # Panics
    ///
    /// Panics if the spec has a zero universe or chunk size (a spec that
    /// fails [`JobSpec::validate`]).
    pub fn for_spec(spec: &JobSpec) -> Self {
        Self::new(
            spec.universe,
            spec.count,
            spec.seed,
            spec.chunk,
            spec.sampler.is_turnstile(),
        )
    }

    /// Chunks yielded so far: the cursor's position in the stream.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Chunks in the whole stream.
    pub fn total_chunks(&self) -> u64 {
        self.count.div_ceil(self.chunk) as u64
    }

    /// Replaces `out`'s contents with the next chunk and returns `true`,
    /// or empties `out` and returns `false` once the stream is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `U` is signed and the cursor is not, or the reverse.
    pub fn next_chunk<U: JobUpdate>(&mut self, out: &mut Vec<U>) -> bool {
        assert_eq!(
            U::SIGNED,
            self.signs.is_some(),
            "cursor drawn as the wrong update type"
        );
        out.clear();
        if self.chunks >= self.total_chunks() {
            return false;
        }
        let start = self.chunks as usize * self.chunk;
        let len = self.chunk.min(self.count - start);
        out.reserve(len);
        U::draw(self, len, out);
        self.chunks += 1;
        true
    }

    /// Serializes the cursor's state into an open snapshot.
    pub fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.chunks);
        self.items.encode_into(w);
        match &self.signs {
            None => w.put_u8(0),
            Some(signs) => {
                w.put_u8(1);
                signs.coins.encode_into(w);
                // A bitmap of the items whose live count is nonzero, then
                // those counts in item order: one bit per universe item
                // plus 8 bytes per item still live.
                w.put_len(signs.live.len().div_ceil(64));
                for counts in signs.live.chunks(64) {
                    let word = counts.iter().enumerate().fold(0u64, |word, (bit, &count)| {
                        word | (u64::from(count != 0) << bit)
                    });
                    w.put_u64(word);
                }
                for &count in signs.live.iter().filter(|&&count| count != 0) {
                    w.put_i64(count);
                }
            }
        }
    }

    /// Reads a cursor written by [`Self::encode_into`] for `spec`'s stream.
    /// The state must fit the spec: its position inside the stream, signed
    /// exactly for the turnstile kind, a live bitmap spanning the universe
    /// and a positive count for each item it marks. `spec` must pass
    /// [`JobSpec::validate`].
    pub fn decode_from(r: &mut SnapshotReader<'_>, spec: &JobSpec) -> Result<Self, CodecError> {
        let chunks = r.get_u64()?;
        let items = Xoshiro256::decode_from(r)?;
        let signs = match r.get_u8()? {
            0 => None,
            1 => {
                let coins = Xoshiro256::decode_from(r)?;
                let words = r.get_len(8)?;
                if words as u64 != spec.universe.div_ceil(64) {
                    return Err(CodecError::InvalidValue {
                        what: "cursor live bitmap does not span the universe",
                    });
                }
                let bitmap = (0..words)
                    .map(|_| r.get_u64())
                    .collect::<Result<Vec<u64>, _>>()?;
                let tail = spec.universe % 64;
                if tail != 0 && bitmap[words - 1] >> tail != 0 {
                    return Err(CodecError::InvalidValue {
                        what: "cursor live bitmap marks items outside the universe",
                    });
                }
                let mut live = vec![0; spec.universe as usize];
                for (item, slot) in live.iter_mut().enumerate() {
                    if bitmap[item / 64] >> (item % 64) & 1 == 1 {
                        *slot = r.get_i64()?;
                        if *slot <= 0 {
                            return Err(CodecError::InvalidValue {
                                what: "cursor live count is not positive",
                            });
                        }
                    }
                }
                Some(Signs { coins, live })
            }
            _ => {
                return Err(CodecError::InvalidValue {
                    what: "cursor signs option flag",
                })
            }
        };
        if signs.is_some() != spec.sampler.is_turnstile() {
            return Err(CodecError::InvalidValue {
                what: "cursor signedness does not match the sampler kind",
            });
        }
        let cursor = Self {
            table: Arc::new(ZipfTable::new(spec.universe, STREAM_ALPHA)),
            count: spec.count,
            chunk: spec.chunk,
            chunks,
            items,
            signs,
        };
        if cursor.chunks > cursor.total_chunks() {
            return Err(CodecError::InvalidValue {
                what: "cursor position is past the end of the stream",
            });
        }
        Ok(cursor)
    }
}

/// The update types a job's workload comes in: unit items for the
/// insertion-only kinds, signed updates for `turnstile`.
pub trait JobUpdate: IngestPayload {
    /// Whether this type is drawn from a signed (turnstile) cursor.
    const SIGNED: bool;

    /// Appends the cursor's next `len` updates to `out`.
    fn draw(cursor: &mut JobCursor, len: usize, out: &mut Vec<Self>);
}

impl JobUpdate for Item {
    const SIGNED: bool = false;

    fn draw(cursor: &mut JobCursor, len: usize, out: &mut Vec<Self>) {
        let (table, rng) = (&*cursor.table, &mut cursor.items);
        out.extend((0..len).map(|_| table.sample(rng)));
    }
}

impl JobUpdate for SignedUpdate {
    const SIGNED: bool = true;

    fn draw(cursor: &mut JobCursor, len: usize, out: &mut Vec<Self>) {
        let (table, rng) = (&*cursor.table, &mut cursor.items);
        let signs = cursor.signs.as_mut().expect("a signed cursor");
        out.extend((0..len).map(|_| {
            let item = table.sample(rng);
            let live = &mut signs.live[item as usize];
            let delete = *live > 0 && signs.coins.next_u64().is_multiple_of(4);
            let delta = if delete { -1 } else { 1 };
            *live += delta;
            SignedUpdate { item, delta }
        }));
    }
}

/// Writes a short string (path, endpoint) into a snapshot: length prefix
/// then raw bytes.
pub(crate) fn put_str(w: &mut SnapshotWriter, s: &str) {
    w.put_len(s.len());
    for &b in s.as_bytes() {
        w.put_u8(b);
    }
}

/// Reads a string written by [`put_str`].
pub(crate) fn get_str(r: &mut SnapshotReader<'_>) -> Result<String, CodecError> {
    let len = r.get_len(1)?;
    let bytes = r.get_bytes(len)?;
    String::from_utf8(bytes).map_err(|_| CodecError::InvalidValue {
        what: "string field is not utf-8",
    })
}

/// How the coordinator reaches its workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportKind {
    /// Child processes over stdin/stdout pipes (single host, zero
    /// configuration; the coordinator owns the worker lifecycle).
    Pipe,
    /// TCP sockets. With an explicit endpoint list (one `host:port` per
    /// shard, in shard order) the coordinator dials externally-managed
    /// `worker --listen` processes; with an empty list it spawns loopback
    /// listen workers itself and reads their ephemeral ports.
    Tcp {
        /// Per-shard worker endpoints, or empty to self-spawn on loopback.
        endpoints: Vec<String>,
    },
}

impl TransportKind {
    /// The CLI spelling (`pipe` | `tcp`).
    pub fn as_str(&self) -> &'static str {
        match self {
            TransportKind::Pipe => "pipe",
            TransportKind::Tcp { .. } => "tcp",
        }
    }

    fn encode_into(&self, w: &mut SnapshotWriter) {
        match self {
            TransportKind::Pipe => w.put_u8(0),
            TransportKind::Tcp { endpoints } => {
                w.put_u8(1);
                w.put_len(endpoints.len());
                for endpoint in endpoints {
                    put_str(w, endpoint);
                }
            }
        }
    }

    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(TransportKind::Pipe),
            1 => {
                let n = r.get_len(1)?;
                let mut endpoints = Vec::with_capacity(n);
                for _ in 0..n {
                    endpoints.push(get_str(r)?);
                }
                Ok(TransportKind::Tcp { endpoints })
            }
            _ => Err(CodecError::InvalidValue {
                what: "unknown transport kind",
            }),
        }
    }
}

/// The full, typed description of a job — everything a coordinator needs
/// to run (or *re-run*) it. Codec-serializable: the durable manifest
/// embeds the spec verbatim, so `coordinator --resume` needs nothing but
/// the chain directory.
///
/// Deliberately excluded: fault injection ([`KillSpec`]/[`DieSpec`]) and
/// query-plane wiring ([`QueryPlan`]) — those describe one *invocation*,
/// not the job, and persisting them would make a resumed coordinator
/// re-kill itself.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Number of worker processes (= shard count).
    pub workers: usize,
    /// Sampler family of every shard.
    pub sampler: SamplerKind,
    /// Universe size `n`.
    pub universe: u64,
    /// The job seed: workload, shard samplers and merge coins all derive
    /// from it deterministically.
    pub seed: u64,
    /// Total stream length.
    pub count: usize,
    /// Items per routed chunk (a chunk is scattered across all shards).
    pub chunk: usize,
    /// Checkpoint barrier cadence, in chunks.
    pub checkpoint_every: u64,
    /// Directory holding the per-shard checkpoint chains and the
    /// coordinator's manifest chain.
    pub checkpoint_dir: PathBuf,
    /// How the coordinator reaches its workers.
    pub transport: TransportKind,
    /// Path to the worker executable; defaults to the current executable.
    pub worker_exe: Option<PathBuf>,
}

impl JobSpec {
    /// Validates the invariants every entry point must hold.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("need at least one worker".into());
        }
        if self.universe == 0 {
            return Err("universe must be non-empty".into());
        }
        if self.chunk == 0 {
            return Err("chunk size must be positive".into());
        }
        if self.checkpoint_every == 0 {
            return Err("checkpoint cadence must be positive".into());
        }
        if let TransportKind::Tcp { endpoints } = &self.transport {
            if !endpoints.is_empty() && endpoints.len() != self.workers {
                return Err(format!(
                    "{} endpoints for {} workers (need one per shard, or none to self-spawn)",
                    endpoints.len(),
                    self.workers
                ));
            }
        }
        Ok(())
    }

    /// Serializes the spec into an open snapshot (the manifest's prefix).
    pub fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.workers);
        put_str(w, self.sampler.as_str());
        w.put_u64(self.universe);
        w.put_u64(self.seed);
        w.put_usize(self.count);
        w.put_usize(self.chunk);
        w.put_u64(self.checkpoint_every);
        put_str(w, &self.checkpoint_dir.to_string_lossy());
        self.transport.encode_into(w);
        match &self.worker_exe {
            None => w.put_u8(0),
            Some(path) => {
                w.put_u8(1);
                put_str(w, &path.to_string_lossy());
            }
        }
    }

    /// Reads a spec written by [`Self::encode_into`].
    pub fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        let workers = r.get_usize()?;
        let sampler = SamplerKind::parse(&get_str(r)?).ok_or(CodecError::InvalidValue {
            what: "unknown sampler kind",
        })?;
        let universe = r.get_u64()?;
        let seed = r.get_u64()?;
        let count = r.get_usize()?;
        let chunk = r.get_usize()?;
        let checkpoint_every = r.get_u64()?;
        let checkpoint_dir = PathBuf::from(get_str(r)?);
        let transport = TransportKind::decode_from(r)?;
        let worker_exe = match r.get_u8()? {
            0 => None,
            1 => Some(PathBuf::from(get_str(r)?)),
            _ => {
                return Err(CodecError::InvalidValue {
                    what: "worker_exe option flag",
                })
            }
        };
        Ok(Self {
            workers,
            sampler,
            universe,
            seed,
            count,
            chunk,
            checkpoint_every,
            checkpoint_dir,
            transport,
            worker_exe,
        })
    }
}

/// Fluent constructor for [`JobSpec`] — the one place job invariants are
/// enforced, mirroring `ShardedSamplerBuilder` in `tps_core`. The CLI is
/// a thin parser into this builder; library users skip the CLI entirely.
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    spec: JobSpec,
}

impl ServiceBuilder {
    /// A builder for a `kind` job over `workers` shards. Defaults: Zipf
    /// universe `2^12`, seed 0, 10 000 items in chunks of 1 000,
    /// checkpoint every 4 chunks, pipe transport, chains in a
    /// `tps-service` subdirectory of the system temp dir.
    pub fn new(kind: SamplerKind, workers: usize) -> Self {
        Self {
            spec: JobSpec {
                workers,
                sampler: kind,
                universe: 1 << 12,
                seed: 0,
                count: 10_000,
                chunk: 1_000,
                checkpoint_every: 4,
                checkpoint_dir: std::env::temp_dir().join("tps-service"),
                transport: TransportKind::Pipe,
                worker_exe: None,
            },
        }
    }

    /// Universe size `n` of every shard's sampler.
    pub fn universe(mut self, universe: u64) -> Self {
        self.spec.universe = universe;
        self
    }

    /// The job seed (workload, shard samplers, merge coins).
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Total stream length.
    pub fn count(mut self, count: usize) -> Self {
        self.spec.count = count;
        self
    }

    /// Items per routed chunk.
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.spec.chunk = chunk;
        self
    }

    /// Checkpoint barrier cadence, in chunks.
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.spec.checkpoint_every = every;
        self
    }

    /// Directory for the per-shard chains and the coordinator manifest.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.checkpoint_dir = dir.into();
        self
    }

    /// Worker transport (pipe or TCP).
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.spec.transport = transport;
        self
    }

    /// Worker executable override (tests point this at the built binary).
    pub fn worker_exe(mut self, exe: impl Into<PathBuf>) -> Self {
        self.spec.worker_exe = Some(exe.into());
        self
    }

    /// Validates and returns the finished spec.
    pub fn build(self) -> Result<JobSpec, String> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

/// Configuration of one worker process (the `worker` subcommand).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The shard index this process owns.
    pub shard: usize,
    /// Sampler family to instantiate.
    pub sampler: SamplerKind,
    /// Universe size `n` of the sampler.
    pub universe: u64,
    /// The job seed (per-shard seeds derive via [`shard_seed`]).
    pub seed: u64,
    /// Directory holding the per-shard checkpoint chains.
    pub checkpoint_dir: PathBuf,
    /// `Some(addr)` = bind a TCP listener there (the socket transport's
    /// worker mode, announced as `listening <addr>` on stdout); `None` =
    /// serve this process's stdin/stdout once (the pipe transport).
    pub listen: Option<String>,
}

/// A deterministic fault injection: kill one worker after the coordinator
/// has routed a given number of chunks, then respawn and recover it.
#[derive(Debug, Clone, Copy)]
pub struct KillSpec {
    /// The shard whose worker process is killed.
    pub shard: usize,
    /// Kill after this many stream chunks have been routed.
    pub after_chunks: u64,
}

/// A deterministic coordinator suicide: the coordinator aborts itself
/// (SIGKILL-equivalent — no drain, no cleanup) mid-job, so a `--resume`
/// invocation can prove the manifest chain reconstructs the run.
#[derive(Debug, Clone, Copy)]
pub struct DieSpec {
    /// Abort after this many stream chunks have been routed.
    pub after_chunks: u64,
    /// If set, don't abort at the chunk boundary: wait for the *next*
    /// checkpoint barrier, persist the manifest, send the barrier to every
    /// worker, and abort before collecting a single ack — the widest
    /// coordinator crash window. Only meaningful over TCP (pipe workers
    /// die with the coordinator mid-write).
    pub mid_barrier: bool,
}

/// Per-invocation fault plan. Never serialized into the manifest: a
/// resumed coordinator must finish the job, not re-die.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Kill-and-recover one worker.
    pub kill: Option<KillSpec>,
    /// Abort the coordinator itself.
    pub die: Option<DieSpec>,
}

/// Per-invocation query-plane wiring (runtime-only, like [`FaultPlan`]).
#[derive(Debug, Clone, Default)]
pub struct QueryPlan {
    /// Bind a TCP listener here (e.g. `127.0.0.1:0`) and start the
    /// non-stalling query plane (`query.rs`): a dedicated accept thread
    /// plus detached per-client handlers serving cached queries from the
    /// published snapshot cache and consistent queries from one query
    /// barrier per chunk boundary. The bound address is announced as
    /// `query-listening <addr>` on stdout.
    pub listen: Option<String>,
    /// Test hook: after routing this many chunks, *block* until a
    /// consistent-cut demand arrives and serve it at exactly this cut —
    /// makes "a query landed mid-ingest" a deterministic fact rather
    /// than a race. The awaited query must be `Consistent` (or a cached
    /// query that escalates): a cached query satisfied by the snapshot
    /// cache never reaches the coordinator.
    pub await_after_chunks: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_streams::codec::{seal, tag, unseal};

    #[test]
    fn kinds_parse_and_print() {
        for kind in [
            SamplerKind::L2,
            SamplerKind::F0,
            SamplerKind::G,
            SamplerKind::Turnstile,
        ] {
            assert_eq!(SamplerKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SamplerKind::parse("l3"), None);
        assert!(SamplerKind::Turnstile.is_turnstile());
        assert!(!SamplerKind::F0.is_turnstile());
    }

    #[test]
    fn signed_job_stream_is_deterministic_and_strict() {
        let a = job_signed_stream(1 << 10, 20_000, 11);
        assert_eq!(a, job_signed_stream(1 << 10, 20_000, 11));
        assert_ne!(a, job_signed_stream(1 << 10, 20_000, 12));
        // Strict-turnstile: every prefix keeps every count non-negative,
        // and the workload actually exercises deletions.
        let mut counts = std::collections::HashMap::new();
        let mut deletions = 0usize;
        for update in &a {
            let entry = counts.entry(update.item).or_insert(0i64);
            *entry += update.delta;
            assert!(*entry >= 0, "count for {} went negative", update.item);
            if update.delta < 0 {
                deletions += 1;
            }
        }
        assert!(deletions > a.len() / 10, "workload barely deletes");
    }

    /// Drains `cursor` chunk by chunk, checking every chunk's length.
    fn drain_chunks<U: JobUpdate>(cursor: &mut JobCursor, chunk: usize, out: &mut Vec<U>) {
        let mut next: Vec<U> = Vec::new();
        while cursor.next_chunk(&mut next) {
            assert!(!next.is_empty() && next.len() <= chunk);
            out.extend_from_slice(&next);
        }
        assert!(!cursor.next_chunk(&mut next) && next.is_empty());
    }

    /// The cursor yields exactly the `job_stream` / `job_signed_stream`
    /// bytes at every chunk size, including one chunk per update and one
    /// chunk longer than the stream, and a cursor encoded at any chunk
    /// boundary, decoded and drained continues the same stream.
    fn check_cursor_against<U: JobUpdate + PartialEq + std::fmt::Debug>(
        kind: SamplerKind,
        whole: &[U],
    ) {
        let count = whole.len();
        for chunk in [1, 7, 1_000, 65_536, count + 1] {
            let spec = ServiceBuilder::new(kind, 2)
                .universe(1 << 10)
                .seed(11)
                .count(count)
                .chunk(chunk)
                .build()
                .unwrap();
            let mut cursor = JobCursor::for_spec(&spec);
            assert_eq!(cursor.total_chunks(), count.div_ceil(chunk) as u64);
            let mut drained: Vec<U> = Vec::new();
            drain_chunks(&mut cursor, chunk, &mut drained);
            assert_eq!(drained, whole, "{} chunk={chunk}", kind.as_str());
            assert_eq!(cursor.chunks(), cursor.total_chunks());

            let total = cursor.total_chunks();
            for resume_at in [0, 1, total / 3, total - 1, total] {
                let mut cursor = JobCursor::for_spec(&spec);
                let mut resumed: Vec<U> = Vec::new();
                let mut next: Vec<U> = Vec::new();
                while cursor.chunks() < resume_at && cursor.next_chunk(&mut next) {
                    resumed.extend_from_slice(&next);
                }
                let mut w = SnapshotWriter::new();
                cursor.encode_into(&mut w);
                let bytes = w.into_bytes();
                let mut r = SnapshotReader::new(&bytes);
                let mut decoded = JobCursor::decode_from(&mut r, &spec).unwrap();
                r.finish().unwrap();
                assert_eq!(decoded.chunks(), resume_at);
                drain_chunks(&mut decoded, chunk, &mut resumed);
                assert_eq!(resumed, whole, "chunk={chunk} resumed at {resume_at}");
            }
        }
    }

    #[test]
    fn cursor_reproduces_the_job_streams_across_chunks_and_resumes() {
        let count = 70_001;
        check_cursor_against(SamplerKind::L2, &job_stream(1 << 10, count, 11));
        check_cursor_against(
            SamplerKind::Turnstile,
            &job_signed_stream(1 << 10, count, 11),
        );
    }

    #[test]
    fn cursor_decode_checks_the_state_against_the_spec() {
        // 60 items: the live bitmap is one word with four spare bits.
        let spec = ServiceBuilder::new(SamplerKind::Turnstile, 2)
            .universe(60)
            .count(1_000)
            .chunk(100)
            .build()
            .unwrap();
        let encode = |cursor: &JobCursor| {
            let mut w = SnapshotWriter::new();
            cursor.encode_into(&mut w);
            w.into_bytes()
        };
        let mut cursor = JobCursor::for_spec(&spec);
        // A fresh cursor encodes an empty bitmap as its last word.
        let bitmap_at = encode(&cursor).len() - 8;
        let mut chunk: Vec<SignedUpdate> = Vec::new();
        for _ in 0..3 {
            assert!(cursor.next_chunk(&mut chunk));
        }
        let bytes = encode(&cursor);
        let decode = |spec: &JobSpec, bytes: &[u8]| {
            let mut r = SnapshotReader::new(bytes);
            JobCursor::decode_from(&mut r, spec).map(|c| c.chunks())
        };
        assert_eq!(decode(&spec, &bytes), Ok(3));
        for other in [
            // Items drawn from 60 fall outside 8 items; 65 needs two words.
            JobSpec {
                universe: 8,
                ..spec.clone()
            },
            JobSpec {
                universe: 65,
                ..spec.clone()
            },
            JobSpec {
                sampler: SamplerKind::L2,
                ..spec.clone()
            },
        ] {
            assert!(matches!(
                decode(&other, &bytes),
                Err(CodecError::InvalidValue { .. })
            ));
        }
        // A position past the end of the stream, a negative or zero count
        // (the counts end the encoding), and a bitmap bit past the
        // universe all fail typed.
        let end = bytes.len();
        let mut past = bytes.clone();
        past[..8].copy_from_slice(&11u64.to_le_bytes());
        let mut negative = bytes.clone();
        negative[end - 8..].copy_from_slice(&(-1i64).to_le_bytes());
        let mut zero = bytes.clone();
        zero[end - 8..].copy_from_slice(&0i64.to_le_bytes());
        let mut outside = bytes.clone();
        outside[bitmap_at + 7] |= 0x80;
        for broken in [past, negative, zero, outside] {
            assert!(matches!(
                decode(&spec, &broken),
                Err(CodecError::InvalidValue { .. })
            ));
        }
    }

    #[test]
    fn cursor_encoding_holds_a_bitmap_and_the_live_counts() {
        let universe = 1 << 20;
        let spec = ServiceBuilder::new(SamplerKind::Turnstile, 2)
            .universe(universe)
            .count(1_000)
            .chunk(100)
            .build()
            .unwrap();
        let encoded_len = |cursor: &JobCursor| {
            let mut w = SnapshotWriter::new();
            cursor.encode_into(&mut w);
            w.into_bytes().len()
        };
        let mut cursor = JobCursor::for_spec(&spec);
        let fresh = encoded_len(&cursor);
        assert!(fresh <= 128 + universe as usize / 8, "fresh: {fresh} bytes");
        let mut chunk: Vec<SignedUpdate> = Vec::new();
        assert!(cursor.next_chunk(&mut chunk));
        let mut live = std::collections::HashMap::new();
        for update in &chunk {
            *live.entry(update.item).or_insert(0i64) += update.delta;
        }
        let nonzero = live.values().filter(|&&count| count != 0).count();
        assert!(nonzero > 0);
        // 8 bytes per drawn item still live, nothing more per universe item.
        assert_eq!(encoded_len(&cursor), fresh + 8 * nonzero);
    }

    #[test]
    fn job_stream_is_deterministic_and_skewed() {
        let a = job_stream(1 << 16, 50_000, 7);
        let b = job_stream(1 << 16, 50_000, 7);
        assert_eq!(a, b);
        assert_ne!(a, job_stream(1 << 16, 50_000, 8));
        // Zipf skew: the most frequent item dominates a uniform share.
        let mut counts = std::collections::HashMap::new();
        for &x in &a {
            *counts.entry(x).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > (a.len() as u64) / 100, "workload not skewed");
    }

    #[test]
    fn f0_shards_share_a_seed_and_reservoirs_do_not() {
        assert_ne!(shard_seed(9, 0), shard_seed(9, 1));
        use tps_streams::Snapshot;
        assert_eq!(make_f0(64, 9, 0).snapshot(), make_f0(64, 9, 1).snapshot());
        assert_ne!(make_l2(64, 9, 0).snapshot(), make_l2(64, 9, 1).snapshot());
        // The turnstile kind shares a seed for the same reason as `f0`.
        assert_eq!(
            make_turnstile(64, 9, 0).snapshot(),
            make_turnstile(64, 9, 1).snapshot()
        );
    }

    #[test]
    fn builder_validates_and_spec_round_trips_through_codec() {
        let spec = ServiceBuilder::new(SamplerKind::Turnstile, 3)
            .universe(1 << 10)
            .seed(77)
            .count(12_345)
            .chunk(500)
            .checkpoint_every(6)
            .checkpoint_dir("/tmp/tps-spec-test")
            .transport(TransportKind::Tcp {
                endpoints: vec![
                    "127.0.0.1:9001".into(),
                    "127.0.0.1:9002".into(),
                    "127.0.0.1:9003".into(),
                ],
            })
            .worker_exe("/usr/bin/tps-service")
            .build()
            .unwrap();

        let mut w = SnapshotWriter::new();
        w.put_tag(tag::JOB_MANIFEST);
        spec.encode_into(&mut w);
        let sealed = seal(tag::JOB_MANIFEST, &w.into_bytes());
        let payload = unseal(tag::JOB_MANIFEST, &sealed).unwrap();
        let mut r = SnapshotReader::new(payload);
        r.expect_tag(tag::JOB_MANIFEST).unwrap();
        let back = JobSpec::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn builder_rejects_bad_specs() {
        assert!(ServiceBuilder::new(SamplerKind::L2, 0).build().is_err());
        assert!(ServiceBuilder::new(SamplerKind::L2, 2)
            .universe(0)
            .build()
            .is_err());
        assert!(ServiceBuilder::new(SamplerKind::L2, 2)
            .chunk(0)
            .build()
            .is_err());
        assert!(ServiceBuilder::new(SamplerKind::L2, 2)
            .checkpoint_every(0)
            .build()
            .is_err());
        // Endpoint list must match the shard count (or be empty).
        assert!(ServiceBuilder::new(SamplerKind::L2, 2)
            .transport(TransportKind::Tcp {
                endpoints: vec!["127.0.0.1:9001".into()],
            })
            .build()
            .is_err());
        assert!(ServiceBuilder::new(SamplerKind::L2, 2)
            .transport(TransportKind::Tcp {
                endpoints: Vec::new(),
            })
            .build()
            .is_ok());
    }
}
