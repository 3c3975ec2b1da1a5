//! Incremental (delta) checkpoints: epoch-stamped frames that ship only
//! what changed since the previous checkpoint.
//!
//! A long-running ingest service checkpoints each shard every few seconds.
//! Re-writing the full snapshot each interval is wasteful in exactly the
//! regime the service is built for: a hot shard's state is dominated by its
//! suffix-count table, and between two nearby checkpoints only the counts
//! of the recently-touched items (plus the RNG position and a handful of
//! reservoir slots) actually differ. This module adds a second frame kind
//! on top of the PR-4 snapshot format:
//!
//! * a **full frame** embeds a complete sealed component snapshot, stamped
//!   with its checkpoint epoch — the base of a chain;
//! * a **delta frame** encodes the byte difference between the previous
//!   checkpoint's snapshot and the current one as copy/literal ops
//!   (rsync-style content-defined matching, so inserted map entries shift
//!   the tail without invalidating it), stamped with both epochs and
//!   checksummed on both ends of the chain.
//!
//! Because snapshots are *canonical* (sorted maps, no transient state), the
//! byte diff is small exactly when the logical diff is small — the hot
//! shard stops re-shipping its full suffix table every interval, while the
//! reconstruction stays bit-exact. [`IncrementalCheckpointer`] decides
//! full-vs-delta per interval (first frame, oversized delta, or a capped
//! chain length force a rebase); [`CheckpointReplayer`] consumes a frame
//! sequence and maintains the current full snapshot bytes, from which any
//! [`Restore`](super::Restore) type recovers exactly as from a plain
//! snapshot.
//!
//! ## Encoder cost
//!
//! The delta encoder indexes the base's block-aligned windows and scans
//! the target once under a rolling hash: `O(|base| + |target|)` expected.
//! A bitmap over the base's block hashes rules out almost every scan
//! position with one bit test, so only a window that may occur in the
//! base costs an index lookup. [`IncrementalCheckpointer`] also gives the
//! scan a literal budget of `full.len() / rebase_denominator` bytes: a
//! delta with more literal bytes than that is larger than the size rule
//! allows, so the scan stops there and the checkpointer writes the full
//! frame it would have written anyway. A snapshot that shares little with
//! its base — a coordinator manifest whose replay buffers never repeat —
//! then costs a scan of about half of it (at the default denominator)
//! instead of all of it. The budget changes when the scan stops, never
//! which frames are written or their bytes.
//!
//! ## Frame layout (inside the standard sealed envelope, tag
//! [`tag::CHECKPOINT_FRAME`])
//!
//! ```text
//! tag        u16   CHECKPOINT_FRAME
//! kind       u8    0 = full, 1 = delta
//! epoch      u64   checkpoint epoch of this frame
//! -- full --
//! len + bytes      the embedded sealed component snapshot
//! -- delta --
//! base_epoch        u64   epoch of the frame this delta applies on top of
//! base_len          u64   length of that base's snapshot bytes
//! base_checksum     u64   FNV-1a over those bytes (stale-base detection)
//! target_len        u64   length of the reconstructed snapshot
//! target_checksum   u64   FNV-1a over the reconstruction (apply is verified)
//! op_count + ops          0x00 copy{base_off u64, len u64} | 0x01 literal{len, bytes}
//! ```
//!
//! Decoding follows the module-wide hardening contract: every length is
//! validated against the bytes actually present before any allocation,
//! copy ranges are bounds-checked against the base, application never
//! allocates more than the op stream can justify, and a frame applied to
//! the wrong base fails with the typed [`CodecError::StaleBase`] instead of
//! reconstructing garbage (the final checksum would catch even a collision
//! there).

use super::{checksum, seal, tag, CodecError, Snapshot, SnapshotReader, SnapshotWriter};

/// Matching granularity of the delta encoder: the minimum run of identical
/// bytes worth a copy op (16 bytes of op header + 1 of kind). Two map
/// entries in most components.
const BLOCK: usize = 32;

/// How many base offsets one block hash keeps as match candidates; beyond
/// this, extra occurrences of a repeated block add nothing but scan cost.
const MAX_CANDIDATES: usize = 8;

/// Rabin–Karp rolling-hash multiplier (any odd constant works; this is the
/// FNV prime, already in the crate's vocabulary).
const ROLL: u64 = 0x0000_0100_0000_01B3;

/// Frame kinds on the wire.
const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;

/// One decoded checkpoint frame header (the payload stays inside the frame
/// bytes; this is what callers branch on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A full snapshot frame: the chain (re)bases here.
    Full,
    /// A delta frame against the previous checkpoint in the chain.
    Delta {
        /// The epoch of the checkpoint this delta applies on top of.
        base_epoch: u64,
    },
}

/// Builds a sealed **full** checkpoint frame embedding `snapshot_bytes`
/// (a sealed component snapshot) at `epoch`.
pub fn encode_full_frame(epoch: u64, snapshot_bytes: &[u8]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::CHECKPOINT_FRAME);
    w.put_u8(KIND_FULL);
    w.put_u64(epoch);
    w.put_len(snapshot_bytes.len());
    let mut payload = w.into_bytes();
    payload.extend_from_slice(snapshot_bytes);
    seal(tag::CHECKPOINT_FRAME, &payload)
}

/// Builds a sealed **delta** checkpoint frame carrying the byte difference
/// from `base` (the previous checkpoint's snapshot bytes, at `base_epoch`)
/// to `target` (the current snapshot bytes, at `epoch`).
pub fn encode_delta_frame(base_epoch: u64, base: &[u8], epoch: u64, target: &[u8]) -> Vec<u8> {
    let ops = diff_ops(base, target, usize::MAX).expect("an unbounded scan never gives up");
    write_delta_frame(base_epoch, base, epoch, target, &ops)
}

/// Seals the delta frame for `ops` (offsets into `target` and `base`).
fn write_delta_frame(
    base_epoch: u64,
    base: &[u8],
    epoch: u64,
    target: &[u8],
    ops: &[DiffOp],
) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::CHECKPOINT_FRAME);
    w.put_u8(KIND_DELTA);
    w.put_u64(epoch);
    w.put_u64(base_epoch);
    w.put_len(base.len());
    w.put_u64(checksum(base));
    w.put_len(target.len());
    w.put_u64(checksum(target));
    w.put_len(ops.len());
    let mut payload = w.into_bytes();
    for op in ops {
        match op {
            DiffOp::Copy { base_off, len } => {
                payload.push(0);
                payload.extend_from_slice(&(*base_off as u64).to_le_bytes());
                payload.extend_from_slice(&(*len as u64).to_le_bytes());
            }
            DiffOp::Literal { start, len } => {
                payload.push(1);
                payload.extend_from_slice(&(*len as u64).to_le_bytes());
                payload.extend_from_slice(&target[*start..*start + *len]);
            }
        }
    }
    seal(tag::CHECKPOINT_FRAME, &payload)
}

/// Reads a frame's kind and epoch without applying it.
pub fn peek_frame(frame: &[u8]) -> Result<(FrameKind, u64), CodecError> {
    let payload = super::unseal(tag::CHECKPOINT_FRAME, frame)?;
    let mut r = SnapshotReader::new(payload);
    r.expect_tag(tag::CHECKPOINT_FRAME)?;
    let kind = r.get_u8()?;
    let epoch = r.get_u64()?;
    match kind {
        KIND_FULL => Ok((FrameKind::Full, epoch)),
        KIND_DELTA => {
            let base_epoch = r.get_u64()?;
            Ok((FrameKind::Delta { base_epoch }, epoch))
        }
        _ => Err(CodecError::InvalidValue {
            what: "checkpoint frame kind must be 0 (full) or 1 (delta)",
        }),
    }
}

/// A copy/literal instruction of the delta encoder. Offsets index the
/// encoder's inputs; the wire encoding is written by
/// [`encode_delta_frame`].
enum DiffOp {
    Copy { base_off: usize, len: usize },
    Literal { start: usize, len: usize },
}

/// `ROLL^8`, the weight between two 8-byte lanes of [`hash_block`].
const ROLL_8: u64 = ROLL.wrapping_pow(8);

/// The rolling hash of one [`BLOCK`]-byte window, `Σ b[i]·ROLL^(BLOCK-1-i)`
/// over `u64`. Evaluated as 8-byte lanes that do not depend on each
/// other, so their multiplies overlap; the value is that of folding the
/// window byte by byte.
fn hash_block(block: &[u8]) -> u64 {
    block.chunks_exact(8).fold(0u64, |h, lane| {
        let lane = lane
            .iter()
            .fold(0u64, |l, &b| l.wrapping_mul(ROLL).wrapping_add(b as u64));
        h.wrapping_mul(ROLL_8).wrapping_add(lane)
    })
}

/// A window's index key: its hash times a Fibonacci constant. This is a
/// bijection, so equal keys are equal hashes, and it moves well-mixed bits
/// to the top, where buckets and filter bits are read (the low bits of the
/// rolling hash are weak: the lowest is the parity of the window's bytes).
fn block_key(hash: u64) -> u64 {
    hash.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// log2 of the prefilter bits per index bucket: with 16 bits, and about
/// one indexed block per bucket, a window whose hash is not in the index
/// passes the filter about once in 16 positions.
const FILTER_BITS_PER_BUCKET_LOG2: u32 = 4;

/// The base's block-aligned windows, indexed for the scan of the target.
///
/// `entries` holds `(key, offset)` pairs sorted, keeping per key the first
/// [`MAX_CANDIDATES`] offsets in ascending order — the candidates a scan
/// position tries, in the order it tries them. The top bits of a key name
/// its bucket, `entries[starts[b]..starts[b + 1]]`, and its bit in
/// `filter`, a bitmap that rules out almost every scan position before
/// `starts` or `entries` is read.
struct BlockIndex {
    entries: Vec<(u64, usize)>,
    starts: Vec<usize>,
    filter: Vec<u64>,
    /// `64 - log2(bucket count)`: a key's bucket is `key >> bucket_shift`.
    bucket_shift: u32,
}

impl BlockIndex {
    fn new(base: &[u8]) -> Self {
        let mut entries: Vec<(u64, usize)> = base
            .chunks_exact(BLOCK)
            .enumerate()
            .map(|(i, block)| (block_key(hash_block(block)), i * BLOCK))
            .collect();
        entries.sort_unstable();
        let mut previous = None;
        let mut run = 0;
        entries.retain(|&(key, _)| {
            run = if previous == Some(key) { run + 1 } else { 1 };
            previous = Some(key);
            run <= MAX_CANDIDATES
        });
        // At least 4 buckets, so the filter is at least one word.
        let bucket_bits = entries.len().next_power_of_two().trailing_zeros().max(2);
        let bucket_shift = 64 - bucket_bits;
        let mut starts = vec![0; (1 << bucket_bits) + 1];
        let mut filter = vec![0; 1 << (bucket_bits + FILTER_BITS_PER_BUCKET_LOG2 - 6)];
        for &(key, _) in &entries {
            starts[(key >> bucket_shift) as usize + 1] += 1;
            let bit = key >> (bucket_shift - FILTER_BITS_PER_BUCKET_LOG2);
            filter[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        Self {
            entries,
            starts,
            filter,
            bucket_shift,
        }
    }

    /// Whether a window hashing to `hash` may occur in the base: `false`
    /// rules it out without reading `starts` or `entries`.
    fn may_contain(&self, hash: u64) -> bool {
        let bit = block_key(hash) >> (self.bucket_shift - FILTER_BITS_PER_BUCKET_LOG2);
        self.filter[(bit / 64) as usize] & (1 << (bit % 64)) != 0
    }

    /// The base offsets whose block hashes to `hash`, ascending.
    fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let key = block_key(hash);
        let b = (key >> self.bucket_shift) as usize;
        self.entries[self.starts[b]..self.starts[b + 1]]
            .iter()
            .skip_while(move |&&(k, _)| k < key)
            .take_while(move |&&(k, _)| k == key)
            .map(|&(_, off)| off)
    }
}

/// Greedy content-defined matching from `target` back into `base`:
/// indexes `base` in [`BLOCK`]-sized steps under a rolling hash, then
/// scans `target` once, emitting maximal verified copies and literal runs
/// for everything else. `O(|base| + |target|)` expected; a bitmap
/// prefilter over the base's block hashes (see [`BlockIndex`]) keeps the
/// cost of a position whose window is not in the base to the hash roll
/// and one bit test.
///
/// `literal_budget` bounds the literal bytes the ops may carry: the scan
/// gives up with `None` as soon as the literal run it has committed to
/// passes it, so a target that shares little with its base costs a scan
/// of about `literal_budget` bytes rather than all of `target`. The ops of
/// a scan that finishes do not depend on the budget.
fn diff_ops(base: &[u8], target: &[u8], literal_budget: usize) -> Option<Vec<DiffOp>> {
    let mut ops = Vec::new();
    if target.is_empty() {
        return Some(ops);
    }
    if base.len() < BLOCK || target.len() < BLOCK {
        if target.len() > literal_budget {
            return None;
        }
        ops.push(DiffOp::Literal {
            start: 0,
            len: target.len(),
        });
        return Some(ops);
    }
    // Slides the window one byte: `ROLL^(BLOCK-1)` removes the outgoing
    // byte's weight.
    let top = ROLL.wrapping_pow(BLOCK as u32 - 1);
    let roll = |hash: u64, outgoing: u8, incoming: u8| {
        hash.wrapping_sub((outgoing as u64).wrapping_mul(top))
            .wrapping_mul(ROLL)
            .wrapping_add(incoming as u64)
    };
    // Index the base at block-aligned offsets (non-overlapping: enough for
    // long stable runs, and |base|/BLOCK entries instead of |base|).
    let index = BlockIndex::new(base);

    // Literal bytes still allowed: `target[literal_start..pos]` is already
    // committed to a literal, because the scan never moves backwards.
    let mut literal_left = literal_budget;
    let mut literal_start = 0usize;
    let mut pos = 0usize;
    let mut rolling = hash_block(&target[0..BLOCK]);
    while pos + BLOCK <= target.len() {
        // Roll past the windows the prefilter rules out, the common case,
        // as far as the target and the budget allow; the one-byte step
        // below handles both limits.
        let last = (target.len() - BLOCK).min(literal_start.saturating_add(literal_left));
        while pos < last && !index.may_contain(rolling) {
            rolling = roll(rolling, target[pos], target[pos + BLOCK]);
            pos += 1;
        }
        let mut matched = None;
        for base_off in index.candidates(rolling) {
            if base[base_off..base_off + BLOCK] == target[pos..pos + BLOCK] {
                // Extend the verified match forward as far as it goes.
                let mut len = BLOCK;
                while base_off + len < base.len()
                    && pos + len < target.len()
                    && base[base_off + len] == target[pos + len]
                {
                    len += 1;
                }
                match matched {
                    Some((_, best)) if best >= len => {}
                    _ => matched = Some((base_off, len)),
                }
            }
        }
        if let Some((base_off, len)) = matched {
            if literal_start < pos {
                literal_left -= pos - literal_start;
                ops.push(DiffOp::Literal {
                    start: literal_start,
                    len: pos - literal_start,
                });
            }
            ops.push(DiffOp::Copy { base_off, len });
            pos += len;
            literal_start = pos;
            if pos + BLOCK <= target.len() {
                rolling = hash_block(&target[pos..pos + BLOCK]);
            }
        } else {
            pos += 1;
            if pos - literal_start > literal_left {
                return None;
            }
            // Roll one byte forward (skipped at the very tail, where the
            // window can no longer shift and the loop is about to exit).
            if pos + BLOCK <= target.len() {
                rolling = roll(rolling, target[pos - 1], target[pos + BLOCK - 1]);
            }
        }
    }
    if literal_start < target.len() {
        if target.len() - literal_start > literal_left {
            return None;
        }
        ops.push(DiffOp::Literal {
            start: literal_start,
            len: target.len() - literal_start,
        });
    }
    Some(ops)
}

/// Applies a sealed **delta** frame to `base` (the previous checkpoint's
/// snapshot bytes at `base_epoch`), returning the reconstructed snapshot
/// bytes and the frame's epoch.
///
/// Fails with [`CodecError::StaleBase`] when the frame was encoded against
/// a different base (epoch, length or checksum disagree), and with the
/// usual typed errors on any structural corruption. Never allocates more
/// than the op stream justifies: output grows op by op, each op's length
/// validated against the base or the remaining frame bytes first.
pub fn apply_delta_frame(
    base: &[u8],
    base_epoch: u64,
    frame: &[u8],
) -> Result<(Vec<u8>, u64), CodecError> {
    let payload = super::unseal(tag::CHECKPOINT_FRAME, frame)?;
    let mut r = SnapshotReader::new(payload);
    r.expect_tag(tag::CHECKPOINT_FRAME)?;
    if r.get_u8()? != KIND_DELTA {
        return Err(CodecError::InvalidValue {
            what: "expected a delta checkpoint frame, found a full one",
        });
    }
    let epoch = r.get_u64()?;
    let frame_base_epoch = r.get_u64()?;
    if frame_base_epoch != base_epoch {
        return Err(CodecError::StaleBase {
            base_epoch: frame_base_epoch,
            found_epoch: base_epoch,
        });
    }
    let base_len = r.get_u64()?;
    let base_digest = r.get_u64()?;
    if base_len != base.len() as u64 || base_digest != checksum(base) {
        return Err(CodecError::StaleBase {
            base_epoch: frame_base_epoch,
            found_epoch: base_epoch,
        });
    }
    let target_len = r.get_u64()?;
    let target_digest = r.get_u64()?;
    let op_count = r.get_len(1)?;
    let mut out: Vec<u8> = Vec::new();
    for _ in 0..op_count {
        match r.get_u8()? {
            0 => {
                let base_off = r.get_usize()?;
                let len = r.get_usize()?;
                let end = base_off.checked_add(len).ok_or(CodecError::InvalidValue {
                    what: "copy op range overflows",
                })?;
                if end > base.len() {
                    return Err(CodecError::InvalidValue {
                        what: "copy op reaches outside the base snapshot",
                    });
                }
                out.extend_from_slice(&base[base_off..end]);
            }
            1 => {
                let len = r.get_len(1)?;
                let mut chunk = r.get_bytes(len)?;
                out.append(&mut chunk);
            }
            _ => {
                return Err(CodecError::InvalidValue {
                    what: "delta op kind must be 0 (copy) or 1 (literal)",
                })
            }
        }
        if out.len() as u64 > target_len {
            return Err(CodecError::InvalidValue {
                what: "delta ops produce more bytes than the declared target length",
            });
        }
    }
    r.finish()?;
    if out.len() as u64 != target_len {
        return Err(CodecError::InvalidValue {
            what: "delta ops produce fewer bytes than the declared target length",
        });
    }
    let computed = checksum(&out);
    if computed != target_digest {
        return Err(CodecError::ChecksumMismatch {
            stored: target_digest,
            computed,
        });
    }
    Ok((out, epoch))
}

/// Extracts the embedded snapshot bytes and epoch from a sealed **full**
/// checkpoint frame.
pub fn unwrap_full_frame(frame: &[u8]) -> Result<(Vec<u8>, u64), CodecError> {
    let payload = super::unseal(tag::CHECKPOINT_FRAME, frame)?;
    let mut r = SnapshotReader::new(payload);
    r.expect_tag(tag::CHECKPOINT_FRAME)?;
    if r.get_u8()? != KIND_FULL {
        return Err(CodecError::InvalidValue {
            what: "expected a full checkpoint frame, found a delta",
        });
    }
    let epoch = r.get_u64()?;
    let len = r.get_len(1)?;
    let bytes = r.get_bytes(len)?;
    r.finish()?;
    Ok((bytes, epoch))
}

/// Why the checkpointer emitted a full frame instead of a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebaseReason {
    /// First checkpoint of the chain.
    FirstFrame,
    /// The delta grew past the configured fraction of the full snapshot
    /// (the state churned too much for a delta to pay off).
    DeltaTooLarge,
    /// The chain hit its maximum length (bounding worst-case replay).
    ChainCap,
}

/// One emitted checkpoint: the sealed frame bytes plus what kind it is.
#[derive(Debug, Clone)]
pub enum CheckpointFrame {
    /// A full (rebase) frame.
    Full {
        /// The sealed frame bytes.
        bytes: Vec<u8>,
        /// Why the chain rebased here.
        reason: RebaseReason,
    },
    /// A delta frame against the previous checkpoint.
    Delta {
        /// The sealed frame bytes.
        bytes: Vec<u8>,
    },
}

impl CheckpointFrame {
    /// The sealed frame bytes, whichever kind this is.
    pub fn bytes(&self) -> &[u8] {
        match self {
            CheckpointFrame::Full { bytes, .. } | CheckpointFrame::Delta { bytes } => bytes,
        }
    }

    /// Whether this is a delta frame.
    pub fn is_delta(&self) -> bool {
        matches!(self, CheckpointFrame::Delta { .. })
    }
}

/// The incremental checkpoint writer: tracks the previous checkpoint's
/// snapshot bytes and emits a delta frame per interval, rebasing with a
/// full frame when the chain would get too long or the delta too large.
#[derive(Debug)]
pub struct IncrementalCheckpointer {
    /// Epoch and snapshot bytes of the previous checkpoint (the delta base).
    base: Option<(u64, Vec<u8>)>,
    deltas_since_base: u32,
    max_chain: u32,
    /// Rebase when `delta_bytes * rebase_denominator > full_bytes` — i.e.
    /// a delta must be at least `denominator×` smaller than the full
    /// snapshot to be worth chaining.
    rebase_denominator: usize,
}

impl Default for IncrementalCheckpointer {
    fn default() -> Self {
        Self::new()
    }
}

/// Default chain cap of [`IncrementalCheckpointer::new`].
const DEFAULT_MAX_CHAIN: u32 = 64;

/// Default rebase denominator of [`IncrementalCheckpointer::new`].
const DEFAULT_REBASE_DENOMINATOR: usize = 2;

impl IncrementalCheckpointer {
    /// A checkpointer with the default policy: rebase after 64 deltas or
    /// whenever a delta exceeds half the full snapshot.
    pub fn new() -> Self {
        Self::with_policy(DEFAULT_MAX_CHAIN, DEFAULT_REBASE_DENOMINATOR)
    }

    /// A checkpointer rebasing after `max_chain` consecutive deltas, or
    /// whenever `delta_bytes * rebase_denominator > full_bytes`
    /// (`rebase_denominator >= 1`; higher values demand smaller deltas).
    pub fn with_policy(max_chain: u32, rebase_denominator: usize) -> Self {
        assert!(max_chain > 0, "chain cap must admit at least one delta");
        assert!(
            rebase_denominator > 0,
            "rebase denominator must be positive"
        );
        Self {
            base: None,
            deltas_since_base: 0,
            max_chain,
            rebase_denominator,
        }
    }

    /// Epoch of the checkpoint the next delta would be encoded against.
    pub fn base_epoch(&self) -> Option<u64> {
        self.base.as_ref().map(|&(epoch, _)| epoch)
    }

    /// A checkpointer (default policy) resuming an existing chain: the next
    /// frame is encoded as a delta against `base_bytes`, the reconstruction
    /// a [`CheckpointReplayer`] produced for `base_epoch`. This is the
    /// restart path of the ingest service — a recovered worker keeps
    /// extending its on-disk chain instead of rebasing with a full frame.
    ///
    /// `deltas_since_base` is how many delta frames the recovered chain
    /// already holds since its last full frame
    /// ([`CheckpointReplayer::deltas_since_base`] after replay) — it seeds
    /// the chain cap, so a worker that restarts more often than every
    /// `max_chain` checkpoints still rebases on schedule instead of
    /// growing its chain (and worst-case replay) without bound.
    pub fn resume(base_epoch: u64, base_bytes: Vec<u8>, deltas_since_base: u32) -> Self {
        Self::resume_with_policy(
            DEFAULT_MAX_CHAIN,
            DEFAULT_REBASE_DENOMINATOR,
            base_epoch,
            base_bytes,
            deltas_since_base,
        )
    }

    /// [`Self::resume`] with an explicit rebase policy (the parameters of
    /// [`Self::with_policy`]), for callers that configured the original
    /// writer away from the defaults — resuming must not silently reset
    /// the policy along with the chain position.
    pub fn resume_with_policy(
        max_chain: u32,
        rebase_denominator: usize,
        base_epoch: u64,
        base_bytes: Vec<u8>,
        deltas_since_base: u32,
    ) -> Self {
        let mut writer = Self::with_policy(max_chain, rebase_denominator);
        writer.base = Some((base_epoch, base_bytes));
        writer.deltas_since_base = deltas_since_base;
        writer
    }

    /// Emits the checkpoint frame for `component`'s current state at
    /// `epoch` (epochs must be strictly increasing across calls).
    pub fn checkpoint<T: Snapshot>(&mut self, component: &T, epoch: u64) -> CheckpointFrame {
        let full = component.snapshot();
        self.checkpoint_bytes(full, epoch)
    }

    /// [`Self::checkpoint`] over already-encoded snapshot bytes (for
    /// callers that need the snapshot for something else too).
    ///
    /// The frame is exactly what [`encode_delta_frame`] plus the size rule
    /// would give, but a delta that cannot pass the rule costs only part
    /// of a scan: any delta carries more bytes than its literals, so once
    /// those pass `full.len() / rebase_denominator` the delta is too large
    /// and the scan stops there.
    pub fn checkpoint_bytes(&mut self, full: Vec<u8>, epoch: u64) -> CheckpointFrame {
        let reason = match &self.base {
            None => RebaseReason::FirstFrame,
            Some((base_epoch, base)) => {
                assert!(
                    epoch > *base_epoch,
                    "checkpoint epochs must be strictly increasing"
                );
                if self.deltas_since_base >= self.max_chain {
                    RebaseReason::ChainCap
                } else {
                    let budget = full.len() / self.rebase_denominator;
                    if let Some(ops) = diff_ops(base, &full, budget) {
                        let delta = write_delta_frame(*base_epoch, base, epoch, &full, &ops);
                        if delta.len().saturating_mul(self.rebase_denominator) <= full.len() {
                            self.base = Some((epoch, full));
                            self.deltas_since_base += 1;
                            return CheckpointFrame::Delta { bytes: delta };
                        }
                    }
                    RebaseReason::DeltaTooLarge
                }
            }
        };
        let frame = encode_full_frame(epoch, &full);
        self.base = Some((epoch, full));
        self.deltas_since_base = 0;
        CheckpointFrame::Full {
            bytes: frame,
            reason,
        }
    }
}

/// The checkpoint reader: applies a frame sequence (one full frame, then
/// deltas, with rebases allowed anywhere) and holds the current
/// reconstructed snapshot bytes.
#[derive(Debug, Default)]
pub struct CheckpointReplayer {
    current: Option<(u64, Vec<u8>)>,
    deltas_since_base: u32,
}

impl CheckpointReplayer {
    /// An empty replayer (no frame applied yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the next frame in the chain. Full frames (re)base the
    /// chain; delta frames require the previous frame's reconstruction and
    /// fail with [`CodecError::StaleBase`] on a gap.
    pub fn apply(&mut self, frame: &[u8]) -> Result<(), CodecError> {
        match peek_frame(frame)? {
            (FrameKind::Full, _) => {
                let (bytes, epoch) = unwrap_full_frame(frame)?;
                self.current = Some((epoch, bytes));
                self.deltas_since_base = 0;
                Ok(())
            }
            (FrameKind::Delta { .. }, _) => {
                let (held_epoch, base) = self.current.as_ref().ok_or(CodecError::InvalidValue {
                    what: "delta frame before any full frame in the chain",
                })?;
                let (bytes, epoch) = apply_delta_frame(base, *held_epoch, frame)?;
                self.current = Some((epoch, bytes));
                self.deltas_since_base = self.deltas_since_base.saturating_add(1);
                Ok(())
            }
        }
    }

    /// How many delta frames have been applied since the chain's last
    /// full frame — what [`IncrementalCheckpointer::resume`] needs to
    /// seed its chain cap when a writer picks the chain back up.
    pub fn deltas_since_base(&self) -> u32 {
        self.deltas_since_base
    }

    /// The reconstructed snapshot bytes and their epoch, if any frame has
    /// been applied.
    pub fn current(&self) -> Option<(u64, &[u8])> {
        self.current
            .as_ref()
            .map(|(epoch, bytes)| (*epoch, bytes.as_slice()))
    }

    /// Consumes the replayer, returning the reconstructed snapshot bytes
    /// and their epoch.
    pub fn into_current(self) -> Option<(u64, Vec<u8>)> {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Restore;
    use proptest::prelude::*;
    use tps_random::{StreamRng, Xoshiro256};

    fn pseudo_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
    }

    #[test]
    fn delta_round_trips_small_edits_compactly() {
        let base = pseudo_bytes(100_000, 1);
        let mut target = base.clone();
        // A few scattered point edits plus one insertion.
        for &pos in &[40usize, 9_000, 42_000, 77_777] {
            target[pos] ^= 0xA5;
        }
        target.splice(55_000..55_000, [1, 2, 3, 4, 5]);
        let frame = encode_delta_frame(7, &base, 8, &target);
        assert!(
            frame.len() < base.len() / 20,
            "delta for 9 changed bytes should be tiny, got {} of {}",
            frame.len(),
            base.len()
        );
        let (rebuilt, epoch) = apply_delta_frame(&base, 7, &frame).unwrap();
        assert_eq!(epoch, 8);
        assert_eq!(rebuilt, target);
    }

    #[test]
    fn delta_handles_unrelated_inputs() {
        let base = pseudo_bytes(1_000, 2);
        let target = pseudo_bytes(1_500, 3);
        let frame = encode_delta_frame(1, &base, 2, &target);
        let (rebuilt, _) = apply_delta_frame(&base, 1, &frame).unwrap();
        assert_eq!(rebuilt, target);
        // Degenerate sizes.
        for (b, t) in [(0usize, 0usize), (0, 10), (10, 0), (5, 5)] {
            let base = pseudo_bytes(b, 4);
            let target = pseudo_bytes(t, 5);
            let frame = encode_delta_frame(1, &base, 2, &target);
            let (rebuilt, _) = apply_delta_frame(&base, 1, &frame).unwrap();
            assert_eq!(rebuilt, target);
        }
    }

    #[test]
    fn stale_base_is_a_typed_error() {
        let base = pseudo_bytes(4_096, 6);
        let target = pseudo_bytes(4_096, 7);
        let frame = encode_delta_frame(3, &base, 4, &target);
        // Wrong epoch.
        assert!(matches!(
            apply_delta_frame(&base, 2, &frame),
            Err(CodecError::StaleBase {
                base_epoch: 3,
                found_epoch: 2
            })
        ));
        // Right epoch, wrong bytes.
        let mut other = base.clone();
        other[100] ^= 1;
        assert!(matches!(
            apply_delta_frame(&other, 3, &frame),
            Err(CodecError::StaleBase { .. })
        ));
    }

    #[test]
    fn checkpointer_chain_replays_to_the_live_snapshot() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut writer = IncrementalCheckpointer::with_policy(8, 1);
        let mut replayer = CheckpointReplayer::new();
        let mut full_frames = 0;
        for epoch in 1..=20u64 {
            for _ in 0..100 {
                rng.next_u64();
            }
            let frame = writer.checkpoint(&rng, epoch);
            if !frame.is_delta() {
                full_frames += 1;
            }
            replayer.apply(frame.bytes()).unwrap();
            let (held_epoch, bytes) = replayer.current().unwrap();
            assert_eq!(held_epoch, epoch);
            assert_eq!(bytes, rng.snapshot(), "chain drifted at epoch {epoch}");
            let mut restored = Xoshiro256::restore(bytes).unwrap();
            assert_eq!(restored.next_u64(), rng.clone().next_u64());
        }
        // Chain cap 8 over 20 epochs forces at least one mid-chain rebase.
        assert!(full_frames >= 2, "chain cap never rebased");
    }

    #[test]
    fn resumed_chain_keeps_the_cap_and_policy() {
        // Large, slowly-mutating state so deltas always beat the rebase
        // denominator and only the chain cap can force a full frame.
        let mut state = vec![0x3Cu8; 4096];
        let mut writer = IncrementalCheckpointer::with_policy(3, 1);
        let mut replayer = CheckpointReplayer::new();
        for epoch in 1..=3u64 {
            state[epoch as usize * 13] = epoch as u8;
            replayer
                .apply(writer.checkpoint_bytes(state.clone(), epoch).bytes())
                .unwrap();
        }
        // Full at epoch 1, deltas at 2 and 3: the replayer counted them.
        assert_eq!(replayer.deltas_since_base(), 2);
        let seeded = replayer.deltas_since_base();
        let (epoch, bytes) = replayer.into_current().unwrap();
        let mut resumed = IncrementalCheckpointer::resume_with_policy(3, 1, epoch, bytes, seeded);
        // One more delta fits under the cap of 3...
        state[100] ^= 0xFF;
        assert!(resumed.checkpoint_bytes(state.clone(), 4).is_delta());
        // ...then the cap forces a rebase, exactly as an uninterrupted
        // writer would have.
        state[200] ^= 0xFF;
        match resumed.checkpoint_bytes(state.clone(), 5) {
            CheckpointFrame::Full { reason, .. } => {
                assert_eq!(reason, RebaseReason::ChainCap)
            }
            CheckpointFrame::Delta { .. } => {
                panic!("resumed chain ignored its cap")
            }
        }
    }

    #[test]
    fn skipping_a_frame_fails_as_stale() {
        // Large, slowly-mutating state so every non-first frame really is
        // a delta (a tiny state would rebase to full frames and dodge the
        // staleness checks this test is about).
        let mut state = vec![0xA5u8; 4096];
        let mut writer = IncrementalCheckpointer::with_policy(64, 2);
        let mut frames = Vec::new();
        for epoch in 1..=4u64 {
            state[epoch as usize * 7] = epoch as u8;
            frames.push(writer.checkpoint_bytes(state.clone(), epoch));
        }
        assert!(frames[1..].iter().all(CheckpointFrame::is_delta));
        let mut replayer = CheckpointReplayer::new();
        replayer.apply(frames[0].bytes()).unwrap();
        replayer.apply(frames[1].bytes()).unwrap();
        // Skip epoch 3, apply epoch 4: typed stale-base error.
        assert!(matches!(
            replayer.apply(frames[3].bytes()),
            Err(CodecError::StaleBase { .. })
        ));
        // A delta with no base at all is also typed.
        let mut empty = CheckpointReplayer::new();
        assert!(matches!(
            empty.apply(frames[1].bytes()),
            Err(CodecError::InvalidValue { .. })
        ));
    }

    /// A base shape for the encoder-equivalence property: random, empty,
    /// shorter than one block, or sparse (mostly zero bytes, so most blocks
    /// are equal and their hash runs pass [`MAX_CANDIDATES`]).
    fn base_shaped(shape: u8, len: usize, seed: u64) -> Vec<u8> {
        match shape {
            0 => pseudo_bytes(len, seed),
            1 => Vec::new(),
            2 => pseudo_bytes(len % BLOCK, seed),
            _ => pseudo_bytes(len, seed)
                .iter()
                .map(|&b| u8::from(b < 4))
                .collect(),
        }
    }

    /// A target shape derived from `base`: unrelated, point-edited,
    /// shifted by an insert or a delete, empty, shorter than one block,
    /// identical, truncated, or extended by a fresh tail.
    fn target_shaped(shape: u8, base: &[u8], seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD1FF);
        let mut at = |bound: usize| (rng.next_u64() % (bound as u64 + 1)) as usize;
        let mut target = base.to_vec();
        match shape {
            0 => target = pseudo_bytes(base.len() + at(64), seed ^ 1),
            1 => {
                for _ in 0..1 + at(40) {
                    let pos = at(target.len());
                    if let Some(byte) = target.get_mut(pos) {
                        *byte ^= 0xA5;
                    }
                }
            }
            2 => {
                let pos = at(target.len());
                if at(1) == 0 {
                    target.splice(pos..pos, pseudo_bytes(1 + at(70), seed ^ 2));
                } else {
                    let end = (pos + 1 + at(70)).min(target.len());
                    target.drain(pos..end);
                }
            }
            3 => target.clear(),
            4 => target = pseudo_bytes(at(BLOCK - 1), seed ^ 3),
            5 => {}
            6 => target.truncate(at(target.len())),
            _ => target.extend(pseudo_bytes(at(3 * base.len() + 64), seed ^ 4)),
        }
        target
    }

    proptest! {
        /// The budgeted scan changes no byte: for every base, target and
        /// rebase denominator, `checkpoint_bytes` emits the frame of the
        /// unbounded `encode_delta_frame` when that passes the size rule,
        /// and a full frame otherwise.
        #[test]
        fn budgeted_checkpoint_matches_the_unbounded_encoder(
            base_shape in 0u8..4,
            target_shape in 0u8..8,
            len in 0usize..6_000,
            seed in any::<u64>(),
            denominator in 1usize..=16,
        ) {
            let base = base_shaped(base_shape, len, seed);
            let target = target_shaped(target_shape, &base, seed);
            let delta = encode_delta_frame(3, &base, 4, &target);
            let expected = if delta.len().saturating_mul(denominator) <= target.len() {
                (true, delta)
            } else {
                (false, encode_full_frame(4, &target))
            };
            let mut writer = IncrementalCheckpointer::resume_with_policy(
                DEFAULT_MAX_CHAIN,
                denominator,
                3,
                base,
                0,
            );
            let frame = writer.checkpoint_bytes(target, 4);
            prop_assert_eq!((frame.is_delta(), frame.bytes().to_vec()), expected);
        }
    }
}
