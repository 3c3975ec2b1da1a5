//! Decode hardening for incremental checkpoint frames
//! (`tps_streams::codec::delta`), mirroring the golden-corpus hardening in
//! `tests/snapshot_compat.rs`: truncation, bit flips, stale bases,
//! oversized length fields and op-stream smuggling must all come back as
//! typed [`CodecError`]s — never a panic, never an allocation sized by an
//! untrusted field.
//!
//! The fixtures are realistic: checkpoint chains produced by the
//! [`IncrementalCheckpointer`] over a live sharded sampler, so the frames
//! being attacked are exactly what the ingest service writes to disk.

use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::{ShardedSamplerBuilder, ShardingStrategy};
use tps_streams::codec::delta::{
    apply_delta_frame, encode_delta_frame, peek_frame, unwrap_full_frame, CheckpointFrame,
    CheckpointReplayer, FrameKind, IncrementalCheckpointer,
};
use tps_streams::codec::{checksum, CodecError, Snapshot};
use tps_streams::{Item, StreamSampler};

fn skewed_stream(len: usize, universe: u64) -> Vec<Item> {
    (0..len as u64)
        .map(|i| {
            let z = i
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            if z % 3 == 0 {
                z % 7
            } else {
                z % universe
            }
        })
        .collect()
}

/// A realistic checkpoint chain over a hot-shard sampler: one full frame,
/// then deltas as the stream grows. Returns (frames, final snapshot).
fn sampler_chain(epochs: u64) -> (Vec<CheckpointFrame>, Vec<u8>) {
    let mut sampler = ShardedSamplerBuilder::new(2)
        .strategy(ShardingStrategy::Hash)
        .seed(77)
        .build(|idx| TrulyPerfectLpSampler::new(2.0, 4_096, 0.1, 77 ^ ((idx as u64) << 32)));
    let mut writer = IncrementalCheckpointer::new();
    let mut frames = Vec::new();
    let stream = skewed_stream(epochs as usize * 4_000, 4_096);
    for (i, chunk) in stream.chunks(4_000).enumerate() {
        sampler.update_batch(chunk);
        frames.push(writer.checkpoint(&sampler, i as u64 + 1));
    }
    let last = sampler.snapshot();
    (frames, last)
}

/// Replays a frame slice from scratch; helper for the positive controls.
fn replay(frames: &[CheckpointFrame]) -> Result<Vec<u8>, CodecError> {
    let mut replayer = CheckpointReplayer::new();
    for frame in frames {
        replayer.apply(frame.bytes())?;
    }
    Ok(replayer
        .into_current()
        .map(|(_, bytes)| bytes)
        .expect("non-empty chain"))
}

/// Positive control: the untampered chain replays to the live snapshot and
/// actually contains delta frames (otherwise the attacks below would be
/// exercising the full-frame path only).
#[test]
fn untampered_chain_replays_and_contains_deltas() {
    let (frames, live) = sampler_chain(6);
    assert!(
        frames.iter().any(CheckpointFrame::is_delta),
        "fixture chain produced no delta frames — attacks would be vacuous"
    );
    assert_eq!(replay(&frames).unwrap(), live);
}

/// Truncating any frame at any cut fails typed — both through the raw
/// appliers and through the replayer.
#[test]
fn truncated_frames_fail_typed() {
    let (frames, _) = sampler_chain(4);
    for (index, frame) in frames.iter().enumerate() {
        let bytes = frame.bytes();
        let step = (bytes.len() / 128).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            let cutp = &bytes[..cut];
            assert!(peek_frame(cutp).is_err(), "frame {index} cut {cut} peeked");
            let mut replayer = CheckpointReplayer::new();
            for prior in &frames[..index] {
                replayer.apply(prior.bytes()).unwrap();
            }
            assert!(
                replayer.apply(cutp).is_err(),
                "frame {index} truncated at {cut} applied successfully"
            );
        }
    }
}

/// Flipping any single bit in any frame is rejected (checksum or a header
/// check fires) — corruption never silently reconstructs wrong state.
#[test]
fn bit_flipped_frames_fail_typed() {
    let (frames, _) = sampler_chain(4);
    for (index, frame) in frames.iter().enumerate() {
        let bytes = frame.bytes();
        let step = (bytes.len() / 64).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            for bit in [0, 3, 7] {
                let mut corrupt = bytes.to_vec();
                corrupt[pos] ^= 1 << bit;
                let mut replayer = CheckpointReplayer::new();
                for prior in &frames[..index] {
                    replayer.apply(prior.bytes()).unwrap();
                }
                assert!(
                    replayer.apply(&corrupt).is_err(),
                    "frame {index}: flipped bit {bit} of byte {pos} went unnoticed"
                );
            }
        }
    }
}

/// Stale bases in every flavour: wrong epoch, wrong bytes (same length),
/// wrong length, and a gap in the chain — all typed `StaleBase`, and the
/// replayer's held state is untouched by the failed apply.
#[test]
fn stale_bases_fail_typed_and_leave_state_intact() {
    let base_a: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    let mut target = base_a.clone();
    target[100] ^= 0xFF;
    target.extend_from_slice(&[7; 32]);
    let frame = encode_delta_frame(1, &base_a, 2, &target);

    // Wrong epoch.
    match apply_delta_frame(&base_a, 9, &frame) {
        Err(CodecError::StaleBase {
            base_epoch: 1,
            found_epoch: 9,
        }) => {}
        other => panic!("wrong epoch: {other:?}"),
    }
    // Right epoch, different bytes of the same length (checksum catches).
    let mut impostor = base_a.clone();
    impostor[0] ^= 1;
    assert!(matches!(
        apply_delta_frame(&impostor, 1, &frame),
        Err(CodecError::StaleBase { .. })
    ));
    // Wrong length.
    assert!(matches!(
        apply_delta_frame(&base_a[..100], 1, &frame),
        Err(CodecError::StaleBase { .. })
    ));
    // Applying the right base still works after all those failures.
    let (rebuilt, epoch) = apply_delta_frame(&base_a, 1, &frame).unwrap();
    assert_eq!((rebuilt, epoch), (target, 2));

    // Chain gap through the replayer: skipping a delta leaves the held
    // checkpoint exactly where it was.
    let (frames, _) = sampler_chain(8);
    let delta_positions: Vec<usize> = frames
        .iter()
        .enumerate()
        .filter(|&(i, f)| i >= 2 && f.is_delta())
        .map(|(i, _)| i)
        .collect();
    let &skip = delta_positions.last().expect("chain has deltas");
    let mut replayer = CheckpointReplayer::new();
    for frame in &frames[..skip - 1] {
        replayer.apply(frame.bytes()).unwrap();
    }
    let held_before = replayer.current().map(|(e, b)| (e, b.to_vec()));
    assert!(matches!(
        replayer.apply(frames[skip].bytes()),
        Err(CodecError::StaleBase { .. })
    ));
    let held_after = replayer.current().map(|(e, b)| (e, b.to_vec()));
    assert_eq!(held_before, held_after, "failed apply mutated held state");
}

/// Length-field attacks: resealed frames whose op counts, op lengths or
/// embedded-snapshot lengths claim far more than the payload holds must
/// fail fast (typed, no allocation sized by the claim). The checksum is an
/// integrity check, not an authenticity mechanism, so these frames are
/// *validly sealed* — the structural checks have to do the work.
#[test]
fn oversized_length_fields_fail_before_allocating() {
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let end = bytes.len() - 8;
        let digest = checksum(&bytes[..end]);
        bytes[end..].copy_from_slice(&digest.to_le_bytes());
        bytes
    }

    let base: Vec<u8> = (0..2048u32).map(|i| (i % 17) as u8).collect();
    let mut target = base.clone();
    target[9] = 0xAA;
    let frame = encode_delta_frame(3, &base, 4, &target);

    // Find the op-count field: payload layout after the sealed header
    // (magic 4 + version 2 + tag 2 + len 8) is tag u16, kind u8, epoch u64,
    // base_epoch u64, base_len u64, base_digest u64, target_len u64,
    // target_digest u64, then op_count u64.
    let op_count_at = 16 + 2 + 1 + 8 + 8 + 8 + 8 + 8 + 8;

    // Claim u64::MAX ops.
    let mut huge_ops = frame.clone();
    huge_ops[op_count_at..op_count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        apply_delta_frame(&base, 3, &reseal(huge_ops)),
        Err(CodecError::Truncated { .. })
    ));

    // Claim an absurd target length (output must never pre-allocate it).
    let target_len_at = 16 + 2 + 1 + 8 + 8 + 8 + 8;
    let mut huge_target = frame.clone();
    huge_target[target_len_at..target_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(apply_delta_frame(&base, 3, &reseal(huge_target)).is_err());

    // A copy op reaching past the base: craft a minimal delta by hand.
    let sneaky = encode_delta_frame(5, &base, 6, &base); // all-copy delta
    let mut replayed = sneaky.clone();
    // First op starts right after op_count; op = kind u8, base_off u64, len u64.
    let first_op_at = op_count_at + 8;
    replayed[first_op_at + 1..first_op_at + 9].copy_from_slice(&(base.len() as u64).to_le_bytes()); // base_off = len(base)
    assert!(
        apply_delta_frame(&base, 5, &reseal(replayed)).is_err(),
        "copy op past the end of the base applied successfully"
    );

    // Full frames: embedded snapshot length inflated past the payload.
    let mut writer = IncrementalCheckpointer::new();
    let full = match writer.checkpoint_bytes(base.clone(), 1) {
        CheckpointFrame::Full { bytes, .. } => bytes,
        CheckpointFrame::Delta { .. } => unreachable!("first frame is always full"),
    };
    let embedded_len_at = 16 + 2 + 1 + 8;
    let mut huge_embed = full.clone();
    huge_embed[embedded_len_at..embedded_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        unwrap_full_frame(&reseal(huge_embed)),
        Err(CodecError::Truncated { .. })
    ));
    // And the untampered full frame still unwraps (sanity).
    assert_eq!(unwrap_full_frame(&full).unwrap(), (base.clone(), 1));
    assert_eq!(peek_frame(&full).unwrap(), (FrameKind::Full, 1));
}

/// SplitMix64 step: the fixture generator of the golden chain below, kept
/// local so the digest depends on nothing but this file and the encoder.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A manifest-shaped snapshot: a fixed header, then a payload of skewed
/// little-endian `u64` items drawn fresh on every call — the coordinator's
/// replay buffers, which never repeat between barriers.
fn manifest_shaped(state: &mut u64, items: usize) -> Vec<u8> {
    let mut bytes: Vec<u8> = (0..96u8).collect();
    for _ in 0..items {
        let z = splitmix(state);
        let item = if z.is_multiple_of(4) {
            z % 5
        } else {
            (z >> 8) % 4_096
        };
        bytes.extend_from_slice(&item.to_le_bytes());
    }
    bytes
}

/// The encoder's output is pinned byte for byte: a fixed mixed chain —
/// manifest-shaped rebases, point edits, shifting inserts, truncations,
/// growth, an emptied state and sub-block states — under four rebase
/// policies, digested frame by frame. The digest was recorded before the
/// budgeted delta scan and its prefilter landed; any change to which
/// frames are deltas, or to their bytes, moves it.
#[test]
fn mixed_chain_frames_match_the_golden_digest() {
    let mut digest_input = Vec::new();
    let mut kinds = [0usize; 2];
    for &(max_chain, denominator) in &[(64u32, 2usize), (8, 1), (3, 4), (64, 16)] {
        let mut rng = 0x5EED ^ u64::from(max_chain) ^ ((denominator as u64) << 32);
        let mut writer = IncrementalCheckpointer::with_policy(max_chain, denominator);
        let mut state = manifest_shaped(&mut rng, 2_048);
        for epoch in 1..=60u64 {
            match epoch % 10 {
                // Manifest-shaped: the whole payload is new.
                0 | 5 => state = manifest_shaped(&mut rng, 1_024 + (epoch as usize) * 16),
                // A few point edits.
                1 | 6 => {
                    for _ in 0..1 + epoch % 7 {
                        let at = (splitmix(&mut rng) as usize) % state.len().max(1);
                        if let Some(byte) = state.get_mut(at) {
                            *byte ^= 0x5A;
                        }
                    }
                }
                // An insertion that shifts the tail.
                2 => {
                    let at = (splitmix(&mut rng) as usize) % (state.len() + 1);
                    let inserted: Vec<u8> = (0..1 + epoch % 40).map(|i| i as u8).collect();
                    state.splice(at..at, inserted);
                }
                // Truncation to a shorter state.
                3 => state.truncate(state.len() * 3 / 4),
                // Growth by a fresh tail of varying size.
                4 | 8 => {
                    let extra = manifest_shaped(&mut rng, (epoch as usize) * 8);
                    state.extend_from_slice(&extra[96..]);
                }
                // Emptied, then shorter than one matching block.
                7 => state.clear(),
                _ => state = (0..(epoch % 31) as u8).collect(),
            }
            let frame = writer.checkpoint_bytes(state.clone(), epoch);
            kinds[usize::from(frame.is_delta())] += 1;
            digest_input.extend_from_slice(&(frame.bytes().len() as u64).to_le_bytes());
            digest_input.extend_from_slice(frame.bytes());
        }
    }
    assert!(
        kinds[0] > 0 && kinds[1] > 0,
        "the golden chain must mix full and delta frames: {kinds:?}"
    );
    assert_eq!(
        format!("{:016x}", checksum(&digest_input)),
        "a643e3c9585bdcf5",
        "delta encoder output changed: {kinds:?} full/delta frames"
    );
}
