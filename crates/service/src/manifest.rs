//! The coordinator's durable job manifest: the [`JobSpec`], the routing
//! position, each shard's acked checkpoint epoch and endpoint, and the
//! workload *cursor* from which every chunk not yet covered by a
//! checkpoint can be regenerated — sealed as one codec snapshot
//! (`tag::JOB_CURSOR_MANIFEST`) and checkpointed through the same delta
//! chain machinery workers use. It holds no stream data: its size is
//! O(shards) plus the cursor (a few hundred bytes for the insertion-only
//! kinds; for `turnstile` one bit per universe item plus one count per
//! item still live), whatever the stream length.
//!
//! ## Write-before-barrier
//!
//! The manifest for checkpoint barrier `E` is appended (and fsynced) to
//! the coordinator's chain **before** the barrier is sent. It records:
//!
//! * `chunks_routed`, the exact stream cut of `E`;
//! * the boundaries `(e, c)`: checkpoint `e` covers the chunks before `c`.
//!   They run from the oldest checkpoint some shard has acked up to `E`
//!   itself, so every epoch a worker's chain can hold is listed;
//! * the cursor at the first boundary's chunk — the first chunk that some
//!   shard's acked checkpoint does not cover.
//!
//! That ordering is the whole crash-consistency argument: a worker can
//! only have durable state at epoch `E` if barrier `E` was sent, and
//! barrier `E` is only sent after a manifest listing `E`'s boundary is on
//! disk. So on resume, whatever epoch `e ≤ E` each worker recovered to,
//! its boundary `c` is in the manifest; regenerating the deterministic
//! stream from the cursor, re-routing it and re-sending that shard's
//! sub-chunks from chunk `c` to `chunks_routed`, then routing on from
//! `chunks_routed`, reproduces every shard byte for byte. Chunks the dead
//! coordinator routed *after* writing the manifest died with it (pipe
//! workers die on EOF; socket workers discard in-memory state and
//! re-recover from disk on every new connection), so nothing is double
//! counted.
//!
//! [`Manifest`] and [`ShardState`] are the pre-cursor layout, which
//! embedded untrimmed replay buffers of raw updates. The coordinator no
//! longer reads or writes them; they stay public, unchanged, for the
//! benchmark harness's in-process replay, which builds them by struct
//! literal to price the old manifest path.

use tps_streams::codec::{seal, tag, unseal, CodecError, SnapshotReader, SnapshotWriter};
use tps_streams::wire::IngestPayload;

use crate::config::{get_str, put_str, JobCursor, JobSpec};

/// One shard's entry in a [`JobManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// The last checkpoint epoch this shard acked (its chain is durable
    /// at least to here).
    pub acked_epoch: u64,
    /// The worker's endpoint (`host:port`) for socket transports — how a
    /// resumed coordinator finds the still-running listener. `None` for
    /// pipe workers (they die with the coordinator and are respawned).
    pub endpoint: Option<String>,
}

/// The coordinator's durable state: config, routing position, per-shard
/// acks and endpoints, checkpoint boundaries and the workload cursor. One
/// manifest is appended per checkpoint barrier (see the module docs).
#[derive(Debug, Clone)]
pub struct JobManifest {
    /// The full job description (the manifest *is* the config snapshot).
    pub spec: JobSpec,
    /// The checkpoint epoch this manifest precedes.
    pub epoch: u64,
    /// Stream chunks routed so far — the cut of barrier `epoch`.
    pub chunks_routed: u64,
    /// Per-shard state, in shard order.
    pub shards: Vec<ShardEntry>,
    /// `(checkpoint epoch, first chunk it does not cover)`, epochs
    /// strictly ascending; the first entry is the cursor's position.
    pub boundaries: Vec<(u64, u64)>,
    /// The workload cursor at the first boundary's chunk.
    pub cursor: JobCursor,
}

fn put_endpoint(w: &mut SnapshotWriter, endpoint: Option<&str>) {
    match endpoint {
        None => w.put_u8(0),
        Some(endpoint) => {
            w.put_u8(1);
            put_str(w, endpoint);
        }
    }
}

fn get_endpoint(r: &mut SnapshotReader<'_>) -> Result<Option<String>, CodecError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_str(r)?)),
        _ => Err(CodecError::InvalidValue {
            what: "shard endpoint option flag",
        }),
    }
}

impl JobManifest {
    /// Seals the manifest as one snapshot (`tag::JOB_CURSOR_MANIFEST`).
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(
            &self.spec,
            self.epoch,
            self.chunks_routed,
            self.shards
                .iter()
                .map(|shard| (shard.acked_epoch, shard.endpoint.as_deref())),
            &self.boundaries,
            &self.cursor,
        )
    }

    /// Seals a manifest from borrowed parts, each shard given as its
    /// `(acked epoch, endpoint)`: the bytes [`Self::encode`] writes for
    /// the same fields, without first cloning them into a [`JobManifest`].
    pub fn encode_parts<'a>(
        spec: &JobSpec,
        epoch: u64,
        chunks_routed: u64,
        shards: impl ExactSizeIterator<Item = (u64, Option<&'a str>)>,
        boundaries: &[(u64, u64)],
        cursor: &JobCursor,
    ) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_tag(tag::JOB_CURSOR_MANIFEST);
        spec.encode_into(&mut w);
        w.put_u64(epoch);
        w.put_u64(chunks_routed);
        w.put_len(shards.len());
        for (acked_epoch, endpoint) in shards {
            w.put_u64(acked_epoch);
            put_endpoint(&mut w, endpoint);
        }
        w.put_len(boundaries.len());
        for &(epoch, chunk) in boundaries {
            w.put_u64(epoch);
            w.put_u64(chunk);
        }
        cursor.encode_into(&mut w);
        seal(tag::JOB_CURSOR_MANIFEST, &w.into_bytes())
    }

    /// Decodes a sealed manifest. Beyond the codec checks, the manifest
    /// must describe a job that can run: a spec that passes
    /// [`JobSpec::validate`], one entry per worker, and boundaries that
    /// start at the cursor and ascend to at most `chunks_routed`.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let invalid = |what| Err(CodecError::InvalidValue { what });
        let payload = unseal(tag::JOB_CURSOR_MANIFEST, bytes)?;
        let mut r = SnapshotReader::new(payload);
        r.expect_tag(tag::JOB_CURSOR_MANIFEST)?;
        let spec = JobSpec::decode_from(&mut r)?;
        if spec.validate().is_err() {
            return invalid("manifest spec fails validation");
        }
        let epoch = r.get_u64()?;
        let chunks_routed = r.get_u64()?;
        let shard_count = r.get_len(9)?;
        if shard_count != spec.workers {
            return invalid("manifest shard count does not match the spec");
        }
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let acked_epoch = r.get_u64()?;
            let endpoint = get_endpoint(&mut r)?;
            shards.push(ShardEntry {
                acked_epoch,
                endpoint,
            });
        }
        let boundary_count = r.get_len(16)?;
        let mut boundaries = Vec::with_capacity(boundary_count);
        for _ in 0..boundary_count {
            boundaries.push((r.get_u64()?, r.get_u64()?));
        }
        let cursor = JobCursor::decode_from(&mut r, &spec)?;
        r.finish()?;
        let ordered = boundaries
            .windows(2)
            .all(|pair| pair[0].0 < pair[1].0 && pair[0].1 <= pair[1].1);
        match (boundaries.first(), boundaries.last()) {
            (Some(&(_, first)), Some(&(last_epoch, last)))
                if ordered
                    && first == cursor.chunks()
                    && last <= chunks_routed
                    && last_epoch <= epoch
                    && chunks_routed <= cursor.total_chunks() => {}
            _ => return invalid("manifest boundaries do not fit its cursor and cut"),
        }
        Ok(Self {
            spec,
            epoch,
            chunks_routed,
            shards,
            boundaries,
            cursor,
        })
    }
}

/// One shard's coordinator-side state in the pre-cursor [`Manifest`]
/// layout (see the module docs).
#[derive(Debug, Clone)]
pub struct ShardState<U> {
    /// The last checkpoint epoch this shard acked (its chain is durable
    /// at least to here).
    pub acked_epoch: u64,
    /// The worker's endpoint (`host:port`) for socket transports — how a
    /// resumed coordinator finds the still-running listener. `None` for
    /// pipe workers (they die with the coordinator and are respawned).
    pub endpoint: Option<String>,
    /// Chunks sent since the last acked checkpoint, each tagged with the
    /// epoch of the last barrier sent before it — the replay buffer,
    /// exactly as the in-memory protocol keeps it.
    pub replay: Vec<(u64, Vec<U>)>,
}

/// The pre-cursor manifest layout: config plus routing position plus
/// replay buffers of raw updates (`tag::JOB_MANIFEST`). The coordinator
/// writes [`JobManifest`] instead; this type is kept, unchanged, for the
/// benchmark harness's in-process replay (see the module docs).
#[derive(Debug, Clone)]
pub struct Manifest<U> {
    /// The full job description (the manifest *is* the config snapshot).
    pub spec: JobSpec,
    /// The checkpoint epoch this manifest precedes (see module docs).
    pub epoch: u64,
    /// Stream chunks routed so far — the cut of barrier `epoch`; a
    /// resumed coordinator regenerates the deterministic stream and
    /// continues from exactly this chunk.
    pub chunks_routed: u64,
    /// Per-shard state, in shard order.
    pub shards: Vec<ShardState<U>>,
}

impl<U: IngestPayload> Manifest<U> {
    /// Seals the manifest as one snapshot (`tag::JOB_MANIFEST`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_tag(tag::JOB_MANIFEST);
        self.spec.encode_into(&mut w);
        w.put_u64(self.epoch);
        w.put_u64(self.chunks_routed);
        w.put_len(self.shards.len());
        for shard in &self.shards {
            w.put_u64(shard.acked_epoch);
            put_endpoint(&mut w, shard.endpoint.as_deref());
            w.put_len(shard.replay.len());
            for (epoch_tag, items) in &shard.replay {
                w.put_u64(*epoch_tag);
                w.put_len(items.len());
                for item in items {
                    U::put(&mut w, item);
                }
            }
        }
        seal(tag::JOB_MANIFEST, &w.into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SamplerKind, ServiceBuilder, TransportKind};
    use tps_streams::{Item, SignedUpdate};

    fn spec(kind: SamplerKind) -> JobSpec {
        ServiceBuilder::new(kind, 2)
            .seed(99)
            .count(5_000)
            .chunk(250)
            .checkpoint_dir("/tmp/tps-manifest-test")
            .transport(TransportKind::Tcp {
                endpoints: Vec::new(),
            })
            .build()
            .unwrap()
    }

    /// A manifest as the coordinator writes it before checkpoint barrier
    /// `epoch` at `chunks_routed`, with every shard acked at the previous
    /// checkpoint, whose boundary is `previous` chunks in.
    fn manifest_at(spec: &JobSpec, previous: u64, chunks_routed: u64) -> JobManifest {
        let mut cursor = JobCursor::for_spec(spec);
        if spec.sampler.is_turnstile() {
            let mut chunk: Vec<SignedUpdate> = Vec::new();
            while cursor.chunks() < previous && cursor.next_chunk(&mut chunk) {}
        } else {
            let mut chunk: Vec<Item> = Vec::new();
            while cursor.chunks() < previous && cursor.next_chunk(&mut chunk) {}
        }
        JobManifest {
            spec: spec.clone(),
            epoch: 7,
            chunks_routed,
            shards: vec![
                ShardEntry {
                    acked_epoch: 6,
                    endpoint: Some("127.0.0.1:40123".into()),
                },
                ShardEntry {
                    acked_epoch: 6,
                    endpoint: None,
                },
            ],
            boundaries: vec![(6, previous), (7, chunks_routed)],
            cursor,
        }
    }

    #[test]
    fn job_manifest_round_trips_for_both_cursor_kinds() {
        for kind in [SamplerKind::L2, SamplerKind::Turnstile] {
            let manifest = manifest_at(&spec(kind), 9, 12);
            let bytes = manifest.encode();
            let back = JobManifest::decode(&bytes).unwrap();
            assert_eq!(back.spec, manifest.spec);
            assert_eq!(
                (back.epoch, back.chunks_routed),
                (manifest.epoch, manifest.chunks_routed)
            );
            assert_eq!(back.shards, manifest.shards);
            assert_eq!(back.boundaries, manifest.boundaries);
            assert_eq!(back.cursor.chunks(), 9);
            assert_eq!(back.encode(), bytes, "{}: re-encode drifted", kind.as_str());
        }
    }

    /// The manifest holds cursors, not copies: at the end of a 10⁴- and a
    /// 10⁶-update `l2` job it has the same encoded size, well under a
    /// kilobyte, so coordinator memory does not grow with the stream.
    #[test]
    fn job_manifest_size_does_not_grow_with_the_stream() {
        let sizes: Vec<usize> = [10_000usize, 1_000_000]
            .into_iter()
            .map(|count| {
                let spec = JobSpec {
                    count,
                    ..spec(SamplerKind::L2)
                };
                let chunks = count.div_ceil(spec.chunk) as u64;
                manifest_at(&spec, chunks - 1, chunks).encode().len()
            })
            .collect();
        assert_eq!(sizes[0], sizes[1]);
        assert!(sizes[0] < 1024, "l2 manifest is {} bytes", sizes[0]);
    }

    /// Decoding rejects manifests that could not drive a job: boundaries
    /// that do not start at the cursor or that run past the cut, a shard
    /// count that disagrees with the spec, and a cursor of the wrong kind.
    #[test]
    fn inconsistent_job_manifests_fail_typed() {
        let spec = spec(SamplerKind::L2);
        let mut broken = Vec::new();
        let mut m = manifest_at(&spec, 9, 12);
        m.boundaries = vec![(6, 8), (7, 12)];
        broken.push(("boundary off the cursor", m));
        let mut m = manifest_at(&spec, 9, 12);
        m.boundaries = vec![(6, 9), (7, 13)];
        broken.push(("boundary past the cut", m));
        let mut m = manifest_at(&spec, 9, 12);
        m.boundaries = vec![(7, 9), (6, 12)];
        broken.push(("epochs out of order", m));
        let mut m = manifest_at(&spec, 9, 12);
        m.boundaries.clear();
        broken.push(("no boundaries", m));
        let mut m = manifest_at(&spec, 9, 12);
        m.shards.pop();
        broken.push(("shard count", m));
        let mut m = manifest_at(&spec, 9, 12);
        m.spec.sampler = SamplerKind::Turnstile;
        broken.push(("cursor kind", m));
        let mut m = manifest_at(&spec, 9, 12);
        m.chunks_routed = 10_000;
        m.boundaries = vec![(6, 9)];
        broken.push(("cut past the stream", m));
        for (what, manifest) in broken {
            assert!(
                matches!(
                    JobManifest::decode(&manifest.encode()),
                    Err(CodecError::InvalidValue { .. })
                ),
                "{what} decoded"
            );
        }
        let mut bytes = manifest_at(&spec, 9, 12).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(JobManifest::decode(&bytes).is_err());
    }

    /// A coordinator killed mid-append leaves a torn frame at the tail of
    /// its manifest chain; recovery must truncate it and resume from the
    /// last *complete* manifest, which still decodes.
    #[test]
    fn torn_manifest_tail_recovers_to_last_complete_manifest() {
        use crate::store::CheckpointStore;
        use tps_streams::codec::delta::IncrementalCheckpointer;

        let dir = std::env::temp_dir().join(format!("tps-manifest-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::for_coordinator(&dir);

        let spec = spec(SamplerKind::L2);
        let mut writer = IncrementalCheckpointer::new();
        let mut manifest = manifest_at(&spec, 0, 0);
        for seq in 1..=3 {
            manifest.epoch = seq;
            manifest.chunks_routed = seq * 4;
            manifest.boundaries = vec![(0, 0), (seq, seq * 4)];
            let frame = writer.checkpoint_bytes(manifest.encode(), seq);
            store.append_frame(frame.bytes()).unwrap();
        }

        // Tear the tail: a length prefix promising more bytes than exist,
        // as a crash between the two writes of an append would leave.
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(store.path())
                .unwrap();
            file.write_all(&512u64.to_le_bytes()).unwrap();
            file.write_all(&[0xAB; 17]).unwrap();
        }

        let chain = store.recover().unwrap().expect("chain survives the tear");
        assert_eq!(chain.epoch, 3);
        let recovered = JobManifest::decode(&chain.snapshot).unwrap();
        assert_eq!(recovered.encode(), manifest.encode());
        // The torn tail is gone for good: appends continue cleanly.
        manifest.epoch = 4;
        let frame = writer.checkpoint_bytes(manifest.encode(), 4);
        store.append_frame(frame.bytes()).unwrap();
        assert_eq!(store.recover().unwrap().unwrap().epoch, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
