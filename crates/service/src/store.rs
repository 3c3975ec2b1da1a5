//! The per-shard on-disk checkpoint chain: an append-only file of
//! length-prefixed incremental frames ([`tps_streams::codec::delta`]).
//!
//! Layout: for each frame, a `u64` little-endian byte length followed by
//! the sealed frame bytes. [`CheckpointStore::commit`] makes a frame
//! durable before the worker acks the checkpoint barrier — the ack is the
//! coordinator's permission to drop its replay buffer, so durability must
//! come first. A delta frame, or the first frame of a chain, is appended
//! and `sync_data`ed; a full frame on a non-empty chain makes every frame
//! before it unreachable, so it replaces the whole chain in one atomic
//! write instead.
//! Recovery tolerates a torn tail (a crash mid-append leaves a partial
//! record): [`CheckpointStore::recover`] truncates the file back to the
//! last complete record before the worker resumes, so post-restart
//! appends — which open the file in append mode — land directly after
//! valid data instead of after the garbage. Anything before the tail is
//! checksummed frame by frame during replay.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use tps_streams::codec::delta::{peek_frame, CheckpointFrame, CheckpointReplayer, FrameKind};

/// One shard's append-only checkpoint chain.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    path: PathBuf,
}

/// What [`CheckpointStore::recover`] reconstructed from a chain.
#[derive(Debug, Clone)]
pub struct RecoveredChain {
    /// The epoch of the last complete checkpoint frame.
    pub epoch: u64,
    /// The reconstructed snapshot bytes at that epoch.
    pub snapshot: Vec<u8>,
    /// Delta frames in the chain since its last full frame — seeds the
    /// chain cap of
    /// [`IncrementalCheckpointer::resume`](tps_streams::codec::delta::IncrementalCheckpointer::resume)
    /// so frequent restarts cannot grow the chain without bound.
    pub deltas_since_base: u32,
}

impl CheckpointStore {
    /// The store for `shard` under `dir` (file `shard-<idx>.ckpt`).
    pub fn for_shard(dir: &Path, shard: usize) -> Self {
        Self {
            path: dir.join(format!("shard-{shard}.ckpt")),
        }
    }

    /// The coordinator's own chain under `dir` (file `coordinator.ckpt`),
    /// holding the job-manifest frames — same format, same torn-tail
    /// recovery as the shard chains.
    pub fn for_coordinator(dir: &Path) -> Self {
        Self {
            path: dir.join("coordinator.ckpt"),
        }
    }

    /// The chain file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one sealed frame durably (length prefix, bytes, fsync).
    pub fn append_frame(&self, frame: &[u8]) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(&(frame.len() as u64).to_le_bytes())?;
        file.write_all(frame)?;
        file.sync_data()
    }

    /// Makes one checkpoint frame durable, in one write.
    ///
    /// A delta frame, or any frame on an empty chain, is appended
    /// ([`Self::append_frame`]). A full frame on a non-empty chain is a
    /// rebase: nothing before it can be replayed again, so the chain is
    /// replaced by that one frame (temp file, fsync, rename, directory
    /// fsync). The file is byte-identical to appending the frame and then
    /// calling [`Self::compact`], without writing the frame twice or
    /// reading the chain back. A crash before the rename leaves the old
    /// chain, and a stale temp file the next replacement overwrites.
    pub fn commit(&self, frame: &CheckpointFrame) -> io::Result<()> {
        if frame.is_delta() || self.is_empty()? {
            self.append_frame(frame.bytes())
        } else {
            self.replace([frame.bytes()])
        }
    }

    /// Whether the chain holds no bytes (missing or zero-length file).
    fn is_empty(&self) -> io::Result<bool> {
        match std::fs::metadata(&self.path) {
            Ok(meta) => Ok(meta.len() == 0),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(true),
            Err(e) => Err(e),
        }
    }

    /// Atomically replaces the chain file with `frames`: they go to a
    /// temporary file, which is fsynced and renamed over the chain, and
    /// then the directory is fsynced so the rename itself is durable. A
    /// crash at any point leaves either the old chain or the new one.
    fn replace<'a>(&self, frames: impl IntoIterator<Item = &'a [u8]>) -> io::Result<()> {
        let tmp = self.path.with_extension("ckpt.tmp");
        let mut file = File::create(&tmp)?;
        for frame in frames {
            file.write_all(&(frame.len() as u64).to_le_bytes())?;
            file.write_all(frame)?;
        }
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, &self.path)?;
        if let Some(parent) = self.path.parent() {
            File::open(parent)?.sync_data()?;
        }
        Ok(())
    }

    /// Reads every complete frame in the chain (empty if the file does not
    /// exist). A torn final record — crash mid-append — is dropped; it was
    /// never acked, so the coordinator still holds the chunks it covered.
    pub fn load_frames(&self) -> io::Result<Vec<Vec<u8>>> {
        Ok(self.read_chain()?.0)
    }

    /// Reads the chain, returning its complete frames, the byte offset
    /// just past the last complete record (the file's valid length), and
    /// the actual file length. `valid < file_len` means a torn tail.
    fn read_chain(&self) -> io::Result<(Vec<Vec<u8>>, u64, u64)> {
        let mut bytes = Vec::new();
        match File::open(&self.path) {
            Ok(mut file) => {
                file.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0, 0)),
            Err(e) => return Err(e),
        }
        let mut frames = Vec::new();
        let mut pos = 0usize;
        while bytes.len() - pos >= 8 {
            let len =
                u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8-byte slice")) as usize;
            let Some(end) = pos.checked_add(8).and_then(|p| p.checked_add(len)) else {
                break; // torn tail: absurd length from a partial prefix
            };
            if end > bytes.len() {
                break; // torn tail: record extends past the file
            }
            frames.push(bytes[pos + 8..end].to_vec());
            pos = end;
        }
        Ok((frames, pos as u64, bytes.len() as u64))
    }

    /// Replays the chain, returning the reconstruction (`None` for an
    /// empty or missing chain). A chain that fails to replay is a real
    /// integrity error — torn tails are dropped before replay, so what
    /// remains must apply cleanly.
    ///
    /// A torn tail is also truncated away *on disk*: [`Self::append_frame`]
    /// opens the file in append mode, so without the truncation a partial
    /// record left by a crash mid-append would sit between the recovered
    /// frames and everything appended after the restart — and the *next*
    /// recovery would either fail outright or, if the partial record's
    /// length prefix happened to still cover the file, silently drop every
    /// frame after the torn point. Call this before resuming appends.
    pub fn recover(&self) -> io::Result<Option<RecoveredChain>> {
        let (frames, valid, file_len) = self.read_chain()?;
        if valid < file_len {
            let file = OpenOptions::new().write(true).open(&self.path)?;
            file.set_len(valid)?;
            file.sync_data()?;
        }
        let mut replayer = CheckpointReplayer::new();
        for (index, frame) in frames.iter().enumerate() {
            replayer.apply(frame).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint chain {} frame {index}: {e}",
                        self.path.display()
                    ),
                )
            })?;
        }
        let deltas_since_base = replayer.deltas_since_base();
        Ok(replayer
            .into_current()
            .map(|(epoch, snapshot)| RecoveredChain {
                epoch,
                snapshot,
                deltas_since_base,
            }))
    }

    /// Garbage-collects the chain: drops every frame before the last
    /// *full* frame (a rebase makes its predecessors unreachable — replay
    /// restarts at the newest full frame regardless), and a torn tail with
    /// them. Returns the number of frames pruned.
    ///
    /// The surviving suffix is written with the same atomic replacement
    /// as [`Self::commit`], so a crash at any point leaves either the old
    /// chain or the new one — both replay to the identical state, which
    /// is exactly what the GC byte-identity test pins. [`Self::commit`]
    /// already leaves a rebased chain compact; calling this at any time is
    /// correct, and a no-op on a compact chain.
    pub fn compact(&self) -> io::Result<usize> {
        let (frames, valid, file_len) = self.read_chain()?;
        let base = frames
            .iter()
            .rposition(|frame| matches!(peek_frame(frame), Ok((FrameKind::Full, _))))
            .unwrap_or(0);
        if base == 0 && valid == file_len {
            return Ok(0); // nothing unreachable, no torn tail to shed
        }
        self.replace(frames[base..].iter().map(Vec::as_slice))?;
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_streams::codec::delta::IncrementalCheckpointer;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tps-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn chain_round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::for_shard(&dir, 0);
        let _ = std::fs::remove_file(store.path());
        let mut writer = IncrementalCheckpointer::new();
        let mut state = vec![0x5Au8; 4096];
        for epoch in 1..=5u64 {
            state[epoch as usize * 11] = epoch as u8;
            let frame = writer.checkpoint_bytes(state.clone(), epoch);
            store.append_frame(frame.bytes()).unwrap();
        }
        let chain = store.recover().unwrap().expect("chain recovers");
        assert_eq!(chain.epoch, 5);
        assert_eq!(chain.snapshot, state);
        assert_eq!(chain.deltas_since_base, 4, "full at 1, deltas at 2..=5");
        assert_eq!(store.load_frames().unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_chain_recovers_to_fresh() {
        let dir = temp_dir("fresh");
        let store = CheckpointStore::for_shard(&dir, 3);
        let _ = std::fs::remove_file(store.path());
        assert!(store.recover().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = temp_dir("torn");
        let store = CheckpointStore::for_shard(&dir, 1);
        let _ = std::fs::remove_file(store.path());
        let mut writer = IncrementalCheckpointer::new();
        let state = vec![7u8; 2048];
        let frame = writer.checkpoint_bytes(state.clone(), 1);
        store.append_frame(frame.bytes()).unwrap();
        // Simulate a crash mid-append of the next frame.
        let valid_len = std::fs::metadata(store.path()).unwrap().len();
        let mut torn = std::fs::read(store.path()).unwrap();
        torn.extend_from_slice(&999u64.to_le_bytes());
        torn.extend_from_slice(&[1, 2, 3]);
        std::fs::write(store.path(), &torn).unwrap();
        let chain = store.recover().unwrap().expect("intact prefix recovers");
        assert_eq!((chain.epoch, chain.snapshot), (1, state));
        // The torn record is gone from disk too, not just skipped in
        // memory — recovery resets the file to its last complete record.
        assert_eq!(std::fs::metadata(store.path()).unwrap().len(), valid_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_recovery_byte_for_byte() {
        let dir = temp_dir("compact");
        let store = CheckpointStore::for_coordinator(&dir);
        let _ = std::fs::remove_file(store.path());
        // Chain cap 2: a rebase (full frame) lands every third checkpoint,
        // so the chain accumulates unreachable prefixes to collect.
        let mut writer = IncrementalCheckpointer::with_policy(2, 64);
        let mut state = vec![0x11u8; 4096];
        for epoch in 1..=8u64 {
            state[epoch as usize] = epoch as u8;
            store
                .append_frame(writer.checkpoint_bytes(state.clone(), epoch).bytes())
                .unwrap();
        }
        let before_frames = store.load_frames().unwrap();
        let before = store.recover().unwrap().expect("chain recovers");

        let pruned = store.compact().unwrap();
        assert!(pruned > 0, "an 8-frame cap-2 chain has dead prefixes");
        let after_frames = store.load_frames().unwrap();
        assert_eq!(before_frames.len() - pruned, after_frames.len());
        assert_eq!(
            peek_frame(&after_frames[0]).unwrap().0,
            FrameKind::Full,
            "a compacted chain starts at its base"
        );

        // The headline contract: recovery from the pruned chain is
        // byte-identical to recovery from the unpruned chain.
        let after = store.recover().unwrap().expect("pruned chain recovers");
        assert_eq!(before.epoch, after.epoch);
        assert_eq!(before.snapshot, after.snapshot);
        assert_eq!(before.deltas_since_base, after.deltas_since_base);

        // Compacting an already-compact chain is a no-op.
        assert_eq!(store.compact().unwrap(), 0);
        assert_eq!(store.load_frames().unwrap(), after_frames);

        // And appends continue cleanly after a GC (append mode lands at
        // the end of the rewritten file).
        state[99] = 0xFE;
        store
            .append_frame(writer.checkpoint_bytes(state.clone(), 9).bytes())
            .unwrap();
        let resumed = store.recover().unwrap().expect("chain recovers");
        assert_eq!((resumed.epoch, resumed.snapshot), (9, state));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_after_torn_tail_recovery_stay_recoverable() {
        // The crash-restart-crash scenario: a torn tail must not poison
        // frames appended after recovery (append mode writes at the end
        // of the file, wherever recovery left it).
        let dir = temp_dir("torn-append");
        let store = CheckpointStore::for_shard(&dir, 2);
        let _ = std::fs::remove_file(store.path());
        let mut writer = IncrementalCheckpointer::new();
        let mut state = vec![9u8; 2048];
        store
            .append_frame(writer.checkpoint_bytes(state.clone(), 1).bytes())
            .unwrap();
        // Crash mid-append: a partial record whose length prefix still
        // "covers" bytes that a later append would provide — the nasty
        // variant, where without truncation the garbage would masquerade
        // as a valid record swallowing the real next frame.
        let mut torn = std::fs::read(store.path()).unwrap();
        torn.extend_from_slice(&64u64.to_le_bytes());
        torn.extend_from_slice(&[0xEE; 5]);
        std::fs::write(store.path(), &torn).unwrap();

        // Restart: recover (drops + truncates the tail), resume the
        // writer, append the next checkpoint.
        let chain = store.recover().unwrap().expect("prefix recovers");
        assert_eq!(chain.epoch, 1);
        let mut writer =
            IncrementalCheckpointer::resume(chain.epoch, chain.snapshot, chain.deltas_since_base);
        state[77] = 0xAB;
        store
            .append_frame(writer.checkpoint_bytes(state.clone(), 2).bytes())
            .unwrap();

        // The next recovery sees both frames, not garbage.
        let chain = store.recover().unwrap().expect("chain recovers");
        assert_eq!(chain.epoch, 2);
        assert_eq!(chain.snapshot, state);
        assert_eq!(store.load_frames().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One length-prefixed record, as the chain file stores a frame.
    fn record(frame: &[u8]) -> Vec<u8> {
        let mut bytes = (frame.len() as u64).to_le_bytes().to_vec();
        bytes.extend_from_slice(frame);
        bytes
    }

    #[test]
    fn commit_matches_append_then_compact_byte_for_byte() {
        let dir = temp_dir("commit");
        let committed = CheckpointStore::for_shard(&dir, 0);
        let appended = CheckpointStore::for_shard(&dir, 1);
        let _ = std::fs::remove_file(committed.path());
        let _ = std::fs::remove_file(appended.path());
        // Chain cap 2 rebases every third checkpoint; the fresh tail at
        // epoch 7 is a rebase for size.
        let mut writer = IncrementalCheckpointer::with_policy(2, 4);
        let mut state = vec![0x33u8; 4096];
        let mut rebases = 0;
        for epoch in 1..=10u64 {
            state[epoch as usize * 5] = epoch as u8;
            if epoch == 7 {
                state = (0..4096u32).map(|i| (i * 7 % 251) as u8).collect();
            }
            let frame = writer.checkpoint_bytes(state.clone(), epoch);
            committed.commit(&frame).unwrap();
            appended.append_frame(frame.bytes()).unwrap();
            if !frame.is_delta() {
                rebases += 1;
                appended.compact().unwrap();
                // A rebase leaves exactly its own frame on disk.
                assert_eq!(
                    std::fs::read(committed.path()).unwrap(),
                    record(frame.bytes())
                );
            }
            assert_eq!(
                std::fs::read(committed.path()).unwrap(),
                std::fs::read(appended.path()).unwrap(),
                "chains diverged at epoch {epoch}"
            );
        }
        assert!(rebases >= 3, "the chain must rebase mid-way: {rebases}");
        let chain = committed.recover().unwrap().expect("chain recovers");
        assert_eq!((chain.epoch, chain.snapshot), (10, state));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_commit_is_a_plain_append() {
        let dir = temp_dir("first-commit");
        let store = CheckpointStore::for_shard(&dir, 0);
        let tmp = store.path().with_extension("ckpt.tmp");
        let _ = std::fs::remove_file(store.path());
        // A stale temp file survives: an append never touches it, a
        // replacement would have renamed it over the chain.
        std::fs::write(&tmp, b"stale").unwrap();
        let frame = IncrementalCheckpointer::new().checkpoint_bytes(vec![4u8; 512], 1);
        assert!(!frame.is_delta());
        store.commit(&frame).unwrap();
        assert_eq!(std::fs::read(store.path()).unwrap(), record(frame.bytes()));
        assert_eq!(std::fs::read(&tmp).unwrap(), b"stale");
        // An empty chain file counts as empty too.
        std::fs::write(store.path(), b"").unwrap();
        store.commit(&frame).unwrap();
        assert_eq!(std::fs::read(store.path()).unwrap(), record(frame.bytes()));
        assert_eq!(std::fs::read(&tmp).unwrap(), b"stale");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_temp_file_from_a_crashed_rebase_is_harmless() {
        let dir = temp_dir("stale-tmp");
        let store = CheckpointStore::for_shard(&dir, 0);
        let tmp = store.path().with_extension("ckpt.tmp");
        let _ = std::fs::remove_file(store.path());
        let mut writer = IncrementalCheckpointer::with_policy(2, 2);
        let mut state = vec![0x44u8; 4096];
        for epoch in 1..=3u64 {
            state[epoch as usize] = epoch as u8;
            store
                .commit(&writer.checkpoint_bytes(state.clone(), epoch))
                .unwrap();
        }
        let before = std::fs::read(store.path()).unwrap();
        // A crash before the rename: a half-written replacement is left
        // beside the chain, which is untouched.
        std::fs::write(&tmp, &before[..before.len() / 3]).unwrap();
        let chain = store.recover().unwrap().expect("old chain recovers");
        assert_eq!((chain.epoch, &chain.snapshot), (3, &state));
        assert_eq!(std::fs::read(store.path()).unwrap(), before);

        // The restarted writer's next rebase (the chain cap is reached)
        // overwrites the stale temp file and renames it into place.
        let mut writer =
            IncrementalCheckpointer::resume_with_policy(2, 2, chain.epoch, chain.snapshot, 2);
        state[99] = 0x99;
        let frame = writer.checkpoint_bytes(state.clone(), 4);
        assert!(!frame.is_delta());
        store.commit(&frame).unwrap();
        assert!(!tmp.exists(), "the temp file was renamed over the chain");
        assert_eq!(std::fs::read(store.path()).unwrap(), record(frame.bytes()));
        let chain = store.recover().unwrap().expect("new chain recovers");
        assert_eq!((chain.epoch, chain.snapshot), (4, state));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
