//! # tps-service — the networked checkpointing ingest service
//!
//! The persistent runtime in `tps_core::runtime` scales ingest across
//! *threads*; this crate scales the same design across *processes* and
//! *sockets*. `k` worker processes each own one shard of a sampler (they
//! never see the full stream), a coordinator routes items with the exact
//! in-process routing function ([`tps_core::sharded::hash_route`]) and
//! drives the epoch/barrier discipline over a pluggable transport
//! ([`tps_streams::wire::transport`]) — stdin/stdout pipes or TCP — using
//! the versioned framed protocol in [`tps_streams::wire`]:
//!
//! * **Checkpoint barriers** make every worker commit an incremental
//!   checkpoint frame — [`tps_streams::codec::delta`] — to its on-disk
//!   chain and ack; the acks move the coordinator's replay cursor forward.
//!   [`CheckpointStore::commit`] appends a delta frame, and a rebase
//!   replaces the chain with its full frame in one atomic write, so the
//!   chain never holds frames replay cannot reach.
//! * **Query barriers** collect every worker's full sealed snapshot at a
//!   consistent cut; the coordinator restores and fold-merges them in
//!   shard order with the merge RNG seeded `seed ^ MERGE_SEED_SALT`, so
//!   the merged answer is **byte-identical** to an in-process
//!   [`ShardedSampler`](tps_core::sharded::ShardedSampler) over the same
//!   stream (the `reference` subcommand computes exactly that). A TCP
//!   **query plane** ([`query::QueryPlane`]) serves that answer to any
//!   number of concurrent clients ([`client::QueryClient`]) *while ingest
//!   runs*, off the barrier loop: checkpoint barriers publish their cut
//!   into a snapshot cache, cached queries are answered straight from it,
//!   and consistent queries cost one query barrier at the next chunk
//!   boundary — a wedged client blocks only its own detached handler
//!   thread, never a barrier (see `query.rs`).
//!
//! ## Failure semantics
//!
//! The coordinator keeps no copy of the stream. Its input is the
//! deterministic workload, read through a resumable
//! [`config::JobCursor`]; it keeps one cursor at the first chunk some
//! shard's acked checkpoint does not cover, plus the boundary chunk of
//! every checkpoint since. When a checkpoint at epoch `E` is acked by
//! every worker (each wrote the frame to disk before acking), the cursor
//! moves up to `E`'s boundary. When a worker dies, the coordinator
//! respawns (or re-dials) it; the fresh process replays its on-disk
//! chain, reports the recovered epoch in its `Hello`, and the coordinator
//! regenerates the stream from its cursor, re-routes it and re-sends that
//! worker exactly the sub-chunks past the recovered epoch's boundary.
//! Re-ingesting those chunks on top of the restored state reproduces the
//! uninterrupted run's shard state byte for byte — which the smoke test
//! asserts end to end through the merged query.
//!
//! The coordinator applies the same discipline to *itself*: before every
//! checkpoint barrier it appends a [`manifest::JobManifest`] — spec,
//! stream cut, per-shard acked epochs and endpoints, checkpoint
//! boundaries and the cursor — to its own chain (fsync-before-barrier), so
//! a SIGKILLed coordinator resumes with [`coordinator::resume_job`] and
//! finishes with a byte-identical final query. See `manifest.rs` for the
//! crash-consistency argument.
//!
//! Jobs are described by a typed, codec-serializable [`JobSpec`] built
//! with [`ServiceBuilder`]; the CLI in `main.rs` is a thin parser over it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod client;
pub mod config;
pub mod coordinator;
pub mod manifest;
pub mod query;
pub mod store;
pub mod worker;

pub use client::{QueryClient, QueryError};
pub use config::{
    DieSpec, FaultPlan, JobSpec, KillSpec, QueryPlan, SamplerKind, ServiceBuilder, TransportKind,
    WorkerConfig,
};
pub use coordinator::{resume_job, run_job, run_reference, QueryReport};
pub use query::{QueryPlane, QueryPlaneStats};
pub use store::CheckpointStore;
// The typed query surface is defined once in `tps_streams` and
// re-exported here: the same `QueryOptions`/`QuerySnapshot` pair drives
// `ShardedSampler::query`, `QueryClient::query` and the CLI.
pub use tps_streams::{QueryConsistency, QueryOptions, QuerySnapshot};
