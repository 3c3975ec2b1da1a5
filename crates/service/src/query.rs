//! The non-stalling query plane: a dedicated accept thread plus one
//! detached handler thread per client, serving merged samples from a
//! shared **snapshot cache** so that no client — however slow to read its
//! reply — can ever hold up an ingest barrier.
//!
//! ## The published-cut cache
//!
//! Every barrier of a live plane publishes its consistent cut (checkpoint
//! barriers are upgraded to `BarrierKind::CheckpointPublish`; query and
//! final barriers carry snapshots anyway) into a [`CutCache`], the same
//! cut cache `ShardedSampler::query` serves from, behind a mutex held
//! only for a pointer swap or clone. So the newest completed barrier is
//! always the newest published cut, and the plane measures staleness
//! against that cut: any published cut meets any bound, and a cached
//! query escalates only while the cache is still empty.
//!
//! ## Consistent queries without stalling ingest
//!
//! A consistent query (or a cached one the cache cannot serve) posts a
//! [`CutRequest`] to the coordinator over an mpsc channel and blocks **in
//! its own handler thread** on the private reply channel. The ingest loop
//! drains pending requests at chunk boundaries: one query barrier serves
//! *all* of them with the same `Arc<PublishedCut>`. The barrier itself
//! never touches a client socket — a wedged client blocks only its own
//! detached thread.
//!
//! ## Merging off the barrier path
//!
//! Merge coins are deterministic (`seed ^ MERGE_SEED_SALT`, fresh per
//! merge), so *any* thread reproduces the canonical merged answer from a
//! cut's snapshots. Handler threads do their own merging, memoized per
//! epoch, keeping the coordinator's barrier loop free of restore/merge
//! work entirely.

use std::io::{self, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tps_streams::wire::transport::{Connection, TcpConnection, TcpServerListener};
use tps_streams::wire::{reject, WireMessage};
use tps_streams::{CutCache, QueryOptions, QuerySnapshot};

use crate::config::SamplerKind;
use crate::coordinator::{merge_report, QueryReport};

/// One consistent cut, as collected by an ingest barrier: the per-shard
/// sealed snapshots plus the coordinates that pin where in the stream the
/// cut was taken. Shared between the ingest loop and every query handler
/// via `Arc` — snapshots are never copied per client.
#[derive(Debug)]
pub struct PublishedCut {
    /// The barrier epoch that produced the cut.
    pub epoch: u64,
    /// Chunks routed when the cut was taken.
    pub chunks_routed: u64,
    /// Stream items routed when the cut was taken (the prefix length).
    pub processed: u64,
    /// Per-shard sealed snapshots, in shard order (empty for a plain
    /// checkpoint barrier, whose acks carry none).
    pub snapshots: Vec<Vec<u8>>,
}

/// A handler thread's demand for a fresh consistent cut, drained by the
/// ingest loop at the next chunk boundary. The reply channel is private
/// to the requesting handler; the coordinator answers every pending
/// request with the same `Arc`.
pub struct CutRequest {
    reply: Sender<Arc<PublishedCut>>,
}

impl CutRequest {
    /// Answers the request. A dead handler (client hung up) just drops
    /// the receiver; that is not the coordinator's problem.
    pub fn fulfil(self, cut: &Arc<PublishedCut>) {
        let _ = self.reply.send(Arc::clone(cut));
    }
}

/// Query-plane counters, all updated with relaxed atomics from handler
/// threads and snapshotted by [`QueryPlane::stats`]. The spirit of
/// `tps_core::RuntimeStats`, one layer up.
#[derive(Debug, Default)]
struct PlaneCounters {
    served: AtomicU64,
    rejected: AtomicU64,
    latency_total_micros: AtomicU64,
    latency_max_micros: AtomicU64,
}

/// A point-in-time copy of the plane's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryPlaneStats {
    /// Queries answered with a `QueryReply`.
    pub served: u64,
    /// Cached queries answered straight from the newest published cut.
    pub cache_hits: u64,
    /// Queries answered from a fresh consistent cut: every consistent
    /// query, plus cached ones that found no published cut.
    pub cache_misses: u64,
    /// Queries answered with a typed `QueryRejected`.
    pub rejected: u64,
    /// Sum of per-query latencies, in microseconds.
    pub latency_total_micros: u64,
    /// Worst single-query latency, in microseconds.
    pub latency_max_micros: u64,
}

impl QueryPlaneStats {
    /// Mean per-query latency in microseconds (0 when nothing served).
    pub fn latency_mean_micros(&self) -> u64 {
        self.latency_total_micros
            .checked_div(self.served)
            .unwrap_or(0)
    }
}

/// State shared by the ingest loop, the accept thread and every handler.
struct Shared {
    kind: SamplerKind,
    seed: u64,
    /// The newest published cut and the plane's cache hit/miss counts.
    cache: Mutex<CutCache<PublishedCut>>,
    /// Merged report for the cut at a given epoch, computed at most once
    /// however many clients ask (merging is deterministic).
    memo: Mutex<Option<(u64, QueryReport)>>,
    /// Set by [`QueryPlane::finish`]; the accept thread exits and late
    /// escalations are rejected instead of queued.
    shutdown: AtomicBool,
    counters: PlaneCounters,
    /// Handler → coordinator demands for a fresh consistent cut.
    requests: Sender<CutRequest>,
}

impl Shared {
    fn cache(&self) -> std::sync::MutexGuard<'_, CutCache<PublishedCut>> {
        self.cache.lock().expect("cut cache lock")
    }

    /// The plane's cached-query decision: every barrier publishes, so the
    /// live epoch is the newest published cut's own.
    fn lookup(&self, options: &QueryOptions) -> Option<QuerySnapshot<Arc<PublishedCut>>> {
        let mut cache = self.cache();
        let live = cache.newest_epoch().unwrap_or(0);
        cache.lookup(options, live)
    }

    /// The memoized canonical merged report for `cut`.
    fn merged(&self, cut: &PublishedCut) -> io::Result<QueryReport> {
        let mut memo = self.memo.lock().expect("memo lock");
        if let Some((epoch, report)) = memo.as_ref() {
            if *epoch == cut.epoch {
                return Ok(report.clone());
            }
        }
        let report = merge_report(self.kind, &cut.snapshots, self.seed, cut.processed)?;
        *memo = Some((cut.epoch, report.clone()));
        Ok(report)
    }
}

/// How long the accept thread sleeps (at most) between shutdown checks;
/// `accept_within` backs off internally, so an idle plane costs a handful
/// of polls per second.
const ACCEPT_SLICE: Duration = Duration::from_millis(50);

/// The coordinator's handle on the query plane. Constructed with
/// [`QueryPlane::start`]; fed via [`QueryPlane::publish`] and the
/// [`CutRequest`] channel; torn down with [`QueryPlane::finish`].
pub struct QueryPlane {
    shared: Arc<Shared>,
    requests: Receiver<CutRequest>,
    accept_thread: Option<JoinHandle<()>>,
}

impl QueryPlane {
    /// Binds `addr`, announces `query-listening <bound-addr>` on stdout
    /// (flushed, so spawning tests can read it), and spawns the dedicated
    /// accept thread. Handler threads are detached: a client that wedges
    /// mid-reply leaks one parked thread, never a barrier.
    pub fn start(addr: &str, kind: SamplerKind, seed: u64) -> io::Result<Self> {
        let listener = TcpServerListener::bind(addr)
            .map_err(|e| io::Error::new(e.kind(), format!("query listener {addr}: {e}")))?;
        println!("query-listening {}", listener.local_addr()?);
        io::stdout().flush()?;
        let (requests_tx, requests_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            kind,
            seed,
            cache: Mutex::new(CutCache::default()),
            memo: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            counters: PlaneCounters::default(),
            requests: requests_tx,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("tps-query-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Self {
            shared,
            requests: requests_rx,
            accept_thread: Some(accept_thread),
        })
    }

    /// Publishes a consistent cut into the cut cache. Called by the
    /// ingest loop right after collecting barrier acks — the only
    /// synchronisation is the pointer swap.
    pub fn publish(&self, cut: PublishedCut) -> Arc<PublishedCut> {
        let cut = Arc::new(cut);
        self.shared
            .cache()
            .publish(cut.epoch, cut.chunks_routed, Arc::clone(&cut));
        cut
    }

    /// Drains every consistent-cut demand that is waiting right now,
    /// without blocking. The ingest loop calls this at chunk boundaries:
    /// a non-empty answer is worth exactly one query barrier.
    pub fn take_requests(&self) -> Vec<CutRequest> {
        let mut pending = Vec::new();
        while let Ok(request) = self.requests.try_recv() {
            pending.push(request);
        }
        pending
    }

    /// Blocks until at least one consistent-cut demand arrives, then
    /// drains the rest. Deterministic-test hook (`--await-query-after-chunks`):
    /// "a query landed at exactly this cut" becomes a fact, not a race.
    pub fn wait_for_request(&self) -> io::Result<Vec<CutRequest>> {
        let first = self.requests.recv().map_err(|_| {
            io::Error::new(
                io::ErrorKind::BrokenPipe,
                "query plane hung up while the coordinator awaited a query",
            )
        })?;
        let mut pending = vec![first];
        pending.extend(self.take_requests());
        Ok(pending)
    }

    /// A point-in-time copy of the plane's counters.
    pub fn stats(&self) -> QueryPlaneStats {
        let c = &self.shared.counters;
        let cache = self.shared.cache().stats();
        QueryPlaneStats {
            served: c.served.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            rejected: c.rejected.load(Ordering::Relaxed),
            latency_total_micros: c.latency_total_micros.load(Ordering::Relaxed),
            latency_max_micros: c.latency_max_micros.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, joins the accept thread, and logs the counter
    /// summary to stderr. Handler threads are *not* joined — they hold
    /// only an `Arc` of shared state and their own socket, so a stalled
    /// client cannot delay job completion; late escalations get a typed
    /// `QueryRejected` because the request channel keeps working until
    /// the plane is dropped.
    pub fn finish(mut self) -> QueryPlaneStats {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let stats = self.stats();
        eprintln!(
            "query-plane: served={} cache_hits={} cache_misses={} rejected={} \
             latency_mean_us={} latency_max_us={}",
            stats.served,
            stats.cache_hits,
            stats.cache_misses,
            stats.rejected,
            stats.latency_mean_micros(),
            stats.latency_max_micros,
        );
        stats
    }
}

impl Drop for QueryPlane {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// The dedicated accept loop: short bounded waits (so shutdown is
/// noticed promptly) with `accept_within`'s internal backoff keeping an
/// idle plane cheap; each accepted client gets a detached handler thread.
fn accept_loop(listener: TcpServerListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept_within(ACCEPT_SLICE) {
            Ok(Some(conn)) => {
                let handler_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("tps-query-handler".into())
                    .spawn(move || handle_client(conn, handler_shared));
                if let Err(e) = spawned {
                    eprintln!("query-plane: cannot spawn handler: {e}");
                }
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("query-plane: accept failed: {e}");
                break;
            }
        }
    }
}

/// Serves one client conversation end to end in its own thread. Errors
/// are logged, never propagated — a broken client is its own problem.
fn handle_client(mut conn: TcpConnection, shared: Arc<Shared>) {
    if let Err(e) = serve_one(&mut conn, &shared) {
        eprintln!("query-plane: client failed: {e}");
    }
}

fn serve_one(conn: &mut TcpConnection, shared: &Shared) -> io::Result<()> {
    // Server-first Hello: the client learns the protocol version and the
    // CACHED_QUERY capability bit before committing to its options.
    let newest = shared.cache().newest_epoch().unwrap_or(0);
    conn.send(&WireMessage::hello(0, newest))?;
    let options = match conn.recv() {
        Ok(Some(WireMessage::Query { options })) => options,
        Ok(Some(other)) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("query client sent {other:?}"),
            ))
        }
        Ok(None) => return Ok(()), // dialed and hung up; nothing to serve
        Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    };

    let start = Instant::now();
    let (cut, cached) = match shared.lookup(&options) {
        Some(hit) => (hit.value, true),
        // A consistent query, or an empty cache: force a consistent cut.
        None => match request_cut(shared) {
            Some(cut) => {
                shared.cache().record_miss();
                (cut, false)
            }
            None => {
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let (code, detail) = match options.max_epochs_stale() {
                    Some(_) => (
                        reject::STALE,
                        "no published cut, and the job is no longer running",
                    ),
                    None => (
                        reject::CLOSED,
                        "the job is no longer running; no consistent cut available",
                    ),
                };
                let detail = detail.into();
                return conn.send(&WireMessage::QueryRejected { code, detail });
            }
        },
    };

    // Merge in *this* thread (memoized per epoch): the barrier loop never
    // restores or merges for the query plane.
    let report = shared.merged(&cut)?;
    conn.send(&WireMessage::QueryReply {
        processed: report.processed,
        merged_fnv: report.merged_fnv,
        epoch: cut.epoch,
        cut: cut.chunks_routed,
        cached,
        sample: report.sample,
    })?;

    let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let c = &shared.counters;
    c.served.fetch_add(1, Ordering::Relaxed);
    c.latency_total_micros.fetch_add(micros, Ordering::Relaxed);
    c.latency_max_micros.fetch_max(micros, Ordering::Relaxed);
    eprintln!(
        "query-plane: served epoch={} cut={} cached={} latency_us={}",
        cut.epoch, cut.chunks_routed, cached, micros
    );
    Ok(())
}

/// Posts a consistent-cut demand to the ingest loop and blocks (in the
/// handler's thread only) until it is fulfilled at the next chunk
/// boundary. `None` when the coordinator is gone or shutting down.
fn request_cut(shared: &Shared) -> Option<Arc<PublishedCut>> {
    if shared.shutdown.load(Ordering::Acquire) {
        // The final cut is always published before shutdown; a cached
        // query already found the cache unsatisfiable, and no new barrier
        // will ever run.
        return None;
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    shared.requests.send(CutRequest { reply: reply_tx }).ok()?;
    reply_rx.recv().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ephemeral-port plane; the full socket conversation is covered
    /// by the smoke suite, so these unit tests exercise the cut cache,
    /// the staleness decision and the request channel directly.
    fn plane_for_test() -> QueryPlane {
        QueryPlane::start("127.0.0.1:0", SamplerKind::L2, 7).unwrap()
    }

    fn cut(epoch: u64) -> PublishedCut {
        PublishedCut {
            epoch,
            chunks_routed: epoch * 3,
            processed: epoch * 3_000,
            snapshots: vec![Vec::new()],
        }
    }

    #[test]
    fn publish_replaces_the_newest_cut() {
        let plane = plane_for_test();
        assert_eq!(plane.shared.cache().newest_epoch(), None);
        assert!(plane.shared.lookup(&QueryOptions::cached(0)).is_none());
        plane.publish(cut(4));
        plane.publish(cut(9));
        let hit = plane.shared.lookup(&QueryOptions::cached(0)).unwrap();
        assert_eq!((hit.epoch, hit.cut, hit.cached), (9, 27, true));
        assert_eq!(hit.value.processed, 27_000);
        plane.finish();
    }

    /// The plane measures staleness against its newest published cut, so
    /// once any cut is published every cached bound hits, and consistent
    /// queries never do; hits and misses land in the plane's stats.
    #[test]
    fn staleness_is_measured_against_the_newest_published_cut() {
        let plane = plane_for_test();
        plane.publish(cut(5));
        for bound in [0, 1, u64::MAX] {
            let hit = plane.shared.lookup(&QueryOptions::cached(bound)).unwrap();
            assert_eq!(hit.epoch, 5);
        }
        assert!(plane.shared.lookup(&QueryOptions::consistent()).is_none());
        plane.shared.cache().record_miss();
        let stats = plane.finish();
        assert_eq!((stats.cache_hits, stats.cache_misses), (3, 1));
    }

    #[test]
    fn cut_requests_round_trip_through_the_channel() {
        let plane = plane_for_test();
        let shared = Arc::clone(&plane.shared);
        let asker = std::thread::spawn(move || request_cut(&shared).map(|c| c.epoch));
        // The ingest loop's side: block for the demand, serve it with a
        // published cut.
        let pending = plane.wait_for_request().unwrap();
        assert_eq!(pending.len(), 1);
        let published = plane.publish(cut(2));
        for request in pending {
            request.fulfil(&published);
        }
        assert_eq!(asker.join().unwrap(), Some(2));
        // After shutdown, demands are refused instead of queued forever.
        let stats = plane.finish();
        assert_eq!(stats.served, 0, "no socket clients in this test");
    }

    #[test]
    fn shutdown_refuses_new_cut_requests() {
        let plane = plane_for_test();
        let shared = Arc::clone(&plane.shared);
        plane.finish();
        assert!(request_cut(&shared).is_none());
    }
}
