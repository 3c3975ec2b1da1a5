//! The unified typed query surface shared by every query entry point.
//!
//! The paper's headline property is that a truly perfect sample is
//! available *at any query point*; this module types what "query point"
//! means so all three front doors — `ShardedSampler::query()` in-process,
//! the service's `QueryClient`, and the `tps-service query` subcommand —
//! speak the same vocabulary:
//!
//! * [`QueryConsistency`] picks between the two service levels. A
//!   **consistent** query forces a fresh cut (an epoch barrier in the
//!   service, a fold-merge in-process) and is byte-identical to the
//!   reference merge at that cut. A **cached** query is answered from the
//!   last published cut when that cut is at most `max_epochs_stale`
//!   epochs behind the live epoch — no barrier, no merge, no waiting on
//!   ingest.
//! * [`QueryOptions`] is the request: just the consistency level today,
//!   but a struct so future knobs ride the same surface.
//! * [`QuerySnapshot`] is the reply envelope: the answer plus the cut it
//!   was drawn at (`epoch`, `cut`) and whether a cache served it.
//! * [`CutCache`] is the one cache both front doors serve cached queries
//!   from: the newest published cut, the staleness test, the hit/miss
//!   counts ([`QueryCacheStats`]).
//!
//! Staleness is measured in **epochs** (barrier generations), not wall
//! time: `Cached { max_epochs_stale: 0 }` accepts only the cut of the
//! *current* epoch, `1` tolerates one barrier of lag, and so on. The live
//! epoch is `ShardedSampler`'s ingest-call count; in the service, where
//! every barrier publishes, it is the newest published cut's. A cut
//! staler than the bound escalates to the consistent path — cached mode
//! bounds staleness, it never violates it.

use std::sync::Arc;

/// How fresh a query's answer must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryConsistency {
    /// Force a fresh consistent cut: an epoch barrier across all shards
    /// (service) or a fresh fold-merge (in-process). Byte-identical to
    /// the reference merge at the cut. This is the default.
    #[default]
    Consistent,
    /// Serve from the last published cut if it is at most
    /// `max_epochs_stale` epochs behind the live epoch; escalate to the
    /// consistent path otherwise.
    Cached {
        /// Maximum tolerated lag, in epochs, between the live epoch and
        /// the cut that answers the query. `0` = only the current
        /// epoch's cut.
        max_epochs_stale: u64,
    },
}

/// A typed query request: what every query front door accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryOptions {
    /// The consistency level ([`QueryConsistency::Consistent`] by
    /// default).
    pub consistency: QueryConsistency,
}

impl QueryOptions {
    /// A consistent-cut query (the default).
    pub fn consistent() -> Self {
        QueryOptions {
            consistency: QueryConsistency::Consistent,
        }
    }

    /// A cached query tolerating at most `max_epochs_stale` epochs of lag.
    pub fn cached(max_epochs_stale: u64) -> Self {
        QueryOptions {
            consistency: QueryConsistency::Cached { max_epochs_stale },
        }
    }

    /// The staleness bound, if this is a cached query.
    pub fn max_epochs_stale(&self) -> Option<u64> {
        match self.consistency {
            QueryConsistency::Consistent => None,
            QueryConsistency::Cached { max_epochs_stale } => Some(max_epochs_stale),
        }
    }
}

/// A query answer pinned to the cut it was drawn at.
///
/// `T` is whatever the front door answers with: the service replies with
/// its merged `QueryReport`, `ShardedSampler::query()` with the merged
/// sampler itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySnapshot<T> {
    /// The answer, drawn at the cut below.
    pub value: T,
    /// The barrier epoch of the cut that produced the answer.
    pub epoch: u64,
    /// The cut position: chunks routed at the barrier (service) or
    /// updates routed (in-process).
    pub cut: u64,
    /// Whether a published cache served the answer (`true`) or a fresh
    /// consistent cut was forced (`false`).
    pub cached: bool,
}

impl<T> QuerySnapshot<T> {
    /// Maps the answer, keeping the cut metadata.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> QuerySnapshot<U> {
        QuerySnapshot {
            value: f(self.value),
            epoch: self.epoch,
            cut: self.cut,
            cached: self.cached,
        }
    }
}

/// Hit/miss counters of a [`CutCache`]: plain integers, cheap to read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Cached queries answered from the newest published cut.
    pub hits: u64,
    /// Queries answered from a fresh consistent cut: every consistent
    /// request, plus cached requests whose staleness bound the cache could
    /// not satisfy.
    pub misses: u64,
}

/// The newest published consistent cut and the one staleness policy that
/// serves cached queries from it (empty by default). A caller whose
/// [`CutCache::lookup`] misses forces a fresh cut, counts it with
/// [`CutCache::record_miss`] and may [`CutCache::publish`] it.
#[derive(Debug)]
pub struct CutCache<T> {
    newest: Option<QuerySnapshot<Arc<T>>>,
    stats: QueryCacheStats,
}

impl<T> Default for CutCache<T> {
    fn default() -> Self {
        Self {
            newest: None,
            stats: QueryCacheStats::default(),
        }
    }
}

impl<T> CutCache<T> {
    /// Replaces the newest published cut with `value`, drawn at barrier
    /// `epoch` and cut position `cut`.
    pub fn publish(&mut self, epoch: u64, cut: u64, value: Arc<T>) {
        self.newest = Some(QuerySnapshot {
            value,
            epoch,
            cut,
            cached: true,
        });
    }

    /// The barrier epoch of the newest published cut, if any.
    pub fn newest_epoch(&self) -> Option<u64> {
        self.newest.as_ref().map(|newest| newest.epoch)
    }

    /// Answers a [`QueryConsistency::Cached`] request from the newest
    /// published cut when `live_epoch − cut.epoch ≤ max_epochs_stale`
    /// (saturating), counting the hit. `None`, counting nothing, for an
    /// empty cache, a staler cut or a consistent request.
    pub fn lookup(
        &mut self,
        options: &QueryOptions,
        live_epoch: u64,
    ) -> Option<QuerySnapshot<Arc<T>>> {
        let bound = options.max_epochs_stale()?;
        let newest = self.newest.as_ref()?;
        if live_epoch.saturating_sub(newest.epoch) > bound {
            return None;
        }
        self.stats.hits += 1;
        Some(newest.clone())
    }

    /// Counts a query answered from a fresh consistent cut.
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// The hit/miss counts so far.
    pub fn stats(&self) -> QueryCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        assert_eq!(
            QueryOptions::default().consistency,
            QueryConsistency::Consistent
        );
        assert_eq!(QueryOptions::consistent(), QueryOptions::default());
        assert_eq!(QueryOptions::default().max_epochs_stale(), None);
    }

    #[test]
    fn cached_carries_its_staleness_bound() {
        let opts = QueryOptions::cached(3);
        assert_eq!(
            opts.consistency,
            QueryConsistency::Cached {
                max_epochs_stale: 3
            }
        );
        assert_eq!(opts.max_epochs_stale(), Some(3));
    }

    #[test]
    fn snapshot_map_keeps_the_cut() {
        let snap = QuerySnapshot {
            value: 21u64,
            epoch: 4,
            cut: 12,
            cached: true,
        };
        let doubled = snap.map(|v| v * 2);
        assert_eq!(doubled.value, 42);
        assert_eq!((doubled.epoch, doubled.cut, doubled.cached), (4, 12, true));
    }

    fn warm(epoch: u64) -> CutCache<&'static str> {
        let mut cache = CutCache::default();
        cache.publish(epoch, epoch * 10, Arc::new("answer"));
        cache
    }

    #[test]
    fn empty_cache_misses() {
        let mut cache = CutCache::<u64>::default();
        assert_eq!(cache.newest_epoch(), None);
        assert!(cache.lookup(&QueryOptions::cached(u64::MAX), 0).is_none());
        assert_eq!(cache.stats(), QueryCacheStats::default());
    }

    #[test]
    fn a_lag_equal_to_the_bound_hits() {
        let mut cache = warm(5);
        let hit = cache.lookup(&QueryOptions::cached(3), 8).unwrap();
        assert_eq!((hit.epoch, hit.cut, hit.cached), (5, 50, true));
        assert_eq!(*hit.value, "answer");
        // A cut newer than the caller's clock counts as current.
        assert!(cache.lookup(&QueryOptions::cached(0), 2).is_some());
    }

    #[test]
    fn a_lag_one_past_the_bound_misses() {
        let mut cache = warm(5);
        assert!(cache.lookup(&QueryOptions::cached(3), 9).is_none());
        assert!(cache.lookup(&QueryOptions::cached(0), 6).is_none());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn consistent_requests_always_miss() {
        let mut cache = warm(5);
        assert!(cache.lookup(&QueryOptions::consistent(), 5).is_none());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn hit_and_miss_counts_are_exact() {
        let mut cache = warm(4);
        for live in 4..=6 {
            assert!(cache.lookup(&QueryOptions::cached(2), live).is_some());
        }
        assert!(cache.lookup(&QueryOptions::cached(2), 7).is_none());
        cache.record_miss();
        cache.publish(7, 70, Arc::new("fresher"));
        assert_eq!(
            *cache.lookup(&QueryOptions::cached(0), 7).unwrap().value,
            "fresher"
        );
        assert_eq!(cache.newest_epoch(), Some(7));
        assert_eq!(cache.stats(), QueryCacheStats { hits: 4, misses: 1 });
    }
}
