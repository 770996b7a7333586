//! The service's own counters: cache hits and misses by namespace, and
//! the batch former's fusion.

use dsr_sync::atomic::{AtomicU64, Ordering};

/// Thread-safe hit/miss counters for the service's query-result cache.
///
/// The service keys a bounded LRU cache on normalized query signatures;
/// these counters surface its effectiveness alongside the communication
/// counters of [`CommStats`](dsr_cluster::CommStats) so experiments can
/// report cache hit rates next to bytes shipped. A hit is counted by the
/// namespace that served it: the latest generation's, or a pinned reader's
/// retained one.
#[derive(Debug, Default)]
pub struct CacheStats {
    latest_hits: AtomicU64,
    pinned_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a hit in the latest generation's namespace.
    pub fn record_latest_hit(&self) {
        self.latest_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a hit served to a pinned reader from a retained (superseded)
    /// generation's namespace.
    pub fn record_pinned_hit(&self) {
        self.pinned_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache miss.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an LRU eviction.
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a full cache invalidation (index swap).
    pub fn record_invalidation(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of hits so far, in every namespace.
    pub fn hits(&self) -> u64 {
        self.latest_hits() + self.pinned_hits()
    }

    /// Number of hits in the latest generation's namespace so far.
    pub fn latest_hits(&self) -> u64 {
        self.latest_hits.load(Ordering::Relaxed)
    }

    /// Number of hits in retained generations' namespaces so far.
    pub fn pinned_hits(&self) -> u64 {
        self.pinned_hits.load(Ordering::Relaxed)
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of full invalidations so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Hit rate in `[0, 1]`; `0` when no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.latest_hits.store(0, Ordering::Relaxed);
        self.pinned_hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
    }
}

/// Thread-safe counters for the batch-forming service front end.
///
/// The service fuses cache-missing queries from all concurrent clients into shared protocol rounds; these counters surface
/// how well that fusion works:
///
/// * a **formed batch** is one leader's drain of the whole submission
///   queue (after the forming window, for a lone miss) — its size is
///   recorded in a power-of-two histogram ([`BatchStats::histogram`]);
/// * **queued wait** is the time from a query's submission to its batch
///   forming (mean/max in microseconds);
/// * the **fusion ratio** ([`BatchStats::fusion_ratio`]) is queries per
///   communication round — the direct measure of the cross-client
///   multiplier (un-fused serving pays `1/3` query per round; a perfectly
///   fused 64-query batch pays `64/3`).
#[derive(Debug, Default)]
pub struct BatchStats {
    batches: AtomicU64,
    queries: AtomicU64,
    executed: AtomicU64,
    late_hits: AtomicU64,
    rounds: AtomicU64,
    wait_us_total: AtomicU64,
    wait_us_max: AtomicU64,
    histogram: [AtomicU64; Self::HISTOGRAM_BUCKETS],
}

impl BatchStats {
    /// Number of formed-batch size histogram buckets: power-of-two ranges
    /// `1, 2–3, 4–7, …, ≥128` (see [`BatchStats::BUCKET_LABELS`]).
    pub const HISTOGRAM_BUCKETS: usize = 8;

    /// Human-readable labels of the histogram buckets.
    pub const BUCKET_LABELS: [&'static str; Self::HISTOGRAM_BUCKETS] = [
        "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+",
    ];

    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one formed batch of `size` drained queries.
    pub fn record_formed(&self, size: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.queries.fetch_add(size, Ordering::Relaxed);
        let bucket = (size.max(1).ilog2() as usize).min(Self::HISTOGRAM_BUCKETS - 1);
        self.histogram[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one query's queued wait before its batch formed.
    pub fn record_wait(&self, micros: u64) {
        self.wait_us_total.fetch_add(micros, Ordering::Relaxed);
        self.wait_us_max.fetch_max(micros, Ordering::Relaxed);
    }

    /// Records one fused execution of `executed` deduplicated queries
    /// costing `rounds` communication rounds.
    pub fn record_execution(&self, executed: u64, rounds: u64) {
        self.executed.fetch_add(executed, Ordering::Relaxed);
        self.rounds.fetch_add(rounds, Ordering::Relaxed);
    }

    /// Records a query resolved by the leader's cache re-probe (a
    /// concurrent execution answered it while it sat in the queue).
    pub fn record_late_hit(&self) {
        self.late_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of formed batches so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Number of queries drained into formed batches so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Number of deduplicated queries actually executed so far.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Number of queries resolved by the leader's cache re-probe.
    pub fn late_hits(&self) -> u64 {
        self.late_hits.load(Ordering::Relaxed)
    }

    /// Communication rounds of all fused executions so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Mean formed-batch size; `0` before the first batch.
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            0.0
        } else {
            self.queries() as f64 / batches as f64
        }
    }

    /// Mean queued wait in microseconds; `0` before the first query.
    pub fn mean_wait_us(&self) -> f64 {
        let queries = self.queries();
        if queries == 0 {
            0.0
        } else {
            self.wait_us_total.load(Ordering::Relaxed) as f64 / queries as f64
        }
    }

    /// Maximum queued wait in microseconds.
    pub fn max_wait_us(&self) -> u64 {
        self.wait_us_max.load(Ordering::Relaxed)
    }

    /// Queries per communication round; `0` before the first execution.
    pub fn fusion_ratio(&self) -> f64 {
        let rounds = self.rounds();
        if rounds == 0 {
            0.0
        } else {
            self.queries() as f64 / rounds as f64
        }
    }

    /// Snapshot of the formed-batch size histogram (bucket `i` counts
    /// batches of size in `[2^i, 2^(i+1))`, last bucket unbounded).
    pub fn histogram(&self) -> [u64; Self::HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.histogram[i].load(Ordering::Relaxed))
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.batches.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
        self.executed.store(0, Ordering::Relaxed);
        self.late_hits.store(0, Ordering::Relaxed);
        self.rounds.store(0, Ordering::Relaxed);
        self.wait_us_total.store(0, Ordering::Relaxed);
        self.wait_us_max.store(0, Ordering::Relaxed);
        for bucket in &self.histogram {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_counting() {
        let c = CacheStats::new();
        assert_eq!(c.hit_rate(), 0.0);
        c.record_latest_hit();
        c.record_latest_hit();
        c.record_pinned_hit();
        c.record_miss();
        c.record_eviction();
        c.record_invalidation();
        assert_eq!((c.hits(), c.latest_hits(), c.pinned_hits()), (3, 2, 1));
        assert_eq!(c.misses(), 1);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.invalidations(), 1);
        assert!((c.hit_rate() - 0.75).abs() < 1e-9);
        c.reset();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert_eq!((c.latest_hits(), c.pinned_hits()), (0, 0));
    }

    #[test]
    fn batch_stats_counting() {
        let b = BatchStats::new();
        assert_eq!(b.fusion_ratio(), 0.0);
        assert_eq!(b.mean_batch_size(), 0.0);
        b.record_formed(1); // bucket 0
        b.record_formed(48); // bucket 5 (32-63)
        b.record_formed(300); // clamped into the last bucket
        b.record_wait(10);
        b.record_wait(30);
        b.record_execution(40, 3);
        b.record_execution(1, 3);
        b.record_late_hit();
        assert_eq!(b.batches(), 3);
        assert_eq!(b.queries(), 349);
        assert_eq!(b.executed(), 41);
        assert_eq!(b.late_hits(), 1);
        assert_eq!(b.rounds(), 6);
        let hist = b.histogram();
        assert_eq!(hist[0], 1);
        assert_eq!(hist[5], 1);
        assert_eq!(hist[7], 1);
        assert!((b.mean_batch_size() - 349.0 / 3.0).abs() < 1e-9);
        assert!((b.mean_wait_us() - 40.0 / 349.0).abs() < 1e-9);
        assert_eq!(b.max_wait_us(), 30);
        assert!((b.fusion_ratio() - 349.0 / 6.0).abs() < 1e-9);
        b.reset();
        assert_eq!((b.batches(), b.queries(), b.rounds()), (0, 0, 0));
        assert_eq!(b.histogram(), [0; BatchStats::HISTOGRAM_BUCKETS]);
    }
}
