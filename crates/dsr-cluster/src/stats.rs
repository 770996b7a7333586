//! Communication statistics collected by the simulated cluster.

use dsr_sync::atomic::{AtomicU64, Ordering};

/// Thread-safe counters for rounds, messages and bytes exchanged.
///
/// A fresh instance is typically created per query (or per index build) so
/// experiments can report per-query communication, matching the paper's
/// "Comm. Size (in KB)" plots.
#[derive(Debug, Default)]
pub struct CommStats {
    rounds: AtomicU64,
    messages: AtomicU64,
    bytes: AtomicU64,
}

impl CommStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one communication round (a bulk exchange among all nodes).
    pub fn record_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a single message of `bytes` bytes.
    pub fn record_message(&self, bytes: usize) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Number of communication rounds so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Number of messages so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Number of bytes so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Bytes expressed in kilobytes (the unit of Figure 5 / Figure 8).
    pub fn kilobytes(&self) -> f64 {
        self.bytes() as f64 / 1024.0
    }

    /// Bulk-adds `rounds` rounds and `messages` messages totalling `bytes`
    /// bytes (used to fold one query's counters into a long-lived
    /// aggregate).
    pub fn add(&self, rounds: u64, messages: u64, bytes: u64) {
        self.rounds.fetch_add(rounds, Ordering::Relaxed);
        self.messages.fetch_add(messages, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Folds another collector's counters into this one.
    pub fn merge(&self, other: &CommStats) {
        let (rounds, messages, bytes) = other.snapshot();
        self.add(rounds, messages, bytes);
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.rounds.store(0, Ordering::Relaxed);
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }

    /// Snapshot of `(rounds, messages, bytes)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (self.rounds(), self.messages(), self.bytes())
    }
}

impl Clone for CommStats {
    fn clone(&self) -> Self {
        let c = CommStats::new();
        c.rounds.store(self.rounds(), Ordering::Relaxed);
        c.messages.store(self.messages(), Ordering::Relaxed);
        c.bytes.store(self.bytes(), Ordering::Relaxed);
        c
    }
}

/// Communication cost of one differential index refresh (Section 3.3.3).
///
/// Incremental updates ship `SummaryDelta` refresh messages (defined in
/// `dsr-core::protocol`) through the same [`Transport`](crate::Transport)
/// as queries, so their cost is *measured* wire bytes — the quantities
/// behind the paper's Figure 6 — rather than an estimate. `update_rounds`
/// is `0` when an update batch turned out to be communication-free
/// (duplicates, reachability-preserving local insertions) and `1` when a
/// refresh exchange ran.
///
/// The struct is a plain value snapshot (unlike the atomic [`CommStats`]):
/// one is returned per update batch and aggregates are folded with
/// [`UpdateStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Communication rounds of the refresh exchange (0 or 1 per batch).
    pub update_rounds: u64,
    /// Refresh messages shipped (one per affected-partition delta per
    /// receiving peer).
    pub update_messages: u64,
    /// Exact wire bytes of the shipped deltas (byte-identical between the
    /// in-process and wire backends).
    pub update_bytes: u64,
}

impl UpdateStats {
    /// Snapshot of a [`CommStats`] collector that recorded one refresh
    /// exchange.
    pub fn from_comm(comm: &CommStats) -> Self {
        let (update_rounds, update_messages, update_bytes) = comm.snapshot();
        UpdateStats {
            update_rounds,
            update_messages,
            update_bytes,
        }
    }

    /// Folds another batch's counters into this aggregate.
    pub fn merge(&mut self, other: &UpdateStats) {
        self.update_rounds += other.update_rounds;
        self.update_messages += other.update_messages;
        self.update_bytes += other.update_bytes;
    }

    /// Whether the update shipped anything at all.
    pub fn is_zero(&self) -> bool {
        *self == UpdateStats::default()
    }
}

/// A field-less stand-in, kept only for `benchmark/`, which reads
/// `TcpTransport::failover_stats().retries()`.
#[derive(Debug)]
pub struct FailoverStats;

impl FailoverStats {
    /// Always 0: a TCP collective runs once.
    pub fn retries(&self) -> u64 {
        0
    }
}

/// Thread-safe hit/miss counters for a query-result cache.
///
/// The serving layer (`dsr-service`) keys a bounded LRU cache on normalized
/// query signatures; these counters surface its effectiveness alongside the
/// communication counters of [`CommStats`] so experiments can report cache
/// hit rates next to bytes shipped.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a cache hit.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache miss.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an insertion of a freshly computed result.
    pub fn record_insertion(&self) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an LRU eviction.
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a full cache invalidation (index swap).
    pub fn record_invalidation(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of insertions so far.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
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
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.insertions.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
    }
}

/// Thread-safe counters for the batch-forming service front end.
///
/// The serving layer (`dsr-service`) fuses cache-missing queries from all
/// concurrent clients into shared protocol rounds; these counters surface
/// how well that fusion works:
///
/// * a **formed batch** is one drain of the submission queue (window
///   elapsed, size cap reached, or explicit flush) — its size is recorded
///   in a power-of-two histogram ([`BatchStats::histogram`]);
/// * **queued wait** is the time a query spent in the submission queue
///   before its batch formed (mean/max in microseconds);
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

    /// Records a query resolved by the scheduler's cache re-probe (a
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

    /// Number of queries resolved by the scheduler's cache re-probe.
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
    use dsr_sync::Arc;

    #[test]
    fn counting() {
        let s = CommStats::new();
        s.record_round();
        for _ in 0..4 {
            s.record_message(100);
        }
        assert_eq!(s.rounds(), 1);
        assert_eq!(s.messages(), 4);
        assert_eq!(s.bytes(), 400);
        assert!((s.kilobytes() - 400.0 / 1024.0).abs() < 1e-9);
        assert_eq!(s.snapshot(), (1, 4, 400));
        let aggregate = CommStats::new();
        aggregate.add(2, 2, 50);
        aggregate.merge(&s);
        assert_eq!(aggregate.snapshot(), (3, 6, 450));
        s.reset();
        assert_eq!(s.snapshot(), (0, 0, 0));
    }

    #[test]
    fn concurrent_counting() {
        let s = Arc::new(CommStats::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                dsr_sync::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_message(10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.messages(), 8000);
        assert_eq!(s.bytes(), 80_000);
    }

    #[test]
    fn cache_stats_counting() {
        let c = CacheStats::new();
        assert_eq!(c.hit_rate(), 0.0);
        c.record_hit();
        c.record_hit();
        c.record_hit();
        c.record_miss();
        c.record_insertion();
        c.record_eviction();
        c.record_invalidation();
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.insertions(), 1);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.invalidations(), 1);
        assert!((c.hit_rate() - 0.75).abs() < 1e-9);
        c.reset();
        assert_eq!((c.hits(), c.misses(), c.insertions()), (0, 0, 0));
    }

    #[test]
    fn update_stats_snapshot_and_merge() {
        let comm = CommStats::new();
        assert!(UpdateStats::from_comm(&comm).is_zero());
        comm.record_round();
        comm.add(0, 4, 120);
        let batch = UpdateStats::from_comm(&comm);
        assert_eq!(
            batch,
            UpdateStats {
                update_rounds: 1,
                update_messages: 4,
                update_bytes: 120,
            }
        );
        let mut total = UpdateStats::default();
        total.merge(&batch);
        total.merge(&batch);
        assert_eq!(total.update_messages, 8);
        assert_eq!(total.update_bytes, 240);
        assert!(!total.is_zero());
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

    #[test]
    fn clone_snapshots_values() {
        let s = CommStats::new();
        s.record_message(5);
        let c = s.clone();
        s.record_message(5);
        assert_eq!(c.messages(), 1);
        assert_eq!(s.messages(), 2);
    }
}
