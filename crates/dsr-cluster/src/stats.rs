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
    fn clone_snapshots_values() {
        let s = CommStats::new();
        s.record_message(5);
        let c = s.clone();
        s.record_message(5);
        assert_eq!(c.messages(), 1);
        assert_eq!(s.messages(), 2);
    }
}
