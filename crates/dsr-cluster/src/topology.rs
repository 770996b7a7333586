//! Partition-addressed routing: which workers host which partitions.
//!
//! The collectives of [`Transport`](crate::Transport) are addressed by
//! **partition index**, not by worker index. A [`Topology`] is the routing
//! table that closes the gap: for every partition it holds an **ordered
//! replica set** of worker ids (the first entry is the primary), plus a
//! per-worker *suspect* flag the master flips when a worker stops
//! answering. Routing a partition means picking its first non-suspect
//! replica, which is exactly the failover rule: when the primary dies the
//! same logical messages are retried against the next replica.
//!
//! The in-process and wire backends use the [identity](Topology::identity)
//! topology (partition `p` lives on logical node `p`, replication 1) —
//! their behavior and [`CommStats`](crate::CommStats) accounting are
//! unchanged by the partition-addressing refactor. The TCP backend places
//! partitions [round-robin](Topology::round_robin) over the workers of its
//! [`ClusterSpec`](crate::ClusterSpec): partition `p` is hosted by workers
//! `p % W, (p+1) % W, …` up to the replication factor.

/// Partition → ordered replica set routing table with per-worker suspect
/// tracking. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `replicas[p]` = ordered worker ids hosting partition `p`; the first
    /// entry is the primary.
    replicas: Vec<Vec<usize>>,
    /// `suspect[w]` = worker `w` is currently considered unreachable.
    suspect: Vec<bool>,
}

impl Topology {
    /// The trivial topology: partition `p` is hosted by logical node `p`,
    /// replication 1. This is what the in-process and wire backends
    /// report — worker ids and partition ids coincide.
    pub fn identity(num_partitions: usize) -> Self {
        Topology {
            replicas: (0..num_partitions).map(|p| vec![p]).collect(),
            suspect: vec![false; num_partitions],
        }
    }

    /// Round-robin replica placement: partition `p` is hosted by workers
    /// `p % W, (p+1) % W, …` — `replication` distinct workers (clamped to
    /// `W`). With `replication == 1` this is exactly the historical
    /// `partition % num_workers` routing, so a non-replicated cluster
    /// routes (and measures) identically to the pre-topology code.
    ///
    /// # Panics
    /// Panics if `num_workers` or `replication` is zero.
    pub fn round_robin(num_partitions: usize, num_workers: usize, replication: usize) -> Self {
        assert!(num_workers > 0, "a topology needs at least one worker");
        assert!(replication > 0, "replication factor must be at least 1");
        let r = replication.min(num_workers);
        Topology {
            replicas: (0..num_partitions)
                .map(|p| (0..r).map(|i| (p + i) % num_workers).collect())
                .collect(),
            suspect: vec![false; num_workers],
        }
    }

    /// Number of partitions this topology routes.
    pub fn num_partitions(&self) -> usize {
        self.replicas.len()
    }

    /// Number of workers in the cluster (including suspects).
    pub fn num_workers(&self) -> usize {
        self.suspect.len()
    }

    /// The smallest replica-set size across partitions (the effective
    /// replication factor).
    pub fn replication(&self) -> usize {
        self.replicas.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// The ordered replica set of `partition` (first entry = primary).
    pub fn replicas(&self, partition: usize) -> &[usize] {
        &self.replicas[partition]
    }

    /// Routes `partition` to its first non-suspect replica, or `None` when
    /// every replica is suspect.
    pub fn route(&self, partition: usize) -> Option<usize> {
        self.replicas[partition]
            .iter()
            .copied()
            .find(|&w| !self.suspect[w])
    }

    /// Whether worker `w` is currently marked suspect.
    pub fn is_suspect(&self, worker: usize) -> bool {
        self.suspect.get(worker).copied().unwrap_or(false)
    }

    /// Worker ids currently marked suspect, ascending.
    pub fn suspects(&self) -> Vec<usize> {
        (0..self.suspect.len())
            .filter(|&w| self.suspect[w])
            .collect()
    }

    /// Marks `worker` suspect; returns `true` when this is a transition,
    /// `false` when it was already suspect.
    pub fn mark_suspect(&mut self, worker: usize) -> bool {
        if worker >= self.suspect.len() || self.suspect[worker] {
            return false;
        }
        self.suspect[worker] = true;
        true
    }

    /// Clears `worker`'s suspect flag (a rejoin); returns `true` when this
    /// is a transition.
    pub fn mark_live(&mut self, worker: usize) -> bool {
        if worker >= self.suspect.len() || !self.suspect[worker] {
            return false;
        }
        self.suspect[worker] = false;
        true
    }

    /// The first partition with no live replica, or `None` when every
    /// partition is routable.
    pub fn unroutable_partition(&self) -> Option<usize> {
        (0..self.replicas.len()).find(|&p| self.route(p).is_none())
    }

    /// Whether every partition still has at least one non-suspect replica.
    pub fn fully_routable(&self) -> bool {
        self.unroutable_partition().is_none()
    }

    /// Copies the suspect flags of `other` for the workers both topologies
    /// share (used when the routing table is rebuilt for a different
    /// collective width: suspicion outlives the rebuild).
    pub fn inherit_suspects(&mut self, other: &Topology) {
        for w in 0..self.suspect.len().min(other.suspect.len()) {
            self.suspect[w] = other.suspect[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_routes_partition_to_itself() {
        let topo = Topology::identity(4);
        assert_eq!(topo.num_partitions(), 4);
        assert_eq!(topo.num_workers(), 4);
        assert_eq!(topo.replication(), 1);
        for p in 0..4 {
            assert_eq!(topo.route(p), Some(p));
            assert_eq!(topo.replicas(p), &[p]);
        }
        assert!(topo.fully_routable());
    }

    #[test]
    fn round_robin_matches_modulo_routing_at_replication_one() {
        let topo = Topology::round_robin(7, 3, 1);
        for p in 0..7 {
            assert_eq!(topo.route(p), Some(p % 3), "partition {p}");
        }
    }

    #[test]
    fn round_robin_replicas_are_distinct_and_ordered() {
        let topo = Topology::round_robin(3, 3, 2);
        assert_eq!(topo.replicas(0), &[0, 1]);
        assert_eq!(topo.replicas(1), &[1, 2]);
        assert_eq!(topo.replicas(2), &[2, 0]);
        assert_eq!(topo.replication(), 2);
        // Replication clamps to the worker count.
        assert_eq!(Topology::round_robin(2, 2, 5).replication(), 2);
    }

    #[test]
    fn suspect_marks_fail_over_to_the_next_replica() {
        let mut topo = Topology::round_robin(3, 3, 2);
        assert!(topo.mark_suspect(1));
        assert!(!topo.mark_suspect(1), "already suspect");
        assert_eq!(topo.route(0), Some(0));
        assert_eq!(topo.route(1), Some(2), "partition 1 fails over");
        assert!(topo.fully_routable());
        assert_eq!(topo.suspects(), vec![1]);
        // Killing the fallback too makes partition 1 unroutable.
        assert!(topo.mark_suspect(2));
        assert_eq!(topo.unroutable_partition(), Some(1));
        assert!(!topo.fully_routable());
        // A rejoin restores routing.
        assert!(topo.mark_live(1));
        assert!(!topo.mark_live(1), "already live");
        assert_eq!(topo.route(1), Some(1));
        assert!(topo.fully_routable());
    }

    #[test]
    fn replication_one_is_unroutable_after_any_suspect() {
        let mut topo = Topology::round_robin(3, 3, 1);
        assert!(topo.mark_suspect(2));
        assert_eq!(topo.unroutable_partition(), Some(2));
    }

    #[test]
    fn inherit_suspects_survives_a_rebuild() {
        let mut old = Topology::round_robin(3, 3, 2);
        old.mark_suspect(1);
        let mut rebuilt = Topology::round_robin(5, 3, 2);
        rebuilt.inherit_suspects(&old);
        assert!(rebuilt.is_suspect(1));
        assert_eq!(rebuilt.suspects(), vec![1]);
        assert_eq!(rebuilt.route(1), Some(2));
    }
}
