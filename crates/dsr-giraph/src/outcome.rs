//! Common result type of the Giraph-style engines.

use dsr_graph::VertexId;

/// Result and cost profile of a BSP set-reachability run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GiraphOutcome {
    /// All reachable `(source, target)` pairs, sorted and deduplicated.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Number of supersteps executed (Figure 8, left).
    pub supersteps: u64,
    /// Number of messages exchanged. For the vertex-centric engine this is
    /// every vertex-to-vertex message (they all flow through the message
    /// store); for the graph-centric engines only cross-partition messages
    /// are counted, mirroring Giraph++'s local short-circuiting.
    pub messages: u64,
    /// Total bytes exchanged (Figure 5(b)(f)(j)(n), Figure 8 right).
    pub bytes: u64,
}

impl GiraphOutcome {
    /// Communication size in kilobytes (the unit used in the paper's
    /// figures).
    pub fn kilobytes(&self) -> f64 {
        self.bytes as f64 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kilobyte_conversion() {
        let o = GiraphOutcome {
            pairs: vec![],
            supersteps: 1,
            messages: 2,
            bytes: 2048,
        };
        assert!((o.kilobytes() - 2.0).abs() < 1e-9);
    }
}
