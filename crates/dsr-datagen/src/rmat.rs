//! R-MAT (recursive matrix) power-law graph generator.
//!
//! R-MAT graphs have heavy-tailed in/out-degree distributions and, with the
//! default parameters, a large strongly connected core — the structural
//! fingerprint of the social graphs in the paper's evaluation (LiveJournal,
//! Twitter). The Twitter-1.4B compound graphs compress by a factor of ~150
//! under SCC condensation (Section 4.2); the analogues generated here show
//! the same qualitative behaviour at small scale.

use dsr_graph::DiGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates an R-MAT graph with `2^scale` vertices and `num_edges` edges.
///
/// `(a, b, c)` are the standard R-MAT quadrant probabilities (the fourth is
/// `1 - a - b - c`). The classic "social network" parameters are
/// `a = 0.57, b = 0.19, c = 0.19`.
pub fn rmat(scale: u32, num_edges: usize, a: f64, b: f64, c: f64, seed: u64) -> DiGraph {
    assert!((1..=24).contains(&scale), "scale out of supported range");
    assert!(
        a > 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0,
        "invalid quadrant probabilities"
    );
    assert!(b + c > 0.0, "b + c == 0 makes every edge a self-loop");
    let n = 1usize << scale;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(num_edges);
    while edges.len() < num_edges {
        let (mut u, mut v) = (0usize, 0usize);
        for level in (0..scale).rev() {
            let r: f64 = rng.gen();
            let (du, dv) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u |= du << level;
            v |= dv << level;
        }
        if u != v {
            edges.push((u as u32, v as u32));
        }
    }
    DiGraph::from_edges(n, &edges)
}

/// R-MAT with the classic social-network parameters.
pub fn rmat_social(scale: u32, num_edges: usize, seed: u64) -> DiGraph {
    rmat(scale, num_edges, 0.57, 0.19, 0.19, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::tarjan_scc;

    #[test]
    fn size_and_determinism() {
        let g = rmat_social(10, 4000, 5);
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_edges(), 4000);
        assert_eq!(g.edge_vec(), rmat_social(10, 4000, 5).edge_vec());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = rmat_social(11, 10_000, 9);
        let max_deg = g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            max_deg as f64 > 8.0 * avg,
            "power-law graphs have hubs: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn dense_rmat_has_large_scc() {
        let g = rmat_social(9, 12_000, 2);
        let scc = tarjan_scc(&g);
        let largest = scc.largest_component_size();
        assert!(
            largest > g.num_vertices() / 4,
            "expected a giant SCC, largest was {largest} of {}",
            g.num_vertices()
        );
    }

    #[test]
    #[should_panic(expected = "invalid quadrant")]
    fn invalid_probabilities_panic() {
        rmat(4, 10, 0.6, 0.3, 0.2, 1);
    }

    #[test]
    #[should_panic(expected = "every edge a self-loop")]
    fn diagonal_only_probabilities_panic() {
        rmat(4, 10, 0.5, 0.0, 0.0, 1);
    }
}
