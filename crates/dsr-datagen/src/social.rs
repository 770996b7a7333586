//! Social-network generator with planted communities.
//!
//! Section 4.5.B of the paper runs community detection (Blondel et al.) on
//! LiveJournal and Twitter and then evaluates DSR queries between the
//! members of two communities. This generator produces a directed social
//! graph with planted communities so that (a) the Louvain implementation in
//! `dsr-community` has ground truth to recover and (b) the Table 7
//! experiment has realistic community structure to query.

use dsr_graph::{DiGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A social graph with known planted communities.
#[derive(Debug, Clone)]
pub struct SocialGraph {
    /// The directed follower-style graph.
    pub graph: DiGraph,
    /// Planted community of every vertex.
    pub community: Vec<u32>,
    /// Number of planted communities.
    pub num_communities: usize,
}

impl SocialGraph {
    /// Members of planted community `c`.
    pub fn members(&self, c: u32) -> Vec<VertexId> {
        self.community
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x == c)
            .map(|(v, _)| v as VertexId)
            .collect()
    }
}

/// Generates a planted-partition social graph.
///
/// * `num_vertices` — total users,
/// * `num_communities` — number of planted communities,
/// * `avg_degree` — average out-degree,
/// * `intra_fraction` — fraction of edges that stay inside a community.
pub fn social_network(
    num_vertices: usize,
    num_communities: usize,
    avg_degree: f64,
    intra_fraction: f64,
    seed: u64,
) -> SocialGraph {
    assert!(num_vertices >= num_communities && num_communities > 0);
    assert!((0.0..=1.0).contains(&intra_fraction));
    let num_edges = (num_vertices as f64 * avg_degree) as usize;
    assert!(
        num_edges == 0 || num_vertices > 1,
        "a single vertex makes every edge a self-loop"
    );
    assert!(
        num_edges == 0 || num_communities < num_vertices || intra_fraction < 1.0,
        "one-member communities with intra_fraction 1.0 make every edge a self-loop"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let community: Vec<u32> = (0..num_vertices)
        .map(|v| (v % num_communities) as u32)
        .collect();
    // Vertices of each community for fast sampling.
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); num_communities];
    for (v, &c) in community.iter().enumerate() {
        members[c as usize].push(v as VertexId);
    }

    let mut edges = Vec::with_capacity(num_edges);
    while edges.len() < num_edges {
        let u = rng.gen_range(0..num_vertices);
        let v = if rng.gen::<f64>() < intra_fraction {
            let comm = &members[community[u] as usize];
            comm[rng.gen_range(0..comm.len())]
        } else {
            rng.gen_range(0..num_vertices) as VertexId
        };
        if u as u32 != v {
            edges.push((u as u32, v));
        }
    }
    SocialGraph {
        graph: DiGraph::from_edges(num_vertices, &edges),
        community,
        num_communities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_membership() {
        let s = social_network(1000, 10, 8.0, 0.9, 1);
        assert_eq!(s.graph.num_vertices(), 1000);
        assert_eq!(s.graph.num_edges(), 8000);
        assert_eq!(s.num_communities, 10);
        let total: usize = (0..10).map(|c| s.members(c).len()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn intra_community_edges_dominate() {
        let s = social_network(2000, 8, 10.0, 0.9, 7);
        let intra = s
            .graph
            .edges()
            .filter(|&(u, v)| s.community[u as usize] == s.community[v as usize])
            .count();
        assert!(
            intra as f64 > 0.8 * s.graph.num_edges() as f64,
            "expected >80% intra edges, got {intra} of {}",
            s.graph.num_edges()
        );
    }

    #[test]
    fn deterministic() {
        let a = social_network(500, 5, 6.0, 0.8, 3);
        let b = social_network(500, 5, 6.0, 0.8, 3);
        assert_eq!(a.graph.edge_vec(), b.graph.edge_vec());
        assert_eq!(a.community, b.community);
    }

    #[test]
    #[should_panic]
    fn invalid_parameters_panic() {
        social_network(3, 5, 2.0, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "single vertex makes every edge a self-loop")]
    fn single_vertex_with_edges_panics() {
        social_network(1, 1, 2.0, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "one-member communities with intra_fraction 1.0")]
    fn one_member_communities_without_cross_community_edges_panic() {
        social_network(5, 5, 2.0, 1.0, 1);
    }
}
