//! Web-graph analogue generator (bow-tie structure with host locality).
//!
//! The SNAP web crawls used by the paper (Amazon, BerkStan, Google,
//! NotreDame, Stanford) share a characteristic structure: pages are grouped
//! into hosts with dense intra-host linkage (producing many small and a few
//! large SCCs), plus sparser cross-host links that follow a preferential
//! attachment pattern. This generator reproduces that shape so the DSR
//! index statistics (boundary counts, equivalence-set compression in
//! Table 4) behave like the paper's small-graph numbers.

use dsr_graph::DiGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates a web-like graph.
///
/// * `num_vertices` — total number of pages,
/// * `avg_degree` — average out-degree,
/// * `host_size` — average number of pages per host,
/// * `intra_host_fraction` — fraction of edges that stay within a host.
pub fn web_graph(
    num_vertices: usize,
    avg_degree: f64,
    host_size: usize,
    intra_host_fraction: f64,
    seed: u64,
) -> DiGraph {
    assert!(num_vertices > 1, "need at least two vertices");
    assert!(host_size >= 1);
    assert!((0.0..=1.0).contains(&intra_host_fraction));
    assert!(
        host_size > 1 || intra_host_fraction < 1.0,
        "one-page hosts with intra_host_fraction 1.0 make every edge a self-loop"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let num_edges = (num_vertices as f64 * avg_degree) as usize;
    let num_hosts = num_vertices.div_ceil(host_size).max(1);

    let host_of = |v: usize| v / host_size;
    let host_range = |h: usize| {
        let lo = h * host_size;
        let hi = ((h + 1) * host_size).min(num_vertices);
        (lo, hi)
    };

    let mut edges = Vec::with_capacity(num_edges);
    while edges.len() < num_edges {
        let u = rng.gen_range(0..num_vertices);
        let v = if rng.gen::<f64>() < intra_host_fraction {
            // Intra-host edge: uniformly within u's host.
            let (lo, hi) = host_range(host_of(u));
            rng.gen_range(lo..hi)
        } else {
            // Cross-host edge with preferential attachment towards the
            // low-numbered "popular" hosts (Zipf-ish via squaring).
            let r: f64 = rng.gen();
            let h = ((r * r) * num_hosts as f64) as usize;
            let (lo, hi) = host_range(h.min(num_hosts - 1));
            rng.gen_range(lo..hi)
        };
        if u != v {
            edges.push((u as u32, v as u32));
        }
    }
    DiGraph::from_edges(num_vertices, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::tarjan_scc;

    #[test]
    fn size_and_determinism() {
        let g = web_graph(2000, 4.0, 20, 0.7, 3);
        assert_eq!(g.num_vertices(), 2000);
        assert_eq!(g.num_edges(), 8000);
        assert_eq!(g.edge_vec(), web_graph(2000, 4.0, 20, 0.7, 3).edge_vec());
    }

    #[test]
    fn host_locality_produces_nontrivial_sccs() {
        let g = web_graph(1500, 6.0, 15, 0.8, 11);
        let scc = tarjan_scc(&g);
        assert!(
            scc.num_components < g.num_vertices(),
            "dense intra-host links must create some cycles"
        );
        assert!(scc.largest_component_size() > 5);
    }

    #[test]
    fn locality_fraction_matters() {
        let local = web_graph(1000, 5.0, 10, 0.9, 5);
        let global = web_graph(1000, 5.0, 10, 0.0, 5);
        let intra = |g: &DiGraph| {
            g.edges()
                .filter(|&(u, v)| (u as usize) / 10 == (v as usize) / 10)
                .count()
        };
        assert!(intra(&local) > intra(&global) * 3);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn too_small_panics() {
        web_graph(1, 2.0, 5, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "every edge a self-loop")]
    fn one_page_hosts_without_cross_host_edges_panic() {
        web_graph(10, 2.0, 1, 1.0, 0);
    }
}
