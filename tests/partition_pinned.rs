//! Pinned multilevel partitions: an FNV-1a digest of the assignment that
//! `MultilevelPartitioner::default()` returns, plus its `cut_size`, for
//! fixed generator inputs.
//!
//! Every index, every boundary set and every `BENCH_*.json` counter starts
//! from these assignments, so the partitioner's internals may be rewritten
//! freely but its output may not drift silently. The output depends on four
//! orders inside `dsr_partition::multilevel`: rows ascend by neighbour id,
//! the matching takes the first heaviest edge in row order, equal sweep
//! gains go to the part the neighbours name first, and vertices are visited
//! in id order. A change that moves any digest here must change the
//! constants in the same commit, and say why.

use dsr_datagen::{rmat, social_network, web_graph};
use dsr_graph::DiGraph;
use dsr_partition::{MultilevelPartitioner, Partitioner};

/// The repo benchmark's recipe: a web graph with repeated edges dropped.
fn deduped_web(n: usize, seed: u64) -> DiGraph {
    let mut edges = web_graph(n, 4.0, 16, 0.7, seed).edge_vec();
    edges.sort_unstable();
    edges.dedup();
    DiGraph::from_edges(n, &edges)
}

/// FNV-1a over the little-endian bytes of every partition id, in vertex
/// order.
fn digest(assignment: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in assignment.iter().flat_map(|p| p.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Partitions `graph` into `k` parts and returns `(digest, cut_size)`.
fn pin(graph: &DiGraph, k: usize) -> (u64, usize) {
    let partitioning = MultilevelPartitioner::default().partition(graph, k);
    (
        digest(&partitioning.assignment),
        partitioning.cut_size(graph),
    )
}

/// Compares every case and reports all mismatches at once, so that a
/// deliberate re-pin needs one run.
fn check(cases: &[(&str, &DiGraph, usize, (u64, usize))]) {
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|&(name, graph, k, expected)| {
            let got = pin(graph, k);
            (got != expected).then(|| {
                format!(
                    "{name} k={k}: got ({:#018x}, {}), pinned ({:#018x}, {})",
                    got.0, got.1, expected.0, expected.1
                )
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "partitions drifted:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn benchmark_web_graphs() {
    let web800 = deduped_web(800, 11);
    let web2000 = deduped_web(2_000, 12);
    let web3000 = deduped_web(3_000, 13);
    check(&[
        ("web800", &web800, 2, (0xd4e0_9794_4631_60b5, 453)),
        ("web800", &web800, 4, (0x2971_1e96_b71b_ff56, 693)),
        ("web800", &web800, 8, (0x0a1b_73f5_7453_0201, 892)),
        ("web2000", &web2000, 2, (0x5474_13f9_e5ed_d525, 1135)),
        ("web2000", &web2000, 4, (0x0ba5_01b3_c713_3a95, 1711)),
        ("web2000", &web2000, 8, (0xe97b_0e62_46e8_b1b3, 2133)),
        ("web3000", &web3000, 2, (0x5b28_ee7f_595b_b455, 1703)),
        ("web3000", &web3000, 4, (0x2592_d1cd_dd0a_4ef4, 2578)),
        ("web3000", &web3000, 8, (0x6d9a_e17d_2f73_13d7, 3114)),
    ]);
}

#[test]
fn rmat_social_and_large_web_graphs() {
    let rmat = rmat(12, 32_000, 0.57, 0.19, 0.19, 21);
    let social = social_network(2_000, 10, 8.0, 0.8, 22).graph;
    let web30k = deduped_web(30_000, 23);
    check(&[
        ("rmat", &rmat, 4, (0x700e_34c9_d02b_9305, 15978)),
        ("social", &social, 4, (0x4c36_48ba_032a_7e14, 3829)),
        ("web30k", &web30k, 8, (0xbf62_46e1_c5e7_a317, 30854)),
    ]);
}
