//! Everything a workload measures on is generated here from `--seed`; the
//! measured code only ever sees these generated inputs.

use std::time::Instant;

use dsr_core::{DsrIndex, SetQuery, UpdateOp};
use dsr_datagen::workload::random_queries;
use dsr_datagen::{update_stream, web_graph, EdgeOp, UpdateStreamConfig};
use dsr_graph::DiGraph;
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;

/// Partitions (slaves) of every workload's index.
pub const PARTITIONS: usize = 4;
/// `|S|` and `|T|` of every query.
pub const QUERY_SIDE: usize = 10;
/// Edge operations per update batch.
pub const OPS_PER_BATCH: usize = 8;

/// Derives an independent seed for input stream `stream` (splitmix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of round `round` of a run: every round sets up on a graph of
/// its own.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    sub_seed(seed, 100 + round as u64)
}

/// Wall time of the three set-up layers every workload goes through.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    pub graph_s: f64,
    pub partition_s: f64,
    pub build_s: f64,
}

/// A generated graph and the DSR index built over it.
pub struct Indexed {
    pub graph: DiGraph,
    pub index: DsrIndex,
    pub timings: SetupTimings,
}

/// Generates the web graph of `vertices` pages for `seed`, partitions it
/// and builds the index, the way the service and `dsr-bench` do today.
///
/// The generator emits some edges twice; they are dropped, so that the
/// update stream, the index and the oracle agree that an edge is either
/// present or absent.
pub fn build_indexed(seed: u64, vertices: usize) -> Indexed {
    let start = Instant::now();
    let mut edges = web_graph(vertices, 4.0, 16, 0.7, sub_seed(seed, 1)).edge_vec();
    edges.sort_unstable();
    edges.dedup();
    let graph = DiGraph::from_edges(vertices, &edges);
    let graph_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let partitioning = MultilevelPartitioner::default().partition(&graph, PARTITIONS);
    let partition_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let index = DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs);
    let build_s = start.elapsed().as_secs_f64();

    Indexed {
        graph,
        index,
        timings: SetupTimings {
            graph_s,
            partition_s,
            build_s,
        },
    }
}

/// `count` random 10×10 queries over `graph`.
pub fn query_pool(graph: &DiGraph, count: usize, seed: u64) -> Vec<SetQuery> {
    random_queries(graph, QUERY_SIDE, QUERY_SIDE, count, sub_seed(seed, 2))
        .into_iter()
        .map(|q| SetQuery::new(q.sources, q.targets))
        .collect()
}

/// `batches` consistent update batches of [`OPS_PER_BATCH`] operations
/// (half insertions) against `graph`, to be applied in order.
pub fn update_batches(graph: &DiGraph, batches: usize, seed: u64) -> Vec<Vec<UpdateOp>> {
    update_ops(graph, batches * OPS_PER_BATCH, seed)
        .chunks(OPS_PER_BATCH)
        .map(<[UpdateOp]>::to_vec)
        .collect()
}

/// One consistent stream of `num_ops` edge operations against `graph`.
pub fn update_ops(graph: &DiGraph, num_ops: usize, seed: u64) -> Vec<UpdateOp> {
    update_stream(
        graph,
        &UpdateStreamConfig {
            num_ops,
            insert_fraction: 0.5,
            seed: sub_seed(seed, 3),
        },
    )
    .into_iter()
    .map(|op| match op {
        EdgeOp::Insert(u, v) => UpdateOp::Insert(u, v),
        EdgeOp::Delete(u, v) => UpdateOp::Delete(u, v),
    })
    .collect()
}
