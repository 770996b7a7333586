//! Direct probes of single layers, run after a traced workload's timed
//! sections: each calls a public constructor or method of one crate on the
//! workload's own index and times it from outside.

use std::sync::Arc;
use std::time::Instant;

use dsr_cluster::run_on_slaves;
use dsr_core::{CompoundGraph, DsrIndex, PartitionSummary, SetQuery, UpdateOp};
use dsr_graph::{DiGraph, VertexId};
use dsr_partition::PartitionId;
use dsr_reach::build_index;

use crate::inputs::SetupTimings;
use crate::stats::median;
use crate::Metrics;

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The set-up layers behind `setup_s` and `peak_rss_mb`: the timings taken
/// while the workload was set up, the three index-build stages re-run one
/// partition after another through their public constructors, and the size
/// figures that also predict `bytes_per_query`.
pub fn setup_layers(
    metrics: &mut Metrics,
    graph: &DiGraph,
    index: &DsrIndex,
    timings: SetupTimings,
) {
    let k = index.num_partitions();
    metrics.insert("datagen.graph_s", timings.graph_s);
    metrics.insert("partition.multilevel_s", timings.partition_s);
    metrics.insert("core.index.build_s", timings.build_s);
    metrics.insert(
        "partition.cut_edge_share",
        index.cut.num_edges() as f64 / graph.num_edges().max(1) as f64,
    );
    metrics.insert("core.index.mb", index.stats.total_bytes as f64 / 1e6);
    metrics.insert(
        "core.index.boundary_vertices",
        index.cut.total_boundary_vertices() as f64,
    );

    metrics.insert(
        "core.index.summary_s",
        seconds(|| {
            for p in 0..k {
                let partition = p as PartitionId;
                std::hint::black_box(PartitionSummary::compute(
                    partition,
                    &index.locals[p],
                    index.cut.partition(partition),
                ));
            }
        }),
    );
    metrics.insert(
        "core.index.compound_s",
        seconds(|| {
            for p in 0..k {
                std::hint::black_box(CompoundGraph::build(
                    &index.locals[p],
                    &index.cut,
                    &index.summaries,
                    p as PartitionId,
                ));
            }
        }),
    );
    metrics.insert(
        "reach.build_s",
        seconds(|| {
            for compound in &index.compounds {
                std::hint::black_box(build_index(index.kind, Arc::new(compound.graph.clone())));
            }
        }),
    );
}

/// `reach.local_set_us`: the step-1 call into `dsr-reach`, made directly.
/// For each sampled query and each partition holding some of its sources,
/// calls the partition's local index with those sources and the routing
/// targets step 1 would use (local targets plus every remote partition's
/// forward virtual vertices).
pub fn reach_local_set(metrics: &mut Metrics, index: &DsrIndex, queries: &[SetQuery]) {
    let k = index.num_partitions();
    let mut samples = Vec::new();
    for query in queries {
        for p in 0..k {
            let partition = p as PartitionId;
            let compound = &index.compounds[p];
            let local_ids = |vertices: &[VertexId]| -> Vec<VertexId> {
                vertices
                    .iter()
                    .filter(|&&v| index.partition_of(v) == partition)
                    .filter_map(|&v| compound.compound_id(v))
                    .collect()
            };
            let sources = local_ids(&query.sources);
            if sources.is_empty() {
                continue;
            }
            let mut routes = local_ids(&query.targets);
            for j in (0..k).filter(|&j| j != p) {
                routes.extend(
                    compound
                        .forward_virtuals_of(j as PartitionId)
                        .into_iter()
                        .map(|(_, id)| id),
                );
            }
            routes.sort_unstable();
            routes.dedup();
            let start = Instant::now();
            std::hint::black_box(index.local_indexes[p].set_reachability(&sources, &routes));
            samples.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    metrics.insert("reach.local_set_samples", samples.len() as f64);
    metrics.insert("reach.local_set_us", median(samples));
}

/// `cluster.pool.dispatch_us`: one fork-join of no-op tasks over the
/// process-wide slave pool; every engine call pays two of these.
pub fn pool_dispatch(metrics: &mut Metrics, partitions: usize) {
    let samples = (0..2000)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run_on_slaves(partitions, |slave| slave));
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    metrics.insert("cluster.pool.dispatch_us", median(samples));
}

/// The `dsr-core::updates` layer under `update_p50_ms`: forks of `index`,
/// the service's small batches applied straight to a fork, and one bulk
/// batch against a full rebuild of the graph it produces (Figure 6's shape).
pub fn update_layers(
    metrics: &mut Metrics,
    index: &DsrIndex,
    batches: &[Vec<UpdateOp>],
    bulk: &[UpdateOp],
) {
    let fork_ms = (0..5)
        .map(|_| 1e3 * seconds(|| drop(std::hint::black_box(index.fork()))))
        .collect();
    metrics.insert("core.index.fork_ms", median(fork_ms));

    let mut fork = index.fork();
    let mut batch_ms = Vec::new();
    let (mut refreshed, mut patched, mut bytes, mut ops) = (0usize, 0usize, 0u64, 0usize);
    for batch in batches {
        let start = Instant::now();
        let outcome = fork.apply_updates(batch);
        batch_ms.push(start.elapsed().as_secs_f64() * 1e3);
        refreshed += outcome.refreshed_summaries.len();
        patched += outcome.patched_compounds.len();
        bytes += outcome.stats.update_bytes;
        ops += batch.len();
    }
    let per_batch = |total: usize| total as f64 / batches.len().max(1) as f64;
    metrics.insert("core.updates.batch_ms_p50", median(batch_ms));
    metrics.insert(
        "core.updates.refreshed_summaries_per_batch",
        per_batch(refreshed),
    );
    metrics.insert(
        "core.updates.patched_compounds_per_batch",
        per_batch(patched),
    );
    metrics.insert(
        "core.updates.bytes_per_op",
        bytes as f64 / ops.max(1) as f64,
    );

    let mut fork = index.fork();
    let bulk_s = seconds(|| drop(std::hint::black_box(fork.apply_updates(bulk))));
    let updated_graph = fork.reconstruct_graph();
    let rebuild_s = seconds(|| {
        std::hint::black_box(DsrIndex::build(
            &updated_graph,
            fork.partitioning.clone(),
            fork.kind,
        ));
    });
    metrics.insert("core.updates.bulk_vs_rebuild", bulk_s / rebuild_s.max(1e-9));
}
