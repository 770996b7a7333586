//! Figure 7 — comparison of the local reachability strategies.
//!
//! Plain DFS, the FERRARI-like interval index and MS-BFS, over the
//! LiveJournal and Freebase analogues and for query sizes 10×10, 100×100
//! and 1000×1000, timed **where they differ**: the step-1 call
//! `local_indexes[p].set_reachability(sources, routes)` on the compound
//! graph of every partition that holds sources of the query, with the
//! routing targets step 1 resolves (every in-virtual vertex, every remote
//! in-boundary, the query's concrete targets). The engine itself no longer
//! makes that call — it sweeps the condensed compound graph
//! ([`dsr_graph::sweep_lanes`] over [`dsr_core::CompoundGraph::dag`]) whatever
//! [`LocalIndexKind`] the index was built with — so the fourth column times
//! that sweep on the same inputs up to the lane masks the engine reads (it
//! never builds a pair list); outside the timer the masks are spelled out
//! as the pair lists the strategies return, and all four answers must be
//! equal.
//!
//! The paper's claim here is about time — DFS is the slowest (one
//! traversal per source), the FERRARI index is fastest on small and medium
//! queries, and MS-BFS closes the gap as the query grows because it shares
//! traversals across sources — and until the strategies count the vertices
//! and edges they visit, no counter stands in for it. So this is one of the
//! three experiments that still print wall-clock columns. They are never part
//! of `BENCH_figure7.json`, which holds each query's step-1 inputs and the
//! pairs they resolve to.
//!
//! Reproduced shape, asserted on every run: at every query size all three
//! strategies return exactly the pairs the engine's DAG sweep resolves.

use std::ops::Range;
use std::time::Duration;

use dsr_core::DsrIndex;
use dsr_datagen::QueryWorkload;
use dsr_graph::traversal::Direction;
use dsr_graph::{set_lanes, sweep_lanes, VertexId};
use dsr_partition::PartitionId;
use dsr_reach::LocalIndexKind;

use crate::experiments::common::{self, Golden, Object, DEFAULT_SLAVES};
use crate::{time, Table};

/// Step-1 input of one partition: its index, the query's local sources and
/// the routing targets, both as ascending compound ids.
type StepOneInput = (usize, Vec<VertexId>, Vec<VertexId>);

/// The step-1 inputs of `query` at every partition holding some of its
/// sources. Compound ids depend on the graph and the partitioning only, so
/// the inputs hold for every index built over them.
fn step_one_inputs(index: &DsrIndex, query: &QueryWorkload) -> Vec<StepOneInput> {
    let mut inputs = Vec::new();
    for (p, compound) in index.compounds.iter().enumerate() {
        let mut sources: Vec<VertexId> = query
            .sources
            .iter()
            .filter(|&&s| index.partition_of(s) as usize == p)
            .filter_map(|&s| compound.compound_id(s))
            .collect();
        if sources.is_empty() {
            continue;
        }
        sources.sort_unstable();
        sources.dedup();
        // The query's targets and every remote in-boundary, where concrete
        // in this compound graph, then every in-virtual vertex (the own
        // partition has neither in-boundaries listed nor virtual vertices).
        let partitions = 0..index.compounds.len() as PartitionId;
        let in_boundaries = partitions.clone().flat_map(|j| compound.route_entries(j));
        let concrete = query.targets.iter().chain(in_boundaries);
        let mut routes: Vec<VertexId> = concrete.filter_map(|&v| compound.compound_id(v)).collect();
        for j in partitions {
            routes.extend(compound.forward_virtuals_of(j).iter().map(|&(_, id)| id));
        }
        routes.sort_unstable();
        routes.dedup();
        inputs.push((p, sources, routes));
    }
    inputs
}

/// One pass of [`dag_sweep`]: the sources it carried, every route's mask.
type Pass = (Range<usize>, Vec<u64>);

/// Step 1 the way the engine evaluates it — lanes in, masks out: per input
/// and per pass of 64 sources, the lane mask of every route.
fn dag_sweep(index: &DsrIndex, inputs: &[StepOneInput]) -> Vec<Vec<Pass>> {
    inputs
        .iter()
        .map(|(p, sources, routes)| {
            let compound = &index.compounds[*p];
            let seeds: Vec<u32> = sources.iter().map(|&s| compound.component_of(s)).collect();
            let mut passes = Vec::new();
            sweep_lanes(compound.dag(), Direction::Forward, &seeds, |pass, masks| {
                let reaching = routes
                    .iter()
                    .map(|&t| masks[compound.component_of(t) as usize]);
                passes.push((pass, reaching.collect()));
            });
            passes
        })
        .collect()
}

/// The masks of [`dag_sweep`] spelled out as the sorted `(source, route)`
/// pair lists the strategies return.
fn pairs_of(inputs: &[StepOneInput], swept: &[Vec<Pass>]) -> Vec<Vec<(VertexId, VertexId)>> {
    inputs
        .iter()
        .zip(swept)
        .map(|((_, sources, routes), passes)| {
            let mut pairs = Vec::new();
            for (pass, masks) in passes {
                let lanes = &sources[pass.clone()];
                for (&t, &mask) in routes.iter().zip(masks) {
                    pairs.extend(set_lanes(mask).map(|lane| (lanes[lane], t)));
                }
            }
            pairs.sort_unstable();
            pairs
        })
        .collect()
}

fn millis(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Runs the experiment; returns one rendered table per dataset and the
/// text of `BENCH_figure7.json`.
pub fn run(fast: bool) -> (String, String) {
    let datasets = if fast {
        vec!["LiveJ-68M"]
    } else {
        vec!["LiveJ-68M", "Freebase-1B"]
    };
    let query_sizes: Vec<usize> = if fast {
        vec![10, 100]
    } else {
        vec![10, 100, 1000]
    };

    let mut out = String::new();
    let mut rows = Vec::new();
    for name in datasets {
        let graph = common::dataset(name);
        let partitioning = common::partition(&graph, DEFAULT_SLAVES);
        let mut table = Table::new(
            &format!("Figure 7: local reachability strategies, step 1 — {name}"),
            &[
                "|S|x|T|",
                "DSR-DFS (ms)",
                "DSR-FERRARI (ms)",
                "DSR-MSBFS (ms)",
                "DAG sweep (engine) (ms)",
            ],
        );

        // Build the three indexes once, in the columns' order (their build
        // cost is part of indexing, not of the per-query measurements).
        let indexes =
            LocalIndexKind::ALL.map(|kind| DsrIndex::build(&graph, partitioning.clone(), kind));

        for &size in &query_sizes {
            let size = size.min(graph.num_vertices());
            let query = common::standard_query(&graph, size, size, 0xF7);
            let inputs = step_one_inputs(&indexes[0], &query);
            let (swept, sweep_time) = time(|| dag_sweep(&indexes[0], &inputs));
            let swept = pairs_of(&inputs, &swept);
            let mut row = vec![query.label()];
            for index in &indexes {
                let (pairs, elapsed) = time(|| {
                    inputs
                        .iter()
                        .map(|(p, sources, routes)| {
                            index.local_indexes[*p].set_reachability(sources, routes)
                        })
                        .collect::<Vec<_>>()
                });
                assert!(
                    pairs == swept,
                    "Figure 7: {name}, {}: {} must return the pairs of the DAG sweep",
                    query.label(),
                    index.kind.name()
                );
                row.push(millis(elapsed));
            }
            row.push(millis(sweep_time));
            table.row(row);
            rows.push(
                Object::new()
                    .text("graph", name)
                    .text("query", query.label())
                    .field("partitions", inputs.len())
                    .field("sources", inputs.iter().map(|i| i.1.len()).sum::<usize>())
                    .field("routes", inputs.iter().map(|i| i.2.len()).sum::<usize>())
                    .field("pairs", swept.iter().map(Vec::len).sum::<usize>()),
            );
        }
        out.push_str(&table.render());
    }
    let golden = Golden::new("figure7", fast)
        .field("slaves", DEFAULT_SLAVES)
        .array("queries", rows)
        .render();
    (out, golden)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_rows() {
        let (_, json) = run(true);
        common::assert_golden(
            "figure7",
            include_str!("../../../../BENCH_figure7.json"),
            &json,
        );
    }
}
