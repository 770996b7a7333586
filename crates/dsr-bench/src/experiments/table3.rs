//! Table 3 — efficiency evaluation (indexing and query times).
//!
//! For every dataset analogue the experiment measures the DSR indexing
//! time and the query time of a random set-reachability query for all six
//! competitors: DSR, Giraph++, Giraph++wEq, Giraph, DSR-Fan and DSR-Naïve.
//! As in the paper, the iterative and per-pair baselines are skipped
//! ("n/a") on the large graphs where they stop being practical.
//!
//! The paper's claim here is about time — DSR is orders of magnitude
//! faster than the Giraph variants — and no counter stands in for it, so
//! this is one of the three experiments that still print wall-clock columns.
//! They are never part of `BENCH_table3.json`, which holds each engine's
//! rounds (supersteps), messages and bytes.
//!
//! Reproduced shape over those counters. Asserted on every run:
//! - a DSR call takes exactly 3 rounds and at most k(k−1) exchange
//!   messages;
//! - Fan, Wang and Wu's guarantee for DSR-Fan: every site is visited once,
//!   so a call takes 2 rounds and 2k messages on every dataset, and its
//!   traffic is bounded by the fragmentation, not by |G|. With `Sᵢ`, `Tᵢ`
//!   the query's sources and targets in fragment `i` and `Iᵢ`, `Oᵢ` its
//!   in- and out-boundaries, the scatter ships `Sᵢ` and `Tᵢ` and the
//!   gather at most the pairs `(Sᵢ ∪ Iᵢ) × (Oᵢ ∪ Tᵢ)`. With at most 5 bytes
//!   per varint id and per list-length prefix,
//!
//!   `bytes ≤ Σᵢ 5·(|Sᵢ| + |Tᵢ|) + 10·|Sᵢ ∪ Iᵢ|·|Oᵢ ∪ Tᵢ| + 15`.
//!
//! [`common::Shapes`] checks (asserted in the fast run, printed under the
//! table where a full run misses them):
//! - DSR ships fewer bytes than each Giraph variant. The full run misses
//!   it on the LUBM-1B analogue, whose 200×200 query crosses no partition:
//!   Giraph++ ships nothing, DSR its scatter and gather;
//! - messages are ordered Giraph++wEq ≤ Giraph++ ≤ Giraph, and neither
//!   graph-centric engine needs more supersteps than Giraph.

use std::collections::BTreeSet;

use dsr_cluster::CommStats;
use dsr_core::{DsrEngine, DsrIndex};
use dsr_datagen::QueryWorkload;
use dsr_giraph::{
    giraph_pp_set_reachability, giraph_pp_weq_with_summaries, giraph_set_reachability,
};
use dsr_graph::VertexId;
use dsr_partition::PartitionId;

use crate::baselines::{FanBaseline, NaiveBaseline};
use crate::experiments::common::{self, Golden, Object, Shapes, DEFAULT_SLAVES};
use crate::{secs, time, Table};

/// Fan et al.'s bound on the bytes one DSR-Fan call ships for `query`
/// over the fragmentation `index` was built on (see the module docs).
fn fan_byte_bound(index: &DsrIndex, query: &QueryWorkload) -> u64 {
    let k = index.num_partitions();
    (0..k as PartitionId)
        .map(|i| {
            let boundaries = index.cut.partition(i);
            let local = |vertices: &[VertexId]| -> Vec<VertexId> {
                let local = vertices.iter().filter(|&&v| index.partition_of(v) == i);
                local.copied().collect()
            };
            let (sources, targets) = (local(&query.sources), local(&query.targets));
            let union =
                |a: &[VertexId], b: &[VertexId]| a.iter().chain(b).collect::<BTreeSet<_>>().len();
            let from = union(&sources, &boundaries.in_boundaries);
            let to = union(&targets, &boundaries.out_boundaries);
            (5 * (sources.len() + targets.len()) + 10 * from * to + 15) as u64
        })
        .sum()
}

/// Asserts Fan et al.'s guarantee on the account of one DSR-Fan call over
/// `k` sites.
fn assert_fan_guarantee(name: &str, k: usize, fan: &CommStats, bound: u64) {
    let (rounds, messages, bytes) = fan.snapshot();
    assert!(
        (rounds, messages) == (2, 2 * k as u64),
        "Table 3: {name}: DSR-Fan must visit each of the {k} sites once (2 rounds, {} \
         messages), took {rounds} rounds and {messages} messages",
        2 * k,
    );
    assert!(
        bytes <= bound,
        "Table 3: {name}: DSR-Fan shipped {bytes} bytes, above the fragmentation bound of {bound}",
    );
}

/// Runs the experiment; returns the rendered table and the text of
/// `BENCH_table3.json`.
pub fn run(fast: bool) -> (String, String) {
    let mut table = Table::new(
        "Table 3: Efficiency evaluation (times in seconds)",
        &[
            "Graph",
            "Indexing (DSR)",
            "|S|x|T|",
            "DSR",
            "Giraph++",
            "Giraph++wEq",
            "Giraph",
            "DSR-Fan",
            "DSR-Naive",
        ],
    );

    let mut datasets: Vec<(&str, usize)> = common::small_datasets(fast)
        .into_iter()
        .map(|d| (d, 10))
        .collect();
    for d in common::large_datasets(fast) {
        // The paper uses 1000×1000 for the very sparse LUBM graph.
        let q = if d.starts_with("LUBM") { 200 } else { 10 };
        datasets.push((d, q));
    }
    if fast {
        datasets.truncate(3);
    }

    let mut rows = Vec::new();
    let mut shapes = Shapes::new(fast);
    for (name, query_size) in datasets {
        let graph = common::dataset(name);
        let query = common::standard_query(&graph, query_size, query_size, 0x33);
        let partitioning = common::partition(&graph, DEFAULT_SLAVES);

        let (index, indexing_time) =
            time(|| DsrIndex::build(&graph, partitioning.clone(), dsr_reach::LocalIndexKind::Dfs));
        let engine = DsrEngine::new(&index);
        let (dsr_out, dsr_time) = time(|| engine.set_reachability(&query.sources, &query.targets));

        let (gpp, gppeq, giraph) = (CommStats::new(), CommStats::new(), CommStats::new());
        let (gpp_pairs, gpp_time) = time(|| {
            giraph_pp_set_reachability(&graph, &partitioning, &query.sources, &query.targets, &gpp)
        });
        // The equivalence summaries are part of the DSR index, so the wEq
        // query time excludes their computation (as in the paper).
        let (gppeq_pairs, gppeq_time) = time(|| {
            giraph_pp_weq_with_summaries(
                &graph,
                &partitioning,
                &index.summaries,
                &query.sources,
                &query.targets,
                &gppeq,
            )
        });
        let (giraph_pairs, giraph_time) = time(|| {
            giraph_set_reachability(
                &graph,
                &partitioning,
                &query.sources,
                &query.targets,
                &giraph,
            )
        });
        // Sanity: all engines must agree on the answer.
        assert_eq!(dsr_out.pairs, gpp_pairs, "{name}: DSR vs Giraph++ disagree");
        assert_eq!(
            dsr_out.pairs, gppeq_pairs,
            "{name}: DSR vs Giraph++wEq disagree"
        );
        assert_eq!(
            dsr_out.pairs, giraph_pairs,
            "{name}: DSR vs Giraph disagree"
        );
        common::assert_dsr_protocol("Table 3", name, DEFAULT_SLAVES, &dsr_out);
        shapes.dsr_ships_less(
            "Table 3",
            name,
            &dsr_out,
            [
                ("Giraph++", &gpp),
                ("Giraph++wEq", &gppeq),
                ("Giraph", &giraph),
            ],
        );
        shapes.giraph_order("Table 3", name, &gppeq, &gpp, &giraph);

        // The per-query baselines are only run on small graphs (the paper
        // marks them n/a beyond LiveJ-20M).
        let ((fan_cell, naive_cell), fan_cost, naive_cost) =
            if graph.num_edges() <= 40_000 && query_size <= 10 {
                let (fan_stats, naive_stats) = (CommStats::new(), CommStats::new());
                let fan = FanBaseline::new(&graph, partitioning.clone());
                let (fan_out, fan_time) =
                    time(|| fan.set_reachability(&query.sources, &query.targets, &fan_stats));
                assert_eq!(dsr_out.pairs, fan_out.pairs, "{name}: DSR vs Fan disagree");
                let bound = fan_byte_bound(&index, &query);
                assert_fan_guarantee(name, DEFAULT_SLAVES, &fan_stats, bound);
                let naive = NaiveBaseline::new(&graph, partitioning.clone());
                let (naive_out, naive_time) =
                    time(|| naive.set_reachability(&query.sources, &query.targets, &naive_stats));
                assert_eq!(
                    dsr_out.pairs, naive_out.pairs,
                    "{name}: DSR vs Naive disagree"
                );
                (
                    (secs(fan_time), secs(naive_time)),
                    Some(common::cost("rounds", &fan_stats).field("byte_bound", bound)),
                    Some(common::cost("rounds", &naive_stats)),
                )
            } else {
                (("n/a".to_string(), "n/a".to_string()), None, None)
            };

        table.row(vec![
            name.to_string(),
            secs(indexing_time),
            query.label(),
            secs(dsr_time),
            secs(gpp_time),
            secs(gppeq_time),
            secs(giraph_time),
            fan_cell,
            naive_cell,
        ]);
        rows.push(
            Object::new()
                .text("graph", name)
                .field("vertices", graph.num_vertices())
                .field("edges", graph.num_edges())
                .text("query", query.label())
                .field("pairs", dsr_out.pairs.len())
                .field("dsr", common::dsr_cost(&dsr_out))
                .field("giraph_pp", common::cost("supersteps", &gpp))
                .field("giraph_pp_weq", common::cost("supersteps", &gppeq))
                .field("giraph", common::cost("supersteps", &giraph))
                .field("fan", common::nullable(fan_cost))
                .field("naive", common::nullable(naive_cost)),
        );
    }
    let golden = Golden::new("table3", fast)
        .field("slaves", DEFAULT_SLAVES)
        .array("datasets", rows)
        .render();
    (shapes.under(table.render()), golden)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_rows() {
        let (_, json) = run(true);
        common::assert_golden(
            "table3",
            include_str!("../../../../BENCH_table3.json"),
            &json,
        );
    }
}
