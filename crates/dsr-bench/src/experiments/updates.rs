//! Differential-update experiment (what Figure 6's updates ship).
//!
//! Where the `figure6` experiment reports wall-clock update times per
//! dataset, this experiment measures what the differential pipeline
//! actually *ships* and nothing else: every update batch flows through
//! [`DsrIndex::apply_updates_with_transport`], so the reported
//! rounds/messages/bytes are the measured wire size of the
//! `SummaryDelta` refresh messages — the same units as query
//! communication. How long a bulk batch takes against a rebuild is the
//! repository benchmark's `core.updates.bulk_vs_rebuild`. Three workloads:
//!
//! 1. **bulk** — insert the held-back 20% of the edges in one batch and
//!    check the answers against a full index rebuild;
//! 2. **progressive** — the same edges in many small batches, the worst
//!    case for per-batch overhead;
//! 3. **interleaved** — a live [`QueryService`] alternating query batches
//!    with [`QueryService::update`] batches from a consistent
//!    [`update_stream`], exercising coalescing and generation-correct
//!    cache invalidation under load.
//!
//! The bulk workload additionally re-runs under the serializing
//! [`WireTransport`], asserting that it reports [`UpdateStats`]
//! **byte-identical** to the in-process run — update cost cannot drift
//! from what a real byte substrate would ship.
//!
//! [`run`] returns the rendered table and the text of `BENCH_updates.json`;
//! in fast mode that text must equal the committed file, which this
//! module's test compares whole.

use dsr_sync::Arc;

use dsr_cluster::{InProcess, UpdateStats, WireTransport};
use dsr_core::{DsrEngine, DsrIndex, SetQuery, UpdateOp};
use dsr_datagen::{query_stream, update_stream, EdgeOp, StreamConfig, UpdateStreamConfig};
use dsr_graph::DiGraph;
use dsr_partition::Partitioning;
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryService, ServiceConfig, UpdateMode};

use crate::experiments::common::{self, Golden, Object};
use crate::Table;

/// Measurements of one update workload.
struct WorkloadResult {
    name: &'static str,
    transport: &'static str,
    ops: usize,
    batches: usize,
    stats: UpdateStats,
    refreshed: usize,
    patched: usize,
    /// Queries answered while updating (interleaved only).
    queries: usize,
    invalidations: u64,
}

fn op_of(edge_op: EdgeOp) -> UpdateOp {
    match edge_op {
        EdgeOp::Insert(u, v) => UpdateOp::Insert(u, v),
        EdgeOp::Delete(u, v) => UpdateOp::Delete(u, v),
    }
}

/// Runs the experiment; returns the rendered table and the text of
/// `BENCH_updates.json`.
pub fn run(fast: bool) -> (String, String) {
    let (graph_name, graph): (&str, DiGraph) = if fast {
        ("web-2k", dsr_datagen::web_graph(600, 4.0, 12, 0.7, 0xDE))
    } else {
        ("Stanford", common::dataset("Stanford"))
    };
    let slaves = if fast { 3 } else { common::DEFAULT_SLAVES };
    let progressive_batches = if fast { 8 } else { 20 };
    let interleaved_rounds = if fast { 8 } else { 32 };
    let interleaved_ops_per_round = if fast { 16 } else { 64 };
    let interleaved_queries_per_round = if fast { 16 } else { 64 };

    let partitioning = common::partition(&graph, slaves);
    let edges = graph.edge_vec();
    let keep = (edges.len() as f64 * 0.8).round() as usize;
    let base = DiGraph::from_edges(graph.num_vertices(), &edges[..keep]);
    let tail: Vec<UpdateOp> = edges[keep..]
        .iter()
        .map(|&(u, v)| UpdateOp::Insert(u, v))
        .collect();

    // --- Workload 1: bulk insertion vs full rebuild. ---------------------
    let mut index = build(&base, &partitioning);
    let outcome = index
        .apply_updates_with_transport(&tail, &InProcess)
        .expect("in-process transport never fails");
    assert_answers_match(&index, &build(&graph, &partitioning), &graph);
    let bulk = WorkloadResult {
        name: "bulk",
        transport: "in-process",
        ops: tail.len(),
        batches: 1,
        stats: outcome.stats,
        refreshed: outcome.refreshed_summaries.len(),
        patched: outcome.patched_compounds.len(),
        queries: 0,
        invalidations: 0,
    };

    // --- Workload 1b: the same bulk batch over the wire transport. -------
    let mut wired_index = build(&base, &partitioning);
    let wire = WireTransport::new();
    let wire_outcome = wired_index
        .apply_updates_with_transport(&tail, &wire)
        .expect("SummaryDelta round-trips through its codec");
    assert_eq!(
        wire_outcome.stats, outcome.stats,
        "wire update stats must be byte-identical to the in-process run"
    );
    let bulk_wire = WorkloadResult {
        name: "bulk_wire",
        transport: "wire",
        ops: tail.len(),
        batches: 1,
        stats: wire_outcome.stats,
        refreshed: wire_outcome.refreshed_summaries.len(),
        patched: wire_outcome.patched_compounds.len(),
        queries: 0,
        invalidations: 0,
    };

    // --- Workload 2: progressive insertion in small batches. -------------
    let mut index = build(&base, &partitioning);
    let chunk = tail.len().div_ceil(progressive_batches).max(1);
    let mut progressive_stats = UpdateStats::default();
    let mut refreshed = 0usize;
    let mut patched = 0usize;
    let mut batches = 0usize;
    for ops in tail.chunks(chunk) {
        let outcome = index
            .apply_updates_with_transport(ops, &InProcess)
            .expect("in-process transport never fails");
        progressive_stats.merge(&outcome.stats);
        refreshed += outcome.refreshed_summaries.len();
        patched += outcome.patched_compounds.len();
        batches += 1;
    }
    assert_answers_match(&index, &build(&graph, &partitioning), &graph);
    let progressive = WorkloadResult {
        name: "progressive",
        transport: "in-process",
        ops: tail.len(),
        batches,
        stats: progressive_stats,
        refreshed,
        patched,
        queries: 0,
        invalidations: 0,
    };

    // --- Workload 3: interleaved queries and updates on a live service. --
    let service = QueryService::with_config(
        Arc::new(build(&graph, &partitioning)),
        ServiceConfig::default(),
    );
    let stream = update_stream(
        &graph,
        &UpdateStreamConfig {
            num_ops: interleaved_rounds * interleaved_ops_per_round,
            insert_fraction: 0.6,
            seed: 0xF6,
        },
    );
    let queries = query_stream(
        &graph,
        &StreamConfig {
            num_queries: interleaved_rounds * interleaved_queries_per_round,
            num_sources: 8,
            num_targets: 8,
            distinct: 24,
            skew: 0.99,
            pattern: dsr_datagen::ArrivalPattern::ClosedLoop,
            seed: 0x1A,
        },
    );
    let query_batches: Vec<Vec<SetQuery>> = queries
        .queries()
        .map(|q| SetQuery::new(q.sources.clone(), q.targets.clone()))
        .collect::<Vec<_>>()
        .chunks(interleaved_queries_per_round)
        .map(<[SetQuery]>::to_vec)
        .collect();
    let mut answered = 0usize;
    for (round, ops) in stream.chunks(interleaved_ops_per_round).enumerate() {
        let ops: Vec<UpdateOp> = ops.iter().map(|&op| op_of(op)).collect();
        service
            .update(&ops, UpdateMode::Auto)
            .expect("in-process transport never fails");
        if let Some(batch) = query_batches.get(round) {
            answered += service
                .query_batch(batch)
                .expect("in-process transport never fails")
                .results
                .len();
        }
    }
    let interleaved = WorkloadResult {
        name: "interleaved",
        transport: "in-process",
        ops: stream.len(),
        batches: interleaved_rounds,
        stats: service.update_stats(),
        refreshed: 0,
        patched: 0,
        queries: answered,
        invalidations: service.cache_stats().invalidations(),
    };

    let workloads = [bulk, bulk_wire, progressive, interleaved];

    // --- Render. ---------------------------------------------------------
    let mut table = Table::new(
        &format!(
            "Differential updates: {graph_name} ({} vertices, {} edges), {slaves} slaves",
            graph.num_vertices(),
            graph.num_edges()
        ),
        &[
            "Workload",
            "Transport",
            "Ops",
            "Batches",
            "Rounds",
            "Messages",
            "Update KB",
            "Notes",
        ],
    );
    for w in &workloads {
        let notes = if w.queries > 0 {
            format!("{} queries, {} invalidations", w.queries, w.invalidations)
        } else {
            String::new()
        };
        table.row(vec![
            w.name.to_string(),
            w.transport.to_string(),
            w.ops.to_string(),
            w.batches.to_string(),
            w.stats.update_rounds.to_string(),
            w.stats.update_messages.to_string(),
            format!("{:.1}", w.stats.update_bytes as f64 / 1024.0),
            notes,
        ]);
    }

    let json = render_json(fast, graph_name, &graph, slaves, &workloads);
    (table.render(), json)
}

fn build(graph: &DiGraph, partitioning: &Partitioning) -> DsrIndex {
    DsrIndex::build(graph, partitioning.clone(), LocalIndexKind::Dfs)
}

/// The incrementally maintained index must answer exactly like a fresh
/// build over the final graph.
fn assert_answers_match(updated: &DsrIndex, fresh: &DsrIndex, graph: &DiGraph) {
    let query = common::standard_query(graph, 10, 10, 0xF6);
    assert_eq!(
        DsrEngine::new(updated)
            .set_reachability(&query.sources, &query.targets)
            .pairs,
        DsrEngine::new(fresh)
            .set_reachability(&query.sources, &query.targets)
            .pairs,
        "differentially updated index must match a fresh rebuild"
    );
}

fn render_json(
    fast: bool,
    graph_name: &str,
    graph: &DiGraph,
    slaves: usize,
    workloads: &[WorkloadResult],
) -> String {
    Golden::new("updates", fast)
        .field(
            "graph",
            Object::new()
                .text("name", graph_name)
                .field("vertices", graph.num_vertices())
                .field("edges", graph.num_edges())
                .field("slaves", slaves),
        )
        // Asserted in `run` before anything is rendered.
        .field("wire", Object::new().field("stats_identical", true))
        .array(
            "workloads",
            workloads.iter().map(|w| {
                Object::new()
                    .text("name", w.name)
                    .text("transport", w.transport)
                    .field("ops", w.ops)
                    .field("batches", w.batches)
                    .field("update_rounds", w.stats.update_rounds)
                    .field("update_messages", w.stats.update_messages)
                    .field("update_bytes", w.stats.update_bytes)
                    .field("refreshed_summaries", w.refreshed)
                    .field("patched_compounds", w.patched)
                    .field("queries", w.queries)
                    .field("cache_invalidations", w.invalidations)
            }),
        )
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_table_and_json() {
        let (table, json) = run(true);
        for workload in ["bulk_wire", "progressive", "interleaved"] {
            assert!(
                table.contains(workload),
                "{workload} row rendered:\n{table}"
            );
        }
        common::assert_golden(
            "updates",
            include_str!("../../../../BENCH_updates.json"),
            &json,
        );
    }
}
