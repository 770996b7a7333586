//! Figure 6 — incremental update evaluation (insertions and deletions).
//!
//! Reproduces the paper's four update workloads over the small-graph
//! analogues:
//!
//! * **bulk insertions** — start from 60% of the edges and grow back to
//!   100% in 5% steps;
//! * **progressive insertions** — insert a progressively larger share
//!   (5%–25%) of edges into an index built over the remainder;
//! * **bulk deletions** — shrink the full graph in 5% steps;
//! * **progressive deletions** — delete a progressively larger share.
//!
//! Every step records what the update did — summaries refreshed, compound
//! graphs patched, refresh messages and bytes — and the answer of a 10×10
//! query after it (`BENCH_figure6.json`). How long an update takes against
//! a rebuild is a timed claim and lives in the repository benchmark
//! (`core.updates.bulk_vs_rebuild` under `benchmark/`).
//!
//! Reproduced shape, asserted on every run: after every step the query's
//! answer equals the answer over an index freshly built from the same
//! edges. The paper's "an insertion step costs a small fraction
//! of a rebuild" does not hold in these counters at this scale: a 5% batch
//! already touches every partition.

use dsr_core::{DsrEngine, DsrIndex, UpdateOp};
use dsr_datagen::QueryWorkload;
use dsr_graph::DiGraph;
use dsr_reach::LocalIndexKind;

use crate::experiments::common::{self, Golden, Object, DEFAULT_SLAVES};
use crate::Table;

/// Runs the experiment; returns one rendered table per workload and the
/// text of `BENCH_figure6.json`.
pub fn run(fast: bool) -> (String, String) {
    let datasets = if fast {
        vec!["Stanford"]
    } else {
        vec!["Amazon", "NotreDame", "Stanford", "LiveJ-20M"]
    };
    let steps: Vec<f64> = if fast {
        vec![0.60, 0.80, 1.00]
    } else {
        vec![0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00]
    };
    let progressive: Vec<f64> = if fast {
        vec![0.05, 0.15]
    } else {
        vec![0.05, 0.10, 0.15, 0.20, 0.25]
    };

    let mut out = String::new();
    let mut rows = Vec::new();
    for name in datasets {
        let graph = common::dataset(name);
        for series in [
            bulk_insertions(name, &graph, &steps),
            progressive_insertions(name, &graph, &progressive),
            bulk_deletions(name, &graph, &steps),
            progressive_deletions(name, &graph, &progressive),
        ] {
            out.push_str(&series.table.render());
            rows.extend(series.rows);
        }
    }
    let golden = Golden::new("figure6", fast)
        .field("slaves", DEFAULT_SLAVES)
        .array("steps", rows)
        .render();
    (out, golden)
}

/// The steps of one workload on one dataset: its table and golden rows.
struct Series<'a> {
    name: &'a str,
    workload: &'static str,
    num_vertices: usize,
    query: QueryWorkload,
    table: Table,
    rows: Vec<Object>,
}

impl<'a> Series<'a> {
    fn new(name: &'a str, workload: &'static str, style: &str, graph: &DiGraph) -> Self {
        Series {
            name,
            workload,
            num_vertices: graph.num_vertices(),
            query: common::standard_query(graph, 10, 10, 0xF6),
            table: Table::new(
                &format!("Figure 6 ({style}-style): {workload} — {name}"),
                &[
                    "Step",
                    "Ops",
                    "Refreshed summaries",
                    "Patched compounds",
                    "Delta msgs",
                    "Delta bytes",
                    "#Pairs",
                ],
            ),
            rows: Vec::new(),
        }
    }

    /// Applies `batch` to `index`, checks the step against a fresh build
    /// over `edges` (the graph the batch leads to) and records it.
    fn step(
        &mut self,
        label: String,
        index: &mut DsrIndex,
        batch: &[UpdateOp],
        edges: &[(u32, u32)],
    ) {
        let (name, workload) = (self.name, self.workload);
        let outcome = index.apply_updates(batch);
        let (refreshed, patched) = (
            outcome.refreshed_summaries.len(),
            outcome.patched_compounds.len(),
        );
        let fresh = DsrIndex::build(
            &DiGraph::from_edges(self.num_vertices, edges),
            index.partitioning.clone(),
            LocalIndexKind::Dfs,
        );
        let (sources, targets) = (&self.query.sources, &self.query.targets);
        let pairs = DsrEngine::new(index)
            .set_reachability(sources, targets)
            .pairs;
        assert_eq!(
            pairs,
            DsrEngine::new(&fresh)
                .set_reachability(sources, targets)
                .pairs,
            "Figure 6: {name}, {workload} {label}: the updated index must answer as a fresh build"
        );
        let stats = outcome.stats;
        self.table.row(vec![
            label.clone(),
            batch.len().to_string(),
            refreshed.to_string(),
            patched.to_string(),
            stats.update_messages.to_string(),
            stats.update_bytes.to_string(),
            pairs.len().to_string(),
        ]);
        self.rows.push(
            Object::new()
                .text("graph", name)
                .text("workload", workload)
                .text("step", label)
                .field("ops", batch.len())
                .field("refreshed_summaries", refreshed)
                .field("patched_compounds", patched)
                .field("update_messages", stats.update_messages)
                .field("update_bytes", stats.update_bytes)
                .field("pairs", pairs.len()),
        );
    }
}

/// `edges` as one update batch of `op`s (`UpdateOp::Insert` or
/// `UpdateOp::Delete`).
fn batch_of(edges: &[(u32, u32)], op: fn(u32, u32) -> UpdateOp) -> Vec<UpdateOp> {
    edges.iter().map(|&(u, v)| op(u, v)).collect()
}

/// The first `fraction` of `edges`, rounded to the nearest edge.
fn share(edges: &[(u32, u32)], fraction: f64) -> usize {
    (edges.len() as f64 * fraction).round() as usize
}

fn bulk_insertions<'a>(name: &'a str, graph: &DiGraph, steps: &[f64]) -> Series<'a> {
    let mut series = Series::new(name, "bulk insertions", "a/e", graph);
    let all_edges = graph.edge_vec();
    let mut inserted = share(&all_edges, steps[0]);
    let base = DiGraph::from_edges(graph.num_vertices(), &all_edges[..inserted]);
    let partitioning = common::partition(graph, DEFAULT_SLAVES);
    let mut index = DsrIndex::build(&base, partitioning, LocalIndexKind::Dfs);
    for &step in &steps[1..] {
        let upto = share(&all_edges, step);
        let batch = batch_of(&all_edges[inserted..upto], UpdateOp::Insert);
        series.step(
            format!("{:.0}%", step * 100.0),
            &mut index,
            &batch,
            &all_edges[..upto],
        );
        inserted = upto;
    }
    series
}

fn progressive_insertions<'a>(name: &'a str, graph: &DiGraph, fractions: &[f64]) -> Series<'a> {
    let mut series = Series::new(name, "progressive insertions", "b/f", graph);
    let all_edges = graph.edge_vec();
    let partitioning = common::partition(graph, DEFAULT_SLAVES);
    for &fraction in fractions {
        let keep = share(&all_edges, 1.0 - fraction);
        let base = DiGraph::from_edges(graph.num_vertices(), &all_edges[..keep]);
        let mut index = DsrIndex::build(&base, partitioning.clone(), LocalIndexKind::Dfs);
        let batch = batch_of(&all_edges[keep..], UpdateOp::Insert);
        series.step(
            format!("{:.0}%", fraction * 100.0),
            &mut index,
            &batch,
            &all_edges,
        );
    }
    series
}

fn bulk_deletions<'a>(name: &'a str, graph: &DiGraph, steps: &[f64]) -> Series<'a> {
    let mut series = Series::new(name, "bulk deletions", "c/g", graph);
    let partitioning = common::partition(graph, DEFAULT_SLAVES);
    let mut index = DsrIndex::build(graph, partitioning, LocalIndexKind::Dfs);
    let all_edges = graph.edge_vec();
    let mut kept = all_edges.len();
    // Walk the steps downwards from 100%.
    let mut descending: Vec<f64> = steps.to_vec();
    descending.sort_by(|a, b| b.total_cmp(a));
    for &step in descending.iter().skip(1) {
        let target = share(&all_edges, step);
        let batch = batch_of(&all_edges[target..kept], UpdateOp::Delete);
        series.step(
            format!("{:.0}%", step * 100.0),
            &mut index,
            &batch,
            &all_edges[..target],
        );
        kept = target;
    }
    series
}

fn progressive_deletions<'a>(name: &'a str, graph: &DiGraph, fractions: &[f64]) -> Series<'a> {
    let mut series = Series::new(name, "progressive deletions", "d/h", graph);
    let all_edges = graph.edge_vec();
    let partitioning = common::partition(graph, DEFAULT_SLAVES);
    for &fraction in fractions {
        let keep = all_edges.len() - share(&all_edges, fraction);
        let mut index = DsrIndex::build(graph, partitioning.clone(), LocalIndexKind::Dfs);
        let batch = batch_of(&all_edges[keep..], UpdateOp::Delete);
        series.step(
            format!("{:.0}%", fraction * 100.0),
            &mut index,
            &batch,
            &all_edges[..keep],
        );
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_all_workloads() {
        let (_, json) = run(true);
        common::assert_golden(
            "figure6",
            include_str!("../../../../BENCH_figure6.json"),
            &json,
        );
    }
}
