//! Figure 6 — incremental update evaluation (insertions and deletions).
//!
//! Reproduces the paper's four update workloads over the small-graph
//! analogues:
//!
//! * **bulk insertions** — start from 60% of the edges and grow back to
//!   100% in 5% steps, measuring the update time of every step and the
//!   query time after it;
//! * **progressive insertions** — insert a progressively larger share
//!   (5%–25%) of edges into an index built over the remainder;
//! * **bulk deletions** — shrink the full graph in 5% steps;
//! * **progressive deletions** — delete a progressively larger share.
//!
//! Reproduced shape: insertion steps cost a small fraction of a full
//! rebuild, deletions cost roughly as much as rebuilding the affected
//! partitions, and query times stay within the same order of magnitude
//! throughout.

use dsr_core::{DsrEngine, DsrIndex, UpdateOp};
use dsr_graph::DiGraph;
use dsr_reach::LocalIndexKind;

use crate::experiments::common::{self, DEFAULT_SLAVES};
use crate::{secs, time, Table};

/// Runs the experiment and renders one table per workload.
pub fn run(fast: bool) -> String {
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
    for name in datasets {
        let graph = common::dataset(name);
        out.push_str(&bulk_insertions(name, &graph, &steps));
        out.push_str(&progressive_insertions(name, &graph, &progressive));
        out.push_str(&bulk_deletions(name, &graph, &steps));
        out.push_str(&progressive_deletions(name, &graph, &progressive));
    }
    out
}

/// A graph rebuilt from the first `fraction` of the edges, plus the kept
/// and remaining edge lists.
type PrefixSplit = (DiGraph, Vec<(u32, u32)>, Vec<(u32, u32)>);

fn prefix_graph(graph: &DiGraph, fraction: f64) -> PrefixSplit {
    let edges = graph.edge_vec();
    let take = (edges.len() as f64 * fraction).round() as usize;
    let base = DiGraph::from_edges(graph.num_vertices(), &edges[..take]);
    (base, edges[..take].to_vec(), edges[take..].to_vec())
}

/// `edges` as one update batch of `op`s (`UpdateOp::Insert` or
/// `UpdateOp::Delete`).
fn batch_of(edges: &[(u32, u32)], op: fn(u32, u32) -> UpdateOp) -> Vec<UpdateOp> {
    edges.iter().map(|&(u, v)| op(u, v)).collect()
}

fn query_time(index: &DsrIndex, graph: &DiGraph) -> std::time::Duration {
    let query = common::standard_query(graph, 10, 10, 0xF6);
    let engine = DsrEngine::new(index);
    let (_, elapsed) = time(|| engine.set_reachability(&query.sources, &query.targets));
    elapsed
}

fn bulk_insertions(name: &str, graph: &DiGraph, steps: &[f64]) -> String {
    let mut table = Table::new(
        &format!("Figure 6 (a/e-style): bulk insertions — {name}"),
        &["Edges kept", "Update time (s)", "Query time (s)"],
    );
    let (base, _, _) = prefix_graph(graph, steps[0]);
    let partitioning = common::partition(graph, DEFAULT_SLAVES);
    let mut index = DsrIndex::build(&base, partitioning, LocalIndexKind::Dfs);
    let all_edges = graph.edge_vec();
    let mut inserted = (all_edges.len() as f64 * steps[0]).round() as usize;
    table.row(vec![
        format!("{:.0}%", steps[0] * 100.0),
        "(initial build)".into(),
        secs(query_time(&index, graph)),
    ]);
    for &step in &steps[1..] {
        let upto = (all_edges.len() as f64 * step).round() as usize;
        let batch = batch_of(&all_edges[inserted..upto], UpdateOp::Insert);
        let (_, update_time) = time(|| index.apply_updates(&batch));
        inserted = upto;
        table.row(vec![
            format!("{:.0}%", step * 100.0),
            secs(update_time),
            secs(query_time(&index, graph)),
        ]);
    }
    table.render()
}

fn progressive_insertions(name: &str, graph: &DiGraph, fractions: &[f64]) -> String {
    let mut table = Table::new(
        &format!("Figure 6 (b/f-style): progressive insertions — {name}"),
        &[
            "Inserted",
            "Update time (s)",
            "Query time (s)",
            "Full rebuild (s)",
        ],
    );
    let all_edges = graph.edge_vec();
    for &fraction in fractions {
        let keep = ((1.0 - fraction) * all_edges.len() as f64).round() as usize;
        let base = DiGraph::from_edges(graph.num_vertices(), &all_edges[..keep]);
        let partitioning = common::partition(graph, DEFAULT_SLAVES);
        let mut index = DsrIndex::build(&base, partitioning.clone(), LocalIndexKind::Dfs);
        let batch = batch_of(&all_edges[keep..], UpdateOp::Insert);
        let (_, update_time) = time(|| index.apply_updates(&batch));
        let (_, rebuild_time) = time(|| DsrIndex::build(graph, partitioning, LocalIndexKind::Dfs));
        table.row(vec![
            format!("{:.0}%", fraction * 100.0),
            secs(update_time),
            secs(query_time(&index, graph)),
            secs(rebuild_time),
        ]);
    }
    table.render()
}

fn bulk_deletions(name: &str, graph: &DiGraph, steps: &[f64]) -> String {
    let mut table = Table::new(
        &format!("Figure 6 (c/g-style): bulk deletions — {name}"),
        &["Edges kept", "Update time (s)", "Query time (s)"],
    );
    let partitioning = common::partition(graph, DEFAULT_SLAVES);
    let mut index = DsrIndex::build(graph, partitioning, LocalIndexKind::Dfs);
    let all_edges = graph.edge_vec();
    let mut kept = all_edges.len();
    // Walk the steps downwards from 100%.
    let mut descending: Vec<f64> = steps.to_vec();
    descending.sort_by(|a, b| b.partial_cmp(a).unwrap());
    table.row(vec![
        "100%".into(),
        "(initial build)".into(),
        secs(query_time(&index, graph)),
    ]);
    for &step in descending.iter().skip(1) {
        let target = (all_edges.len() as f64 * step).round() as usize;
        let batch = batch_of(&all_edges[target..kept], UpdateOp::Delete);
        let (_, update_time) = time(|| index.apply_updates(&batch));
        kept = target;
        table.row(vec![
            format!("{:.0}%", step * 100.0),
            secs(update_time),
            secs(query_time(&index, graph)),
        ]);
    }
    table.render()
}

fn progressive_deletions(name: &str, graph: &DiGraph, fractions: &[f64]) -> String {
    let mut table = Table::new(
        &format!("Figure 6 (d/h-style): progressive deletions — {name}"),
        &["Deleted", "Update time (s)", "Query time (s)"],
    );
    let all_edges = graph.edge_vec();
    for &fraction in fractions {
        let remove = (fraction * all_edges.len() as f64).round() as usize;
        let partitioning = common::partition(graph, DEFAULT_SLAVES);
        let mut index = DsrIndex::build(graph, partitioning, LocalIndexKind::Dfs);
        let batch = batch_of(&all_edges[all_edges.len() - remove..], UpdateOp::Delete);
        let (_, update_time) = time(|| index.apply_updates(&batch));
        table.row(vec![
            format!("{:.0}%", fraction * 100.0),
            secs(update_time),
            secs(query_time(&index, graph)),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_all_workloads() {
        let out = run(true);
        assert!(out.contains("bulk insertions"));
        assert!(out.contains("progressive insertions"));
        assert!(out.contains("bulk deletions"));
        assert!(out.contains("progressive deletions"));
    }
}
