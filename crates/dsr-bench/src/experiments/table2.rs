//! Table 2 — index sizes for the DSR variants.
//!
//! For every dataset analogue the experiment reports the per-node maximum
//! compound-graph size before ("Original") and after SCC condensation
//! ("DAG"), the total byte size of the DSR index, and the dependency-graph
//! sizes that DSR-Fan and DSR-Naïve build dynamically for a 10×10 query.
//!
//! Reproduced shape, a [`common::Shapes`] check (asserted in the fast run,
//! printed under the table where a full run misses it): on every dataset
//! the largest condensed compound graph has no more edges than the largest
//! compound graph, and fewer wherever the graph has a cycle; where DSR-Fan
//! and DSR-Naïve run, each of their dependency graphs has more edges than
//! that largest DAG. The full run misses the latter on the acyclic LUBM-1B
//! analogue, whose 10×10 query crosses no partition: both dependency
//! graphs are empty.

use dsr_cluster::CommStats;
use dsr_graph::tarjan_scc;

use crate::baselines::{FanBaseline, NaiveBaseline};
use crate::experiments::common::{self, Golden, Object, Shapes, DEFAULT_SLAVES};
use crate::{megabytes, Table};

/// Runs the experiment; returns the rendered table and the text of
/// `BENCH_table2.json`.
pub fn run(fast: bool) -> (String, String) {
    let mut table = Table::new(
        "Table 2: Index sizes for DSR variants",
        &[
            "Graph",
            "DSR Original (#edges)",
            "DSR DAG (#edges)",
            "DSR Size (MB)",
            "Fan dep.graph (#edges)",
            "Naive dep.graph (#edges, avg)",
        ],
    );
    let mut datasets = common::small_datasets(fast);
    if !fast {
        // The paper also lists the large graphs for DSR; include the two
        // extremes (highly connected vs. sparse) to show the condensation
        // effect.
        datasets.push("LiveJ-68M");
        datasets.push("Twitter-1.4B");
        datasets.push("LUBM-1B");
    }
    let query_pairs = if fast { 4 } else { 10 };

    let mut rows = Vec::new();
    let mut shapes = Shapes::new(fast);
    for name in datasets {
        let graph = common::dataset(name);
        let partitioning = common::partition(&graph, DEFAULT_SLAVES);
        let index =
            dsr_core::DsrIndex::build(&graph, partitioning.clone(), dsr_reach::LocalIndexKind::Dfs);
        let query = common::standard_query(&graph, query_pairs, query_pairs, 0xD5);
        let (compound_edges, dag_edges) = (
            index.stats.max_compound_edges(),
            index.stats.max_dag_edges(),
        );
        // Condensation never adds an edge, and it drops one only where the
        // compound graph has a cycle, which needs a cycle in the graph:
        // the acyclic LUBM analogue keeps every edge.
        let cyclic = tarjan_scc(&graph).largest_component_size() > 1;
        shapes.check(
            dag_edges < compound_edges || (!cyclic && dag_edges == compound_edges),
            || {
                format!(
                    "Table 2: {name}: the largest DAG ({dag_edges} edges) must be {} the \
                     largest compound graph ({compound_edges} edges)",
                    if cyclic {
                        "smaller than"
                    } else {
                        "no larger than"
                    }
                )
            },
        );

        // Fan/Naive dependency graphs only on the small graphs (as in the
        // paper, where they are "n/a" for the large ones).
        let dependency_edges = (graph.num_edges() <= 50_000).then(|| {
            // Table 2 reports sizes only; the cost is Table 3's.
            let stats = CommStats::new();
            let fan = FanBaseline::new(&graph, partitioning.clone()).set_reachability(
                &query.sources,
                &query.targets,
                &stats,
            );
            let naive = NaiveBaseline::new(&graph, partitioning).set_reachability(
                &query.sources,
                &query.targets,
                &stats,
            );
            for (baseline, edges) in [
                ("Fan", fan.dependency_edges),
                ("Naive", naive.dependency_edges),
            ] {
                shapes.check(edges > dag_edges, || {
                    format!(
                        "Table 2: {name}: the {baseline} dependency graph ({edges} edges) must \
                         be larger than DSR's largest DAG ({dag_edges} edges)"
                    )
                });
            }
            (fan.dependency_edges, naive.dependency_edges)
        });
        let (fan_edges, naive_edges) = dependency_edges.unzip();
        let cell = |edges: Option<usize>| edges.map_or("n/a".to_string(), |e| e.to_string());
        table.row(vec![
            name.to_string(),
            compound_edges.to_string(),
            dag_edges.to_string(),
            megabytes(index.stats.total_bytes),
            cell(fan_edges),
            cell(naive_edges),
        ]);
        rows.push(
            Object::new()
                .text("graph", name)
                .field("vertices", graph.num_vertices())
                .field("edges", graph.num_edges())
                .field("compound_edges", compound_edges)
                .field("dag_edges", dag_edges)
                .field("index_bytes", index.stats.total_bytes)
                .field("fan_dependency_edges", common::nullable(fan_edges))
                .field("naive_dependency_edges", common::nullable(naive_edges)),
        );
    }
    let golden = Golden::new("table2", fast)
        .field("slaves", DEFAULT_SLAVES)
        .field(
            "query",
            Object::new()
                .field("sources", query_pairs)
                .field("targets", query_pairs),
        )
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
            "table2",
            include_str!("../../../../BENCH_table2.json"),
            &json,
        );
    }
}
