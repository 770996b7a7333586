//! Figure 5 — scalability evaluation on the large-graph analogues.
//!
//! For each of the four large datasets (LiveJournal, Freebase, Twitter and
//! LUBM analogues) the experiment produces the paper's series:
//!
//! * (a/e/i/m) **strong scaling** and (b/f/j/n) **communication cost** —
//!   rounds, messages and bytes of one 10×10 query for DSR and the Giraph
//!   variants while the number of slaves grows from 2 to 8 over the full
//!   graph,
//! * (c/g/k/o) **weak scaling** — the same for DSR and Giraph++ when both
//!   the data size and the number of slaves grow proportionally,
//! * (d/h/l/p) **query-size robustness** — the same for DSR over 10×10,
//!   50×50 and 100×100 queries on the full graph.
//!
//! The paper plots time for (a), (c) and (d). Its argument for the flat
//! curves is that DSR's communication does not grow with the cluster or
//! the query, and that is what the counters in `BENCH_figure5.json` show.
//!
//! Reproduced shape, asserted on every run: at every k and every query
//! size a DSR call takes exactly 3 rounds and at most k(k−1) exchange
//! messages. A [`common::Shapes`] check (asserted in the fast run, printed
//! under the series where a full run misses it): in the strong-scaling
//! series DSR ships fewer bytes than each Giraph variant answering the
//! same query. The full run misses it on the LUBM-1B analogue, whose query
//! crosses no partition: Giraph++ ships nothing while DSR still pays its
//! scatter and gather. For the same reason the weak-scaling series
//! compares no bytes: over half the data the fast run's query crosses no
//! partition either.

use dsr_cluster::CommStats;
use dsr_core::{DsrEngine, DsrIndex};
use dsr_giraph::{
    giraph_pp_set_reachability, giraph_pp_weq_with_summaries, giraph_set_reachability,
};
use dsr_graph::DiGraph;
use dsr_reach::LocalIndexKind;

use crate::experiments::common::{self, Golden, Object, Shapes};
use crate::Table;

/// Kilobytes with one decimal, the unit of the paper's figure.
fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Runs the experiment; returns all three series per dataset and the text
/// of `BENCH_figure5.json`.
pub fn run(fast: bool) -> (String, String) {
    let mut out = String::new();
    let datasets = common::large_datasets(fast);
    let slave_counts: Vec<usize> = if fast {
        vec![2, 4]
    } else {
        vec![2, 3, 4, 5, 6, 7, 8]
    };
    let query_sizes: Vec<usize> = if fast {
        vec![10, 50]
    } else {
        vec![10, 50, 100]
    };

    let (mut graphs, mut strong, mut weak, mut sizes) = (vec![], vec![], vec![], vec![]);
    let mut shapes = Shapes::new(fast);
    for name in datasets {
        let graph = common::dataset(name);
        graphs.push(
            Object::new()
                .text("graph", name)
                .field("vertices", graph.num_vertices())
                .field("edges", graph.num_edges()),
        );
        out.push_str(&strong_scaling_and_comm(
            name,
            &graph,
            &slave_counts,
            &mut strong,
            &mut shapes,
        ));
        out.push_str(&weak_scaling(name, &graph, &slave_counts, &mut weak));
        out.push_str(&query_size_robustness(
            name,
            &graph,
            &query_sizes,
            &mut sizes,
        ));
    }
    let golden = Golden::new("figure5", fast)
        .array("graphs", graphs)
        .array("strong_scaling", strong)
        .array("weak_scaling", weak)
        .array("query_sizes", sizes)
        .render();
    (shapes.under(out), golden)
}

fn strong_scaling_and_comm(
    name: &str,
    graph: &DiGraph,
    slave_counts: &[usize],
    rows: &mut Vec<Object>,
    shapes: &mut Shapes,
) -> String {
    let mut table = Table::new(
        &format!("Figure 5 (a/b-style): strong scaling and communication — {name}"),
        &[
            "#Slaves",
            "DSR rounds",
            "DSR comm (KB)",
            "Giraph++ comm (KB)",
            "Giraph++wEq comm (KB)",
            "Giraph comm (KB)",
        ],
    );
    for &k in slave_counts {
        let partitioning = common::partition(graph, k);
        let query = common::standard_query(graph, 10, 10, 0xF5);
        let index = DsrIndex::build(graph, partitioning.clone(), LocalIndexKind::Dfs);
        let dsr = DsrEngine::new(&index).set_reachability(&query.sources, &query.targets);
        let (gpp, gppeq, giraph) = (CommStats::new(), CommStats::new(), CommStats::new());
        let (sources, targets) = (&query.sources, &query.targets);
        let summaries = &index.summaries;
        for other in [
            giraph_pp_set_reachability(graph, &partitioning, sources, targets, &gpp),
            giraph_pp_weq_with_summaries(graph, &partitioning, summaries, sources, targets, &gppeq),
            giraph_set_reachability(graph, &partitioning, sources, targets, &giraph),
        ] {
            assert_eq!(
                dsr.pairs, other,
                "Figure 5: {name}: engines disagree at k = {k}"
            );
        }
        common::assert_dsr_protocol("Figure 5", name, k, &dsr);
        shapes.dsr_ships_less(
            "Figure 5",
            name,
            &dsr,
            [
                ("Giraph++", &gpp),
                ("Giraph++wEq", &gppeq),
                ("Giraph", &giraph),
            ],
        );
        table.row(vec![
            k.to_string(),
            dsr.rounds.to_string(),
            kb(dsr.bytes),
            kb(gpp.bytes()),
            kb(gppeq.bytes()),
            kb(giraph.bytes()),
        ]);
        rows.push(
            Object::new()
                .text("graph", name)
                .field("slaves", k)
                .field("pairs", dsr.pairs.len())
                .field("dsr", common::dsr_cost(&dsr))
                .field("giraph_pp", common::cost("supersteps", &gpp))
                .field("giraph_pp_weq", common::cost("supersteps", &gppeq))
                .field("giraph", common::cost("supersteps", &giraph)),
        );
    }
    table.render()
}

fn weak_scaling(
    name: &str,
    graph: &DiGraph,
    slave_counts: &[usize],
    rows: &mut Vec<Object>,
) -> String {
    let mut table = Table::new(
        &format!("Figure 5 (c-style): weak scaling — {name}"),
        &[
            "#Slaves [%Data]",
            "DSR rounds",
            "DSR comm (KB)",
            "Giraph++ comm (KB)",
        ],
    );
    let all_edges = graph.edge_vec();
    let max_slaves = *slave_counts.last().unwrap_or(&2);
    for &k in slave_counts {
        // Scale the data proportionally to the number of slaves.
        let fraction = k as f64 / max_slaves as f64;
        let take = (all_edges.len() as f64 * fraction) as usize;
        let sub = DiGraph::from_edges(graph.num_vertices(), &all_edges[..take]);
        let partitioning = common::partition(&sub, k);
        let query = common::standard_query(&sub, 10, 10, 0xF5);
        let index = DsrIndex::build(&sub, partitioning.clone(), LocalIndexKind::Dfs);
        let dsr = DsrEngine::new(&index).set_reachability(&query.sources, &query.targets);
        let gpp = CommStats::new();
        assert_eq!(
            dsr.pairs,
            giraph_pp_set_reachability(&sub, &partitioning, &query.sources, &query.targets, &gpp),
            "Figure 5: {name}: engines disagree at k = {k}"
        );
        common::assert_dsr_protocol("Figure 5", name, k, &dsr);
        table.row(vec![
            format!("{k} [{:.0}%]", fraction * 100.0),
            dsr.rounds.to_string(),
            kb(dsr.bytes),
            kb(gpp.bytes()),
        ]);
        rows.push(
            Object::new()
                .text("graph", name)
                .field("slaves", k)
                .field("edges", take)
                .field("pairs", dsr.pairs.len())
                .field("dsr", common::dsr_cost(&dsr))
                .field("giraph_pp", common::cost("supersteps", &gpp)),
        );
    }
    table.render()
}

fn query_size_robustness(
    name: &str,
    graph: &DiGraph,
    query_sizes: &[usize],
    rows: &mut Vec<Object>,
) -> String {
    let mut table = Table::new(
        &format!("Figure 5 (d-style): query-size robustness — {name}"),
        &[
            "|S|x|T|",
            "#pairs",
            "DSR rounds",
            "DSR messages",
            "DSR comm (KB)",
        ],
    );
    let k = common::DEFAULT_SLAVES;
    let partitioning = common::partition(graph, k);
    let index = DsrIndex::build(graph, partitioning, LocalIndexKind::Dfs);
    let engine = DsrEngine::new(&index);
    for &size in query_sizes {
        let query = common::standard_query(graph, size, size, 0xD5);
        let dsr = engine.set_reachability(&query.sources, &query.targets);
        common::assert_dsr_protocol("Figure 5", name, k, &dsr);
        table.row(vec![
            query.label(),
            dsr.pairs.len().to_string(),
            dsr.rounds.to_string(),
            dsr.messages.to_string(),
            kb(dsr.bytes),
        ]);
        rows.push(
            Object::new()
                .text("graph", name)
                .text("query", query.label())
                .field("pairs", dsr.pairs.len())
                .field("dsr", common::dsr_cost(&dsr)),
        );
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_all_series() {
        let (_, json) = run(true);
        common::assert_golden(
            "figure5",
            include_str!("../../../../BENCH_figure5.json"),
            &json,
        );
    }
}
