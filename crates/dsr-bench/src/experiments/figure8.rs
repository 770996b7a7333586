//! Figure 8 — the equivalence-sets optimization applied to Giraph.
//!
//! For the small-graph analogues, Giraph++, Giraph++wEq and plain Giraph
//! run the same 10×10 query; the experiment reports the number of
//! supersteps, messages and the communication volume of each.
//!
//! Reproduced shape, a [`common::Shapes`] check (asserted in the fast run,
//! printed under the table where a full run misses it): on every dataset
//! messages are ordered Giraph++wEq ≤ Giraph++ ≤ Giraph, and neither graph-centric
//! engine needs more supersteps than vertex-centric Giraph.

use dsr_giraph::{giraph_pp_set_reachability, giraph_set_reachability, GraphCentricVariant};

use crate::experiments::common::{self, Golden, Object, Shapes, DEFAULT_SLAVES};
use crate::Table;

/// Runs the experiment; returns the rendered table and the text of
/// `BENCH_figure8.json`.
pub fn run(fast: bool) -> (String, String) {
    let mut table = Table::new(
        "Figure 8: Equivalence-sets optimization in Giraph (supersteps / comm KB)",
        &[
            "Graph",
            "Giraph++wEq supersteps",
            "Giraph++ supersteps",
            "Giraph supersteps",
            "Giraph++wEq comm (KB)",
            "Giraph++ comm (KB)",
            "Giraph comm (KB)",
        ],
    );
    let mut rows = Vec::new();
    let mut shapes = Shapes::new(fast);
    for name in common::small_datasets(fast) {
        let graph = common::dataset(name);
        let partitioning = common::partition(&graph, DEFAULT_SLAVES);
        let query = common::standard_query(&graph, 10, 10, 0x88);

        let weq = giraph_pp_set_reachability(
            &graph,
            &partitioning,
            &query.sources,
            &query.targets,
            GraphCentricVariant::GiraphPlusPlusWithEquivalence,
        );
        let gpp = giraph_pp_set_reachability(
            &graph,
            &partitioning,
            &query.sources,
            &query.targets,
            GraphCentricVariant::GiraphPlusPlus,
        );
        let giraph = giraph_set_reachability(&graph, &partitioning, &query.sources, &query.targets);
        assert_eq!(weq.pairs, gpp.pairs, "Figure 8: {name}: engines disagree");
        assert_eq!(
            weq.pairs, giraph.pairs,
            "Figure 8: {name}: engines disagree"
        );
        shapes.giraph_order("Figure 8", name, &weq, &gpp, &giraph);

        table.row(vec![
            name.to_string(),
            weq.supersteps.to_string(),
            gpp.supersteps.to_string(),
            giraph.supersteps.to_string(),
            format!("{:.1}", weq.kilobytes()),
            format!("{:.1}", gpp.kilobytes()),
            format!("{:.1}", giraph.kilobytes()),
        ]);
        rows.push(
            Object::new()
                .text("graph", name)
                .field("pairs", weq.pairs.len())
                .field(
                    "giraph_pp_weq",
                    common::cost("supersteps", weq.supersteps, weq.messages, weq.bytes),
                )
                .field(
                    "giraph_pp",
                    common::cost("supersteps", gpp.supersteps, gpp.messages, gpp.bytes),
                )
                .field(
                    "giraph",
                    common::cost(
                        "supersteps",
                        giraph.supersteps,
                        giraph.messages,
                        giraph.bytes,
                    ),
                ),
        );
    }
    let golden = Golden::new("figure8", fast)
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
            "figure8",
            include_str!("../../../../BENCH_figure8.json"),
            &json,
        );
    }
}
