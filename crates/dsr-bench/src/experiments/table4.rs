//! Table 4 — the equivalence-sets optimization in DSR.
//!
//! For the small-graph analogues the experiment compares the DSR index
//! built *with* and *without* the equivalence-set optimization
//! (Definition 5): the boundary-graph sizes, i.e. the number of
//! forward/backward vertices the boundary graphs contain (concrete
//! boundaries without the optimization, equivalence classes with it), and
//! the bytes one 10×10 query ships over each index.
//!
//! Reproduced shape. Asserted on every run: on every dataset both indexes
//! answer identically. A [`common::Shapes`] check (asserted in the fast
//! run, printed under the table where a full run misses it): the optimized
//! index has fewer forward plus backward vertices than the non-optimized
//! one, and a query over it ships no more bytes.

use dsr_cluster::InProcess;
use dsr_core::{DsrEngine, DsrIndex};
use dsr_reach::LocalIndexKind;

use crate::experiments::common::{self, Golden, Object, Shapes, DEFAULT_SLAVES};
use crate::Table;

/// Runs the experiment; returns the rendered table and the text of
/// `BENCH_table4.json`.
pub fn run(fast: bool) -> (String, String) {
    let mut table = Table::new(
        "Table 4: Equivalence-sets optimization in DSR",
        &[
            "Graph",
            "Non-Opt #fwd;#bwd",
            "Opt #fwd;#bwd",
            "Non-Opt bytes/query",
            "Opt bytes/query",
        ],
    );
    let mut rows = Vec::new();
    let mut shapes = Shapes::new(fast);
    for name in common::small_datasets(fast) {
        let graph = common::dataset(name);
        let partitioning = common::partition(&graph, DEFAULT_SLAVES);
        let query = common::standard_query(&graph, 10, 10, 0x44);

        let non_opt = DsrIndex::build_with_transport(
            &graph,
            partitioning.clone(),
            LocalIndexKind::Dfs,
            false,
            &InProcess,
        )
        .expect("the in-process transport never fails");
        let opt = DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs);

        let non_opt_out = DsrEngine::new(&non_opt).set_reachability(&query.sources, &query.targets);
        let opt_out = DsrEngine::new(&opt).set_reachability(&query.sources, &query.targets);
        assert_eq!(
            non_opt_out.pairs, opt_out.pairs,
            "Table 4: {name}: the optimization must not change results"
        );
        let vertices = |index: &DsrIndex| {
            (
                index.stats.total_forward_classes,
                index.stats.total_backward_classes,
            )
        };
        let ((non_opt_fwd, non_opt_bwd), (opt_fwd, opt_bwd)) = (vertices(&non_opt), vertices(&opt));
        shapes.check(opt_fwd + opt_bwd < non_opt_fwd + non_opt_bwd, || {
            format!(
                "Table 4: {name}: the optimized boundary graphs must have fewer forward plus \
                 backward vertices than the non-optimized ones, got {opt_fwd} + {opt_bwd} \
                 against {non_opt_fwd} + {non_opt_bwd}"
            )
        });
        shapes.check(opt_out.bytes <= non_opt_out.bytes, || {
            format!(
                "Table 4: {name}: a query over the optimized index must ship no more bytes, \
                 shipped {} against {}",
                opt_out.bytes, non_opt_out.bytes
            )
        });

        table.row(vec![
            name.to_string(),
            format!("{non_opt_fwd}; {non_opt_bwd}"),
            format!("{opt_fwd}; {opt_bwd}"),
            non_opt_out.bytes.to_string(),
            opt_out.bytes.to_string(),
        ]);
        let side = |forward: usize, backward: usize, bytes: u64| {
            Object::new()
                .field("forward", forward)
                .field("backward", backward)
                .field("query_bytes", bytes)
        };
        rows.push(
            Object::new()
                .text("graph", name)
                .field("pairs", opt_out.pairs.len())
                .field("non_opt", side(non_opt_fwd, non_opt_bwd, non_opt_out.bytes))
                .field("opt", side(opt_fwd, opt_bwd, opt_out.bytes)),
        );
    }
    let golden = Golden::new("table4", fast)
        .field("slaves", DEFAULT_SLAVES)
        .array("datasets", rows)
        .render();
    (shapes.under(table.render()), golden)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_rows_and_optimization_reduces_classes() {
        let (_, json) = run(true);
        common::assert_golden(
            "table4",
            include_str!("../../../../BENCH_table4.json"),
            &json,
        );
    }
}
