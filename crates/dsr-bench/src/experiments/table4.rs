//! Table 4 — the equivalence-sets optimization in DSR.
//!
//! For the small-graph analogues the experiment compares the DSR index
//! built *with* and *without* the equivalence-set optimization
//! (Definition 5): query time for a 10×10 query and the boundary-graph
//! sizes, i.e. the number of forward/backward vertices the boundary graphs
//! contain (concrete boundaries without the optimization, equivalence
//! classes with it).
//!
//! Reproduced shape: the optimization shrinks the forward/backward vertex
//! counts by one to two orders of magnitude on the web-graph analogues and
//! never makes queries slower.

use dsr_cluster::InProcess;
use dsr_core::{DsrEngine, DsrIndex};
use dsr_reach::LocalIndexKind;

use crate::experiments::common::{self, DEFAULT_SLAVES};
use crate::{secs, time, Table};

/// Runs the experiment and renders the table.
pub fn run(fast: bool) -> String {
    let mut table = Table::new(
        "Table 4: Equivalence-sets optimization in DSR",
        &[
            "Graph",
            "Non-Opt time (s)",
            "Opt time (s)",
            "Non-Opt #fwd;#bwd",
            "Opt #fwd;#bwd",
        ],
    );
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

        let (non_opt_pairs, non_opt_time) =
            time(|| DsrEngine::new(&non_opt).set_reachability(&query.sources, &query.targets));
        let (opt_pairs, opt_time) =
            time(|| DsrEngine::new(&opt).set_reachability(&query.sources, &query.targets));
        assert_eq!(
            non_opt_pairs.pairs, opt_pairs.pairs,
            "{name}: optimization must not change results"
        );

        table.row(vec![
            name.to_string(),
            secs(non_opt_time),
            secs(opt_time),
            format!(
                "{}; {}",
                non_opt.stats.total_forward_classes, non_opt.stats.total_backward_classes
            ),
            format!(
                "{}; {}",
                opt.stats.total_forward_classes, opt.stats.total_backward_classes
            ),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_rows_and_optimization_reduces_classes() {
        let out = run(true);
        assert!(out.contains("Table 4"));
        assert!(out.contains("Stanford"));
    }
}
