//! Helpers shared by the experiment modules.

use dsr_core::DsrIndex;
use dsr_datagen::{dataset_by_name, random_query, QueryWorkload};
use dsr_graph::DiGraph;
use dsr_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use dsr_reach::LocalIndexKind;

/// Number of slave partitions used by the fixed-cluster experiments
/// (the paper uses "6 nodes, i.e. 5 slaves and 1 master").
pub const DEFAULT_SLAVES: usize = 5;

/// METIS-like partitioning of a dataset graph into `k` parts.
pub fn partition(graph: &DiGraph, k: usize) -> Partitioning {
    MultilevelPartitioner::default().partition(graph, k)
}

/// Builds a DSR index over a dataset graph with the default (DFS) local
/// strategy.
pub fn build_dsr(graph: &DiGraph, k: usize) -> DsrIndex {
    DsrIndex::build(graph, partition(graph, k), LocalIndexKind::Dfs)
}

/// Loads a named dataset analogue, panicking on unknown names (experiment
/// modules only use names from `dsr_datagen::DATASET_NAMES`).
pub fn dataset(name: &str) -> DiGraph {
    dataset_by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
        .graph
}

/// The standard 10×10 random query of Section 4.1 (seeded per dataset so
/// reruns are identical).
pub fn standard_query(graph: &DiGraph, sources: usize, targets: usize, seed: u64) -> QueryWorkload {
    random_query(graph, sources, targets, seed)
}

/// The small-graph dataset list, shortened in fast mode.
pub fn small_datasets(fast: bool) -> Vec<&'static str> {
    if fast {
        vec!["NotreDame", "Stanford"]
    } else {
        dsr_datagen::datasets::SMALL_DATASET_NAMES.to_vec()
    }
}

/// The large-graph dataset list, shortened in fast mode.
pub fn large_datasets(fast: bool) -> Vec<&'static str> {
    if fast {
        vec!["LiveJ-68M"]
    } else {
        dsr_datagen::datasets::LARGE_DATASET_NAMES.to_vec()
    }
}

/// The counter gate: the fast run of experiment `id` must render exactly the
/// committed `BENCH_<id>.json`. A counter that moves, in either direction,
/// fails here — with a line diff, `-` lines only in the committed text, `+`
/// lines only in the rendered one — until the refreshed golden is committed
/// beside the code that moved it.
#[cfg(test)]
pub(crate) fn assert_golden(id: &str, committed: &str, rendered: &str) {
    if committed == rendered {
        return;
    }
    let only_in = |sign: char, text: &str, other: &str| -> String {
        text.lines()
            .enumerate()
            .filter(|(_, line)| !other.lines().any(|o| o == *line))
            .map(|(n, line)| format!("{sign}{:>3}: {line}\n", n + 1))
            .collect()
    };
    let mut diff = only_in('-', committed, rendered) + &only_in('+', rendered, committed);
    if diff.is_empty() {
        diff.push_str("same lines, but in another order or with another line ending\n");
    }
    panic!(
        "BENCH_{id}.json differs from this run (- committed, + rendered):\n{diff}\
         if the change is intended, refresh the golden from the repo root:\n  \
         cargo run --release --bin experiments -- --fast {id}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_consistent_objects() {
        let g = dataset("NotreDame");
        let p = partition(&g, 3);
        assert_eq!(p.num_partitions, 3);
        let q = standard_query(&g, 10, 10, 1);
        assert_eq!(q.num_comparisons(), 100);
        let index = build_dsr(&g, 2);
        assert_eq!(index.num_partitions(), 2);
        assert_eq!(small_datasets(true).len(), 2);
        assert!(!large_datasets(false).is_empty());
    }

    #[test]
    fn golden_gate_names_a_changed_and_a_removed_line() {
        let failure = |committed: &'static str, rendered: &'static str| -> String {
            *std::panic::catch_unwind(|| assert_golden("mixed", committed, rendered))
                .expect_err("texts that differ fail the gate")
                .downcast::<String>()
                .expect("panic message")
        };
        let committed = "{\n  \"rounds\": 72,\n  \"messages\": 177,\n  \"bytes\": 15214\n}\n";
        assert_golden("mixed", committed, committed);
        // One digit of one counter changed, one line removed.
        let rendered = "{\n  \"rounds\": 72,\n  \"bytes\": 15215\n}\n";
        let message = failure(committed, rendered);
        assert!(
            message.contains(
                "-  3:   \"messages\": 177,\n-  4:   \"bytes\": 15214\n+  3:   \"bytes\": 15215\n"
            ),
            "{message}"
        );
        // A shrinking counter is no more welcome than a growing one, and a
        // reordering is still a difference.
        assert!(failure(rendered, committed).contains("+  4:   \"bytes\": 15214\n"));
        assert!(failure("a\nb\n", "b\na\n").contains("another order"));
    }
}
