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

/// Where `BENCH_*.json` artifacts go: `$DSR_BENCH_DIR` when set, otherwise
/// the directory of the running executable — under Cargo's target
/// directory for every test and bench target, so that library callers of
/// the experiment drivers can never rewrite the committed baselines in the
/// repository root. The `experiments` binary, whose job *is* to produce
/// those files, points `DSR_BENCH_DIR` at its working directory itself.
fn bench_dir() -> std::path::PathBuf {
    if let Some(dir) = std::env::var_os("DSR_BENCH_DIR") {
        return dir.into();
    }
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_else(std::env::temp_dir)
}

/// Writes a `BENCH_*.json` artifact **atomically** into `$DSR_BENCH_DIR`
/// (or, when unset, next to the running executable): the content goes to a
/// `.tmp` sibling first and is renamed into place, so a run that dies
/// mid-experiment can never leave a truncated JSON at the final path for CI
/// to upload.
pub fn write_bench_json(file_name: &str, json: &str) -> std::io::Result<String> {
    let dir = bench_dir();
    let path = dir.join(file_name);
    let tmp = dir.join(format!("{file_name}.tmp"));
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, &path)?;
    Ok(path.display().to_string())
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
}
