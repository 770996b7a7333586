//! Smoke tests for the experiment harness: every table/figure experiment
//! must run in fast mode and produce non-empty, well-formed output.

use dsr_bench::{run_experiment, EXPERIMENT_IDS};

#[test]
fn every_experiment_runs_in_fast_mode() {
    for id in EXPERIMENT_IDS {
        let output = run_experiment(id, true)
            .unwrap_or_else(|| panic!("{id} is not wired up"))
            .table;
        assert!(
            output.lines().count() >= 4,
            "{id} produced too little output:\n{output}"
        );
        assert!(
            output.contains("=="),
            "{id} output is missing a table title:\n{output}"
        );
    }
}

#[test]
fn experiment_ids_are_unique_and_cover_the_paper() {
    let mut ids = EXPERIMENT_IDS.to_vec();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), EXPERIMENT_IDS.len(), "duplicate experiment ids");
    for required in ["table2", "table3", "table4", "table5", "table6", "table7"] {
        assert!(EXPERIMENT_IDS.contains(&required));
    }
    for required in ["figure5", "figure6", "figure7", "figure8"] {
        assert!(EXPERIMENT_IDS.contains(&required));
    }
}
