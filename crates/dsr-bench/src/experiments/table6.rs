//! Table 6 — SPARQL 1.1 property-path queries (Section 4.5.A).
//!
//! The six benchmark queries L1–L3 (LUBM-like store) and F1–F3
//! (Freebase-like store) are evaluated with the DSR-backed path resolver on
//! 1 and 5 slaves and with the centralized per-source BFS resolver (the
//! Virtuoso stand-in). The geometric mean over the three queries of each
//! dataset is reported, matching the paper's table layout.
//!
//! The paper's claim here is about time — the DSR-backed resolver beats
//! the online-BFS baseline — and no counter stands in for it, so this is
//! one of the three experiments that still print wall-clock columns. They are
//! never part of `BENCH_table6.json`, which holds each query's solution
//! count.
//!
//! Reproduced shape, asserted on every run: on every query the DSR-backed
//! resolver, on 1 and on 5 slaves, returns exactly the BFS resolver's
//! solutions, binding for binding.

use dsr_rdf::{
    evaluate, freebase_like_store, lubm_like_store, named_query, BfsPathResolver, DsrPathResolver,
};

use crate::experiments::common::{Golden, Object};
use crate::{geometric_mean, secs, time, Table};

/// Runs the experiment; returns one rendered table per dataset family and
/// the text of `BENCH_table6.json`.
pub fn run(fast: bool) -> (String, String) {
    let (universities, people) = if fast { (6, 400) } else { (25, 2500) };
    let families = [
        (
            "LUBM-500M analogue",
            lubm_like_store(universities, 0x61),
            ["L1", "L2", "L3"],
        ),
        (
            "Freebase-500M analogue",
            freebase_like_store(people, 0x62),
            ["F1", "F2", "F3"],
        ),
    ];
    let mut out = String::new();
    let mut rows = Vec::new();
    for (title, store, query_names) in families {
        let (table, solutions) = run_family(title, &store, &query_names);
        out.push_str(&table);
        for (name, count) in query_names.iter().zip(solutions) {
            rows.push(
                Object::new()
                    .text("store", title)
                    .field("triples", store.num_triples())
                    .text("query", name)
                    .field("solutions", count),
            );
        }
    }
    let golden = Golden::new("table6", fast).array("queries", rows).render();
    (out, golden)
}

/// Times every resolver on every query of one store; returns the rendered
/// table and the number of solutions of each query, which every resolver
/// must agree on.
fn run_family(
    title: &str,
    store: &dsr_rdf::TripleStore,
    query_names: &[&str],
) -> (String, Vec<usize>) {
    let mut header = vec!["Engine", "#Slaves"];
    header.extend_from_slice(query_names);
    header.push("Geo.-Mean");
    let mut table = Table::new(
        &format!("Table 6: SPARQL 1.1 property paths — {title} (times in seconds)"),
        &header,
    );

    let predicates = dsr_rdf::datasets::path_predicates(store);
    let configurations: Vec<(String, String, Box<dyn dsr_rdf::PathResolver>)> = vec![
        (
            "DSR".to_string(),
            "1".to_string(),
            Box::new(DsrPathResolver::new(store, &predicates, 1)),
        ),
        (
            "DSR".to_string(),
            "5".to_string(),
            Box::new(DsrPathResolver::new(store, &predicates, 5)),
        ),
        (
            "BFS baseline (Virtuoso stand-in)".to_string(),
            "1".to_string(),
            Box::new(BfsPathResolver::new(store, &predicates)),
        ),
    ];

    // The BFS resolver is the oracle: every DSR configuration must return
    // its solutions, binding for binding.
    let mut solutions: Vec<Vec<Solutions>> = Vec::new();
    for (engine, slaves, resolver) in &configurations {
        let mut cells = vec![engine.clone(), slaves.clone()];
        let mut durations = Vec::new();
        let mut found = Vec::new();
        for name in query_names {
            let query = named_query(name).expect("benchmark query exists");
            let (results, elapsed) = time(|| evaluate(store, &query, resolver.as_ref()));
            found.push(solution_set(&results));
            durations.push(elapsed);
            cells.push(secs(elapsed));
        }
        cells.push(format!("{:.3}", geometric_mean(&durations)));
        table.row(cells);
        solutions.push(found);
    }
    let (oracle, dsr) = solutions.split_last().expect("three configurations");
    for ((_, slaves, _), found) in configurations.iter().zip(dsr) {
        for ((name, expected), got) in query_names.iter().zip(oracle).zip(found) {
            assert!(
                got == expected,
                "Table 6: {name}: DSR on {slaves} slaves must return the BFS resolver's \
                 solutions, returned {} against {}",
                got.len(),
                expected.len()
            );
        }
    }
    (table.render(), oracle.iter().map(Vec::len).collect())
}

/// Each binding as its sorted `(variable, term)` list, in sorted order.
type Solutions = Vec<Vec<(String, u32)>>;

fn solution_set(bindings: &[dsr_rdf::query::Binding]) -> Solutions {
    let mut set: Solutions = bindings
        .iter()
        .map(|binding| {
            let mut entries: Vec<(String, u32)> = binding
                .iter()
                .map(|(var, &term)| (var.clone(), term))
                .collect();
            entries.sort();
            entries
        })
        .collect();
    set.sort();
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_both_families() {
        let (_, json) = run(true);
        crate::experiments::common::assert_golden(
            "table6",
            include_str!("../../../../BENCH_table6.json"),
            &json,
        );
    }
}
