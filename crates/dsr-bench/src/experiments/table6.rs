//! Table 6 — SPARQL 1.1 property-path queries (Section 4.5.A).
//!
//! The six benchmark queries L1–L3 (LUBM-like store) and F1–F3
//! (Freebase-like store) are evaluated with the DSR-backed path resolver on
//! 1 and 5 slaves and with the centralized per-source BFS resolver (the
//! Virtuoso stand-in). The geometric mean over the three queries of each
//! dataset is reported, matching the paper's table layout.
//!
//! Reproduced shape: the DSR-backed resolver beats the online-BFS baseline,
//! and the 5-slave configuration beats the single-slave one.

use dsr_rdf::{
    evaluate, freebase_like_store, lubm_like_store, named_query, BfsPathResolver, DsrPathResolver,
};

use crate::{geometric_mean, secs, time, Table};

/// Runs the experiment and renders one table per dataset family.
pub fn run(fast: bool) -> String {
    let mut out = String::new();
    let (universities, people) = if fast { (6, 400) } else { (25, 2500) };

    out.push_str(&run_family(
        "LUBM-500M analogue",
        lubm_like_store(universities, 0x61),
        &["L1", "L2", "L3"],
    ));
    out.push_str(&run_family(
        "Freebase-500M analogue",
        freebase_like_store(people, 0x62),
        &["F1", "F2", "F3"],
    ));
    out
}

fn run_family(title: &str, store: dsr_rdf::TripleStore, query_names: &[&str]) -> String {
    let mut header = vec!["Engine", "#Slaves"];
    header.extend_from_slice(query_names);
    header.push("Geo.-Mean");
    let mut table = Table::new(
        &format!("Table 6: SPARQL 1.1 property paths — {title} (times in seconds)"),
        &header,
    );

    let predicates = dsr_rdf::datasets::path_predicates(&store);
    let configurations: Vec<(String, String, Box<dyn dsr_rdf::PathResolver>)> = vec![
        (
            "DSR".to_string(),
            "1".to_string(),
            Box::new(DsrPathResolver::new(&store, &predicates, 1)),
        ),
        (
            "DSR".to_string(),
            "5".to_string(),
            Box::new(DsrPathResolver::new(&store, &predicates, 5)),
        ),
        (
            "BFS baseline (Virtuoso stand-in)".to_string(),
            "1".to_string(),
            Box::new(BfsPathResolver::new(&store, &predicates)),
        ),
    ];

    // Solutions must be identical across engines, binding for binding.
    let mut reference: Vec<Option<Solutions>> = vec![None; query_names.len()];

    for (engine, slaves, resolver) in configurations {
        let mut cells = vec![engine, slaves];
        let mut durations = Vec::new();
        for (qi, name) in query_names.iter().enumerate() {
            let query = named_query(name).expect("benchmark query exists");
            let (results, elapsed) = time(|| evaluate(&store, &query, resolver.as_ref()));
            let solutions = solution_set(&results);
            match &reference[qi] {
                None => reference[qi] = Some(solutions),
                Some(expected) => assert!(
                    *expected == solutions,
                    "{name}: engines must return the same solutions"
                ),
            }
            durations.push(elapsed);
            cells.push(secs(elapsed));
        }
        cells.push(format!("{:.3}", geometric_mean(&durations)));
        table.row(cells);
    }
    table.render()
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
        let out = run(true);
        assert!(out.contains("LUBM"));
        assert!(out.contains("Freebase"));
        assert!(out.contains("Geo.-Mean"));
    }
}
