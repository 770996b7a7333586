//! SPARQL 1.1 property paths over an RDF store, evaluated through DSR.
//!
//! Mirrors the paper's Section 4.5.A application: a LUBM-like organization
//! hierarchy is loaded into the triple store, and the benchmark queries
//! L1–L3 (which contain `subOrganizationOf*` property paths) are answered
//! once with the DSR-backed path resolver and once with the online-BFS
//! baseline, and the two must return the same solutions (the example
//! panics otherwise).
//!
//! ```text
//! cargo run --release --example sparql_property_paths
//! ```

use std::time::Instant;

use dsr_rdf::query::Binding;
use dsr_rdf::{
    datasets::path_predicates, evaluate, lubm_like_store, named_query, BfsPathResolver,
    DsrPathResolver, PathResolver,
};

/// Each binding as its sorted `(variable, term)` list, in sorted order.
fn solution_set(bindings: &[Binding]) -> Vec<Vec<(String, u32)>> {
    let mut set: Vec<Vec<(String, u32)>> = bindings
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

fn main() {
    let store = lubm_like_store(10, 42);
    println!(
        "LUBM-like store: {} triples, {} terms",
        store.num_triples(),
        store.num_terms()
    );

    let predicates = path_predicates(&store);
    let dsr = DsrPathResolver::new(&store, &predicates, 5);
    let bfs = BfsPathResolver::new(&store, &predicates);

    for name in ["L1", "L2", "L3"] {
        let query = named_query(name).expect("benchmark query");
        println!("\n=== {name} ===");
        let mut solution_sets = Vec::new();
        for resolver in [&dsr as &dyn PathResolver, &bfs as &dyn PathResolver] {
            let start = Instant::now();
            let solutions = evaluate(&store, &query, resolver);
            println!(
                "  {:<28} {:>6} solutions in {:?}",
                resolver.name(),
                solutions.len(),
                start.elapsed()
            );
            solution_sets.push(solution_set(&solutions));
        }
        assert!(
            solution_sets[0] == solution_sets[1],
            "{name}: DSR and BFS return different solutions"
        );
        // Show a couple of solutions with their string terms.
        let solutions = evaluate(&store, &query, &dsr);
        for binding in solutions.iter().take(3) {
            let mut rendered: Vec<String> = binding
                .iter()
                .map(|(var, &term)| format!("?{var} = {}", store.term(term)))
                .collect();
            rendered.sort();
            println!("    {}", rendered.join(", "));
        }
    }
}
