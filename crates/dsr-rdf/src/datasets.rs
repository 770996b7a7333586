//! Synthetic LUBM-like and Freebase-like RDF stores plus the six benchmark
//! property-path queries of Appendix 8.3 (L1–L3, F1–F3).
//!
//! The real LUBM-500M and Freebase-500M datasets are far beyond laptop
//! scale; the generators here reproduce the *schema shape* the queries rely
//! on (organization hierarchies with `subOrganizationOf*`, geographic
//! containment with `containedby*`, award/sibling relations) at a size
//! where Table 6 can be regenerated in seconds.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::query::{Pattern, Query, Term};
use crate::store::TripleStore;

/// Names of the six benchmark queries.
pub const QUERY_NAMES: [&str; 6] = ["L1", "L2", "L3", "F1", "F2", "F3"];

/// Generates a LUBM-like store with `num_universities` universities.
///
/// Schema: `ResearchGroup subOrganizationOf Department subOrganizationOf
/// University`, `FullProfessor headOf Department`, plus `rdf:type` triples.
pub fn lubm_like_store(num_universities: usize, seed: u64) -> TripleStore {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut store = TripleStore::new();
    for u in 0..num_universities {
        let uni = format!("univ{u}");
        store.add(&uni, "rdf:type", "ub:University");
        let departments = rng.gen_range(3..=8);
        for d in 0..departments {
            let dept = format!("univ{u}_dept{d}");
            store.add(&dept, "rdf:type", "ub:Department");
            store.add(&dept, "ub:subOrganizationOf", &uni);
            let groups = rng.gen_range(2..=6);
            for g in 0..groups {
                let group = format!("univ{u}_dept{d}_group{g}");
                store.add(&group, "rdf:type", "ub:ResearchGroup");
                store.add(&group, "ub:subOrganizationOf", &dept);
            }
            let professors = rng.gen_range(2..=5);
            for p in 0..professors {
                let prof = format!("univ{u}_dept{d}_prof{p}");
                store.add(&prof, "rdf:type", "ub:FullProfessor");
                if p == 0 {
                    store.add(&prof, "ub:headOf", &dept);
                }
                store.add(&prof, "ub:worksFor", &dept);
            }
        }
    }
    store
}

/// Generates a Freebase-like store with `num_people` people.
///
/// Schema: `person place_of_birth city containedby* state`, `country
/// contains state`, `person awards_won prize`, `person sibling_s person`,
/// and a few `us_president` type triples.
pub fn freebase_like_store(num_people: usize, seed: u64) -> TripleStore {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut store = TripleStore::new();
    let num_countries = 5.max(num_people / 200);
    let num_states = num_countries * 8;
    let num_cities = num_states * 6;

    for c in 0..num_countries {
        let country = format!("country{c}");
        store.add(&country, "rdf:type", "fb:location.country");
    }
    for s in 0..num_states {
        let state = format!("state{s}");
        let country = format!("country{}", s % num_countries);
        store.add(&state, "rdf:type", "fb:location.state");
        store.add(&country, "fb:location.location.contains", &state);
    }
    for c in 0..num_cities {
        let city = format!("city{c}");
        let state = format!("state{}", c % num_states);
        store.add(&city, "rdf:type", "fb:location.city");
        // Some cities are contained in districts which are contained in the
        // state, giving the containedby* path more than one hop.
        if c % 3 == 0 {
            let district = format!("district{c}");
            store.add(&city, "fb:location.location.containedby", &district);
            store.add(&district, "fb:location.location.containedby", &state);
        } else {
            store.add(&city, "fb:location.location.containedby", &state);
        }
    }
    for p in 0..num_people {
        let person = format!("person{p}");
        store.add(&person, "rdf:type", "fb:people.person");
        let city = format!("city{}", rng.gen_range(0..num_cities));
        store.add(&person, "fb:people.person.place_of_birth", &city);
        if rng.gen_bool(0.3) {
            let prize = format!("prize{}", rng.gen_range(0..20));
            store.add(&person, "fb:award.award_winner.awards_won", &prize);
        }
        if rng.gen_bool(0.2) {
            let sibling = format!("person{}", rng.gen_range(0..num_people));
            store.add(&person, "fb:people.person.sibling_s", &sibling);
        }
        if p % 97 == 0 {
            store.add(&person, "rdf:type", "fb:government.us_president");
        }
    }
    store
}

/// Returns one of the six benchmark queries by name (`L1`–`L3`, `F1`–`F3`).
pub fn named_query(name: &str) -> Option<Query> {
    let q = match name {
        // L1: research groups and the universities they (transitively)
        // belong to.
        "L1" => Query {
            name: "L1".into(),
            patterns: vec![
                Pattern::plain(
                    Term::var("x"),
                    "rdf:type",
                    Term::constant("ub:ResearchGroup"),
                ),
                Pattern::star(Term::var("x"), "ub:subOrganizationOf", Term::var("y")),
                Pattern::plain(Term::var("y"), "rdf:type", Term::constant("ub:University")),
            ],
        },
        // L2: full professors heading a department of a university.
        "L2" => Query {
            name: "L2".into(),
            patterns: vec![
                Pattern::plain(
                    Term::var("x"),
                    "rdf:type",
                    Term::constant("ub:FullProfessor"),
                ),
                Pattern::plain(Term::var("x"), "ub:headOf", Term::var("d")),
                Pattern::star(Term::var("d"), "ub:subOrganizationOf", Term::var("y")),
                Pattern::plain(Term::var("y"), "rdf:type", Term::constant("ub:University")),
            ],
        },
        // L3: pairs of research groups under the same university.
        "L3" => Query {
            name: "L3".into(),
            patterns: vec![
                Pattern::plain(
                    Term::var("r1"),
                    "rdf:type",
                    Term::constant("ub:ResearchGroup"),
                ),
                Pattern::star(Term::var("r1"), "ub:subOrganizationOf", Term::var("y")),
                Pattern::plain(Term::var("y"), "rdf:type", Term::constant("ub:University")),
                Pattern::plain(
                    Term::var("r2"),
                    "rdf:type",
                    Term::constant("ub:ResearchGroup"),
                ),
                Pattern::star(Term::var("r2"), "ub:subOrganizationOf", Term::var("y")),
            ],
        },
        // F1: birth places and the states/countries containing them.
        "F1" => Query {
            name: "F1".into(),
            patterns: vec![
                Pattern::plain(
                    Term::var("p"),
                    "fb:people.person.place_of_birth",
                    Term::var("city"),
                ),
                Pattern::star(
                    Term::var("city"),
                    "fb:location.location.containedby",
                    Term::var("state"),
                ),
                Pattern::plain(
                    Term::var("country"),
                    "fb:location.location.contains",
                    Term::var("state"),
                ),
            ],
        },
        // F2: F1 restricted to award-winning US presidents.
        "F2" => Query {
            name: "F2".into(),
            patterns: vec![
                Pattern::plain(
                    Term::var("p"),
                    "rdf:type",
                    Term::constant("fb:government.us_president"),
                ),
                Pattern::plain(
                    Term::var("p"),
                    "fb:award.award_winner.awards_won",
                    Term::var("prize"),
                ),
                Pattern::plain(
                    Term::var("p"),
                    "fb:people.person.place_of_birth",
                    Term::var("city"),
                ),
                Pattern::star(
                    Term::var("city"),
                    "fb:location.location.containedby",
                    Term::var("state"),
                ),
                Pattern::plain(
                    Term::var("country"),
                    "fb:location.location.contains",
                    Term::var("state"),
                ),
            ],
        },
        // F3: award winners whose (transitive) siblings also won a prize.
        "F3" => Query {
            name: "F3".into(),
            patterns: vec![
                Pattern::plain(
                    Term::var("p"),
                    "fb:award.award_winner.awards_won",
                    Term::var("prize"),
                ),
                Pattern::star(
                    Term::var("p"),
                    "fb:people.person.sibling_s",
                    Term::var("p1"),
                ),
                Pattern::plain(
                    Term::var("p1"),
                    "fb:award.award_winner.awards_won",
                    Term::var("prize1"),
                ),
            ],
        },
        _ => return None,
    };
    Some(q)
}

/// The transitive-path predicates used by the benchmark queries (these are
/// the subgraphs the path resolvers index).
pub fn path_predicates(store: &TripleStore) -> Vec<u32> {
    [
        "ub:subOrganizationOf",
        "fb:location.location.containedby",
        "fb:people.person.sibling_s",
    ]
    .iter()
    .filter_map(|p| store.lookup(p))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{BfsPathResolver, DsrPathResolver};
    use crate::query::{evaluate, solution_set};

    /// Evaluates each named query with DSR at 1 and at 5 slaves and with
    /// the BFS oracle, asserts the three return the same solutions, and
    /// returns each query's solution count.
    fn resolvers_agree(store: &TripleStore, names: &[&str]) -> Vec<usize> {
        let preds = path_predicates(store);
        let bfs = BfsPathResolver::new(store, &preds);
        let dsr = [1, 5].map(|slaves| DsrPathResolver::new(store, &preds, slaves));
        names
            .iter()
            .map(|name| {
                let q = named_query(name).unwrap();
                let expected = solution_set(&evaluate(store, &q, &bfs));
                for (slaves, resolver) in [1, 5].iter().zip(&dsr) {
                    let got = solution_set(&evaluate(store, &q, resolver));
                    assert_eq!(got, expected, "{name}: DSR at {slaves} slaves vs BFS");
                }
                expected.len()
            })
            .collect()
    }

    #[test]
    fn lubm_store_shape() {
        let store = lubm_like_store(5, 1);
        assert!(store.num_triples() > 100);
        assert!(store.lookup("ub:subOrganizationOf").is_some());
        assert!(store.lookup("ub:University").is_some());
    }

    #[test]
    fn freebase_store_shape() {
        let store = freebase_like_store(300, 2);
        assert!(store.num_triples() > 600);
        assert!(store.lookup("fb:location.location.containedby").is_some());
    }

    #[test]
    fn all_queries_resolve() {
        for name in QUERY_NAMES {
            assert!(named_query(name).is_some(), "{name} missing");
        }
        assert!(named_query("L9").is_none());
    }

    #[test]
    fn lubm_queries_return_results_and_resolvers_agree() {
        let names = ["L1", "L2", "L3"];
        let counts = resolvers_agree(&lubm_like_store(4, 3), &names);
        for (name, count) in names.iter().zip(counts) {
            assert!(count > 0, "{name} should have results");
        }
    }

    #[test]
    fn freebase_queries_resolvers_agree() {
        let counts = resolvers_agree(&freebase_like_store(400, 5), &["F1", "F2", "F3"]);
        // F1 must have results (every person has a birth place in a state).
        assert!(counts[0] > 0);
    }
}
