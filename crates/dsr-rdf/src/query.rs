//! Basic-graph-pattern queries with property paths, and their evaluator.
//!
//! The query model covers exactly what the paper's Appendix 8.3 queries
//! need: conjunctions of triple patterns whose predicates are either plain
//! IRIs or transitive property paths (`p*`). Plain patterns are resolved
//! by index scans over the [`TripleStore`]; path patterns are delegated to
//! a [`PathResolver`] (DSR-backed or BFS-backed), which is where the
//! set-reachability work happens.

use std::collections::HashMap;

use crate::path::PathResolver;
use crate::store::{TermId, TripleStore};

/// A subject or object position in a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A named variable, e.g. `?x`.
    Var(String),
    /// A constant term (IRI/literal), referenced by name and interned at
    /// evaluation time.
    Const(String),
}

impl Term {
    /// Convenience constructor for a variable.
    pub fn var(name: &str) -> Term {
        Term::Var(name.to_owned())
    }

    /// Convenience constructor for a constant.
    pub fn constant(name: &str) -> Term {
        Term::Const(name.to_owned())
    }
}

/// A predicate position: plain or transitive path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredicateExpr {
    /// A plain predicate IRI.
    Plain(String),
    /// A transitive property path `p*` (zero or more steps).
    Star(String),
}

/// One triple pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Subject position.
    pub subject: Term,
    /// Predicate position.
    pub predicate: PredicateExpr,
    /// Object position.
    pub object: Term,
}

impl Pattern {
    /// `subject predicate object` with a plain predicate.
    pub fn plain(subject: Term, predicate: &str, object: Term) -> Pattern {
        Pattern {
            subject,
            predicate: PredicateExpr::Plain(predicate.to_owned()),
            object,
        }
    }

    /// `subject predicate* object` with a transitive path predicate.
    pub fn star(subject: Term, predicate: &str, object: Term) -> Pattern {
        Pattern {
            subject,
            predicate: PredicateExpr::Star(predicate.to_owned()),
            object,
        }
    }
}

/// A conjunctive query (basic graph pattern with property paths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Human-readable name (e.g. "L1").
    pub name: String,
    /// The triple patterns, evaluated left to right.
    pub patterns: Vec<Pattern>,
}

/// A solution mapping: variable name → term id.
pub type Binding = HashMap<String, TermId>;

/// Evaluates `query` over `store`, resolving property paths through
/// `paths`. Returns all solution mappings.
///
/// The evaluator is a straightforward left-to-right nested-loop/batch join:
/// sufficient for the six benchmark queries and deliberately simple so the
/// performance difference measured in Table 6 comes from the path
/// resolution strategy, not from join-order tricks.
pub fn evaluate(store: &TripleStore, query: &Query, paths: &dyn PathResolver) -> Vec<Binding> {
    let mut bindings: Vec<Binding> = vec![Binding::new()];
    for pattern in &query.patterns {
        bindings = apply_pattern(store, pattern, bindings, paths);
        if bindings.is_empty() {
            break;
        }
    }
    bindings
}

fn term_candidates(store: &TripleStore, term: &Term, binding: &Binding) -> Option<Option<TermId>> {
    // Returns Some(Some(id)) when the term is fixed, Some(None) when it is
    // an unbound variable, None when a constant is unknown to the store
    // (no solutions possible).
    match term {
        Term::Var(name) => Some(binding.get(name).copied()),
        Term::Const(name) => store.lookup(name).map(Some),
    }
}

fn extend(binding: &Binding, term: &Term, value: TermId) -> Option<Binding> {
    match term {
        Term::Var(name) => {
            if let Some(&existing) = binding.get(name) {
                if existing != value {
                    return None;
                }
                Some(binding.clone())
            } else {
                let mut next = binding.clone();
                next.insert(name.clone(), value);
                Some(next)
            }
        }
        Term::Const(_) => Some(binding.clone()),
    }
}

fn apply_pattern(
    store: &TripleStore,
    pattern: &Pattern,
    bindings: Vec<Binding>,
    paths: &dyn PathResolver,
) -> Vec<Binding> {
    match &pattern.predicate {
        PredicateExpr::Plain(p) => {
            let Some(pid) = store.lookup(p) else {
                return Vec::new();
            };
            let mut out = Vec::new();
            for binding in &bindings {
                let Some(subject) = term_candidates(store, &pattern.subject, binding) else {
                    continue;
                };
                let Some(object) = term_candidates(store, &pattern.object, binding) else {
                    continue;
                };
                for &(s, o) in store.pairs_of(pid) {
                    if subject.is_some_and(|fixed| fixed != s) {
                        continue;
                    }
                    if object.is_some_and(|fixed| fixed != o) {
                        continue;
                    }
                    if let Some(next) = extend(binding, &pattern.subject, s).and_then(|b| {
                        extend(&b, &pattern.object, o).map(|mut nb| {
                            // extend() clones from the intermediate binding,
                            // so re-apply the subject binding explicitly.
                            if let Term::Var(name) = &pattern.subject {
                                nb.insert(name.clone(), s);
                            }
                            if let Term::Var(name) = &pattern.object {
                                nb.insert(name.clone(), o);
                            }
                            nb
                        })
                    }) {
                        out.push(next);
                    }
                }
            }
            out
        }
        PredicateExpr::Star(p) => {
            let pid = store.lookup(p);
            // Batch the path resolution: collect every distinct candidate
            // for the subject and object sides across *all* bindings, ask
            // the resolver once (this is the set-reachability call that the
            // DSR index accelerates), and then filter per binding against
            // the batched answer.
            let mut out = Vec::new();
            // Unbound sides draw candidates from the predicate's subject /
            // object terms.
            let default_subjects: Vec<TermId> = pid
                .map(|pid| store.pairs_of(pid).iter().map(|&(s, _)| s).collect())
                .unwrap_or_default();
            let default_objects: Vec<TermId> = pid
                .map(|pid| store.pairs_of(pid).iter().map(|&(_, o)| o).collect())
                .unwrap_or_default();

            // Per-binding candidate lists plus the global union for the
            // single batched resolver call.
            let mut per_binding: Vec<(&Binding, Vec<TermId>, Vec<TermId>)> = Vec::new();
            let mut all_sources: Vec<TermId> = Vec::new();
            let mut all_targets: Vec<TermId> = Vec::new();
            for binding in &bindings {
                let Some(subject) = term_candidates(store, &pattern.subject, binding) else {
                    continue;
                };
                let Some(object) = term_candidates(store, &pattern.object, binding) else {
                    continue;
                };
                let sources: Vec<TermId> = match subject {
                    Some(fixed) => vec![fixed],
                    None => {
                        let mut c = default_subjects.clone();
                        // `p*` with an unbound subject can also bind to any
                        // object term reflexively; restrict to terms that
                        // occur in the predicate graph (plus bound objects).
                        c.extend(object.iter().copied());
                        c.sort_unstable();
                        c.dedup();
                        c
                    }
                };
                let targets: Vec<TermId> = match object {
                    Some(fixed) => vec![fixed],
                    None => {
                        let mut c = default_objects.clone();
                        c.extend(default_subjects.iter().copied());
                        c.extend(subject.iter().copied());
                        c.sort_unstable();
                        c.dedup();
                        c
                    }
                };
                if sources.is_empty() || targets.is_empty() {
                    continue;
                }
                all_sources.extend_from_slice(&sources);
                all_targets.extend_from_slice(&targets);
                per_binding.push((binding, sources, targets));
            }
            if per_binding.is_empty() {
                return Vec::new();
            }
            all_sources.sort_unstable();
            all_sources.dedup();
            all_targets.sort_unstable();
            all_targets.dedup();
            let predicate_id = pid.unwrap_or(u32::MAX);
            let reachable: std::collections::HashSet<(TermId, TermId)> = paths
                .reachable_pairs(predicate_id, &all_sources, &all_targets)
                .into_iter()
                .collect();

            for (binding, sources, targets) in per_binding {
                for &s in &sources {
                    for &o in &targets {
                        if !reachable.contains(&(s, o)) {
                            continue;
                        }
                        if let Some(next) = extend(binding, &pattern.subject, s).and_then(|b| {
                            extend(&b, &pattern.object, o).map(|mut nb| {
                                if let Term::Var(name) = &pattern.subject {
                                    nb.insert(name.clone(), s);
                                }
                                if let Term::Var(name) = &pattern.object {
                                    nb.insert(name.clone(), o);
                                }
                                nb
                            })
                        }) {
                            out.push(next);
                        }
                    }
                }
            }
            dedup_bindings(out)
        }
    }
}

fn dedup_bindings(bindings: Vec<Binding>) -> Vec<Binding> {
    let mut seen: std::collections::HashSet<Vec<(String, TermId)>> =
        std::collections::HashSet::new();
    let mut out = Vec::new();
    for b in bindings {
        if seen.insert(sorted_entries(&b)) {
            out.push(b);
        }
    }
    out
}

/// A binding as its `(variable, term)` list, sorted.
fn sorted_entries(binding: &Binding) -> Vec<(String, TermId)> {
    let mut entries: Vec<(String, TermId)> = binding.iter().map(|(k, v)| (k.clone(), *v)).collect();
    entries.sort();
    entries
}

/// The solutions of an evaluation, each binding as its sorted entries, in
/// sorted order: what two resolvers must agree on.
#[cfg(test)]
pub(crate) fn solution_set(bindings: &[Binding]) -> Vec<Vec<(String, TermId)>> {
    let mut set: Vec<_> = bindings.iter().map(sorted_entries).collect();
    set.sort();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::BfsPathResolver;

    fn org_store() -> TripleStore {
        let mut store = TripleStore::new();
        store.add("groupA", "type", "ResearchGroup");
        store.add("groupB", "type", "ResearchGroup");
        store.add("deptA", "type", "Department");
        store.add("uni1", "type", "University");
        store.add("groupA", "subOrgOf", "deptA");
        store.add("deptA", "subOrgOf", "uni1");
        store.add("groupB", "subOrgOf", "uni1");
        store
    }

    fn resolver(store: &TripleStore) -> BfsPathResolver {
        let p = store.lookup("subOrgOf").unwrap();
        BfsPathResolver::new(store, &[p])
    }

    #[test]
    fn plain_pattern_join() {
        let store = org_store();
        let q = Query {
            name: "types".into(),
            patterns: vec![Pattern::plain(
                Term::var("x"),
                "type",
                Term::constant("ResearchGroup"),
            )],
        };
        let r = evaluate(&store, &q, &resolver(&store));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn star_path_l1_style_query() {
        let store = org_store();
        // L1: ?x type ResearchGroup . ?x subOrgOf* ?y . ?y type University
        let q = Query {
            name: "L1".into(),
            patterns: vec![
                Pattern::plain(Term::var("x"), "type", Term::constant("ResearchGroup")),
                Pattern::star(Term::var("x"), "subOrgOf", Term::var("y")),
                Pattern::plain(Term::var("y"), "type", Term::constant("University")),
            ],
        };
        let r = evaluate(&store, &q, &resolver(&store));
        // groupA reaches uni1 through deptA; groupB directly.
        assert_eq!(r.len(), 2);
        let uni = store.lookup("uni1").unwrap();
        assert!(r.iter().all(|b| b["y"] == uni));
    }

    #[test]
    fn zero_length_path_binds_same_term() {
        let store = org_store();
        let q = Query {
            name: "self".into(),
            patterns: vec![
                Pattern::plain(Term::var("x"), "type", Term::constant("University")),
                Pattern::star(Term::var("x"), "subOrgOf", Term::var("x")),
            ],
        };
        let r = evaluate(&store, &q, &resolver(&store));
        assert_eq!(r.len(), 1, "uni1 subOrgOf* uni1 via the empty path");
    }

    #[test]
    fn unknown_constant_yields_no_results() {
        let store = org_store();
        let q = Query {
            name: "missing".into(),
            patterns: vec![Pattern::plain(
                Term::var("x"),
                "type",
                Term::constant("Nonexistent"),
            )],
        };
        assert!(evaluate(&store, &q, &resolver(&store)).is_empty());
    }

    #[test]
    fn shared_variable_across_path_patterns() {
        let store = org_store();
        // L3-style: two research groups under the same university.
        let q = Query {
            name: "L3".into(),
            patterns: vec![
                Pattern::plain(Term::var("r1"), "type", Term::constant("ResearchGroup")),
                Pattern::star(Term::var("r1"), "subOrgOf", Term::var("y")),
                Pattern::plain(Term::var("y"), "type", Term::constant("University")),
                Pattern::plain(Term::var("r2"), "type", Term::constant("ResearchGroup")),
                Pattern::star(Term::var("r2"), "subOrgOf", Term::var("y")),
            ],
        };
        let r = evaluate(&store, &q, &resolver(&store));
        // (r1, r2) ∈ {A, B}² sharing uni1.
        assert_eq!(r.len(), 4);
    }
}
