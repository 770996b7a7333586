//! Dictionary-encoded in-memory triple store.

use std::collections::HashMap;

/// Dense identifier of an RDF term (IRI or literal).
pub type TermId = u32;

/// A minimal triple store: terms are dictionary-encoded, triples are kept
/// in predicate-indexed adjacency lists (the access paths needed by the
/// basic-graph-pattern evaluator and the property-path engines).
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    term_of: Vec<String>,
    id_of: HashMap<String, TermId>,
    /// All triples as (subject, predicate, object).
    triples: Vec<(TermId, TermId, TermId)>,
    /// predicate -> list of (subject, object).
    by_predicate: HashMap<TermId, Vec<(TermId, TermId)>>,
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term, returning its dense id.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.id_of.get(term) {
            return id;
        }
        let id = self.term_of.len() as TermId;
        self.term_of.push(term.to_owned());
        self.id_of.insert(term.to_owned(), id);
        id
    }

    /// Looks up a term id without creating it.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        self.id_of.get(term).copied()
    }

    /// The string form of a term id.
    pub fn term(&self, id: TermId) -> &str {
        &self.term_of[id as usize]
    }

    /// Adds a triple given as strings.
    pub fn add(&mut self, subject: &str, predicate: &str, object: &str) {
        let s = self.intern(subject);
        let p = self.intern(predicate);
        let o = self.intern(object);
        self.add_ids(s, p, o);
    }

    /// Adds a triple given as term ids.
    pub fn add_ids(&mut self, s: TermId, p: TermId, o: TermId) {
        self.triples.push((s, p, o));
        self.by_predicate.entry(p).or_default().push((s, o));
    }

    /// Number of triples.
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    /// Number of distinct terms.
    pub fn num_terms(&self) -> usize {
        self.term_of.len()
    }

    /// All (subject, object) pairs of a predicate.
    pub fn pairs_of(&self, predicate: TermId) -> &[(TermId, TermId)] {
        self.by_predicate
            .get(&predicate)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Whether the exact triple is present.
    pub fn contains(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.pairs_of(p).iter().any(|&(ts, to)| ts == s && to == o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TripleStore {
        let mut store = TripleStore::new();
        store.add("alice", "knows", "bob");
        store.add("bob", "knows", "carol");
        store.add("alice", "type", "Person");
        store.add("bob", "type", "Person");
        store
    }

    #[test]
    fn interning_is_stable() {
        let mut store = TripleStore::new();
        let a = store.intern("x");
        let b = store.intern("x");
        assert_eq!(a, b);
        assert_eq!(store.term(a), "x");
        assert_eq!(store.lookup("x"), Some(a));
        assert_eq!(store.lookup("y"), None);
    }

    #[test]
    fn predicate_index() {
        let store = sample();
        let knows = store.lookup("knows").unwrap();
        assert_eq!(store.pairs_of(knows).len(), 2);
        let ty = store.lookup("type").unwrap();
        let person = store.lookup("Person").unwrap();
        let people = store.pairs_of(ty).iter().filter(|&&(_, o)| o == person);
        assert_eq!(people.count(), 2);
        let alice = store.lookup("alice").unwrap();
        let known = store.pairs_of(knows).iter().filter(|&&(s, _)| s == alice);
        assert_eq!(known.count(), 1);
    }

    #[test]
    fn contains_and_counts() {
        let store = sample();
        let alice = store.lookup("alice").unwrap();
        let knows = store.lookup("knows").unwrap();
        let bob = store.lookup("bob").unwrap();
        assert!(store.contains(alice, knows, bob));
        assert!(!store.contains(bob, knows, alice));
        assert_eq!(store.num_triples(), 4);
        assert!(store.num_terms() >= 6);
    }

    #[test]
    fn unknown_predicate_is_empty() {
        let store = sample();
        assert!(store.pairs_of(9999).is_empty());
    }
}
