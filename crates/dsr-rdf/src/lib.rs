//! SPARQL 1.1 property paths over a minimal RDF store, evaluated with DSR.
//!
//! Section 4.5.A of the paper augments a distributed RDF engine with the
//! DSR index to process SPARQL 1.1 *property paths* (`p*` predicates):
//! since both endpoints of a path expression can be bound to many RDF
//! constants at query time, evaluating the path resolves to a
//! set-reachability query. The paper compares this against the Virtuoso
//! RDF store on LUBM and Freebase data (Table 6).
//!
//! This crate provides:
//!
//! * [`store::TripleStore`] — a dictionary-encoded, in-memory triple store
//!   with predicate-indexed access,
//! * [`query`] — a small basic-graph-pattern query model where predicates
//!   are either plain IRIs or transitive property paths (`p*`), and an
//!   evaluator that resolves plain patterns through index scans and path
//!   patterns through a pluggable [`path::PathResolver`],
//! * [`path`] — two path resolvers: [`path::DsrPathResolver`] (one DSR
//!   index over the union of the predicates' subgraphs, the paper's
//!   approach) and [`path::BfsPathResolver`] (per-source online BFS over
//!   graphs of its own, standing in for the centralized Virtuoso
//!   comparison point and serving as the tests' oracle),
//! * [`datasets`] — LUBM-like and Freebase-like synthetic stores and the
//!   six benchmark queries L1–L3 / F1–F3 of Appendix 8.3,
//! * [`service`] — the serving-side integration: a
//!   [`service::UnionPathGraph`] interning every predicate subgraph into
//!   one index (the one index per store both DSR resolvers query, and
//!   their one term translation), a [`service::ServicePathResolver`]
//!   routing `p*` through a pinned snapshot of a live `QueryService`, and
//!   the [`service::RdfWorkload`] running the whole benchmark against one
//!   pinned snapshot.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod path;
pub mod query;
pub mod service;
pub mod store;

pub use datasets::{
    freebase_like_store, lubm_like_store, named_query, path_predicates, QUERY_NAMES,
};
pub use path::{BfsPathResolver, DsrPathResolver, PathResolver};
pub use query::{evaluate, Pattern, PredicateExpr, Query, Term};
pub use service::{RdfWorkload, ServicePathResolver, UnionPathGraph};
pub use store::TripleStore;
