//! Workspace facade for the *Distributed Set Reachability* (SIGMOD 2016)
//! reproduction.
//!
//! This crate re-exports every workspace crate under one roof and owns the
//! cross-crate integration suites in `tests/` and the runnable `examples/`.
//! The layered crates underneath are:
//!
//! - [`graph`] — CSR digraph, traversals, SCC/condensation, transitive closure
//! - [`reach`] — local (per-partition) reachability indexes
//! - [`partition`] — hash and multilevel partitioners, boundary/cut machinery
//! - [`cluster`] — simulated master/slave network with communication accounting
//! - [`core`] — the DSR index, engine, wire protocol and incremental updates
//! - [`datagen`] — synthetic dataset and query-workload generators
//! - [`giraph`] — vertex-centric and graph-centric comparison engines
//! - [`rdf`] — triple store and SPARQL-style property-path evaluation
//! - [`community`] — Louvain community detection workload
//! - [`service`] — concurrent query serving: batching, worker pool, LRU result cache
//! - [`mod@bench`] — experiment harness backing the paper's tables and figures
//!
//! [`testing`] lists the two communication backends (zero-copy
//! in-process, serialized wire bytes) that the integration suites run
//! every answer on.

#![forbid(unsafe_code)]

pub mod testing;

pub use dsr_bench as bench;
pub use dsr_cluster as cluster;
pub use dsr_community as community;
pub use dsr_core as core;
pub use dsr_datagen as datagen;
pub use dsr_giraph as giraph;
pub use dsr_graph as graph;
pub use dsr_partition as partition;
pub use dsr_rdf as rdf;
pub use dsr_reach as reach;
pub use dsr_service as service;
pub use dsr_sync as sync;
