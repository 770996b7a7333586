//! Directed-graph substrate for the Distributed Set Reachability (DSR)
//! reproduction.
//!
//! The crate provides the foundational data structures that every other
//! crate in the workspace builds on:
//!
//! * [`DiGraph`] — a compact CSR (compressed sparse row) directed graph with
//!   both forward and reverse adjacency, built through [`GraphBuilder`].
//! * [`scc`] — Tarjan's strongly-connected-component algorithm (iterative,
//!   stack-safe for deep graphs) and DAG condensation ([`mod@condense`]).
//!   Tarjan's numbering is the only vertex order any pass reads: every DAG
//!   edge `a → b` has `a > b`, so ascending component ids are a reverse
//!   topological order and no separate topological sort is needed.
//! * [`traversal`] — forward and backward BFS reachable sets and an
//!   early-exit DFS for one pair.
//! * [`closure`] — exact transitive-closure oracle used as ground truth in
//!   tests and as the most aggressive "local reachability index".
//! * [`subgraph`] — vertex-induced subgraph extraction with local/global id
//!   mapping and a stored condensation, used by the partitioning layer.
//!
//! Vertices are dense `u32` identifiers (`VertexId`), which keeps all
//! adjacency structures compact and cache friendly (see the index-size
//! numbers reproduced for Table 2 of the paper).

#![forbid(unsafe_code)]

pub mod builder;
pub mod closure;
pub mod condense;
pub mod csr;
pub mod scc;
pub mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use closure::TransitiveClosure;
pub use condense::{condense, set_lanes, sweep_lanes, CondensedGraph};
pub use csr::{DiGraph, EdgeIter, NeighborIter};
pub use scc::{tarjan_scc, SccResult};
pub use subgraph::{InducedSubgraph, VertexMapping};
pub use traversal::{bfs_reachable, is_reachable, Direction};

/// Dense vertex identifier. All graphs in the workspace use `u32` vertex ids
/// to keep adjacency arrays compact.
pub type VertexId = u32;

/// A directed edge `(source, target)`.
pub type Edge = (VertexId, VertexId);
