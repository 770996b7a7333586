//! Pregel-style baseline engines for DSR queries.
//!
//! The paper compares its index-based approach against three
//! implementations of set reachability on distributed graph engines
//! (Section 4 and Appendix 8.4):
//!
//! * **Giraph** — purely vertex-centric BSP: every superstep, each vertex
//!   that learned about new reachable sources forwards them to all of its
//!   out-neighbors. The number of supersteps is bounded by the graph
//!   diameter and *every* vertex-to-vertex message goes through the
//!   engine's message store ([`vertex_centric`]).
//! * **Giraph++** — graph-centric ("think like a graph"): each worker holds
//!   a whole partition and propagates new sources to a local fixpoint
//!   within a superstep, so only cross-partition messages remain
//!   ([`graph_centric`]).
//! * **Giraph++wEq** — Giraph++ plus the equivalence-set optimization: the
//!   cross-partition messages are grouped per forward-equivalence class of
//!   the destination partition (the in-virtual vertices of `dsr-core`),
//!   which reduces the message count further.
//!
//! All three return the reachable pairs and add their cost — supersteps
//! as rounds, messages and bytes, exactly what Figures 5 and 8 and Table 3
//! report — to the [`CommStats`](dsr_cluster::CommStats) their caller
//! passes in. They count in plain locals and add once per run, so their
//! timed inner loops touch no atomic.

#![forbid(unsafe_code)]

pub mod graph_centric;
pub mod vertex_centric;

pub use graph_centric::{giraph_pp_set_reachability, giraph_pp_weq_with_summaries};
pub use vertex_centric::giraph_set_reachability;
