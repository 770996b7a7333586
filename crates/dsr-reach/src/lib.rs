//! Pluggable local (centralized) reachability strategies.
//!
//! The paper's framework calls `localSetReachability(.)` at every slave and
//! explicitly allows *any* centralized reachability index to be plugged in
//! (Section 3.3.2, "Local Reachability Evaluation"). Section 4.4.A compares
//! three such strategies (Figure 7), which this crate implements from
//! scratch:
//!
//! * [`DfsReachability`] — plain DFS per source ("DSR-DFS", the default),
//! * [`FerrariReachability`] — an interval-labelling index in the spirit of
//!   FERRARI \[28\] ("DSR-FERRARI"), with exact and approximate intervals and
//!   a guided fallback search,
//! * [`MsBfsReachability`] — bit-parallel multi-source BFS in the spirit of
//!   Then et al. \[30\] ("DSR-MSBFS").
//!
//! All three implement the [`LocalReachability`] trait, and [`build_index`]
//! makes one for a [`LocalIndexKind`]. The DSR engine calls none of them:
//! it sweeps stored condensations through [`dsr_graph::sweep_lanes`].
//! Figure 7 times the strategies next to that sweep.

#![forbid(unsafe_code)]

pub mod dfs;
pub mod ferrari;
pub mod msbfs;
pub mod traits;

pub use dfs::DfsReachability;
pub use ferrari::FerrariReachability;
pub use msbfs::MsBfsReachability;
pub use traits::{build_index, LocalIndexKind, LocalReachability};
