//! Pluggable local (centralized) reachability strategies.
//!
//! The paper's framework calls `localSetReachability(.)` at every slave and
//! explicitly allows *any* centralized reachability index to be plugged in
//! (Section 3.3.2, "Local Reachability Evaluation"). Section 4.4.A compares
//! three such strategies, which this crate implements from scratch:
//!
//! * [`DfsReachability`] — plain DFS per source ("DSR-DFS", the default),
//! * [`MsBfsReachability`] — bit-parallel multi-source BFS in the spirit of
//!   Then et al. \[30\] ("DSR-MSBFS"),
//! * [`FerrariReachability`] — an interval-labelling index in the spirit of
//!   FERRARI \[28\] ("DSR-FERRARI"), with exact and approximate intervals and
//!   a guided fallback search,
//! * [`GrailReachability`] — a GRAIL-style randomized interval labelling
//!   (Yildirim et al. \[36\], cited in the paper's related work),
//! * [`ClosureReachability`] — a full transitive closure, used as the exact
//!   oracle in tests.
//!
//! All strategies implement the [`LocalReachability`] trait so `dsr-core`
//! can swap them per experiment (Figure 7).

#![forbid(unsafe_code)]

pub mod dfs;
pub mod ferrari;
pub mod grail;
pub mod msbfs;
pub mod oracle;
pub mod traits;

pub use dfs::{BfsReachability, DfsReachability};
pub use ferrari::FerrariReachability;
pub use grail::GrailReachability;
pub use msbfs::{lane_sweep, set_lanes, LaneSweep, MsBfsReachability};
pub use oracle::ClosureReachability;
pub use traits::{build_index, LocalIndexKind, LocalReachability};
