//! Community detection for the Section 4.5.B application.
//!
//! The paper detects communities on LiveJournal and Twitter with the
//! iterative algorithm by Blondel et al. \[3\] ("Louvain") and then runs DSR
//! queries between the members of two communities (Table 7). This crate
//! implements the Louvain method from scratch: greedy local moving that
//! maximizes modularity, followed by graph aggregation, repeated until the
//! modularity gain vanishes.
//!
//! The [`workload`] module runs the full experiment — Louvain over a
//! pinned service snapshot plus all-pairs set-reachability between the
//! largest communities — as one function, [`community_pairs`].

#![forbid(unsafe_code)]

pub mod louvain;
pub mod workload;

pub use louvain::{louvain, modularity, CommunityAssignment};
pub use workload::community_pairs;
