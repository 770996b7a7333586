//! Graph partitioning for Distributed Set Reachability.
//!
//! The paper (Section 2, "Graph Partitioning" and Section 4.4.C) relies on
//! two partitioning strategies:
//!
//! * **hash partitioning** ("random sharding") — assign every vertex to a
//!   partition by hashing its id; fast but produces large cuts, and
//! * **METIS \[17\]** — a multilevel min-k-cut heuristic that keeps partitions
//!   balanced while minimizing the number of cut edges.
//!
//! METIS is not available offline, so this crate implements a
//! self-contained multilevel partitioner ([`MultilevelPartitioner`]) with
//! the same structure: heavy-edge-matching coarsening, greedy region-growing
//! initial partitioning, and boundary Kernighan–Lin refinement during
//! uncoarsening. Table 5 of the paper (hash vs. METIS) is reproduced by
//! comparing [`HashPartitioner`] against [`MultilevelPartitioner`].
//!
//! The crate also extracts the *cut* `C` and the per-partition in-/out-
//! boundary sets `Ii`/`Oi` (Definition 3) used by `dsr-core`.

#![forbid(unsafe_code)]

pub mod cut;
pub mod hash;
pub mod multilevel;
pub mod types;

pub use cut::{Cut, PartitionBoundaries};
pub use hash::HashPartitioner;
pub use multilevel::MultilevelPartitioner;
pub use types::{PartitionId, Partitioner, Partitioning};
