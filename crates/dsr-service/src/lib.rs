//! Concurrent, snapshot-isolated query-serving layer over a
//! [`DsrIndex`].
//!
//! The paper's evaluation (Tables 3–5) fires thousands of set-reachability
//! queries against a static index, and its central serving win is that a
//! *batched* execution costs 3 communication rounds regardless of batch
//! size. This crate turns the one-query-at-a-time engine of `dsr-core`
//! into a serving substrate that keeps that multiplier **across clients**
//! — and keeps long analytical readers consistent **across updates**:
//!
//! * [`QueryService`] serves the latest generation of a chain of
//!   generations: every [`install_index`](QueryService::install_index)
//!   and every changing [`update`](QueryService::update) batch produces a
//!   numbered immutable generation ([`GenerationId`]).
//!   [`QueryService::snapshot`] pins the latest into a [`SnapshotRef`] — a
//!   consistent view (index + cache namespace) that survives concurrent
//!   updates until it drops; reclamation is refcount-exact and surfaced by
//!   [`GenerationStats`].
//! * Cache misses from all clients flow through a **batch former** that
//!   runs on its callers: the first waiting client whose answer is not in
//!   leads — after a 200 µs forming window for a lone miss, none for a
//!   [`QueryService::query_batch`] group — and fuses every queued miss into
//!   one shared scatter/exchange/gather run via
//!   [`DsrEngine::set_reachability_batch_with_stats`](dsr_core::DsrEngine::set_reachability_batch_with_stats),
//!   then fans the answers back out; the other clients wait, and the owner
//!   of a miss queued meanwhile leads next. The service starts no thread:
//!   per-slave work runs on the process-wide persistent
//!   [`SlavePool`](dsr_cluster::SlavePool). A run that panics fails its
//!   queries with [`ServiceError::Panicked`] and the next run is served as
//!   before.
//! * A bounded LRU cache keyed on normalized `(sources, targets)`
//!   signatures, each hashed once, short-circuits repeated queries
//!   ([`CachedPairs`]) without touching the batch former. The
//!   cache is split into **per-generation namespaces**: pinned readers
//!   keep hitting their generation's entries while updates retire only
//!   the namespaces of dead generations ([`CacheStats`] splits the hit
//!   counters by namespace).
//! * One query enters through [`QueryService::query_with`] (or its
//!   two-phase half [`QueryService::submit_with`]), a batch through
//!   [`QueryService::query_batch`]; [`QueryService::query`] is the
//!   convenience that panics on a failed run. [`QueryOptions`] adds
//!   per-query cache bypass and explicit generation pinning. Admission
//!   control bounds the number of in-flight queries: under saturation a
//!   submission waits for room instead of piling up unboundedly, and
//!   leads the queued run itself when no one else does.
//! * The service keeps one account of what serving cost:
//!   [`QueryService::comm_stats`] sums the rounds, messages and bytes of
//!   every fused run, and [`QueryService::batch_stats`] counts formed
//!   batches and executed queries.
//! * The transport is chosen in one place:
//!   [`QueryService::with_config`] serves in process,
//!   [`QueryService::with_config_and_transport`] over any
//!   [`DynTransport`](dsr_cluster::DynTransport) — in process or through
//!   the wire codec.
//! * Index updates flow through [`QueryService::update`] — the
//!   differential pipeline of Section 3.3.3: back-to-back batches are
//!   coalesced, only affected partitions refresh, and the summary deltas
//!   ship through the service's transport (cost surfaced by
//!   [`QueryService::update_stats`]). A served index changes in exactly
//!   one way: the batch is applied to a fork of the latest generation
//!   and the fork is installed iff the batch succeeded and changed
//!   something, so readers never wait for an update and a failed batch
//!   ([`UpdateError`]) leaves generation and hot cache untouched.
//! * Analytical tenants are plain functions over one pinned
//!   [`SnapshotRef`]: every question goes through
//!   [`SnapshotRef::query_batch`] and every graph walk reads
//!   [`SnapshotRef::index`], so a re-run on the same snapshot computes the
//!   same answers whatever updates landed meanwhile. The `dsr-rdf` path
//!   resolver and the `dsr-community` pairwise query are the two in-tree
//!   tenants.
//!
//! # Quick start
//!
//! ```
//! use dsr_sync::Arc;
//! use dsr_core::{DsrIndex, SetQuery, UpdateOp};
//! use dsr_graph::DiGraph;
//! use dsr_partition::{Partitioner, HashPartitioner};
//! use dsr_reach::LocalIndexKind;
//! use dsr_service::{QueryService, UpdateMode};
//!
//! let graph = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
//! let partitioning = HashPartitioner::default().partition(&graph, 2);
//! let index = DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs);
//! let service = QueryService::new(Arc::new(index));
//!
//! // Single queries (cached) …
//! assert_eq!(*service.query(&[0], &[5]), vec![(0, 5)]);
//!
//! // … batches: 3 communication rounds for the whole batch …
//! let rounds = service.comm_stats().rounds();
//! let reply = service.query_batch(&[
//!     SetQuery::new(vec![0], vec![3]),
//!     SetQuery::new(vec![1], vec![4, 5]),
//! ]).expect("in-process transport never fails");
//! assert_eq!(reply.results.len(), 2);
//! assert_eq!(service.comm_stats().rounds() - rounds, 3);
//!
//! // … and snapshot isolation: a pinned reader's view survives updates.
//! let snap = service.snapshot();
//! service.update(&[UpdateOp::Delete(2, 3)], UpdateMode::Auto).unwrap();
//! assert_eq!(*snap.query(&[0], &[5]).unwrap(), vec![(0, 5)]); // old generation
//! assert!(service.query(&[0], &[5]).is_empty());     // latest generation
//! ```
//!
//! [`DsrIndex`]: dsr_core::DsrIndex

#![forbid(unsafe_code)]

mod batcher;
mod cache;
mod service;
mod snapshot;
mod stats;

pub use batcher::ServiceError;
pub use cache::CachedPairs;
pub use service::{
    BatchReply, GenerationStats, QueryOptions, QueryService, QueryTicket, ServiceConfig,
    SnapshotRef, UpdateError, UpdateMode,
};
pub use snapshot::GenerationId;
pub use stats::{BatchStats, CacheStats};
