//! The concurrent query service: snapshot-isolated serving over a
//! generation-chained [`DsrIndex`].
//!
//! Every install — of a rebuilt index or of the fork an update batch
//! changed — advances a [`GenerationChain`] of numbered, immutable
//! snapshots. The default query paths run against the *latest*
//! generation; [`QueryService::snapshot`] hands out a pinned
//! [`SnapshotRef`] whose view — index **and** cache namespace — stays
//! frozen while updates advance the chain underneath it.

use dsr_sync::Arc;
use std::time::{Duration, Instant};

use dsr_cluster::{CommStats, DynTransport, TransportError, UpdateStats};
use dsr_core::{coalesce_updates, DsrIndex, SetQuery, UpdateOp, UpdateOutcome};
use dsr_graph::VertexId;

use crate::batcher::{Admission, Batcher, BatcherConfig, Entry, RoundCost, ServiceError, Waiter};
use crate::cache::{CachedPairs, QueryCache, SigKey};
use crate::snapshot::{Generation, GenerationChain, GenerationId};
use crate::stats::{BatchStats, CacheStats};

/// Why an update could not be applied. Either way nothing was applied: the
/// generation did not advance and the hot cache is untouched.
#[derive(Debug)]
pub enum UpdateError {
    /// The service's transport failed while shipping the refresh deltas
    /// (on the wire backend, a codec that refuses its own encoding). The
    /// half-refreshed fork is discarded; readers keep the last good
    /// generation.
    Transport(TransportError),
    /// An op of the batch names a vertex the served graph does not have.
    /// The batch is checked as a whole, under the update lock, against the
    /// generation it would have been applied to.
    InvalidVertex {
        /// The first offending endpoint, in batch order.
        vertex: VertexId,
        /// Vertices of the served graph; valid ids are `0..num_vertices`.
        num_vertices: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Transport(err) => write!(f, "update delta exchange failed: {err}"),
            UpdateError::InvalidVertex {
                vertex,
                num_vertices,
            } => write!(
                f,
                "update names vertex {vertex}, but the served graph has {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for UpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpdateError::Transport(err) => Some(err),
            UpdateError::InvalidVertex { .. } => None,
        }
    }
}

impl From<TransportError> for UpdateError {
    fn from(err: TransportError) -> Self {
        UpdateError::Transport(err)
    }
}

/// How [`QueryService::update`] obtains a mutable index: there is one way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateMode {
    /// Fork the latest index ([`DsrIndex::fork`]), apply the batch to the
    /// fork, and install it as a new generation only when the batch
    /// succeeded and changed something. Pinned readers keep their old
    /// generation and no reader waits for the batch.
    #[default]
    Auto,
}

/// Per-query knobs for [`QueryService::submit_with`] /
/// [`QueryService::query_with`].
///
/// The default (`QueryOptions::default()`) is the behavior of the plain
/// entry points: consult the cache, run against the latest generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Consult (and populate) the result cache. With `false` the query is
    /// still fused through the batch former, but neither probes nor fills
    /// any namespace.
    pub cache: bool,
    /// Pin the query to an explicit retained generation instead of the
    /// latest. Fails with [`ServiceError::GenerationReclaimed`] once that
    /// generation's last [`SnapshotRef`] has dropped — hold a
    /// [`QueryService::snapshot`] to keep it alive.
    pub pin: Option<GenerationId>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            cache: true,
            pin: None,
        }
    }
}

/// Configuration of a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum number of cached query results (clamped to at least 1).
    pub cache_capacity: usize,
    /// Size cap of the batch former: the scheduler stops waiting and
    /// executes as soon as this many queries are pending. Groups submitted
    /// by one [`QueryService::query_batch`] call are indivisible, so a
    /// formed batch can exceed the cap by the tail group's size.
    pub max_batch: usize,
    /// Bounded forming window in microseconds: a cache-missing query waits
    /// at most this long for other clients' misses to fuse with before the
    /// batch executes. `0` disables the window (every submission executes
    /// immediately with whatever queued meanwhile) — single-client latency
    /// is then optimal but cross-client fusion only happens under true
    /// concurrency.
    pub max_wait_us: u64,
    /// Admission limit: maximum number of submitted-but-unanswered queries
    /// before backpressure. [`QueryService::try_submit`] fails fast with
    /// [`ServiceError::Overloaded`]; the other entry points wait for room
    /// instead.
    pub admission_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            max_batch: 64,
            max_wait_us: 200,
            admission_depth: 1024,
        }
    }
}

/// Outcome of a batched service call.
#[derive(Debug, Clone)]
pub struct BatchReply {
    /// One answer per input query, in input order. Answers are `Arc`-shared
    /// with the cache, so repeated queries cost no copies.
    pub results: Vec<CachedPairs>,
    /// How many of the input queries were answered from the cache.
    pub cache_hits: usize,
    /// How many distinct queries were actually executed (cache misses after
    /// in-batch deduplication; under concurrency some may instead be
    /// resolved by another client's simultaneous execution).
    pub executed: usize,
    /// Communication rounds of the fused execution(s) that answered this
    /// batch (0 when every query hit the cache).
    pub rounds: u64,
    /// Messages exchanged by the fused execution(s).
    pub messages: u64,
    /// Bytes exchanged by the fused execution(s).
    pub bytes: u64,
}

/// Generation-chain gauges of a [`QueryService`] — the MVCC counters the
/// mixed-tenant benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationStats {
    /// The id of the generation currently serving unpinned queries.
    pub latest: GenerationId,
    /// Generations currently alive: retained (pinned, superseded) plus the
    /// latest.
    pub retained: usize,
    /// Generations ever created (including generation 0).
    pub created: u64,
    /// Generations reclaimed so far (`created - reclaimed` = alive).
    pub reclaimed: u64,
}

/// The state shared between client threads and the batch-forming
/// scheduler thread.
pub(crate) struct Core {
    pub(crate) generations: GenerationChain,
    pub(crate) cache: QueryCache,
    pub(crate) transport: DynTransport,
    pub(crate) admission: Admission,
    pub(crate) stats: CacheStats,
    pub(crate) comm: CommStats,
    pub(crate) batch: BatchStats,
}

impl Core {
    /// The unpinned probe: looks `key` up in the namespace of the generation
    /// that is latest at the load and counts a hit as a latest-namespace
    /// one. Pins nothing and reads the latest id once.
    fn probe_latest(&self, key: &SigKey) -> Option<CachedPairs> {
        let hit = self.cache.get(self.generations.latest_id(), key)?;
        self.stats.record_latest_hit();
        Some(hit)
    }

    /// Counts a hit in `generation`'s namespace by its kind.
    fn record_hit_in(&self, generation: &Generation) {
        if generation.id() == self.generations.latest_id() {
            self.stats.record_latest_hit();
        } else {
            self.stats.record_pinned_hit();
        }
    }
}

/// A pending (or immediately answered) single-query submission — the
/// two-phase half of [`QueryService::query_with`]. Obtain one with
/// [`QueryService::submit_with`] / [`QueryService::try_submit`], then
/// collect the answer with [`QueryTicket::wait`].
#[derive(Debug)]
pub struct QueryTicket {
    inner: TicketInner,
}

enum TicketInner {
    /// Answered from the cache at submission time.
    Ready(CachedPairs),
    /// Queued for fused execution; slot 0 of a single-entry group.
    Pending(Arc<Waiter>),
}

impl std::fmt::Debug for TicketInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TicketInner::Ready(_) => f.write_str("Ready"),
            TicketInner::Pending(_) => f.write_str("Pending"),
        }
    }
}

impl QueryTicket {
    /// Blocks until the query is answered.
    ///
    /// # Errors
    /// [`ServiceError::Transport`] when the fused execution containing
    /// this query failed on the service transport,
    /// [`ServiceError::Panicked`] when it panicked.
    pub fn wait(self) -> Result<CachedPairs, ServiceError> {
        match self.inner {
            TicketInner::Ready(value) => Ok(value),
            TicketInner::Pending(waiter) => {
                let mut fulfillments = waiter.wait()?;
                let (value, _cost) = fulfillments.pop().expect("single-slot group");
                Ok(value)
            }
        }
    }
}

/// A pinned, consistent view of the service: one generation's index plus
/// its cache namespace, frozen for the lifetime of the ref.
///
/// Obtained with [`QueryService::snapshot`]. Holding a `SnapshotRef`
/// *pins* its generation: updates keep advancing the chain, but this
/// generation — and every cached answer in its namespace — stays alive
/// and byte-identical until the ref drops. Queries through the ref still
/// fuse with other clients' traffic in the batch former; entries pinned
/// to different generations simply execute as separate fused runs.
///
/// Dropping the ref releases the pin and reclaims any generation whose
/// last pin this was (together with its cache namespace).
pub struct SnapshotRef<'a> {
    service: &'a QueryService,
    /// `Some` until drop: the pin itself. Wrapped in `Option` so `Drop`
    /// can release the pin *before* asking the service to reap.
    generation: Option<Arc<Generation>>,
}

impl SnapshotRef<'_> {
    fn pin(&self) -> &Arc<Generation> {
        self.generation.as_ref().expect("pinned until drop")
    }

    /// The pinned generation's id.
    pub fn generation(&self) -> GenerationId {
        self.pin().id()
    }

    /// The pinned generation's immutable index — for direct engine access
    /// (e.g. analytical algorithms that walk the raw graph).
    pub fn index(&self) -> &Arc<DsrIndex> {
        self.pin().index()
    }

    /// Answers `S ; T` against the pinned generation, consulting its
    /// cache namespace; misses fuse with concurrent traffic. Blocks for
    /// admission.
    ///
    /// # Errors
    /// [`ServiceError::Transport`] or [`ServiceError::Panicked`] when the
    /// fused execution fails.
    pub fn query(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Result<CachedPairs, ServiceError> {
        self.service
            .submit_pinned(Arc::clone(self.pin()), SigKey::new(sources, targets), true)?
            .wait()
    }

    /// Answers a whole batch against the pinned generation with a single
    /// fused execution for all namespace misses — the workhorse of
    /// analytical workloads (see [`WorkloadRun`](crate::WorkloadRun)).
    ///
    /// # Errors
    /// [`ServiceError::Transport`] when the fused execution fails.
    pub fn query_batch(&self, queries: &[SetQuery]) -> Result<BatchReply, ServiceError> {
        self.service
            .query_batch_pinned(Arc::clone(self.pin()), queries)
    }
}

impl std::fmt::Debug for SnapshotRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotRef")
            .field("generation", &self.generation())
            .finish()
    }
}

impl Drop for SnapshotRef<'_> {
    fn drop(&mut self) {
        // Release the pin first: reap sees the true strong count.
        self.generation = None;
        self.service.reap_generations();
    }
}

/// A thread-safe query-serving front end over a generation chain of
/// [`DsrIndex`] snapshots.
///
/// The service can be hammered from any number of client threads
/// concurrently. Queries flow through a **batch former** (see the
/// [`batcher`](crate::batcher) module): cache hits are answered directly
/// from the result cache, while cache misses from *all* clients
/// are fused by a dedicated scheduler thread into shared
/// scatter/exchange/gather runs — 3 communication rounds per formed batch
/// instead of 3 per query. Per-slave work runs on the process-wide
/// persistent [`SlavePool`](dsr_cluster::SlavePool), so concurrent batches
/// interleave at slave-task granularity instead of spawning threads.
///
/// # Snapshots, caching and updates
///
/// The installed index lives in a
/// [`GenerationChain`]: every
/// [`install_index`](QueryService::install_index) and every
/// [`update`](QueryService::update) batch that changes anything produces
/// a fresh, numbered, immutable generation. The result cache
/// ([`QueryCache`]) is partitioned into **per-generation namespaces**:
///
/// * unpinned queries probe and fill the latest generation's namespace —
///   a no-op update batch keeps the generation, so the hot cache
///   survives idempotent replays;
/// * [`QueryService::snapshot`] pins the latest generation into a
///   [`SnapshotRef`]: its queries keep hitting the pinned namespace even
///   while updates advance the chain, so an analytical reader's hit rate
///   survives concurrent update batches;
/// * a generation — and its namespace — is reclaimed exactly when its
///   last pin drops ([`GenerationStats`] reports the gauges).
///
/// [`QueryService::update`] applies incremental update batches (Section
/// 3.3.3 of the paper) to a fork of the latest index;
/// [`QueryOptions`] gives per-query control (cache bypass, explicit
/// generation pinning) over the read side.
pub struct QueryService {
    // Declared before `core` so Drop joins the scheduler thread first.
    batcher: Batcher,
    core: Arc<Core>,
    /// Aggregate refresh-exchange cost of every update batch applied
    /// through this service (rounds/messages/bytes of shipped deltas).
    updates_comm: CommStats,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("generations", &self.core.generations)
            .field("cache", &self.core.cache)
            .finish()
    }
}

impl QueryService {
    /// Creates a service over `index` with the default configuration.
    pub fn new(index: Arc<DsrIndex>) -> Self {
        Self::with_config(index, ServiceConfig::default())
    }

    /// Creates a service over `index` with an explicit configuration,
    /// serving in process ([`DynTransport::InProcess`]).
    pub fn with_config(index: Arc<DsrIndex>, config: ServiceConfig) -> Self {
        Self::with_config_and_transport(index, config, DynTransport::InProcess)
    }

    /// Creates a service over `index` with an explicit configuration **and
    /// transport** — the one way to serve over another backend than
    /// [`DynTransport::InProcess`]: [`DynTransport::Wire`] encodes and
    /// decodes every message in process. The backend is shared by every
    /// query this service executes and by the refresh exchange of every
    /// update applied through [`QueryService::update`].
    pub fn with_config_and_transport(
        index: Arc<DsrIndex>,
        config: ServiceConfig,
        transport: DynTransport,
    ) -> Self {
        let core = Arc::new(Core {
            generations: GenerationChain::new(index),
            cache: QueryCache::new(config.cache_capacity),
            transport,
            admission: Admission::new(config.admission_depth),
            stats: CacheStats::new(),
            comm: CommStats::new(),
            batch: BatchStats::new(),
        });
        let batcher = Batcher::spawn(
            Arc::clone(&core),
            BatcherConfig {
                max_batch: config.max_batch.max(1),
                max_wait: Duration::from_micros(config.max_wait_us),
            },
        );
        QueryService {
            batcher,
            core,
            updates_comm: CommStats::new(),
        }
    }

    /// A clone of the latest generation's index `Arc`.
    ///
    /// Note this is a *raw* index clone, not a generation pin: the index
    /// stays valid (generations are immutable), but holding it does **not**
    /// retain the generation's cache namespace. Prefer
    /// [`QueryService::snapshot`] for a consistent pinned view.
    pub fn index(&self) -> Arc<DsrIndex> {
        Arc::clone(self.core.generations.latest().index())
    }

    /// Pins the latest generation into a [`SnapshotRef`]: a consistent
    /// view (index + cache namespace) that survives concurrent updates
    /// until the ref drops.
    pub fn snapshot(&self) -> SnapshotRef<'_> {
        SnapshotRef {
            service: self,
            generation: Some(self.core.generations.latest()),
        }
    }

    /// The transport this service executes queries over; its variant says
    /// which backend.
    pub fn transport(&self) -> &DynTransport {
        &self.core.transport
    }

    /// Cache hit/miss/eviction counters, hits split by namespace kind
    /// (latest vs pinned retained generations). Deterministic under
    /// single-threaded replay — the mixed-tenant benchmark asserts
    /// byte-identical values across transports.
    pub fn cache_stats(&self) -> &CacheStats {
        &self.core.stats
    }

    /// Generation-chain gauges: the latest id, how many generations are
    /// alive (retained by pins + the latest), and the created/reclaimed
    /// totals.
    pub fn generation_stats(&self) -> GenerationStats {
        GenerationStats {
            latest: self.core.generations.latest_id(),
            retained: self.core.generations.retained(),
            created: self.core.generations.created(),
            reclaimed: self.core.generations.reclaimed(),
        }
    }

    /// Aggregate communication counters across every query this service has
    /// executed (cache hits add nothing — that is the point of the cache).
    pub fn comm_stats(&self) -> &CommStats {
        &self.core.comm
    }

    /// Batch-former counters: formed-batch size histogram, queued wait and
    /// the fusion ratio (queries per communication round).
    pub fn batch_stats(&self) -> &BatchStats {
        &self.core.batch
    }

    /// Number of currently cached results, across all live namespaces.
    pub fn cache_len(&self) -> usize {
        self.core.cache.len()
    }

    /// Non-blocking [`submit_with`](QueryService::submit_with) with the
    /// default [`QueryOptions`]: fails fast with
    /// [`ServiceError::Overloaded`] instead of waiting for admission when
    /// [`ServiceConfig::admission_depth`] queries are already in flight.
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`] on a saturated admission queue.
    pub fn try_submit(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Result<QueryTicket, ServiceError> {
        self.submit_latest(SigKey::new(sources, targets), true, false)
    }

    /// Probes the cache and, on a miss, enqueues the query into the batch
    /// former, blocking for admission if the service is saturated. The
    /// returned [`QueryTicket`] collects the answer; `options` asks for a
    /// cache bypass and/or an explicit generation pin.
    ///
    /// Submitting without immediately waiting is how a single client
    /// presents concurrent work: submit several queries, then
    /// [`flush`](QueryService::flush) and wait on the tickets — the misses
    /// fuse into one protocol run exactly like misses from distinct
    /// threads.
    ///
    /// # Errors
    /// [`ServiceError::GenerationReclaimed`] when `options.pin` names a
    /// generation whose last pin has dropped.
    pub fn submit_with(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
        options: QueryOptions,
    ) -> Result<QueryTicket, ServiceError> {
        let Some(id) = options.pin else {
            return self.submit_latest(SigKey::new(sources, targets), options.cache, true);
        };
        let generation = self
            .core
            .generations
            .lookup(id)
            .ok_or(ServiceError::GenerationReclaimed { generation: id })?;
        self.submit_pinned(generation, SigKey::new(sources, targets), options.cache)
    }

    /// The unpinned submission: probe the namespace that
    /// [`latest_id`](GenerationChain::latest_id) names before pinning
    /// anything, and pin the latest generation only on a miss (or a cache
    /// bypass), moving the same key into the batch entry.
    ///
    /// A hit is as fresh as one probed under a pin: the namespace holds only
    /// answers computed against its own generation, which was the latest at
    /// the load — and a pinned generation can be superseded right after
    /// [`latest`](GenerationChain::latest) returns too. A namespace retired
    /// in between has no map left and reads as a miss.
    fn submit_latest(
        &self,
        key: SigKey,
        cache: bool,
        blocking: bool,
    ) -> Result<QueryTicket, ServiceError> {
        if cache {
            if let Some(hit) = self.core.probe_latest(&key) {
                return Ok(QueryTicket {
                    inner: TicketInner::Ready(hit),
                });
            }
            self.core.stats.record_miss();
        }
        self.enqueue(self.core.generations.latest(), key, cache, blocking)
    }

    /// The pinned submission: probe `generation`'s namespace (when `cache`
    /// asks for it), then enqueue a generation-pinned entry, blocking for
    /// admission.
    fn submit_pinned(
        &self,
        generation: Arc<Generation>,
        key: SigKey,
        cache: bool,
    ) -> Result<QueryTicket, ServiceError> {
        if cache {
            if let Some(hit) = self.core.cache.get(generation.id(), &key) {
                self.core.record_hit_in(&generation);
                return Ok(QueryTicket {
                    inner: TicketInner::Ready(hit),
                });
            }
            self.core.stats.record_miss();
        }
        self.enqueue(generation, key, cache, true)
    }

    /// Takes admission for one query and hands its entry, pinned to
    /// `generation`, to the batch former.
    fn enqueue(
        &self,
        generation: Arc<Generation>,
        key: SigKey,
        cache: bool,
        blocking: bool,
    ) -> Result<QueryTicket, ServiceError> {
        if blocking {
            self.core.admission.acquire_blocking(1);
        } else {
            self.core.admission.try_acquire(1)?;
        }
        let waiter = Waiter::new(1);
        self.batcher.submit(vec![Entry {
            key,
            generation,
            cache,
            waiter: Arc::clone(&waiter),
            slot: 0,
            enqueued: Instant::now(),
        }]);
        Ok(QueryTicket {
            inner: TicketInner::Pending(waiter),
        })
    }

    /// Asks the batch former to execute whatever is pending right now
    /// instead of waiting out the forming window — pair with
    /// [`submit_with`](QueryService::submit_with) when the caller knows no
    /// more work is coming.
    pub fn flush(&self) {
        self.batcher.flush();
    }

    /// The convenience over [`query_with`](QueryService::query_with) with
    /// the default [`QueryOptions`]: answers `S ; T` against the latest
    /// generation, consulting the result cache.
    ///
    /// # Panics
    /// When the fused execution fails — in process it never does, over
    /// the wire only on a codec that refuses its own encoding; callers who
    /// need the typed error use [`query_with`](QueryService::query_with).
    pub fn query(&self, sources: &[VertexId], targets: &[VertexId]) -> CachedPairs {
        match self.query_with(sources, targets, QueryOptions::default()) {
            Ok(value) => value,
            Err(err) => panic!("service query failed: {err}"),
        }
    }

    /// Answers `S ; T`, consulting the result cache; misses fuse with
    /// concurrent clients' misses into shared protocol rounds. Blocks for
    /// admission when the service is saturated (use
    /// [`try_submit`](QueryService::try_submit) for fail-fast
    /// backpressure).
    ///
    /// # Errors
    /// [`ServiceError::Transport`] or [`ServiceError::Panicked`] when the
    /// fused execution fails, [`ServiceError::GenerationReclaimed`] on a
    /// dead [`QueryOptions::pin`].
    pub fn query_with(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
        options: QueryOptions,
    ) -> Result<CachedPairs, ServiceError> {
        self.submit_with(sources, targets, options)?.wait()
    }

    /// Answers a whole batch of queries with a single
    /// scatter/exchange/gather sequence for all cache misses, against the
    /// latest generation.
    ///
    /// The batch is probed against the cache; the misses are submitted to
    /// the batch former as one indivisible group and flushed, so a lone
    /// caller still pays exactly one fused 3-round execution — and under
    /// concurrency the group shares its rounds with other clients' misses
    /// that queued in the same window. Identical signatures within the
    /// batch are deduplicated so each distinct miss is executed exactly
    /// once.
    ///
    /// # Errors
    /// [`ServiceError::Transport`] when the fused execution fails (over the
    /// wire, a codec that refuses its own encoding) — nothing is cached
    /// from a failed batch — or [`ServiceError::Panicked`] when it
    /// panicked, and never [`ServiceError::Overloaded`]: a whole batch
    /// blocks for admission.
    pub fn query_batch(&self, queries: &[SetQuery]) -> Result<BatchReply, ServiceError> {
        let generation = self.core.generations.latest();
        self.query_batch_pinned(generation, queries)
    }

    /// The one batched path: probe `generation`'s namespace, submit the
    /// misses as one indivisible generation-pinned group, flush, wait.
    fn query_batch_pinned(
        &self,
        generation: Arc<Generation>,
        queries: &[SetQuery],
    ) -> Result<BatchReply, ServiceError> {
        let mut results: Vec<Option<CachedPairs>> = vec![None; queries.len()];
        let mut cache_hits = 0usize;
        let mut miss_keys: Vec<SigKey> = Vec::new();
        let mut miss_slots: Vec<usize> = Vec::new(); // waiter slot -> query index
        for (qi, query) in queries.iter().enumerate() {
            let key = SigKey::from_query(query);
            if let Some(hit) = self.core.cache.get(generation.id(), &key) {
                self.core.record_hit_in(&generation);
                cache_hits += 1;
                results[qi] = Some(hit);
                continue;
            }
            self.core.stats.record_miss();
            miss_slots.push(qi);
            miss_keys.push(key);
        }

        let (mut rounds, mut messages, mut bytes) = (0u64, 0u64, 0u64);
        let mut executed = 0usize;
        if !miss_keys.is_empty() {
            self.core.admission.acquire_blocking(miss_keys.len());
            let waiter = Waiter::new(miss_keys.len());
            let enqueued = Instant::now();
            self.batcher.submit(
                miss_keys
                    .iter()
                    .enumerate()
                    .map(|(slot, key)| Entry {
                        key: key.clone(),
                        generation: Arc::clone(&generation),
                        cache: true,
                        waiter: Arc::clone(&waiter),
                        slot,
                        enqueued,
                    })
                    .collect(),
            );
            // The group's entries carry their own pins; drop ours so a
            // client waiting on this batch is the only remaining pinner.
            drop(generation);
            // The caller already presented the whole batch: nothing is
            // gained by waiting out the forming window.
            self.batcher.flush();
            let fulfillments = waiter.wait()?;

            // Aggregate the reply: count each distinct executed signature
            // once, and each fused run's cost once (duplicates and
            // scheduler-side cache resolutions share `Arc`s).
            let mut executed_sigs: Vec<&SigKey> = Vec::new();
            let mut costs: Vec<Arc<RoundCost>> = Vec::new();
            for (slot, (value, cost)) in fulfillments.into_iter().enumerate() {
                if let Some(cost) = cost {
                    let key = &miss_keys[slot];
                    if !executed_sigs.contains(&key) {
                        executed_sigs.push(key);
                        executed += 1;
                    }
                    if !costs.iter().any(|seen| Arc::ptr_eq(seen, &cost)) {
                        rounds += cost.rounds;
                        messages += cost.messages;
                        bytes += cost.bytes;
                        costs.push(cost);
                    }
                }
                results[miss_slots[slot]] = Some(value);
            }
        }

        Ok(BatchReply {
            results: results
                .into_iter()
                .map(|slot| slot.expect("every query answered"))
                .collect(),
            cache_hits,
            executed,
            rounds,
            messages,
            bytes,
        })
    }

    /// Installs a rebuilt index as a fresh generation and reclaims the
    /// superseded one as soon as its pins drop.
    ///
    /// The install holds the chain's lock only for a pointer store, however
    /// long the new index took to build. This is the offline-rebuild
    /// producer of generations: queries started before
    /// the install finish against the old generation and stay
    /// namespace-correct; pinned [`SnapshotRef`]s keep the old generation
    /// alive until they drop.
    pub fn install_index(&self, index: Arc<DsrIndex>) {
        let _serial = self.core.generations.lock_updates();
        let installed = self.core.generations.install(index);
        self.core.cache.open(installed.id());
        self.reap_generations();
    }

    /// Applies a batch of edge updates through the differential pipeline
    /// (Section 3.3.3): back-to-back operations on the same edge are
    /// coalesced to the last one ([`coalesce_updates`]), only affected
    /// partitions refresh their summaries, and the refresh deltas ship
    /// through this service's transport — their measured cost accumulates
    /// in [`QueryService::update_stats`].
    ///
    /// The batch is applied to a fork of the latest generation's index,
    /// and the fork is installed iff the batch succeeded and changed
    /// something: fresh namespace, old one retired or retained for its
    /// pinned readers. A complete no-op batch (duplicates, already-absent
    /// deletions) keeps the generation and the hot cache, so idempotent
    /// replays cannot collapse the hit rate. Queries keep running against
    /// the old generation while the batch is applied.
    ///
    /// # Errors
    /// [`UpdateError::InvalidVertex`] when an op names a vertex outside the
    /// served graph, [`UpdateError::Transport`] when the delta exchange
    /// failed. Both drop the fork: nothing is applied.
    pub fn update(
        &self,
        ops: &[UpdateOp],
        _mode: UpdateMode,
    ) -> Result<UpdateOutcome, UpdateError> {
        let ops = coalesce_updates(ops);
        let generations = &self.core.generations;
        // One update at a time, end to end: two concurrent updates must not
        // both fork the same parent, and the generation validated below
        // must be the one that is forked.
        let _serial = generations.lock_updates();
        let latest = generations.latest();
        // The pipeline indexes by vertex id and would panic on a bad one.
        let num_vertices = latest.index().partitioning.num_vertices();
        let mut endpoints = ops.iter().flat_map(|op| <[VertexId; 2]>::from(op.edge()));
        if let Some(vertex) = endpoints.find(|&v| v as usize >= num_vertices) {
            return Err(UpdateError::InvalidVertex {
                vertex,
                num_vertices,
            });
        }
        let mut fork = latest.index().fork();
        let outcome = fork.apply_updates_with_transport(&ops, &self.core.transport)?;
        if outcome.rebuilt_compounds {
            let installed = generations.install(Arc::new(fork));
            self.core.cache.open(installed.id());
            // Shed our own pin before reaping: when no reader pins the
            // superseded generation, it (and its namespace) dies now.
            drop(latest);
            self.reap_generations();
        }
        self.updates_comm.add(
            outcome.stats.update_rounds,
            outcome.stats.update_messages,
            outcome.stats.update_bytes,
        );
        Ok(outcome)
    }

    /// Aggregate communication cost of every update batch applied through
    /// [`QueryService::update`]: measured wire bytes of the shipped
    /// summary deltas, reported in the same units as
    /// [`QueryService::comm_stats`].
    pub fn update_stats(&self) -> UpdateStats {
        UpdateStats::from_comm(&self.updates_comm)
    }

    /// Reclaims every generation whose last pin has dropped, retiring the
    /// matching cache namespaces. Called after installs and from
    /// [`SnapshotRef`]'s `Drop`.
    pub(crate) fn reap_generations(&self) {
        for retired in self.core.generations.reap() {
            self.core.cache.retire(retired);
            self.core.stats.record_invalidation();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::DiGraph;
    use dsr_partition::Partitioning;
    use dsr_reach::LocalIndexKind;

    /// Whether the submission was answered from the cache without touching
    /// the scheduler (waiting on it will not block).
    fn is_ready(ticket: &QueryTicket) -> bool {
        matches!(ticket.inner, TicketInner::Ready(_))
    }

    fn chain_service() -> QueryService {
        // 0 -> 1 -> 2 -> 3 -> 4 -> 5 across two partitions.
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        QueryService::new(Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)))
    }

    #[test]
    fn repeated_query_hits_cache() {
        let service = chain_service();
        let first = service.query(&[0], &[5]);
        assert_eq!(*first, vec![(0, 5)]);
        assert_eq!(service.cache_stats().misses(), 1);
        let second = service.query(&[0], &[5]);
        assert!(Arc::ptr_eq(&first, &second), "hit returns the shared Arc");
        assert_eq!(service.cache_stats().hits(), 1);
        // The hit was served from the latest generation's namespace.
        let cache = service.cache_stats();
        assert_eq!((cache.latest_hits(), cache.pinned_hits()), (1, 0));
        // A hit performs no communication: the aggregate counters only hold
        // the first (miss) execution.
        assert_eq!(service.comm_stats().rounds(), 3);
        // The miss went through the batch former: one formed batch of one.
        assert_eq!(service.batch_stats().batches(), 1);
        assert_eq!(service.batch_stats().queries(), 1);
        assert_eq!(service.batch_stats().executed(), 1);
    }

    #[test]
    fn normalization_unifies_equivalent_queries() {
        let service = chain_service();
        service.query(&[0, 1, 0], &[5, 4]);
        service.query(&[1, 0], &[4, 5, 5]);
        assert_eq!(service.cache_stats().hits(), 1);
        assert_eq!(service.cache_stats().misses(), 1);
        assert_eq!(service.cache_len(), 1);
    }

    #[test]
    fn cache_false_options_fuse_but_never_store() {
        let service = chain_service();
        let options = QueryOptions {
            cache: false,
            ..QueryOptions::default()
        };
        let pairs = service
            .query_with(&[0], &[5], options)
            .expect("in-process transport");
        assert_eq!(*pairs, vec![(0, 5)]);
        // The bypass neither probed nor filled any namespace …
        assert_eq!(service.cache_stats().hits(), 0);
        assert_eq!(service.cache_stats().misses(), 0);
        assert_eq!(service.cache_len(), 0);
        // … but it still went through the former.
        assert_eq!(service.batch_stats().batches(), 1);
        // A cached repeat afterwards proves the bypass left no trace.
        service.query(&[0], &[5]);
        assert_eq!(service.cache_stats().misses(), 1);
    }

    #[test]
    fn batch_mixes_hits_and_misses() {
        let service = chain_service();
        service.query(&[0], &[5]);
        let reply = service
            .query_batch(&[
                SetQuery::new(vec![0], vec![5]),    // hit
                SetQuery::new(vec![1], vec![4]),    // miss
                SetQuery::new(vec![1, 1], vec![4]), // same signature: deduplicated
                SetQuery::new(vec![5], vec![0]),    // miss, empty answer
            ])
            .expect("in-process transport");
        assert_eq!(reply.cache_hits, 1);
        assert_eq!(reply.executed, 2, "in-batch duplicates run once");
        assert_eq!(*reply.results[0], vec![(0, 5)]);
        assert_eq!(*reply.results[1], vec![(1, 4)]);
        assert!(Arc::ptr_eq(&reply.results[1], &reply.results[2]));
        assert!(reply.results[3].is_empty());
        assert_eq!(
            reply.rounds, 3,
            "one scatter/exchange/gather for the misses"
        );
    }

    #[test]
    fn all_hit_batch_is_communication_free() {
        let service = chain_service();
        service.query(&[0], &[5]);
        let reply = service
            .query_batch(&[SetQuery::new(vec![0], vec![5])])
            .expect("in-process transport");
        assert_eq!(reply.cache_hits, 1);
        assert_eq!(reply.executed, 0);
        assert_eq!((reply.rounds, reply.messages, reply.bytes), (0, 0, 0));
    }

    #[test]
    fn submitted_tickets_fuse_into_one_round_trip() {
        let service = chain_service();
        // Two-phase submission: a single client presents concurrent work.
        let submit = |i| service.submit_with(&[i], &[5], QueryOptions::default());
        let tickets: Vec<QueryTicket> = (0..4).map(|i| submit(i).expect("latest")).collect();
        assert!(!is_ready(&tickets[0]), "cold queries queue");
        service.flush();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let pairs = ticket.wait().expect("in-process transport");
            assert_eq!(*pairs, vec![(i as VertexId, 5)]);
        }
        // All four distinct misses fused into one 3-round execution.
        assert_eq!(service.comm_stats().rounds(), 3);
        assert_eq!(service.batch_stats().executed(), 4);
        assert!(service.batch_stats().fusion_ratio() > 1.0);
        // A repeated submit resolves instantly from the cache.
        assert!(is_ready(&submit(0).expect("latest")));
    }

    #[test]
    fn saturated_admission_queue_returns_overloaded() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let service = QueryService::with_config(
            Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)),
            ServiceConfig {
                admission_depth: 2,
                max_batch: 64,
                // A forming window far longer than the test: the two
                // queued queries stay in flight until the explicit flush.
                max_wait_us: 60_000_000,
                ..ServiceConfig::default()
            },
        );
        let a = service.try_submit(&[0], &[5]).expect("first admitted");
        let b = service.try_submit(&[1], &[5]).expect("second admitted");
        let refused = service.try_submit(&[2], &[5]);
        assert!(
            matches!(
                refused,
                Err(ServiceError::Overloaded {
                    queued: 2,
                    limit: 2
                })
            ),
            "saturated queue refuses instead of deadlocking"
        );
        let err = refused.unwrap_err();
        assert!(err.to_string().contains("overloaded"));
        service.flush();
        assert_eq!(*a.wait().expect("in-process"), vec![(0, 5)]);
        assert_eq!(*b.wait().expect("in-process"), vec![(1, 5)]);
        // Completion released the admission slots.
        assert!(service.try_submit(&[2], &[5]).is_ok());
    }

    #[test]
    fn unpinned_update_advances_the_chain_and_retires_the_namespace() {
        let service = chain_service();
        assert!(service.query(&[5], &[0]).is_empty());
        let outcome = service
            .update(&[UpdateOp::Insert(5, 0)], UpdateMode::Auto)
            .expect("in-process transport");
        assert!(outcome.rebuilt_compounds);
        let stats = service.generation_stats();
        assert_eq!(stats.latest, 1, "a real batch advances the chain");
        assert_eq!(stats.retained, 1, "the old generation died with it");
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(service.cache_len(), 0, "old namespace retired");
        assert_eq!(service.cache_stats().invalidations(), 1);
        assert_eq!(*service.query(&[5], &[0]), vec![(5, 0)]);
    }

    #[test]
    fn update_lands_beside_a_pinned_latest_generation() {
        // A pinned latest generation is retained; the update lands beside
        // it and refuses nothing.
        let service = chain_service();
        let snap = service.snapshot();
        let shared = service.index();
        service
            .update(&[UpdateOp::Insert(5, 0)], UpdateMode::Auto)
            .expect("pins and index clones are no obstacle");
        let stats = service.generation_stats();
        assert_eq!((stats.latest, stats.retained, stats.reclaimed), (1, 2, 0));
        assert_eq!(snap.generation(), 0);
        assert!(Arc::ptr_eq(snap.index(), &shared), "pinned index untouched");
        assert!(!shared.cut.edges.contains(&(5, 0)));
        assert!(service.index().cut.edges.contains(&(5, 0)));
        drop(snap);
        assert_eq!(service.generation_stats().retained, 1);
    }

    #[test]
    fn out_of_range_vertices_are_a_typed_error_and_apply_nothing() {
        let service = chain_service();
        // A valid op first: the batch is refused as a whole.
        let ops = [UpdateOp::Insert(5, 0), UpdateOp::Delete(2, 6)];
        let err = service.update(&ops, UpdateMode::Auto).unwrap_err();
        assert!(
            matches!(
                err,
                UpdateError::InvalidVertex {
                    vertex: 6,
                    num_vertices: 6
                }
            ),
            "got {err:?}"
        );
        assert!(err.to_string().contains("vertex 6"), "{err}");
        assert_eq!(service.generation_stats().latest, 0, "nothing applied");
        assert!(service.query(&[5], &[0]).is_empty());
        // The update lock was released: the next valid batch lands.
        let insert = service.update(&[UpdateOp::Insert(5, 0)], UpdateMode::Auto);
        assert!(insert.expect("valid batch").rebuilt_compounds);
        assert_eq!(service.generation_stats().latest, 1);
        assert_eq!(*service.query(&[5], &[0]), vec![(5, 0)]);
    }

    #[test]
    fn fork_and_swap_serves_pinned_readers_the_old_generation() {
        let service = chain_service();
        let snap = service.snapshot();
        assert!(snap.query(&[5], &[0]).expect("in-process").is_empty());
        let outcome = service
            .update(&[UpdateOp::Insert(5, 0)], UpdateMode::Auto)
            .expect("in-process transport");
        assert!(outcome.rebuilt_compounds);
        // The pinned snapshot still answers from its frozen generation …
        assert!(snap.query(&[5], &[0]).expect("in-process").is_empty());
        // … while fresh traffic sees the new edge.
        assert_eq!(*service.query(&[5], &[0]), vec![(5, 0)]);
        assert_eq!(service.generation_stats().retained, 2, "old gen pinned");
        drop(snap);
        let stats = service.generation_stats();
        assert_eq!(stats.retained, 1, "drop reclaimed the old generation");
        assert_eq!(stats.reclaimed, 1);
    }

    #[test]
    fn pinned_snapshot_answers_survive_an_update_batch() {
        let service = chain_service();
        let snap = service.snapshot();
        let before = snap.query(&[0], &[5]).expect("in-process");
        assert_eq!(*before, vec![(0, 5)]);
        // Sever the chain's cut edge for fresh traffic.
        service
            .update(&[UpdateOp::Delete(2, 3)], UpdateMode::Auto)
            .expect("in-process transport");
        assert!(service.query(&[0], &[5]).is_empty(), "latest is severed");
        // The pinned repeat is answered from the retained generation's own
        // namespace: identical Arc, zero communication.
        let after = snap.query(&[0], &[5]).expect("in-process");
        assert!(Arc::ptr_eq(&before, &after), "old-namespace cache hit");
        assert_eq!(
            service.cache_stats().pinned_hits(),
            1,
            "hit counted against the pinned namespace"
        );
    }

    #[test]
    fn update_takes_one_path_with_and_without_a_pin() {
        let service = chain_service();
        let snap = service.snapshot();
        service
            .update(&[UpdateOp::Insert(5, 0)], UpdateMode::Auto)
            .expect("the fork lands beside the pin");
        assert_eq!(snap.generation(), 0, "pinned view unmoved");
        assert_eq!(service.generation_stats().latest, 1);
        drop(snap);
        // Unpinned, the same path: the chain advances and the superseded
        // generation is reclaimed on the spot.
        service
            .update(&[UpdateOp::Delete(5, 0)], UpdateMode::Auto)
            .expect("in-process transport");
        let stats = service.generation_stats();
        assert_eq!((stats.latest, stats.retained), (2, 1));
        assert_eq!((stats.created, stats.reclaimed), (3, 2));
    }

    #[test]
    fn query_options_pin_an_explicit_generation() {
        let service = chain_service();
        let snap = service.snapshot();
        let pinned_id = snap.generation();
        service
            .update(&[UpdateOp::Delete(2, 3)], UpdateMode::Auto)
            .expect("in-process transport");
        let old = service
            .query_with(
                &[0],
                &[5],
                QueryOptions {
                    pin: Some(pinned_id),
                    ..QueryOptions::default()
                },
            )
            .expect("retained generation is queryable by id");
        assert_eq!(*old, vec![(0, 5)], "answered against the old generation");
        drop(snap);
        // The last pin dropped: the id now names a reclaimed generation.
        let err = service
            .query_with(
                &[0],
                &[5],
                QueryOptions {
                    pin: Some(pinned_id),
                    ..QueryOptions::default()
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::GenerationReclaimed { generation } if generation == pinned_id),
            "got {err:?}"
        );
        assert!(err.to_string().contains("reclaimed"));
    }

    #[test]
    fn noop_update_batches_leave_the_cache_intact() {
        let service = chain_service();
        service.query(&[0], &[5]);
        assert_eq!(service.cache_len(), 1);
        // Re-inserting an existing edge is a full no-op: the generation
        // and its hot namespace must survive (idempotent replays cannot
        // collapse the hit rate).
        let outcome = service
            .update(&[UpdateOp::Insert(0, 1)], UpdateMode::Auto)
            .expect("in-process transport");
        assert!(!outcome.rebuilt_compounds);
        assert_eq!(service.generation_stats().latest, 0, "no-op keeps the id");
        assert_eq!(service.cache_len(), 1, "no-op does not invalidate");
        assert_eq!(service.cache_stats().invalidations(), 0);
        // A real update still invalidates.
        service
            .update(&[UpdateOp::Insert(5, 0)], UpdateMode::Auto)
            .expect("in-process transport");
        assert_eq!(service.cache_len(), 0);
        assert_eq!(service.cache_stats().invalidations(), 1);
    }

    #[test]
    fn noop_update_on_a_shared_index_does_not_swap_the_fork() {
        let service = chain_service();
        let pinned = service.index();
        let outcome = service
            .update(&[UpdateOp::Insert(0, 1)], UpdateMode::Auto) // duplicate: no-op
            .expect("in-process transport");
        assert!(!outcome.rebuilt_compounds);
        assert!(
            Arc::ptr_eq(&pinned, &service.index()),
            "untouched fork is discarded, not installed"
        );
        assert_eq!(service.generation_stats().latest, 0);
    }

    /// `update` validates the batch against the generation it forks, under
    /// the update lock: racing an `install_index` of a smaller graph it
    /// lands first (`Ok`) or is refused (`InvalidVertex`) — in no schedule
    /// does the pipeline index a vertex the forked graph does not have.
    #[test]
    fn model_update_validates_the_generation_it_forks() {
        use crate::snapshot::one_partition_index;
        dsr_sync::model::Model::new()
            .check(|| {
                let service = Arc::new(QueryService::new(one_partition_index(6)));
                let installer = {
                    let service = Arc::clone(&service);
                    dsr_sync::thread::spawn(move || service.install_index(one_partition_index(4)))
                };
                let result = service.update(&[UpdateOp::Insert(5, 0)], UpdateMode::Auto);
                installer.join().unwrap();
                match result {
                    Ok(outcome) => assert!(outcome.rebuilt_compounds, "landed first"),
                    Err(UpdateError::InvalidVertex {
                        vertex: 5,
                        num_vertices: 4,
                    }) => {}
                    Err(other) => panic!("unexpected {other:?}"),
                }
                assert_eq!(service.index().partitioning.num_vertices(), 4);
            })
            .expect("update vs install_index must hold in every schedule");
    }

    /// The unpinned probe racing an `install_index` — install, `cache.open`,
    /// reap and the retirement of namespace 0 — returns a miss or the
    /// answer of a namespace that was latest during the call, in every
    /// schedule: never an entry of namespace 0 once generation 1 was
    /// installed before the call began.
    #[test]
    fn model_unpinned_probe_never_reads_a_retired_namespace() {
        use crate::snapshot::one_partition_index;
        dsr_sync::model::Model::new()
            .check(|| {
                let service = Arc::new(QueryService::new(one_partition_index(1)));
                let key = SigKey::new(&[0], &[0]);
                // Marker answers: which namespace a hit came from.
                let (old, new): (CachedPairs, CachedPairs) =
                    (Arc::new(vec![(0, 0)]), Arc::new(Vec::new()));
                service
                    .core
                    .cache
                    .insert_if_live(0, key.clone(), Arc::clone(&old));
                let writer = {
                    let (service, key, new) = (Arc::clone(&service), key.clone(), Arc::clone(&new));
                    dsr_sync::thread::spawn(move || {
                        service.install_index(one_partition_index(1));
                        service.core.cache.insert_if_live(1, key, new)
                    })
                };
                let latest_before = service.core.generations.latest_id();
                let hit = service.core.probe_latest(&key);
                writer.join().unwrap();
                match hit {
                    None => {}
                    Some(answer) if Arc::ptr_eq(&answer, &old) => {
                        assert_eq!(latest_before, 0, "hit an entry of a retired namespace");
                    }
                    Some(answer) => assert!(Arc::ptr_eq(&answer, &new), "foreign answer"),
                }
                assert_eq!(
                    service.core.cache.live_namespaces(),
                    [1],
                    "namespace 0 retired"
                );
                assert_eq!(service.cache_stats().pinned_hits(), 0);
            })
            .expect("the unpinned probe must hold in every schedule");
    }

    #[test]
    fn update_coalesces_and_records_stats() {
        let service = chain_service();
        // Insert-then-delete of the same edge coalesces to the delete of
        // an absent edge: a full no-op, zero messages.
        let outcome = service
            .update(
                &[UpdateOp::Insert(5, 0), UpdateOp::Delete(5, 0)],
                UpdateMode::Auto,
            )
            .expect("in-process transport");
        assert!(outcome.refreshed_summaries.is_empty());
        assert!(outcome.stats.is_zero());
        assert!(service.update_stats().is_zero());
        // A real cut-edge insertion ships its two deltas and accumulates.
        let outcome = service
            .update(&[UpdateOp::Insert(5, 0)], UpdateMode::Auto)
            .expect("in-process transport");
        assert_eq!(outcome.refreshed_summaries, vec![0, 1]);
        let total = service.update_stats();
        assert_eq!(total.update_rounds, 1);
        assert_eq!(total.update_messages, 2, "two deltas, one peer each");
        assert!(total.update_bytes > 0);
        assert_eq!(*service.query(&[5], &[0]), vec![(5, 0)]);
    }

    #[test]
    fn install_index_swaps_and_invalidates() {
        let service = chain_service();
        assert!(service.query(&[5], &[0]).is_empty());
        // Rebuild with a back edge and install.
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        service.install_index(Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)));
        // The unpinned generation 0 died with the install, namespace and
        // all.
        assert_eq!(service.cache_stats().invalidations(), 1);
        let stats = service.generation_stats();
        assert_eq!((stats.latest, stats.retained, stats.reclaimed), (1, 1, 1));
        assert_eq!(*service.query(&[5], &[0]), vec![(5, 0)]);
    }

    #[test]
    fn snapshot_pins_a_consistent_view_across_install() {
        let service = chain_service();
        let snap = service.snapshot();
        assert_eq!(snap.generation(), 0);
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        service.install_index(Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)));
        // The pinned view kept the install out entirely.
        assert!(snap.query(&[5], &[0]).expect("in-process").is_empty());
        let reply = snap
            .query_batch(&[SetQuery::new(vec![5], vec![0])])
            .expect("in-process transport");
        assert_eq!(reply.cache_hits, 1, "repeat hit the pinned namespace");
        assert_eq!(*service.query(&[5], &[0]), vec![(5, 0)]);
        drop(snap);
        assert_eq!(service.generation_stats().retained, 1);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let p = Partitioning::new(vec![0, 0, 1], 2);
        let service = QueryService::with_config(
            Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)),
            ServiceConfig {
                cache_capacity: 8,
                ..ServiceConfig::default()
            },
        );
        let bypass = QueryOptions {
            cache: false,
            pin: None,
        };
        for _ in 0..2 {
            let answer = service.query_with(&[0], &[2], bypass).expect("in-process");
            assert_eq!(*answer, vec![(0, 2)]);
        }
        assert_eq!(service.cache_len(), 0);
        assert_eq!(service.cache_stats().hits(), 0);
        // Both executions went through the former: the bypass neither
        // probes nor fills the cache, so nothing resolves the repeat.
        assert_eq!(service.batch_stats().executed(), 2);
    }

    #[test]
    fn wire_transport_service_agrees_with_in_process() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let index = Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs));
        let in_process = QueryService::new(Arc::clone(&index));
        let wired = QueryService::with_config_and_transport(
            Arc::clone(&index),
            ServiceConfig::default(),
            DynTransport::Wire,
        );
        assert_eq!(*wired.transport(), DynTransport::Wire);
        let queries = [
            SetQuery::new(vec![0, 1], vec![4, 5]),
            SetQuery::new(vec![5], vec![0]),
            SetQuery::new(vec![2], vec![3]),
        ];
        let a = in_process.query_batch(&queries).expect("in-process");
        let b = wired.query_batch(&queries).expect("wire");
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(**x, **y, "wire answers must be byte-identical");
        }
        // Identical protocol cost: measured wire bytes == exact sizes.
        assert_eq!(
            in_process.comm_stats().snapshot(),
            wired.comm_stats().snapshot()
        );
    }

    #[test]
    fn eviction_counter_moves_on_tiny_cache() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        let service = QueryService::with_config(
            Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)),
            ServiceConfig {
                cache_capacity: 1,
                ..ServiceConfig::default()
            },
        );
        service.query(&[0], &[3]);
        service.query(&[1], &[3]);
        assert_eq!(service.cache_stats().evictions(), 1);
        assert_eq!(service.cache_len(), 1);
    }
}
