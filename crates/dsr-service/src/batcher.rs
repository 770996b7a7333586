//! The batch-forming front end: fuse concurrent clients into shared
//! protocol rounds.
//!
//! The paper's central serving win is that a batched set-reachability
//! execution costs **3 communication rounds regardless of batch size**
//! ([`DsrEngine::set_reachability_batch_with_stats`]). Running each
//! client's queries as its own private batch throws that away: 64
//! concurrent clients pay 64 separate 3-round executions. This module is an inference-server-style
//! batch former that recovers the multiplier *across* clients:
//!
//! ```text
//!  client 1 ──┐ (cache miss)
//!  client 2 ──┤  submission      ┌────────────┐   one fused 3-round
//!     …       ├─ queue ────────▶ │ scheduler  │ ─ set_reachability_batch_with_stats ─▶
//!  client N ──┘  (bounded)       │  thread    │   per-client fan-out
//!                                └────────────┘
//!                 window: max_wait_us  │  cap: max_batch  │  flush()
//! ```
//!
//! * Clients first probe the result cache
//!   ([`QueryCache`](crate::cache::QueryCache)); **hits never touch
//!   the scheduler**. Misses enqueue a [`SigKey`]-keyed entry and block on
//!   a condvar-based completion handle (`Waiter`) — no async runtime,
//!   consistent with the std-only workspace.
//! * A dedicated scheduler thread drains the queue until a bounded window
//!   (`max_wait_us`) elapses, a size cap (`max_batch`) is reached, or a
//!   [`flush`](crate::QueryService::flush) arrives; re-probes the cache
//!   once per drained query (a concurrent execution may have answered it
//!   meanwhile); deduplicates identical signatures; executes all remaining
//!   misses from *all* clients as **one** fused batch over the shared
//!   transport; populates the cache; and fans the answers back out.
//! * Admission control bounds the number of in-flight queries: beyond a
//!   fixed depth, a submission blocks until a fused run answers queries
//!   and returns their slots, instead of piling up unboundedly.
//!
//! Groups submitted together (one [`QueryService::query_batch`] call) are
//! never split across formed batches — the cap is a forming *trigger*, not
//! a hard size limit — so a single-client batch still executes as exactly
//! one fused run and its reply stays deterministic.
//!
//! A formed batch whose execution panics (a bug: the engine re-throws a
//! slave's panic) fails every query of it that is still unanswered with
//! the typed [`ServiceError::Panicked`] and returns their admission; the
//! scheduler then serves the next batch.
//!
//! [`DsrEngine::set_reachability_batch_with_stats`]: dsr_core::DsrEngine::set_reachability_batch_with_stats
//! [`QueryService::query_batch`]: crate::QueryService::query_batch

use dsr_sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use dsr_sync::thread::JoinHandle;
use dsr_sync::{Arc, Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dsr_cluster::{CommStats, TransportError};
use dsr_core::{DsrEngine, SetQuery};

use crate::cache::{CachedPairs, InsertOutcome, SigKey};
use crate::service::Core;
use crate::snapshot::Generation;

/// Why the serving layer could not answer a query.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// The fused execution failed on the service transport (over the wire,
    /// a codec that refuses its own encoding). The error is `Arc`-shared
    /// because one failed round fails every query fused into it.
    Transport(Arc<TransportError>),
    /// The fused execution panicked — a bug, such as an index whose parts
    /// disagree. Carries the panic message, shared by every query fused
    /// into the run; the scheduler keeps serving other batches.
    Panicked(Arc<str>),
    /// A query asked to pin a generation
    /// ([`QueryOptions::pin`](crate::QueryOptions::pin)) that has already
    /// been reclaimed — its last `SnapshotRef` dropped. Take a fresh
    /// [`snapshot`](crate::QueryService::snapshot) and retry against it.
    GenerationReclaimed {
        /// The reclaimed generation the caller asked for.
        generation: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Transport(err) => write!(f, "fused batch execution failed: {err}"),
            ServiceError::Panicked(message) => {
                write!(f, "fused batch execution panicked: {message}")
            }
            ServiceError::GenerationReclaimed { generation } => write!(
                f,
                "generation {generation} has been reclaimed; pin a live snapshot instead"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Transport(err) => Some(err.as_ref()),
            _ => None,
        }
    }
}

struct WaitState {
    remaining: usize,
    slots: Vec<Option<CachedPairs>>,
    error: Option<ServiceError>,
}

/// Condvar-based completion handle for one submitted group: the scheduler
/// fulfills slots as answers materialize; the client blocks in
/// [`Waiter::wait`] until the whole group is answered or the fused run
/// failed.
pub(crate) struct Waiter {
    state: Mutex<WaitState>,
    ready: Condvar,
}

impl Waiter {
    pub(crate) fn new(slots: usize) -> Arc<Self> {
        Arc::new(Waiter {
            state: Mutex::new(WaitState {
                remaining: slots,
                slots: (0..slots).map(|_| None).collect(),
                error: None,
            }),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, slot: usize, value: CachedPairs) {
        let mut state = dsr_sync::lock(&self.state);
        debug_assert!(state.slots[slot].is_none(), "slot fulfilled twice");
        state.slots[slot] = Some(value);
        state.remaining -= 1;
        if state.remaining == 0 {
            self.ready.notify_all();
        }
    }

    fn fail(&self, error: ServiceError) {
        let mut state = dsr_sync::lock(&self.state);
        if state.error.is_none() {
            state.error = Some(error);
        }
        self.ready.notify_all();
    }

    /// Whether `slot` is neither answered nor failed with its group: such a
    /// slot still holds its admission.
    fn is_open(&self, slot: usize) -> bool {
        let state = dsr_sync::lock(&self.state);
        state.slots[slot].is_none() && state.error.is_none()
    }

    /// Blocks until every slot is fulfilled (returning them in submission
    /// order) or the group failed.
    pub(crate) fn wait(&self) -> Result<Vec<CachedPairs>, ServiceError> {
        let mut state = dsr_sync::lock(&self.state);
        loop {
            if let Some(error) = &state.error {
                return Err(error.clone());
            }
            if state.remaining == 0 {
                return Ok(state
                    .slots
                    .iter_mut()
                    .map(|slot| slot.take().expect("all slots fulfilled"))
                    .collect());
            }
            state = dsr_sync::wait(&self.ready, state);
        }
    }
}

/// One cache-missing query queued for fused execution.
pub(crate) struct Entry {
    pub(crate) key: SigKey,
    /// The generation this query executes against, captured at submission
    /// (the chain's latest for plain queries, the pinned generation for
    /// queries issued through a [`SnapshotRef`](crate::SnapshotRef)). The
    /// entry's clone keeps the generation — and its cache namespace —
    /// alive until the answer is fanned out.
    pub(crate) generation: Arc<Generation>,
    /// Whether this entry may be answered from and published to the cache
    /// (`QueryOptions::cache`; `false` bypasses both directions).
    pub(crate) cache: bool,
    pub(crate) waiter: Arc<Waiter>,
    pub(crate) slot: usize,
    pub(crate) enqueued: Instant,
}

pub(crate) enum Msg {
    /// An indivisible group of entries (one client call).
    Group(Vec<Entry>),
    /// Form and execute whatever is pending right now.
    Flush,
}

/// Counting semaphore bounding in-flight queries (submitted but not yet
/// answered). Plain mutex + condvar: the hot path is two uncontended lock
/// acquisitions per query, and waiting for room is the *slow* path by
/// definition.
pub(crate) struct Admission {
    limit: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
}

impl Admission {
    pub(crate) fn new(limit: usize) -> Self {
        Admission {
            limit: limit.max(1),
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Admits `n` queries, blocking until there is room. A group larger
    /// than the whole limit is admitted into an empty queue (otherwise it
    /// could never be admitted at all).
    pub(crate) fn acquire(&self, n: usize) {
        let mut in_flight = dsr_sync::lock(&self.in_flight);
        while *in_flight + n > self.limit && *in_flight > 0 {
            in_flight = dsr_sync::wait(&self.freed, in_flight);
        }
        *in_flight += n;
    }

    /// Returns `n` slots to the pool.
    pub(crate) fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut in_flight = dsr_sync::lock(&self.in_flight);
        *in_flight = in_flight.saturating_sub(n);
        drop(in_flight);
        self.freed.notify_all();
    }
}

/// Batch-forming parameters (the `max_batch` / `max_wait_us` knobs of
/// [`ServiceConfig`](crate::ServiceConfig)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatcherConfig {
    pub(crate) max_batch: usize,
    pub(crate) max_wait: Duration,
}

/// Owns the submission queue sender and the scheduler thread; dropping it
/// disconnects the queue and joins the scheduler (which first executes
/// anything still pending).
pub(crate) struct Batcher {
    tx: Option<Sender<Msg>>,
    scheduler: Option<JoinHandle<()>>,
}

impl Batcher {
    pub(crate) fn spawn(core: Arc<Core>, config: BatcherConfig) -> Self {
        let (tx, rx) = dsr_sync::mpsc::channel();
        let scheduler = dsr_sync::thread::Builder::new()
            .name("dsr-batch-former".into())
            .spawn(move || run_scheduler(&core, &rx, config))
            .expect("spawn batch-former scheduler");
        Batcher {
            tx: Some(tx),
            scheduler: Some(scheduler),
        }
    }

    fn send(&self, msg: Msg) {
        let sent = self
            .tx
            .as_ref()
            .expect("sender alive until drop")
            .send(msg)
            .is_ok();
        // The receiver only disappears when the scheduler thread died; the
        // join in Drop will propagate its panic, but a client thread
        // racing the teardown must not wait forever on a queue nobody
        // drains.
        assert!(sent, "batch-former scheduler is gone");
    }

    /// Enqueues an indivisible group of entries.
    pub(crate) fn submit(&self, entries: Vec<Entry>) {
        self.send(Msg::Group(entries));
    }

    /// Asks the scheduler to form and execute the pending batch now.
    pub(crate) fn flush(&self) {
        self.send(Msg::Flush);
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        drop(self.tx.take());
        // Already unwinding: a second panic from the join would abort the
        // process. The disconnected scheduler drains its queue and exits
        // on its own.
        if dsr_sync::thread::panicking() {
            return;
        }
        if let Some(scheduler) = self.scheduler.take() {
            if let Err(panic) = scheduler.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// The scheduler loop: block for the first submission, then drain until
/// the window elapses, the cap is reached, or a flush arrives — then
/// execute the formed batch and start over.
fn run_scheduler(core: &Core, rx: &Receiver<Msg>, config: BatcherConfig) {
    loop {
        let mut pending: Vec<Entry> = Vec::new();
        match rx.recv() {
            Ok(Msg::Group(entries)) => pending.extend(entries),
            Ok(Msg::Flush) => continue, // nothing pending to form
            Err(_) => return,           // service dropped, queue fully drained
        }
        let deadline = Instant::now() + config.max_wait;
        let mut disconnected = false;
        while pending.len() < config.max_batch {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match rx.recv_timeout(remaining) {
                Ok(Msg::Group(entries)) => pending.extend(entries),
                Ok(Msg::Flush) | Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        // Who to fail should the run panic: the entries move into it.
        let waiters: Vec<(Arc<Waiter>, usize)> = pending
            .iter()
            .map(|entry| (Arc::clone(&entry.waiter), entry.slot))
            .collect();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| execute_formed(core, pending))) {
            fail_open(core, &waiters, panic.as_ref());
        }
        if disconnected {
            return;
        }
    }
}

/// After a formed batch panicked: fails every slot of it that is still
/// open with [`ServiceError::Panicked`] and returns those slots'
/// admission. Nothing that can panic runs between answering or failing a
/// slot and returning its admission, so an open slot still holds its own.
fn fail_open(core: &Core, waiters: &[(Arc<Waiter>, usize)], panic: &(dyn std::any::Any + Send)) {
    let message: Arc<str> = match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
        (Some(message), _) => Arc::from(*message),
        (None, Some(message)) => Arc::from(message.as_str()),
        (None, None) => Arc::from("non-string panic payload"),
    };
    // Decide for every slot before failing any: failing a group closes
    // all of its slots.
    let open: Vec<&Arc<Waiter>> = waiters
        .iter()
        .filter(|(waiter, slot)| waiter.is_open(*slot))
        .map(|(waiter, _)| waiter)
        .collect();
    core.admission.release(open.len());
    for waiter in open {
        waiter.fail(ServiceError::Panicked(Arc::clone(&message)));
    }
}

/// The per-generation slice of one formed batch: every entry pinned to
/// `generation`, with its deduplicated miss signatures. Entries pinned to
/// different generations must execute against their own index, so each
/// distinct generation forms its own fused run.
struct GenGroup {
    generation: Arc<Generation>,
    misses: Vec<SigKey>,
    /// Per-miss: whether any contributing entry wants the result cached.
    cache_wanted: Vec<bool>,
    miss_index: HashMap<SigKey, usize>,
    executing: Vec<(Entry, usize)>,
}

/// Executes one formed batch: re-probe the cache, deduplicate per pinned
/// generation, run each generation's misses as a single fused protocol
/// batch over that generation's index, populate its cache namespace and
/// fan the answers out to the per-client completion handles.
fn execute_formed(core: &Core, entries: Vec<Entry>) {
    if entries.is_empty() {
        return;
    }
    let now = Instant::now();
    core.batch.record_formed(entries.len() as u64);
    for entry in &entries {
        core.batch
            .record_wait(now.saturating_duration_since(entry.enqueued).as_micros() as u64);
    }

    // Re-probe (a previous fused run may have answered the signature while
    // this one queued) and deduplicate identical signatures within each
    // generation. The re-probe is deliberately silent on CacheStats: the
    // client already recorded this lookup as a miss when it enqueued.
    let mut groups: Vec<GenGroup> = Vec::new();
    for entry in entries {
        if entry.cache {
            if let Some(hit) = core.cache.get(entry.generation.id(), &entry.key) {
                core.batch.record_late_hit();
                entry.waiter.fulfill(entry.slot, hit);
                core.admission.release(1);
                continue;
            }
        }
        // Mixed-generation batches are rare (a pinned analytical reader
        // racing fresh traffic), so a linear scan over the handful of
        // groups beats a map.
        let group = match groups
            .iter()
            .position(|group| group.generation.id() == entry.generation.id())
        {
            Some(group) => group,
            None => {
                groups.push(GenGroup {
                    generation: Arc::clone(&entry.generation),
                    misses: Vec::new(),
                    cache_wanted: Vec::new(),
                    miss_index: HashMap::new(),
                    executing: Vec::new(),
                });
                groups.len() - 1
            }
        };
        let group = &mut groups[group];
        let miss = match group.miss_index.get(&entry.key) {
            Some(&miss) => miss,
            None => {
                let miss = group.misses.len();
                group.miss_index.insert(entry.key.clone(), miss);
                group.misses.push(entry.key.clone());
                group.cache_wanted.push(false);
                miss
            }
        };
        group.cache_wanted[miss] |= entry.cache;
        group.executing.push((entry, miss));
    }
    for group in groups {
        execute_group(core, group);
    }
}

/// Runs one generation's fused batch and fans its answers out.
fn execute_group(core: &Core, group: GenGroup) {
    let GenGroup {
        generation,
        misses,
        cache_wanted,
        miss_index: _,
        executing,
    } = group;
    if misses.is_empty() {
        return;
    }
    let namespace = generation.id();
    let queries: Vec<SetQuery> = misses.iter().map(SigKey::to_query).collect();
    let stats = CommStats::new();
    let outcome = {
        let engine = DsrEngine::with_transport(generation.index(), &core.transport);
        engine.set_reachability_batch_with_stats(&queries, &stats)
        // `engine` drops here; the generation pins (this group's and each
        // entry's) are shed below before any waiter is woken, so an update
        // by a client observing its completion reclaims the superseded
        // generation at once instead of retaining it for the scheduler.
    };
    let released = executing.len();
    match outcome {
        Ok(results) => {
            let (rounds, messages, bytes) = stats.snapshot();
            core.comm.add(rounds, messages, bytes);
            core.batch.record_execution(misses.len() as u64, rounds);
            let values: Vec<CachedPairs> = results.into_iter().map(Arc::new).collect();
            for ((key, wanted), value) in misses.into_iter().zip(cache_wanted).zip(&values) {
                if !wanted {
                    continue;
                }
                let outcome = core.cache.insert_if_live(namespace, key, Arc::clone(value));
                if let InsertOutcome::Inserted { evicted: true } = outcome {
                    core.stats.record_eviction();
                }
            }
            // Free admission before waking anyone so an unblocked client
            // immediately finds room for its next query — but only *after*
            // the cache fill above, so a client admitted by the freed
            // capacity always finds the published results
            // (`model_release_happens_after_publish`).
            core.admission.release(released);
            // Shed every generation pin this run holds before the fan-out:
            // a woken client must never see them.
            let fanout: Vec<(Arc<Waiter>, usize, usize)> = executing
                .into_iter()
                .map(|(entry, miss)| (entry.waiter, entry.slot, miss))
                .collect();
            drop(generation);
            for (waiter, slot, miss) in fanout {
                waiter.fulfill(slot, Arc::clone(&values[miss]));
            }
        }
        Err(err) => {
            // One failed round fails every query fused into it; nothing is
            // cached from a failed batch.
            let err = Arc::new(err);
            core.admission.release(released);
            let fanout: Vec<Arc<Waiter>> = executing
                .into_iter()
                .map(|(entry, _)| entry.waiter)
                .collect();
            drop(generation);
            for waiter in fanout {
                waiter.fail(ServiceError::Transport(Arc::clone(&err)));
            }
        }
    }
}

/// Model checks of the submit → form → fan-out protocol. Under
/// `--cfg dsr_model` these explore every interleaving within the
/// preemption bound; in normal builds they run a single execution.
#[cfg(test)]
mod model_tests {
    use super::*;
    use crate::cache::QueryCache;
    use crate::snapshot::GenerationChain;
    use crate::stats::{BatchStats, CacheStats};
    use crate::QueryService;
    use dsr_cluster::{CommStats, DynTransport};
    use dsr_core::DsrIndex;
    use dsr_graph::DiGraph;
    use dsr_partition::Partitioning;
    use dsr_reach::LocalIndexKind;
    use dsr_sync::atomic::{AtomicUsize, Ordering};
    use dsr_sync::model::Model;

    /// A one-partition chain `0 -> 1 -> 2`: `SlavePool::run(1, ..)` takes
    /// the inline fast path, so no process-global (unscheduled) pool
    /// workers participate and every execution is fully model-controlled.
    fn single_partition_index() -> DsrIndex {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let p = Partitioning::new(vec![0, 0, 0], 1);
        DsrIndex::build(&g, p, LocalIndexKind::Dfs)
    }

    fn single_partition_core(limit: usize) -> Arc<Core> {
        core_over(single_partition_index(), limit)
    }

    fn core_over(index: DsrIndex, limit: usize) -> Arc<Core> {
        Arc::new(Core {
            generations: GenerationChain::new(Arc::new(index)),
            cache: QueryCache::new(8),
            transport: DynTransport::InProcess,
            admission: Admission::new(limit),
            stats: CacheStats::new(),
            comm: CommStats::new(),
            batch: BatchStats::new(),
        })
    }

    /// Admitted-but-unreleased queries.
    fn in_flight(core: &Core) -> usize {
        *dsr_sync::lock(&core.admission.in_flight)
    }

    /// A batcher whose forming window is far in the future: only a flush
    /// (or the size cap) forms a batch.
    fn flush_driven_batcher(core: &Arc<Core>) -> Batcher {
        Batcher::spawn(
            Arc::clone(core),
            BatcherConfig {
                max_batch: 64,
                max_wait: Duration::from_secs(10),
            },
        )
    }

    fn entry_for(
        generation: Arc<Generation>,
        key: SigKey,
        waiter: &Arc<Waiter>,
        slot: usize,
    ) -> Entry {
        Entry {
            key,
            generation,
            cache: true,
            waiter: Arc::clone(waiter),
            slot,
            enqueued: Instant::now(),
        }
    }

    /// A client admitted by the capacity an execution released must find
    /// that execution's results already published to the cache. Releasing
    /// before the cache fill fails this in some interleaving (the
    /// "Publish before release" row of `ci/mutation_checks.sh`).
    fn release_happens_after_publish() {
        let core = single_partition_core(1);
        let key = SigKey::new(&[0], &[2]);
        let namespace = core.generations.latest_id();
        core.admission.acquire(1);
        let blocked = {
            let core = Arc::clone(&core);
            let key = key.clone();
            dsr_sync::thread::spawn(move || {
                // Blocks until the fused execution below releases its slot.
                core.admission.acquire(1);
                let hit = core.cache.get(namespace, &key);
                core.admission.release(1);
                assert!(hit.is_some(), "admission freed before result was published");
            })
        };
        let waiter = Waiter::new(1);
        execute_formed(
            &core,
            vec![entry_for(core.generations.latest(), key, &waiter, 0)],
        );
        let answers = waiter.wait().expect("in-process execution succeeds");
        assert_eq!(*answers[0], vec![(0, 2)]);
        blocked.join().unwrap();
    }

    #[test]
    fn model_release_happens_after_publish() {
        Model::new()
            .check(release_happens_after_publish)
            .expect("publish-before-release must hold in every schedule");
    }

    /// A signature answered by a concurrent execution while queued is
    /// fulfilled by the scheduler's cache re-probe (a *late hit*) without
    /// an execution, and its admission slot is returned.
    fn late_hit_skips_execution() {
        let core = single_partition_core(4);
        let key = SigKey::new(&[0], &[1]);
        core.cache.insert_if_live(
            core.generations.latest_id(),
            key.clone(),
            Arc::new(vec![(0, 1)]),
        );
        core.admission.acquire(1);
        let waiter = Waiter::new(1);
        execute_formed(
            &core,
            vec![entry_for(core.generations.latest(), key, &waiter, 0)],
        );
        let answers = waiter.wait().expect("late hit fulfills the waiter");
        assert_eq!(*answers[0], vec![(0, 1)]);
        assert_eq!(core.batch.executed(), 0, "a late hit executes nothing");
        assert_eq!(in_flight(&core), 0, "the slot came back");
    }

    #[test]
    fn model_late_hit_skips_execution() {
        Model::new()
            .check(late_hit_skips_execution)
            .expect("late-hit fan-out must hold in every schedule");
    }

    /// Admission is a counting semaphore: under concurrent blocking
    /// acquires, the number of admitted-but-unreleased queries never
    /// exceeds the limit in any interleaving.
    fn admission_never_exceeds_limit() {
        let admission = Arc::new(Admission::new(1));
        let admitted = Arc::new(AtomicUsize::new(0));
        let contender = {
            let admission = Arc::clone(&admission);
            let admitted = Arc::clone(&admitted);
            dsr_sync::thread::spawn(move || {
                admission.acquire(1);
                let concurrent = admitted.fetch_add(1, Ordering::SeqCst);
                assert_eq!(concurrent, 0, "admission limit 1 exceeded");
                admitted.fetch_sub(1, Ordering::SeqCst);
                admission.release(1);
            })
        };
        admission.acquire(1);
        let concurrent = admitted.fetch_add(1, Ordering::SeqCst);
        assert_eq!(concurrent, 0, "admission limit 1 exceeded");
        admitted.fetch_sub(1, Ordering::SeqCst);
        admission.release(1);
        contender.join().unwrap();
    }

    #[test]
    fn model_admission_never_exceeds_limit() {
        Model::new()
            .check(admission_never_exceeds_limit)
            .expect("the admission semaphore must never over-admit");
    }

    /// Completing a run returns its admission: with a limit of one, two
    /// sequential submissions through a real [`Batcher`] both complete. A
    /// run that kept its slot would block the second admission for ever —
    /// a deadlock the model checker reports.
    fn completion_returns_admission() {
        let core = single_partition_core(1);
        let batcher = flush_driven_batcher(&core);
        for (source, target, expected) in [(0, 2, vec![(0, 2)]), (2, 0, vec![])] {
            core.admission.acquire(1);
            let waiter = Waiter::new(1);
            batcher.submit(vec![entry_for(
                core.generations.latest(),
                SigKey::new(&[source], &[target]),
                &waiter,
                0,
            )]);
            batcher.flush();
            let answers = waiter.wait().expect("fused execution succeeds");
            assert_eq!(*answers[0], expected);
        }
        drop(batcher);
    }

    #[test]
    fn model_completion_returns_admission() {
        Model::new()
            .max_schedules(512)
            .check(completion_returns_admission)
            .expect("a completed run must return its admission in every schedule");
    }

    /// A formed batch whose execution panics fails its open slot with
    /// [`ServiceError::Panicked`] and returns that slot's admission.
    #[test]
    fn a_panicking_run_returns_the_admission_of_its_open_slots() {
        // An index whose parts disagree: step 1 indexes past the end of
        // the missing compound graph.
        let mut broken = single_partition_index();
        broken.compounds.pop();
        let core = core_over(broken, 1);
        let batcher = flush_driven_batcher(&core);
        core.admission.acquire(1);
        let waiter = Waiter::new(1);
        batcher.submit(vec![entry_for(
            core.generations.latest(),
            SigKey::new(&[0], &[2]),
            &waiter,
            0,
        )]);
        batcher.flush();
        match waiter.wait() {
            Err(ServiceError::Panicked(message)) => {
                assert!(message.contains("index out of bounds"), "{message}");
            }
            other => panic!("expected a typed panic error, got {other:?}"),
        }
        assert_eq!(in_flight(&core), 0, "the open slot's admission came back");
        drop(batcher); // the scheduler survived the panic and joins
    }

    /// End-to-end submit → form → fan-out through a real [`Batcher`] whose
    /// scheduler thread runs as a model thread: the batch window is far in
    /// the future, so completion proves the flush/drain wakeups (not the
    /// timeout) drive the fan-out.
    fn batcher_forms_and_fans_out() {
        let core = single_partition_core(4);
        let batcher = flush_driven_batcher(&core);
        core.admission.acquire(2);
        let waiter = Waiter::new(2);
        batcher.submit(vec![
            entry_for(
                core.generations.latest(),
                SigKey::new(&[0], &[2]),
                &waiter,
                0,
            ),
            entry_for(
                core.generations.latest(),
                SigKey::new(&[2], &[0]),
                &waiter,
                1,
            ),
        ]);
        batcher.flush();
        let answers = waiter.wait().expect("fused execution succeeds");
        assert_eq!(*answers[0], vec![(0, 2)], "0 reaches 2 along the chain");
        assert!(answers[1].is_empty(), "2 does not reach 0");
        drop(batcher); // disconnects the queue and joins the scheduler
    }

    #[test]
    fn model_batcher_forms_and_fans_out() {
        Model::new()
            .max_schedules(512)
            .check(batcher_forms_and_fans_out)
            .expect("submit/form/fan-out must hold in every explored schedule");
    }

    /// The public service front end survives a model run end to end:
    /// cached hit, miss, flush and shutdown all inside the scheduler.
    fn service_round_trip() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let p = Partitioning::new(vec![0, 0, 0], 1);
        let service = QueryService::new(Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs)));
        assert_eq!(*service.query(&[0], &[2]), vec![(0, 2)]);
        assert_eq!(*service.query(&[0], &[2]), vec![(0, 2)]);
        assert_eq!(service.cache_stats().hits(), 1, "second ask is a cache hit");
    }

    #[test]
    fn model_service_round_trip() {
        Model::new()
            .max_schedules(256)
            .check(service_round_trip)
            .expect("the service front end must hold in every explored schedule");
    }
}
