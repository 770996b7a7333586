//! The batch-forming front end: fuse concurrent clients into shared
//! protocol rounds.
//!
//! The paper's central serving win is that a batched set-reachability
//! execution costs **3 communication rounds regardless of batch size**
//! ([`DsrEngine::set_reachability_batch_with_stats`]). Running each
//! client's queries as its own private batch throws that away: 64
//! concurrent clients pay 64 separate 3-round executions. This module is an inference-server-style
//! batch former that recovers the multiplier *across* clients, run by the
//! clients that wait on it (leader/follower group commit, no thread of
//! its own):
//!
//! ```text
//!  client 1 ──┐ (cache miss)
//!  client 2 ──┤  queue ──▶ the first waiter whose answer is not in leads:
//!     …       │            window (lone miss) ─▶ drain ─▶ one fused 3-round
//!  client N ──┘            set_reachability_batch_with_stats ─▶ fan-out
//!                          the others wait; the next queued owner leads next
//! ```
//!
//! * Clients first probe the result cache
//!   ([`QueryCache`](crate::cache::QueryCache)); **hits never touch
//!   the former**. Misses queue a [`SigKey`]-keyed entry under
//!   [`Admission`]'s lock — no async runtime, consistent with the std-only
//!   workspace.
//! * A client that waits for an answer that is not in yet, while no one
//!   leads and the queue is non-empty, **leads** one fused run: a lone
//!   miss first waits out the forming window ([`FORMING_WINDOW`]) for
//!   company, a [`QueryService::query_batch`] group does not. The leader
//!   drains the whole queue; re-probes the cache once per drained query (a
//!   previous run may have answered it meanwhile); deduplicates identical
//!   signatures; executes all remaining misses from *all* clients as
//!   **one** fused batch over the shared transport; populates the cache;
//!   and fans the answers back out. Then it steps down and wakes the
//!   others, so the owner of an entry that queued during the run leads
//!   next. Runs are serialized.
//! * Admission control bounds the number of in-flight queries: beyond a
//!   fixed depth, a submission waits until a fused run answers queries and
//!   returns their slots — and leads the queued run itself when no one
//!   else does, so a client that submits more than the depth before it
//!   waits still gets every answer. The depth also bounds a formed batch.
//!
//! A [`QueryService::query_batch`] group is queued as a whole, so it is
//! never split across formed batches: a single-client batch executes as
//! exactly one fused run and its reply stays deterministic.
//!
//! A formed batch whose execution panics (a bug: the engine re-throws a
//! slave's panic) fails every query of it that is still unanswered with
//! the typed [`ServiceError::Panicked`] and returns their admission; the
//! next leader then serves the next batch.
//!
//! [`DsrEngine::set_reachability_batch_with_stats`]: dsr_core::DsrEngine::set_reachability_batch_with_stats
//! [`QueryService::query_batch`]: crate::QueryService::query_batch

use dsr_sync::{Arc, Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dsr_cluster::{CommStats, TransportError};
use dsr_core::{DsrEngine, SetQuery};

use crate::cache::{CachedPairs, InsertOutcome, SigKey};
use crate::service::Core;
use crate::snapshot::Generation;

/// How long a leader for a lone miss waits for other clients' misses to
/// fuse with before it drains the queue.
const FORMING_WINDOW: Duration = Duration::from_micros(200);

/// Why the serving layer could not answer a query.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// The fused execution failed on the service transport (over the wire,
    /// a codec that refuses its own encoding). The error is `Arc`-shared
    /// because one failed round fails every query fused into it.
    Transport(Arc<TransportError>),
    /// The fused execution panicked — a bug, such as an index whose parts
    /// disagree. Carries the panic message, shared by every query fused
    /// into the run; later runs are served as before.
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

/// Completion record of one submitted group: the leader of its run fills
/// slots as answers materialize; the client collects them with [`wait`].
pub(crate) struct Waiter {
    state: Mutex<WaitState>,
}

impl Waiter {
    pub(crate) fn new(slots: usize) -> Arc<Self> {
        Arc::new(Waiter {
            state: Mutex::new(WaitState {
                remaining: slots,
                slots: (0..slots).map(|_| None).collect(),
                error: None,
            }),
        })
    }

    fn fulfill(&self, slot: usize, value: CachedPairs) {
        let mut state = dsr_sync::lock(&self.state);
        debug_assert!(state.slots[slot].is_none(), "slot fulfilled twice");
        state.slots[slot] = Some(value);
        state.remaining -= 1;
    }

    fn fail(&self, error: ServiceError) {
        let mut state = dsr_sync::lock(&self.state);
        if state.error.is_none() {
            state.error = Some(error);
        }
    }

    /// Whether `slot` is neither answered nor failed with its group: such a
    /// slot still holds its admission.
    fn is_open(&self, slot: usize) -> bool {
        let state = dsr_sync::lock(&self.state);
        state.slots[slot].is_none() && state.error.is_none()
    }

    /// The group's answers in submission order once every slot is
    /// fulfilled, its error once it failed, `None` before either.
    fn outcome(&self) -> Option<Result<Vec<CachedPairs>, ServiceError>> {
        let mut state = dsr_sync::lock(&self.state);
        if let Some(error) = &state.error {
            return Some(Err(error.clone()));
        }
        (state.remaining == 0).then(|| {
            Ok(state
                .slots
                .iter_mut()
                .map(|slot| slot.take().expect("all slots fulfilled"))
                .collect())
        })
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

/// What [`Admission`]'s lock guards.
struct Forming {
    /// Admitted misses no run has drained yet.
    queue: Vec<Entry>,
    /// Whether a client is leading a fused run right now.
    leading: bool,
    /// Admitted queries not yet answered: the queue plus the unanswered
    /// entries of the run in progress.
    in_flight: usize,
}

/// The batch former's one lock and one condvar: the queue of admitted
/// misses, who leads, and a counting semaphore bounding in-flight queries
/// (submitted but not yet answered). Every client that blocks — for room
/// or for an answer — blocks on `turn`, so a run's end and a slot's return
/// reach all of them.
pub(crate) struct Admission {
    limit: usize,
    state: Mutex<Forming>,
    turn: Condvar,
}

impl Admission {
    pub(crate) fn new(limit: usize) -> Self {
        Admission {
            limit: limit.max(1),
            state: Mutex::new(Forming {
                queue: Vec::new(),
                leading: false,
                in_flight: 0,
            }),
            turn: Condvar::new(),
        }
    }

    /// Returns `n` slots to the pool.
    pub(crate) fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut state = dsr_sync::lock(&self.state);
        // An over-release is a bug that debug and model builds report; a
        // release build saturates instead of wrapping the count.
        debug_assert!(
            n <= state.in_flight,
            "admission over-released: {n} slots returned, {} in flight",
            state.in_flight
        );
        state.in_flight = state.in_flight.saturating_sub(n);
        drop(state);
        self.turn.notify_all();
    }
}

/// Admits an indivisible group of entries and queues it, blocking until
/// there is room. A group larger than the whole limit is admitted when
/// nothing else is in flight (otherwise it could never be admitted at
/// all). While it blocks, the caller leads the queued run whenever no one
/// else does: the queue may hold its own earlier, not yet waited-on
/// tickets.
pub(crate) fn submit(core: &Core, entries: Vec<Entry>) {
    let admission = &core.admission;
    let n = entries.len();
    let mut state = dsr_sync::lock(&admission.state);
    while state.in_flight + n > admission.limit && state.in_flight > 0 {
        state = lead_or_wait(core, state, false);
    }
    state.in_flight += n;
    state.queue.extend(entries);
}

/// Blocks until `waiter`'s group is answered (its slots in submission
/// order) or failed. `window`: whether a run this caller leads first waits
/// out [`FORMING_WINDOW`].
pub(crate) fn wait(
    core: &Core,
    waiter: &Waiter,
    window: bool,
) -> Result<Vec<CachedPairs>, ServiceError> {
    let mut state = dsr_sync::lock(&core.admission.state);
    loop {
        if let Some(outcome) = waiter.outcome() {
            return outcome;
        }
        state = lead_or_wait(core, state, window);
    }
}

/// One step of blocking, the same for every blocked client: lead the
/// queued run if no one leads, else sleep until a run ends or a slot
/// returns.
fn lead_or_wait<'a>(
    core: &'a Core,
    state: MutexGuard<'a, Forming>,
    window: bool,
) -> MutexGuard<'a, Forming> {
    if !state.leading && !state.queue.is_empty() {
        lead(core, state, window)
    } else {
        dsr_sync::wait(&core.admission.turn, state)
    }
}

/// Leads one fused run: waits out the forming window if asked, drains the
/// queue, executes it outside the lock, then steps down and wakes every
/// blocked client — the owner of an entry that queued meanwhile leads
/// next.
fn lead<'a>(
    core: &'a Core,
    mut state: MutexGuard<'a, Forming>,
    window: bool,
) -> MutexGuard<'a, Forming> {
    let admission = &core.admission;
    state.leading = true;
    if window {
        drop(state);
        dsr_sync::thread::sleep(FORMING_WINDOW);
        state = dsr_sync::lock(&admission.state);
    }
    let formed = std::mem::take(&mut state.queue);
    drop(state);
    // Who to fail should the run panic: the entries move into it.
    let waiters: Vec<(Arc<Waiter>, usize)> = formed
        .iter()
        .map(|entry| (Arc::clone(&entry.waiter), entry.slot))
        .collect();
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| execute_formed(core, formed))) {
        fail_open(core, &waiters, panic.as_ref());
    }
    let mut state = dsr_sync::lock(&admission.state);
    state.leading = false;
    admission.turn.notify_all();
    state
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
        // generation at once instead of retaining it for the leader's run.
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

/// Model checks of the submit → lead → fan-out protocol. Under
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

    /// Admitted-but-unanswered queries.
    fn in_flight(core: &Core) -> usize {
        dsr_sync::lock(&core.admission.state).in_flight
    }

    /// Submits `S ; T` against the latest generation as a one-entry group
    /// and returns its completion record.
    fn submit_one(core: &Core, source: u32, target: u32) -> Arc<Waiter> {
        let waiter = Waiter::new(1);
        submit(
            core,
            vec![entry_for(
                core.generations.latest(),
                SigKey::new(&[source], &[target]),
                &waiter,
                0,
            )],
        );
        waiter
    }

    /// Waits for a one-entry group as a single-query ticket does (leading
    /// with the forming window) and returns its answer.
    fn answer(core: &Core, waiter: &Waiter) -> CachedPairs {
        let mut answers = wait(core, waiter, true).expect("in-process execution succeeds");
        answers.pop().expect("one slot")
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
        let namespace = core.generations.latest_id();
        let first = submit_one(&core, 0, 2);
        let blocked = {
            let core = Arc::clone(&core);
            dsr_sync::thread::spawn(move || {
                // Blocks until the run of `0 ; 2` returns its slot (or
                // leads that run itself).
                let own = submit_one(&core, 2, 0);
                let hit = core.cache.get(namespace, &SigKey::new(&[0], &[2]));
                assert!(hit.is_some(), "admission freed before result was published");
                assert!(answer(&core, &own).is_empty(), "2 does not reach 0");
            })
        };
        assert_eq!(*answer(&core, &first), vec![(0, 2)]);
        blocked.join().unwrap();
    }

    #[test]
    fn model_release_happens_after_publish() {
        Model::new()
            .max_schedules(2048)
            .check(release_happens_after_publish)
            .expect("publish-before-release must hold in every schedule");
    }

    /// A signature answered by a previous run while queued is fulfilled by
    /// the leader's cache re-probe (a *late hit*) without an execution, and
    /// its admission slot is returned.
    fn late_hit_skips_execution() {
        let core = single_partition_core(4);
        let waiter = submit_one(&core, 0, 1);
        core.cache.insert_if_live(
            core.generations.latest_id(),
            SigKey::new(&[0], &[1]),
            Arc::new(vec![(0, 1)]),
        );
        assert_eq!(*answer(&core, &waiter), vec![(0, 1)]);
        assert_eq!(core.batch.executed(), 0, "a late hit executes nothing");
        assert_eq!(core.batch.late_hits(), 1);
        assert_eq!(in_flight(&core), 0, "the slot came back");
    }

    #[test]
    fn model_late_hit_skips_execution() {
        Model::new()
            .check(late_hit_skips_execution)
            .expect("late-hit fan-out must hold in every schedule");
    }

    /// Admission is a counting semaphore: two clients at a limit of one
    /// never find more than one admitted-but-unanswered query, in any
    /// interleaving, and both are answered.
    fn admission_never_exceeds_limit() {
        let core = single_partition_core(1);
        let contender = {
            let core = Arc::clone(&core);
            dsr_sync::thread::spawn(move || {
                let waiter = submit_one(&core, 1, 2);
                assert!(in_flight(&core) <= 1, "admission limit 1 exceeded");
                assert_eq!(*answer(&core, &waiter), vec![(1, 2)]);
            })
        };
        let waiter = submit_one(&core, 0, 2);
        assert!(in_flight(&core) <= 1, "admission limit 1 exceeded");
        assert_eq!(*answer(&core, &waiter), vec![(0, 2)]);
        contender.join().unwrap();
        assert_eq!(in_flight(&core), 0);
    }

    #[test]
    fn model_admission_never_exceeds_limit() {
        Model::new()
            .max_schedules(2048)
            .check(admission_never_exceeds_limit)
            .expect("the admission semaphore must never over-admit");
    }

    /// Completing a run returns its admission: with a limit of one, two
    /// sequential submissions both complete. A run that kept its slot would
    /// block the second admission for ever, with nothing queued to lead —
    /// a deadlock the model checker reports (the "Admission release" row of
    /// `ci/mutation_checks.sh`).
    fn completion_returns_admission() {
        let core = single_partition_core(1);
        for (source, target, expected) in [(0, 2, vec![(0, 2)]), (2, 0, vec![])] {
            let waiter = submit_one(&core, source, target);
            assert_eq!(*answer(&core, &waiter), expected);
        }
        assert_eq!(in_flight(&core), 0);
    }

    #[test]
    fn model_completion_returns_admission() {
        Model::new()
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
        let waiter = submit_one(&core, 0, 2);
        match wait(&core, &waiter, true) {
            Err(ServiceError::Panicked(message)) => {
                assert!(message.contains("index out of bounds"), "{message}");
            }
            other => panic!("expected a typed panic error, got {other:?}"),
        }
        assert_eq!(in_flight(&core), 0, "the open slot's admission came back");
        // The next leader serves again.
        let waiter = submit_one(&core, 0, 2);
        assert!(
            wait(&core, &waiter, true).is_err(),
            "still the broken index"
        );
        assert_eq!(in_flight(&core), 0);
    }

    /// Submit → lead → fan-out of one indivisible group: both slots are
    /// answered in submission order by one formed batch.
    fn batcher_forms_and_fans_out() {
        let core = single_partition_core(4);
        let waiter = Waiter::new(2);
        submit(
            &core,
            vec![
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
            ],
        );
        let answers = wait(&core, &waiter, false).expect("fused execution succeeds");
        assert_eq!(*answers[0], vec![(0, 2)], "0 reaches 2 along the chain");
        assert!(answers[1].is_empty(), "2 does not reach 0");
        assert_eq!(core.batch.batches(), 1, "one formed batch");
    }

    #[test]
    fn model_batcher_forms_and_fans_out() {
        Model::new()
            .check(batcher_forms_and_fans_out)
            .expect("submit/form/fan-out must hold in every explored schedule");
    }

    /// A leader hands over: a second client's miss that queues while a run
    /// is in flight is led by its own owner once the run ends, in every
    /// schedule. A leader that steps down without waking the others
    /// strands it — a model deadlock (the "Leader handoff" row of
    /// `ci/mutation_checks.sh`).
    fn handoff_never_strands_a_queued_miss() {
        let core = single_partition_core(4);
        let second = {
            let core = Arc::clone(&core);
            dsr_sync::thread::spawn(move || {
                let waiter = submit_one(&core, 1, 2);
                assert_eq!(*answer(&core, &waiter), vec![(1, 2)]);
            })
        };
        let waiter = submit_one(&core, 0, 2);
        assert_eq!(*answer(&core, &waiter), vec![(0, 2)]);
        second.join().unwrap();
        assert_eq!(in_flight(&core), 0);
    }

    #[test]
    fn model_handoff_never_strands_a_queued_miss() {
        Model::new()
            .max_schedules(2048)
            .check(handoff_never_strands_a_queued_miss)
            .expect("a queued miss must be led in every schedule");
    }

    /// The same handoff when the queued miss belongs to a submitter blocked
    /// on admission: at a limit of one, a client queues `1 ; 2` and then
    /// blocks submitting `2 ; 0` while another client's run is in flight.
    /// It must lead its own queued miss once that run ends, in every
    /// schedule.
    fn blocked_submitter_leads_its_queued_miss() {
        let core = single_partition_core(1);
        let first = submit_one(&core, 0, 2);
        let second = {
            let core = Arc::clone(&core);
            dsr_sync::thread::spawn(move || {
                let queued = submit_one(&core, 1, 2);
                let blocked = submit_one(&core, 2, 0);
                assert_eq!(*answer(&core, &queued), vec![(1, 2)]);
                assert!(answer(&core, &blocked).is_empty());
            })
        };
        assert_eq!(*answer(&core, &first), vec![(0, 2)]);
        second.join().unwrap();
        assert_eq!(in_flight(&core), 0);
    }

    #[test]
    fn model_blocked_submitter_leads_its_queued_miss() {
        Model::new()
            .max_schedules(2048)
            .check(blocked_submitter_leads_its_queued_miss)
            .expect("a blocked submitter must lead its queued miss in every schedule");
    }

    /// The public service front end survives a model run end to end:
    /// cached hit, miss and a led run inside the model.
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
            .check(service_round_trip)
            .expect("the service front end must hold in every explored schedule");
    }
}
