//! The generation chain: MVCC snapshots of the installed index.
//!
//! The serving layer's index lives in a [`GenerationChain`]: every install
//! — of a rebuilt index or of an updated fork — produces a numbered,
//! immutable [`Generation`] wrapping an `Arc<DsrIndex>`. The *latest*
//! generation answers the default query paths; **pinned** readers (the
//! service's `SnapshotRef`) hold an `Arc<Generation>` of whatever generation
//! was latest when they pinned, so long analytical scans keep a consistent
//! view while the live index advances underneath them:
//!
//! ```text
//!   install/update        install/update
//!  gen 0 ──────────▶ gen 1 ──────────▶ gen 2   (latest, serves query())
//!    │                 │
//!    └─ reclaimed      └─ retained: 2 pinned SnapshotRefs
//!       (no pins)         reclaimed when the last pin drops
//! ```
//!
//! Old generations are *retained* while pinned and *reclaimed* — together
//! with their cache namespace (see [`QueryCache`](crate::cache::QueryCache))
//! — when the last pin drops; [`GenerationChain::retained`] is the gauge
//! the mixed-tenant bench reports. Reclamation is reference-count exact: a
//! generation's only non-pin owner is the chain, so a registry entry with
//! no outside `Arc` clones is provably unobservable and safe to drop.
//!
//! A generation is immutable from [`GenerationChain::install`] to
//! reclamation. `install` is the only producer of generations after
//! generation 0: the service applies an update batch to a fork of the latest
//! index and installs the fork like any rebuilt index. The latest generation
//! sits in one `Mutex<Arc<Generation>>` that is held for an `Arc` clone (a
//! read) or an `Arc` store (an install) and never across caller code, so
//! readers do not wait for an update.
//!
//! Readers racing an install may observe the old or the new generation —
//! that is the documented snapshot semantics of the service; cache
//! correctness is guaranteed by the per-generation namespaces of
//! [`QueryCache`](crate::cache::QueryCache).

use dsr_sync::atomic::{AtomicU64, Ordering};
use dsr_sync::{Arc, Mutex, MutexGuard};

use dsr_core::DsrIndex;

/// Monotonic identifier of one generation of the served index.
/// Generation 0 is the index the chain was created over; every install
/// takes the next id. Ids are never reused, so a reclaimed generation's id
/// stays a valid "this snapshot is gone" token.
pub type GenerationId = u64;

/// One numbered, immutable snapshot of the served index.
///
/// A generation is created by [`GenerationChain::install`] and never
/// mutated afterwards. Holding an `Arc<Generation>` **pins** it: the chain
/// retains pinned generations and reclaims them when the last pin drops.
pub(crate) struct Generation {
    id: GenerationId,
    index: Arc<DsrIndex>,
}

impl std::fmt::Debug for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generation").field("id", &self.id).finish()
    }
}

impl Generation {
    /// This generation's chain-unique id.
    pub fn id(&self) -> GenerationId {
        self.id
    }

    /// The immutable index this generation serves.
    pub fn index(&self) -> &Arc<DsrIndex> {
        &self.index
    }
}

/// The MVCC spine of the service: the latest [`Generation`] plus a registry
/// of retained (superseded but still pinned) generations.
///
/// See the [module docs](self) for the lifecycle diagram. The chain owns
/// reclamation ([`GenerationChain::reap`]) and the retained/created/
/// reclaimed gauges; cache-namespace reclamation is driven by the caller
/// from `reap`'s return value, keeping this type free of cache knowledge.
pub(crate) struct GenerationChain {
    /// The latest generation — the target of every unpinned read.
    latest: Mutex<Arc<Generation>>,
    /// `latest`'s id, stored under its lock: lets a reader that already
    /// holds a generation ask "is mine still the latest?" without taking
    /// the lock again.
    latest_id: AtomicU64,
    /// Superseded generations still retained, ascending by id. The latest
    /// generation is *not* in here: a registry entry whose `Arc` has no
    /// other owners is therefore provably unpinned and reclaimable.
    /// Locked before `latest` by [`install`](GenerationChain::install), so
    /// a superseded generation is in here by the time readers can no longer
    /// reach it through `latest`.
    registry: Mutex<Vec<Arc<Generation>>>,
    /// Serializes whole update operations (fork → apply → install) so two
    /// concurrent updates cannot both fork the same parent and silently
    /// lose one batch. Held via [`GenerationChain::lock_updates`]
    /// across the service's update entry points; never held by readers.
    update_lock: Mutex<()>,
    /// The next generation id == number of generations ever created.
    next_id: AtomicU64,
    /// Generations reclaimed so far (gauge: retained = created − reclaimed
    /// − 1 latest).
    reclaimed: AtomicU64,
}

impl GenerationChain {
    /// Creates a chain whose generation 0 serves `index`.
    pub fn new(index: Arc<DsrIndex>) -> Self {
        GenerationChain {
            latest: Mutex::new(Arc::new(Generation { id: 0, index })),
            latest_id: AtomicU64::new(0),
            registry: Mutex::new(Vec::new()),
            update_lock: Mutex::new(()),
            next_id: AtomicU64::new(1),
            reclaimed: AtomicU64::new(0),
        }
    }

    /// The latest generation. Holding the returned `Arc` pins it.
    pub fn latest(&self) -> Arc<Generation> {
        Arc::clone(&dsr_sync::lock(&self.latest))
    }

    /// Looks up a retained (or latest) generation by id; `None` once it
    /// has been reclaimed.
    pub fn lookup(&self, id: GenerationId) -> Option<Arc<Generation>> {
        let latest = self.latest();
        if latest.id == id {
            return Some(latest);
        }
        dsr_sync::lock(&self.registry)
            .iter()
            .find(|generation| generation.id == id)
            .map(Arc::clone)
    }

    /// Serializes update operations end to end (fork, apply, install).
    /// Readers never take this lock.
    pub fn lock_updates(&self) -> MutexGuard<'_, ()> {
        dsr_sync::lock(&self.update_lock)
    }

    /// Installs `index` as a fresh generation, retaining the superseded
    /// one until its pins drop. Returns the new generation.
    pub fn install(&self, index: Arc<DsrIndex>) -> Arc<Generation> {
        let generation = Arc::new(Generation {
            id: self.next_id.fetch_add(1, Ordering::SeqCst),
            index,
        });
        let mut registry = dsr_sync::lock(&self.registry);
        let mut latest = dsr_sync::lock(&self.latest);
        registry.push(std::mem::replace(&mut *latest, Arc::clone(&generation)));
        self.latest_id.store(generation.id, Ordering::SeqCst);
        generation
    }

    /// Reclaims every retained generation whose last pin has dropped,
    /// returning their ids (the caller retires the matching cache
    /// namespaces). A registry entry with `strong_count == 1` is owned by
    /// the registry alone — no pin can reappear while the registry lock is
    /// held, so the drop is exact, not heuristic.
    pub fn reap(&self) -> Vec<GenerationId> {
        let mut registry = dsr_sync::lock(&self.registry);
        let mut reclaimed = Vec::new();
        registry.retain(|generation| {
            if Arc::strong_count(generation) > 1 {
                return true;
            }
            reclaimed.push(generation.id);
            false
        });
        self.reclaimed
            .fetch_add(reclaimed.len() as u64, Ordering::SeqCst);
        reclaimed
    }

    /// The latest generation's id.
    pub fn latest_id(&self) -> GenerationId {
        self.latest_id.load(Ordering::SeqCst)
    }

    /// Gauge: generations currently alive (retained + the latest).
    pub fn retained(&self) -> usize {
        dsr_sync::lock(&self.registry).len() + 1
    }

    /// Generations ever created (including generation 0).
    pub fn created(&self) -> u64 {
        self.next_id.load(Ordering::SeqCst)
    }

    /// Generations reclaimed so far.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for GenerationChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerationChain")
            .field("latest", &self.latest_id())
            .field("retained", &self.retained())
            .field("created", &self.created())
            .field("reclaimed", &self.reclaimed())
            .finish()
    }
}

/// Test support: an index over `n` isolated vertices in one partition. One
/// partition keeps `SlavePool::run` on its inline fast path, so a model
/// execution that builds, forks or updates one stays fully model-controlled.
#[cfg(test)]
pub(crate) fn one_partition_index(n: usize) -> Arc<DsrIndex> {
    let graph = dsr_graph::DiGraph::from_edges(n, &[]);
    let partitioning = dsr_partition::Partitioning::new(vec![0; n], 1);
    let kind = dsr_reach::LocalIndexKind::Dfs;
    Arc::new(DsrIndex::build(&graph, partitioning, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_graph::DiGraph;
    use dsr_partition::Partitioning;
    use dsr_reach::LocalIndexKind;

    fn chain_index() -> Arc<DsrIndex> {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        Arc::new(DsrIndex::build(&g, p, LocalIndexKind::Dfs))
    }

    /// An index over `marker + 1` vertices: the vertex count is the marker
    /// the torn-read checks compare with the generation id.
    fn marked_index(marker: u64) -> Arc<DsrIndex> {
        one_partition_index(marker as usize + 1)
    }

    /// Id and index of a generation were created together.
    fn assert_not_torn(generation: &Generation) {
        assert_eq!(
            generation.index().partitioning.num_vertices() as u64,
            generation.id() + 1,
            "torn generation observed"
        );
    }

    #[test]
    fn read_returns_installed_snapshot() {
        let first = chain_index();
        let chain = GenerationChain::new(Arc::clone(&first));
        assert!(Arc::ptr_eq(chain.latest().index(), &first));
        let second = chain_index();
        chain.install(Arc::clone(&second));
        assert!(Arc::ptr_eq(chain.latest().index(), &second));
    }

    #[test]
    fn install_is_visible_to_every_thread() {
        let chain = Arc::new(GenerationChain::new(chain_index()));
        chain.install(chain_index());
        // Many fresh threads; all must see the install.
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let chain = Arc::clone(&chain);
                dsr_sync::thread::spawn(move || (chain.latest().id(), chain.latest_id()))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), (1, 1));
        }
    }

    /// Model checks of the chain's read / install / reap protocol. Under
    /// `--cfg dsr_model` these explore every interleaving within the
    /// preemption bound; in normal builds they degrade to a single smoke
    /// execution.
    mod model_protocol {
        use super::*;
        use dsr_sync::model::Model;

        /// A reader racing an install sees the old or the new generation as
        /// a unit — never the id of one with the index of the other — in
        /// *every* interleaving.
        #[test]
        fn model_swap_read_never_torn() {
            Model::new()
                .check(|| {
                    let chain = Arc::new(GenerationChain::new(marked_index(0)));
                    let writer = {
                        let chain = Arc::clone(&chain);
                        dsr_sync::thread::spawn(move || {
                            chain.install(marked_index(1));
                        })
                    };
                    assert_not_torn(&chain.latest());
                    writer.join().unwrap();
                    let after = chain.latest();
                    assert_eq!(after.id(), 1, "joined install must be visible");
                    assert_not_torn(&after);
                })
                .expect("install/read protocol must hold in every schedule");
        }

        /// Two concurrent installs leave one winner that the slot and the
        /// published id agree on, and retain each superseded generation
        /// exactly once.
        #[test]
        fn model_concurrent_swaps_agree() {
            Model::new()
                .check(|| {
                    let chain = Arc::new(GenerationChain::new(marked_index(0)));
                    let other = {
                        let chain = Arc::clone(&chain);
                        dsr_sync::thread::spawn(move || chain.install(marked_index(0)).id())
                    };
                    let mine = chain.install(marked_index(0)).id();
                    let theirs = other.join().unwrap();
                    assert_ne!(mine, theirs, "ids are never reused");
                    let winner = chain.latest().id();
                    assert_eq!(chain.latest_id(), winner, "published id disagrees");
                    assert!(winner == mine || winner == theirs);
                    let loser = mine + theirs - winner;
                    assert_eq!(chain.reap(), vec![0, loser], "each retained once");
                    assert_eq!((chain.retained(), chain.reclaimed()), (1, 2));
                })
                .expect("concurrent installs must leave the chain consistent");
        }

        /// A reader pinning whatever is latest while the writer installs
        /// twice and reaps: the pin is never torn and never reclaimed
        /// while held, and every unpinned generation is reclaimed.
        #[test]
        fn model_pinned_generation_survives_read_install_and_reap() {
            Model::new()
                .check(|| {
                    let chain = Arc::new(GenerationChain::new(marked_index(0)));
                    let reader = {
                        let chain = Arc::clone(&chain);
                        dsr_sync::thread::spawn(move || {
                            let pin = chain.latest();
                            assert_not_torn(&pin);
                            let found = chain.lookup(pin.id());
                            assert!(found.is_some(), "pinned generation was reclaimed");
                        })
                    };
                    for id in 1..=2 {
                        assert_eq!(chain.install(marked_index(id)).id(), id);
                        chain.reap();
                    }
                    reader.join().unwrap();
                    chain.reap();
                    assert_not_torn(&chain.latest());
                    assert_eq!(chain.retained(), 1, "unpinned generations are reclaimed");
                    assert_eq!(chain.created(), chain.reclaimed() + 1);
                })
                .expect("pins must hold through install/reap in every schedule");
        }
    }

    mod chain {
        use super::*;

        #[test]
        fn install_retains_until_pins_drop() {
            let chain = GenerationChain::new(chain_index());
            assert_eq!(chain.latest_id(), 0);
            assert_eq!(chain.retained(), 1);

            let pin = chain.latest();
            let next = chain.install(chain_index());
            assert_eq!(next.id(), 1);
            assert_eq!(chain.latest_id(), 1);
            // The pinned generation 0 survives the install …
            assert_eq!(chain.retained(), 2);
            assert!(chain.reap().is_empty(), "pinned generation not reclaimed");
            assert_eq!(pin.id(), 0);
            // … and is reclaimed exactly when the pin drops.
            drop(pin);
            assert_eq!(chain.reap(), vec![0]);
            assert_eq!(chain.retained(), 1);
            assert_eq!(chain.created(), 2);
            assert_eq!(chain.reclaimed(), 1);
            assert!(chain.lookup(0).is_none(), "reclaimed id no longer resolves");
            assert_eq!(chain.lookup(1).expect("latest resolves").id(), 1);
        }

        #[test]
        fn old_generation_pins_do_not_block_the_latest() {
            let chain = GenerationChain::new(chain_index());
            let old_pin = chain.latest();
            chain.install(chain_index());
            chain.install(chain_index());
            // Generation 0 is pinned, 1 is not: the chain advances past
            // both and reclaims around the pin.
            assert_eq!(chain.latest_id(), 2);
            assert_eq!(chain.reap(), vec![1]);
            assert_eq!(chain.retained(), 2);
            assert_eq!(old_pin.id(), 0, "old pin unaffected");
            assert_eq!(chain.lookup(0).expect("pinned id resolves").id(), 0);
        }
    }

    #[test]
    fn concurrent_readers_see_old_or_new_never_torn() {
        let chain = Arc::new(GenerationChain::new(marked_index(0)));
        let stop = Arc::new(dsr_sync::atomic::AtomicUsize::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let chain = Arc::clone(&chain);
                let stop = Arc::clone(&stop);
                dsr_sync::thread::spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        assert_not_torn(&chain.latest());
                    }
                })
            })
            .collect();
        for id in 1..200u64 {
            assert_eq!(chain.install(marked_index(id)).id(), id);
            chain.reap();
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
