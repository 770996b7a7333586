//! Bounded LRU result cache with per-generation namespaces.
//!
//! Keys are normalized query signatures: both vertex sets sorted and
//! deduplicated, so `S = [3, 1, 3]` and `S = [1, 3]` share an entry. A
//! [`SigKey`] is built from one sorted, deduplicated copy of each side and
//! hashed **once**, by a multiply-rotate over both side lengths and the ids
//! (FxHash's step) with a finish that folds the high bits into the low ones:
//! the map takes its bucket from the low bits and its control byte from the
//! top seven. The hash is unkeyed; so is SipHash under
//! `DefaultHasher::new()`, whose keys are fixed at zero, so no protection
//! against crafted collisions is lost. Every map lookup and insert reuses
//! the stored hash — a probe never re-walks (or clones) the two vertex
//! vectors — and equality still compares whole signatures, so a collision
//! costs a comparison, never a wrong answer.
//!
//! Every entry lives in the **namespace** of the index generation it was
//! computed against (see [`GenerationChain`](crate::GenerationChain)). The
//! same signature cached under generations 3 and 4 is two independent
//! entries: pinned readers of generation 3 keep hitting their namespace
//! while fresh traffic fills generation 4's. When a generation is
//! reclaimed its namespace is [retired](QueryCache::retire) — its entries
//! go and late inserts are refused — so an update batch never clears the
//! whole cache; it only retires the namespaces that actually died.
//!
//! The cache ([`QueryCache`]) is one mutex around one map per live
//! namespace, with capacity and LRU order shared between them. Cache hits
//! bypass the batch-forming scheduler entirely. Values are `Arc`-shared
//! pair lists, so a hit never copies the (potentially large) answer.

use dsr_sync::{Arc, Mutex};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::snapshot::GenerationId;
use dsr_core::SetQuery;
use dsr_graph::VertexId;

/// Shared, immutable answer to a set-reachability query.
pub type CachedPairs = Arc<Vec<(VertexId, VertexId)>>;

/// A normalized query signature with its hash precomputed exactly once.
///
/// The hash is reused across cache lookup and cache insert; equality
/// still compares the full signature, so hash collisions are correct (they
/// merely share a hash bucket).
#[derive(Debug, Clone)]
pub struct SigKey {
    hash: u64,
    sources: Vec<VertexId>,
    targets: Vec<VertexId>,
}

/// FxHash's multiplier: odd, with its bits spread over the whole word.
const MIX: u64 = 0x517c_c1b7_2722_0a95;

/// One multiply-rotate step.
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(MIX)
}

/// Folds the well-mixed high half into the low bits, which pick the bucket,
/// and multiplies once more so that the top seven bits, the control byte,
/// depend on every word too.
fn finish(hash: u64) -> u64 {
    let hash = (hash ^ (hash >> 32)).wrapping_mul(MIX);
    hash ^ (hash >> 32)
}

/// Sorts and deduplicates one side of a signature in its own buffer.
fn normalize(mut side: Vec<VertexId>) -> Vec<VertexId> {
    side.sort_unstable();
    side.dedup();
    side
}

impl SigKey {
    /// The one constructor: normalizes each side once and hashes both side
    /// lengths and every id. The lengths keep `[1, 2] ; [3]` and
    /// `[1] ; [2, 3]` apart.
    fn normalized(sources: Vec<VertexId>, targets: Vec<VertexId>) -> Self {
        let (sources, targets) = (normalize(sources), normalize(targets));
        let mut hash = mix(0, sources.len() as u64);
        hash = sources.iter().fold(hash, |h, &v| mix(h, u64::from(v)));
        hash = mix(hash, targets.len() as u64);
        hash = targets.iter().fold(hash, |h, &v| mix(h, u64::from(v)));
        SigKey {
            hash: finish(hash),
            sources,
            targets,
        }
    }

    /// Normalizes `sources ; targets` and builds the key.
    pub fn new(sources: &[VertexId], targets: &[VertexId]) -> Self {
        Self::normalized(sources.to_vec(), targets.to_vec())
    }

    /// Builds the key from a query.
    pub fn from_query(query: &SetQuery) -> Self {
        Self::new(&query.sources, &query.targets)
    }

    /// Normalized source set.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Normalized target set.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Rebuilds a [`SetQuery`] over the normalized sets (what the fused
    /// execution actually evaluates).
    pub fn to_query(&self) -> SetQuery {
        SetQuery::new(self.sources.clone(), self.targets.clone())
    }
}

impl PartialEq for SigKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.sources == other.sources && self.targets == other.targets
    }
}

impl Eq for SigKey {}

impl Hash for SigKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The signature was hashed at construction; feed only the cached
        // value so map operations never re-walk the vertex vectors.
        state.write_u64(self.hash);
    }
}

/// Pass-through hasher for maps keyed by prehashed keys: the key's `Hash`
/// impl writes a single precomputed `u64`, which this hasher returns
/// as-is.
#[derive(Debug, Default, Clone, Copy)]
struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("prehashed keys only write u64s");
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }
}

type PrehashedMap<V> = HashMap<SigKey, V, BuildHasherDefault<PrehashedHasher>>;

struct CacheEntry {
    value: CachedPairs,
    /// Logical timestamp of the last hit or insertion; the entry with the
    /// smallest timestamp is the least recently used.
    last_used: u64,
}

/// Outcome of a liveness-checked insert into the [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The entry was stored; `evicted` reports whether it displaced an LRU
    /// entry.
    Inserted {
        /// Whether an LRU entry was evicted to make room.
        evicted: bool,
    },
    /// The namespace was retired while the result was being computed (its
    /// generation was reclaimed, so the entry could never be read again —
    /// or worse, be read as stale if the id were ever reused) — nothing
    /// was stored.
    Stale,
}

/// Everything behind the cache's one lock.
struct Namespaces {
    /// One map per live namespace, in open order. Few (the retained
    /// generations), so a linear scan finds one faster than a map would.
    maps: Vec<(GenerationId, PrehashedMap<CacheEntry>)>,
    /// Entries across all maps.
    len: usize,
    /// LRU clock, shared by all namespaces.
    tick: u64,
    /// Namespaces retired over the cache's lifetime.
    retirements: u64,
}

impl Namespaces {
    /// Where `namespace`'s map sits in `maps`, if the namespace is live.
    fn position(&self, namespace: GenerationId) -> Option<usize> {
        self.maps.iter().position(|(id, _)| *id == namespace)
    }

    /// Drops the least recently used entry of any namespace.
    fn evict_lru(&mut self) {
        let lru = self
            .maps
            .iter()
            .enumerate()
            .flat_map(|(at, (_, map))| map.iter().map(move |(key, entry)| (at, key, entry)))
            .min_by_key(|(_, _, entry)| entry.last_used)
            .map(|(at, key, _)| (at, key.clone()));
        if let Some((at, key)) = lru {
            self.maps[at].1.remove(&key);
            self.len -= 1;
        }
    }
}

/// The serving layer's result cache: one locked, bounded LRU mapping
/// `(namespace, query signature)` to query answers.
///
/// The outer level is the namespace — one prehashed map per live index
/// generation — so a namespace is live exactly while its map is present:
/// [`open`](QueryCache::open) adds an empty map when a generation is
/// created, [`retire`](QueryCache::retire) drops the map when the
/// generation is reclaimed, and [`insert_if_live`](QueryCache::insert_if_live)
/// finds the map under the same lock, so a result computed against a dying
/// generation can never outlive it. Capacity and the LRU clock are shared
/// across namespaces: a hot pinned reader keeps its old-generation entries
/// alive, a cold one lets them age out.
///
/// Lookups and insertions are `O(1)` (no signature is re-hashed or cloned
/// on a probe); an eviction scans for the minimal timestamp, which is
/// `O(capacity)` but only runs on the miss path of a full cache — cheaper
/// than maintaining an intrusive list, and obviously correct under the one
/// mutex.
pub struct QueryCache {
    namespaces: Mutex<Namespaces>,
    capacity: usize,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("live", &self.live_namespaces())
            .field("retirements", &self.retirements())
            .finish()
    }
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` entries (at least one).
    /// Namespace `0` — the generation every
    /// [`GenerationChain`](crate::GenerationChain) starts from — is
    /// pre-opened.
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            namespaces: Mutex::new(Namespaces {
                maps: vec![(0, PrehashedMap::default())],
                len: 0,
                tick: 0,
                retirements: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of entries, across all namespaces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries, across all namespaces.
    pub fn len(&self) -> usize {
        dsr_sync::lock(&self.namespaces).len
    }

    /// Whether no namespace holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Namespaces currently accepting inserts, in open order.
    pub fn live_namespaces(&self) -> Vec<GenerationId> {
        let namespaces = dsr_sync::lock(&self.namespaces);
        namespaces.maps.iter().map(|(id, _)| *id).collect()
    }

    /// Total namespaces retired over the cache's lifetime.
    pub fn retirements(&self) -> u64 {
        dsr_sync::lock(&self.namespaces).retirements
    }

    /// Opens the namespace of a freshly created generation. Idempotent.
    pub fn open(&self, namespace: GenerationId) {
        let mut namespaces = dsr_sync::lock(&self.namespaces);
        if namespaces.position(namespace).is_none() {
            namespaces.maps.push((namespace, PrehashedMap::default()));
        }
    }

    /// Looks up a signature in `namespace`, marking the entry as most
    /// recently used.
    pub fn get(&self, namespace: GenerationId, key: &SigKey) -> Option<CachedPairs> {
        let mut namespaces = dsr_sync::lock(&self.namespaces);
        namespaces.tick += 1;
        let tick = namespaces.tick;
        let at = namespaces.position(namespace)?;
        let entry = namespaces.maps[at].1.get_mut(key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.value))
    }

    /// Inserts (or refreshes) a computed result in `namespace`, evicting
    /// the least recently used entry of any namespace if the cache is full
    /// — unless the namespace was retired while the result was being
    /// computed.
    pub fn insert_if_live(
        &self,
        namespace: GenerationId,
        key: SigKey,
        value: CachedPairs,
    ) -> InsertOutcome {
        let mut namespaces = dsr_sync::lock(&self.namespaces);
        namespaces.tick += 1;
        let last_used = namespaces.tick;
        let at = match namespaces.position(namespace) {
            Some(at) => at,
            // Retired: nothing may be stored. The `mutation_enabled` guard
            // seeds the bug the model suite must catch
            // (`model_mutation_cache_generation_detected`) — storing the
            // orphan anyway — and is a const `false` in normal builds.
            None if !dsr_sync::model::mutation_enabled(
                dsr_sync::model::MUTATION_CACHE_SKIP_GENERATION_RECHECK,
            ) =>
            {
                return InsertOutcome::Stale
            }
            None => {
                namespaces.maps.push((namespace, PrehashedMap::default()));
                namespaces.maps.len() - 1
            }
        };
        if let Some(entry) = namespaces.maps[at].1.get_mut(&key) {
            *entry = CacheEntry { value, last_used };
            return InsertOutcome::Inserted { evicted: false };
        }
        let evicted = namespaces.len >= self.capacity;
        if evicted {
            namespaces.evict_lru();
        }
        // Eviction drops entries, never maps: `at` still names the map.
        namespaces.maps[at]
            .1
            .insert(key, CacheEntry { value, last_used });
        namespaces.len += 1;
        InsertOutcome::Inserted { evicted }
    }

    /// Retires a namespace: its generation was reclaimed, so its map is
    /// dropped and late inserts are refused. Returns how many entries went
    /// with it; idempotent (a second retire is a no-op and does not bump
    /// the retirement counter).
    pub fn retire(&self, namespace: GenerationId) -> usize {
        let mut namespaces = dsr_sync::lock(&self.namespaces);
        let Some(at) = namespaces.position(namespace) else {
            return 0;
        };
        let (_, map) = namespaces.maps.remove(at);
        namespaces.len -= map.len();
        namespaces.retirements += 1;
        // The entries are freed after the lock is released.
        drop(namespaces);
        map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &[u32], t: &[u32]) -> SigKey {
        SigKey::new(s, t)
    }

    fn pairs(p: &[(u32, u32)]) -> CachedPairs {
        Arc::new(p.to_vec())
    }

    /// Number of entries currently cached under `namespace`.
    fn namespace_len(cache: &QueryCache, namespace: GenerationId) -> usize {
        let namespaces = dsr_sync::lock(&cache.namespaces);
        namespaces
            .position(namespace)
            .map_or(0, |at| namespaces.maps[at].1.len())
    }

    /// Opens namespaces `1..=last` on top of the pre-opened namespace 0.
    fn cache_with_namespaces(capacity: usize, last: GenerationId) -> QueryCache {
        let cache = QueryCache::new(capacity);
        (1..=last).for_each(|namespace| cache.open(namespace));
        cache
    }

    #[test]
    fn sig_key_normalizes_and_hashes_once() {
        let a = key(&[3, 1, 3], &[5, 2]);
        let b = key(&[1, 3], &[2, 5, 5]);
        assert_eq!(a, b, "normalized signatures unify");
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.sources(), &[1, 3]);
        assert_eq!(a.targets(), &[2, 5]);
        assert_ne!(a, key(&[1, 3], &[2, 6]));
    }

    /// SplitMix64: a seeded stream of test inputs without a dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Up to seven ids below 8 (so duplicates are common), unsorted,
    /// empty one time in eight.
    fn random_side(state: &mut u64) -> Vec<u32> {
        let len = (splitmix(state) % 8) as usize;
        (0..len).map(|_| (splitmix(state) % 8) as u32).collect()
    }

    #[test]
    fn sig_key_agrees_with_the_query_signature() {
        let mut state = 0x5eed;
        let mut empty_sides = 0;
        for _ in 0..500 {
            let query = SetQuery::new(random_side(&mut state), random_side(&mut state));
            empty_sides += usize::from(query.sources.is_empty());
            empty_sides += usize::from(query.targets.is_empty());
            let (sources, targets) = query.signature();
            let from_signature = SigKey::normalized(sources.clone(), targets.clone());
            for built in [
                SigKey::from_query(&query),
                key(&query.sources, &query.targets),
            ] {
                assert_eq!((built.sources(), built.targets()), (&*sources, &*targets));
                assert_eq!(built, from_signature, "{query:?}");
                assert_eq!(built.hash, from_signature.hash, "{query:?}");
            }
        }
        assert!(empty_sides > 0, "the inputs include empty sides");
    }

    #[test]
    fn sig_key_tells_where_the_sources_end() {
        for (a, b) in [
            (key(&[1, 2], &[3]), key(&[1], &[2, 3])),
            (key(&[], &[1]), key(&[1], &[])),
            (key(&[], &[]), key(&[0], &[])),
        ] {
            assert_ne!(a, b);
            assert_ne!(a.hash, b.hash, "{a:?} / {b:?}");
        }
    }

    #[test]
    fn sig_key_hash_spreads_into_bucket_and_control_bits() {
        // A map takes its bucket from the low bits and its control byte
        // from the top seven: both must vary over consecutive small ids.
        let hashes: Vec<u64> = (0..1024u32).map(|v| key(&[v], &[v + 1]).hash).collect();
        let distinct = |bits: fn(u64) -> u64| {
            let mut seen: Vec<u64> = hashes.iter().map(|&h| bits(h)).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        // 1 024 uniform draws from 1 024 buckets cover ≈ 647 of them.
        assert!(distinct(|h| h & 1023) > 560, "low bits");
        assert!(distinct(|h| h >> 57) > 120, "top seven bits");
    }

    #[test]
    fn keys_sharing_a_hash_stay_two_entries() {
        let forced = |sources: Vec<u32>, targets: Vec<u32>| SigKey {
            hash: 7,
            sources,
            targets,
        };
        let (a, b) = (forced(vec![1], vec![2]), forced(vec![2], vec![1]));
        assert_ne!(a, b, "equality compares whole signatures");
        let cache = QueryCache::new(4);
        cache.insert_if_live(0, a.clone(), pairs(&[(1, 2)]));
        assert!(cache.get(0, &b).is_none(), "a shared hash is no hit");
        assert_eq!(
            cache.insert_if_live(0, b.clone(), pairs(&[])),
            InsertOutcome::Inserted { evicted: false }
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(*cache.get(0, &a).unwrap(), vec![(1, 2)]);
        assert!(cache.get(0, &b).unwrap().is_empty());
    }

    #[test]
    fn hit_and_miss() {
        let cache = QueryCache::new(4);
        assert!(cache.get(0, &key(&[1], &[2])).is_none());
        assert_eq!(
            cache.insert_if_live(0, key(&[1], &[2]), pairs(&[(1, 2)])),
            InsertOutcome::Inserted { evicted: false }
        );
        assert_eq!(*cache.get(0, &key(&[1], &[2])).unwrap(), vec![(1, 2)]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn namespaces_isolate_identical_signatures() {
        let cache = cache_with_namespaces(4, 4);
        cache.insert_if_live(3, key(&[1], &[2]), pairs(&[(1, 2)]));
        cache.insert_if_live(4, key(&[1], &[2]), pairs(&[]));
        assert_eq!(
            *cache.get(3, &key(&[1], &[2])).unwrap(),
            vec![(1, 2)],
            "old namespace keeps the old answer"
        );
        assert!(cache.get(4, &key(&[1], &[2])).unwrap().is_empty());
        assert!(cache.get(5, &key(&[1], &[2])).is_none());
        assert_eq!(namespace_len(&cache, 3), 1);
        assert_eq!(namespace_len(&cache, 5), 0);
        assert_eq!(cache.len(), 2, "len sums the namespaces");
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = QueryCache::new(2);
        cache.insert_if_live(0, key(&[1], &[1]), pairs(&[]));
        cache.insert_if_live(0, key(&[2], &[2]), pairs(&[]));
        // Touch [1] so [2] becomes the LRU entry.
        assert!(cache.get(0, &key(&[1], &[1])).is_some());
        assert_eq!(
            cache.insert_if_live(0, key(&[3], &[3]), pairs(&[])),
            InsertOutcome::Inserted { evicted: true }
        );
        assert!(
            cache.get(0, &key(&[2], &[2])).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.get(0, &key(&[1], &[1])).is_some());
        assert!(cache.get(0, &key(&[3], &[3])).is_some());
    }

    #[test]
    fn lru_eviction_competes_across_namespaces() {
        // Capacity is shared: a fresh namespace filling up pushes out the
        // entries of an old one its pinned reader stopped touching, and
        // keeps the one that reader still hits.
        let cache = cache_with_namespaces(3, 1);
        cache.insert_if_live(0, key(&[1], &[1]), pairs(&[]));
        cache.insert_if_live(0, key(&[2], &[2]), pairs(&[]));
        cache.insert_if_live(1, key(&[1], &[1]), pairs(&[]));
        assert!(cache.get(0, &key(&[2], &[2])).is_some(), "still hot");
        for fresh in 3..5u32 {
            assert_eq!(
                cache.insert_if_live(1, key(&[fresh], &[fresh]), pairs(&[])),
                InsertOutcome::Inserted { evicted: true }
            );
        }
        // Evicted in LRU order regardless of namespace: (0, [1]) first,
        // then (1, [1]).
        assert!(cache.get(0, &key(&[1], &[1])).is_none());
        assert!(cache.get(1, &key(&[1], &[1])).is_none());
        assert!(cache.get(0, &key(&[2], &[2])).is_some());
        assert_eq!((namespace_len(&cache, 0), namespace_len(&cache, 1)), (1, 2));
        assert_eq!(cache.len(), cache.capacity());
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let cache = QueryCache::new(1);
        cache.insert_if_live(0, key(&[1], &[1]), pairs(&[]));
        assert_eq!(
            cache.insert_if_live(0, key(&[1], &[1]), pairs(&[(1, 1)])),
            InsertOutcome::Inserted { evicted: false }
        );
        assert_eq!(*cache.get(0, &key(&[1], &[1])).unwrap(), vec![(1, 1)]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let cache = QueryCache::new(0);
        assert_eq!(cache.capacity(), 1);
    }

    #[test]
    fn distinct_signatures_below_capacity_round_trip() {
        // Many distinct signatures below capacity: each one misses, is
        // stored without displacing another, and hits.
        let cache = QueryCache::new(1024);
        for i in 0..256u32 {
            let k = key(&[i], &[i + 1]);
            assert!(cache.get(0, &k).is_none());
            assert_eq!(
                cache.insert_if_live(0, k.clone(), pairs(&[(i, i + 1)])),
                InsertOutcome::Inserted { evicted: false }
            );
            assert_eq!(*cache.get(0, &k).unwrap(), vec![(i, i + 1)]);
        }
        assert_eq!(cache.len(), 256);
    }

    #[test]
    fn one_entry_cache_evicts_across_namespaces() {
        // A one-entry cache across two namespaces: every insert evicts the
        // single resident entry, wherever it lives.
        let cache = cache_with_namespaces(1, 1);
        cache.insert_if_live(0, key(&[1], &[1]), pairs(&[]));
        assert_eq!(
            cache.insert_if_live(1, key(&[2], &[2]), pairs(&[])),
            InsertOutcome::Inserted { evicted: true }
        );
        assert!(cache.get(0, &key(&[1], &[1])).is_none());
        assert!(cache.get(1, &key(&[2], &[2])).is_some());
        assert_eq!(cache.len(), 1);
    }

    /// Model checks of the namespace-retirement protocol. Under
    /// `--cfg dsr_model` these explore every interleaving within the
    /// preemption bound; in normal builds they run a single execution.
    mod model_protocol {
        use super::*;
        use dsr_sync::model::{self, Model};

        /// An insert computed against a generation racing that
        /// generation's retirement must never leave an orphaned entry
        /// behind: either it lands first and goes with the namespace's
        /// map, or it finds the map gone and is refused.
        fn stale_insert_never_survives() {
            let cache = Arc::new(QueryCache::new(8));
            let inserter = {
                let cache = Arc::clone(&cache);
                dsr_sync::thread::spawn(move || {
                    cache.insert_if_live(0, key(&[1], &[2]), pairs(&[(1, 2)]))
                })
            };
            let purged = cache.retire(0);
            let outcome = inserter.join().unwrap();
            assert_eq!(
                outcome == InsertOutcome::Stale,
                purged == 0,
                "an insert that lost the race is stale, one that won is purged"
            );
            assert!(
                cache.get(0, &key(&[1], &[2])).is_none(),
                "stale entry survived retirement"
            );
            assert!(cache.is_empty());
        }

        #[test]
        fn model_insert_racing_retire_never_leaves_stale_entry() {
            Model::new()
                .check(stale_insert_never_survives)
                .expect("liveness recheck must hold in every schedule");
        }

        /// Seeded mutation: storing into a namespace whose map is gone
        /// lets an insert land *after* the retirement — the checker must
        /// find that interleaving.
        #[test]
        fn model_mutation_cache_generation_detected() {
            if !model::is_model_build() {
                return;
            }
            let failure = Model::new()
                .mutation(model::MUTATION_CACHE_SKIP_GENERATION_RECHECK)
                .check(stale_insert_never_survives)
                .expect_err("skipping the recheck must leak a stale entry");
            assert!(failure.message.contains("stale"), "{failure}");
        }
    }

    #[test]
    fn retire_purges_the_namespace_and_rejects_late_inserts() {
        let cache = cache_with_namespaces(1024, 2);
        cache.insert_if_live(0, key(&[1], &[1]), pairs(&[]));
        cache.insert_if_live(1, key(&[1], &[1]), pairs(&[(1, 1)]));
        cache.insert_if_live(2, key(&[1], &[1]), pairs(&[]));
        assert_eq!(cache.retire(0), 1);
        assert_eq!(cache.retirements(), 1);
        assert_eq!(cache.live_namespaces(), vec![1, 2]);
        assert!(cache.get(0, &key(&[1], &[1])).is_none());
        // Exactly one namespace went — no bump-and-clear cliff.
        assert_eq!(*cache.get(1, &key(&[1], &[1])).unwrap(), vec![(1, 1)]);
        assert_eq!(cache.len(), 2);
        // A result computed against the reclaimed generation is refused.
        assert_eq!(
            cache.insert_if_live(0, key(&[2], &[2]), pairs(&[])),
            InsertOutcome::Stale
        );
        assert!(cache.get(0, &key(&[2], &[2])).is_none());
        // Retiring again is a no-op.
        assert_eq!(cache.retire(0), 0);
        assert_eq!(cache.retirements(), 1);
        // The live namespaces insert normally.
        assert_eq!(
            cache.insert_if_live(1, key(&[2], &[2]), pairs(&[])),
            InsertOutcome::Inserted { evicted: false }
        );
    }
}
