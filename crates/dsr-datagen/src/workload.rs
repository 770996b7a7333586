//! Query-workload generation.
//!
//! The paper's efficiency and scalability experiments use randomly selected
//! source and target sets ("We randomly selected 10 source and 10 target
//! vertices from all datasets … thus resulting in 100 reachability
//! comparisons", Section 4.1). [`QueryWorkload`] reproduces that setup with
//! configurable sizes (10×10 up to 10k×10k for Figure 5(d)(h)(l)(p)).
//!
//! For the serving-layer experiments, [`query_stream`] generates whole
//! *query streams*: a pool of distinct queries with Zipf-skewed popularity
//! (real query logs repeat a few hot queries, which is what makes result
//! caching worthwhile) and either closed-loop arrivals (the next query is
//! issued as soon as the previous one completes) or open-loop Poisson
//! arrivals at a configurable rate.

use std::time::Duration;

use dsr_graph::{DiGraph, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A set-reachability query: source set `S` and target set `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryWorkload {
    /// Source vertices `S`.
    pub sources: Vec<VertexId>,
    /// Target vertices `T`.
    pub targets: Vec<VertexId>,
}

impl QueryWorkload {
    /// `|S| × |T|` — the number of reachability comparisons the query asks
    /// for.
    pub fn num_comparisons(&self) -> usize {
        self.sources.len() * self.targets.len()
    }

    /// Label such as `10x10` used in experiment output.
    pub fn label(&self) -> String {
        format!("{}x{}", self.sources.len(), self.targets.len())
    }
}

/// Draws a random set-reachability query with `num_sources` distinct sources
/// and `num_targets` distinct targets (source and target sets may overlap,
/// as in the paper).
pub fn random_query(
    graph: &DiGraph,
    num_sources: usize,
    num_targets: usize,
    seed: u64,
) -> QueryWorkload {
    let n = graph.num_vertices();
    assert!(n > 0, "cannot sample from an empty graph");
    assert!(
        num_sources <= n && num_targets <= n,
        "query larger than the graph"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut vertices: Vec<VertexId> = (0..n as VertexId).collect();
    vertices.shuffle(&mut rng);
    let sources = vertices[..num_sources].to_vec();
    vertices.shuffle(&mut rng);
    let targets = vertices[..num_targets].to_vec();
    QueryWorkload { sources, targets }
}

/// Draws a batch of queries with distinct seeds (used when experiments
/// average over several queries).
pub fn random_queries(
    graph: &DiGraph,
    num_sources: usize,
    num_targets: usize,
    count: usize,
    seed: u64,
) -> Vec<QueryWorkload> {
    (0..count)
        .map(|i| random_query(graph, num_sources, num_targets, seed.wrapping_add(i as u64)))
        .collect()
}

/// How the queries of a stream arrive at the serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Closed loop: a client issues its next query the moment the previous
    /// one completes. All offsets are zero; throughput is limited by the
    /// service.
    ClosedLoop,
    /// Open loop: queries arrive as a Poisson process at `rate_per_sec`
    /// (exponential inter-arrival times), independent of completion times.
    OpenLoop {
        /// Mean arrival rate in queries per second (must be positive).
        rate_per_sec: f64,
    },
}

/// Configuration for [`query_stream`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Total number of query arrivals in the stream.
    pub num_queries: usize,
    /// `|S|` of every query in the pool.
    pub num_sources: usize,
    /// `|T|` of every query in the pool.
    pub num_targets: usize,
    /// Number of distinct queries in the pool the stream draws from.
    pub distinct: usize,
    /// Zipf skew exponent over pool ranks: popularity of rank `r` is
    /// proportional to `1 / (r + 1)^skew`. `0.0` means uniform popularity;
    /// `0.99` approximates the YCSB default.
    pub skew: f64,
    /// Arrival pattern (closed or open loop).
    pub pattern: ArrivalPattern,
    /// Seed for both pool generation and arrival sampling.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            num_queries: 1000,
            num_sources: 10,
            num_targets: 10,
            distinct: 100,
            skew: 0.99,
            pattern: ArrivalPattern::ClosedLoop,
            seed: 0xD5,
        }
    }
}

/// One arrival of a query stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedQuery {
    /// Arrival time relative to the start of the stream (zero for every
    /// closed-loop arrival).
    pub offset: Duration,
    /// Index into [`QueryStream::pool`] of the query being issued.
    pub pool_index: usize,
}

/// A stream of query arrivals over a pool of distinct queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStream {
    /// The distinct queries, ordered by popularity rank (entry 0 is the
    /// hottest).
    pub pool: Vec<QueryWorkload>,
    /// The arrivals in time order.
    pub arrivals: Vec<TimedQuery>,
}

impl QueryStream {
    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the stream has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The queries in arrival order.
    pub fn queries(&self) -> impl Iterator<Item = &QueryWorkload> + '_ {
        self.arrivals.iter().map(|a| &self.pool[a.pool_index])
    }
}

/// Generates a deterministic query stream over `graph`.
///
/// The pool holds `config.distinct` distinct random queries (each with
/// `num_sources × num_targets` comparisons, like [`random_query`]); arrivals
/// pick pool entries with Zipf(`skew`) popularity and are timestamped
/// according to `config.pattern`. The same seed always yields the same
/// stream.
pub fn query_stream(graph: &DiGraph, config: &StreamConfig) -> QueryStream {
    assert!(config.distinct > 0, "pool must hold at least one query");
    assert!(config.skew >= 0.0, "negative skew is not meaningful");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let pool: Vec<QueryWorkload> = (0..config.distinct)
        .map(|i| {
            random_query(
                graph,
                config.num_sources,
                config.num_targets,
                config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
            )
        })
        .collect();

    // Zipf popularity over ranks: cumulative weights + inverse-CDF sampling.
    let cumulative: Vec<f64> = pool
        .iter()
        .enumerate()
        .scan(0.0f64, |acc, (rank, _)| {
            *acc += 1.0 / ((rank + 1) as f64).powf(config.skew);
            Some(*acc)
        })
        .collect();
    let total = *cumulative.last().expect("non-empty pool");

    let mut arrivals = Vec::with_capacity(config.num_queries);
    let mut clock = 0.0f64;
    for _ in 0..config.num_queries {
        let u: f64 = rng.gen::<f64>() * total;
        let pool_index = cumulative.partition_point(|&c| c <= u).min(pool.len() - 1);
        let offset = match config.pattern {
            ArrivalPattern::ClosedLoop => Duration::ZERO,
            ArrivalPattern::OpenLoop { rate_per_sec } => {
                assert!(rate_per_sec > 0.0, "open-loop rate must be positive");
                // Exponential inter-arrival: -ln(1 - u) / rate.
                let u: f64 = rng.gen::<f64>();
                clock += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate_per_sec;
                Duration::from_secs_f64(clock)
            }
        };
        arrivals.push(TimedQuery { offset, pool_index });
    }
    QueryStream { pool, arrivals }
}

/// One edge-level update of a synthetic update stream.
///
/// The variant layout deliberately mirrors `dsr_core::UpdateOp` — this
/// crate sits below `dsr-core` in the dependency DAG, so consumers map the
/// ops with a one-line `match` (see the `updates` experiment in
/// `dsr-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert the edge `(u, v)`.
    Insert(VertexId, VertexId),
    /// Delete the edge `(u, v)`.
    Delete(VertexId, VertexId),
}

/// Configuration for [`update_stream`].
#[derive(Debug, Clone)]
pub struct UpdateStreamConfig {
    /// Total number of update operations in the stream.
    pub num_ops: usize,
    /// Fraction of operations that are insertions (the rest are deletions
    /// of currently live edges). Clamped to `[0, 1]`.
    pub insert_fraction: f64,
    /// Seed; the same seed always yields the same stream.
    pub seed: u64,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        UpdateStreamConfig {
            num_ops: 1000,
            insert_fraction: 0.5,
            seed: 0xF6,
        }
    }
}

/// Generates a deterministic stream of edge updates against `graph`.
///
/// The stream is *consistent*: deletions always target an edge that is live
/// at that point of the stream (an original edge or an earlier insertion),
/// and insertions always add an edge that is absent, so replaying the
/// stream against an index yields no-op-free updates. When no live edge is
/// left to delete, an insertion is emitted instead.
pub fn update_stream(graph: &DiGraph, config: &UpdateStreamConfig) -> Vec<EdgeOp> {
    let n = graph.num_vertices() as VertexId;
    assert!(n >= 2, "update streams need at least two vertices");
    let insert_fraction = config.insert_fraction.clamp(0.0, 1.0);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut live: Vec<(VertexId, VertexId)> = graph.edge_vec();
    let mut live_set: std::collections::HashSet<(VertexId, VertexId)> =
        live.iter().copied().collect();

    let max_edges = n as usize * (n as usize - 1);
    let mut ops = Vec::with_capacity(config.num_ops);
    for _ in 0..config.num_ops {
        // An insertion needs a free (u, v) slot, a deletion a live edge;
        // fall back to the other op when one side is exhausted (a complete
        // graph cannot grow, an empty one cannot shrink).
        let saturated = live.len() >= max_edges;
        let want_insert = (rng.gen::<f64>() < insert_fraction && !saturated) || live.is_empty();
        if want_insert {
            // Rejection-sample a currently absent edge.
            let edge = loop {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && !live_set.contains(&(u, v)) {
                    break (u, v);
                }
            };
            live.push(edge);
            live_set.insert(edge);
            ops.push(EdgeOp::Insert(edge.0, edge.1));
        } else {
            let at = rng.gen_range(0..live.len());
            let edge = live.swap_remove(at);
            live_set.remove(&edge);
            ops.push(EdgeOp::Delete(edge.0, edge.1));
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of arrivals per pool entry (index = popularity rank).
    fn arrivals_per_rank(stream: &QueryStream) -> Vec<usize> {
        let mut counts = vec![0usize; stream.pool.len()];
        for arrival in &stream.arrivals {
            counts[arrival.pool_index] += 1;
        }
        counts
    }

    #[test]
    fn sizes_and_distinctness() {
        let g = DiGraph::empty(100);
        let q = random_query(&g, 10, 10, 1);
        assert_eq!(q.sources.len(), 10);
        assert_eq!(q.targets.len(), 10);
        assert_eq!(q.num_comparisons(), 100);
        assert_eq!(q.label(), "10x10");
        let mut s = q.sources.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10, "sources must be distinct");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = DiGraph::empty(50);
        assert_eq!(random_query(&g, 5, 5, 9), random_query(&g, 5, 5, 9));
        assert_ne!(random_query(&g, 5, 5, 9), random_query(&g, 5, 5, 10));
    }

    #[test]
    fn batch_generation() {
        let g = DiGraph::empty(30);
        let qs = random_queries(&g, 3, 4, 5, 77);
        assert_eq!(qs.len(), 5);
        assert!(qs
            .iter()
            .all(|q| q.sources.len() == 3 && q.targets.len() == 4));
    }

    #[test]
    #[should_panic(expected = "larger than the graph")]
    fn oversized_query_panics() {
        let g = DiGraph::empty(5);
        random_query(&g, 10, 2, 0);
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let g = DiGraph::empty(60);
        let config = StreamConfig {
            num_queries: 200,
            distinct: 16,
            ..StreamConfig::default()
        };
        assert_eq!(query_stream(&g, &config), query_stream(&g, &config));
        let other = StreamConfig {
            seed: config.seed + 1,
            ..config.clone()
        };
        assert_ne!(query_stream(&g, &config), query_stream(&g, &other));
    }

    #[test]
    fn closed_loop_has_zero_offsets_and_full_length() {
        let g = DiGraph::empty(40);
        let stream = query_stream(
            &g,
            &StreamConfig {
                num_queries: 100,
                num_sources: 5,
                num_targets: 5,
                distinct: 8,
                ..StreamConfig::default()
            },
        );
        assert_eq!(stream.len(), 100);
        assert!(!stream.is_empty());
        assert_eq!(stream.pool.len(), 8);
        assert!(stream.arrivals.iter().all(|a| a.offset == Duration::ZERO));
        assert!(stream.queries().all(|q| q.num_comparisons() == 25));
        assert_eq!(arrivals_per_rank(&stream).iter().sum::<usize>(), 100);
    }

    #[test]
    fn open_loop_offsets_are_nondecreasing_and_rate_scaled() {
        let g = DiGraph::empty(40);
        let stream = query_stream(
            &g,
            &StreamConfig {
                num_queries: 500,
                distinct: 4,
                pattern: ArrivalPattern::OpenLoop {
                    rate_per_sec: 1000.0,
                },
                ..StreamConfig::default()
            },
        );
        let offsets: Vec<Duration> = stream.arrivals.iter().map(|a| a.offset).collect();
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        // 500 arrivals at ~1000/s should span roughly half a second; allow a
        // generous band since the shim RNG is not statistically tuned.
        let span = offsets.last().unwrap().as_secs_f64();
        assert!(span > 0.1 && span < 2.5, "span {span} out of band");
    }

    #[test]
    fn zipf_skew_concentrates_popularity() {
        let g = DiGraph::empty(50);
        let skewed = query_stream(
            &g,
            &StreamConfig {
                num_queries: 2000,
                distinct: 20,
                skew: 1.2,
                ..StreamConfig::default()
            },
        );
        let histogram = arrivals_per_rank(&skewed);
        // Rank 0 must clearly dominate the tail under heavy skew.
        assert!(
            histogram[0] > 4 * histogram[19].max(1),
            "rank 0 ({}) should dwarf rank 19 ({})",
            histogram[0],
            histogram[19]
        );
        // Uniform (skew 0) spreads arrivals much more evenly.
        let uniform = query_stream(
            &g,
            &StreamConfig {
                num_queries: 2000,
                distinct: 20,
                skew: 0.0,
                ..StreamConfig::default()
            },
        );
        let uniform_hist = arrivals_per_rank(&uniform);
        assert!(uniform_hist.iter().all(|&c| c > 0), "all ranks drawn");
        assert!(histogram[0] > 2 * uniform_hist[0]);
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn empty_pool_panics() {
        let g = DiGraph::empty(10);
        query_stream(
            &g,
            &StreamConfig {
                distinct: 0,
                ..StreamConfig::default()
            },
        );
    }

    #[test]
    fn update_stream_is_consistent_and_deterministic() {
        let g = DiGraph::from_edges(20, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let config = UpdateStreamConfig {
            num_ops: 200,
            insert_fraction: 0.4,
            seed: 11,
        };
        let ops = update_stream(&g, &config);
        assert_eq!(ops.len(), 200);
        assert_eq!(ops, update_stream(&g, &config), "same seed, same stream");
        // Replay: every delete hits a live edge, every insert an absent one.
        let mut live: std::collections::HashSet<(u32, u32)> = g.edge_vec().into_iter().collect();
        for op in &ops {
            match *op {
                EdgeOp::Insert(u, v) => {
                    assert_ne!(u, v);
                    assert!(live.insert((u, v)), "insert of an absent edge");
                }
                EdgeOp::Delete(u, v) => {
                    assert!(live.remove(&(u, v)), "delete of a live edge");
                }
            }
        }
        let inserts = ops
            .iter()
            .filter(|op| matches!(op, EdgeOp::Insert(..)))
            .count();
        assert!(inserts > 40 && inserts < 140, "roughly the asked mix");
    }

    #[test]
    fn update_stream_saturated_graph_falls_back_to_deletions() {
        // Two vertices: only (0,1) and (1,0) exist. An insert-only stream
        // must not spin forever once both are live — it deletes instead.
        let g = DiGraph::from_edges(2, &[]);
        let ops = update_stream(
            &g,
            &UpdateStreamConfig {
                num_ops: 10,
                insert_fraction: 1.0,
                seed: 7,
            },
        );
        assert_eq!(ops.len(), 10);
        let mut live: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for op in &ops {
            match *op {
                EdgeOp::Insert(u, v) => assert!(live.insert((u, v))),
                EdgeOp::Delete(u, v) => assert!(live.remove(&(u, v))),
            }
        }
        assert!(
            ops.iter().any(|op| matches!(op, EdgeOp::Delete(..))),
            "saturation forces deletions"
        );
    }

    #[test]
    fn update_stream_all_deletions_drains_then_inserts() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2)]);
        let ops = update_stream(
            &g,
            &UpdateStreamConfig {
                num_ops: 4,
                insert_fraction: 0.0,
                seed: 3,
            },
        );
        assert!(
            matches!(ops[0], EdgeOp::Delete(..)) && matches!(ops[1], EdgeOp::Delete(..)),
            "live edges drain first"
        );
        assert!(
            matches!(ops[2], EdgeOp::Insert(..)),
            "falls back to an insertion once the graph is empty"
        );
    }
}
