//! Mixed-tenant serving experiment: OLTP set-reachability traffic,
//! analytical property-path and community workloads, and a continuous
//! update stream — all against **one** snapshot-isolated [`QueryService`].
//!
//! The served graph is the disjoint union of an RDF union-path graph (the
//! LUBM-like `subOrganizationOf` subgraph interned by
//! [`UnionPathGraph`](dsr_rdf::UnionPathGraph)) and a planted-partition
//! social graph shifted past it, so three tenants with very different
//! access patterns share one generation chain:
//!
//! * **oltp** — per-round batches of set-reachability queries against the
//!   *latest* generation, each batch checked pair-for-pair against a
//!   [`TransitiveClosure`] oracle maintained alongside the update stream,
//!   and replayed once to exercise the latest namespace of the cache;
//! * **rdf-paths** — [`RdfWorkload`] (queries L1–L3) over a snapshot
//!   pinned at the *start* of the round, re-run after the round's update
//!   batch: the two runs must be identical (pinned readers never observe
//!   a mid-batch state), and the replay's path queries hit the pinned
//!   generation's still-live cache namespace;
//! * **community-pairs** — [`CommunityWorkload`] (Louvain + pairwise
//!   community set-reach) over the same pinned snapshot, with the same
//!   replay-equality check;
//! * an **update stream** deleting/re-inserting edge chunks through
//!   [`QueryService::update`]`(…, UpdateMode::Auto)` — every changing
//!   batch installs a fork, so generations are created and (once the held
//!   pin drops) reclaimed at a deterministic rate.
//!
//! The whole replay runs **twice — in process and over the wire** — and
//! every deterministic counter (oracle mismatches, comm rounds/messages/
//! bytes, per-namespace cache hits, generations created/reclaimed, result
//! checksums) is asserted identical across transports before a single
//! `BENCH_mixed.json` text is rendered. The replay measures no time.
//! [`run`] returns the rendered table and that text; in fast mode it must
//! equal the committed file, which this module's test compares whole.

use dsr_sync::Arc;
use std::collections::BTreeSet;

use dsr_cluster::{DynTransport, Transport};
use dsr_community::CommunityWorkload;
use dsr_core::{DsrIndex, SetQuery, UpdateOp};
use dsr_graph::{DiGraph, TransitiveClosure, VertexId};
use dsr_rdf::{lubm_like_store, RdfWorkload};
use dsr_service::{checksum_pairs, QueryService, ServiceConfig, UpdateMode, WorkloadRun};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::experiments::common::{self, Golden, Object};
use crate::Table;

/// Replay shape shared by both transport runs.
struct Scenario {
    graph: DiGraph,
    rdf: RdfWorkload,
    community: CommunityWorkload,
    /// Edge chunks the update stream deletes and re-inserts.
    chunks: Vec<Vec<(VertexId, VertexId)>>,
    /// Per-round OLTP query batches.
    oltp: Vec<Vec<SetQuery>>,
    rounds: usize,
}

/// Every deterministic observable of one transport's replay. Asserted
/// identical across transports; the in-process copy is what lands in
/// `BENCH_mixed.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    rounds: u64,
    oltp_queries: u64,
    oltp_results: u64,
    oltp_checksum: u64,
    oracle_mismatches: u64,
    pinned_replay_mismatches: u64,
    rdf_run: WorkloadRun,
    community_run: WorkloadRun,
    comm_rounds: u64,
    comm_messages: u64,
    comm_bytes: u64,
    latest_hits: u64,
    pinned_hits: u64,
    cache_misses: u64,
    generations_created: u64,
    generations_reclaimed: u64,
    /// Cache hits recorded in the half-rounds *after* each update batch —
    /// nonzero is the "no bump-and-clear cliff" evidence.
    hits_after_updates: u64,
}

fn scenario(fast: bool) -> Scenario {
    let (universities, people, rounds) = if fast { (2, 90, 4) } else { (4, 240, 8) };
    let store = lubm_like_store(universities, 0xA10);
    let rdf = RdfWorkload::new(store, &["L1", "L2", "L3"]);
    let union_vertices = rdf.union_graph().num_vertices() as VertexId;

    let social = dsr_datagen::social_network(people, 4, 5.0, 0.85, 0xA11);
    let mut edges: Vec<(VertexId, VertexId)> = rdf.union_graph().graph().edge_vec();
    edges.extend(
        social
            .graph
            .edge_vec()
            .into_iter()
            .map(|(u, v)| (u + union_vertices, v + union_vertices)),
    );
    let num_vertices = union_vertices as usize + social.graph.num_vertices();
    let graph = DiGraph::from_edges(num_vertices, &edges);

    // The update stream churns `rounds` disjoint chunks spread across the
    // whole combined edge list (both tenant regions get churned).
    let chunk_len = (edges.len() / (rounds * 4)).max(1);
    let chunks: Vec<Vec<(VertexId, VertexId)>> = (0..rounds)
        .map(|r| {
            edges
                .iter()
                .skip(r * chunk_len)
                .take(chunk_len)
                .copied()
                .collect()
        })
        .collect();

    // Deterministic OLTP batches: repeated templates within a round make
    // the replayed half of the round hit the cache.
    let mut rng = SmallRng::seed_from_u64(0xA12);
    let oltp: Vec<Vec<SetQuery>> = (0..rounds)
        .map(|_| {
            (0..8)
                .map(|_| {
                    let sources: Vec<VertexId> = (0..4)
                        .map(|_| rng.gen_range(0..num_vertices) as VertexId)
                        .collect();
                    let targets: Vec<VertexId> = (0..4)
                        .map(|_| rng.gen_range(0..num_vertices) as VertexId)
                        .collect();
                    SetQuery::new(sources, targets)
                })
                .collect()
        })
        .collect();

    Scenario {
        graph,
        rdf,
        community: CommunityWorkload::new(3),
        chunks,
        oltp,
        rounds,
    }
}

/// One full replay of the mixed-tenant scenario on `transport`.
fn replay(s: &Scenario, slaves: usize, transport: DynTransport) -> Counters {
    let partitioning = common::partition(&s.graph, slaves);
    let index = DsrIndex::build(&s.graph, partitioning, dsr_reach::LocalIndexKind::Dfs);
    let service = QueryService::with_config_and_transport(
        Arc::new(index),
        ServiceConfig {
            // Batches form on the explicit flush inside `query_batch`,
            // never by cap or window expiry — the replay's fusion (and so
            // every comm/cache counter) is bit-reproducible.
            max_batch: usize::MAX,
            max_wait_us: 1_000_000,
            ..ServiceConfig::default()
        },
        transport,
    );

    // Oracle state: the live edge multiset mirrored next to the service.
    let mut live: BTreeSet<(VertexId, VertexId)> = s.graph.edge_vec().into_iter().collect();
    let mut closure = oracle(&live, s.graph.num_vertices());

    let mut counters = Counters {
        rounds: s.rounds as u64,
        oltp_queries: 0,
        oltp_results: 0,
        oltp_checksum: 0,
        oracle_mismatches: 0,
        pinned_replay_mismatches: 0,
        rdf_run: WorkloadRun {
            queries: 0,
            results: 0,
            checksum: 0,
        },
        community_run: WorkloadRun {
            queries: 0,
            results: 0,
            checksum: 0,
        },
        comm_rounds: 0,
        comm_messages: 0,
        comm_bytes: 0,
        latest_hits: 0,
        pinned_hits: 0,
        cache_misses: 0,
        generations_created: 0,
        generations_reclaimed: 0,
        hits_after_updates: 0,
    };
    let mut oltp_digest: Vec<(u64, u64)> = Vec::new();

    for round in 0..s.rounds {
        // 1. Pin the analytical tenants' view for the whole round.
        let snap = service.snapshot();
        let rdf_before = s.rdf.run(&snap).expect("transport stays up for the run");
        let community_before = s
            .community
            .run(&snap)
            .expect("transport stays up for the run");

        // 2. OLTP batch against the latest generation, oracle-checked,
        //    then replayed once so the second pass exercises the cache.
        for pass in 0..2 {
            let reply = service
                .query_batch(&s.oltp[round])
                .expect("transport stays up for the run");
            if pass == 0 {
                counters.oltp_queries += s.oltp[round].len() as u64;
                for (query, result) in s.oltp[round].iter().zip(&reply.results) {
                    counters.oltp_results += result.len() as u64;
                    let mut got: Vec<(VertexId, VertexId)> = result.to_vec();
                    got.sort_unstable();
                    let mut want = closure.set_reachability(&query.sources, &query.targets);
                    want.sort_unstable();
                    if got != want {
                        counters.oracle_mismatches += 1;
                    }
                    oltp_digest.extend(
                        got.iter()
                            .map(|&(a, b)| ((round as u64) << 32 | u64::from(a), u64::from(b))),
                    );
                }
            }
        }

        // 3. Update batch: re-insert last round's chunk, delete this
        //    round's. The fork lands beside the held pin.
        let mut ops: Vec<UpdateOp> = Vec::new();
        if round > 0 {
            for &(u, v) in &s.chunks[round - 1] {
                if live.insert((u, v)) {
                    ops.push(UpdateOp::Insert(u, v));
                }
            }
        }
        for &(u, v) in &s.chunks[round] {
            if live.remove(&(u, v)) {
                ops.push(UpdateOp::Delete(u, v));
            }
        }
        service
            .update(&ops, UpdateMode::Auto)
            .expect("update batch lands beside the pinned snapshot");
        closure = oracle(&live, s.graph.num_vertices());

        // 4. The pinned tenants replay against their snapshot: answers
        //    must be identical, and the replays land in the pinned
        //    generation's still-live cache namespace.
        let hits_before_replay = cache_hits(&service);
        let rdf_after = s.rdf.run(&snap).expect("transport stays up for the run");
        let community_after = s
            .community
            .run(&snap)
            .expect("transport stays up for the run");
        if rdf_after != rdf_before || community_after != community_before {
            counters.pinned_replay_mismatches += 1;
        }

        // 5. OLTP replays against the *new* latest generation with the
        //    oracle already advanced.
        let reply = service
            .query_batch(&s.oltp[round])
            .expect("transport stays up for the run");
        for (query, result) in s.oltp[round].iter().zip(&reply.results) {
            let mut got: Vec<(VertexId, VertexId)> = result.to_vec();
            got.sort_unstable();
            let mut want = closure.set_reachability(&query.sources, &query.targets);
            want.sort_unstable();
            if got != want {
                counters.oracle_mismatches += 1;
            }
        }
        counters.hits_after_updates += cache_hits(&service) - hits_before_replay;

        // 6. Fold the per-round workload runs into the totals and drop
        //    the pin — the superseded generation reclaims.
        counters.rdf_run.queries += rdf_before.queries;
        counters.rdf_run.results += rdf_before.results;
        counters.rdf_run.checksum = counters
            .rdf_run
            .checksum
            .wrapping_add(rdf_before.checksum.wrapping_mul(round as u64 + 1));
        counters.community_run.queries += community_before.queries;
        counters.community_run.results += community_before.results;
        counters.community_run.checksum = counters
            .community_run
            .checksum
            .wrapping_add(community_before.checksum.wrapping_mul(round as u64 + 1));
        drop(snap);
    }

    counters.oltp_checksum = checksum_pairs(oltp_digest);
    let comm = service.comm_stats();
    counters.comm_rounds = comm.rounds();
    counters.comm_messages = comm.messages();
    counters.comm_bytes = comm.bytes();
    let cache = service.cache_stats();
    counters.latest_hits = cache.latest_hits();
    counters.pinned_hits = cache.pinned_hits();
    counters.cache_misses = cache.misses();
    let generations = service.generation_stats();
    counters.generations_created = generations.created;
    counters.generations_reclaimed = generations.reclaimed;
    counters
}

fn cache_hits(service: &QueryService) -> u64 {
    service.cache_stats().hits()
}

fn oracle(live: &BTreeSet<(VertexId, VertexId)>, num_vertices: usize) -> TransitiveClosure {
    let edges: Vec<(VertexId, VertexId)> = live.iter().copied().collect();
    TransitiveClosure::build(&DiGraph::from_edges(num_vertices, &edges))
}

/// Runs the experiment; returns the rendered table and the text of
/// `BENCH_mixed.json`.
pub fn run(fast: bool) -> (String, String) {
    let s = scenario(fast);
    let slaves = if fast { 3 } else { common::DEFAULT_SLAVES };

    let runs: Vec<(&str, Counters)> = [DynTransport::InProcess, DynTransport::Wire]
        .into_iter()
        .map(|transport| (transport.name(), replay(&s, slaves, transport)))
        .collect();

    let (_, baseline) = &runs[0];
    for (name, counters) in &runs[1..] {
        assert_eq!(
            counters, baseline,
            "{name} transport drifted from the in-process counters"
        );
    }
    assert_eq!(
        baseline.oracle_mismatches, 0,
        "OLTP answers match the oracle"
    );
    assert_eq!(
        baseline.pinned_replay_mismatches, 0,
        "pinned workloads reproduce across update batches"
    );
    assert!(
        baseline.pinned_hits > 0,
        "pinned replays must hit their generation's cache namespace"
    );
    assert!(
        baseline.hits_after_updates > 0,
        "cache hit rate must survive update batches (no bump-and-clear cliff)"
    );

    let mut table = Table::new(
        &format!(
            "Mixed tenants: {} vertices, {} edges, {slaves} slaves, {} rounds",
            s.graph.num_vertices(),
            s.graph.num_edges(),
            s.rounds
        ),
        &[
            "Tenant",
            "Queries",
            "Results",
            "Mismatches",
            "Checksum",
            "Notes",
        ],
    );
    table.row(vec![
        "oltp".into(),
        baseline.oltp_queries.to_string(),
        baseline.oltp_results.to_string(),
        baseline.oracle_mismatches.to_string(),
        format!("{:016x}", baseline.oltp_checksum),
        "vs TransitiveClosure oracle".into(),
    ]);
    table.row(vec![
        "rdf-paths".into(),
        baseline.rdf_run.queries.to_string(),
        baseline.rdf_run.results.to_string(),
        baseline.pinned_replay_mismatches.to_string(),
        format!("{:016x}", baseline.rdf_run.checksum),
        "pinned; replayed across update batches".into(),
    ]);
    table.row(vec![
        "community-pairs".into(),
        baseline.community_run.queries.to_string(),
        baseline.community_run.results.to_string(),
        baseline.pinned_replay_mismatches.to_string(),
        format!("{:016x}", baseline.community_run.checksum),
        "pinned; Louvain + pairwise set-reach".into(),
    ]);
    let mut out = table.render();
    out.push_str(&format!(
        "generations: {} created, {} reclaimed | cache hits: {} latest, {} pinned \
         ({} after update batches) | comm: {} rounds, {} messages, {:.1} KB\n",
        baseline.generations_created,
        baseline.generations_reclaimed,
        baseline.latest_hits,
        baseline.pinned_hits,
        baseline.hits_after_updates,
        baseline.comm_rounds,
        baseline.comm_messages,
        baseline.comm_bytes as f64 / 1024.0,
    ));
    for (name, _) in &runs {
        out.push_str(&format!("{name}: counters identical\n"));
    }

    let json = render_json(fast, &s, slaves, &runs);
    (out, json)
}

fn render_json(fast: bool, s: &Scenario, slaves: usize, runs: &[(&str, Counters)]) -> String {
    let (_, c) = &runs[0];
    let checksum = |sum: u64| format!("{sum:016x}");
    Golden::new("mixed", fast)
        .field(
            "graph",
            Object::new()
                .field("vertices", s.graph.num_vertices())
                .field("edges", s.graph.num_edges())
                .field("slaves", slaves),
        )
        .field("rounds", c.rounds)
        .array(
            "tenants",
            [
                Object::new()
                    .text("name", "oltp")
                    .field("queries", c.oltp_queries)
                    .field("results", c.oltp_results)
                    .field("oracle_mismatches", c.oracle_mismatches)
                    .text("checksum", checksum(c.oltp_checksum)),
                Object::new()
                    .text("name", "rdf-paths")
                    .field("queries", c.rdf_run.queries)
                    .field("results", c.rdf_run.results)
                    .field("pinned_replay_mismatches", c.pinned_replay_mismatches)
                    .text("checksum", checksum(c.rdf_run.checksum)),
                Object::new()
                    .text("name", "community-pairs")
                    .field("queries", c.community_run.queries)
                    .field("results", c.community_run.results)
                    .field("pinned_replay_mismatches", c.pinned_replay_mismatches)
                    .text("checksum", checksum(c.community_run.checksum)),
            ],
        )
        .field(
            "snapshots",
            Object::new()
                .field("generations_created", c.generations_created)
                .field("generations_reclaimed", c.generations_reclaimed)
                .field("latest_hits", c.latest_hits)
                .field("pinned_hits", c.pinned_hits)
                .field("hits_after_updates", c.hits_after_updates)
                .field("cache_misses", c.cache_misses),
        )
        .field(
            "comm",
            Object::new()
                .field("rounds", c.comm_rounds)
                .field("messages", c.comm_messages)
                .field("bytes", c.comm_bytes),
        )
        .array(
            "transports",
            runs.iter().map(|(name, _)| {
                Object::new()
                    .text("name", name)
                    .field("counters_identical", true)
            }),
        )
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_table_and_json() {
        let (table, json) = run(true);
        for tenant in ["oltp", "rdf-paths", "community-pairs"] {
            assert!(table.contains(tenant), "{tenant} row rendered:\n{table}");
        }
        assert!(table.contains("counters identical"));
        common::assert_golden("mixed", include_str!("../../../../BENCH_mixed.json"), &json);
    }
}
