//! Serving-layer traffic experiment.
//!
//! Not a table of the paper — the paper stops at per-query latency — but
//! the direct consequence of its claim: with communication bounded at 3
//! rounds per query, the way to serve heavy traffic is to amortize those
//! rounds across a *batch* of queries and to cache repeated answers. This
//! experiment replays a Zipf-skewed query stream (see
//! [`dsr_datagen::workload::query_stream`]) in five execution modes over
//! the same index and reports what each one **ships** — rounds, messages,
//! bytes, cache hits, fusion counters. It measures no time: every mode is
//! single-threaded, so every counter is bit-reproducible, and throughput
//! and latency are the business of the repository benchmark
//! (`benchmark/`, workloads `engine_scan`, `engine_batch64`,
//! `service_churn`, `service_hot`).
//!
//! 1. `per_query` — one protocol run per query,
//! 2. `batched` — [`DsrEngine::set_reachability_batch_with_stats`] over
//!    fixed-size chunks (3 communication rounds per chunk instead of per
//!    query),
//! 3. `batched_wire` — the same batched runs over the serializing
//!    [`WireTransport`]: every message wire-encoded and decoded, so its
//!    reported bytes are *measured*, not estimated,
//! 4. `service_cached` — a [`QueryService`] with its LRU result cache and
//!    one closed-loop client,
//! 5. `service_batched_replay` (plus a `_wire` variant) — a deterministic
//!    replay of 64 virtual clients through the service's batch former:
//!    each wave submits 64 queries, flushes, and waits, so every wave's
//!    cache misses fuse into one shared protocol run; its counters are
//!    asserted byte-identical across both transports.
//!
//! [`run`] returns the rendered table and the text of `BENCH_throughput.json`;
//! in fast mode that text must equal the committed file, which this
//! module's test compares whole.

use dsr_sync::Arc;

use dsr_cluster::{CommStats, DynTransport, Transport, WireTransport};
use dsr_core::{DsrEngine, DsrIndex, SetQuery};
use dsr_datagen::{query_stream, ArrivalPattern, StreamConfig};
use dsr_graph::{DiGraph, VertexId};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryOptions, QueryService, QueryTicket, ServiceConfig};

use crate::experiments::common::{self, Golden, Object};
use crate::Table;

/// Number of virtual clients per replay wave.
const BATCHED_CLIENTS: usize = 64;

/// Batch-former counters of one service mode, snapshotted from
/// [`dsr_service::BatchStats`].
struct FusionInfo {
    batches: u64,
    fused_queries: u64,
    executed: u64,
    late_hits: u64,
    fusion_ratio: f64,
    mean_batch: f64,
}

/// Results of one execution mode.
struct ModeResult {
    name: &'static str,
    transport: &'static str,
    queries: usize,
    rounds: u64,
    messages: u64,
    bytes: u64,
    cache_hits: Option<u64>,
    /// Batch-former counters; only the `service_batched_replay*` modes
    /// report them.
    fusion: Option<FusionInfo>,
}

impl ModeResult {
    /// The communication counters of one mode; cache and fusion counters
    /// are for the service modes to fill in.
    fn from_comm(
        name: &'static str,
        transport: &'static str,
        queries: usize,
        stats: &CommStats,
    ) -> Self {
        let (rounds, messages, bytes) = stats.snapshot();
        ModeResult {
            name,
            transport,
            queries,
            rounds,
            messages,
            bytes,
            cache_hits: None,
            fusion: None,
        }
    }
}

/// Answers `queries` in chunks of `batch_size`, one protocol run per chunk.
fn run_batched<T: Transport>(
    engine: &DsrEngine<'_, T>,
    queries: &[SetQuery],
    batch_size: usize,
    stats: &CommStats,
) -> Vec<Vec<(VertexId, VertexId)>> {
    queries
        .chunks(batch_size)
        .flat_map(|chunk| {
            engine
                .set_reachability_batch_with_stats(chunk, stats)
                .expect("no transport of this run loses a worker")
        })
        .collect()
}

/// Deterministic replay of [`BATCHED_CLIENTS`] virtual clients: each wave
/// submits one query per client into the batch former, flushes, and waits
/// — so a wave's cache misses fuse into exactly one shared protocol run.
/// Single-threaded by construction, hence bit-reproducible counters.
fn run_batched_replay(
    index: &Arc<DsrIndex>,
    queries: &[SetQuery],
    name: &'static str,
    transport: DynTransport,
) -> ModeResult {
    let label = transport.name();
    let service = QueryService::with_config_and_transport(
        Arc::clone(index),
        ServiceConfig {
            // Waves are formed by the explicit flush, never by cap or
            // window expiry — determinism does not depend on timing.
            max_batch: usize::MAX,
            max_wait_us: 1_000_000,
            ..ServiceConfig::default()
        },
        transport,
    );
    for wave in queries.chunks(BATCHED_CLIENTS) {
        let tickets: Vec<QueryTicket> = wave
            .iter()
            .map(|q| service.submit_with(&q.sources, &q.targets, QueryOptions::default()))
            .collect::<Result<_, _>>()
            .expect("unpinned submissions wait for admission");
        service.flush();
        for ticket in tickets {
            ticket.wait().expect("transport stays up for the run");
        }
    }
    let (rounds, messages, bytes) = service.comm_stats().snapshot();
    let fusion = service.batch_stats();
    ModeResult {
        name,
        transport: label,
        queries: queries.len(),
        rounds,
        messages,
        bytes,
        cache_hits: Some(service.cache_stats().hits()),
        fusion: Some(FusionInfo {
            batches: fusion.batches(),
            fused_queries: fusion.queries(),
            executed: fusion.executed(),
            late_hits: fusion.late_hits(),
            fusion_ratio: fusion.fusion_ratio(),
            mean_batch: fusion.mean_batch_size(),
        }),
    }
}

/// Runs the experiment; returns the rendered table and the text of
/// `BENCH_throughput.json`.
pub fn run(fast: bool) -> (String, String) {
    let (graph_name, graph): (&str, DiGraph) = if fast {
        // Small deterministic web graph: the golden run is part of
        // `cargo test` and must finish in seconds.
        ("web-3k", dsr_datagen::web_graph(800, 4.0, 16, 0.7, 0xBE))
    } else {
        ("NotreDame", common::dataset("NotreDame"))
    };
    let slaves = if fast { 3 } else { common::DEFAULT_SLAVES };
    let num_queries = if fast { 512 } else { 10_000 };
    let distinct = if fast { 24 } else { 256 };
    let batch_size = if fast { 64 } else { 256 };

    let partitioning = common::partition(&graph, slaves);
    let index = Arc::new(DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs));
    let stream = query_stream(
        &graph,
        &StreamConfig {
            num_queries,
            num_sources: 10,
            num_targets: 10,
            distinct,
            skew: 0.99,
            pattern: ArrivalPattern::ClosedLoop,
            seed: 0x7B,
        },
    );
    let queries: Vec<SetQuery> = stream
        .queries()
        .map(|q| SetQuery::new(q.sources.clone(), q.targets.clone()))
        .collect();

    // --- Mode 1: per-query protocol runs. -------------------------------
    let engine = DsrEngine::new(&index);
    let per_query_stats = CommStats::new();
    let per_query_results: Vec<_> = queries
        .iter()
        .flat_map(|q| {
            engine
                .set_reachability_batch_with_stats(std::slice::from_ref(q), &per_query_stats)
                .expect("the in-process transport never fails")
        })
        .collect();
    let per_query =
        ModeResult::from_comm("per_query", "in-process", queries.len(), &per_query_stats);

    // --- Mode 2: batched protocol runs. ---------------------------------
    let batched_stats = CommStats::new();
    let batched_results = run_batched(&engine, &queries, batch_size, &batched_stats);
    assert_eq!(
        per_query_results, batched_results,
        "batched execution must agree with per-query execution"
    );
    let batched = ModeResult::from_comm("batched", "in-process", queries.len(), &batched_stats);

    // --- Mode 3: batched protocol runs over the serializing wire
    // transport (encode → decode for every message). --------------------
    let wire = WireTransport::new();
    let wire_stats = CommStats::new();
    let wire_results = run_batched(
        &DsrEngine::with_transport(&index, &wire),
        &queries,
        batch_size,
        &wire_stats,
    );
    assert_eq!(
        batched_results, wire_results,
        "wire transport must produce byte-identical answers"
    );
    assert_eq!(
        wire_stats.snapshot(),
        batched_stats.snapshot(),
        "measured wire bytes must equal the in-process accounting"
    );
    let batched_wire =
        ModeResult::from_comm("batched_wire", wire.name(), queries.len(), &wire_stats);

    // --- Mode 4: cached service, single closed-loop client. -------------
    let service = QueryService::new(Arc::clone(&index));
    for q in &queries {
        service.query(&q.sources, &q.targets);
    }
    let service_cached = ModeResult {
        cache_hits: Some(service.cache_stats().hits()),
        ..ModeResult::from_comm(
            "service_cached",
            "in-process",
            queries.len(),
            service.comm_stats(),
        )
    };
    let hit_rate = service.cache_stats().hit_rate();

    // --- Mode 5: the batch former, deterministic 64-virtual-client
    // replay, on both transports (byte-identity asserted). ----------------
    let replay = run_batched_replay(
        &index,
        &queries,
        "service_batched_replay",
        DynTransport::InProcess,
    );
    let replay_wire = run_batched_replay(
        &index,
        &queries,
        "service_batched_replay_wire",
        DynTransport::Wire,
    );
    assert_eq!(
        (replay.rounds, replay.messages, replay.bytes),
        (replay_wire.rounds, replay_wire.messages, replay_wire.bytes),
        "batch-former replay must be byte-identical across transports"
    );
    // Why the batch former exists, in counters: the same stream costs
    // fewer protocol rounds fused than answered one miss at a time.
    assert!(
        replay.rounds * 2 < replay.queries as u64,
        "batch former must stay under 0.5 rounds per query ({} rounds, {} queries)",
        replay.rounds,
        replay.queries
    );
    assert!(
        replay.rounds < service_cached.rounds,
        "batch former must run fewer rounds than the unbatched cached service ({} vs {})",
        replay.rounds,
        service_cached.rounds
    );

    let modes = [
        per_query,
        batched,
        batched_wire,
        service_cached,
        replay,
        replay_wire,
    ];

    // --- Render. --------------------------------------------------------
    let mut table = Table::new(
        &format!(
            "Serving traffic: {num_queries} queries (10x10, {distinct} distinct, zipf 0.99) on {graph_name}, {slaves} slaves"
        ),
        &[
            "Mode",
            "Transport",
            "Rounds",
            "Messages",
            "Comm (KB)",
            "Cache hits",
            "Fusion q/round",
        ],
    );
    for mode in &modes {
        table.row(vec![
            mode.name.to_string(),
            mode.transport.to_string(),
            mode.rounds.to_string(),
            mode.messages.to_string(),
            format!("{:.1}", mode.bytes as f64 / 1024.0),
            mode.cache_hits
                .map_or_else(|| "-".to_string(), |h| h.to_string()),
            mode.fusion
                .as_ref()
                .map_or_else(|| "-".to_string(), |f| format!("{:.1}", f.fusion_ratio)),
        ]);
    }

    let json = render_json(
        fast,
        graph_name,
        &graph,
        slaves,
        &StreamSummary {
            num_queries,
            distinct,
            batch_size,
        },
        &modes,
        hit_rate,
    );
    (table.render(), json)
}

struct StreamSummary {
    num_queries: usize,
    distinct: usize,
    batch_size: usize,
}

fn render_json(
    fast: bool,
    graph_name: &str,
    graph: &DiGraph,
    slaves: usize,
    stream: &StreamSummary,
    modes: &[ModeResult],
    hit_rate: f64,
) -> String {
    // Look modes up by name so inserting or reordering a mode cannot
    // silently attribute one mode's numbers to another.
    let mode = |name: &str| {
        modes
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("mode {name} present"))
    };
    // Measured serialized traffic of the wire-transport mode: bytes per
    // communication round actually encoded.
    let wire_mode = mode("batched_wire");
    let wire_bytes_per_round = wire_mode.bytes as f64 / wire_mode.rounds.max(1) as f64;
    // The batch former, from the deterministic replay (identical counters
    // on both transports, asserted at run time): the fusion ratio
    // shows how many queries each fused scatter/exchange/gather run
    // amortizes.
    let replay_mode = mode("service_batched_replay");
    let replay_fusion = replay_mode
        .fusion
        .as_ref()
        .expect("replay mode records fusion counters");
    let rounds_per_query = replay_mode.rounds as f64 / replay_mode.queries.max(1) as f64;
    Golden::new("throughput", fast)
        .field(
            "graph",
            Object::new()
                .text("name", graph_name)
                .field("vertices", graph.num_vertices())
                .field("edges", graph.num_edges())
                .field("slaves", slaves),
        )
        .field(
            "workload",
            Object::new()
                .field("num_queries", stream.num_queries)
                .field("distinct", stream.distinct)
                .field("skew", 0.99)
                .field("sources", 10)
                .field("targets", 10)
                .field("batch_size", stream.batch_size),
        )
        .field("cache_hit_rate", format_args!("{hit_rate:.4}"))
        .field(
            "wire",
            Object::new()
                .field("bytes_per_round", format_args!("{wire_bytes_per_round:.1}"))
                .field("rounds", wire_mode.rounds)
                .field("bytes", wire_mode.bytes),
        )
        .field(
            "service_batched",
            Object::new()
                .field("rounds", replay_mode.rounds)
                .field("messages", replay_mode.messages)
                .field("bytes", replay_mode.bytes)
                .field("rounds_per_query", format_args!("{rounds_per_query:.4}"))
                .field(
                    "fusion_ratio",
                    format_args!("{:.2}", replay_fusion.fusion_ratio),
                )
                .field("bytes_identical", true),
        )
        .array(
            "modes",
            modes.iter().map(|mode| {
                let mut row = Object::new()
                    .text("name", mode.name)
                    .text("transport", mode.transport)
                    .field("queries", mode.queries)
                    .field("rounds", mode.rounds)
                    .field("messages", mode.messages)
                    .field("bytes", mode.bytes);
                if let Some(hits) = mode.cache_hits {
                    row = row.field("cache_hits", hits);
                }
                if let Some(f) = &mode.fusion {
                    row = row
                        .field("fused_batches", f.batches)
                        .field("fused_queries", f.fused_queries)
                        .field("executed", f.executed)
                        .field("late_hits", f.late_hits)
                        .field("fusion_ratio", format_args!("{:.2}", f.fusion_ratio))
                        .field("mean_batch", format_args!("{:.2}", f.mean_batch));
                }
                row
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
        for mode in [
            "per_query",
            "batched_wire",
            "service_cached",
            "service_batched_replay_wire",
        ] {
            assert!(table.contains(mode), "{mode} row rendered:\n{table}");
        }
        common::assert_golden(
            "throughput",
            include_str!("../../../../BENCH_throughput.json"),
            &json,
        );
    }
}
