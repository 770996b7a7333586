//! Serving-layer throughput experiment.
//!
//! Not a table of the paper — the paper stops at per-query latency — but
//! the direct consequence of its claim: with communication bounded at 3
//! rounds per query, the way to serve heavy traffic is to amortize those
//! rounds across a *batch* of queries and to cache repeated answers. This
//! experiment replays a Zipf-skewed query stream (see
//! [`dsr_datagen::workload::query_stream`]) in five execution modes over
//! the same index:
//!
//! 1. `per_query` — the historical one-protocol-run-per-query path,
//! 2. `batched` — [`DsrEngine::set_reachability_batch`] over fixed-size
//!    chunks (3 communication rounds per chunk instead of per query),
//! 3. `batched_wire` — the same batched runs over the serializing
//!    [`WireTransport`]: every message wire-encoded and decoded, so the
//!    mode measures the overhead of the codec (and its reported bytes are
//!    *measured*, not estimated),
//! 4. `batched_tcp` — the same batched runs over a loopback
//!    [`TcpTransport`] cluster: every frame
//!    takes the master → worker → worker → master route over real
//!    sockets, asserting the deployment backend stays byte-identical,
//! 5. `service_cached` — a [`QueryService`] with its LRU result cache,
//! 6. `service_concurrent` — the same service hammered by 8 closed-loop
//!    client threads,
//! 7. `service_batched_replay` (plus `_wire` / `_tcp` variants) — a
//!    deterministic replay of 64 virtual clients through the service's
//!    batch former: each wave submits 64 queries, flushes, and waits, so
//!    every wave's cache misses fuse into one shared protocol run. Being
//!    single-threaded, its counters are bit-reproducible and asserted
//!    byte-identical across all three transports — the `bench_diff`
//!    regression gate rides on them,
//! 8. `service_batched_8` / `service_batched_64` — the batch former under
//!    real closed-loop client threads, with p50/p99 per-query latency.
//!    Their counters depend on thread scheduling (how many misses land in
//!    one forming window) and are informational.
//!
//! Besides the rendered table, the run writes a machine-readable
//! `BENCH_throughput.json` (into `$DSR_BENCH_DIR` or the working
//! directory) so CI can archive the per-PR throughput trajectory — now
//! including the measured wire bytes per communication round and the
//! batch former's fusion counters.

use dsr_sync::Arc;
use std::time::Duration;

use dsr_cluster::{CommStats, TcpTransport, Transport, TransportKind, WireTransport};
use dsr_core::{DsrEngine, DsrIndex, SetQuery};
use dsr_datagen::{query_stream, ArrivalPattern, StreamConfig};
use dsr_graph::DiGraph;
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryService, QueryTicket, ServiceConfig};

use crate::experiments::common;
use crate::{secs, time, Table};

/// Number of virtual clients per replay wave (and of real client threads
/// in the largest threaded mode).
const BATCHED_CLIENTS: usize = 64;

/// Batch-former counters of one service mode, snapshotted from
/// [`dsr_cluster::BatchStats`].
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
    elapsed: Duration,
    rounds: u64,
    messages: u64,
    bytes: u64,
    cache_hits: Option<u64>,
    /// Per-query latency percentiles (closed-loop client view); only the
    /// service modes that track per-query timestamps report them.
    latency: Option<(Duration, Duration)>,
    /// Batch-former counters; only the `service_batched_*` modes report
    /// them.
    fusion: Option<FusionInfo>,
}

impl ModeResult {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn fusion_info(service: &QueryService) -> FusionInfo {
    let stats = service.batch_stats();
    FusionInfo {
        batches: stats.batches(),
        fused_queries: stats.queries(),
        executed: stats.executed(),
        late_hits: stats.late_hits(),
        fusion_ratio: stats.fusion_ratio(),
        mean_batch: stats.mean_batch_size(),
    }
}

/// Deterministic replay of [`BATCHED_CLIENTS`] virtual clients: each wave
/// submits one query per client into the batch former, flushes, and waits
/// — so a wave's cache misses fuse into exactly one shared protocol run.
/// Single-threaded by construction, hence bit-reproducible counters.
fn run_batched_replay(
    index: &Arc<DsrIndex>,
    queries: &[SetQuery],
    name: &'static str,
    transport: TransportKind,
) -> ModeResult {
    let service = QueryService::with_config(
        Arc::clone(index),
        ServiceConfig {
            transport,
            // Waves are formed by the explicit flush, never by cap or
            // window expiry — determinism does not depend on timing.
            max_batch: usize::MAX,
            max_wait_us: 1_000_000,
            ..ServiceConfig::default()
        },
    );
    let (_, elapsed) = time(|| {
        for wave in queries.chunks(BATCHED_CLIENTS) {
            let tickets: Vec<QueryTicket> = wave
                .iter()
                .map(|q| service.submit(&q.sources, &q.targets))
                .collect();
            service.flush();
            for ticket in tickets {
                std::hint::black_box(ticket.wait().expect("transport stays up for the run"));
            }
        }
    });
    let (rounds, messages, bytes) = service.comm_stats().snapshot();
    ModeResult {
        name,
        transport: match transport {
            TransportKind::InProcess => "in-process",
            TransportKind::Wire => "wire",
            TransportKind::Tcp => "tcp",
        },
        queries: queries.len(),
        elapsed,
        rounds,
        messages,
        bytes,
        cache_hits: Some(service.cache_stats().hits()),
        latency: None,
        fusion: Some(fusion_info(&service)),
    }
}

/// The batch former under `clients` real closed-loop client threads, with
/// per-query latency percentiles. Counters depend on thread scheduling
/// (how many misses meet in one forming window) — informational only.
fn run_batched_threaded(
    index: &Arc<DsrIndex>,
    queries: &[SetQuery],
    name: &'static str,
    clients: usize,
) -> ModeResult {
    let service = QueryService::new(Arc::clone(index));
    let mut latencies: Vec<Duration> = Vec::with_capacity(queries.len());
    let (_, elapsed) = time(|| {
        dsr_sync::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let service = &service;
                    scope.spawn(move || {
                        let mut lat = Vec::new();
                        for q in queries.iter().skip(client).step_by(clients) {
                            let start = std::time::Instant::now();
                            std::hint::black_box(service.query(&q.sources, &q.targets));
                            lat.push(start.elapsed());
                        }
                        lat
                    })
                })
                .collect();
            for handle in handles {
                latencies.extend(handle.join().expect("client thread panicked"));
            }
        });
    });
    latencies.sort_unstable();
    let percentile = |p: usize| latencies[(latencies.len() * p / 100).min(latencies.len() - 1)];
    let (rounds, messages, bytes) = service.comm_stats().snapshot();
    ModeResult {
        name,
        transport: "in-process",
        queries: queries.len(),
        elapsed,
        rounds,
        messages,
        bytes,
        cache_hits: Some(service.cache_stats().hits()),
        latency: Some((percentile(50), percentile(99))),
        fusion: Some(fusion_info(&service)),
    }
}

/// Runs the experiment, renders the table and writes `BENCH_throughput.json`.
pub fn run(fast: bool) -> String {
    let (graph_name, graph): (&str, DiGraph) = if fast {
        // Small deterministic web graph so the CI bench-smoke job finishes
        // in seconds.
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
    let (per_query_results, per_query_time) = time(|| {
        queries
            .iter()
            .map(|q| engine.set_reachability_with_stats(&q.sources, &q.targets, &per_query_stats))
            .collect::<Vec<_>>()
    });
    let (rounds, messages, bytes) = per_query_stats.snapshot();
    let per_query = ModeResult {
        name: "per_query",
        transport: "in-process",
        queries: queries.len(),
        elapsed: per_query_time,
        rounds,
        messages,
        bytes,
        cache_hits: None,
        latency: None,
        fusion: None,
    };

    // --- Mode 2: batched protocol runs. ---------------------------------
    let batched_stats = CommStats::new();
    let (batched_results, batched_time) = time(|| {
        queries
            .chunks(batch_size)
            .flat_map(|chunk| {
                engine
                    .set_reachability_batch_with_stats(chunk, &batched_stats)
                    .expect("in-process transport never fails")
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(
        per_query_results, batched_results,
        "batched execution must agree with per-query execution"
    );
    let (rounds, messages, bytes) = batched_stats.snapshot();
    let batched = ModeResult {
        name: "batched",
        transport: "in-process",
        queries: queries.len(),
        elapsed: batched_time,
        rounds,
        messages,
        bytes,
        cache_hits: None,
        latency: None,
        fusion: None,
    };

    // --- Mode 3: batched protocol runs over the serializing wire
    // transport (encode → decode for every message). --------------------
    let wire = WireTransport::new();
    let wire_engine = DsrEngine::with_transport(&index, &wire);
    let wire_stats = CommStats::new();
    let (wire_results, wire_time) = time(|| {
        queries
            .chunks(batch_size)
            .flat_map(|chunk| {
                wire_engine
                    .set_reachability_batch_with_stats(chunk, &wire_stats)
                    .expect("wire transport never fails in-process")
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(
        batched_results, wire_results,
        "wire transport must produce byte-identical answers"
    );
    let (rounds, messages, bytes) = wire_stats.snapshot();
    assert_eq!(
        (rounds, messages, bytes),
        batched_stats.snapshot(),
        "measured wire bytes must equal the in-process accounting"
    );
    let batched_wire = ModeResult {
        name: "batched_wire",
        transport: wire.name(),
        queries: queries.len(),
        elapsed: wire_time,
        rounds,
        messages,
        bytes,
        cache_hits: None,
        latency: None,
        fusion: None,
    };

    // --- Mode 3b: batched protocol runs over a loopback TCP cluster
    // (every frame crosses real sockets and worker endpoints). ------------
    let tcp = TcpTransport::loopback();
    let tcp_engine = DsrEngine::with_transport(&index, &tcp);
    let tcp_stats = CommStats::new();
    let (tcp_results, tcp_time) = time(|| {
        queries
            .chunks(batch_size)
            .flat_map(|chunk| {
                tcp_engine
                    .set_reachability_batch_with_stats(chunk, &tcp_stats)
                    .expect("loopback tcp cluster stays up for the run")
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(
        batched_results, tcp_results,
        "tcp transport must produce byte-identical answers"
    );
    let (rounds, messages, bytes) = tcp_stats.snapshot();
    assert_eq!(
        (rounds, messages, bytes),
        batched_stats.snapshot(),
        "tcp bytes must equal the in-process accounting"
    );
    let batched_tcp = ModeResult {
        name: "batched_tcp",
        transport: tcp.name(),
        queries: queries.len(),
        elapsed: tcp_time,
        rounds,
        messages,
        bytes,
        cache_hits: None,
        latency: None,
        fusion: None,
    };

    // --- Mode 4: cached service, single closed-loop client. -------------
    let service = QueryService::new(Arc::clone(&index));
    let (_, service_time) = time(|| {
        for q in &queries {
            std::hint::black_box(service.query(&q.sources, &q.targets));
        }
    });
    let (rounds, messages, bytes) = service.comm_stats().snapshot();
    let service_cached = ModeResult {
        name: "service_cached",
        transport: "in-process",
        queries: queries.len(),
        elapsed: service_time,
        rounds,
        messages,
        bytes,
        cache_hits: Some(service.cache_stats().hits()),
        latency: None,
        fusion: None,
    };
    let hit_rate = service.cache_stats().hit_rate();

    // --- Mode 5: cached service, 8 closed-loop clients. -----------------
    let concurrent_service = QueryService::new(Arc::clone(&index));
    let num_clients = 8;
    let (_, concurrent_time) = time(|| {
        dsr_sync::thread::scope(|scope| {
            for client in 0..num_clients {
                let service = &concurrent_service;
                let queries = &queries;
                scope.spawn(move || {
                    for q in queries.iter().skip(client).step_by(num_clients) {
                        std::hint::black_box(service.query(&q.sources, &q.targets));
                    }
                });
            }
        });
    });
    let (rounds, messages, bytes) = concurrent_service.comm_stats().snapshot();
    let service_concurrent = ModeResult {
        name: "service_concurrent",
        transport: "in-process",
        queries: queries.len(),
        elapsed: concurrent_time,
        rounds,
        messages,
        bytes,
        cache_hits: Some(concurrent_service.cache_stats().hits()),
        latency: None,
        fusion: None,
    };

    // --- Mode 6: the batch former, deterministic 64-virtual-client
    // replay, on all three transports (byte-identity asserted). -----------
    let replay = run_batched_replay(
        &index,
        &queries,
        "service_batched_replay",
        TransportKind::InProcess,
    );
    let replay_wire = run_batched_replay(
        &index,
        &queries,
        "service_batched_replay_wire",
        TransportKind::Wire,
    );
    let replay_tcp = run_batched_replay(
        &index,
        &queries,
        "service_batched_replay_tcp",
        TransportKind::Tcp,
    );
    for other in [&replay_wire, &replay_tcp] {
        assert_eq!(
            (replay.rounds, replay.messages, replay.bytes),
            (other.rounds, other.messages, other.bytes),
            "batch-former replay must be byte-identical across transports ({})",
            other.name
        );
    }

    // --- Mode 7: the batch former under real client threads. -------------
    let batched_8 = run_batched_threaded(&index, &queries, "service_batched_8", 8);
    let batched_64 = run_batched_threaded(&index, &queries, "service_batched_64", BATCHED_CLIENTS);

    let modes = [
        per_query,
        batched,
        batched_wire,
        batched_tcp,
        service_cached,
        service_concurrent,
        replay,
        replay_wire,
        replay_tcp,
        batched_8,
        batched_64,
    ];

    // --- Render. --------------------------------------------------------
    let mut table = Table::new(
        &format!(
            "Throughput: {num_queries} queries (10x10, {distinct} distinct, zipf 0.99) on {graph_name}, {slaves} slaves"
        ),
        &[
            "Mode",
            "Transport",
            "Time (s)",
            "QPS",
            "Rounds",
            "Messages",
            "Comm (KB)",
            "Cache hits",
            "p50/p99 (us)",
            "Fusion q/round",
        ],
    );
    for mode in &modes {
        table.row(vec![
            mode.name.to_string(),
            mode.transport.to_string(),
            secs(mode.elapsed),
            format!("{:.0}", mode.qps()),
            mode.rounds.to_string(),
            mode.messages.to_string(),
            format!("{:.1}", mode.bytes as f64 / 1024.0),
            mode.cache_hits
                .map_or_else(|| "-".to_string(), |h| h.to_string()),
            mode.latency.map_or_else(
                || "-".to_string(),
                |(p50, p99)| format!("{}/{}", p50.as_micros(), p99.as_micros()),
            ),
            mode.fusion
                .as_ref()
                .map_or_else(|| "-".to_string(), |f| format!("{:.1}", f.fusion_ratio)),
        ]);
    }
    let mut out = table.render();

    let json = render_json(
        fast,
        graph_name,
        &graph,
        slaves,
        &stream_summary(num_queries, distinct, batch_size),
        &modes,
        hit_rate,
    );
    match write_json(&json) {
        Ok(path) => out.push_str(&format!("\nwrote {path}\n")),
        Err(err) => out.push_str(&format!("\nfailed to write BENCH_throughput.json: {err}\n")),
    }
    out
}

struct StreamSummary {
    num_queries: usize,
    distinct: usize,
    batch_size: usize,
}

fn stream_summary(num_queries: usize, distinct: usize, batch_size: usize) -> StreamSummary {
    StreamSummary {
        num_queries,
        distinct,
        batch_size,
    }
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
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"throughput\",\n");
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str(&format!(
        "  \"graph\": {{\"name\": \"{graph_name}\", \"vertices\": {}, \"edges\": {}, \"slaves\": {slaves}}},\n",
        graph.num_vertices(),
        graph.num_edges()
    ));
    json.push_str(&format!(
        "  \"workload\": {{\"num_queries\": {}, \"distinct\": {}, \"skew\": 0.99, \"sources\": 10, \"targets\": 10, \"batch_size\": {}}},\n",
        stream.num_queries, stream.distinct, stream.batch_size
    ));
    json.push_str(&format!("  \"cache_hit_rate\": {hit_rate:.4},\n"));
    // Look modes up by name so inserting or reordering a mode cannot
    // silently attribute one mode's numbers to another in the archived JSON.
    let mode = |name: &str| {
        modes
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("mode {name} present"))
    };
    let per_query_secs = mode("per_query").elapsed.as_secs_f64();
    let batched_secs = mode("batched").elapsed.as_secs_f64();
    let batched_speedup = per_query_secs / batched_secs.max(1e-9);
    let cached_speedup = per_query_secs / mode("service_cached").elapsed.as_secs_f64().max(1e-9);
    json.push_str(&format!(
        "  \"speedup\": {{\"batched_vs_per_query\": {batched_speedup:.3}, \"cached_vs_per_query\": {cached_speedup:.3}}},\n"
    ));
    // Measured serialized traffic of the wire-transport mode: bytes per
    // communication round actually encoded, plus the
    // slowdown relative to the zero-copy in-process backend.
    let wire_mode = mode("batched_wire");
    let wire_bytes_per_round = wire_mode.bytes as f64 / wire_mode.rounds.max(1) as f64;
    let wire_overhead = wire_mode.elapsed.as_secs_f64() / batched_secs.max(1e-9);
    json.push_str(&format!(
        "  \"wire\": {{\"bytes_per_round\": {wire_bytes_per_round:.1}, \"rounds\": {}, \"bytes\": {}, \"overhead_vs_in_process\": {wire_overhead:.3}}},\n",
        wire_mode.rounds, wire_mode.bytes
    ));
    // The TCP deployment backend: same deterministic counters (asserted
    // byte-identical at run time), its own wall-clock overhead.
    let tcp_mode = mode("batched_tcp");
    let tcp_overhead = tcp_mode.elapsed.as_secs_f64() / batched_secs.max(1e-9);
    json.push_str(&format!(
        "  \"tcp\": {{\"rounds\": {}, \"bytes\": {}, \"overhead_vs_in_process\": {tcp_overhead:.3}, \"bytes_identical\": true}},\n",
        tcp_mode.rounds, tcp_mode.bytes
    ));
    // The batch former, from the deterministic replay (identical counters
    // on all three transports, asserted at run time): rounds and bytes are
    // regression-gated, the fusion ratio shows how many queries each fused
    // scatter/exchange/gather run amortizes.
    let replay_mode = mode("service_batched_replay");
    let replay_fusion = replay_mode
        .fusion
        .as_ref()
        .expect("replay mode records fusion counters");
    let rounds_per_query = replay_mode.rounds as f64 / replay_mode.queries.max(1) as f64;
    json.push_str(&format!(
        "  \"service_batched\": {{\"rounds\": {}, \"messages\": {}, \"bytes\": {}, \"rounds_per_query\": {rounds_per_query:.4}, \"fusion_ratio\": {:.2}, \"bytes_identical\": true}},\n",
        replay_mode.rounds, replay_mode.messages, replay_mode.bytes, replay_fusion.fusion_ratio
    ));
    json.push_str("  \"modes\": [\n");
    for (i, mode) in modes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"transport\": \"{}\", \"queries\": {}, \"seconds\": {:.6}, \"qps\": {:.1}, \"rounds\": {}, \"messages\": {}, \"bytes\": {}{}{}{}}}{}\n",
            mode.name,
            mode.transport,
            mode.queries,
            mode.elapsed.as_secs_f64(),
            mode.qps(),
            mode.rounds,
            mode.messages,
            mode.bytes,
            mode.cache_hits
                .map_or_else(String::new, |h| format!(", \"cache_hits\": {h}")),
            mode.latency.map_or_else(String::new, |(p50, p99)| format!(
                ", \"p50_us\": {}, \"p99_us\": {}",
                p50.as_micros(),
                p99.as_micros()
            )),
            mode.fusion.as_ref().map_or_else(String::new, |f| format!(
                ", \"fused_batches\": {}, \"fused_queries\": {}, \"executed\": {}, \"late_hits\": {}, \"fusion_ratio\": {:.2}, \"mean_batch\": {:.2}",
                f.batches, f.fused_queries, f.executed, f.late_hits, f.fusion_ratio, f.mean_batch
            )),
            if i + 1 == modes.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

fn write_json(json: &str) -> std::io::Result<String> {
    common::write_bench_json("BENCH_throughput.json", json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_table_and_json() {
        let out = run(true);
        assert!(out.contains("per_query"));
        assert!(out.contains("batched"));
        assert!(out.contains("batched_wire"));
        assert!(out.contains("batched_tcp"));
        assert!(out.contains("service_cached"));
        assert!(out.contains("service_concurrent"));
        assert!(out.contains("service_batched_replay"));
        assert!(out.contains("service_batched_replay_wire"));
        assert!(out.contains("service_batched_replay_tcp"));
        assert!(out.contains("service_batched_8"));
        assert!(out.contains("service_batched_64"));
        assert!(
            out.contains("BENCH_throughput.json"),
            "json path reported:\n{out}"
        );
        // The file was written where the experiment says it was.
        let line = out
            .lines()
            .find(|l| l.starts_with("wrote "))
            .expect("wrote line present");
        let path = line.trim_start_matches("wrote ");
        let json = std::fs::read_to_string(path).expect("json readable");
        assert!(json.contains("\"experiment\": \"throughput\""));
        assert!(json.contains("\"batched_vs_per_query\""));
        assert!(json.contains("\"cache_hits\""));
        assert!(
            json.contains("\"wire\": {\"bytes_per_round\":"),
            "measured wire bytes/round reported:\n{json}"
        );
        assert!(json.contains("\"transport\": \"wire\""));
        assert!(json.contains("\"transport\": \"tcp\""));
        assert!(json.contains("\"bytes_identical\": true"));
        // The batch-former section and its per-mode counters made it into
        // the archive: deterministic fusion gates plus latency percentiles.
        assert!(
            json.contains("\"service_batched\": {\"rounds\":"),
            "batch-former summary reported:\n{json}"
        );
        assert!(json.contains("\"rounds_per_query\""));
        assert!(json.contains("\"fused_batches\""));
        assert!(json.contains("\"fused_queries\""));
        assert!(json.contains("\"fusion_ratio\""));
        assert!(json.contains("\"p50_us\""));
        assert!(json.contains("\"p99_us\""));
    }
}
