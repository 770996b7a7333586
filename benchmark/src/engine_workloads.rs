//! The three workloads that call `DsrEngine` directly, one closed-loop
//! client each: `engine_scan`, `engine_batch64` and `tcp_point`.
//!
//! They share one driver and differ in graph size, queries per call and
//! transport, which is what moves the work between `dsr-core`/`dsr-reach`
//! (the two in-process workloads) and `dsr-cluster` (`tcp_point`).

use std::time::{Duration, Instant};

use dsr_cluster::{CommStats, InProcess, TcpTransport, Transport};
use dsr_core::{DsrEngine, DsrIndex, SetQuery};
use dsr_graph::DiGraph;

use crate::host::HostClock;
use crate::inputs::{build_indexed, query_pool, round_seed, SetupTimings, PARTITIONS};
use crate::oracle::{Oracle, Pair};
use crate::timed::{Timed, WireProbe};
use crate::trace::{children_ns, total_ns, Recorder};
use crate::{layers, proc, Config, Measured, Outcome, Slice, Until, SETUPS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineWorkload {
    Scan,
    Batch64,
    TcpPoint,
}

struct Params {
    vertices: usize,
    /// Distinct queries generated; the driver wraps around when a run
    /// outlasts them (nothing caches answers at this layer).
    pool: usize,
    /// Queries per engine call.
    batch: usize,
    /// Untimed calls that end set-up: they bring up the slave pool and the
    /// TCP mesh and fault the index in.
    warmup_requests: usize,
    tcp: bool,
}

impl EngineWorkload {
    fn params(self, config: &Config) -> Params {
        match self {
            EngineWorkload::Scan => Params {
                vertices: config.scaled(3000, 64),
                pool: config.scaled(4096, 64),
                batch: 1,
                warmup_requests: config.scaled(50, 4),
                tcp: false,
            },
            EngineWorkload::Batch64 => Params {
                vertices: config.scaled(3000, 64),
                pool: config.scaled(6400, 128),
                batch: 64,
                warmup_requests: config.scaled(2, 1),
                tcp: false,
            },
            EngineWorkload::TcpPoint => Params {
                vertices: config.scaled(800, 64),
                pool: config.scaled(8192, 64),
                batch: 1,
                warmup_requests: config.scaled(200, 8),
                tcp: true,
            },
        }
    }
}

/// Queries of the traced run's probe pass.
const PROBE_QUERIES: usize = 64;

/// Everything set-up produces.
struct Prepared {
    graph: DiGraph,
    index: DsrIndex,
    pool: Vec<SetQuery>,
    tcp: Option<TcpTransport>,
    timings: SetupTimings,
    /// Next pool position; carried across sections so that each sees fresh
    /// queries of the same distribution.
    cursor: usize,
}

/// One engine call.
struct Request {
    first_query: usize,
    latency_ns: u64,
    /// Per-query answers, or the transport error.
    answers: Result<Vec<Vec<Pair>>, String>,
}

/// One driven section.
struct Section {
    requests: Vec<Request>,
    elapsed: Duration,
    /// Rounds, messages and bytes recorded by the engine's `CommStats`.
    comm: (u64, u64, u64),
    cpu_us: f64,
}

impl Section {
    fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.requests.iter().map(|r| r.latency_ns as f64 / 1e6)
    }
}

/// The closed loop: the next call is issued when the previous one returned.
fn drive<T: Transport>(
    engine: &DsrEngine<'_, T>,
    pool: &[SetQuery],
    batch: usize,
    cursor: &mut usize,
    until: Until,
    recorder: Option<&Recorder>,
) -> Section {
    let stats = CommStats::new();
    let mut requests = Vec::new();
    let cpu_before = proc::cpu_us();
    let start = Instant::now();
    while !until.reached(requests.len(), start) {
        if *cursor + batch > pool.len() {
            *cursor = 0;
        }
        let first_query = *cursor;
        let queries = &pool[first_query..first_query + batch];
        *cursor += batch;

        let _request = recorder.map(Recorder::request);
        let _engine = recorder.map(|r| r.span("core.engine.batch"));
        let called = Instant::now();
        let answers = engine.set_reachability_batch_with_stats(queries, &stats);
        let latency_ns = called.elapsed().as_nanos() as u64;
        requests.push(Request {
            first_query,
            latency_ns,
            answers: answers.map_err(|err| err.to_string()),
        });
    }
    Section {
        requests,
        elapsed: start.elapsed(),
        comm: stats.snapshot(),
        cpu_us: proc::cpu_us() - cpu_before,
    }
}

/// What a traced section records into: the span recorder and, in the probe
/// pass, the wire probe.
type Tracing<'a> = (&'a Recorder, Option<&'a WireProbe>);

/// Drives a section over `transport`, decorated with [`Timed`] when traced.
fn drive_over<T: Transport>(
    transport: T,
    prepared: &mut Prepared,
    batch: usize,
    until: Until,
    traced: Option<Tracing<'_>>,
) -> Section {
    let Prepared {
        index,
        pool,
        cursor,
        ..
    } = prepared;
    match traced {
        None => {
            let engine = DsrEngine::with_transport(index, transport);
            drive(&engine, pool, batch, cursor, until, None)
        }
        Some((recorder, probe)) => {
            let timed = Timed::new(transport, recorder, probe);
            let engine = DsrEngine::with_transport(index, timed);
            drive(&engine, pool, batch, cursor, until, Some(recorder))
        }
    }
}

/// Drives a section over the workload's transport.
fn drive_prepared(
    prepared: &mut Prepared,
    batch: usize,
    until: Until,
    traced: Option<Tracing<'_>>,
) -> Section {
    // The transport outlives the section; it is taken out so that the rest
    // of `prepared` can be borrowed mutably beside it.
    match prepared.tcp.take() {
        None => drive_over(InProcess, prepared, batch, until, traced),
        Some(tcp) => {
            let section = drive_over(&tcp, prepared, batch, until, traced);
            prepared.tcp = Some(tcp);
            section
        }
    }
}

fn prepare(config: &Config, params: &Params, round: usize) -> Prepared {
    let seed = round_seed(config.seed, round);
    let indexed = build_indexed(seed, params.vertices);
    let pool = query_pool(&indexed.graph, params.pool, seed);
    let mut prepared = Prepared {
        graph: indexed.graph,
        index: indexed.index,
        pool,
        tcp: params.tcp.then(TcpTransport::loopback),
        timings: indexed.timings,
        cursor: 0,
    };
    let warmup = Until::Requests(params.warmup_requests);
    std::hint::black_box(drive_prepared(&mut prepared, params.batch, warmup, None));
    prepared
}

/// Checks every collected answer against BFS on the plain graph. Returns
/// the number of correct queries and of failed requests (errored, or with
/// at least one wrong answer).
fn verify(pool: &[SetQuery], oracle: &mut Oracle<'_>, section: &Section) -> (u64, u64) {
    let (mut correct_queries, mut failed_requests) = (0u64, 0u64);
    for request in &section.requests {
        let Ok(answers) = &request.answers else {
            failed_requests += 1;
            continue;
        };
        let wrong = answers
            .iter()
            .zip(&pool[request.first_query..])
            .filter(|(answer, query)| **answer != oracle.expected(&query.sources, &query.targets))
            .count() as u64;
        correct_queries += answers.len() as u64 - wrong;
        failed_requests += u64::from(wrong > 0);
    }
    (correct_queries, failed_requests)
}

/// Falsifies the first collected answer.
fn corrupt(section: &mut Section) {
    if let Some(Ok(answers)) = section.requests.first_mut().map(|r| &mut r.answers) {
        answers[0].push((u32::MAX, u32::MAX));
    }
}

/// What the traced sections of all rounds add up to.
#[derive(Default)]
struct Traced {
    queries: u64,
    reference_s: f64,
}

pub fn run(workload: EngineWorkload, config: &Config) -> Outcome {
    let params = workload.params(config);
    let mut outcome = Outcome::default();
    let (mut plain, mut traced) = (Measured::default(), Traced::default());
    let mut host = HostClock::default();
    let recorder = Recorder::new(Instant::now());
    let slice = config.measured() / SETUPS as u32;

    // Each round sets up on a graph of its own and measures its share of the
    // time: per-query cost differs by some 8 % between graphs of one size,
    // so a run averages over several and `setup_s` is their median.
    let mut last: Option<Prepared> = None;
    for round in 0..SETUPS {
        drop(last.take());
        let (mut prepared, wall, index) = host.around(|| prepare(config, &params, round));
        plain.add_setup(wall, index);

        // A traced run spends half of each slice untraced: the reference
        // for the tracing overhead and for the demoted end-to-end numbers.
        let mut sliced = |total: Duration, traced: Option<Tracing<'_>>| {
            host.sliced(total, |until| {
                let section = drive_prepared(&mut prepared, params.batch, until, traced);
                let elapsed = section.elapsed;
                (section, elapsed)
            })
        };
        let mut plain_sections = sliced(if config.trace { slice / 2 } else { slice }, None);
        let traced_sections = if config.trace {
            sliced(slice / 2, Some((&recorder, None)))
        } else {
            Vec::new()
        };
        if config.corrupt && round == 0 {
            corrupt(&mut plain_sections[0].0);
        }

        let mut oracle = Oracle::new(&prepared.graph);
        for (section, index) in &plain_sections {
            let (correct, failed) = verify(&prepared.pool, &mut oracle, section);
            outcome.attempted += section.requests.len() as u64;
            outcome.failed += failed;
            plain.add_slice(Slice {
                index: *index,
                wall: section.elapsed,
                cpu_us: section.cpu_us,
                queries: (section.requests.len() * params.batch) as u64,
                correct_queries: correct,
                latencies_ms: section.latencies_ms(),
            });
        }
        for (section, index) in &traced_sections {
            let (_, failed) = verify(&prepared.pool, &mut oracle, section);
            outcome.attempted += section.requests.len() as u64;
            outcome.failed += failed;
            traced.queries += (section.requests.len() * params.batch) as u64;
            traced.reference_s += section.elapsed.as_secs_f64() / index;
        }
        drop(oracle);
        last = Some(prepared);
    }
    let peak_rss_mb = proc::peak_rss_mb();
    let mut prepared = last.expect("at least one set-up");
    plain.finish();
    outcome.note("vertices", prepared.graph.num_vertices());
    outcome.note("edges", prepared.graph.num_edges());
    outcome.note("partitions", PARTITIONS);
    outcome.note("query_pool", prepared.pool.len());
    outcome.note("queries_per_request", params.batch);
    outcome.note("clients", 1);
    let transport = if params.tcp {
        "tcp-loopback"
    } else {
        "in-process"
    };
    outcome.note("transport", transport);
    outcome.note("setups", SETUPS);
    outcome.note("request_samples", plain.latencies_ms.len());
    outcome.note("host_speed_index", format!("{:.3}", plain.speed_index()));

    let metrics = &mut outcome.metrics;
    if !config.trace {
        plain.end_to_end(metrics, peak_rss_mb);
        return outcome;
    }

    let spans = recorder.into_spans();
    let queries = traced.queries.max(1) as f64;
    plain.reference(
        metrics,
        outcome.failed,
        outcome.attempted,
        traced.reference_s * 1e6 / queries,
    );
    let per_query_us = |name: &str| total_ns(&spans, name) as f64 / 1e3 / queries;
    let engine_ns = total_ns(&spans, "core.engine.batch") as f64;
    let transport_ns = children_ns(&spans, "core.engine.batch") as f64;
    metrics.insert(
        "cluster.scatter_us_per_query",
        per_query_us("cluster.scatter"),
    );
    metrics.insert(
        "cluster.exchange_us_per_query",
        per_query_us("cluster.exchange"),
    );
    metrics.insert(
        "cluster.gather_us_per_query",
        per_query_us("cluster.gather"),
    );
    metrics.insert("cluster.transport_share", transport_ns / engine_ns.max(1.0));
    metrics.insert(
        "core.engine.self_us_per_query",
        (engine_ns - transport_ns) / 1e3 / queries,
    );
    metrics.insert(
        "cluster.failover_retries",
        prepared
            .tcp
            .as_ref()
            .map_or(0.0, |tcp| tcp.failover_stats().retries() as f64),
    );

    // Probe pass over the first 64 queries of the last round's pool. Being
    // the same queries on the same graph whenever the seed is the same, it
    // makes the protocol's counts repeat exactly; and the decorator encodes
    // and keeps its messages, so the codec is timed on real payloads off
    // the request path.
    let probe = WireProbe::default();
    let scratch = Recorder::new(Instant::now());
    let probe_queries = PROBE_QUERIES.min(prepared.pool.len()) / params.batch * params.batch;
    prepared.cursor = 0;
    let probed = drive_prepared(
        &mut prepared,
        params.batch,
        Until::Requests(probe_queries / params.batch),
        Some((&scratch, Some(&probe))),
    );
    let (rounds, messages, bytes) = probed.comm;
    let pairs: usize = probed
        .requests
        .iter()
        .filter_map(|r| r.answers.as_ref().ok())
        .flatten()
        .map(Vec::len)
        .sum();
    let probe_queries = probe_queries.max(1) as f64;
    metrics.insert("core.engine.pairs_per_query", pairs as f64 / probe_queries);
    metrics.insert("cluster.rounds_per_query", rounds as f64 / probe_queries);
    metrics.insert(
        "cluster.messages_per_query",
        messages as f64 / probe_queries,
    );
    metrics.insert(
        "cluster.bytes_per_round",
        bytes as f64 / rounds.max(1) as f64,
    );
    metrics.insert("bytes_per_query", bytes as f64 / probe_queries);
    let wire = probe.throughput();
    metrics.insert("cluster.wire.encode_mb_per_s", wire.encode_mb_per_s);
    metrics.insert("cluster.wire.decode_mb_per_s", wire.decode_mb_per_s);
    metrics.insert("cluster.wire.probe_bytes", wire.bytes as f64);

    layers::setup_layers(metrics, &prepared.graph, &prepared.index, prepared.timings);
    let sample = &prepared.pool[..prepared.pool.len().min(256)];
    layers::reach_local_set(metrics, &prepared.index, sample);
    layers::pool_dispatch(metrics, PARTITIONS);

    outcome.spans = spans;
    outcome
}
