//! The two workloads that go through `QueryService`, two closed-loop
//! clients each: `service_churn` (Zipf reads over twice the cache, with
//! update batches beside them) and `service_hot` (read-only, every request
//! a cache hit).
//!
//! `QueryService` owns its transport, so it cannot be decorated from
//! outside: the traced run records `request` → `service.query` /
//! `service.update` spans and reads the service's public stats accessors at
//! the section boundaries; the engine workloads carry the in-protocol
//! breakdown.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dsr_core::{DsrEngine, DsrIndex, SetQuery, UpdateOp};
use dsr_datagen::{query_stream, ArrivalPattern, StreamConfig};
use dsr_graph::DiGraph;
use dsr_service::{CachedPairs, QueryOptions, QueryService, ServiceConfig, UpdateMode};

use crate::host::HostClock;
use crate::inputs::{
    build_indexed, round_seed, sub_seed, update_batches, update_ops, SetupTimings, OPS_PER_BATCH,
    PARTITIONS, QUERY_SIDE,
};
use crate::oracle::{expected, Oracle, Pair};
use crate::proc::Pinned;
use crate::stats::{median, percentile, sorted};
use crate::trace::{durations_ns, merge, Recorder, Span};
use crate::{layers, proc, Config, Measured, Metrics, Outcome, Slice, Until, SETUPS};

/// Load-generator threads; the box has two cores.
const CLIENTS: usize = 2;

/// Counter readings of the service's public stats accessors.
#[derive(Clone, Copy, Default)]
struct ServiceCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    created: u64,
    reclaimed: u64,
    rounds: u64,
    messages: u64,
    bytes: u64,
}

impl ServiceCounters {
    fn read(service: &QueryService) -> Self {
        let cache = service.cache_stats();
        let generations = service.generation_stats();
        let (rounds, messages, bytes) = service.comm_stats().snapshot();
        ServiceCounters {
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
            invalidations: cache.invalidations(),
            created: generations.created,
            reclaimed: generations.reclaimed,
            rounds,
            messages,
            bytes,
        }
    }

    /// Adds what happened between `before` and `after`.
    fn add_delta(&mut self, before: &Self, after: &Self) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
        self.invalidations += after.invalidations - before.invalidations;
        self.created += after.created - before.created;
        self.reclaimed += after.reclaimed - before.reclaimed;
        self.rounds += after.rounds - before.rounds;
        self.messages += after.messages - before.messages;
        self.bytes += after.bytes - before.bytes;
    }

    fn insert_into(&self, metrics: &mut Metrics, queries: f64) {
        let probes = (self.hits + self.misses).max(1) as f64;
        metrics.insert("service.cache.hit_rate", self.hits as f64 / probes);
        metrics.insert("service.cache.evictions", self.evictions as f64);
        metrics.insert("service.cache.invalidations", self.invalidations as f64);
        metrics.insert("service.generations_created", self.created as f64);
        metrics.insert("service.generations_reclaimed", self.reclaimed as f64);
        metrics.insert("cluster.rounds_per_query", self.rounds as f64 / queries);
        metrics.insert("cluster.messages_per_query", self.messages as f64 / queries);
        metrics.insert(
            "cluster.bytes_per_round",
            self.bytes as f64 / self.rounds.max(1) as f64,
        );
        metrics.insert("bytes_per_query", self.bytes as f64 / queries);
    }
}

/// What both workloads accumulate over their rounds.
#[derive(Default)]
struct Tally {
    /// Untraced sections.
    plain: Measured,
    update_latencies_ms: Vec<f64>,
    update_ops: u64,
    update_batches: u64,
    /// Traced sections.
    traced_reference_s: f64,
    traced_queries: u64,
    traced_counters: ServiceCounters,
    spans: Vec<Vec<Span>>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Files a round's traced section: what the service's counters moved by
    /// since `before`, the clients' spans, and the section's size.
    fn close_traced(
        &mut self,
        service: &QueryService,
        before: &ServiceCounters,
        recorders: Vec<Recorder>,
        queries: u64,
        reference_s: f64,
    ) {
        let after = ServiceCounters::read(service);
        self.traced_counters.add_delta(before, &after);
        self.spans
            .extend(recorders.into_iter().map(Recorder::into_spans));
        self.traced_queries += queries;
        self.traced_reference_s += reference_s;
    }

    /// The traced run's metrics both service workloads share.
    fn shared_layers(&self, metrics: &mut Metrics) {
        let traced_queries = self.traced_queries.max(1) as f64;
        self.plain.reference(
            metrics,
            self.failed,
            self.attempted,
            self.traced_reference_s * 1e6 / traced_queries,
        );
        self.traced_counters.insert_into(metrics, traced_queries);
    }
}

/// `service.miss_overhead_us`: what the service adds to a miss (forming
/// window plus hand-off), as the median uncached service call minus the
/// median direct engine call on the same queries.
fn miss_overhead(metrics: &mut Metrics, service: &QueryService, queries: &[SetQuery]) {
    let uncached = QueryOptions {
        cache: false,
        pin: None,
    };
    let through_service = queries
        .iter()
        .map(|q| {
            let start = Instant::now();
            let _ = std::hint::black_box(service.query_with(&q.sources, &q.targets, uncached));
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let index = service.index();
    let engine = DsrEngine::new(&index);
    let direct = queries
        .iter()
        .map(|q| {
            let start = Instant::now();
            std::hint::black_box(engine.set_reachability(&q.sources, &q.targets));
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    metrics.insert(
        "service.miss_overhead_us",
        median(through_service) - median(direct),
    );
}

/// Reference seconds of `sections`, each with the host's speed index
/// around it.
fn reference_s<S>(sections: &[(S, f64)], wall: impl Fn(&S) -> Duration) -> f64 {
    sections
        .iter()
        .map(|(section, index)| wall(section).as_secs_f64() / index)
        .sum()
}

fn default_service(index: DsrIndex) -> QueryService {
    QueryService::with_config(Arc::new(index), ServiceConfig::default())
}

/// One recorder per client, all counting from `epoch`.
fn client_recorders(epoch: Instant) -> Vec<Recorder> {
    (0..CLIENTS).map(|_| Recorder::new(epoch)).collect()
}

fn note_common(outcome: &mut Outcome, graph: &DiGraph, signatures: usize) {
    outcome.note("vertices", graph.num_vertices());
    outcome.note("edges", graph.num_edges());
    outcome.note("partitions", PARTITIONS);
    outcome.note("signatures", signatures);
    outcome.note("cache_capacity", ServiceConfig::default().cache_capacity);
    outcome.note("clients", CLIENTS);
    outcome.note("transport", "in-process");
    outcome.note("setups", SETUPS);
}

// ---------------------------------------------------------------------------
// service_churn
// ---------------------------------------------------------------------------

struct ChurnParams {
    vertices: usize,
    /// Distinct query signatures; twice the 1 024-entry cache.
    signatures: usize,
    /// Zipf-distributed arrivals generated per client.
    arrivals: usize,
    /// Client 0 applies one update batch before every this-many of its
    /// queries.
    update_every: usize,
    batches: usize,
    warmup_requests: usize,
}

struct ChurnPrepared {
    graph: DiGraph,
    service: QueryService,
    signatures: Vec<SetQuery>,
    /// Signature index per arrival, per client.
    arrivals: Vec<Vec<u32>>,
    batches: Vec<Vec<UpdateOp>>,
    timings: SetupTimings,
    cursors: Vec<usize>,
    next_batch: usize,
    /// Update batches started / finished since set-up; a query's answer
    /// must match the graph after some number of batches in between.
    started: AtomicU64,
    finished: AtomicU64,
}

struct QueryRecord {
    signature: u32,
    generations: (u64, u64),
    latency_ns: u64,
    answer: Result<CachedPairs, String>,
}

struct UpdateRecord {
    latency_ns: u64,
    ops: usize,
    ok: bool,
}

#[derive(Default)]
struct ChurnLog {
    queries: Vec<QueryRecord>,
    updates: Vec<UpdateRecord>,
}

struct ChurnSection {
    logs: Vec<ChurnLog>,
    elapsed: Duration,
    cpu_us: f64,
}

impl ChurnSection {
    fn queries(&self) -> u64 {
        self.logs.iter().map(|log| log.queries.len() as u64).sum()
    }
}

fn prepare_churn(config: &Config, params: &ChurnParams, round: usize) -> ChurnPrepared {
    let seed = round_seed(config.seed, round);
    let indexed = build_indexed(seed, params.vertices);
    let stream = query_stream(
        &indexed.graph,
        &StreamConfig {
            num_queries: params.arrivals * CLIENTS,
            num_sources: QUERY_SIDE,
            num_targets: QUERY_SIDE,
            distinct: params.signatures,
            skew: 0.99,
            pattern: ArrivalPattern::ClosedLoop,
            seed: sub_seed(seed, 2),
        },
    );
    // One Zipf stream dealt out to the clients in turn: same signature
    // pool, different arrival orders.
    let arrivals = (0..CLIENTS)
        .map(|client| {
            stream
                .arrivals
                .iter()
                .skip(client)
                .step_by(CLIENTS)
                .map(|arrival| arrival.pool_index as u32)
                .collect()
        })
        .collect();
    let signatures = stream
        .pool
        .into_iter()
        .map(|q| SetQuery::new(q.sources, q.targets))
        .collect();
    let batches = update_batches(&indexed.graph, params.batches, seed);
    let mut prepared = ChurnPrepared {
        graph: indexed.graph,
        service: default_service(indexed.index),
        signatures,
        arrivals,
        batches,
        timings: indexed.timings,
        cursors: vec![0; CLIENTS],
        next_batch: 0,
        started: AtomicU64::new(0),
        finished: AtomicU64::new(0),
    };
    churn_section(
        &mut prepared,
        params,
        Until::Requests(params.warmup_requests),
        None,
    );
    prepared
}

fn churn_section(
    prepared: &mut ChurnPrepared,
    params: &ChurnParams,
    until: Until,
    recorders: Option<&[Recorder]>,
) -> ChurnSection {
    let barrier = Barrier::new(CLIENTS);
    let shared = &*prepared;
    let first_batch = shared.next_batch;
    let cpu_before = proc::cpu_us();
    let start = Instant::now();
    let results: Vec<(ChurnLog, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let barrier = &barrier;
                let recorder = recorders.map(|r| &r[client]);
                scope.spawn(move || {
                    let arrivals = &shared.arrivals[client];
                    let mut cursor = shared.cursors[client];
                    let mut next_batch = first_batch;
                    let mut log = ChurnLog::default();
                    barrier.wait();
                    let start = Instant::now();
                    let mut issued = 0usize;
                    while !until.reached(issued, start) {
                        if client == 0
                            && cursor.is_multiple_of(params.update_every)
                            && next_batch < shared.batches.len()
                        {
                            let batch = &shared.batches[next_batch];
                            next_batch += 1;
                            let _request = recorder.map(Recorder::request);
                            let _span = recorder.map(|r| r.span("service.update"));
                            shared.started.fetch_add(1, Ordering::SeqCst);
                            let called = Instant::now();
                            let result = shared.service.update(batch, UpdateMode::Auto);
                            let latency_ns = called.elapsed().as_nanos() as u64;
                            shared.finished.fetch_add(1, Ordering::SeqCst);
                            log.updates.push(UpdateRecord {
                                latency_ns,
                                ops: batch.len(),
                                ok: result.is_ok(),
                            });
                        }
                        let signature = arrivals[cursor % arrivals.len()];
                        cursor += 1;
                        let query = &shared.signatures[signature as usize];
                        let _request = recorder.map(Recorder::request);
                        let _span = recorder.map(|r| r.span("service.query"));
                        let finished_before = shared.finished.load(Ordering::SeqCst);
                        let called = Instant::now();
                        let answer = shared.service.query_with(
                            &query.sources,
                            &query.targets,
                            QueryOptions::default(),
                        );
                        let latency_ns = called.elapsed().as_nanos() as u64;
                        let started_after = shared.started.load(Ordering::SeqCst);
                        log.queries.push(QueryRecord {
                            signature,
                            generations: (finished_before, started_after),
                            latency_ns,
                            answer: answer.map_err(|err| err.to_string()),
                        });
                        issued += 1;
                    }
                    (log, cursor, next_batch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let cpu_us = proc::cpu_us() - cpu_before;
    let mut logs = Vec::with_capacity(CLIENTS);
    for (client, (log, cursor, next_batch)) in results.into_iter().enumerate() {
        prepared.cursors[client] = cursor;
        if client == 0 {
            prepared.next_batch = next_batch;
        }
        logs.push(log);
    }
    ChurnSection {
        logs,
        elapsed,
        cpu_us,
    }
}

/// The plain graph after each number of applied update batches.
struct GenerationOracle<'a> {
    signatures: &'a [SetQuery],
    graphs: Vec<DiGraph>,
    memo: HashMap<(u32, u64), Vec<Pair>>,
}

impl<'a> GenerationOracle<'a> {
    fn new(prepared: &'a ChurnPrepared) -> Self {
        let n = prepared.graph.num_vertices();
        let mut edges: HashSet<Pair> = prepared.graph.edge_vec().into_iter().collect();
        let snapshot = |edges: &HashSet<Pair>| {
            DiGraph::from_edges(n, &edges.iter().copied().collect::<Vec<_>>())
        };
        let mut graphs = vec![snapshot(&edges)];
        for batch in &prepared.batches[..prepared.next_batch] {
            for op in batch {
                match *op {
                    UpdateOp::Insert(u, v) => edges.insert((u, v)),
                    UpdateOp::Delete(u, v) => edges.remove(&(u, v)),
                };
            }
            graphs.push(snapshot(&edges));
        }
        GenerationOracle {
            signatures: &prepared.signatures,
            graphs,
            memo: HashMap::new(),
        }
    }

    /// Whether `answer` is right for `signature` on the graph of some
    /// generation in `generations` (both ends included). A request that
    /// overlapped no update has exactly one candidate.
    fn accepts(&mut self, signature: u32, generations: (u64, u64), answer: &[Pair]) -> bool {
        (generations.0..=generations.1).any(|generation| {
            let (signatures, graphs) = (self.signatures, &self.graphs);
            self.memo
                .entry((signature, generation))
                .or_insert_with(|| {
                    let query = &signatures[signature as usize];
                    expected(&graphs[generation as usize], &query.sources, &query.targets)
                })
                .as_slice()
                == answer
        })
    }
}

/// Falsifies the first collected answer.
fn corrupt_churn(section: &mut ChurnSection) {
    if let Some(Ok(answer)) = section.logs[0].queries.first_mut().map(|r| &mut r.answer) {
        let mut falsified = answer.to_vec();
        falsified.push((u32::MAX, u32::MAX));
        *answer = Arc::new(falsified);
    }
}

/// Verifies `section` and folds it into the tally. Returns the latencies of
/// its queries (ms) and how many of them were answered correctly, so the
/// caller can file them under plain or traced.
fn settle_churn(
    tally: &mut Tally,
    oracle: &mut GenerationOracle<'_>,
    section: &ChurnSection,
) -> (Vec<f64>, u64) {
    let mut latencies_ms = Vec::new();
    let mut correct = 0u64;
    for log in &section.logs {
        for record in &log.queries {
            tally.attempted += 1;
            latencies_ms.push(record.latency_ns as f64 / 1e6);
            let right = record
                .answer
                .as_ref()
                .is_ok_and(|answer| oracle.accepts(record.signature, record.generations, answer));
            if right {
                correct += 1;
            } else {
                tally.failed += 1;
            }
        }
        for update in &log.updates {
            tally.attempted += 1;
            tally.failed += u64::from(!update.ok);
        }
    }
    (latencies_ms, correct)
}

pub fn run_churn(config: &Config) -> Outcome {
    let params = ChurnParams {
        vertices: config.scaled(2000, 64),
        signatures: config.scaled(2048, 64),
        arrivals: config.scaled(16_384, 512),
        update_every: 25,
        batches: config.scaled(1024, 64),
        warmup_requests: config.scaled(100, 16),
    };
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    let mut batcher = BatcherTotals::default();
    let mut host = HostClock::default();
    let slice = config.measured() / SETUPS as u32;
    let epoch = Instant::now();
    let mut last: Option<ChurnPrepared> = None;
    for round in 0..SETUPS {
        drop(last.take());
        let (mut prepared, wall, index) = host.around(|| prepare_churn(config, &params, round));
        tally.plain.add_setup(wall, index);

        let mut sliced = |prepared: &mut ChurnPrepared, total, recorders| {
            host.sliced(total, |until| {
                let section = churn_section(prepared, &params, until, recorders);
                let elapsed = section.elapsed;
                (section, elapsed)
            })
        };
        let plain_for = if config.trace { slice / 2 } else { slice };
        let mut plain = sliced(&mut prepared, plain_for, None);
        if config.corrupt && round == 0 {
            corrupt_churn(&mut plain[0].0);
        }
        let traced = if config.trace {
            let recorders = client_recorders(epoch);
            prepared.service.batch_stats().reset();
            let before = ServiceCounters::read(&prepared.service);
            let sections = sliced(&mut prepared, slice / 2, Some(&recorders));
            batcher.add(&prepared.service);
            tally.close_traced(
                &prepared.service,
                &before,
                recorders,
                sections.iter().map(|(s, _)| s.queries()).sum(),
                reference_s(&sections, |s| s.elapsed),
            );
            sections
        } else {
            Vec::new()
        };

        let mut oracle = GenerationOracle::new(&prepared);
        for (section, index) in &plain {
            let (latencies, correct) = settle_churn(&mut tally, &mut oracle, section);
            tally.plain.add_slice(Slice {
                index: *index,
                wall: section.elapsed,
                cpu_us: section.cpu_us,
                queries: section.queries(),
                correct_queries: correct,
                latencies_ms: latencies.into_iter(),
            });
            for update in section.logs.iter().flat_map(|log| &log.updates) {
                tally
                    .update_latencies_ms
                    .push(update.latency_ns as f64 / 1e6 / index);
                tally.update_ops += update.ops as u64;
            }
        }
        for (section, _) in &traced {
            settle_churn(&mut tally, &mut oracle, section);
        }
        tally.update_batches += plain
            .iter()
            .chain(&traced)
            .map(|(section, _)| section.logs[0].updates.len() as u64)
            .sum::<u64>();
        drop(oracle);
        last = Some(prepared);
    }
    let peak_rss_mb = proc::peak_rss_mb();
    let prepared = last.expect("at least one set-up");
    tally.plain.finish();
    note_common(&mut outcome, &prepared.graph, prepared.signatures.len());
    outcome.note("zipf_skew", 0.99);
    outcome.note("update_every_queries_of_client_0", params.update_every);
    outcome.note("ops_per_update_batch", OPS_PER_BATCH);
    outcome.note("request_samples", tally.plain.latencies_ms.len());
    outcome.note(
        "host_speed_index",
        format!("{:.3}", tally.plain.speed_index()),
    );
    outcome.note("update_samples", tally.update_latencies_ms.len());
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;

    let metrics = &mut outcome.metrics;
    if !config.trace {
        tally.plain.end_to_end(metrics, peak_rss_mb);
        return outcome;
    }
    tally.shared_layers(metrics);
    batcher.insert_into(metrics);
    let update_s: f64 = tally.update_latencies_ms.iter().sum::<f64>() / 1e3;
    let update_p50_ms = median(tally.update_latencies_ms.clone());
    metrics.insert("update_p50_ms", update_p50_ms);
    metrics.insert(
        "update_ops_per_s",
        tally.update_ops as f64 / update_s.max(1e-9),
    );
    metrics.insert("update_samples", tally.update_latencies_ms.len() as f64);
    metrics.insert("update_batches", tally.update_batches as f64);

    // Direct layer probes on the last round's service, now idle.
    let index = prepared.service.index();
    layers::setup_layers(metrics, &prepared.graph, &index, prepared.timings);
    layers::pool_dispatch(metrics, PARTITIONS);
    let cold =
        &prepared.signatures[prepared.signatures.len() - prepared.signatures.len().min(200)..];
    miss_overhead(metrics, &prepared.service, cold);
    let upcoming = &prepared.batches[prepared.next_batch..];
    let bulk = update_ops(
        &index.reconstruct_graph(),
        prepared.graph.num_edges() / 20,
        sub_seed(config.seed, 7),
    );
    let upcoming = &upcoming[..upcoming.len().min(32)];
    let ((), _, index_around) =
        host.around(|| layers::update_layers(metrics, &index, upcoming, &bulk));
    // `update_p50_ms` is in reference time; so must be what is taken off it.
    let below =
        (metrics["core.updates.batch_ms_p50"] + metrics["core.index.fork_ms"]) / index_around;
    metrics.insert("service.update_overhead_ms", update_p50_ms - below);

    outcome.spans = merge(tally.spans);
    outcome
}

/// Batch-former counters summed over the traced sections (the service's
/// `BatchStats` is reset when each begins).
#[derive(Default)]
struct BatcherTotals {
    batches: u64,
    queries: u64,
    rounds: u64,
    late_hits: u64,
    wait_us: f64,
    max_wait_us: u64,
}

impl BatcherTotals {
    fn add(&mut self, service: &QueryService) {
        let stats = service.batch_stats();
        self.batches += stats.batches();
        self.queries += stats.queries();
        self.rounds += stats.rounds();
        self.late_hits += stats.late_hits();
        self.wait_us += stats.mean_wait_us() * stats.queries() as f64;
        self.max_wait_us = self.max_wait_us.max(stats.max_wait_us());
    }

    fn insert_into(&self, metrics: &mut Metrics) {
        let queries = self.queries as f64;
        metrics.insert(
            "service.batcher.fusion_ratio",
            queries / self.rounds.max(1) as f64,
        );
        metrics.insert(
            "service.batcher.mean_batch",
            queries / self.batches.max(1) as f64,
        );
        metrics.insert(
            "service.batcher.mean_wait_us",
            self.wait_us / queries.max(1.0),
        );
        metrics.insert("service.batcher.max_wait_us", self.max_wait_us as f64);
        metrics.insert("service.batcher.late_hits", self.late_hits as f64);
    }
}

// ---------------------------------------------------------------------------
// service_hot
// ---------------------------------------------------------------------------

/// Requests per block; the first request of each block is timed, so the
/// latency sample is 1 in 64 and the clock is read once per 64 requests.
const HOT_BLOCK: usize = 64;
/// Every this-many blocks the timed request is also recorded as a span
/// (1 request in 1 024), which keeps the trace file small.
const HOT_SPAN_EVERY_BLOCKS: usize = 16;

struct HotParams {
    vertices: usize,
    /// Distinct signatures; fits the 1 024-entry cache four times over.
    signatures: usize,
    warmup_requests: usize,
}

struct HotPrepared {
    graph: DiGraph,
    service: QueryService,
    signatures: Vec<SetQuery>,
    /// The answer each signature got when it was first asked (a miss);
    /// checked against the oracle after the run, and every later answer is
    /// checked against it as it arrives.
    first_answers: Vec<CachedPairs>,
    timings: SetupTimings,
}

#[derive(Default)]
struct HotLog {
    requests: u64,
    failed: u64,
    sampled_ns: Vec<u32>,
}

struct HotSection {
    logs: Vec<HotLog>,
    elapsed: Duration,
    cpu_us: f64,
}

impl HotSection {
    fn requests(&self) -> u64 {
        self.logs.iter().map(|log| log.requests).sum()
    }

    fn failed(&self) -> u64 {
        self.logs.iter().map(|log| log.failed).sum()
    }
}

fn prepare_hot(config: &Config, params: &HotParams, round: usize) -> HotPrepared {
    let seed = round_seed(config.seed, round);
    let indexed = build_indexed(seed, params.vertices);
    let signatures = crate::inputs::query_pool(&indexed.graph, params.signatures, seed);
    let service = default_service(indexed.index);
    let first_answers = signatures
        .iter()
        .map(|q| service.query(&q.sources, &q.targets))
        .collect();
    let prepared = HotPrepared {
        graph: indexed.graph,
        service,
        signatures,
        first_answers,
        timings: indexed.timings,
    };
    hot_section(
        &prepared,
        CLIENTS,
        Until::Requests(params.warmup_requests),
        None,
    );
    prepared
}

fn hot_section(
    prepared: &HotPrepared,
    clients: usize,
    until: Until,
    recorders: Option<&[Recorder]>,
) -> HotSection {
    let barrier = Barrier::new(clients);
    let cpu_before = proc::cpu_us();
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let barrier = &barrier;
                let recorder = recorders.map(|r| &r[client]);
                scope.spawn(move || {
                    let n = prepared.signatures.len();
                    // Clients start half a pool apart.
                    let mut position = client * n / clients;
                    let mut log = HotLog::default();
                    let ask = |position: usize, log: &mut HotLog| {
                        let at = position % n;
                        let query = &prepared.signatures[at];
                        let answer = prepared.service.query_with(
                            &query.sources,
                            &query.targets,
                            QueryOptions::default(),
                        );
                        log.requests += 1;
                        let first = &prepared.first_answers[at];
                        // A hit returns the cached `Arc` itself.
                        let right = answer
                            .is_ok_and(|answer| Arc::ptr_eq(&answer, first) || *answer == **first);
                        log.failed += u64::from(!right);
                    };
                    barrier.wait();
                    let start = Instant::now();
                    let mut blocks = 0usize;
                    while !until.reached(blocks * HOT_BLOCK, start) {
                        {
                            let spanned = blocks.is_multiple_of(HOT_SPAN_EVERY_BLOCKS);
                            let recorder = recorder.filter(|_| spanned);
                            let _request = recorder.map(Recorder::request);
                            let _span = recorder.map(|r| r.span("service.query"));
                            let called = Instant::now();
                            ask(position, &mut log);
                            log.sampled_ns.push(called.elapsed().as_nanos() as u32);
                        }
                        for offset in 1..HOT_BLOCK {
                            ask(position + offset, &mut log);
                        }
                        position += HOT_BLOCK;
                        blocks += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    HotSection {
        logs,
        elapsed: start.elapsed(),
        cpu_us: proc::cpu_us() - cpu_before,
    }
}

pub fn run_hot(config: &Config, pinned: Option<&Pinned>) -> Outcome {
    let params = HotParams {
        vertices: config.scaled(2000, 64),
        signatures: config.scaled(256, 64),
        warmup_requests: config.scaled(100_000, 1024),
    };
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    let mut host = HostClock::default();
    let slice = config.measured() / SETUPS as u32;
    let epoch = Instant::now();
    // Requests and wall seconds of the `service.hot_scaling` sections.
    let (mut duo, mut solo) = ((0u64, 0.0f64), (0u64, 0.0f64));
    let mut last: Option<HotPrepared> = None;
    for round in 0..SETUPS {
        drop(last.take());
        let (mut prepared, wall, index) = host.around(|| prepare_hot(config, &params, round));
        tally.plain.add_setup(wall, index);

        // Traced run: two fifths of the slice plain, two fifths traced, one
        // fifth for `service.hot_scaling`.
        let mut sliced = |total: Duration, recorders: Option<&[Recorder]>| {
            host.sliced(total, |until| {
                let section = hot_section(&prepared, CLIENTS, until, recorders);
                let elapsed = section.elapsed;
                (section, elapsed)
            })
        };
        let plain = sliced(if config.trace { slice * 2 / 5 } else { slice }, None);
        let mut others = Vec::new();
        if config.trace {
            let recorders = client_recorders(epoch);
            let before = ServiceCounters::read(&prepared.service);
            let traced = sliced(slice * 2 / 5, Some(&recorders));
            tally.close_traced(
                &prepared.service,
                &before,
                recorders,
                traced.iter().map(|(s, _)| s.requests()).sum(),
                reference_s(&traced, |s| s.elapsed),
            );
            others.extend(traced.into_iter().map(|(section, _)| section));
            // The one place the benchmark leaves its one CPU: two clients
            // against one, each on a CPU of its own where there are two.
            let both = || {
                [CLIENTS, 1].map(|clients| {
                    hot_section(&prepared, clients, Until::Elapsed(slice / 10), None)
                })
            };
            let [two, one] = match pinned {
                Some(pinned) => pinned.widened(both),
                None => both(),
            };
            duo = (duo.0 + two.requests(), duo.1 + two.elapsed.as_secs_f64());
            solo = (solo.0 + one.requests(), solo.1 + one.elapsed.as_secs_f64());
            others.extend([two, one]);
        }

        // Every answer was compared with its signature's first answer as it
        // arrived; now check those first answers against the oracle.
        if config.corrupt && round == 0 {
            let mut falsified = prepared.first_answers[0].to_vec();
            falsified.push((u32::MAX, u32::MAX));
            prepared.first_answers[0] = Arc::new(falsified);
        }
        let mut oracle = Oracle::new(&prepared.graph);
        let wrong_signatures = prepared
            .signatures
            .iter()
            .zip(&prepared.first_answers)
            .filter(|(q, answer)| ***answer != oracle.expected(&q.sources, &q.targets))
            .count() as u64;
        let sections = || plain.iter().map(|(section, _)| section).chain(&others);
        tally.attempted += sections().map(HotSection::requests).sum::<u64>();
        tally.failed += sections().map(HotSection::failed).sum::<u64>() + wrong_signatures;
        for (section, index) in &plain {
            tally.plain.add_slice(Slice {
                index: *index,
                wall: section.elapsed,
                cpu_us: section.cpu_us,
                queries: section.requests(),
                correct_queries: (section.requests() - section.failed())
                    * u64::from(wrong_signatures == 0),
                latencies_ms: section
                    .logs
                    .iter()
                    .flat_map(|log| &log.sampled_ns)
                    .map(|&ns| f64::from(ns) / 1e6),
            });
        }
        last = Some(prepared);
    }
    let peak_rss_mb = proc::peak_rss_mb();
    let prepared = last.expect("at least one set-up");
    tally.plain.finish();
    note_common(&mut outcome, &prepared.graph, prepared.signatures.len());
    outcome.note("latency_sample", format!("1 in {HOT_BLOCK}"));
    outcome.note("request_samples", tally.plain.latencies_ms.len());
    outcome.note(
        "host_speed_index",
        format!("{:.3}", tally.plain.speed_index()),
    );
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;

    let metrics = &mut outcome.metrics;
    if !config.trace {
        tally.plain.end_to_end(metrics, peak_rss_mb);
        return outcome;
    }
    tally.shared_layers(metrics);
    let spans = merge(std::mem::take(&mut tally.spans));
    let hit_path = sorted(durations_ns(&spans, "service.query"));
    metrics.insert("service.hit_path_ns", percentile(&hit_path, 50.0));
    metrics.insert("service.hit_path_samples", hit_path.len() as f64);
    let per_s = |requests: u64, elapsed_s: f64| requests as f64 / elapsed_s.max(1e-9);
    metrics.insert(
        "service.hot_scaling",
        per_s(duo.0, duo.1) / per_s(solo.0, solo.1),
    );

    let index = prepared.service.index();
    layers::setup_layers(metrics, &prepared.graph, &index, prepared.timings);
    layers::pool_dispatch(metrics, PARTITIONS);
    miss_overhead(
        metrics,
        &prepared.service,
        &prepared.signatures[..prepared.signatures.len().min(200)],
    );

    outcome.spans = spans;
    outcome
}
