//! The benchmark's fixed vocabulary: workload names and metric definitions.
//!
//! `BENCHMARK.json` at the repo root declares the same names; the smoke test
//! fails when the two drift apart. Later issues state their claims against
//! these names, so they never change meaning.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the base value by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

const fn bounded(def: MetricDef, bound: f64) -> MetricDef {
    MetricDef {
        bound: Some(bound),
        ..def
    }
}

/// The five workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 5] = [
    "engine_scan",
    "engine_batch64",
    "tcp_point",
    "service_churn",
    "service_hot",
];

/// Metrics a user of the system sees. Every workload reports every one of
/// them from its untraced run, and none of them can be zero.
pub const END_TO_END: [MetricDef; 4] = [
    bounded(lower("setup_s", "s"), 0.25),
    bounded(higher("queries_per_s", "1/s"), 0.2),
    bounded(lower("request_p50_ms", "ms"), 0.2),
    bounded(lower("peak_rss_mb", "MB"), 0.25),
];

/// Metrics of single layers, from the traced run. A workload that bypasses
/// a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [MetricDef; 59] = [
    // End-to-end candidates kept without a bound (see README, "Demoted").
    lower("request_p90_ms", "ms"),
    lower("request_p99_ms", "ms"),
    lower("update_p50_ms", "ms"),
    higher("update_ops_per_s", "1/s"),
    lower("bytes_per_query", "B"),
    lower("failed_share", "ratio"),
    higher("request_samples", "count"),
    higher("update_batches", "count"),
    lower("proc.cpu_us_per_query", "us"),
    lower("trace.overhead_share", "ratio"),
    lower("host.speed_index", "ratio"),
    higher("host.two_thread_scaling", "ratio"),
    // Set-up layers.
    lower("datagen.graph_s", "s"),
    lower("partition.multilevel_s", "s"),
    lower("partition.cut_edge_share", "ratio"),
    lower("core.index.build_s", "s"),
    lower("core.index.summary_s", "s"),
    lower("core.index.compound_s", "s"),
    lower("reach.build_s", "s"),
    lower("core.index.mb", "MB"),
    lower("core.index.boundary_vertices", "count"),
    // dsr-core engine and dsr-reach.
    lower("core.engine.self_us_per_query", "us"),
    lower("core.engine.pairs_per_query", "count"),
    lower("reach.local_set_us", "us"),
    // dsr-cluster.
    lower("cluster.scatter_us_per_query", "us"),
    lower("cluster.exchange_us_per_query", "us"),
    lower("cluster.gather_us_per_query", "us"),
    lower("cluster.transport_share", "ratio"),
    lower("cluster.rounds_per_query", "count"),
    lower("cluster.messages_per_query", "count"),
    lower("cluster.bytes_per_round", "B"),
    higher("cluster.wire.encode_mb_per_s", "MB/s"),
    higher("cluster.wire.decode_mb_per_s", "MB/s"),
    lower("cluster.failover_retries", "count"),
    lower("cluster.pool.dispatch_us", "us"),
    // dsr-service cache and snapshots.
    higher("service.cache.hit_rate", "ratio"),
    lower("service.cache.evictions", "count"),
    lower("service.cache.invalidations", "count"),
    lower("service.hit_path_ns", "ns"),
    higher("service.hot_scaling", "ratio"),
    lower("service.generations_created", "count"),
    higher("service.generations_reclaimed", "count"),
    // dsr-service batch former.
    higher("service.batcher.fusion_ratio", "ratio"),
    higher("service.batcher.mean_batch", "count"),
    lower("service.batcher.mean_wait_us", "us"),
    lower("service.batcher.max_wait_us", "us"),
    higher("service.batcher.late_hits", "count"),
    lower("service.miss_overhead_us", "us"),
    // dsr-core updates.
    lower("core.updates.batch_ms_p50", "ms"),
    lower("core.index.fork_ms", "ms"),
    lower("service.update_overhead_ms", "ms"),
    lower("core.updates.refreshed_summaries_per_batch", "count"),
    lower("core.updates.patched_compounds_per_batch", "count"),
    lower("core.updates.bytes_per_op", "B"),
    lower("core.updates.bulk_vs_rebuild", "ratio"),
    // Sample counts behind the percentiles above.
    higher("update_samples", "count"),
    higher("service.hit_path_samples", "count"),
    higher("reach.local_set_samples", "count"),
    higher("cluster.wire.probe_bytes", "B"),
];
