//! The repo benchmark: five named workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run, all
//! measured from outside through the public APIs of the `dsr-*` crates, on
//! one CPU and in reference time ([`proc::pin_to_one_cpu`], [`host`]).
//! See `README.md` for what each workload is for and how to state a claim.

#![deny(unsafe_code)] // `proc::affinity` alone allows it, for two foreign calls

pub mod engine_workloads;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod proc;
pub mod report;
pub mod service_workloads;
pub mod spec;
pub mod stats;
pub mod timed;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stats::{median, percentile};

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How many times a workload sets up, each time on another graph drawn from
/// the seed; the measured section is split evenly between them and
/// `setup_s` is the median.
pub const SETUPS: usize = 6;

/// One invocation: one workload, traced or not.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: half the section untraced, half
    /// traced, then the direct layer probes; per-layer metrics.
    pub trace: bool,
    /// Divides graph and pool sizes; 1 is the benchmark, the smoke test
    /// uses 50.
    pub scale: usize,
    /// Falsifies one collected answer before verification, to show that
    /// verification has teeth.
    pub corrupt: bool,
}

impl Config {
    pub fn measured(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// `base / scale`, but never below `floor`.
    pub fn scaled(&self, base: usize, floor: usize) -> usize {
        (base / self.scale.max(1)).max(floor)
    }
}

/// What one invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests issued in the measured sections (engine or service calls,
    /// updates included).
    pub attempted: u64,
    /// Requests that errored, were refused, or disagreed with the oracle.
    pub failed: u64,
    pub metrics: Metrics,
    /// Sizes and sample counts, recorded in the result file.
    pub notes: Vec<(&'static str, String)>,
    /// Spans of the traced section (empty when untraced).
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// When a driven section ends.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Until {
    /// After this many requests (per client).
    Requests(usize),
    /// At the first request boundary after this long.
    Elapsed(Duration),
}

impl Until {
    pub(crate) fn reached(self, issued: usize, start: Instant) -> bool {
        match self {
            Until::Requests(n) => issued >= n,
            Until::Elapsed(limit) => start.elapsed() >= limit,
        }
    }
}

/// What the untraced sections of all rounds add up to; every workload
/// derives its end-to-end metrics from this in the same way. Times are in
/// reference time (see [`host`]) unless they say otherwise.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    pub setup_s: Vec<f64>,
    /// Per-request latencies; sorted ascending by [`Measured::finish`].
    pub latencies_ms: Vec<f64>,
    pub queries: u64,
    pub correct_queries: u64,
    pub reference_s: f64,
    /// Wall time of the same sections.
    pub wall_s: f64,
    pub cpu_us: f64,
}

/// One slice of a measured section, as [`Measured::add_slice`] takes it.
pub(crate) struct Slice<L> {
    /// The host's speed index around the slice.
    pub index: f64,
    pub wall: Duration,
    pub cpu_us: f64,
    pub queries: u64,
    pub correct_queries: u64,
    /// Wall latency of each request.
    pub latencies_ms: L,
}

impl Measured {
    pub(crate) fn add_setup(&mut self, wall: Duration, index: f64) {
        self.setup_s.push(wall.as_secs_f64() / index);
    }

    pub(crate) fn add_slice(&mut self, slice: Slice<impl Iterator<Item = f64>>) {
        self.latencies_ms
            .extend(slice.latencies_ms.map(|ms| ms / slice.index));
        self.queries += slice.queries;
        self.correct_queries += slice.correct_queries;
        self.wall_s += slice.wall.as_secs_f64();
        self.reference_s += slice.wall.as_secs_f64() / slice.index;
        self.cpu_us += slice.cpu_us;
    }

    pub(crate) fn finish(&mut self) {
        self.latencies_ms.sort_by(f64::total_cmp);
    }

    /// By how much the host scaled the measured sections: wall time ÷
    /// reference time.
    pub(crate) fn speed_index(&self) -> f64 {
        self.wall_s / self.reference_s
    }

    /// The four end-to-end metrics.
    pub(crate) fn end_to_end(&self, metrics: &mut Metrics, peak_rss_mb: f64) {
        metrics.insert("setup_s", median(self.setup_s.clone()));
        metrics.insert(
            "queries_per_s",
            self.correct_queries as f64 / self.reference_s,
        );
        metrics.insert("request_p50_ms", percentile(&self.latencies_ms, 50.0));
        metrics.insert("peak_rss_mb", peak_rss_mb);
    }

    /// The traced run's view of the same sections: the demoted end-to-end
    /// numbers, by how much the host scaled them, and the tracing overhead
    /// against `traced_us_per_query` (reference time too).
    pub(crate) fn reference(
        &self,
        metrics: &mut Metrics,
        outcome_failed: u64,
        outcome_attempted: u64,
        traced_us_per_query: f64,
    ) {
        metrics.insert("request_p90_ms", percentile(&self.latencies_ms, 90.0));
        // p99 needs ten samples beyond it; engine_batch64 never has them.
        if self.latencies_ms.len() >= 1000 {
            metrics.insert("request_p99_ms", percentile(&self.latencies_ms, 99.0));
        }
        metrics.insert("request_samples", self.latencies_ms.len() as f64);
        metrics.insert(
            "failed_share",
            outcome_failed as f64 / outcome_attempted.max(1) as f64,
        );
        metrics.insert("host.speed_index", self.speed_index());
        let queries = self.queries.max(1) as f64;
        metrics.insert("proc.cpu_us_per_query", self.cpu_us / queries);
        let plain_us_per_query = self.reference_s * 1e6 / queries;
        metrics.insert(
            "trace.overhead_share",
            (traced_us_per_query - plain_us_per_query) / plain_us_per_query,
        );
    }
}

/// Runs the workload named in `config`.
///
/// # Errors
/// On an unknown workload name.
pub fn run_workload(config: &Config) -> Result<Outcome, String> {
    use engine_workloads::EngineWorkload;
    // Before the first thread is spawned, so that all of them inherit it.
    let pinned = proc::pin_to_one_cpu();
    let mut outcome = match config.workload.as_str() {
        "engine_scan" => engine_workloads::run(EngineWorkload::Scan, config),
        "engine_batch64" => engine_workloads::run(EngineWorkload::Batch64, config),
        "tcp_point" => engine_workloads::run(EngineWorkload::TcpPoint, config),
        "service_churn" => service_workloads::run_churn(config),
        "service_hot" => service_workloads::run_hot(config, pinned.as_ref()),
        other => {
            return Err(format!(
                "unknown workload {other:?}; the workloads are {:?}",
                spec::WORKLOADS
            ))
        }
    };
    let cpu = pinned
        .as_ref()
        .map_or("none".to_string(), |p| p.cpu.to_string());
    outcome.note("pinned_to_cpu", cpu);
    if config.trace {
        let scaling = || proc::two_thread_scaling();
        let scaling = pinned.as_ref().map_or_else(scaling, |p| p.widened(scaling));
        outcome.metrics.insert("host.two_thread_scaling", scaling);
    }
    Ok(outcome)
}
