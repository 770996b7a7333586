//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 4), plus three counter experiments of the serving
//! layer.
//!
//! Each experiment lives in its own module under [`experiments`]. The
//! paper's tables and figures expose `run(fast) -> String`, the formatted
//! table/series that corresponds to the paper's artifact; they time with
//! [`time`], because comparisons inside one run are their subject. The
//! `throughput`, `updates` and `mixed` experiments measure no time: they
//! return their table and the text of a `BENCH_*.json` holding nothing but
//! reproducible counters, and in fast mode that text must equal the file
//! committed at the repository root — `cargo test -p dsr-bench` compares
//! them whole. The `experiments` binary drives all of them from the
//! command line:
//!
//! ```text
//! cargo run -p dsr-bench --release --bin experiments -- all
//! cargo run -p dsr-bench --release --bin experiments -- table3 figure5
//! cargo run -p dsr-bench --release --bin experiments -- --fast all
//! ```
//!
//! Absolute numbers differ from the paper (the substrate is a simulated
//! cluster on synthetic analogues); the comparisons within each table —
//! who wins, by roughly what factor, where the crossovers are — are the
//! reproduction target. Timed claims about this implementation belong to
//! the repository benchmark under `benchmark/`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod json;
pub mod table;

use std::time::{Duration, Instant};

pub use table::Table;

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Formats a duration in seconds with millisecond resolution, the unit the
/// paper's tables use.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a byte count in megabytes.
pub fn megabytes(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Geometric mean of a slice of durations (used by Table 6).
pub fn geometric_mean(durations: &[Duration]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = durations
        .iter()
        .map(|d| d.as_secs_f64().max(1e-9).ln())
        .sum();
    (log_sum / durations.len() as f64).exp()
}

/// The experiment identifiers accepted by the binary, in paper order,
/// followed by the beyond-the-paper serving experiments.
pub const EXPERIMENT_IDS: [&str; 13] = [
    "table2",
    "table3",
    "figure5",
    "figure6",
    "figure7",
    "table4",
    "figure8",
    "table5",
    "table6",
    "table7",
    "throughput",
    "updates",
    "mixed",
];

/// What one experiment produced.
#[derive(Debug)]
pub struct Report {
    /// The rendered table or series.
    pub table: String,
    /// Counter experiments only: the text of their `BENCH_<id>.json`. In
    /// fast mode it must equal the file committed at the repo root.
    pub golden: Option<String>,
}

/// Runs one experiment by id. `fast` shrinks datasets/steps so the whole
/// suite finishes in roughly a minute (used by tests and CI).
pub fn run_experiment(id: &str, fast: bool) -> Option<Report> {
    let paper = |table| Report {
        table,
        golden: None,
    };
    let counters = |(table, json)| Report {
        table,
        golden: Some(json),
    };
    Some(match id {
        "table2" => paper(experiments::table2::run(fast)),
        "table3" => paper(experiments::table3::run(fast)),
        "table4" => paper(experiments::table4::run(fast)),
        "table5" => paper(experiments::table5::run(fast)),
        "table6" => paper(experiments::table6::run(fast)),
        "table7" => paper(experiments::table7::run(fast)),
        "figure5" => paper(experiments::figure5::run(fast)),
        "figure6" => paper(experiments::figure6::run(fast)),
        "figure7" => paper(experiments::figure7::run(fast)),
        "figure8" => paper(experiments::figure8::run(fast)),
        "throughput" => counters(experiments::throughput::run(fast)),
        "updates" => counters(experiments::updates::run(fast)),
        "mixed" => counters(experiments::mixed::run(fast)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(megabytes(1024 * 1024), "1.0");
        let gm = geometric_mean(&[Duration::from_secs(1), Duration::from_secs(4)]);
        assert!((gm - 2.0).abs() < 1e-6);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("table99", true).is_none());
    }
}
