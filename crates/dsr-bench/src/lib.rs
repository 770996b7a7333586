//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 4), plus three counter experiments of the serving
//! layer.
//!
//! Each experiment lives in its own module under [`experiments`] and has one
//! shape: `run(fast) -> (table, golden)`, the rendered table or series and
//! the text of its `BENCH_<id>.json`, written through
//! [`experiments::common::Golden`]. A golden holds counters only — rounds,
//! messages, bytes, sizes, pair counts — so it is reproducible bit for bit,
//! and in fast mode it must equal the file committed at the repository
//! root: each module's test compares them whole. Each paper experiment also
//! states the paper's shape as inequalities over those counters. What must
//! hold on every graph (answers, DSR's three rounds) is asserted on every
//! run; the empirical shapes go through [`experiments::common::Shapes`],
//! which panics with a message naming the artefact in a fast run and, in a
//! full run, prints the shapes that do not hold under the table. Only
//! Table 3, Table 6
//! and Figure 7 time anything (with [`time`]), because their claim is about
//! time and no counter stands in for it; the times are printed, never part
//! of a golden. The `experiments` binary drives all of them from the
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

/// How an experiment runs: `run(fast) -> (table, golden)`.
pub type Run = fn(bool) -> (String, String);

/// Every experiment the binary accepts, as its id and its run function,
/// in paper order, followed by the beyond-the-paper serving experiments.
/// The id list and the dispatch are this one table, so they cannot drift
/// apart.
pub const EXPERIMENTS: [(&str, Run); 13] = {
    use experiments::*;
    [
        ("table2", table2::run),
        ("table3", table3::run),
        ("figure5", figure5::run),
        ("figure6", figure6::run),
        ("figure7", figure7::run),
        ("table4", table4::run),
        ("figure8", figure8::run),
        ("table5", table5::run),
        ("table6", table6::run),
        ("table7", table7::run),
        ("throughput", throughput::run),
        ("updates", updates::run),
        ("mixed", mixed::run),
    ]
};

/// What one experiment produced.
#[derive(Debug)]
pub struct Report {
    /// The rendered table or series.
    pub table: String,
    /// The text of its `BENCH_<id>.json`: counters only. In fast mode it
    /// must equal the file committed at the repo root.
    pub golden: String,
}

/// Runs one experiment by id. `fast` shrinks datasets/steps so the whole
/// suite finishes in roughly a minute (used by tests and CI).
pub fn run_experiment(id: &str, fast: bool) -> Option<Report> {
    let (_, run) = EXPERIMENTS.iter().find(|(known, _)| *known == id)?;
    let (table, golden) = run(fast);
    Some(Report { table, golden })
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

    #[test]
    fn experiment_ids_are_unique_and_cover_the_paper() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate experiment ids");
        for required in ["table2", "table3", "table4", "table5", "table6", "table7"] {
            assert!(ids.contains(&required));
        }
        for required in ["figure5", "figure6", "figure7", "figure8"] {
            assert!(ids.contains(&required));
        }
    }
}
