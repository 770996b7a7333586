//! Rendering of results: the one-line result the driver reads, the table
//! for people, the per-run part files and the combined result file with
//! provenance, and `compare`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use dsr_bench::json::{parse, Json};

use crate::spec::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::{Config, Outcome};

/// Where traces, part files and result files go unless `--out` says
/// otherwise: `benchmark/out/`, which git ignores.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Values of the metrics a run of `config` must report (per-layer when
/// traced, end-to-end otherwise), in declaration order. A per-layer metric the
/// workload did not produce belongs to a layer it bypasses and reads 0.
///
/// # Errors
/// When an end-to-end metric is missing, or the workload produced a name
/// that is not declared.
pub fn declared_values(
    config: &Config,
    outcome: &Outcome,
) -> Result<Vec<(MetricDef, f64)>, String> {
    let defs: &[MetricDef] = if config.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|name| !defs.iter().any(|def| def.name == **name))
    {
        return Err(format!("workload produced undeclared metric {extra:?}"));
    }
    defs.iter()
        .map(|def| match outcome.metrics.get(def.name) {
            Some(&value) => Ok((*def, value)),
            None if config.trace => Ok((*def, 0.0)),
            None => Err(format!("end-to-end metric {:?} was not measured", def.name)),
        })
        .collect()
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn json_string(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, values: &[(MetricDef, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(*value),
                def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Every metric by name with its value, unit and direction, plus the
/// workload's sizes and sample counts. Per-layer metrics of a bypassed
/// layer (not produced by the workload) are shown as `-`.
pub fn table(config: &Config, outcome: &Outcome, values: &[(MetricDef, f64)]) -> String {
    let mut out = format!(
        "{} (seed {}, {} s, {})\n",
        config.workload,
        config.seed,
        config.seconds,
        if config.trace { "traced" } else { "untraced" }
    );
    for (def, value) in values {
        let shown = if outcome.metrics.contains_key(def.name) {
            format!("{value:.6}")
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "  {:<44} {:>18} {:<6} ({} is better)",
            def.name,
            shown,
            def.unit,
            def.better.as_str()
        );
    }
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(key, value)| format!("{key}={value}"))
        .collect();
    let _ = writeln!(out, "  [{}]", notes.join(", "));
    let _ = writeln!(
        out,
        "  attempted {} requests, {} failed",
        outcome.attempted, outcome.failed
    );
    out
}

/// One run as a JSON object: what a part file holds and what the combined
/// result file lists under `runs`.
pub fn part_json(config: &Config, outcome: &Outcome, values: &[(MetricDef, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(def, value)| {
            format!(
                "      \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\"}}",
                def.name,
                json_number(*value),
                def.unit,
                def.better.as_str()
            )
        })
        .collect();
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(key, value)| format!("{}: {}", json_string(key), json_string(value)))
        .collect();
    format!(
        "    {{\n      \"workload\": {},\n      \"trace\": {},\n      \"seed\": {},\n      \
         \"seconds\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \
         \"sizes_and_samples\": {{{}}},\n      \"metrics\": {{\n  {}\n      }}\n    }}",
        json_string(&config.workload),
        config.trace,
        config.seed,
        json_number(config.seconds),
        outcome.attempted,
        outcome.failed,
        notes.join(", "),
        metrics.join(",\n  ")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The combined result file of a full run: provenance, then every part.
pub fn result_file(seed: u64, seconds: f64, wall_s: f64, parts: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (lto = true, codegen-units = 1)"
    };
    format!(
        "{{\n  \"provenance\": {{\n    \"git_commit\": {},\n    \"seed\": {},\n    \
         \"seconds_per_run\": {},\n    \"nproc\": {},\n    \"rustc\": {},\n    \
         \"build_profile\": {},\n    \"wall_s\": {}\n  }},\n  \"runs\": [\n{}\n  ]\n}}\n",
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        seed,
        json_number(seconds),
        nproc,
        json_string(&command_line("rustc", &["--version"])),
        json_string(profile),
        json_number(wall_s),
        parts.join(",\n")
    )
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// Verdict on one (workload, end-to-end metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The metric is missing from a file or its base is zero.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of `compare`.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub def: MetricDef,
    pub a: Option<f64>,
    pub b: Option<f64>,
    pub verdict: Verdict,
}

/// By what share of `a` the value `b` is worse (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(def: &MetricDef, a: Option<f64>, b: Option<f64>) -> Verdict {
    match (a, b, def.bound) {
        (Some(a), Some(b), Some(bound)) if a != 0.0 && a.is_finite() && b.is_finite() => {
            if worsening(def.better, a, b) > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            }
        }
        _ => Verdict::Unresolved,
    }
}

/// The end-to-end metrics of a result file's untraced runs, by workload.
fn end_to_end_of(file: &Json) -> Vec<(String, &Json)> {
    let Some(Json::Arr(runs)) = file.get("runs") else {
        return Vec::new();
    };
    runs.iter()
        .filter(|run| run.get("trace") == Some(&Json::Bool(false)))
        .filter_map(|run| match (run.get("workload"), run.get("metrics")) {
            (Some(Json::Str(workload)), Some(metrics)) => Some((workload.clone(), metrics)),
            _ => None,
        })
        .collect()
}

fn value_of(metrics: Option<&Json>, name: &str) -> Option<f64> {
    match metrics?.get(name)?.get("value")? {
        Json::Num(value) => Some(*value),
        _ => None,
    }
}

/// Compares result file `b` against base `a`: one row per workload of `a`
/// and end-to-end metric.
///
/// # Errors
/// When a file is not valid JSON.
pub fn compare(a_text: &str, b_text: &str) -> Result<Vec<Row>, String> {
    let a = parse(a_text).map_err(|err| format!("first file: {err}"))?;
    let b = parse(b_text).map_err(|err| format!("second file: {err}"))?;
    let b_runs = end_to_end_of(&b);
    let mut rows = Vec::new();
    for (workload, a_metrics) in end_to_end_of(&a) {
        let b_metrics = b_runs
            .iter()
            .find(|(name, _)| *name == workload)
            .map(|(_, metrics)| *metrics);
        for def in &END_TO_END {
            let a = value_of(Some(a_metrics), def.name);
            let b = value_of(b_metrics, def.name);
            rows.push(Row {
                workload: workload.clone(),
                def: *def,
                a,
                b,
                verdict: judge(def, a, b),
            });
        }
    }
    Ok(rows)
}

/// The rows as a table: both values, the ratio `b / a` with its base, the
/// bound, and the verdict.
pub fn compare_table(rows: &[Row]) -> String {
    let show = |value: Option<f64>| value.map_or("-".to_string(), |v| format!("{v:.6}"));
    let mut out = format!(
        "{:<16} {:<16} {:>16} {:>16} {:>22} {:>6}  verdict\n",
        "workload", "metric", "a (base)", "b", "b / a", "bound"
    );
    for row in rows {
        let ratio = match (row.a, row.b) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:.4} of {:.6} {}", b / a, a, row.def.unit),
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<16} {:<16} {:>16} {:>16} {:>22} {:>6}  {} ({} is better)",
            row.workload,
            row.def.name,
            show(row.a),
            show(row.b),
            ratio,
            row.def.bound.map_or("-".to_string(), |b| format!("{b:.2}")),
            row.verdict.as_str(),
            row.def.better.as_str()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(qps: f64, p50: f64) -> String {
        format!(
            "{{\"runs\": [{{\"workload\": \"w\", \"trace\": false, \"metrics\": {{\
             \"queries_per_s\": {{\"value\": {qps}}}, \"request_p50_ms\": {{\"value\": {p50}}}}}}},\
             {{\"workload\": \"w\", \"trace\": true, \"metrics\": {{}}}}]}}"
        )
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|row| row.def.name == metric)
            .expect("row")
            .verdict
    }

    #[test]
    fn compare_judges_by_direction_and_bound() {
        let rows = compare(&file(100.0, 2.0), &file(50.0, 1.0)).expect("valid");
        assert_eq!(rows.len(), END_TO_END.len());
        // Half the throughput is worse; half the latency is not.
        assert_eq!(verdict_of(&rows, "queries_per_s"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "request_p50_ms"), Verdict::Ok);
        // Absent from both files.
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Unresolved);
        let same = compare(&file(100.0, 2.0), &file(99.0, 2.02)).expect("valid");
        assert_eq!(verdict_of(&same, "queries_per_s"), Verdict::Ok);
        assert_eq!(verdict_of(&same, "request_p50_ms"), Verdict::Ok);
        assert!(compare("{", "{}").is_err());
    }
}
