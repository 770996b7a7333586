//! Smoke test of the whole benchmark at 1/50 scale: the declared names
//! agree with `BENCHMARK.json`, every workload reports exactly the declared
//! metrics with nothing failed, and a falsified answer fails the run.

use std::path::Path;
use std::process::Command;

use dsr_bench::json::{parse, Json};
use dsr_benchmark::spec::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use dsr_benchmark::{report, run_workload, Config};

fn small(workload: &str, trace: bool) -> Config {
    Config {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.6,
        trace,
        scale: 50,
        corrupt: false,
    }
}

fn text<'a>(object: &'a Json, key: &str) -> &'a str {
    match object.get(key) {
        Some(Json::Str(text)) => text,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn list<'a>(object: &'a Json, key: &str) -> &'a [Json] {
    match object.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn assert_declared(declared: &[Json], defs: &[MetricDef]) {
    assert_eq!(declared.len(), defs.len());
    for (entry, def) in declared.iter().zip(defs) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
        let bound = match entry.get("bound") {
            Some(Json::Num(bound)) => Some(*bound),
            _ => None,
        };
        assert_eq!(bound, def.bound, "{}", def.name);
    }
}

#[test]
fn benchmark_json_declares_what_the_program_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let file = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let names: Vec<&str> = list(&file, "workloads")
        .iter()
        .map(|workload| text(workload, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_declared(list(&file, "end_to_end"), &END_TO_END);
    assert_declared(list(&file, "per_layer"), &PER_LAYER);
    assert_eq!(list(&file, "paths"), [Json::Str("benchmark".to_string())]);
    assert!(END_TO_END.iter().any(|def| def.name == "setup_s"));
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    // One after the other: each workload brings its own client threads.
    for workload in WORKLOADS {
        for trace in [false, true] {
            let config = small(workload, trace);
            let outcome = run_workload(&config).expect("known workload");
            assert_eq!(outcome.failed, 0, "{workload} trace={trace}");
            assert!(outcome.attempted > 0, "{workload} trace={trace}");
            // Errors on an undeclared extra or a missing end-to-end metric.
            let values = report::declared_values(&config, &outcome)
                .unwrap_or_else(|err| panic!("{workload} trace={trace}: {err}"));
            assert!(values.iter().all(|(_, value)| value.is_finite()));
            if trace {
                assert!(!outcome.spans.is_empty(), "{workload} recorded no spans");
                assert_eq!(outcome.metrics["failed_share"], 0.0);
                assert!(outcome.metrics.contains_key("trace.overhead_share"));
            } else {
                assert!(outcome.spans.is_empty());
                for (def, value) in &values {
                    assert!(*value > 0.0, "{workload}: {} must never be 0", def.name);
                }
            }
            // The line the driver reads parses and has exactly four keys.
            let line = parse(&report::result_line(&outcome, &values)).expect("result line");
            let Json::Obj(members) = &line else {
                panic!("result line is not an object");
            };
            let keys: Vec<&str> = members.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        }
    }
}

#[test]
fn the_workloads_exercise_the_layers_they_are_named_for() {
    let hot = run_workload(&small("service_hot", true)).expect("known workload");
    assert_eq!(hot.metrics["service.cache.hit_rate"], 1.0);
    assert_eq!(hot.metrics["cluster.rounds_per_query"], 0.0);
    assert!(hot.metrics["service.hit_path_samples"] > 0.0);

    let churn = run_workload(&small("service_churn", true)).expect("known workload");
    assert!(churn.metrics["update_batches"] >= 1.0);
    assert!(churn.metrics["service.generations_created"] >= 1.0);
    assert!(churn.metrics["cluster.rounds_per_query"] > 0.0);

    let scan = run_workload(&small("engine_scan", true)).expect("known workload");
    assert_eq!(scan.metrics["cluster.rounds_per_query"], 3.0);
    assert!(!scan.metrics.contains_key("service.cache.hit_rate"));
}

#[test]
fn a_corrupted_answer_fails_the_run() {
    for workload in WORKLOADS {
        let run = |corrupt: bool| {
            let mut command = Command::new(env!("CARGO_BIN_EXE_dsr-benchmark"));
            command.args(["run", "--workload", workload, "--seed", "5"]);
            command.args(["--seconds", "0.3", "--scale", "50", "--trace", "0"]);
            if corrupt {
                command.arg("--corrupt");
            }
            command.output().expect("benchmark binary runs")
        };
        let clean = run(false);
        assert!(clean.status.success(), "{workload}: a clean run exits 0");
        let corrupted = run(true);
        assert_eq!(corrupted.status.code(), Some(1), "{workload}");
        let stdout = String::from_utf8_lossy(&corrupted.stdout);
        let line = parse(stdout.lines().last().expect("a result line")).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)), "{workload}");
        assert!(matches!(line.get("failed"), Some(Json::Num(failed)) if *failed >= 1.0));
    }
}
