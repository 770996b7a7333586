//! Command-line driver that regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! experiments [--fast] all
//! experiments [--fast] table2 table3 figure5 ...
//! experiments --list
//! ```
//!
//! Each experiment runs under `catch_unwind`: a failed internal assertion
//! (e.g. a cross-backend byte-identity check) is reported, the remaining
//! experiments still run, and the process **exits nonzero** — so CI can
//! never upload artifacts from a run whose invariants did not hold. The
//! `BENCH_*.json` writers are atomic (temp file + rename) for the same
//! reason: a partial JSON never appears at the final path.

use std::process::ExitCode;

use dsr_bench::{run_experiment, EXPERIMENT_IDS};

fn main() -> ExitCode {
    // This binary writes its `BENCH_*.json` into the working directory
    // unless told otherwise; the library default (next to the executable)
    // is for tests. Set before any thread exists.
    if std::env::var_os("DSR_BENCH_DIR").is_none() {
        std::env::set_var("DSR_BENCH_DIR", ".");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }

    let mut fast = false;
    let mut requested: Vec<String> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--fast" => fast = true,
            "--list" => {
                for id in EXPERIMENT_IDS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            "all" => requested.extend(EXPERIMENT_IDS.iter().map(|s| s.to_string())),
            other => requested.push(other.to_string()),
        }
    }
    if requested.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }

    let mut failures: Vec<String> = Vec::new();
    for id in requested {
        // A panicking experiment (failed byte-identity assert, poisoned
        // invariant) must not abort the whole run silently-successfully:
        // record it, keep going, exit nonzero at the end.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_experiment(&id, fast)));
        match outcome {
            Ok(Some(output)) => println!("{output}"),
            Ok(None) => {
                eprintln!("unknown experiment '{id}'; use --list to see valid ids");
                return ExitCode::FAILURE;
            }
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>");
                eprintln!("experiment '{id}' FAILED: {message}");
                failures.push(id);
            }
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} experiment(s) failed: {}",
            failures.len(),
            failures.join(", ")
        );
        ExitCode::FAILURE
    }
}

fn print_usage() {
    eprintln!("usage: experiments [--fast] (all | <experiment id>...)");
    eprintln!("       experiments --list");
    eprintln!();
    eprintln!("experiment ids: {}", EXPERIMENT_IDS.join(", "));
}
