//! Command-line driver that regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! experiments [--fast] all
//! experiments [--fast] table2 table3 figure5 ...
//! experiments --list
//! ```
//!
//! Every experiment also renders a `BENCH_<id>.json` of counters. With
//! `--fast` that text is the golden `cargo test -p dsr-bench` compares
//! against the committed file, and this binary — the only code in the crate
//! that touches the filesystem — writes it into the working directory:
//! `experiments --fast all` at the repository root *is* the re-baseline. A
//! full run prints tables only, each followed by a `shape does not hold:`
//! line for every paper shape the full-size data misses. Table 3, Table 6
//! and Figure 7 also print wall-clock columns; no golden holds a time.
//!
//! Each experiment runs under `catch_unwind`: a failed internal assertion
//! (e.g. a cross-backend byte-identity check) is reported, the remaining
//! experiments still run, nothing is written for the failed one, and the
//! process **exits nonzero**.

use std::process::ExitCode;

use dsr_bench::{run_experiment, EXPERIMENTS};

fn main() -> ExitCode {
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
                for (id, _) in EXPERIMENTS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            "all" => requested.extend(EXPERIMENTS.iter().map(|(id, _)| id.to_string())),
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
            Ok(Some(report)) => {
                println!("{}", report.table);
                if fast {
                    let file = format!("BENCH_{id}.json");
                    match std::fs::write(&file, report.golden) {
                        Ok(()) => println!("wrote {file}\n"),
                        Err(err) => {
                            eprintln!("experiment '{id}': cannot write {file}: {err}");
                            failures.push(id);
                        }
                    }
                }
            }
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
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    eprintln!("experiment ids: {}", ids.join(", "));
}
