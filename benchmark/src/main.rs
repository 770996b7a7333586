//! `dsr-benchmark run` and `dsr-benchmark compare`; see `README.md`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use dsr_benchmark::spec::WORKLOADS;
use dsr_benchmark::{report, run_workload, trace, Config};

const USAGE: &str = "usage:
  dsr-benchmark run --seed <u64> [--seconds <s>] [--out <file.json>]
      every workload, untraced then traced, each in a process of its own;
      writes the result file (default benchmark/out/result_seed<seed>.json)
  dsr-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>]
      one workload in this process; the last line of standard output is the
      result as one JSON object (test hooks: --scale <n> divides the sizes,
      --corrupt falsifies one answer; --part <file> is how a full run collects
      its children's results)
  dsr-benchmark compare <a.json> <b.json>
      one row per workload and end-to-end metric; fails on any `worse`";

/// Default length of one run's measured section, as in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|arg| arg == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|text| {
                text.parse()
                    .map_err(|_| format!("{flag}: cannot parse {text:?}"))
            })
            .transpose()
    }
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|err| format!("{}: {err}", parent.display()))?;
    }
    fs::write(path, contents).map_err(|err| format!("{}: {err}", path.display()))
}

/// One workload, in this process.
fn run_one(config: &Config, part_file: Option<&Path>) -> Result<bool, String> {
    let outcome = run_workload(config)?;
    let values = report::declared_values(config, &outcome)?;
    eprint!("{}", report::table(config, &outcome, &values));
    if config.trace {
        let path = report::out_dir().join(format!("trace_{}.json", config.workload));
        write_file(&path, &trace::to_json(&outcome.spans))?;
        eprintln!(
            "  {} spans written to {}",
            outcome.spans.len(),
            path.display()
        );
    }
    if let Some(path) = part_file {
        write_file(path, &report::part_json(config, &outcome, &values))?;
    }
    println!("{}", report::result_line(&outcome, &values));
    Ok(outcome.failed == 0)
}

/// Every workload, each run in a child process so that `peak_rss_mb`, the
/// slave pool and the allocator state are the workload's own.
fn run_all(seed: u64, seconds: f64, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|err| format!("own path: {err}"))?;
    let parts_dir = report::out_dir().join("parts");
    let start = Instant::now();
    let mut parts = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let part = parts_dir.join(format!("{workload}.{trace}.json"));
            let status = Command::new(&exe)
                .args(["run", "--workload", workload, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--part")
                .arg(&part)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|err| format!("{workload}: {err}"))?;
            all_correct &= status.success();
            parts.push(fs::read_to_string(&part).map_err(|err| {
                format!("{workload} (trace {trace}) left no result ({status}): {err}")
            })?);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    write_file(out, &report::result_file(seed, seconds, wall_s, &parts))?;
    eprintln!("result file: {} ({wall_s:.1} s)", out.display());
    Ok(all_correct)
}

fn run(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.parsed("--seed")?.ok_or("--seed is required")?;
    let seconds = flags.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    match flags.value("--workload") {
        Some(workload) => {
            let config = Config {
                workload: workload.to_string(),
                seed,
                seconds,
                trace: match flags.value("--trace") {
                    None | Some("0") => false,
                    Some("1") => true,
                    Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                },
                scale: flags.parsed("--scale")?.unwrap_or(1),
                corrupt: flags.0.iter().any(|arg| arg == "--corrupt"),
            };
            run_one(&config, flags.value("--part").map(Path::new))
        }
        None => {
            let out = flags.value("--out").map_or_else(
                || report::out_dir().join(format!("result_seed{seed}.json")),
                PathBuf::from,
            );
            run_all(seed, seconds, &out)
        }
    }
}

fn compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare takes exactly two result files".to_string());
    };
    let read = |path: &String| fs::read_to_string(path).map_err(|err| format!("{path}: {err}"));
    let rows = report::compare(&read(a)?, &read(b)?)?;
    print!("{}", report::compare_table(&rows));
    Ok(rows.iter().all(|row| row.verdict != report::Verdict::Worse))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&Flags(args.split_off(1))),
        Some("compare") => compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
