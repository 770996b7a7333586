//! `dsr-node` — the multi-process deployment binary of the DSR
//! reproduction.
//!
//! One binary, two roles:
//!
//! * **worker** — hosts partitions for a master: binds a TCP listener,
//!   waits for the master handshake (which assigns the worker id and the
//!   cluster topology), then serves the scatter/exchange/gather relays and
//!   the differential-update delta exchanges of
//!   [`dsr_cluster::tcp::serve_worker`], forwarding exchange frames to
//!   peer workers over the worker-to-worker mesh.
//! * **master** — loads/partitions a graph, drives
//!   `DsrIndex::build_with_transport` over the TCP cluster, fronts the
//!   resulting index with a [`QueryService`], runs a query batch and a
//!   mixed update batch — and **verifies** that every answer and every
//!   `CommStats`/`UpdateStats` byte count is identical to an in-process
//!   reference run. Any divergence (or any transport failure) exits
//!   nonzero, which is exactly what the CI smoke step checks.
//!
//! ```text
//! dsr-node worker --listen 127.0.0.1:7101
//! dsr-node master --workers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103
//! dsr-node master --cluster cluster.toml --queries 64 --updates 32
//! ```

#![forbid(unsafe_code)]

use dsr_sync::Arc;
use std::process::ExitCode;
use std::time::Duration;

use dsr_cluster::tcp::{bind_worker, serve_worker, WorkerOptions};
use dsr_cluster::{ClusterSpec, DynTransport, FaultPlan, TcpTransport};
use dsr_core::{DsrIndex, SetQuery, SummaryDelta, UpdateOp};
use dsr_datagen::{update_stream, EdgeOp, UpdateStreamConfig};
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryService, ServiceConfig, UpdateMode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => run_worker(&args[1..]),
        Some("master") => run_master(&args[1..]),
        Some("--help" | "-h") | None => {
            print_usage();
            if args.is_empty() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Some(other) => {
            eprintln!("dsr-node: unknown role {other:?} (expected `worker` or `master`)");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!("usage: dsr-node worker --listen HOST:PORT [--io-timeout-ms N] [--keep-serving]");
    eprintln!("       dsr-node master (--workers a,b,c | --cluster FILE)");
    eprintln!("                       [--vertices N] [--queries N] [--updates N] [--seed S]");
    eprintln!("                       [--replication R] [--batches N] [--pause-ms N]");
    eprintln!("                       [--chaos \"worker=W[,after=N][,phase=P];...\"]");
    eprintln!();
    eprintln!("worker: hosts partitions for a master; by default serves one master");
    eprintln!("        session and exits (use --keep-serving for a long-lived worker).");
    eprintln!("        --listen 127.0.0.1:0 picks a free port; the bound address is");
    eprintln!("        printed as `dsr-node worker listening on ADDR`.");
    eprintln!();
    eprintln!("master: builds the DSR index over the TCP cluster, runs a query batch");
    eprintln!("        and a mixed update batch through a QueryService fronting the");
    eprintln!("        workers, and verifies answers and CommStats/UpdateStats byte");
    eprintln!("        counts against an in-process reference (exit 1 on mismatch).");
}

// ---------------------------------------------------------------------------
// Worker role.
// ---------------------------------------------------------------------------

fn run_worker(args: &[String]) -> ExitCode {
    let mut listen = "127.0.0.1:0".to_string();
    let mut io_timeout = Duration::from_secs(30);
    let mut keep_serving = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--listen" => match iter.next() {
                Some(value) => listen = value.clone(),
                None => return flag_needs_value("--listen"),
            },
            "--io-timeout-ms" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => io_timeout = Duration::from_millis(ms),
                None => return flag_needs_value("--io-timeout-ms"),
            },
            "--keep-serving" => keep_serving = true,
            other => {
                eprintln!("dsr-node worker: unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let listener = match bind_worker(&listen) {
        Ok(listener) => listener,
        Err(err) => {
            // A bind conflict (port already taken) lands here with the
            // address in the message — actionable, not a panic.
            eprintln!("dsr-node worker: {err}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("dsr-node worker listening on {addr}"),
        Err(err) => {
            eprintln!("dsr-node worker: cannot read bound address: {err}");
            return ExitCode::FAILURE;
        }
    }
    let options = WorkerOptions {
        io_timeout,
        master_wait: None,
        // A long-lived worker lingers after losing its master so a failover
        // retry (or a restarted master) can re-adopt it.
        rejoin_wait: keep_serving.then_some(io_timeout),
    };
    loop {
        let session_listener = match listener.try_clone() {
            Ok(l) => l,
            Err(err) => {
                eprintln!("dsr-node worker: cannot clone listener: {err}");
                return ExitCode::FAILURE;
            }
        };
        match serve_worker(session_listener, options.clone()) {
            Ok(()) => println!("dsr-node worker: session complete"),
            Err(err) if keep_serving => {
                // A failed session must not take down a long-lived worker:
                // report it and go back to waiting for the next master.
                eprintln!("dsr-node worker: session failed (still serving): {err}");
            }
            Err(err) => {
                eprintln!("dsr-node worker: session failed: {err}");
                return ExitCode::FAILURE;
            }
        }
        if !keep_serving {
            return ExitCode::SUCCESS;
        }
    }
}

fn flag_needs_value(flag: &str) -> ExitCode {
    eprintln!("dsr-node: {flag} needs a value");
    ExitCode::FAILURE
}

// ---------------------------------------------------------------------------
// Master role.
// ---------------------------------------------------------------------------

struct MasterArgs {
    spec: ClusterSpec,
    vertices: usize,
    queries: usize,
    updates: usize,
    seed: u64,
    batches: usize,
    pause: Duration,
    chaos: Option<FaultPlan>,
}

fn parse_master_args(args: &[String]) -> Result<MasterArgs, String> {
    let mut spec: Option<ClusterSpec> = None;
    let mut vertices = 800usize;
    let mut queries = 64usize;
    let mut updates = 32usize;
    let mut seed = 0xD5u64;
    let mut replication: Option<usize> = None;
    let mut batches = 1usize;
    let mut pause = Duration::ZERO;
    let mut chaos: Option<FaultPlan> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workers" => {
                let list = value("--workers")?;
                let workers = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                spec = Some(ClusterSpec::new(workers));
            }
            "--cluster" => {
                let path = value("--cluster")?;
                spec = Some(ClusterSpec::from_file(std::path::Path::new(&path))?);
            }
            "--vertices" => vertices = parse_number(&value("--vertices")?, "--vertices")?,
            "--queries" => queries = parse_number(&value("--queries")?, "--queries")?,
            "--updates" => updates = parse_number(&value("--updates")?, "--updates")?,
            "--seed" => seed = parse_number(&value("--seed")?, "--seed")? as u64,
            "--replication" => {
                replication = Some(parse_number(&value("--replication")?, "--replication")?);
            }
            "--batches" => {
                batches = parse_number(&value("--batches")?, "--batches")?.max(1);
            }
            "--pause-ms" => {
                pause = Duration::from_millis(
                    parse_number(&value("--pause-ms")?, "--pause-ms")? as u64
                );
            }
            "--chaos" => {
                let plan =
                    FaultPlan::parse(&value("--chaos")?).map_err(|e| format!("--chaos: {e}"))?;
                chaos = Some(plan);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let mut spec = spec.ok_or("no cluster given: pass --workers or --cluster")?;
    if let Some(r) = replication {
        spec.replication = r;
    }
    spec.validate()?;
    Ok(MasterArgs {
        spec,
        vertices,
        queries,
        updates,
        seed,
        batches,
        pause,
        chaos,
    })
}

fn parse_number(value: &str, flag: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map_err(|_| format!("{flag} expects an integer, got {value:?}"))
}

/// Tracks verification failures so every check runs (and reports) before
/// the process decides its exit code.
struct Verdict {
    failures: usize,
}

impl Verdict {
    fn check(&mut self, what: &str, ok: bool) {
        if ok {
            println!("  PASS  {what}");
        } else {
            self.failures += 1;
            println!("  FAIL  {what}");
        }
    }
}

fn run_master(args: &[String]) -> ExitCode {
    let args = match parse_master_args(args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("dsr-node master: {err}");
            return ExitCode::FAILURE;
        }
    };
    match run_master_checked(&args) {
        Ok(0) => {
            println!("dsr-node master: all checks passed — TCP cluster is byte-identical");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            eprintln!("dsr-node master: {failures} check(s) FAILED");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("dsr-node master: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Attempts to re-adopt suspect workers, replaying `backlog` (the summary
/// deltas shipped since they went dark) so a rejoined replica is brought up
/// to date differentially instead of rebuilt.
fn try_rejoin(service: &QueryService, backlog: &[SummaryDelta]) {
    let Some(tcp) = service.transport().as_tcp() else {
        return;
    };
    if tcp.suspects().is_empty() {
        return;
    }
    let rejoined = tcp.rejoin_suspects(backlog, service.comm_stats());
    if !rejoined.is_empty() {
        println!(
            "resync: worker(s) {rejoined:?} rejoined, {} summary delta(s) replayed",
            backlog.len()
        );
    }
}

fn run_master_checked(args: &MasterArgs) -> Result<usize, String> {
    let k = args.spec.workers.len();
    println!(
        "dsr-node master: {} workers, {} partitions (replication {}), {} vertices, \
         {} queries x {} batches, {} update ops",
        k, k, args.spec.replication, args.vertices, args.queries, args.batches, args.updates
    );

    // Deterministic synthetic web graph: both the reference and the
    // cluster index its exact replica.
    let graph = dsr_datagen::web_graph(args.vertices, 4.0, 16, 0.7, args.seed);
    let partitioning = MultilevelPartitioner::default().partition(&graph, k);

    // --- In-process reference. ------------------------------------------
    let reference = QueryService::new(Arc::new(DsrIndex::build(
        &graph,
        partitioning.clone(),
        LocalIndexKind::Dfs,
    )));

    // --- The real thing: index built over the TCP cluster, service
    // fronting the remote workers. ---------------------------------------
    let transport = TcpTransport::connect(&args.spec).map_err(|e| e.to_string())?;
    println!(
        "connected to {} workers: {}",
        transport.num_workers(),
        args.spec.workers.join(", ")
    );
    if let Some(plan) = &args.chaos {
        transport.inject_faults(plan.clone());
        println!("chaos: armed {} injected fault(s)", plan.faults().len());
    }
    let transport = DynTransport::Tcp(transport);
    let tcp_index =
        DsrIndex::build_with_transport(&graph, partitioning, LocalIndexKind::Dfs, true, &transport)
            .map_err(|e| format!("index build over TCP failed: {e}"))?;
    println!(
        "index built over TCP: summary exchange {} messages, {} bytes",
        tcp_index.stats.summary_messages, tcp_index.stats.summary_bytes
    );
    let mut verdict = Verdict { failures: 0 };
    let service = QueryService::with_config_and_transport(
        Arc::new(tcp_index),
        ServiceConfig::default(),
        transport,
    );
    // Byte-identity verdicts only hold on the fault-free path: once
    // failover has rerouted (or a resync has replayed deltas) the aggregate
    // counters legitimately include recovery traffic. Correctness verdicts
    // — every answer matching the in-process reference — are never skipped.
    let clean = service.failover_stats().is_zero();
    if clean {
        verdict.check(
            "summary-exchange bytes match in-process build",
            (
                service.index().stats.summary_messages,
                service.index().stats.summary_bytes,
            ) == (
                reference.index().stats.summary_messages,
                reference.index().stats.summary_bytes,
            ),
        );
    } else {
        println!("  SKIP  summary-exchange byte identity (failover active)");
    }

    // --- Query batch 1 of N: 3 rounds, answers + bytes verified. ---------
    let n = graph.num_vertices() as u32;
    let make_queries = |batch: u32| -> Vec<SetQuery> {
        (0..args.queries as u32)
            .map(|q| {
                SetQuery::new(
                    (0..10)
                        .map(|s| (q * 131 + s * 17 + batch * 7919) % n)
                        .collect(),
                    (0..10)
                        .map(|t| (q * 197 + t * 41 + batch * 3571) % n)
                        .collect(),
                )
            })
            .collect()
    };
    let queries = make_queries(0);
    let expected = reference
        .query_batch(&queries)
        .map_err(|e| format!("reference batch failed: {e}"))?;
    let reply = service
        .query_batch(&queries)
        .map_err(|e| format!("TCP batch failed: {e}"))?;
    println!(
        "query batch 1/{}: {} queries -> rounds {}, messages {}, {} bytes over TCP",
        args.batches,
        queries.len(),
        reply.rounds,
        reply.messages,
        reply.bytes
    );
    verdict.check("query batch costs 3 rounds", reply.rounds == 3);
    verdict.check(
        "batch 1: answers match in-process backend",
        reply
            .results
            .iter()
            .zip(&expected.results)
            .all(|(a, b)| a == b),
    );
    if service.failover_stats().is_zero() {
        verdict.check(
            "batch 1: CommStats bytes match in-process backend",
            (reply.rounds, reply.messages, reply.bytes)
                == (expected.rounds, expected.messages, expected.bytes),
        );
    } else {
        println!("  SKIP  batch 1: byte identity (failover active)");
    }

    // --- One mixed update batch, deltas shipped over TCP. The shipped
    // deltas double as the resync backlog for any worker that rejoins. ----
    let ops: Vec<UpdateOp> = update_stream(
        &graph,
        &UpdateStreamConfig {
            num_ops: args.updates,
            insert_fraction: 0.6,
            seed: args.seed ^ 0xF00D,
        },
    )
    .iter()
    .map(|&op| match op {
        EdgeOp::Insert(u, v) => UpdateOp::Insert(u, v),
        EdgeOp::Delete(u, v) => UpdateOp::Delete(u, v),
    })
    .collect();
    let expected_update = reference
        .update(&ops, UpdateMode::Auto)
        .map_err(|e| format!("reference update failed: {e}"))?;
    let update = service
        .update(&ops, UpdateMode::Auto)
        .map_err(|e| format!("TCP update failed: {e}"))?;
    println!(
        "update batch: {} ops -> {} summaries refreshed, {} compounds patched, \
         {} delta bytes over TCP",
        ops.len(),
        update.refreshed_summaries.len(),
        update.patched_compounds.len(),
        update.stats.update_bytes
    );
    let backlog: Vec<SummaryDelta> = update
        .shipped_deltas
        .iter()
        .map(|(_, delta)| delta.clone())
        .collect();
    if service.failover_stats().is_zero() {
        verdict.check(
            "UpdateStats match in-process backend",
            update.stats == expected_update.stats,
        );
    } else {
        println!("  SKIP  UpdateStats byte identity (failover active)");
    }
    verdict.check(
        "refreshed/patched partitions match in-process backend",
        update.refreshed_summaries == expected_update.refreshed_summaries
            && update.patched_compounds == expected_update.patched_compounds,
    );

    // --- Post-update batches 2..N: the patched remote index answers
    // correctly, across worker deaths (failover reroutes) and worker
    // restarts (rejoin + differential resync between batches). ------------
    for batch in 1..args.batches.max(2) as u32 {
        if !args.pause.is_zero() {
            dsr_sync::thread::sleep(args.pause);
        }
        try_rejoin(&service, &backlog);
        let queries = make_queries(batch);
        let expected = reference
            .query_batch(&queries)
            .map_err(|e| format!("reference batch {} failed: {e}", batch + 1))?;
        let reply = service
            .query_batch(&queries)
            .map_err(|e| format!("TCP batch {} failed: {e}", batch + 1))?;
        verdict.check(
            &format!("batch {}: answers match in-process backend", batch + 1),
            reply
                .results
                .iter()
                .zip(&expected.results)
                .all(|(a, b)| a == b),
        );
        if service.failover_stats().is_zero() {
            verdict.check(
                &format!(
                    "batch {}: CommStats bytes match in-process backend",
                    batch + 1
                ),
                (reply.rounds, reply.messages, reply.bytes)
                    == (expected.rounds, expected.messages, expected.bytes),
            );
        } else {
            println!(
                "  SKIP  batch {}: byte identity (failover active)",
                batch + 1
            );
        }
    }

    // One last chance for a restarted worker to rejoin before reporting.
    try_rejoin(&service, &backlog);
    let failover = service.failover_stats();
    println!(
        "failover: retries={} suspects={} resyncs={}",
        failover.retries, failover.suspects, failover.resyncs
    );

    Ok(verdict.failures)
}
