//! Multi-process TCP cluster demo: this example **re-executes itself** as
//! three worker child processes (each serving a real `127.0.0.1` socket
//! via `dsr_cluster::tcp::serve_worker` — the exact code the loopback
//! workers run), connects a master [`TcpTransport`] to them, builds the
//! DSR index over the cluster, answers a 64-query batch in 3 communication
//! rounds, and shows that answers and byte counts are identical to the
//! in-process backend.
//!
//! Run with: `cargo run --release --example tcp_cluster`

use dsr_sync::Arc;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dsr_cluster::tcp::{bind_worker, serve_worker};
use dsr_cluster::{ClusterSpec, DynTransport, TcpTransport};
use dsr_core::{DsrIndex, SetQuery};
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryService, ServiceConfig};

fn main() {
    // Child mode: `tcp_cluster __worker` — bind a free port, print it,
    // serve master sessions until the master shuts the worker down, exit.
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("__worker") {
        let listener = bind_worker("127.0.0.1:0").expect("bind worker port");
        println!("{}", listener.local_addr().expect("bound address"));
        serve_worker(listener, Duration::from_secs(30)).expect("worker sessions");
        return;
    }

    // Parent mode: spawn three copies of ourselves as worker processes.
    let exe = std::env::current_exe().expect("own executable path");
    let mut children: Vec<(Child, String)> = (0..3)
        .map(|_| {
            let mut child = Command::new(&exe)
                .arg("__worker")
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn worker child process");
            let mut line = String::new();
            BufReader::new(child.stdout.take().expect("piped stdout"))
                .read_line(&mut line)
                .expect("read worker address");
            (child, line.trim().to_string())
        })
        .collect();
    let addresses: Vec<String> = children.iter().map(|(_, addr)| addr.clone()).collect();
    println!("spawned 3 worker processes: {}", addresses.join(", "));

    // A deterministic web graph partitioned across the three workers.
    let graph = dsr_datagen::web_graph(2_000, 4.0, 16, 0.7, 0xD5);
    let partitioning = MultilevelPartitioner::default().partition(&graph, 3);

    // In-process reference …
    let reference_index = DsrIndex::build(&graph, partitioning.clone(), LocalIndexKind::Dfs);
    let reference = QueryService::new(Arc::new(reference_index));

    // … and the real cluster: handshake, remote index build, service.
    let spec = ClusterSpec::new(addresses);
    let transport = DynTransport::Tcp(TcpTransport::connect(&spec).expect("connect cluster"));
    let tcp_index =
        DsrIndex::build_with_transport(&graph, partitioning, LocalIndexKind::Dfs, true, &transport)
            .expect("index build over the TCP cluster");
    println!(
        "index built over TCP: {} summary messages, {} bytes",
        tcp_index.stats.summary_messages, tcp_index.stats.summary_bytes
    );
    let service = QueryService::with_config_and_transport(
        Arc::new(tcp_index),
        ServiceConfig::default(),
        transport,
    );

    // A 64-query batch: one scatter, one all-to-all, one gather — across
    // four OS processes.
    let n = graph.num_vertices() as u32;
    let queries: Vec<SetQuery> = (0..64)
        .map(|q| {
            SetQuery::new(
                (0..10).map(|s| (q * 131 + s * 17) % n).collect(),
                (0..10).map(|t| (q * 197 + t * 41) % n).collect(),
            )
        })
        .collect();
    let expected = reference.query_batch(&queries).expect("in-process");
    let start = Instant::now();
    let reply = service.query_batch(&queries).expect("tcp cluster");
    let elapsed = start.elapsed();
    assert!(
        reply
            .results
            .iter()
            .zip(&expected.results)
            .all(|(a, b)| a == b),
        "cluster answers must be byte-identical"
    );
    assert_eq!(
        (reply.rounds, reply.messages, reply.bytes),
        (expected.rounds, expected.messages, expected.bytes),
        "cluster communication cost must match the in-process accounting"
    );
    println!(
        "64-query batch across 4 processes: rounds {}, messages {}, {:.1} KB, {:?}",
        reply.rounds,
        reply.messages,
        reply.bytes as f64 / 1024.0,
        elapsed
    );
    println!("answers and byte counts identical to the in-process backend ✓");

    // Dropping the service closes the transport, which shuts the workers
    // down cleanly; reap the children.
    drop(service);
    for (child, addr) in &mut children {
        let status = child.wait().expect("worker child exits");
        assert!(status.success(), "worker {addr} must exit cleanly");
    }
    println!("3 worker processes exited cleanly ✓");
}
