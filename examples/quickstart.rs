//! Quickstart: build a graph, partition it, build the DSR index and answer
//! set-reachability queries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dsr_core::{DsrEngine, DsrIndex};
use dsr_graph::GraphBuilder;
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;

fn main() {
    // 1. Build a small directed graph. This is the running example of the
    //    paper (Figure 1): three regions connected through a handful of
    //    cross-region edges.
    let mut builder = GraphBuilder::new();
    let edges: &[(&str, &str)] = &[
        // Region 1
        ("d", "b"),
        ("d", "e"),
        ("a", "b"),
        ("r", "a"),
        ("f", "r"),
        // Region 2
        ("g", "i"),
        ("g", "l"),
        ("h", "i"),
        ("i", "k"),
        ("u", "h"),
        ("c", "i"),
        // Region 3
        ("m", "p"),
        ("n", "p"),
        ("n", "v"),
        ("p", "o"),
        ("p", "q"),
        ("p", "v"),
        // Cross-region edges (the cut)
        ("b", "c"),
        ("e", "g"),
        ("b", "h"),
        ("i", "m"),
        ("i", "n"),
        ("o", "f"),
    ];
    for (from, to) in edges {
        builder.add_labeled_edge(from, to);
    }
    let label = |name: &str, b: &GraphBuilder| b.label_id(name).expect("label exists");
    let d = label("d", &builder);
    let l = label("l", &builder);
    let p = label("p", &builder);
    let a = label("a", &builder);
    let k = label("k", &builder);
    let q = label("q", &builder);
    let graph = builder.build();
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. Partition the graph across three "slaves" with the METIS-like
    //    multilevel partitioner and build the DSR index.
    let partitioning = MultilevelPartitioner::default().partition(&graph, 3);
    println!(
        "partitioning: k={} cut={} balance={:.2}",
        partitioning.num_partitions,
        partitioning.cut_size(&graph),
        partitioning.balance()
    );
    let index = DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs);
    println!(
        "index: {} forward classes, {} backward classes, {} transit edges",
        index.stats.total_forward_classes,
        index.stats.total_backward_classes,
        index.stats.total_transit_edges
    );

    // 3. Ask the set-reachability query of Example 9: S = {d, l, p},
    //    T = {a, k, q}.
    let engine = DsrEngine::new(&index);
    let outcome = engine.set_reachability(&[d, l, p], &[a, k, q]);
    println!(
        "query S={{d,l,p}} T={{a,k,q}}: {} reachable pairs, {} communication rounds, {} bytes",
        outcome.pairs.len(),
        outcome.rounds,
        outcome.bytes
    );
    for (s, t) in &outcome.pairs {
        println!("  {} ; {}", s, t);
    }

    // 4. Single-pair reachability (Algorithm 1) needs no communication when
    //    both endpoints are in the same partition.
    println!("d ; q ? {}", engine.is_reachable(d, q));
    println!("q ; d ? {}", engine.is_reachable(q, d));
}
