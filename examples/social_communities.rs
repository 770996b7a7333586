//! Community connectedness in a social network (the paper's Section 4.5.B
//! application).
//!
//! A synthetic follower graph with planted communities is generated, the
//! Louvain method detects the communities, and DSR reports which members of
//! the largest community can reach which members of the second largest —
//! the "billionaires who are also involved in philanthropic activities"
//! style of analysis from the paper's introduction.
//!
//! ```text
//! cargo run --release --example social_communities
//! ```

use std::time::Instant;

use dsr_community::{louvain, modularity};
use dsr_core::{DsrEngine, DsrIndex};
use dsr_datagen::social_network;
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;

fn main() {
    // 1. Generate a follower graph with planted communities.
    let social = social_network(4_000, 20, 10.0, 0.9, 7);
    println!(
        "social graph: {} users, {} follow edges",
        social.graph.num_vertices(),
        social.graph.num_edges()
    );

    // 2. Detect communities with the Louvain method.
    let assignment = louvain(&social.graph, 1e-6);
    println!(
        "louvain: {} communities, modularity {:.3}",
        assignment.num_communities,
        modularity(&social.graph, &assignment.community)
    );

    // 3. Build the DSR index over the partitioned graph (5 slaves).
    let partitioning = MultilevelPartitioner::default().partition(&social.graph, 5);
    let index = DsrIndex::build(&social.graph, partitioning, LocalIndexKind::Dfs);
    let engine = DsrEngine::new(&index);

    // 4. Query connectivity between the two largest communities for growing
    //    representative counts, like Table 7 of the paper.
    let by_size = assignment.by_size();
    let community_a = assignment.members(by_size[0]);
    let community_b = assignment.members(by_size[1]);
    println!(
        "querying connectivity between community {} ({} members) and community {} ({} members)",
        by_size[0],
        community_a.len(),
        by_size[1],
        community_b.len()
    );
    for size in [10usize, 50, 200] {
        let sources = &community_a[..size.min(community_a.len())];
        let targets = &community_b[..size.min(community_b.len())];
        let start = Instant::now();
        let outcome = engine.set_reachability(sources, targets);
        println!(
            "  |S|x|T| = {:>3}x{:<3} -> {:>6} reachable pairs in {:?} ({} bytes exchanged)",
            sources.len(),
            targets.len(),
            outcome.pairs.len(),
            start.elapsed(),
            outcome.bytes
        );
    }
}
