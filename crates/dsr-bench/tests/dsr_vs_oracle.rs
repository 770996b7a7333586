//! The DSR-Fan and DSR-Naïve baselines must agree with the centralized
//! transitive-closure oracle on arbitrary graphs: they are the comparison
//! points of Tables 2 and 3.

use dsr_bench::baselines::{FanBaseline, NaiveBaseline};
use dsr_cluster::CommStats;
use dsr_graph::{DiGraph, TransitiveClosure};
use dsr_partition::{HashPartitioner, Partitioner};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// 40 seeded graphs of 4 to 35 vertices and up to 109 edges, self-loops
/// and parallel edges included.
#[test]
fn baselines_match_oracle() {
    let mut rng = SmallRng::seed_from_u64(78);
    for case in 0..40 {
        let n = rng.gen_range(4..36);
        let m = rng.gen_range(0..110);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
            .collect();
        let g = DiGraph::from_edges(n, &edges);
        let p = HashPartitioner::default().partition(&g, 3);
        let oracle = TransitiveClosure::build(&g);
        let sources: Vec<u32> = (0..n as u32).step_by(3).collect();
        let targets: Vec<u32> = (0..n as u32).step_by(2).collect();
        let expected = oracle.set_reachability(&sources, &targets);
        let stats = CommStats::new();
        let fan = FanBaseline::new(&g, p.clone()).set_reachability(&sources, &targets, &stats);
        assert_eq!(fan.pairs, expected, "DSR-Fan, case {case}");
        let naive = NaiveBaseline::new(&g, p).set_reachability(&sources, &targets, &stats);
        assert_eq!(naive.pairs, expected, "DSR-Naive, case {case}");
    }
}
