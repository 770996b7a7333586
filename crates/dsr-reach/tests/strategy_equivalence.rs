//! Property tests: every local reachability strategy must agree with the
//! transitive-closure oracle on arbitrary graphs and query sets.

use dsr_sync::Arc;

use dsr_graph::{DiGraph, TransitiveClosure};
use dsr_reach::{build_index, LocalIndexKind, LocalReachability};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (3usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..120))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_strategies_agree_with_oracle(
        (n, edges) in arb_graph(),
        source_picks in proptest::collection::vec(0usize..1000, 1..6),
        target_picks in proptest::collection::vec(0usize..1000, 1..6),
    ) {
        let g = DiGraph::from_edges(n, &edges);
        let oracle = TransitiveClosure::build(&g);
        let sources: Vec<u32> = source_picks.iter().map(|&x| (x % n) as u32).collect();
        let targets: Vec<u32> = target_picks.iter().map(|&x| (x % n) as u32).collect();
        let expected = oracle.set_reachability(&sources, &targets);

        let shared = Arc::new(g);
        for kind in LocalIndexKind::ALL {
            let idx = build_index(kind, Arc::clone(&shared));
            prop_assert_eq!(
                idx.set_reachability(&sources, &targets),
                expected.clone(),
                "strategy {} disagrees with the oracle", kind.name()
            );
        }
    }

    #[test]
    fn single_pair_agrees_with_oracle((n, edges) in arb_graph()) {
        let g = DiGraph::from_edges(n, &edges);
        let oracle = TransitiveClosure::build(&g);
        let shared = Arc::new(g);
        let indexes: Vec<(LocalIndexKind, Arc<dyn LocalReachability>)> = LocalIndexKind::ALL
            .map(|k| (k, build_index(k, Arc::clone(&shared))))
            .into();
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                let expected = oracle.reachable(s, t);
                for (kind, idx) in &indexes {
                    prop_assert_eq!(idx.is_reachable(s, t), expected,
                        "{} wrong on ({}, {})", kind.name(), s, t);
                }
            }
        }
    }
}
