//! Cross-engine agreement: DSR, DSR-Fan, DSR-Naïve, Giraph, Giraph++ and
//! Giraph++wEq must return identical result sets on the same queries.
//!
//! The DSR index and engine are built through [`dsr::testing`], so setting
//! `DSR_TRANSPORT=wire` reruns this whole suite with every protocol message
//! (and the build-time summary exchange) encoded and decoded, and
//! `DSR_TRANSPORT=tcp` reruns it over a loopback TCP worker cluster — the
//! CI test matrix exercises all three backends.

use dsr::testing::{build_index_from_env, engine_from_env};
use dsr_core::baselines::{FanBaseline, NaiveBaseline};
use dsr_datagen::{dataset_by_name, random_query};
use dsr_giraph::{giraph_pp_set_reachability, giraph_set_reachability, GraphCentricVariant};
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;

#[test]
fn all_engines_agree_on_small_web_graph() {
    let graph = dataset_by_name("NotreDame").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    let query = random_query(&graph, 8, 8, 3);

    let index = build_index_from_env(&graph, partitioning.clone(), LocalIndexKind::Dfs);
    let dsr = engine_from_env(&index).set_reachability(&query.sources, &query.targets);

    let fan = FanBaseline::new(&graph, partitioning.clone())
        .set_reachability(&query.sources, &query.targets);
    assert_eq!(dsr.pairs, fan.pairs, "DSR vs DSR-Fan");

    let naive = NaiveBaseline::new(&graph, partitioning.clone())
        .set_reachability(&query.sources, &query.targets);
    assert_eq!(dsr.pairs, naive.pairs, "DSR vs DSR-Naive");

    let giraph = giraph_set_reachability(&graph, &partitioning, &query.sources, &query.targets);
    assert_eq!(dsr.pairs, giraph.pairs, "DSR vs Giraph");

    for variant in [
        GraphCentricVariant::GiraphPlusPlus,
        GraphCentricVariant::GiraphPlusPlusWithEquivalence,
    ] {
        let out = giraph_pp_set_reachability(
            &graph,
            &partitioning,
            &query.sources,
            &query.targets,
            variant,
        );
        assert_eq!(dsr.pairs, out.pairs, "DSR vs {variant:?}");
    }
}

#[test]
fn communication_profile_ordering() {
    // DSR must exchange (far) less data than the iterative engines and use
    // a bounded number of rounds, per the paper's headline claim.
    let graph = dataset_by_name("LiveJ-20M").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    let query = random_query(&graph, 10, 10, 5);

    let index = build_index_from_env(&graph, partitioning.clone(), LocalIndexKind::Dfs);
    let dsr = engine_from_env(&index).set_reachability(&query.sources, &query.targets);
    let giraph = giraph_set_reachability(&graph, &partitioning, &query.sources, &query.targets);
    let gpp = giraph_pp_set_reachability(
        &graph,
        &partitioning,
        &query.sources,
        &query.targets,
        GraphCentricVariant::GiraphPlusPlus,
    );

    assert_eq!(dsr.pairs, giraph.pairs);
    assert!(
        dsr.rounds <= 3,
        "DSR must stay within one data-exchange round"
    );
    assert!(
        giraph.supersteps > dsr.rounds,
        "vertex-centric Giraph iterates more rounds than DSR"
    );
    assert!(
        giraph.bytes > gpp.bytes,
        "graph-centric processing must reduce communication vs plain Giraph"
    );
}
