//! Cross-engine agreement: DSR, DSR-Fan, DSR-Naïve, Giraph, Giraph++ and
//! Giraph++wEq must return identical result sets on the same queries.
//!
//! The DSR index and engine run on every backend of
//! [`dsr::testing::backends`]: in process and with every protocol message
//! (and the build-time summary exchange) encoded and decoded.

use dsr::testing::backends;
use dsr_cluster::{DynTransport, Transport};
use dsr_core::baselines::{FanBaseline, NaiveBaseline};
use dsr_core::{DsrEngine, DsrIndex, QueryOutcome};
use dsr_datagen::{dataset_by_name, random_query};
use dsr_giraph::{giraph_pp_set_reachability, giraph_set_reachability, GraphCentricVariant};
use dsr_graph::{DiGraph, VertexId};
use dsr_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use dsr_reach::LocalIndexKind;

/// DSR's answer to one query, with the index built and the query answered
/// on `transport`.
fn dsr_on(
    transport: &DynTransport,
    graph: &DiGraph,
    partitioning: &Partitioning,
    sources: &[VertexId],
    targets: &[VertexId],
) -> QueryOutcome {
    let index = DsrIndex::build_with_transport(
        graph,
        partitioning.clone(),
        LocalIndexKind::Dfs,
        true,
        transport,
    )
    .unwrap_or_else(|err| panic!("summary exchange on {}: {err}", transport.name()));
    DsrEngine::with_transport(&index, transport).set_reachability(sources, targets)
}

#[test]
fn all_engines_agree_on_small_web_graph() {
    let graph = dataset_by_name("NotreDame").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    let query = random_query(&graph, 8, 8, 3);

    let fan = FanBaseline::new(&graph, partitioning.clone())
        .set_reachability(&query.sources, &query.targets);
    let naive = NaiveBaseline::new(&graph, partitioning.clone())
        .set_reachability(&query.sources, &query.targets);
    let giraph = giraph_set_reachability(&graph, &partitioning, &query.sources, &query.targets);
    let variants = [
        GraphCentricVariant::GiraphPlusPlus,
        GraphCentricVariant::GiraphPlusPlusWithEquivalence,
    ]
    .map(|variant| {
        let out = giraph_pp_set_reachability(
            &graph,
            &partitioning,
            &query.sources,
            &query.targets,
            variant,
        );
        (variant, out)
    });

    for transport in backends() {
        let backend = transport.name();
        let dsr = dsr_on(
            &transport,
            &graph,
            &partitioning,
            &query.sources,
            &query.targets,
        );
        assert_eq!(dsr.pairs, fan.pairs, "DSR on {backend} vs DSR-Fan");
        assert_eq!(dsr.pairs, naive.pairs, "DSR on {backend} vs DSR-Naive");
        assert_eq!(dsr.pairs, giraph.pairs, "DSR on {backend} vs Giraph");
        for (variant, out) in &variants {
            assert_eq!(dsr.pairs, out.pairs, "DSR on {backend} vs {variant:?}");
        }
    }
}

#[test]
fn communication_profile_ordering() {
    // DSR must exchange (far) less data than the iterative engines and use
    // a bounded number of rounds, per the paper's headline claim.
    let graph = dataset_by_name("LiveJ-20M").unwrap().graph;
    let partitioning = MultilevelPartitioner::default().partition(&graph, 5);
    let query = random_query(&graph, 10, 10, 5);

    let giraph = giraph_set_reachability(&graph, &partitioning, &query.sources, &query.targets);
    let gpp = giraph_pp_set_reachability(
        &graph,
        &partitioning,
        &query.sources,
        &query.targets,
        GraphCentricVariant::GiraphPlusPlus,
    );
    assert!(
        giraph.bytes > gpp.bytes,
        "graph-centric processing must reduce communication vs plain Giraph"
    );

    for transport in backends() {
        let backend = transport.name();
        let dsr = dsr_on(
            &transport,
            &graph,
            &partitioning,
            &query.sources,
            &query.targets,
        );
        assert_eq!(dsr.pairs, giraph.pairs, "DSR on {backend} vs Giraph");
        assert!(
            dsr.rounds <= 3,
            "DSR must stay within one data-exchange round on {backend}"
        );
        assert!(
            giraph.supersteps > dsr.rounds,
            "vertex-centric Giraph iterates more rounds than DSR on {backend}"
        );
    }
}
