//! `Timed<T>` must be invisible to the protocol: it forwards `name`,
//! `is_zero_copy` and `topology` unchanged, and answers and `CommStats`
//! (rounds, messages, bytes) are identical with and without it on every
//! backend.

use std::time::Instant;

use dsr_benchmark::inputs::{build_indexed, query_pool, PARTITIONS};
use dsr_benchmark::timed::{Timed, WireProbe};
use dsr_benchmark::trace::{children_ns, total_ns, Recorder};
use dsr_cluster::{CommStats, InProcess, TcpTransport, Transport, WireTransport};
use dsr_core::{DsrEngine, DsrIndex, SetQuery};

type Answers = Vec<Vec<(u32, u32)>>;

/// Every query on its own, then all of them as one batch.
fn answers_and_stats<T: Transport>(
    index: &DsrIndex,
    transport: T,
    queries: &[SetQuery],
) -> (Answers, (u64, u64, u64)) {
    let engine = DsrEngine::with_transport(index, transport);
    let stats = CommStats::new();
    let mut answers = Answers::new();
    for query in queries {
        answers.extend(
            engine
                .set_reachability_batch_with_stats(std::slice::from_ref(query), &stats)
                .expect("transport stays up"),
        );
    }
    answers.extend(
        engine
            .set_reachability_batch_with_stats(queries, &stats)
            .expect("transport stays up"),
    );
    (answers, stats.snapshot())
}

fn decorator_is_invisible<T: Transport>(transport: T) {
    let indexed = build_indexed(7, 300);
    let queries = query_pool(&indexed.graph, 24, 7);
    let calls = queries.len() as u64 + 1;

    let bare = answers_and_stats(&indexed.index, &transport, &queries);

    let recorder = Recorder::new(Instant::now());
    let timed = Timed::new(&transport, &recorder, None);
    assert_eq!(timed.name(), transport.name());
    assert_eq!(timed.is_zero_copy(), transport.is_zero_copy());
    assert_eq!(timed.topology(PARTITIONS), transport.topology(PARTITIONS));
    let decorated = answers_and_stats(&indexed.index, timed, &queries);
    assert_eq!(decorated, bare, "answers and CommStats with the decorator");
    assert_eq!(bare.1 .0, 3 * calls, "three rounds per engine call");

    // One span per collective, none of them nested in another.
    let spans = recorder.into_spans();
    assert_eq!(spans.len() as u64, 3 * calls);
    for name in ["cluster.scatter", "cluster.exchange", "cluster.gather"] {
        assert_eq!(
            spans.iter().filter(|s| s.name == name).count() as u64,
            calls
        );
        assert!(total_ns(&spans, name) > 0);
        assert_eq!(children_ns(&spans, name), 0);
    }

    // The probing decorator changes nothing either, and what it captured
    // decodes again.
    let recorder = Recorder::new(Instant::now());
    let probe = WireProbe::default();
    let probed = Timed::new(&transport, &recorder, Some(&probe));
    assert_eq!(answers_and_stats(&indexed.index, probed, &queries), bare);
    let wire = probe.throughput();
    assert_eq!(
        wire.bytes, bare.1 .2,
        "probe saw exactly the bytes accounted"
    );
    assert!(wire.encode_mb_per_s > 0.0 && wire.decode_mb_per_s > 0.0);
}

#[test]
fn invisible_on_in_process() {
    decorator_is_invisible(InProcess);
}

#[test]
fn invisible_on_wire() {
    decorator_is_invisible(WireTransport::new());
}

#[test]
fn invisible_on_tcp_loopback() {
    decorator_is_invisible(TcpTransport::loopback());
}
