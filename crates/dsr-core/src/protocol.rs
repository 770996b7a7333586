//! Wire messages of the distributed protocol.
//!
//! Everything the engine ships between the master and the slaves — and
//! between slave pairs in step 2 of Algorithm 2 — is defined here as a
//! concrete message type with a [`Wire`] codec and an exact [`MessageSize`].
//! The [`Transport`](dsr_cluster::Transport) backends consume these
//! implementations: the in-process backend only calls `byte_size()`, the
//! wire backend actually encodes, ships and decodes the bytes (and
//! debug-asserts that both agree).
//!
//! The protocol's id collections are sorted and deduplicated before they
//! are shipped, so they use the delta-encoded sorted-run format
//! ([`put_sorted_ids`]) — a dense run of vertex ids costs roughly one byte
//! per id instead of four.
//!
//! Message flow of one batched query (3 communication rounds):
//!
//! 1. **Scatter** — the master sends each slave a [`ScatterMessage`]: one
//!    [`ScatterQuery`] per active query holding the slave's local sources
//!    and the full target list.
//! 2. **Exchange** — slave pairs swap [`BatchBuffer`]s: per query, the
//!    [`SourceMessage`]s describing which forward classes (and, when the
//!    query targets in-boundaries, which concrete entry vertices) of the
//!    destination partition each source reaches.
//! 3. **Gather** — every slave returns a [`GatherMessage`]: per query, the
//!    `(source, target)` pairs it resolved.
//!
//! The index build additionally exchanges [`PartitionSummary`] messages
//! all-to-all (every slave needs every other partition's summary to build
//! its compound graph), so the summary carries a codec too.
//!
//! Incremental updates (Section 3.3.3) add a fourth message:
//! [`SummaryDelta`], the differential refresh an affected partition ships
//! to every peer after an edge insertion/deletion batch. It carries only
//! what changed — owned cut-edge splices, a wholesale
//! [`ClassReplacement`] when the equivalence grouping moved, or a sorted
//! transit diff when only the class-to-class relation changed — so the
//! update cost recorded in
//! [`UpdateStats`](dsr_cluster::UpdateStats) is the measured wire size of
//! the deltas, not of rebuilt summaries.

use dsr_cluster::wire::{get_sorted_ids, put_sorted_ids, sorted_ids_size, varint_size};
use dsr_cluster::{MessageSize, Wire, WireError, WireReader};
use dsr_graph::VertexId;

use crate::summary::{boundaries_of_classes, ClassReplacement, PartitionSummary, SummaryDelta};

/// One active query as delivered to one slave by the scatter round: the
/// slave's local sources and the query's full target list (both sorted and
/// deduplicated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterQuery {
    /// The query's sources that live in the receiving slave's partition.
    pub sources: Vec<VertexId>,
    /// The query's full target list (targets of every partition — the
    /// slave needs them to route classes and resolve final pairs).
    pub targets: Vec<VertexId>,
}

/// The scatter payload for one slave: one entry per active query of the
/// batch, indexed by active-query id.
pub type ScatterMessage = Vec<ScatterQuery>;

/// The per-source buffer shipped from a source slave to a target slave in
/// step 2 of Algorithm 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMessage {
    /// The (global) source vertex.
    pub source: VertexId,
    /// Forward-equivalence classes of the destination partition reached
    /// from `source` (sorted, distinct).
    pub classes: Vec<u32>,
    /// Concrete in-boundary vertices of the destination partition reached
    /// from `source` (sorted, distinct); only populated when the query's
    /// target set contains in-boundary vertices of that partition.
    pub entries: Vec<VertexId>,
}

/// Exchange payload between one slave pair: per active query, the source
/// buffers of that query (step 2 of the batched protocol).
pub type BatchBuffer = Vec<(u32, Vec<SourceMessage>)>;

/// Gather payload from one slave: per active query, its resolved pairs.
pub type GatherMessage = Vec<(u32, Vec<(VertexId, VertexId)>)>;

impl Wire for ScatterQuery {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_sorted_ids(buf, &self.sources);
        put_sorted_ids(buf, &self.targets);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ScatterQuery {
            sources: get_sorted_ids(reader)?,
            targets: get_sorted_ids(reader)?,
        })
    }
}

impl MessageSize for ScatterQuery {
    fn byte_size(&self) -> usize {
        sorted_ids_size(&self.sources) + sorted_ids_size(&self.targets)
    }
}

impl Wire for SourceMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.source.encode_into(buf);
        put_sorted_ids(buf, &self.classes);
        put_sorted_ids(buf, &self.entries);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SourceMessage {
            source: VertexId::decode_from(reader)?,
            classes: get_sorted_ids(reader)?,
            entries: get_sorted_ids(reader)?,
        })
    }
}

impl MessageSize for SourceMessage {
    fn byte_size(&self) -> usize {
        self.source.byte_size() + sorted_ids_size(&self.classes) + sorted_ids_size(&self.entries)
    }
}

impl Wire for PartitionSummary {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.partition.encode_into(buf);
        put_sorted_ids(buf, &self.in_boundaries);
        put_sorted_ids(buf, &self.out_boundaries);
        dsr_cluster::wire::put_varint(buf, self.forward_classes.len() as u64);
        for class in &self.forward_classes {
            put_sorted_ids(buf, class);
        }
        dsr_cluster::wire::put_varint(buf, self.backward_classes.len() as u64);
        for class in &self.backward_classes {
            put_sorted_ids(buf, class);
        }
        self.transit.encode_into(buf);
        dsr_cluster::wire::put_varint(buf, self.boundary_pairs as u64);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let partition = u32::decode_from(reader)?;
        let in_boundaries = get_sorted_ids(reader)?;
        let out_boundaries = get_sorted_ids(reader)?;
        // The per-boundary class lists are not shipped: they follow from
        // the classes, which must partition the boundary list they group.
        let mut decode_classes = |boundaries: &[VertexId]| -> Result<_, WireError> {
            let classes = get_classes(reader)?;
            let (members, class_of) = boundaries_of_classes(&classes);
            if members != boundaries {
                return Err(WireError::Invalid(
                    "classes do not partition the boundaries",
                ));
            }
            Ok((classes, class_of))
        };
        let (forward_classes, forward_class_of) = decode_classes(&in_boundaries)?;
        let (backward_classes, backward_class_of) = decode_classes(&out_boundaries)?;
        let transit = Vec::<(u32, u32)>::decode_from(reader)?;
        let boundary_pairs = usize::try_from(reader.varint()?).map_err(|_| WireError::Overflow)?;
        Ok(PartitionSummary {
            partition,
            in_boundaries,
            out_boundaries,
            forward_classes,
            backward_classes,
            forward_class_of,
            backward_class_of,
            transit,
            boundary_pairs,
        })
    }
}

/// Shared helper: encodes a class list as a varint count followed by one
/// delta-encoded sorted id run per class.
fn put_classes(buf: &mut Vec<u8>, classes: &[Vec<VertexId>]) {
    dsr_cluster::wire::put_varint(buf, classes.len() as u64);
    for class in classes {
        put_sorted_ids(buf, class);
    }
}

fn get_classes(reader: &mut WireReader<'_>) -> Result<Vec<Vec<VertexId>>, WireError> {
    let count = reader.length()?;
    let mut classes = Vec::with_capacity(count);
    for _ in 0..count {
        classes.push(get_sorted_ids(reader)?);
    }
    Ok(classes)
}

fn classes_size(classes: &[Vec<VertexId>]) -> usize {
    varint_size(classes.len() as u64) + classes.iter().map(|c| sorted_ids_size(c)).sum::<usize>()
}

impl Wire for ClassReplacement {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_classes(buf, &self.forward_classes);
        put_classes(buf, &self.backward_classes);
        self.transit.encode_into(buf);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ClassReplacement {
            forward_classes: get_classes(reader)?,
            backward_classes: get_classes(reader)?,
            transit: Vec::<(u32, u32)>::decode_from(reader)?,
        })
    }
}

impl MessageSize for ClassReplacement {
    fn byte_size(&self) -> usize {
        classes_size(&self.forward_classes)
            + classes_size(&self.backward_classes)
            + self.transit.byte_size()
    }
}

impl Wire for SummaryDelta {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.partition.encode_into(buf);
        self.added_cut_edges.encode_into(buf);
        self.removed_cut_edges.encode_into(buf);
        self.classes.encode_into(buf);
        self.added_transit.encode_into(buf);
        self.removed_transit.encode_into(buf);
        self.boundary_pairs.encode_into(buf);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SummaryDelta {
            partition: u32::decode_from(reader)?,
            added_cut_edges: Vec::decode_from(reader)?,
            removed_cut_edges: Vec::decode_from(reader)?,
            classes: Option::decode_from(reader)?,
            added_transit: Vec::decode_from(reader)?,
            removed_transit: Vec::decode_from(reader)?,
            boundary_pairs: Option::decode_from(reader)?,
        })
    }
}

impl MessageSize for SummaryDelta {
    fn byte_size(&self) -> usize {
        self.partition.byte_size()
            + self.added_cut_edges.byte_size()
            + self.removed_cut_edges.byte_size()
            + self.classes.byte_size()
            + self.added_transit.byte_size()
            + self.removed_transit.byte_size()
            + self.boundary_pairs.byte_size()
    }
}

impl MessageSize for PartitionSummary {
    fn byte_size(&self) -> usize {
        self.partition.byte_size()
            + sorted_ids_size(&self.in_boundaries)
            + sorted_ids_size(&self.out_boundaries)
            + varint_size(self.forward_classes.len() as u64)
            + self
                .forward_classes
                .iter()
                .map(|c| sorted_ids_size(c))
                .sum::<usize>()
            + varint_size(self.backward_classes.len() as u64)
            + self
                .backward_classes
                .iter()
                .map(|c| sorted_ids_size(c))
                .sum::<usize>()
            + self.transit.byte_size()
            + varint_size(self.boundary_pairs as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_cluster::wire::{decode_exact, encode_to_vec};

    /// Round-trip plus the exact-size invariant the transports debug-assert
    /// on every shipped message.
    fn check<M: Wire + MessageSize + PartialEq + std::fmt::Debug>(message: &M) {
        let encoded = encode_to_vec(message);
        assert_eq!(
            encoded.len(),
            message.byte_size(),
            "exact size of {message:?}"
        );
        let decoded: M = decode_exact(&encoded).expect("decodes");
        assert_eq!(&decoded, message);
    }

    fn summary_from_classes(
        forward_classes: Vec<Vec<VertexId>>,
        backward_classes: Vec<Vec<VertexId>>,
        transit: Vec<(u32, u32)>,
        boundary_pairs: usize,
    ) -> PartitionSummary {
        let (in_boundaries, forward_class_of) = boundaries_of_classes(&forward_classes);
        let (out_boundaries, backward_class_of) = boundaries_of_classes(&backward_classes);
        PartitionSummary {
            partition: 3,
            in_boundaries,
            out_boundaries,
            forward_class_of,
            backward_class_of,
            forward_classes,
            backward_classes,
            transit,
            boundary_pairs,
        }
    }

    #[test]
    fn scatter_query_roundtrip_edge_cases() {
        check(&ScatterQuery {
            sources: vec![],
            targets: vec![],
        });
        check(&ScatterQuery {
            sources: vec![0, 1, u32::MAX],
            targets: vec![u32::MAX],
        });
        let full: ScatterMessage = vec![
            ScatterQuery {
                sources: vec![5, 9],
                targets: vec![1, 2, 3],
            },
            ScatterQuery {
                sources: vec![],
                targets: vec![1_000_000],
            },
        ];
        check(&full);
    }

    #[test]
    fn source_message_roundtrip_edge_cases() {
        check(&SourceMessage {
            source: 0,
            classes: vec![],
            entries: vec![],
        });
        check(&SourceMessage {
            source: u32::MAX,
            classes: vec![0, 7, u32::MAX],
            entries: vec![3],
        });
    }

    #[test]
    fn batch_buffer_and_gather_roundtrip() {
        let buffer: BatchBuffer = vec![
            (
                0,
                vec![SourceMessage {
                    source: 4,
                    classes: vec![1, 2],
                    entries: vec![],
                }],
            ),
            (
                9,
                vec![
                    SourceMessage {
                        source: 1,
                        classes: vec![],
                        entries: vec![10, 20],
                    },
                    SourceMessage {
                        source: 2,
                        classes: vec![0],
                        entries: vec![u32::MAX],
                    },
                ],
            ),
        ];
        check(&buffer);
        check::<BatchBuffer>(&Vec::new());
        let gather: GatherMessage = vec![(0, vec![(1, 2), (3, 4)]), (7, vec![])];
        check(&gather);
        check::<GatherMessage>(&Vec::new());
    }

    #[test]
    fn partition_summary_roundtrip() {
        // Empty summary (a partition with no cut edges).
        check(&summary_from_classes(vec![], vec![], vec![], 0));
        // A populated one, including a maximal vertex id.
        check(&summary_from_classes(
            vec![vec![1, 5], vec![7, u32::MAX]],
            vec![vec![2], vec![3, 4]],
            vec![(0, 0), (0, 1), (1, 1)],
            6,
        ));
    }

    #[test]
    fn summary_delta_roundtrip_edge_cases() {
        // The empty delta (never shipped, but the codec must not care).
        check(&SummaryDelta {
            partition: 0,
            added_cut_edges: vec![],
            removed_cut_edges: vec![],
            classes: None,
            added_transit: vec![],
            removed_transit: vec![],
            boundary_pairs: None,
        });
        // Cut-splice-only delta.
        check(&SummaryDelta {
            partition: 7,
            added_cut_edges: vec![(0, u32::MAX), (5, 9)],
            removed_cut_edges: vec![(1, 2)],
            classes: None,
            added_transit: vec![],
            removed_transit: vec![],
            boundary_pairs: None,
        });
        // Full class replacement plus a pair-count move.
        check(&SummaryDelta {
            partition: u32::MAX,
            added_cut_edges: vec![],
            removed_cut_edges: vec![],
            classes: Some(ClassReplacement {
                forward_classes: vec![vec![1, 2], vec![u32::MAX]],
                backward_classes: vec![],
                transit: vec![(0, 0), (1, 0)],
            }),
            added_transit: vec![],
            removed_transit: vec![],
            boundary_pairs: Some(u64::MAX),
        });
        // Transit-diff-only delta under unchanged class ids.
        check(&SummaryDelta {
            partition: 3,
            added_cut_edges: vec![],
            removed_cut_edges: vec![],
            classes: None,
            added_transit: vec![(0, 1)],
            removed_transit: vec![(2, 2), (3, 0)],
            boundary_pairs: Some(0),
        });
    }

    #[test]
    fn summary_decode_rebuilds_class_maps() {
        let summary = summary_from_classes(
            vec![vec![10, 11], vec![12]],
            vec![vec![20], vec![21, 23]],
            vec![(1, 0)],
            3,
        );
        let decoded: PartitionSummary = decode_exact(&encode_to_vec(&summary)).expect("decodes");
        assert_eq!(decoded.forward_class(10), Some(0));
        assert_eq!(decoded.forward_class(12), Some(1));
        assert_eq!(decoded.backward_class_of, vec![0, 1, 1]);
        assert_eq!(decoded.forward_class_of, summary.forward_class_of);
        assert_eq!(decoded.backward_class_of, summary.backward_class_of);

        // Classes that miss a boundary, name a non-boundary or overlap
        // cannot be paired with the boundary list: a typed error.
        for forward_classes in [
            vec![vec![10, 11]],
            vec![vec![10, 11], vec![12, 13]],
            vec![vec![10, 11], vec![11, 12]],
        ] {
            let mut forged = summary.clone();
            forged.forward_classes = forward_classes;
            let decoded = decode_exact::<PartitionSummary>(&encode_to_vec(&forged));
            assert!(matches!(decoded, Err(WireError::Invalid(_))), "{decoded:?}");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn sorted(mut ids: Vec<u32>) -> Vec<u32> {
            ids.sort_unstable();
            ids.dedup();
            ids
        }

        fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
            proptest::collection::vec(0u32..=u32::MAX, 0..12).prop_map(sorted)
        }

        fn arb_source_message() -> impl Strategy<Value = SourceMessage> {
            (0u32..=u32::MAX, arb_ids(), arb_ids()).prop_map(|(source, classes, entries)| {
                SourceMessage {
                    source,
                    classes,
                    entries,
                }
            })
        }

        proptest! {
            #[test]
            fn scatter_message_roundtrip(message in proptest::collection::vec(
                (arb_ids(), arb_ids()).prop_map(|(sources, targets)| ScatterQuery { sources, targets }),
                0..6,
            )) {
                check(&message);
            }

            #[test]
            fn batch_buffer_roundtrip(buffer in proptest::collection::vec(
                (0u32..64, proptest::collection::vec(arb_source_message(), 0..5)),
                0..5,
            )) {
                check(&buffer);
            }

            #[test]
            fn gather_message_roundtrip(message in proptest::collection::vec(
                (0u32..64, proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..8)),
                0..5,
            )) {
                check(&message);
            }

            #[test]
            fn summary_delta_roundtrip_prop(
                partition in 0u32..=u32::MAX,
                added_cut in proptest::collection::vec((0u32..1000, 0u32..1000), 0..6),
                removed_cut in proptest::collection::vec((0u32..1000, 0u32..1000), 0..6),
                replace in proptest::option::of((
                    proptest::collection::vec(arb_ids(), 0..4),
                    proptest::collection::vec(arb_ids(), 0..4),
                    proptest::collection::vec((0u32..4, 0u32..4), 0..6),
                )),
                transit_diffs in (
                    proptest::collection::vec((0u32..8, 0u32..8), 0..5),
                    proptest::collection::vec((0u32..8, 0u32..8), 0..5),
                ),
                pairs in proptest::option::of(0u64..10_000),
            ) {
                let sort = |mut edges: Vec<(u32, u32)>| {
                    edges.sort_unstable();
                    edges.dedup();
                    edges
                };
                // When classes are replaced the transit diff lists are
                // empty by construction; mirror that invariant here.
                let (classes, added_transit, removed_transit) = match replace {
                    Some((forward, backward, transit)) => (
                        Some(ClassReplacement {
                            forward_classes: forward,
                            backward_classes: backward,
                            transit: sort(transit),
                        }),
                        Vec::new(),
                        Vec::new(),
                    ),
                    None => (None, sort(transit_diffs.0), sort(transit_diffs.1)),
                };
                check(&SummaryDelta {
                    partition,
                    added_cut_edges: sort(added_cut),
                    removed_cut_edges: sort(removed_cut),
                    classes,
                    added_transit,
                    removed_transit,
                    boundary_pairs: pairs,
                });
            }

            #[test]
            fn partition_summary_roundtrip_prop(
                forward in proptest::collection::vec(arb_ids(), 0..4),
                backward in proptest::collection::vec(arb_ids(), 0..4),
                transit in proptest::collection::vec((0u32..4, 0u32..4), 0..6),
                pairs in 0usize..100,
            ) {
                // Class member lists must be disjoint for the class maps to
                // round-trip exactly; deduplicate across classes.
                let mut seen = std::collections::HashSet::new();
                let dedup = |classes: Vec<Vec<u32>>, seen: &mut std::collections::HashSet<u32>| {
                    classes
                        .into_iter()
                        .map(|class| {
                            class.into_iter().filter(|&id| seen.insert(id)).collect::<Vec<_>>()
                        })
                        .filter(|class: &Vec<u32>| !class.is_empty())
                        .collect::<Vec<_>>()
                };
                let forward = dedup(forward, &mut seen);
                let mut seen = std::collections::HashSet::new();
                let backward = dedup(backward, &mut seen);
                let mut transit = transit;
                transit.sort_unstable();
                transit.dedup();
                check(&summary_from_classes(forward, backward, transit, pairs));
            }
        }
    }
}
