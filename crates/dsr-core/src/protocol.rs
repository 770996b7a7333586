//! Wire messages of the distributed protocol.
//!
//! Everything the engine ships between the master and the slaves — and
//! between slave pairs in step 2 of Algorithm 2 — is defined here as a
//! concrete message type with a [`Wire`] codec. The encoder is the only
//! definition of what a message costs: the in-process backend counts its
//! bytes with [`Wire::byte_size`] (the encoder run into a counter), the
//! wire and TCP backends encode, ship and decode them.
//!
//! The protocol's id collections are sorted and deduplicated before they
//! are shipped, so they use the delta-encoded sorted-run format
//! ([`Sink::put_sorted_ids`]) — a dense run of vertex ids costs roughly one
//! byte per id instead of four.
//!
//! The decoders are the trust boundary of a slave: every one returns `Ok`
//! or a [`WireError`] on any byte string, never panics, and a summary's or
//! a class replacement's transit list must ascend strictly and name only
//! classes the message carries.
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

use dsr_cluster::wire::get_sorted_ids;
use dsr_cluster::{Sink, Wire, WireError, WireReader};
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
    fn encode_into<S: Sink>(&self, sink: &mut S) {
        sink.put_sorted_ids(&self.sources);
        sink.put_sorted_ids(&self.targets);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ScatterQuery {
            sources: get_sorted_ids(reader)?,
            targets: get_sorted_ids(reader)?,
        })
    }
}

impl Wire for SourceMessage {
    fn encode_into<S: Sink>(&self, sink: &mut S) {
        self.source.encode_into(sink);
        sink.put_sorted_ids(&self.classes);
        sink.put_sorted_ids(&self.entries);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SourceMessage {
            source: VertexId::decode_from(reader)?,
            classes: get_sorted_ids(reader)?,
            entries: get_sorted_ids(reader)?,
        })
    }
}

impl Wire for PartitionSummary {
    fn encode_into<S: Sink>(&self, sink: &mut S) {
        self.partition.encode_into(sink);
        sink.put_sorted_ids(&self.in_boundaries);
        sink.put_sorted_ids(&self.out_boundaries);
        put_classes(sink, &self.forward_classes);
        put_classes(sink, &self.backward_classes);
        self.transit.encode_into(sink);
        sink.put_varint(self.boundary_pairs as u64);
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
        let transit = get_transit(reader, &forward_classes, &backward_classes)?;
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
fn put_classes<S: Sink>(sink: &mut S, classes: &[Vec<VertexId>]) {
    sink.put_varint(classes.len() as u64);
    for class in classes {
        sink.put_sorted_ids(class);
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

/// Decodes a transit relation between `forward` and `backward` classes:
/// `(υ, ν)` pairs that ascend strictly and name classes the message has.
fn get_transit(
    reader: &mut WireReader<'_>,
    forward: &[Vec<VertexId>],
    backward: &[Vec<VertexId>],
) -> Result<Vec<(u32, u32)>, WireError> {
    let transit = Vec::<(u32, u32)>::decode_from(reader)?;
    if !transit.windows(2).all(|w| w[0] < w[1]) {
        return Err(WireError::Invalid("transit edges not strictly ascending"));
    }
    let known =
        |&(f, b): &(u32, u32)| (f as usize) < forward.len() && (b as usize) < backward.len();
    if !transit.iter().all(known) {
        return Err(WireError::Invalid("transit edge names a missing class"));
    }
    Ok(transit)
}

impl Wire for ClassReplacement {
    fn encode_into<S: Sink>(&self, sink: &mut S) {
        put_classes(sink, &self.forward_classes);
        put_classes(sink, &self.backward_classes);
        self.transit.encode_into(sink);
    }

    fn decode_from(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let forward_classes = get_classes(reader)?;
        let backward_classes = get_classes(reader)?;
        let transit = get_transit(reader, &forward_classes, &backward_classes)?;
        Ok(ClassReplacement {
            forward_classes,
            backward_classes,
            transit,
        })
    }
}

impl Wire for SummaryDelta {
    fn encode_into<S: Sink>(&self, sink: &mut S) {
        self.partition.encode_into(sink);
        self.added_cut_edges.encode_into(sink);
        self.removed_cut_edges.encode_into(sink);
        self.classes.encode_into(sink);
        self.added_transit.encode_into(sink);
        self.removed_transit.encode_into(sink);
        self.boundary_pairs.encode_into(sink);
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

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_cluster::wire::{decode_exact, encode_to_vec};

    /// Round-trip plus the exact-size invariant the transports debug-assert
    /// on every shipped message.
    fn check<M: Wire + PartialEq + std::fmt::Debug>(message: &M) {
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
                backward_classes: vec![vec![3]],
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

    fn replacement_of(summary: &PartitionSummary) -> ClassReplacement {
        ClassReplacement {
            forward_classes: summary.forward_classes.clone(),
            backward_classes: summary.backward_classes.clone(),
            transit: summary.transit.clone(),
        }
    }

    #[test]
    fn transit_edges_must_ascend_and_name_carried_classes() {
        let summary = summary_from_classes(vec![vec![10], vec![12]], vec![vec![20]], vec![], 3);
        for (transit, why) in [
            (vec![(1, 0), (0, 0)], "transit edges not strictly ascending"),
            (vec![(0, 0), (0, 0)], "transit edges not strictly ascending"),
            (vec![(2, 0)], "transit edge names a missing class"),
            (vec![(0, 1)], "transit edge names a missing class"),
        ] {
            let forged = PartitionSummary {
                transit,
                ..summary.clone()
            };
            let refused = Some(WireError::Invalid(why));
            assert_eq!(
                decode_exact::<PartitionSummary>(&encode_to_vec(&forged)).err(),
                refused
            );
            let replacement = encode_to_vec(&replacement_of(&forged));
            assert_eq!(
                decode_exact::<ClassReplacement>(&replacement).err(),
                refused
            );
        }
    }

    /// Every decoder a slave or the master runs on delivered bytes returns
    /// `Ok` or a [`WireError`] — never panics — on valid encodings cut at
    /// every length, with one byte flipped at every position or one byte
    /// appended, and on seeded random byte strings. Runs in every build
    /// profile (CI's `--release --lib` leg included).
    #[test]
    fn decoders_survive_hostile_bytes() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn hostile<M: Wire>(valid: &M, rng: &mut SmallRng) {
            let valid = encode_to_vec(valid);
            // A decoder reads a prefix deterministically, so no string
            // shorter or longer than a valid encoding decodes whole.
            for len in 0..valid.len() {
                assert!(decode_exact::<M>(&valid[..len]).is_err(), "cut at {len}");
            }
            for extra in [0x00, 0x80, 0xFF] {
                let longer = [valid.as_slice(), &[extra]].concat();
                assert_eq!(
                    decode_exact::<M>(&longer).err(),
                    Some(WireError::TrailingBytes)
                );
            }
            for (at, flip) in (0..valid.len()).flat_map(|at| [0x01, 0x80, 0xFF].map(|f| (at, f))) {
                let mut bytes = valid.clone();
                bytes[at] ^= flip;
                let _ = decode_exact::<M>(&bytes);
            }
            // Small bytes reach deep into a message (short counts, one-byte
            // varints); full bytes stress lengths and varint overflow.
            for mask in [0x03u8, 0x0F, 0x7F, 0xFF] {
                for _ in 0..256 {
                    let len = rng.gen_range(0..2 * valid.len() + 8);
                    let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>() & mask).collect();
                    let _ = decode_exact::<M>(&bytes);
                }
            }
        }

        let rng = &mut SmallRng::seed_from_u64(10);
        let query = |sources, targets| ScatterQuery { sources, targets };
        let scatter = vec![
            query(vec![5, 9], vec![1, 300, 1 << 20]),
            query(vec![], vec![u32::MAX]),
        ];
        hostile::<ScatterMessage>(&scatter, rng);
        let sent = |source, classes, entries| SourceMessage {
            source,
            classes,
            entries,
        };
        let buffer = vec![
            (0, vec![sent(4, vec![1, 2], vec![])]),
            (9, vec![sent(1 << 16, vec![0], vec![10, u32::MAX])]),
        ];
        hostile::<BatchBuffer>(&buffer, rng);
        hostile::<GatherMessage>(&vec![(0, vec![(1, 2), (3, 400)]), (7, vec![])], rng);
        let (forward, backward) = (
            vec![vec![1, 5], vec![7, u32::MAX]],
            vec![vec![2], vec![3, 4]],
        );
        let summary = summary_from_classes(forward, backward, vec![(0, 0), (0, 1), (1, 1)], 6);
        hostile(&summary, rng);
        hostile(&replacement_of(&summary), rng);
        // One delta that replaces the classes, one that diffs the transit.
        let regrouped = summary_from_classes(vec![vec![1, 5]], vec![vec![2]], vec![(0, 0)], 2);
        let retransit = PartitionSummary {
            transit: vec![(1, 1)],
            ..summary.clone()
        };
        for new in [regrouped, retransit] {
            let delta =
                SummaryDelta::diff(&summary, &new, vec![(0, u32::MAX), (5, 9)], vec![(1, 2)]);
            hostile(&delta, rng);
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
                // A replacement's transit edges name its own classes.
                let (classes, added_transit, removed_transit) = match replace {
                    Some((forward, backward, mut transit)) => {
                        transit.retain(|&(f, b)| {
                            (f as usize) < forward.len() && (b as usize) < backward.len()
                        });
                        (
                            Some(ClassReplacement {
                                forward_classes: forward,
                                backward_classes: backward,
                                transit: sort(transit),
                            }),
                            Vec::new(),
                            Vec::new(),
                        )
                    }
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
                // Transit edges name classes the summary carries.
                let mut transit = transit;
                transit.retain(|&(f, b)| (f as usize) < forward.len() && (b as usize) < backward.len());
                transit.sort_unstable();
                transit.dedup();
                check(&summary_from_classes(forward, backward, transit, pairs));
            }
        }
    }
}
