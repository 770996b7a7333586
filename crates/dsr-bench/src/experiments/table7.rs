//! Table 7 — community connectedness via DSR (Section 4.5.B).
//!
//! Communities are detected on the social-graph analogues with the Louvain
//! method; the two largest communities provide the source and target
//! representatives (10, 100 and 1000 members per side), and DSR reports all
//! reachable pairs between them together with what the query shipped.
//!
//! Reproduced shape, asserted on every run: at every representative count
//! DSR reports exactly the pairs a BFS from every source finds. The number
//! of pairs grows roughly quadratically with the representative count,
//! while the query stays one 3-round protocol run.

use dsr_community::louvain;
use dsr_core::DsrEngine;
use dsr_datagen::social_network;
use dsr_graph::{bfs_reachable, Direction, VertexId};

use crate::experiments::common::{self, Golden, Object, DEFAULT_SLAVES};
use crate::Table;

/// Runs the experiment; returns one rendered table per social graph and the
/// text of `BENCH_table7.json`.
pub fn run(fast: bool) -> (String, String) {
    let mut out = String::new();
    let configs: Vec<(&str, usize, usize, f64)> = if fast {
        vec![("LiveJ-68M analogue", 2_000, 16, 10.0)]
    } else {
        vec![
            ("LiveJ-68M analogue", 8_000, 24, 10.0),
            ("Twitter-1.4B analogue", 12_000, 32, 14.0),
        ]
    };
    let sizes: Vec<usize> = if fast {
        vec![10, 100]
    } else {
        vec![10, 100, 1000]
    };

    let mut rows = Vec::new();
    for (name, vertices, communities, degree) in configs {
        let social = social_network(vertices, communities, degree, 0.9, 0x77);
        let assignment = louvain(&social.graph, 1e-6);
        let by_size = assignment.by_size();
        let (c1, c2) = (by_size[0], by_size[1]);
        let members1 = assignment.members(c1);
        let members2 = assignment.members(c2);

        let index = common::build_dsr(&social.graph, DEFAULT_SLAVES);
        let engine = DsrEngine::new(&index);

        let mut table = Table::new(
            &format!(
                "Table 7: Community connectedness — {name} (#communities detected: {})",
                assignment.num_communities
            ),
            &["|S|x|T|", "#Pairs", "Messages", "Comm (KB)"],
        );
        for &size in &sizes {
            let take1 = size.min(members1.len());
            let take2 = size.min(members2.len());
            let sources: Vec<VertexId> = members1[..take1].to_vec();
            let targets: Vec<VertexId> = members2[..take2].to_vec();
            let outcome = engine.set_reachability(&sources, &targets);
            let mut oracle: Vec<(VertexId, VertexId)> = sources
                .iter()
                .flat_map(|&s| {
                    let reached = bfs_reachable(&social.graph, s, Direction::Forward);
                    targets
                        .iter()
                        .filter(move |&&t| reached[t as usize])
                        .map(move |&t| (s, t))
                })
                .collect();
            oracle.sort_unstable();
            oracle.dedup();
            assert!(
                outcome.pairs == oracle,
                "Table 7: {name}, {take1}x{take2}: DSR must report the pairs BFS finds, \
                 reported {} pairs against BFS's {}",
                outcome.pairs.len(),
                oracle.len()
            );
            table.row(vec![
                format!("{take1}x{take2}"),
                outcome.pairs.len().to_string(),
                outcome.messages.to_string(),
                format!("{:.1}", outcome.bytes as f64 / 1024.0),
            ]);
            rows.push(
                Object::new()
                    .text("graph", name)
                    .field("vertices", social.graph.num_vertices())
                    .field("edges", social.graph.num_edges())
                    .field("communities", assignment.num_communities)
                    .text("query", format_args!("{take1}x{take2}"))
                    .field("pairs", outcome.pairs.len())
                    .field("dsr", common::dsr_cost(&outcome)),
            );
        }
        out.push_str(&table.render());
    }
    let golden = Golden::new("table7", fast)
        .field("slaves", DEFAULT_SLAVES)
        .array("queries", rows)
        .render();
    (out, golden)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_rows() {
        let (_, json) = run(true);
        common::assert_golden(
            "table7",
            include_str!("../../../../BENCH_table7.json"),
            &json,
        );
    }
}
