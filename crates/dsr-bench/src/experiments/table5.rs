//! Table 5 — impact of the partitioning strategy (hash vs. METIS-like).
//!
//! The same DSR index and the same 10×10 query are evaluated once over a
//! hash-partitioned graph and once over the multilevel (METIS-like)
//! partitioning every other experiment uses ([`common::partition`]), with
//! 5 slaves: cut edges, boundary vertices and the bytes the query ships.
//!
//! Reproduced shape. Asserted on every run: on every dataset both sides
//! answer identically, each in exactly 3 rounds with at most k(k−1)
//! exchange messages. A [`common::Shapes`] check (asserted in the fast
//! run, printed under the table where a full run misses it): the
//! multilevel cut is smaller than the hash cut, which gives fewer boundary
//! vertices and fewer bytes per query.

use dsr_core::{DsrEngine, DsrIndex, QueryOutcome};
use dsr_partition::{HashPartitioner, Partitioner, Partitioning};
use dsr_reach::LocalIndexKind;

use crate::experiments::common::{self, Golden, Object, Shapes, DEFAULT_SLAVES};
use crate::Table;

/// What one partitioning of a dataset costs.
struct Side {
    cut_edges: usize,
    boundaries: usize,
    query: QueryOutcome,
}

impl Side {
    fn golden(&self) -> Object {
        Object::new()
            .field("cut_edges", self.cut_edges)
            .field("boundaries", self.boundaries)
            .field(
                "query",
                common::cost(
                    "rounds",
                    self.query.rounds,
                    self.query.messages,
                    self.query.bytes,
                ),
            )
    }
}

/// Runs the experiment; returns the rendered table and the text of
/// `BENCH_table5.json`.
pub fn run(fast: bool) -> (String, String) {
    let mut table = Table::new(
        "Table 5: Impact of hash vs. METIS-like partitioning",
        &[
            "Graph",
            "Hash cut",
            "Multilevel cut",
            "Hash boundaries",
            "Multilevel boundaries",
            "Hash bytes/query",
            "Multilevel bytes/query",
        ],
    );
    let mut datasets = common::small_datasets(fast);
    if !fast {
        datasets.push("LiveJ-68M");
    }
    let mut rows = Vec::new();
    let mut shapes = Shapes::new(fast);
    for name in datasets {
        let graph = common::dataset(name);
        let query = common::standard_query(&graph, 10, 10, 0x55);

        let side = |partitioning: Partitioning| {
            let cut_edges = partitioning.cut_size(&graph);
            let index = DsrIndex::build(&graph, partitioning, LocalIndexKind::Dfs);
            let outcome = DsrEngine::new(&index).set_reachability(&query.sources, &query.targets);
            common::assert_dsr_protocol("Table 5", name, DEFAULT_SLAVES, &outcome);
            let boundaries = index.stats.total_in_boundaries + index.stats.total_out_boundaries;
            Side {
                cut_edges,
                boundaries,
                query: outcome,
            }
        };
        let hash = side(HashPartitioner::default().partition(&graph, DEFAULT_SLAVES));
        let multilevel = side(common::partition(&graph, DEFAULT_SLAVES));
        assert_eq!(
            hash.query.pairs, multilevel.query.pairs,
            "Table 5: {name}: partitioning must not change results"
        );
        for (what, hashed, multi) in [
            ("cut edges", hash.cut_edges, multilevel.cut_edges),
            ("boundary vertices", hash.boundaries, multilevel.boundaries),
            (
                "bytes per query",
                hash.query.bytes as usize,
                multilevel.query.bytes as usize,
            ),
        ] {
            shapes.check(multi < hashed, || {
                format!(
                    "Table 5: {name}: the multilevel partitioning must have fewer {what} than \
                     hash partitioning, got {multi} against {hashed}"
                )
            });
        }

        table.row(vec![
            name.to_string(),
            hash.cut_edges.to_string(),
            multilevel.cut_edges.to_string(),
            hash.boundaries.to_string(),
            multilevel.boundaries.to_string(),
            hash.query.bytes.to_string(),
            multilevel.query.bytes.to_string(),
        ]);
        rows.push(
            Object::new()
                .text("graph", name)
                .field("pairs", multilevel.query.pairs.len())
                .field("hash", hash.golden())
                .field("multilevel", multilevel.golden()),
        );
    }
    let golden = Golden::new("table5", fast)
        .field("slaves", DEFAULT_SLAVES)
        .array("datasets", rows)
        .render();
    (shapes.under(table.render()), golden)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_produces_rows() {
        let (_, json) = run(true);
        common::assert_golden(
            "table5",
            include_str!("../../../../BENCH_table5.json"),
            &json,
        );
    }
}
