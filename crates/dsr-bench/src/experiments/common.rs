//! Helpers shared by the experiment modules.

use std::fmt::{self, Display};

use dsr_core::{DsrIndex, QueryOutcome};
use dsr_datagen::{dataset_by_name, random_query, QueryWorkload};
use dsr_giraph::GiraphOutcome;
use dsr_graph::DiGraph;
use dsr_partition::{MultilevelPartitioner, Partitioner, Partitioning};
use dsr_reach::LocalIndexKind;

/// Number of slave partitions used by the fixed-cluster experiments
/// (the paper uses "6 nodes, i.e. 5 slaves and 1 master").
pub const DEFAULT_SLAVES: usize = 5;

/// METIS-like partitioning of a dataset graph into `k` parts.
pub fn partition(graph: &DiGraph, k: usize) -> Partitioning {
    MultilevelPartitioner::default().partition(graph, k)
}

/// Builds a DSR index over a dataset graph with the default (DFS) local
/// strategy.
pub fn build_dsr(graph: &DiGraph, k: usize) -> DsrIndex {
    DsrIndex::build(graph, partition(graph, k), LocalIndexKind::Dfs)
}

/// Loads a named dataset analogue, panicking on unknown names (experiment
/// modules only use names from `dsr_datagen::DATASET_NAMES`).
pub fn dataset(name: &str) -> DiGraph {
    dataset_by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
        .graph
}

/// The standard 10×10 random query of Section 4.1 (seeded per dataset so
/// reruns are identical).
pub fn standard_query(graph: &DiGraph, sources: usize, targets: usize, seed: u64) -> QueryWorkload {
    random_query(graph, sources, targets, seed)
}

/// The small-graph dataset list, shortened in fast mode.
pub fn small_datasets(fast: bool) -> Vec<&'static str> {
    if fast {
        vec!["NotreDame", "Stanford"]
    } else {
        dsr_datagen::datasets::SMALL_DATASET_NAMES.to_vec()
    }
}

/// The large-graph dataset list, shortened in fast mode.
pub fn large_datasets(fast: bool) -> Vec<&'static str> {
    if fast {
        vec!["LiveJ-68M"]
    } else {
        dsr_datagen::datasets::LARGE_DATASET_NAMES.to_vec()
    }
}

/// Tables 3 and 5, Figure 5: one DSR call costs exactly three rounds
/// (scatter, exchange, gather) and, besides its k scatter and k gather
/// messages, at most k(k−1) exchange messages — whatever the graph, k or
/// the query size. Panics with a message naming `artefact` otherwise.
pub fn assert_dsr_protocol(artefact: &str, graph: &str, k: usize, outcome: &QueryOutcome) {
    let exchange = outcome.messages.saturating_sub(2 * k as u64);
    let bound = (k * (k - 1)) as u64;
    assert!(
        outcome.rounds == 3 && exchange <= bound,
        "{artefact}: {graph}: a DSR call must take exactly 3 rounds and at most k(k-1) = \
         {bound} exchange messages at k = {k}; it took {} rounds and {exchange} exchange messages",
        outcome.rounds
    );
}

/// The paper's empirical shapes one run checks: inequalities between
/// counters that hold on the fast analogues but need not on every graph
/// (in a full run, on the acyclic LUBM-1B analogue a query may cross no
/// partition, and then Giraph++ ships nothing). A fast run — the one
/// `cargo test` compares with its golden — panics on the first shape that
/// does not hold, with a message naming the artefact; a full run records
/// it and prints it under its tables, so every table still prints. What
/// must hold on every graph (answers, DSR's three rounds) is asserted
/// outright, not here.
#[derive(Debug)]
pub struct Shapes {
    fast: bool,
    missed: Vec<String>,
}

impl Shapes {
    /// The shapes of a fast (`true`) or a full run.
    pub fn new(fast: bool) -> Self {
        Shapes {
            fast,
            missed: Vec::new(),
        }
    }

    /// Checks one shape; `failure` says what did not hold.
    pub fn check(&mut self, holds: bool, failure: impl FnOnce() -> String) {
        if holds {
            return;
        }
        let failure = failure();
        assert!(!self.fast, "{failure}");
        self.missed.push(failure);
    }

    /// Table 3 and Figure 5: a DSR call ships fewer bytes than each Giraph
    /// variant answering the same query.
    pub fn dsr_ships_less<'a>(
        &mut self,
        artefact: &str,
        graph: &str,
        dsr: &QueryOutcome,
        variants: impl IntoIterator<Item = (&'a str, &'a GiraphOutcome)>,
    ) {
        for (variant, outcome) in variants {
            self.check(dsr.bytes < outcome.bytes, || {
                format!(
                    "{artefact}: {graph}: DSR must ship fewer bytes than {variant}, \
                     shipped {} against {}",
                    dsr.bytes, outcome.bytes
                )
            });
        }
    }

    /// Figure 8 and Table 3: the equivalence sets save Giraph++ messages
    /// and graph-centric evaluation saves Giraph messages — Giraph++wEq ≤
    /// Giraph++ ≤ Giraph — and neither graph-centric engine needs more
    /// supersteps than vertex-centric Giraph.
    pub fn giraph_order(
        &mut self,
        artefact: &str,
        graph: &str,
        weq: &GiraphOutcome,
        gpp: &GiraphOutcome,
        giraph: &GiraphOutcome,
    ) {
        self.check(
            weq.messages <= gpp.messages && gpp.messages <= giraph.messages,
            || {
                format!(
                    "{artefact}: {graph}: messages must be ordered Giraph++wEq <= Giraph++ \
                     <= Giraph, got {} / {} / {}",
                    weq.messages, gpp.messages, giraph.messages
                )
            },
        );
        self.check(
            weq.supersteps.max(gpp.supersteps) <= giraph.supersteps,
            || {
                format!(
                    "{artefact}: {graph}: graph-centric supersteps must not exceed Giraph's, \
                 got {} / {} against {}",
                    weq.supersteps, gpp.supersteps, giraph.supersteps
                )
            },
        );
    }

    /// `rendered` tables, followed by one line per shape that did not hold.
    pub fn under(self, mut rendered: String) -> String {
        for failure in self.missed {
            rendered.push_str(&format!("shape does not hold: {failure}\n"));
        }
        rendered
    }
}

/// The golden cells of one engine call: its rounds — named by `first_key`,
/// `"rounds"` for DSR and its baselines, `"supersteps"` for the Giraph
/// variants — then its messages and bytes.
pub fn cost(first_key: &str, rounds: impl Display, messages: u64, bytes: u64) -> Object {
    Object::new()
        .field(first_key, rounds)
        .field("messages", messages)
        .field("bytes", bytes)
}

/// A golden cell that a run may not have measured: the value, or `null`.
pub fn nullable(value: Option<impl Display>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// One inline JSON object, rendered on one line: `{"key": value, ...}`.
#[derive(Debug, Default)]
pub struct Object(String);

impl Object {
    /// An object with no member yet.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends a member whose value is written as it displays: a number,
    /// `true`, `null`, a nested [`Object`].
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        self.0.push_str(&format!("\"{key}\": {value}"));
        self
    }

    /// Appends a member whose value is written as a JSON string.
    pub fn text(self, key: &str, value: impl Display) -> Self {
        self.field(key, format_args!("\"{value}\""))
    }
}

impl Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0)
    }
}

/// The one way to write a `BENCH_<id>.json`: `experiment` and `fast` first,
/// then one member per line, an array one [`Object`] per line.
#[derive(Debug)]
pub struct Golden(String);

impl Golden {
    /// The document of experiment `id`.
    pub fn new(id: &str, fast: bool) -> Self {
        Golden(format!(
            "{{\n  \"experiment\": \"{id}\",\n  \"fast\": {fast}"
        ))
    }

    /// Appends a member on its own line.
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.0.push_str(&format!(",\n  \"{key}\": {value}"));
        self
    }

    /// Appends an array member, one object per line.
    pub fn array(mut self, key: &str, items: impl IntoIterator<Item = Object>) -> Self {
        let items: Vec<String> = items.into_iter().map(|o| format!("    {o}")).collect();
        self.0
            .push_str(&format!(",\n  \"{key}\": [\n{}\n  ]", items.join(",\n")));
        self
    }

    /// The finished text.
    pub fn render(self) -> String {
        self.0 + "\n}\n"
    }
}

/// The counter gate: the fast run of experiment `id` must render exactly the
/// committed `BENCH_<id>.json`. A counter that moves, in either direction,
/// fails here — with a line diff, `-` lines only in the committed text, `+`
/// lines only in the rendered one — until the refreshed golden is committed
/// beside the code that moved it.
#[cfg(test)]
pub(crate) fn assert_golden(id: &str, committed: &str, rendered: &str) {
    if committed == rendered {
        return;
    }
    let only_in = |sign: char, text: &str, other: &str| -> String {
        text.lines()
            .enumerate()
            .filter(|(_, line)| !other.lines().any(|o| o == *line))
            .map(|(n, line)| format!("{sign}{:>3}: {line}\n", n + 1))
            .collect()
    };
    let mut diff = only_in('-', committed, rendered) + &only_in('+', rendered, committed);
    if diff.is_empty() {
        diff.push_str("same lines, but in another order or with another line ending\n");
    }
    panic!(
        "BENCH_{id}.json differs from this run (- committed, + rendered):\n{diff}\
         if the change is intended, refresh the golden from the repo root:\n  \
         cargo run --release --bin experiments -- --fast {id}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_consistent_objects() {
        let g = dataset("NotreDame");
        let p = partition(&g, 3);
        assert_eq!(p.num_partitions, 3);
        let q = standard_query(&g, 10, 10, 1);
        assert_eq!(q.num_comparisons(), 100);
        let index = build_dsr(&g, 2);
        assert_eq!(index.num_partitions(), 2);
        assert_eq!(small_datasets(true).len(), 2);
        assert!(!large_datasets(false).is_empty());
    }

    #[test]
    fn a_missed_shape_panics_in_a_fast_run_and_is_printed_in_a_full_one() {
        let mut full = Shapes::new(false);
        full.check(true, || unreachable!("a shape that holds renders nothing"));
        full.check(false, || "Table 9: G: 1 must be below 0".to_string());
        assert_eq!(
            full.under("table\n".to_string()),
            "table\nshape does not hold: Table 9: G: 1 must be below 0\n"
        );
        let fast = std::panic::catch_unwind(|| {
            Shapes::new(true).check(false, || "Table 9: G: 1 must be below 0".to_string())
        });
        let message = *fast
            .expect_err("a fast run panics")
            .downcast::<String>()
            .unwrap();
        assert_eq!(message, "Table 9: G: 1 must be below 0");
    }

    #[test]
    fn golden_gate_names_a_changed_and_a_removed_line() {
        let failure = |committed: &'static str, rendered: &'static str| -> String {
            *std::panic::catch_unwind(|| assert_golden("mixed", committed, rendered))
                .expect_err("texts that differ fail the gate")
                .downcast::<String>()
                .expect("panic message")
        };
        let committed = "{\n  \"rounds\": 72,\n  \"messages\": 177,\n  \"bytes\": 15214\n}\n";
        assert_golden("mixed", committed, committed);
        // One digit of one counter changed, one line removed.
        let rendered = "{\n  \"rounds\": 72,\n  \"bytes\": 15215\n}\n";
        let message = failure(committed, rendered);
        assert!(
            message.contains(
                "-  3:   \"messages\": 177,\n-  4:   \"bytes\": 15214\n+  3:   \"bytes\": 15215\n"
            ),
            "{message}"
        );
        // A shrinking counter is no more welcome than a growing one, and a
        // reordering is still a difference.
        assert!(failure(rendered, committed).contains("+  4:   \"bytes\": 15214\n"));
        assert!(failure("a\nb\n", "b\na\n").contains("another order"));
    }
}
