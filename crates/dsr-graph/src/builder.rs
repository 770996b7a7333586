//! Incremental graph builder.
//!
//! [`GraphBuilder`] accumulates edges (optionally with string labels per the
//! paper's `φ : V → L` mapping) and produces an immutable [`DiGraph`].

use std::collections::HashMap;

use crate::{DiGraph, VertexId};

/// Builder for [`DiGraph`] that supports both dense numeric vertices and
/// labelled vertices (mapped to dense ids on the fly).
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    num_vertices: usize,
    label_index: HashMap<String, VertexId>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures vertex `v` exists, growing the vertex count if necessary.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        if (v as usize) >= self.num_vertices {
            self.num_vertices = v as usize + 1;
        }
    }

    /// Adds a directed edge between dense vertex ids, growing the vertex
    /// count as needed.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.ensure_vertex(u);
        self.ensure_vertex(v);
        self.edges.push((u, v));
        self
    }

    /// Returns the dense id for a labelled vertex, creating it if new.
    pub fn vertex_for_label(&mut self, label: &str) -> VertexId {
        if let Some(&id) = self.label_index.get(label) {
            return id;
        }
        let id = self.num_vertices as VertexId;
        self.num_vertices += 1;
        self.label_index.insert(label.to_owned(), id);
        id
    }

    /// Adds an edge between two labelled vertices.
    pub fn add_labeled_edge(&mut self, from: &str, to: &str) -> &mut Self {
        let u = self.vertex_for_label(from);
        let v = self.vertex_for_label(to);
        self.edges.push((u, v));
        self
    }

    /// Number of vertices currently known to the builder.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges currently accumulated.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Looks up the dense id for a label, if it exists.
    pub fn label_id(&self, label: &str) -> Option<VertexId> {
        self.label_index.get(label).copied()
    }

    /// Finalizes the builder into a [`DiGraph`].
    pub fn build(&self) -> DiGraph {
        DiGraph::from_edges(self.num_vertices, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_edges() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn labeled_edges() {
        let mut b = GraphBuilder::new();
        b.add_labeled_edge("a", "b").add_labeled_edge("b", "c");
        assert_eq!(b.num_vertices(), 3);
        let a = b.label_id("a").unwrap();
        let c = b.label_id("c").unwrap();
        assert_eq!(
            b.vertex_for_label("a"),
            a,
            "a known label is not re-created"
        );
        assert_eq!(b.num_vertices(), 3);
        let g = b.build();
        assert!(!g.has_edge(a, c));
    }

    #[test]
    fn mixed_dense_and_labeled() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        let x = b.vertex_for_label("x");
        b.add_edge(1, x);
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(x, 2, "a label takes the next dense id");
        assert_eq!(b.label_id("x"), Some(x));
        assert!(g.has_edge(1, x));
    }

    #[test]
    fn ensure_vertex_grows() {
        let mut b = GraphBuilder::new();
        b.ensure_vertex(7);
        assert_eq!(b.num_vertices(), 8);
    }
}
