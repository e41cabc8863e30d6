//! The mutable graph state behind the stream engine.
//!
//! [`dds_graph::DiGraph`] is an immutable CSR — ideal for the solvers,
//! wrong for per-event mutation. [`DynamicGraph`] is the complementary
//! representation: a hash edge set plus degree arrays, `O(1)` per update,
//! materialised into a `DiGraph` only when a solver actually runs.

use std::collections::HashSet;

use dds_graph::{DiGraph, GraphBuilder, VertexId};
use dds_sketch::MaxTracker;

/// A simple directed graph under edge insertions/deletions.
///
/// Enforces the same invariants as [`GraphBuilder`]: no self-loops, no
/// parallel edges. Vertex ids grow on demand; `n()` is one past the
/// largest id ever seen (matching how the solvers index vertices). The
/// maximum out-/in-degree is maintained exactly in `O(1)` per update
/// (count-of-counts), because the engine's structural upper bound
/// `ρ ≤ sqrt(d⁺_max · d⁻_max)` reads it every batch.
#[derive(Clone, Debug, Default)]
pub struct DynamicGraph {
    edges: HashSet<(VertexId, VertexId)>,
    out_deg: MaxTracker,
    in_deg: MaxTracker,
    n: usize,
    version: u64,
}

impl DynamicGraph {
    /// An empty graph with no vertices.
    #[must_use]
    pub fn new() -> Self {
        DynamicGraph::default()
    }

    /// Number of vertices (one past the largest id seen).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges currently present.
    #[must_use]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Mutation counter: bumps on every *applied* insert/delete (no-ops do
    /// not count). Lets callers — e.g. the stream engine deciding whether a
    /// re-solve can keep its warm `SolveContext` caches — detect "graph
    /// unchanged since" without comparing edge sets.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether `u → v` is currently present.
    #[must_use]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edges.contains(&(u, v))
    }

    /// Current out-degree of `u` (0 for unseen vertices).
    #[must_use]
    pub fn out_degree(&self, u: VertexId) -> u32 {
        self.out_deg.count(u as usize)
    }

    /// Current in-degree of `v` (0 for unseen vertices).
    #[must_use]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.in_deg.count(v as usize)
    }

    /// Exact current maximum out-degree.
    #[must_use]
    pub fn max_out_degree(&self) -> u64 {
        self.out_deg.max()
    }

    /// Exact current maximum in-degree.
    #[must_use]
    pub fn max_in_degree(&self) -> u64 {
        self.in_deg.max()
    }

    /// The exact out- and in-degree counters, for a certificate that
    /// freezes the current degrees.
    pub(crate) fn degree_trackers(&self) -> (&MaxTracker, &MaxTracker) {
        (&self.out_deg, &self.in_deg)
    }

    /// Inserts `u → v`. Returns `false` (state unchanged) for self-loops
    /// and already-present edges; vertex ids are still registered so the
    /// vertex count reflects every id the stream mentioned.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> bool {
        self.n = self.n.max(u as usize + 1).max(v as usize + 1);
        if u == v || !self.edges.insert((u, v)) {
            return false;
        }
        self.out_deg.incr(u as usize);
        self.in_deg.incr(v as usize);
        self.version += 1;
        true
    }

    /// Registers vertex ids up to `n` without touching the edge set —
    /// the snapshot-restore path, where the stored vertex count can
    /// exceed the largest id any surviving edge mentions (ids the stream
    /// once named still count, exactly as [`DynamicGraph::insert`]
    /// registers no-op endpoints). Never shrinks.
    pub fn ensure_vertices(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    /// Deletes `u → v`. Returns `false` (state unchanged) if absent.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.edges.remove(&(u, v)) {
            return false;
        }
        self.out_deg.decr(u as usize);
        self.in_deg.decr(v as usize);
        self.version += 1;
        true
    }

    /// Iterates over the current edges (arbitrary order).
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.edges.iter().copied()
    }

    /// Freezes the current state into the immutable CSR the solvers use.
    #[must_use]
    pub fn materialize(&self) -> DiGraph {
        let mut b = GraphBuilder::with_min_vertices(self.n());
        for &(u, v) in &self.edges {
            b.add_edge(u, v);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_delete_roundtrip() {
        let mut g = DynamicGraph::new();
        assert!(g.insert(0, 2));
        assert!(!g.insert(0, 2), "duplicate ignored");
        assert!(!g.insert(3, 3), "self-loop ignored");
        assert_eq!((g.n(), g.m()), (4, 1));
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(2), 1);
        assert!(g.delete(0, 2));
        assert!(!g.delete(0, 2), "absent delete ignored");
        assert_eq!(g.m(), 0);
        assert_eq!(g.out_degree(0), 0);
    }

    #[test]
    fn materialize_matches_state() {
        let mut g = DynamicGraph::new();
        for (u, v) in [(0, 1), (1, 2), (2, 0), (0, 2)] {
            g.insert(u, v);
        }
        g.delete(1, 2);
        let frozen = g.materialize();
        assert_eq!(frozen.n(), 3);
        assert_eq!(frozen.m(), 3);
        assert!(frozen.has_edge(0, 1) && frozen.has_edge(2, 0) && frozen.has_edge(0, 2));
        assert!(!frozen.has_edge(1, 2));
    }

    #[test]
    fn version_counts_only_applied_mutations() {
        let mut g = DynamicGraph::new();
        assert_eq!(g.version(), 0);
        g.insert(0, 1);
        g.insert(0, 1); // duplicate: no bump
        g.insert(2, 2); // self-loop: no bump
        g.delete(5, 6); // absent: no bump
        assert_eq!(g.version(), 1);
        g.delete(0, 1);
        assert_eq!(g.version(), 2);
    }

    #[test]
    fn degrees_track_churn() {
        let mut g = DynamicGraph::new();
        for v in 1..=5 {
            g.insert(0, v);
        }
        assert_eq!(g.out_degree(0), 5);
        assert_eq!(g.max_out_degree(), 5);
        g.delete(0, 3);
        g.delete(0, 4);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.in_degree(3), 0);
        assert_eq!(g.max_out_degree(), 3, "max must fall with deletions");
        assert_eq!(g.max_in_degree(), 1);
    }
}
