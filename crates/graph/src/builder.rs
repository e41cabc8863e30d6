//! Mutable edge accumulator that produces immutable CSR graphs.

use crate::{DiGraph, VertexId};

/// Accumulates edges and builds a [`DiGraph`].
///
/// The DDS problem is defined on *simple* directed graphs, so by default the
/// builder drops self-loops and deduplicates parallel edges, counting what
/// it dropped (callers can surface those numbers as ingestion warnings).
/// Both policies are configurable for callers that pre-clean their input:
/// keeping self-loops is meaningful for DDS because a loop `(u, u)` counts
/// whenever `u ∈ S ∩ T`.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    min_vertices: usize,
    /// Highest endpoint id seen, including endpoints of dropped self-loops
    /// (a vertex mentioned in the input exists even if its edge does not).
    max_id_seen: Option<VertexId>,
    keep_self_loops: bool,
    dropped_self_loops: usize,
    dropped_parallel: usize,
}

impl GraphBuilder {
    /// A builder with no edges; the vertex count is inferred from the
    /// largest id seen.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder whose graph will have at least `n` vertices even if some
    /// are isolated.
    #[must_use]
    pub fn with_min_vertices(n: usize) -> Self {
        GraphBuilder {
            min_vertices: n,
            ..Self::default()
        }
    }

    /// Keep self-loops instead of dropping them (default: drop).
    #[must_use]
    pub fn keep_self_loops(mut self, keep: bool) -> Self {
        self.keep_self_loops = keep;
        self
    }

    /// Raises the minimum vertex count (used when a header declares more
    /// vertices than the edges mention). Never shrinks it.
    pub fn ensure_min_vertices(&mut self, n: usize) -> &mut Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds the directed edge `u → v`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.max_id_seen = Some(self.max_id_seen.map_or(u.max(v), |m| m.max(u).max(v)));
        if u == v && !self.keep_self_loops {
            self.dropped_self_loops += 1;
        } else {
            self.edges.push((u, v));
        }
        self
    }

    /// Number of self-loops dropped so far.
    #[must_use]
    pub fn dropped_self_loops(&self) -> usize {
        self.dropped_self_loops
    }

    /// Number of parallel duplicates dropped, over every
    /// [`GraphBuilder::build`] so far.
    #[must_use]
    pub fn dropped_parallel_edges(&self) -> usize {
        self.dropped_parallel
    }

    /// Finalises the CSR structure. Consumes nothing: the builder can keep
    /// accepting edges and build again, which the generators use to emit
    /// growing graph prefixes.
    #[must_use]
    pub fn build(&mut self) -> DiGraph {
        let n = self
            .max_id_seen
            .map_or(0, |m| m as usize + 1)
            .max(self.min_vertices);

        // Sort + dedup in place gives the sorted out-CSR directly. The
        // builder keeps the deduplicated list, so a later build drops
        // only the duplicates added since, and the count accumulates.
        self.edges.sort_unstable();
        let before = self.edges.len();
        self.edges.dedup();
        self.dropped_parallel += before - self.edges.len();
        let edges = &self.edges;
        let m = edges.len();

        let mut out_offsets = vec![0usize; n + 1];
        for &(u, _) in edges {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_targets: Vec<VertexId> = edges.iter().map(|&(_, v)| v).collect();

        // Counting sort by target builds the in-CSR; sources come out in
        // ascending order because `edges` is sorted by (u, v).
        let mut in_offsets = vec![0usize; n + 1];
        for &(_, v) in edges {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0 as VertexId; m];
        for &(u, v) in edges {
            in_sources[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }

        DiGraph::from_csr(n, out_offsets, out_targets, in_offsets, in_sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_parallel_edges() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.m(), 2);
        assert_eq!(b.dropped_parallel_edges(), 2);
    }

    #[test]
    fn drops_self_loops_by_default() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0).add_edge(0, 1).add_edge(2, 2);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(b.dropped_self_loops(), 2);
        assert_eq!(g.n(), 3, "self-loop endpoints still count as vertices");
    }

    #[test]
    fn can_keep_self_loops() {
        let mut b = GraphBuilder::new().keep_self_loops(true);
        b.add_edge(0, 0).add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn min_vertices_pads_isolated() {
        let mut b = GraphBuilder::with_min_vertices(10);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.n(), 10);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn vertex_count_inferred_from_max_id() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 7);
        let g = b.build();
        assert_eq!(g.n(), 8);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!((g.n(), g.m()), (0, 0));
        let g = GraphBuilder::with_min_vertices(4).build();
        assert_eq!((g.n(), g.m()), (4, 0));
    }

    #[test]
    fn build_is_repeatable_and_incremental() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        let g1 = b.build();
        b.add_edge(1, 2);
        let g2 = b.build();
        assert_eq!(g1.m(), 1);
        assert_eq!(g2.m(), 2);
        assert_eq!(g1.n(), 2);
        assert_eq!(g2.n(), 3);
    }

    #[test]
    fn rebuilding_after_more_edges_matches_a_fresh_build() {
        let mut b = GraphBuilder::new();
        b.add_edge(2, 0)
            .add_edge(0, 1)
            .add_edge(2, 0)
            .add_edge(1, 2);
        let g1 = b.build();
        assert_eq!(
            g1,
            DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
        );
        assert_eq!(b.dropped_parallel_edges(), 1);
        // Duplicates of edges the first build kept, a duplicate among the
        // new edges, and new edges.
        b.add_edge(0, 1)
            .add_edge(3, 1)
            .add_edge(2, 0)
            .add_edge(3, 1);
        let g2 = b.build();
        let want = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 1)]).unwrap();
        assert_eq!(g2, want);
        assert_eq!(
            b.dropped_parallel_edges(),
            4,
            "every duplicate ever added, as a build over all 8 edges counts"
        );
        assert_eq!(
            b.build(),
            want,
            "a build with nothing new is the same graph"
        );
        assert_eq!(b.dropped_parallel_edges(), 4);
    }

    #[test]
    fn in_adjacency_matches_out_adjacency() {
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 2), (1, 2), (3, 2), (2, 0), (2, 1)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        assert_eq!(g.in_neighbors(2), &[0, 1, 3]);
        assert_eq!(g.out_neighbors(2), &[0, 1]);
        // Each edge appears in exactly one out-row and one in-row.
        let out_total: usize = (0..g.n() as VertexId).map(|u| g.out_degree(u)).sum();
        let in_total: usize = (0..g.n() as VertexId).map(|v| g.in_degree(v)).sum();
        assert_eq!(out_total, g.m());
        assert_eq!(in_total, g.m());
    }
}
