//! Immutable CSR directed graph.

use crate::{GraphBuilder, GraphError, VertexId};

/// A simple directed graph in compressed-sparse-row form, stored in both
/// directions.
///
/// The structure is immutable after construction (build one with
/// [`GraphBuilder`], [`DiGraph::from_edges`], or from rows already in CSR
/// order with [`DiGraph::from_sorted_rows`]). Adjacency lists are sorted,
/// which gives `O(log d)` [`DiGraph::has_edge`] and cache-friendly linear
/// scans — the access pattern of every peeling loop and flow-network build
/// in the workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiGraph {
    n: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<VertexId>,
    in_offsets: Vec<usize>,
    in_sources: Vec<VertexId>,
}

impl DiGraph {
    /// Assembles a graph from pre-sorted CSR arrays. Internal: callers go
    /// through [`GraphBuilder`], which establishes the invariants (sorted,
    /// deduplicated, in/out views consistent), or through
    /// [`DiGraph::from_sorted_rows`], which checks them in debug builds.
    pub(crate) fn from_csr(
        n: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<VertexId>,
        in_offsets: Vec<usize>,
        in_sources: Vec<VertexId>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), n + 1);
        debug_assert_eq!(in_offsets.len(), n + 1);
        debug_assert_eq!(out_targets.len(), in_sources.len());
        DiGraph {
            n,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Builds a graph on `n` vertices by copying adjacency rows:
    /// `out_rows[u]` holds `u`'s out-neighbours and `in_rows[v]` holds
    /// `v`'s in-neighbours, each sorted ascending without duplicates, and
    /// the two sides mirror each other (`v` is in `out_rows[u]` iff `u` is
    /// in `in_rows[v]`). Vertices past the end of a slice get empty rows,
    /// so the offsets are padded out to `n`.
    ///
    /// `O(n + m)` with no sort: for callers that keep their adjacency
    /// sorted anyway (`dds-stream`'s `DynamicGraph`); everything else goes
    /// through [`GraphBuilder`]. Debug builds check the invariants.
    ///
    /// # Panics
    /// Panics if either slice holds more than `n` rows.
    #[must_use]
    pub fn from_sorted_rows<R: AsRef<[VertexId]>>(n: usize, out_rows: &[R], in_rows: &[R]) -> Self {
        let (out_offsets, out_targets) = concat_rows(n, out_rows);
        let (in_offsets, in_sources) = concat_rows(n, in_rows);
        let g = DiGraph::from_csr(n, out_offsets, out_targets, in_offsets, in_sources);
        if cfg!(debug_assertions) {
            g.assert_sorted_mirrored_rows();
        }
        g
    }

    /// The contract of [`DiGraph::from_sorted_rows`]: every row strictly
    /// ascending with ids below `n`, and every out-edge in its head's
    /// in-row (with the equal edge counts `from_csr` checks, both sides
    /// then hold the same edges).
    fn assert_sorted_mirrored_rows(&self) {
        let sorted = |row: &[VertexId]| {
            row.windows(2).all(|w| w[0] < w[1]) && row.last().is_none_or(|&v| (v as usize) < self.n)
        };
        for u in 0..self.n as VertexId {
            let row = self.out_neighbors(u);
            assert!(
                sorted(row) && sorted(self.in_neighbors(u)),
                "the rows of {u} are not sorted, deduplicated and in range"
            );
            for &v in row {
                let mirrored = self.in_neighbors(v).binary_search(&u).is_ok();
                assert!(mirrored, "edge {u} -> {v} is missing from in-row {v}");
            }
        }
    }

    /// Builds a graph with `n` vertices from an edge list, using default
    /// [`GraphBuilder`] policy (drop self-loops, deduplicate parallel
    /// edges).
    ///
    /// # Errors
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `≥ n`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::with_min_vertices(n);
        for &(u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u.into(),
                    n,
                });
            }
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v.into(),
                    n,
                });
            }
            b.add_edge(u, v);
        }
        Ok(b.build())
    }

    /// The empty graph on `n` vertices.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        DiGraph {
            n,
            out_offsets: vec![0; n + 1],
            out_targets: Vec::new(),
            in_offsets: vec![0; n + 1],
            in_sources: Vec::new(),
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[must_use]
    pub fn m(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbours of `u`, sorted ascending.
    #[must_use]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.out_targets[self.out_offsets[u]..self.out_offsets[u + 1]]
    }

    /// In-neighbours of `v`, sorted ascending.
    #[must_use]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Out-degree of `u`.
    #[must_use]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.out_neighbors(u).len()
    }

    /// In-degree of `v`.
    #[must_use]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Maximum out-degree over all vertices (0 for the empty graph).
    #[must_use]
    pub fn max_out_degree(&self) -> usize {
        (0..self.n)
            .map(|u| self.out_offsets[u + 1] - self.out_offsets[u])
            .max()
            .unwrap_or(0)
    }

    /// Maximum in-degree over all vertices (0 for the empty graph).
    #[must_use]
    pub fn max_in_degree(&self) -> usize {
        (0..self.n)
            .map(|v| self.in_offsets[v + 1] - self.in_offsets[v])
            .max()
            .unwrap_or(0)
    }

    /// `true` iff the edge `u → v` exists (binary search on the sorted
    /// adjacency row).
    #[must_use]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates all edges as `(source, target)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n as VertexId)
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Extracts the subgraph induced by `keep` (vertices with
    /// `keep[v] == true`), relabelling vertices densely.
    ///
    /// Returns the subgraph together with the map from new ids to original
    /// ids (`original = map[new]`). Used by the exact search to materialise
    /// core-restricted instances once they are small.
    #[must_use]
    pub fn induced_subgraph(&self, keep: &[bool]) -> (DiGraph, Vec<VertexId>) {
        assert_eq!(keep.len(), self.n, "mask length must equal vertex count");
        let mut new_id = vec![VertexId::MAX; self.n];
        let mut to_old = Vec::new();
        for v in 0..self.n {
            if keep[v] {
                new_id[v] = to_old.len() as VertexId;
                to_old.push(v as VertexId);
            }
        }
        let mut b = GraphBuilder::with_min_vertices(to_old.len());
        for &old_u in &to_old {
            for &old_v in self.out_neighbors(old_u) {
                if keep[old_v as usize] {
                    b.add_edge(new_id[old_u as usize], new_id[old_v as usize]);
                }
            }
        }
        (b.build(), to_old)
    }

    /// The transpose graph (every edge reversed). O(1): the two CSR
    /// directions simply swap roles. Used by the `[x, y]`-core double sweep
    /// to reuse one peeling implementation for both orientations.
    #[must_use]
    pub fn reverse(&self) -> DiGraph {
        DiGraph {
            n: self.n,
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
        }
    }

    /// Returns the subgraph keeping only a subset of edges (used by the
    /// scalability experiments that sample edge fractions): `keep_edge` is
    /// called in [`DiGraph::edges`] order.
    #[must_use]
    pub fn filter_edges(&self, mut keep_edge: impl FnMut(VertexId, VertexId) -> bool) -> DiGraph {
        let mut b = GraphBuilder::with_min_vertices(self.n);
        for (u, v) in self.edges() {
            if keep_edge(u, v) {
                b.add_edge(u, v);
            }
        }
        b.build()
    }
}

/// One CSR direction from `rows`: offsets padded out to `n + 1` and the
/// rows copied back to back.
fn concat_rows<R: AsRef<[VertexId]>>(n: usize, rows: &[R]) -> (Vec<usize>, Vec<VertexId>) {
    assert!(rows.len() <= n, "{} rows for {n} vertices", rows.len());
    let m = rows.iter().map(|row| row.as_ref().len()).sum();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut flat = Vec::with_capacity(m);
    offsets.push(0);
    for row in rows {
        flat.extend_from_slice(row.as_ref());
        offsets.push(flat.len());
    }
    offsets.resize(n + 1, m);
    (offsets, flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 → 1 → 3, 0 → 2 → 3, plus back edge 3 → 0.
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 1);
        assert_eq!(g.max_out_degree(), 2);
        assert_eq!(g.max_in_degree(), 2);
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = DiGraph::from_edges(5, &[(0, 4), (0, 1), (0, 3), (2, 0), (1, 0)]).unwrap();
        assert_eq!(g.out_neighbors(0), &[1, 3, 4]);
        assert_eq!(g.in_neighbors(0), &[1, 2]);
    }

    #[test]
    fn has_edge_and_edges_iterator() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(g.has_edge(3, 0));
        let collected: Vec<_> = g.edges().collect();
        assert_eq!(collected, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::empty(3);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_out_degree(), 0);
        assert!(g.edges().next().is_none());
        let g0 = DiGraph::empty(0);
        assert_eq!(g0.n(), 0);
    }

    #[test]
    fn from_edges_validates_range() {
        let err = DiGraph::from_edges(2, &[(0, 5)]).unwrap_err();
        match err {
            GraphError::VertexOutOfRange { vertex, n } => {
                assert_eq!((vertex, n), (5, 2));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = diamond();
        // Keep {0, 2, 3}: edges 0→2, 2→3, 3→0 survive.
        let keep = vec![true, false, true, true];
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.n(), 3);
        assert_eq!(map, vec![0, 2, 3]);
        assert_eq!(sub.m(), 3);
        assert!(sub.has_edge(0, 1)); // 0→2 relabelled
        assert!(sub.has_edge(1, 2)); // 2→3
        assert!(sub.has_edge(2, 0)); // 3→0
    }

    #[test]
    fn induced_subgraph_empty_mask() {
        let g = diamond();
        let (sub, map) = g.induced_subgraph(&[false; 4]);
        assert_eq!(sub.n(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn reverse_transposes_every_edge() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.n(), g.n());
        assert_eq!(r.m(), g.m());
        for (u, v) in g.edges() {
            assert!(r.has_edge(v, u));
        }
        assert_eq!(r.reverse(), g, "reverse is an involution");
        assert_eq!(r.out_degree(3), g.in_degree(3));
    }

    #[test]
    fn filter_edges_subsets() {
        let g = diamond();
        let h = g.filter_edges(|u, _v| u != 0);
        assert_eq!(h.n(), 4);
        assert_eq!(h.m(), 3);
        assert!(!h.has_edge(0, 1));
        assert!(h.has_edge(3, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "missing from in-row")]
    fn unmirrored_rows_are_rejected_in_debug_builds() {
        let _ = DiGraph::from_sorted_rows(3, &[vec![1], vec![]], &[vec![], vec![], vec![0]]);
    }
}
