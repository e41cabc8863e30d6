//! Summary statistics used by dataset tables and the CLI.

use crate::{DiGraph, VertexId};

/// Headline statistics of a directed graph (one row of the dataset table in
/// experiment E1).
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Mean degree `m / n` (0 for the empty graph).
    pub avg_degree: f64,
    /// Vertices with no incident edges at all.
    pub isolated: usize,
    /// Fraction of edges `(u, v)` whose reverse `(v, u)` also exists.
    pub reciprocity: f64,
}

impl GraphStats {
    /// Computes all statistics in one pass over the CSR arrays.
    #[must_use]
    pub fn compute(g: &DiGraph) -> Self {
        let n = g.n();
        let m = g.m();
        let mut isolated = 0usize;
        for v in 0..n as VertexId {
            if g.out_degree(v) == 0 && g.in_degree(v) == 0 {
                isolated += 1;
            }
        }
        let mut reciprocal = 0usize;
        for (u, v) in g.edges() {
            if g.has_edge(v, u) {
                reciprocal += 1;
            }
        }
        GraphStats {
            n,
            m,
            max_out_degree: g.max_out_degree(),
            max_in_degree: g.max_in_degree(),
            avg_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            isolated,
            reciprocity: if m == 0 {
                0.0
            } else {
                reciprocal as f64 / m as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_small_graph() {
        // 0 ⇄ 1, 1 → 2, vertex 3 isolated.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2)]).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.n, 4);
        assert_eq!(s.m, 3);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 1);
        assert_eq!(s.isolated, 1);
        assert!((s.avg_degree - 0.75).abs() < 1e-12);
        assert!((s.reciprocity - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = GraphStats::compute(&DiGraph::empty(0));
        assert_eq!(s.n, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.reciprocity, 0.0);
    }
}
