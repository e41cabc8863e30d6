//! The mutable graph state behind the stream engine.
//!
//! [`dds_graph::DiGraph`] is an immutable CSR — ideal for the solvers,
//! wrong for per-event mutation. [`DynamicGraph`] is the complementary
//! representation: one sorted out-row and one sorted in-row per vertex,
//! `O(log d + d)` per update, materialised into a `DiGraph` only when a
//! solver or a server needs one — by one `O(n + m)` copy of the rows, not
//! a sort of the edge set.

use dds_graph::{DiGraph, VertexId};
use dds_sketch::MaxTracker;

/// A simple directed graph under edge insertions/deletions.
///
/// Enforces the same invariants as [`dds_graph::GraphBuilder`]: no
/// self-loops, no parallel edges. Each vertex keeps its out-neighbours
/// and its in-neighbours in ascending order, the CSR's own row layout, so
/// an update is a binary search plus a shift (`O(log d + d)`) and
/// [`DynamicGraph::materialize`] copies the rows as they stand. Vertex
/// ids grow on demand; `n()` is one past the largest id ever seen
/// (matching how the solvers index vertices). The rows reach only as far
/// as the largest endpoint of an applied insert — ids registered by
/// no-ops or [`DynamicGraph::ensure_vertices`] allocate nothing — and
/// `materialize` pads the CSR offsets out to `n()`. The maximum
/// out-/in-degree is maintained exactly in `O(1)` per update
/// (count-of-counts), because the engine's structural upper bound
/// `ρ ≤ sqrt(d⁺_max · d⁻_max)` reads it every batch.
#[derive(Clone, Debug, Default)]
pub struct DynamicGraph {
    /// `out_rows[u]`: `u`'s out-neighbours, ascending.
    out_rows: Vec<Vec<VertexId>>,
    /// `in_rows[v]`: `v`'s in-neighbours, ascending; as long as `out_rows`.
    in_rows: Vec<Vec<VertexId>>,
    m: usize,
    out_deg: MaxTracker,
    in_deg: MaxTracker,
    n: usize,
    version: u64,
}

/// Inserts `x` into the ascending `row`; `false` if it is already there.
fn insert_sorted(row: &mut Vec<VertexId>, x: VertexId) -> bool {
    match row.binary_search(&x) {
        Ok(_) => false,
        Err(at) => {
            row.insert(at, x);
            true
        }
    }
}

/// Removes `x` from the ascending `row`; `false` if it is not there.
fn remove_sorted(row: &mut Vec<VertexId>, x: VertexId) -> bool {
    match row.binary_search(&x) {
        Ok(at) => {
            row.remove(at);
            true
        }
        Err(_) => false,
    }
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
        self.m
    }

    /// Mutation counter: bumps on every *applied* insert/delete (no-ops do
    /// not count). Lets callers — e.g. the stream engine deciding whether a
    /// re-solve can keep its warm `SolveContext` caches — detect "graph
    /// unchanged since" without comparing edge sets.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether `u → v` is currently present (a binary search of `u`'s
    /// out-row).
    #[must_use]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_rows
            .get(u as usize)
            .is_some_and(|row| row.binary_search(&v).is_ok())
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
        if u == v {
            return false;
        }
        let len = u.max(v) as usize + 1;
        if self.out_rows.len() < len {
            self.out_rows.resize_with(len, Vec::new);
            self.in_rows.resize_with(len, Vec::new);
        }
        if !insert_sorted(&mut self.out_rows[u as usize], v) {
            return false;
        }
        let mirrored = insert_sorted(&mut self.in_rows[v as usize], u);
        debug_assert!(mirrored, "in-row {v} already held {u}");
        self.m += 1;
        self.out_deg.incr(u as usize);
        self.in_deg.incr(v as usize);
        self.version += 1;
        true
    }

    /// Registers vertex ids up to `n` without touching the edge set —
    /// the snapshot-restore path, where the stored vertex count can
    /// exceed the largest id any surviving edge mentions (ids the stream
    /// once named still count, exactly as [`DynamicGraph::insert`]
    /// registers no-op endpoints). Never shrinks, and allocates nothing:
    /// `n` may come from untrusted snapshot bytes.
    pub fn ensure_vertices(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    /// Deletes `u → v`. Returns `false` (state unchanged) if absent.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> bool {
        let Some(row) = self.out_rows.get_mut(u as usize) else {
            return false;
        };
        if !remove_sorted(row, v) {
            return false;
        }
        let mirrored = remove_sorted(&mut self.in_rows[v as usize], u);
        debug_assert!(mirrored, "in-row {v} did not hold {u}");
        self.m -= 1;
        self.out_deg.decr(u as usize);
        self.in_deg.decr(v as usize);
        self.version += 1;
        true
    }

    /// Iterates over the current edges in ascending `(u, v)` order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.out_rows
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |&v| (u as VertexId, v)))
    }

    /// Freezes the current state into the immutable CSR the solvers use:
    /// one `O(n + m)` copy of the rows, offsets padded out to `n()`.
    #[must_use]
    pub fn materialize(&self) -> DiGraph {
        DiGraph::from_sorted_rows(self.n, &self.out_rows, &self.in_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The model's state: the edge set, the vertex count and the number of
    /// applied mutations.
    #[derive(Default)]
    struct Model {
        edges: BTreeSet<(VertexId, VertexId)>,
        n: usize,
        version: u64,
    }

    /// Everything `g` reports against `model`: counts, membership on and
    /// past every row, both degrees and both maxima, the ascending edge
    /// iterator, and the materialized CSR row for row against the
    /// builder's graph of the model's edges.
    fn check_against_model(g: &DynamicGraph, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(g.m(), model.edges.len());
        prop_assert_eq!(g.n(), model.n);
        prop_assert_eq!(g.version(), model.version);
        let ids = model.n as VertexId + 2;
        let degree = |side: fn(&(VertexId, VertexId)) -> VertexId, id| {
            model.edges.iter().filter(|e| side(e) == id).count() as u32
        };
        let (mut max_out, mut max_in) = (0u64, 0u64);
        for a in 0..ids {
            for b in 0..ids {
                prop_assert_eq!(
                    g.has_edge(a, b),
                    model.edges.contains(&(a, b)),
                    "{} -> {}",
                    a,
                    b
                );
            }
            let (out, inn) = (degree(|e| e.0, a), degree(|e| e.1, a));
            prop_assert_eq!(g.out_degree(a), out, "out-degree of {}", a);
            prop_assert_eq!(g.in_degree(a), inn, "in-degree of {}", a);
            max_out = max_out.max(out.into());
            max_in = max_in.max(inn.into());
        }
        prop_assert_eq!((g.max_out_degree(), g.max_in_degree()), (max_out, max_in));
        let listed: Vec<_> = g.edges().collect();
        let expect: Vec<_> = model.edges.iter().copied().collect();
        prop_assert_eq!(&listed, &expect);
        let frozen = g.materialize();
        let built = DiGraph::from_edges(model.n, &expect).expect("model ids are below n");
        prop_assert_eq!(frozen.n(), built.n());
        for v in 0..model.n as VertexId {
            prop_assert_eq!(
                frozen.out_neighbors(v),
                built.out_neighbors(v),
                "out-row {}",
                v
            );
            prop_assert_eq!(
                frozen.in_neighbors(v),
                built.in_neighbors(v),
                "in-row {}",
                v
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random operation sequences against a `BTreeSet` model, checked
        /// after every operation: inserts among ids `0..8` (self-loops and
        /// duplicates included), deletes of ids up to 13 (absent edges and
        /// ids past every row included), deletes of a present edge, and
        /// `ensure_vertices` past the largest id.
        #[test]
        fn rows_match_a_btreeset_model(
            ops in prop::collection::vec((0u8..8, 0u32..14, 0u32..14), 1..80),
        ) {
            let mut g = DynamicGraph::new();
            let mut model = Model::default();
            for (kind, a, b) in ops {
                let applied = match kind {
                    0..=3 => {
                        let (u, v) = (a % 8, b % 8);
                        model.n = model.n.max(u as usize + 1).max(v as usize + 1);
                        let fresh = u != v && model.edges.insert((u, v));
                        prop_assert_eq!(g.insert(u, v), fresh, "insert {} -> {}", u, v);
                        fresh
                    }
                    4 => {
                        let gone = model.edges.remove(&(a, b));
                        prop_assert_eq!(g.delete(a, b), gone, "delete {} -> {}", a, b);
                        gone
                    }
                    5 | 6 => {
                        let pick = (a * 14 + b) as usize % model.edges.len().max(1);
                        let Some(&(u, v)) = model.edges.iter().nth(pick) else {
                            continue;
                        };
                        model.edges.remove(&(u, v));
                        prop_assert!(g.delete(u, v), "delete present {} -> {}", u, v);
                        true
                    }
                    _ => {
                        let n = (a + 8) as usize;
                        model.n = model.n.max(n);
                        g.ensure_vertices(n);
                        false
                    }
                };
                model.version += u64::from(applied);
                check_against_model(&g, &model)?;
            }
        }
    }

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
