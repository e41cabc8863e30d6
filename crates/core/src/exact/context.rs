//! The long-lived solver state behind the exact pipeline.
//!
//! # Lifecycle
//!
//! A [`SolveContext`] is created once and threaded through any number of
//! exact solves ([`DcExact::solve_with`]). Across those solves it owns:
//!
//! * **flow arenas** — one [`FlowArena`] per worker thread, so every flow
//!   decision after the first recycles its node/edge buffers instead of
//!   reallocating ([`FlowNetwork::reset_for`]);
//! * **a core memo table** — a [`CoreCache`] keyed by the `(x, y)` peel
//!   thresholds the β floor induces, so repeated thresholds cost an `O(n)`
//!   clone, and a new pair peels only inside the intersection of the
//!   graph's `[x, 1]`- and `[1, y]`-cores: `O(n + edges of that
//!   candidate)` instead of `O(n + m)`, after one `O(n + m)` pass per
//!   graph;
//! * **the incumbent** — the witness pair of the previous solve. The next
//!   solve on the *same or a mutated* graph re-validates the pair (vertex
//!   ids in range, density recomputed on the new graph) and uses it to
//!   seed the density floor, which is how the stream engine's lazy
//!   re-solves warm-start from the previous epoch's optimum.
//!
//! # Invalidation
//!
//! The context keeps a copy of the graph it last solved and compares the
//! next solve's graph against it **exactly** (CSR equality — `O(n + m)`,
//! the same order as materialising the graph in the first place; no
//! probabilistic fingerprints anywhere near a correctness-bearing cache).
//! A mismatch — e.g. a stream epoch mutated the graph — clears the
//! memoised cores automatically; the incumbent is *not* cleared, because a
//! re-validated pair is still a sound (often excellent) lower bound on the
//! new graph. Reusing one context across entirely different graphs is
//! therefore safe: results are identical to a fresh context (tested), only
//! the warm-start quality differs.
//!
//! [`DcExact::solve_with`]: crate::DcExact::solve_with
//! [`FlowNetwork::reset_for`]: dds_flow::FlowNetwork::reset_for

use dds_flow::FlowArena;
use dds_graph::{DiGraph, Pair};
use dds_obs::{Counter, Registry};
use dds_xycore::CoreCache;

use crate::exact::engine::ExactReport;
use crate::DdsSolution;

/// Obs-backed lifetime counters of a [`SolveContext`] (the `dds_exact_*`
/// series): standalone atomics by default, swapped for registered handles
/// by [`SolveContext::attach_obs`]. Every exact solve publishes its
/// report's counters here at the single fold point in `run_with_context`
/// — never inside a flow inner loop.
#[derive(Debug, Default)]
pub(crate) struct ExactMetrics {
    pub(crate) solves: Counter,
    pub(crate) ratios_solved: Counter,
    pub(crate) ratios_pruned_tie: Counter,
    pub(crate) flow_decisions: Counter,
    pub(crate) arena_reuse_hits: Counter,
    pub(crate) core_cache_hits: Counter,
}

impl Clone for ExactMetrics {
    /// Snapshots values into fresh standalone cells: a cloned context
    /// counts independently instead of double-writing shared handles.
    fn clone(&self) -> Self {
        let copy = |c: &Counter| {
            let fresh = Counter::standalone();
            fresh.store(c.get());
            fresh
        };
        ExactMetrics {
            solves: copy(&self.solves),
            ratios_solved: copy(&self.ratios_solved),
            ratios_pruned_tie: copy(&self.ratios_pruned_tie),
            flow_decisions: copy(&self.flow_decisions),
            arena_reuse_hits: copy(&self.arena_reuse_hits),
            core_cache_hits: copy(&self.core_cache_hits),
        }
    }
}

impl ExactMetrics {
    fn attach(&mut self, registry: &Registry) {
        self.solves.rehome(registry, "dds_exact_solves_total");
        self.ratios_solved
            .rehome(registry, "dds_exact_ratios_solved_total");
        self.ratios_pruned_tie
            .rehome(registry, "dds_exact_ratios_pruned_tie_total");
        self.flow_decisions
            .rehome(registry, "dds_exact_flow_decisions_total");
        self.arena_reuse_hits
            .rehome(registry, "dds_exact_arena_reuse_hits_total");
        self.core_cache_hits
            .rehome(registry, "dds_exact_core_cache_hits_total");
    }

    pub(crate) fn record(&self, report: &ExactReport) {
        self.ratios_solved.add(report.ratios_solved as u64);
        self.ratios_pruned_tie.add(report.ratios_pruned_tie as u64);
        self.flow_decisions.add(report.flow_decisions as u64);
        self.arena_reuse_hits.add(report.arena_reuse_hits as u64);
        self.core_cache_hits.add(report.core_cache_hits as u64);
    }
}

/// Reusable state for the exact solvers; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct SolveContext {
    pub(crate) arenas: Vec<FlowArena>,
    pub(crate) cores: CoreCache,
    incumbent: Option<Pair>,
    /// The graph of the previous solve — the memoised cores are valid for
    /// exactly this graph and no other.
    last_graph: Option<DiGraph>,
    pub(crate) metrics: ExactMetrics,
}

impl SolveContext {
    /// A fresh context (no incumbent, empty caches).
    #[must_use]
    pub fn new() -> Self {
        SolveContext::default()
    }

    /// Number of solves this context has served.
    #[must_use]
    pub fn solves(&self) -> usize {
        self.metrics.solves.get() as usize
    }

    /// Re-homes this context's lifetime counters in `registry` (the
    /// `dds_exact_*` series), transferring the values accumulated so far.
    /// Handles in the registry sum across every context attached to it.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.metrics.attach(registry);
    }

    /// Sum of arena reuse hits across all worker arenas (lifetime total).
    #[must_use]
    pub fn arena_reuse_hits(&self) -> usize {
        self.arenas.iter().map(FlowArena::reuse_hits).sum()
    }

    /// Core-memo hits across the context lifetime.
    #[must_use]
    pub fn core_cache_hits(&self) -> usize {
        self.cores.hits()
    }

    /// Pre-solve bookkeeping: size the arena pool for `threads` workers and
    /// clear the core memo if `g` is not the graph of the previous solve
    /// (exact CSR comparison — a stale core mask would be
    /// correctness-bearing, so no hashing shortcuts here).
    pub(crate) fn prepare(&mut self, g: &DiGraph, threads: usize) {
        if self.arenas.len() < threads {
            self.arenas.resize_with(threads, FlowArena::new);
        }
        if self.last_graph.as_ref() != Some(g) {
            self.cores.clear();
            self.last_graph = Some(g.clone());
        }
        self.metrics.solves.inc();
    }

    /// The previous solve's witness re-validated against `g`: `None` when
    /// there is no incumbent or its vertex ids do not exist in `g`;
    /// otherwise the pair with its density recomputed on `g` — a genuine
    /// pair of `g`, hence a sound warm-start floor.
    pub(crate) fn seed_solution(&self, g: &DiGraph) -> Option<DdsSolution> {
        let pair = self.incumbent.as_ref()?;
        if pair.is_empty() {
            return None;
        }
        let n = g.n() as u64;
        let in_range = |vs: &[u32]| vs.iter().all(|&v| u64::from(v) < n);
        if !in_range(pair.s()) || !in_range(pair.t()) {
            return None;
        }
        Some(DdsSolution::from_pair(g, pair.clone()))
    }

    /// Records the solve's winning pair as the next incumbent.
    pub(crate) fn store_incumbent(&mut self, solution: &DdsSolution) {
        self.incumbent = (!solution.pair.is_empty()).then(|| solution.pair.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_graph::gen;

    #[test]
    fn graph_identity_ignores_edge_order_but_sees_changes() {
        // CSR construction canonicalises edge order, so the exact equality
        // check keeps the memo across same-graph solves regardless of how
        // the edge list was permuted…
        let g1 = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let g2 = DiGraph::from_edges(4, &[(2, 3), (0, 1), (1, 2)]).unwrap();
        let mut ctx = SolveContext::new();
        ctx.prepare(&g1, 1);
        let _ = ctx.cores.core(&g1, 1, 1);
        ctx.prepare(&g2, 1);
        assert_eq!(ctx.cores.len(), 1, "identical graph keeps the memo");
        // …and any real change — same n and m included — clears it.
        let g3 = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        ctx.prepare(&g3, 1);
        assert!(ctx.cores.is_empty(), "changed edge set drops the memo");
    }

    #[test]
    fn prepare_clears_cores_only_on_graph_change() {
        let g = gen::gnm(10, 30, 1);
        let mut ctx = SolveContext::new();
        ctx.prepare(&g, 1);
        let _ = ctx.cores.core(&g, 1, 1);
        assert_eq!(ctx.cores.len(), 1);
        ctx.prepare(&g, 2);
        assert_eq!(ctx.cores.len(), 1, "same graph keeps the memo");
        assert_eq!(ctx.arenas.len(), 2, "arena pool grew for the workers");
        let other = gen::gnm(10, 31, 1);
        ctx.prepare(&other, 1);
        assert!(ctx.cores.is_empty(), "new graph invalidates the memo");
        assert_eq!(ctx.solves(), 3);
    }

    #[test]
    fn seed_solution_validates_vertex_range() {
        let big = gen::complete_bipartite(3, 3);
        let mut ctx = SolveContext::new();
        let sol = DdsSolution::from_pair(&big, Pair::new(vec![0, 1, 2], vec![3, 4, 5]));
        ctx.store_incumbent(&sol);
        // Same graph: seed comes back with the same density.
        let seeded = ctx.seed_solution(&big).unwrap();
        assert_eq!(seeded.density, sol.density);
        // Smaller graph: ids 3..6 are out of range, no seed.
        let small = gen::path(3);
        assert!(ctx.seed_solution(&small).is_none());
        // Different graph with the ids in range: density is recomputed.
        let sparse = DiGraph::from_edges(6, &[(0, 3)]).unwrap();
        let reseeded = ctx.seed_solution(&sparse).unwrap();
        assert_eq!(reseeded.density, reseeded.pair.density(&sparse));
    }

    use dds_graph::DiGraph;
}
