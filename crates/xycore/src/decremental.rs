//! Decremental `[x, y]`-core maintenance: keep a core valid under edge
//! deletions by **local cascade repair** instead of re-peeling the graph.
//!
//! # Why deletions are the easy direction
//!
//! Deleting an edge can only *shrink* an `[x, y]`-core: the constraints get
//! harder, never easier. Concretely, if `C` is the core before the deletion
//! and `C'` the core after, then `C' ⊆ C` — and `C'` is exactly what the
//! ordinary peel computes when started from `C` with the deleted edge's
//! endpoints as the only seed violations. So a deletion costs
//! `O(affected subgraph)` — usually nothing at all, because most deletions
//! do not touch the core — while a from-scratch recompute costs `O(n + m)`.
//!
//! That asymmetry is the engine room of sliding-window DDS maintenance
//! (`dds-stream`'s `WindowEngine`): every tick expires edges, and the core
//! certificate `ρ ≥ sqrt(x·y)` must survive each expiry without paying for
//! a full decomposition.
//!
//! # Exactness contract
//!
//! * **Deletion-only streams:** after any sequence of
//!   [`DecrementalCore::delete_edge`] calls, the maintained mask equals a
//!   from-scratch [`crate::xy_core`] of the current graph — exactly
//!   (property-tested in `tests/decremental_proptest.rs`).
//! * **Interleaved insertions:** [`DecrementalCore::insert_edge`] keeps the
//!   degree and edge counters exact *within* the mask but never resurrects
//!   a peeled vertex, so the mask is a **sound sub-core**: every member
//!   still satisfies its threshold, hence the certificate
//!   `ρ(mask) ≥ sqrt(x·y)` remains valid, but the mask may be a strict
//!   subset of the true (grown) core. Callers that need maximality after
//!   heavy insertion re-peel — which is what the window engine's periodic
//!   core refresh does.
//!
//! # Example
//!
//! ```
//! use dds_graph::DiGraph;
//! use dds_xycore::DecrementalCore;
//!
//! // K_{2,3}: the [3, 2]-core is the whole graph.
//! let g = DiGraph::from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap();
//! let mut core = DecrementalCore::new(&g, 3, 2);
//! assert_eq!((core.s_count(), core.t_count()), (2, 3));
//!
//! // Deleting one edge drops vertex 0 below x = 3, which cascades until
//! // nothing satisfies the thresholds: the [3, 2]-core of the new graph
//! // is empty, and the repair discovers that locally.
//! core.delete_edge(0, 2);
//! assert!(core.is_empty());
//! ```

use std::collections::{HashMap, HashSet};

use dds_graph::{DiGraph, Pair, StMask, VertexId};
use dds_num::Density;

use crate::peel::xy_core;

/// An `[x, y]`-core maintained under edge deletions (and degree-exact under
/// insertions); see the module docs for the contract.
///
/// Besides the mask itself, the structure keeps the live `S → T` edge count
/// and both side sizes, so the certified density of the maintained pair is
/// available in `O(1)` at any time ([`density`](DecrementalCore::density)).
#[derive(Clone, Debug)]
pub struct DecrementalCore {
    x: u64,
    y: u64,
    mask: StMask,
    /// Out-degree into the current T side (S-mask members only).
    deg_out: Vec<u64>,
    /// In-degree from the current S side (T-mask members only).
    deg_in: Vec<u64>,
    /// Live adjacency restricted to the mask, for cascade repair: CSR
    /// snapshots would go stale as the underlying graph mutates, so the
    /// core carries its own (small) edge sets. Entries may point at
    /// since-peeled vertices; iteration filters through the mask.
    out_adj: HashMap<VertexId, HashSet<VertexId>>,
    in_adj: HashMap<VertexId, HashSet<VertexId>>,
    /// Live `S → T` edge count within the mask.
    edges: u64,
    s_count: usize,
    t_count: usize,
    /// Lifetime count of vertices peeled by repair cascades.
    repairs: usize,
}

impl DecrementalCore {
    /// Builds the maintained core by peeling `g` from scratch
    /// (`O(n + m)`), then snapshotting the within-core adjacency.
    #[must_use]
    pub fn new(g: &DiGraph, x: u64, y: u64) -> Self {
        Self::from_mask(g, x, y, xy_core(g, x, y))
    }

    /// Adopts an already-computed `[x, y]`-core `mask` of `g` (e.g. the
    /// max-product core the 2-approximation just found) without re-peeling.
    ///
    /// # Panics
    /// In debug builds, panics if `mask` is not a fixpoint of the `[x, y]`
    /// constraints on `g` — adopting a non-core would silently break the
    /// `ρ ≥ sqrt(x·y)` certificate.
    #[must_use]
    pub fn from_mask(g: &DiGraph, x: u64, y: u64, mask: StMask) -> Self {
        let n = g.n();
        let mut core = DecrementalCore {
            x,
            y,
            mask,
            deg_out: vec![0; n],
            deg_in: vec![0; n],
            out_adj: HashMap::new(),
            in_adj: HashMap::new(),
            edges: 0,
            s_count: 0,
            t_count: 0,
            repairs: 0,
        };
        for v in 0..n {
            if core.mask.in_s[v] {
                core.s_count += 1;
            }
            if core.mask.in_t[v] {
                core.t_count += 1;
            }
        }
        for u in 0..n {
            if !core.mask.in_s[u] {
                continue;
            }
            for &v in g.out_neighbors(u as VertexId) {
                if core.mask.in_t[v as usize] {
                    core.deg_out[u] += 1;
                    core.deg_in[v as usize] += 1;
                    core.edges += 1;
                    core.out_adj.entry(u as VertexId).or_default().insert(v);
                    core.in_adj.entry(v).or_default().insert(u as VertexId);
                }
            }
        }
        debug_assert!(
            (0..n).all(|v| (!core.mask.in_s[v] || core.deg_out[v] >= x)
                && (!core.mask.in_t[v] || core.deg_in[v] >= y)),
            "adopted mask is not an [{x}, {y}]-core fixpoint"
        );
        core
    }

    /// Out-degree threshold of the maintained core.
    #[must_use]
    pub fn x(&self) -> u64 {
        self.x
    }

    /// In-degree threshold of the maintained core.
    #[must_use]
    pub fn y(&self) -> u64 {
        self.y
    }

    /// The threshold product `x·y`; while the core is non-empty its density
    /// is at least `sqrt(x·y)`.
    #[must_use]
    pub fn product(&self) -> u64 {
        self.x * self.y
    }

    /// The current membership mask.
    #[must_use]
    pub fn mask(&self) -> &StMask {
        &self.mask
    }

    /// Current `|S|`.
    #[must_use]
    pub fn s_count(&self) -> usize {
        self.s_count
    }

    /// Current `|T|`.
    #[must_use]
    pub fn t_count(&self) -> usize {
        self.t_count
    }

    /// Live `S → T` edge count within the mask.
    #[must_use]
    pub fn live_edges(&self) -> u64 {
        self.edges
    }

    /// `true` iff either side has been peeled away entirely.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.s_count == 0 || self.t_count == 0
    }

    /// Exact density of the maintained pair on the current graph, `O(1)`.
    /// At least `sqrt(x·y)` whenever the core is non-empty (every member
    /// still satisfies its threshold), [`Density::ZERO`] once empty.
    #[must_use]
    pub fn density(&self) -> Density {
        if self.is_empty() {
            return Density::ZERO;
        }
        Density::new(self.edges, self.s_count as u64, self.t_count as u64)
    }

    /// The maintained pair in explicit form (allocates; use
    /// [`density`](DecrementalCore::density) for the hot path).
    #[must_use]
    pub fn pair(&self) -> Pair {
        self.mask.to_pair()
    }

    /// Lifetime count of vertices peeled by repair cascades.
    #[must_use]
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// Records that `u → v` was deleted from the underlying graph and
    /// repairs the core by cascade peeling from any vertex the deletion
    /// pushed below its threshold. Returns the number of vertices peeled
    /// (0 for the common case of a deletion outside the core).
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> usize {
        let (u_us, v_us) = (u as usize, v as usize);
        let in_core = self.mask.in_s.get(u_us).copied().unwrap_or(false)
            && self.mask.in_t.get(v_us).copied().unwrap_or(false);
        if !in_core {
            // Keep adjacency tight: one endpoint may still be alive and
            // carry a stale entry for the other.
            if let Some(set) = self.out_adj.get_mut(&u) {
                set.remove(&v);
            }
            if let Some(set) = self.in_adj.get_mut(&v) {
                set.remove(&u);
            }
            return 0;
        }
        let present = self.out_adj.get_mut(&u).is_some_and(|set| set.remove(&v));
        debug_assert!(present, "core adjacency out of sync at {u} -> {v}");
        if !present {
            return 0;
        }
        if let Some(set) = self.in_adj.get_mut(&v) {
            set.remove(&u);
        }
        self.deg_out[u_us] -= 1;
        self.deg_in[v_us] -= 1;
        self.edges -= 1;
        let mut queue = Vec::new();
        if self.deg_out[u_us] < self.x {
            queue.push((u, false));
        }
        if self.deg_in[v_us] < self.y {
            queue.push((v, true));
        }
        let peeled = self.repair(queue);
        self.repairs += peeled;
        peeled
    }

    /// Records that `u → v` was inserted into the underlying graph. The
    /// mask never grows (see the module docs), but counters stay exact for
    /// edges landing inside it, so the reported density keeps tracking the
    /// maintained pair under mixed workloads.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        let (u_us, v_us) = (u as usize, v as usize);
        let in_core = self.mask.in_s.get(u_us).copied().unwrap_or(false)
            && self.mask.in_t.get(v_us).copied().unwrap_or(false);
        if !in_core {
            return;
        }
        let fresh = self.out_adj.entry(u).or_default().insert(v);
        debug_assert!(
            fresh,
            "insert of an edge the core already tracks: {u} -> {v}"
        );
        if !fresh {
            return;
        }
        self.in_adj.entry(v).or_default().insert(u);
        self.deg_out[u_us] += 1;
        self.deg_in[v_us] += 1;
        self.edges += 1;
    }

    /// Cascade peel from the seed violations: the same worklist discipline
    /// as [`crate::xy_core_within`], but walking the core's own live
    /// adjacency instead of a (stale) CSR. Returns vertices peeled.
    fn repair(&mut self, mut queue: Vec<(VertexId, bool)>) -> usize {
        let mut peeled = 0usize;
        while let Some((w, t_side)) = queue.pop() {
            let w_us = w as usize;
            if t_side {
                if !self.mask.in_t[w_us] || self.deg_in[w_us] >= self.y {
                    continue; // stale entry
                }
                self.mask.in_t[w_us] = false;
                self.t_count -= 1;
                peeled += 1;
                if let Some(sources) = self.in_adj.remove(&w) {
                    for u in sources {
                        let u_us = u as usize;
                        if !self.mask.in_s[u_us] {
                            continue;
                        }
                        self.deg_out[u_us] -= 1;
                        self.edges -= 1;
                        if self.deg_out[u_us] + 1 == self.x {
                            queue.push((u, false));
                        }
                    }
                }
            } else {
                if !self.mask.in_s[w_us] || self.deg_out[w_us] >= self.x {
                    continue; // stale entry
                }
                self.mask.in_s[w_us] = false;
                self.s_count -= 1;
                peeled += 1;
                if let Some(targets) = self.out_adj.remove(&w) {
                    for v in targets {
                        let v_us = v as usize;
                        if !self.mask.in_t[v_us] {
                            continue;
                        }
                        self.deg_in[v_us] -= 1;
                        self.edges -= 1;
                        if self.deg_in[v_us] + 1 == self.y {
                            queue.push((v, true));
                        }
                    }
                }
            }
        }
        peeled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_graph::gen;

    #[test]
    fn tracks_complete_bipartite_teardown() {
        let g = gen::complete_bipartite(3, 3);
        let mut core = DecrementalCore::new(&g, 3, 3);
        assert_eq!((core.s_count(), core.t_count()), (3, 3));
        assert_eq!(core.live_edges(), 9);
        assert_eq!(core.density(), Density::new(9, 3, 3));
        // One deletion pushes a whole side below threshold: total collapse.
        let peeled = core.delete_edge(0, 3);
        assert!(core.is_empty());
        assert_eq!(peeled, 6, "every vertex cascades out");
        assert_eq!(core.density(), Density::ZERO);
        assert_eq!(core.live_edges(), 0);
    }

    #[test]
    fn deletions_outside_the_core_are_noops() {
        let g = DiGraph::from_edges(6, &[(0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (0, 5)]).unwrap();
        let mut core = DecrementalCore::new(&g, 2, 2);
        assert_eq!((core.s_count(), core.t_count()), (2, 2));
        assert_eq!(core.delete_edge(4, 5), 0);
        assert_eq!(core.delete_edge(0, 5), 0, "one endpoint outside T");
        assert_eq!((core.s_count(), core.t_count()), (2, 2));
        assert_eq!(core.repairs(), 0);
    }

    #[test]
    fn matches_from_scratch_peel_under_teardown() {
        let g = gen::gnm(14, 60, 5);
        let mut core = DecrementalCore::new(&g, 2, 2);
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        // Deterministic shuffle.
        let mut s = 0x9E3779B97F4A7C15u64;
        for i in (1..edges.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            edges.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut remaining: Vec<(u32, u32)> = edges.clone();
        for (u, v) in edges {
            remaining.retain(|&e| e != (u, v));
            core.delete_edge(u, v);
            let now = DiGraph::from_edges(g.n(), &remaining).unwrap();
            assert_eq!(core.mask(), &xy_core(&now, 2, 2), "after deleting {u}->{v}");
            let d = core.density();
            if !core.is_empty() {
                // Certificate: density ≥ √(x·y) = 2.
                assert!(d.edges * d.edges >= 4 * d.s * d.t, "certificate broke: {d}");
            }
        }
    }

    #[test]
    fn inserts_keep_counters_exact_within_the_mask() {
        let g = gen::complete_bipartite(2, 3);
        // Build from the [2, 1]-core, then delete + reinsert an edge: both
        // endpoints keep slack above their thresholds, so nothing peels.
        let mut core = DecrementalCore::new(&g, 2, 1);
        let before = core.density();
        assert_eq!(core.delete_edge(0, 2), 0, "slack above threshold");
        assert_eq!(core.live_edges(), 5);
        core.insert_edge(0, 2);
        assert_eq!(core.density(), before);
        // An insert outside the mask is ignored entirely.
        core.insert_edge(0, 0);
        assert_eq!(core.density(), before);
    }

    #[test]
    fn from_mask_agrees_with_new() {
        let g = gen::power_law(40, 220, 2.2, 9);
        let a = DecrementalCore::new(&g, 2, 1);
        let b = DecrementalCore::from_mask(&g, 2, 1, xy_core(&g, 2, 1));
        assert_eq!(a.mask(), b.mask());
        assert_eq!(a.live_edges(), b.live_edges());
    }

    #[test]
    fn empty_graph_core_is_empty() {
        let core = DecrementalCore::new(&DiGraph::empty(4), 1, 1);
        assert!(core.is_empty());
        assert_eq!(core.density(), Density::ZERO);
    }

    use dds_graph::DiGraph;
}
