//! The common answer type returned by every solver, plus the per-solve
//! instrumentation summary shared by the exact engine and the stream
//! engine's epoch reports.

use dds_graph::{DiGraph, Pair};
use dds_num::Density;

/// Per-solve instrumentation counters, surfaced by `ExactReport::stats`
/// and `dds-stream`'s `EpochReport::solve_stats` so perf regressions show
/// up in `dds bench` / `dds stream` logs (and CI) instead of silently
/// eating wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Ratios for which a per-ratio flow search actually ran.
    pub ratios_solved: usize,
    /// Flow decisions (min-cut computations) executed.
    pub flow_decisions: usize,
    /// Flow decisions that recycled a `FlowArena`'s buffers instead of
    /// allocating a fresh network.
    pub arena_reuse_hits: usize,
    /// `[x, y]`-core lookups answered from the `SolveContext` memo table
    /// instead of peeling.
    pub core_cache_hits: usize,
}

impl SolveStats {
    /// Folds another solve's counters into this accumulator — the one
    /// shared accumulation path for every engine that totals escalated
    /// solves (`dds-sketch`, `dds-shard`, the stream engines).
    pub fn merge(&mut self, other: SolveStats) {
        self.ratios_solved += other.ratios_solved;
        self.flow_decisions += other.flow_decisions;
        self.arena_reuse_hits += other.arena_reuse_hits;
        self.core_cache_hits += other.core_cache_hits;
    }
}

/// A candidate or final answer to the DDS problem: the pair and its exact
/// density.
///
/// Solvers compare solutions through [`Density`]'s exact ordering; ties are
/// broken by whichever was found first, so two optimal pairs of equal
/// density are both acceptable answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DdsSolution {
    /// The `(S, T)` pair.
    pub pair: Pair,
    /// Its exact density in the input graph.
    pub density: Density,
}

impl DdsSolution {
    /// The empty solution (density zero) — the answer on edgeless graphs
    /// and the identity for maxima.
    #[must_use]
    pub fn empty() -> Self {
        DdsSolution {
            pair: Pair::new(Vec::new(), Vec::new()),
            density: Density::ZERO,
        }
    }

    /// Wraps a pair, computing its exact density in `g`.
    #[must_use]
    pub fn from_pair(g: &DiGraph, pair: Pair) -> Self {
        let density = pair.density(g);
        DdsSolution { pair, density }
    }

    /// Replaces `self` with `candidate` when the candidate is strictly
    /// denser; returns whether it improved.
    pub fn improve_to(&mut self, candidate: DdsSolution) -> bool {
        if candidate.density > self.density {
            *self = candidate;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_graph::gen;

    #[test]
    fn empty_solution_is_zero() {
        let s = DdsSolution::empty();
        assert!(s.pair.is_empty());
        assert!(s.density.is_zero());
    }

    #[test]
    fn from_pair_computes_density() {
        let g = gen::complete_bipartite(2, 3);
        let s = DdsSolution::from_pair(&g, Pair::new(vec![0, 1], vec![2, 3, 4]));
        assert_eq!(s.density, Density::new(6, 2, 3));
    }

    #[test]
    fn improve_to_keeps_the_denser() {
        let g = gen::complete_bipartite(2, 3);
        let mut best = DdsSolution::empty();
        let full = DdsSolution::from_pair(&g, Pair::new(vec![0, 1], vec![2, 3, 4]));
        assert!(best.improve_to(full.clone()));
        let weaker = DdsSolution::from_pair(&g, Pair::new(vec![0], vec![2]));
        assert!(!best.improve_to(weaker));
        assert_eq!(best, full);
    }
}
