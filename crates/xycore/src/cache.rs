//! Memoised `[x, y]`-core lookups for the exact search.
//!
//! The per-ratio flow search derives its core thresholds from the current
//! β guess (`x = ⌈β/2a⌉`, `y = ⌈β/2b⌉`). Different ratios — and repeated
//! solves over the same graph — keep landing on the *same* handful of
//! threshold pairs. [`CoreCache`] memoises the peel per `(x, y)` key so a
//! repeat costs one `O(n)` mask clone.
//!
//! A miss with `x, y ≥ 1` does not peel the whole graph either. Every
//! `[x, y]`-core lies inside both the `[x, 1]`-core and the `[1, y]`-core,
//! and peeling any superset of a core returns that core. Those two
//! one-sided cores need no cascade:
//!
//! * S of the `[x, 1]`-core is every vertex of out-degree `≥ x`, and its T
//!   is their out-neighbours (each has an in-neighbour in S, so no S
//!   vertex ever loses an out-neighbour);
//! * T of the `[1, y]`-core is every vertex of in-degree `≥ y`, and its S
//!   is their in-neighbours.
//!
//! So each vertex has a level per side: the largest `x` putting it in T of
//! the `[x, 1]`-core is the largest out-degree among its in-neighbours, and
//! the largest `y` putting it in S of the `[1, y]`-core is the largest
//! in-degree among its out-neighbours. The first such miss computes these
//! levels in `O(n + m)`; every one then filters the intersection of the
//! two cores in `O(n)` and peels inside it, in `O(n + edges out of its S)`.
//! A miss with `x = 0` or `y = 0` peels the whole graph in `O(n + m)`.
//!
//! The cache is only valid for one graph: the owner (`dds-core`'s
//! `SolveContext`) compares the graph against the previous solve's and calls
//! [`clear`](CoreCache::clear) whenever it changes — which is also what the
//! stream engine relies on when an epoch's re-solve runs on a mutated
//! graph. Clearing drops the levels with the memo.

use std::collections::HashMap;

use dds_graph::{DiGraph, StMask, VertexId};

use crate::peel::xy_core_within;

/// Entry cap: the keyed thresholds are bounded by the density range, so
/// real solves stay far below this; it only guards pathological churn.
const MAX_ENTRIES: usize = 4096;

/// A memo table of full-graph `[x, y]`-cores with hit/miss counters.
#[derive(Clone, Debug, Default)]
pub struct CoreCache {
    map: HashMap<(u64, u64), StMask>,
    /// The graph's one-sided core levels, built on the first miss that
    /// filters.
    levels: Option<Levels>,
    hits: usize,
    misses: usize,
}

/// Per-vertex levels of one graph (see the module docs); the other two
/// levels are the vertex's own out- and in-degree.
#[derive(Clone, Debug)]
struct Levels {
    /// The largest `x` with the vertex in T of the `[x, 1]`-core.
    t_of_x1: Vec<u64>,
    /// The largest `y` with the vertex in S of the `[1, y]`-core.
    s_of_1y: Vec<u64>,
}

impl Levels {
    /// `O(n + m)`: one pass over each side's adjacency.
    fn new(g: &DiGraph) -> Self {
        let ids = 0..g.n() as VertexId;
        Levels {
            t_of_x1: ids
                .clone()
                .map(|v| {
                    let tails = g.in_neighbors(v).iter();
                    tails.map(|&u| g.out_degree(u) as u64).max().unwrap_or(0)
                })
                .collect(),
            s_of_1y: ids
                .map(|u| {
                    let heads = g.out_neighbors(u).iter();
                    heads.map(|&v| g.in_degree(v) as u64).max().unwrap_or(0)
                })
                .collect(),
        }
    }

    /// The intersection of the `[x, 1]`-core and the `[1, y]`-core, a
    /// superset of the `[x, y]`-core for `x, y ≥ 1`.
    fn candidate(&self, g: &DiGraph, x: u64, y: u64) -> StMask {
        let ids = 0..g.n() as VertexId;
        StMask {
            in_s: ids
                .clone()
                .map(|u| g.out_degree(u) as u64 >= x && self.s_of_1y[u as usize] >= y)
                .collect(),
            in_t: ids
                .map(|v| g.in_degree(v) as u64 >= y && self.t_of_x1[v as usize] >= x)
                .collect(),
        }
    }
}

impl CoreCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        CoreCache::default()
    }

    /// The `[x, y]`-core of `g` (full base), memoised. Returns a clone of
    /// the cached mask; a miss with `x, y ≥ 1` peels only inside the level
    /// filter of the module docs.
    pub fn core(&mut self, g: &DiGraph, x: u64, y: u64) -> StMask {
        if let Some(mask) = self.map.get(&(x, y)) {
            self.hits += 1;
            return mask.clone();
        }
        self.misses += 1;
        if self.map.len() >= MAX_ENTRIES {
            self.map.clear();
        }
        let base = if x == 0 || y == 0 {
            StMask::full(g.n())
        } else {
            self.levels
                .get_or_insert_with(|| Levels::new(g))
                .candidate(g, x, y)
        };
        let mask = xy_core_within(g, &base, x, y);
        self.map.insert((x, y), mask.clone());
        mask
    }

    /// Drops every memoised core and the levels (the graph changed).
    pub fn clear(&mut self) {
        self.map.clear();
        self.levels = None;
    }

    /// Number of lookups answered from the memo table.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of lookups that had to peel.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of distinct cores currently memoised.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff nothing is memoised.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::xy_core;
    use dds_graph::gen;

    #[test]
    fn memoised_cores_match_direct_peels() {
        let g = gen::gnm(30, 140, 3);
        let mut cache = CoreCache::new();
        for (x, y) in [(1, 1), (2, 3), (1, 1), (4, 2), (2, 3), (1, 1)] {
            assert_eq!(cache.core(&g, x, y), xy_core(&g, x, y), "({x},{y})");
        }
        assert_eq!(cache.misses(), 3, "three distinct keys");
        assert_eq!(cache.hits(), 3, "three repeats");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn clear_forgets_but_keeps_counters() {
        let g = gen::gnm(12, 40, 9);
        let mut cache = CoreCache::new();
        let before = cache.core(&g, 1, 1);
        cache.clear();
        assert!(cache.is_empty());
        let after = cache.core(&g, 1, 1);
        assert_eq!(before, after);
        assert_eq!(cache.misses(), 2, "clear forces a re-peel");
    }

    #[test]
    fn levels_give_the_one_sided_cores() {
        let g = gen::power_law(60, 400, 2.1, 5);
        let levels = Levels::new(&g);
        for k in 1..=g.max_out_degree().max(g.max_in_degree()) as u64 + 1 {
            assert_eq!(levels.candidate(&g, k, 1), xy_core(&g, k, 1), "[{k}, 1]");
            assert_eq!(levels.candidate(&g, 1, k), xy_core(&g, 1, k), "[1, {k}]");
        }
    }
}
