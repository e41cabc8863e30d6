//! Deterministic level-based edge admission.
//!
//! Every edge gets a fixed 64-bit hash from a seeded splitmix64 finaliser;
//! level `ℓ` admits the edges whose hash falls below `2⁶⁴ / 2^ℓ`, i.e. an
//! admission probability of `2⁻ℓ` under the usual uniform-hash model. Two
//! properties carry the whole sketch:
//!
//! * **determinism** — admission depends only on `(seed, u, v)`, so an
//!   edge deleted and re-inserted makes the same coin flip, and a replay
//!   reproduces the sketch exactly;
//! * **nesting** — the admission set at level `ℓ+1` is a subset of the set
//!   at level `ℓ`, so a level bump only drops retained edges, never
//!   requires edges the sketch already threw away.

use std::collections::HashSet;

use dds_graph::VertexId;

/// Seeded deterministic admission of edges at a subsampling level.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EdgeSampler {
    seed: u64,
}

impl EdgeSampler {
    pub(crate) fn new(seed: u64) -> Self {
        EdgeSampler { seed }
    }

    /// The edge's fixed 64-bit hash (splitmix64 finaliser over the packed
    /// endpoint pair, keyed by the seed).
    fn hash(self, u: VertexId, v: VertexId) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((u64::from(u) << 32 | u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Whether the edge is retained at `level` (probability `2⁻ˡᵉᵛᵉˡ`).
    /// Levels ≥ 64 are clamped to the all-but-impossible 2⁻⁶³.
    pub(crate) fn admits(self, level: u32, u: VertexId, v: VertexId) -> bool {
        self.hash(u, v) <= u64::MAX >> level.min(63)
    }
}

/// The retained sample itself: the admission sampler, the current level,
/// and the set of retained edges — everything about a sketch that is *not*
/// an exact counter. Factored out of the engine so that merging
/// (edge-partitioned shards unioning their samples), snapshotting (the
/// retained set is reconstructible from `(seed, level)` plus the
/// authoritative edge set, so a snapshot stores only those), and level
/// manipulation live in one place with the nesting invariant.
#[derive(Clone, Debug)]
pub(crate) struct SampleStore {
    sampler: EdgeSampler,
    seed: u64,
    level: u32,
    retained: HashSet<(VertexId, VertexId)>,
}

impl SampleStore {
    /// An empty store at level 0.
    pub(crate) fn new(seed: u64) -> Self {
        SampleStore {
            sampler: EdgeSampler::new(seed),
            seed,
            level: 0,
            retained: HashSet::new(),
        }
    }

    /// The admission seed (part of the snapshot identity).
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Current subsampling level.
    pub(crate) fn level(&self) -> u32 {
        self.level
    }

    /// Number of retained edges.
    pub(crate) fn len(&self) -> usize {
        self.retained.len()
    }

    /// Iterates the retained edges (arbitrary order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.retained.iter().copied()
    }

    /// Whether the sampler admits the edge at an explicit level.
    pub(crate) fn admits_at(&self, level: u32, u: VertexId, v: VertexId) -> bool {
        self.sampler.admits(level, u, v)
    }

    /// Inserts the edge if the current level admits it. Returns whether the
    /// retained set actually grew.
    pub(crate) fn try_insert(&mut self, u: VertexId, v: VertexId) -> bool {
        self.sampler.admits(self.level, u, v) && self.retained.insert((u, v))
    }

    /// Removes the edge. Returns whether it was retained.
    pub(crate) fn remove(&mut self, u: VertexId, v: VertexId) -> bool {
        self.retained.remove(&(u, v))
    }

    /// Raises the level by one (halving the admission rate) and drops the
    /// edges the new level rejects, returning them so the caller can settle
    /// witness bookkeeping. Nested admission guarantees this only drops.
    pub(crate) fn raise_level(&mut self) -> Vec<(VertexId, VertexId)> {
        self.raise_to(self.level + 1)
    }

    /// Raises the level to `level` (no-op if not above the current one),
    /// returning the dropped edges.
    pub(crate) fn raise_to(&mut self, level: u32) -> Vec<(VertexId, VertexId)> {
        let level = level.min(63);
        if level <= self.level {
            return Vec::new();
        }
        self.level = level;
        let (sampler, lvl) = (self.sampler, self.level);
        let dropped: Vec<(VertexId, VertexId)> = self
            .retained
            .iter()
            .copied()
            .filter(|&(u, v)| !sampler.admits(lvl, u, v))
            .collect();
        for &(u, v) in &dropped {
            self.retained.remove(&(u, v));
        }
        dropped
    }

    /// Replaces the store's contents with the subset of `edges` admitted at
    /// `level` — the restore path: a snapshot carries only `(seed, level)`
    /// and the authoritative edge set, because deterministic admission
    /// makes the retained set a pure function of those.
    pub(crate) fn rebuild_at<I: IntoIterator<Item = (VertexId, VertexId)>>(
        &mut self,
        level: u32,
        edges: I,
    ) {
        self.level = level.min(63);
        self.retained.clear();
        for (u, v) in edges {
            if self.sampler.admits(self.level, u, v) {
                self.retained.insert((u, v));
            }
        }
    }

    /// Clears the retained set and resets the level to 0.
    pub(crate) fn clear(&mut self) {
        self.level = 0;
        self.retained.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_zero_admits_everything() {
        let s = EdgeSampler::new(0xDD5);
        for (u, v) in [(0, 1), (7, 3), (1000, 2000), (u32::MAX, 0)] {
            assert!(s.admits(0, u, v));
        }
    }

    #[test]
    fn levels_are_nested_and_roughly_halve() {
        let s = EdgeSampler::new(42);
        let mut admitted_prev = usize::MAX;
        for level in 0..6u32 {
            let mut admitted = 0usize;
            for u in 0..100u32 {
                for v in 0..100u32 {
                    if s.admits(level, u, v) {
                        admitted += 1;
                        // Nesting: admitted at ℓ ⇒ admitted at every ℓ' < ℓ.
                        for lower in 0..level {
                            assert!(s.admits(lower, u, v), "nesting broken at {level}");
                        }
                    }
                }
            }
            assert!(admitted < admitted_prev, "level {level} must shrink");
            admitted_prev = admitted;
            // Within 25% of the expected 10_000 / 2^level (loose: these are
            // fixed hashes, not fresh coins).
            let expected = 10_000.0 / f64::from(1u32 << level);
            assert!(
                (admitted as f64) > 0.75 * expected && (admitted as f64) < 1.25 * expected,
                "level {level}: {admitted} admitted vs ~{expected}"
            );
        }
    }

    #[test]
    fn different_seeds_sample_differently() {
        let a = EdgeSampler::new(1);
        let b = EdgeSampler::new(2);
        let disagreements = (0..1000u32)
            .filter(|&v| a.admits(1, 0, v) != b.admits(1, 0, v))
            .count();
        assert!(disagreements > 100, "seeds look correlated");
    }

    #[test]
    fn extreme_levels_are_clamped_not_ub() {
        let s = EdgeSampler::new(7);
        // Level 64+ must not shift by the full width (that would be UB on
        // the threshold computation); it clamps to 2⁻⁶³.
        let _ = s.admits(64, 1, 2);
        let _ = s.admits(1000, 1, 2);
    }
}
