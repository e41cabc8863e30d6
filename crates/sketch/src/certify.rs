//! The one certification rule every streaming tier shares.
//!
//! Every tier certifies an epoch the same way. The **lower** bound is the
//! live density of a witness pair: a real pair of the graph, so never
//! above the optimum, with its edge count maintained per event
//! ([`WitnessTracker`]). The unconditional **upper** bound is the
//! structural `min(√m, √(d⁺_max · d⁻_max))` ([`structural_upper`], with
//! the [`SAFETY`] margin). Their ratio is the certified factor
//! ([`CertifiedBounds::certified_factor`]).
//!
//! The sampled tiers share two more pieces. A refresh is due when the
//! incumbent witness is dead or the sample has churned past a fraction of
//! its size ([`refresh_due`], floored at [`DRIFT_FLOOR`]). The
//! edge-partitioned tiers (the in-process sharded engine and the cluster
//! coordinator) refresh by merging per-partition sketches
//! ([`MergedCertifier`]): union the samples at the maximum level, carry
//! the one-shot cold-start escalation across refreshes, and run the
//! two-tier solve. This is the mergeable-summary design of Mitrović–Pan:
//! counters sum and seeded samples union, so the merged sketch is exactly
//! what one engine over the whole graph would hold.

use dds_core::SolveStats;
use dds_graph::{Pair, VertexId};
use dds_num::Density;
use dds_obs::Registry;

use crate::{SketchConfig, SketchEngine};

/// Relative inflation applied to every floating-point upper bound so
/// rounding can never flip a certificate.
pub const SAFETY: f64 = 1e-9;

/// Retained sets smaller than this still wait for a few mutations before
/// a drift-triggered refresh — otherwise tiny samples would re-solve on
/// every event.
pub const DRIFT_FLOOR: usize = 32;

/// The structural upper bound on the optimum density of a graph with `m`
/// live edges and degree maxima `out_max`/`in_max`:
/// `min(√m, √(d⁺_max · d⁻_max))`, safety-inflated. It needs no history,
/// so every tier can certify with it at any moment. Zero on an edgeless
/// graph.
#[must_use]
pub fn structural_upper(m: u64, out_max: u64, in_max: u64) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let sqrt_m = (m as f64).sqrt();
    let degree = ((out_max as f64) * (in_max as f64)).sqrt();
    sqrt_m.min(degree) * (1.0 + SAFETY)
}

/// A certified bracket around the current optimum density `ρ_opt`:
/// `lower ≤ ρ_opt ≤ upper`.
#[derive(Clone, Copy, Debug)]
pub struct CertifiedBounds {
    /// Exact density of the maintained witness pair (a real pair of the
    /// current graph, so never above the optimum).
    pub lower: Density,
    /// Certified upper bound on the optimum (carries the [`SAFETY`]
    /// margin).
    pub upper: f64,
}

impl CertifiedBounds {
    /// `upper / lower` — the proven approximation factor of the reported
    /// density. `f64::INFINITY` when the witness is empty but edges exist;
    /// 1 for the empty bracket `[0, 0]`.
    #[must_use]
    pub fn certified_factor(&self) -> f64 {
        let lo = self.lower.to_f64();
        if lo > 0.0 {
            self.upper / lo
        } else if self.upper > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// The drift trigger of the sampled tiers: with `retained` sampled edges,
/// a refresh is due when the incumbent witness is dead, or when
/// `mutations` (retained-set changes since the last refresh) reach
/// `refresh_drift` of the retained set, floored at [`DRIFT_FLOOR`]. An
/// empty sample never refreshes.
#[must_use]
pub fn refresh_due(
    retained: usize,
    incumbent_dead: bool,
    mutations: u64,
    refresh_drift: f64,
) -> bool {
    retained > 0
        && (incumbent_dead
            || mutations as f64 >= refresh_drift * (retained.max(DRIFT_FLOOR) as f64))
}

/// A fixed `(S, T)` pair with its live `|E(S, T)|` maintained per event:
/// an exact, `O(1)`-per-update lower bound on the current optimum.
///
/// Membership bitmaps are sized at adoption; a vertex id beyond them is in
/// neither side, which is right, because pairs only name vertices that
/// existed when they were adopted.
#[derive(Clone, Debug, Default)]
pub struct WitnessTracker {
    pair: Option<Pair>,
    in_s: Vec<bool>,
    in_t: Vec<bool>,
    edges: u64,
}

impl WitnessTracker {
    /// Whether `u → v` runs from `S` to `T` (always false with no pair).
    #[inline]
    #[must_use]
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.in_s.get(u as usize).copied().unwrap_or(false)
            && self.in_t.get(v as usize).copied().unwrap_or(false)
    }

    /// Records an applied insertion.
    #[inline]
    pub fn on_insert(&mut self, u: VertexId, v: VertexId) {
        if self.contains(u, v) {
            self.edges += 1;
        }
    }

    /// Records an applied deletion.
    #[inline]
    pub fn on_delete(&mut self, u: VertexId, v: VertexId) {
        if self.contains(u, v) {
            self.edges -= 1;
        }
    }

    /// Adopts `pair` (or clears on `None`) over `n` vertices, recounting
    /// its live edges among `edges` (the current live edge set).
    pub fn reset<I>(&mut self, n: usize, pair: Option<Pair>, edges: I)
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        self.in_s = vec![false; n];
        self.in_t = vec![false; n];
        self.edges = 0;
        if let Some(pair) = &pair {
            mark(&mut self.in_s, pair.s());
            mark(&mut self.in_t, pair.t());
            self.edges = edges
                .into_iter()
                .filter(|&(u, v)| self.contains(u, v))
                .count() as u64;
        }
        self.pair = pair;
    }

    /// The maintained pair, if any.
    #[must_use]
    pub fn pair(&self) -> Option<&Pair> {
        self.pair.as_ref()
    }

    /// The maintained live edge count `|E(S, T)|`.
    #[must_use]
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Exact density of the maintained pair ([`Density::ZERO`] when no
    /// pair is held or a side is empty).
    #[must_use]
    pub fn density(&self) -> Density {
        self.density_with(self.edges)
    }

    /// The pair's density at an edge count the caller maintains itself
    /// (the cluster coordinator counts only fresh replicas' edges).
    #[must_use]
    pub fn density_with(&self, edges: u64) -> Density {
        match &self.pair {
            Some(pair) if !pair.is_empty() => {
                Density::new(edges, pair.s().len() as u64, pair.t().len() as u64)
            }
            _ => Density::ZERO,
        }
    }

    /// Whether the witness certifies nothing: no pair, or no live edge
    /// left between its sides.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.density().is_zero()
    }
}

fn mark(bits: &mut Vec<bool>, ids: &[VertexId]) {
    for &id in ids {
        let i = id as usize;
        if i >= bits.len() {
            bits.resize(i + 1, false);
        }
        bits[i] = true;
    }
}

/// The merged refresh of edge-partitioned sketches, with the state it
/// carries from one refresh to the next: the one-shot cold-start
/// escalation and the last merged level.
///
/// Each refresh builds a **fresh** merged [`SketchEngine`] (cold solver
/// context): the sample is small, so warmth buys little, and
/// history-independence is what makes a restored engine resume
/// bit-identically.
#[derive(Clone, Copy, Debug, Default)]
pub struct MergedCertifier {
    armed: bool,
    level: u32,
}

/// What one [`MergedCertifier::refresh`] produced.
#[derive(Clone, Debug)]
pub struct MergedRefresh {
    /// The pair solved on the merged sample (`None` when it is empty).
    /// Adopting it is the caller's rule.
    pub fresh: Option<Pair>,
    /// Instrumentation of the exact-on-sketch escalation (`None` when the
    /// core sweep's bracket sufficed).
    pub stats: Option<SolveStats>,
    /// Whether this refresh fired a carried one-shot escalation.
    pub cold: bool,
}

impl MergedCertifier {
    /// A certifier resumed from snapshot state.
    #[must_use]
    pub fn restore(armed: bool, level: u32) -> Self {
        MergedCertifier { armed, level }
    }

    /// Whether a one-shot escalation is armed for the next refresh.
    #[must_use]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// The subsampling level of the last merged sample.
    #[must_use]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Unions `parts` at their maximum level ([`SketchEngine::merged`]),
    /// fires the carried one-shot escalation if armed, and runs the
    /// two-tier solve of the merged sample. The merged engine's counters
    /// re-home in `obs` when given.
    ///
    /// A freshly merged engine has no incumbent, so its cold-start
    /// detector always sees a dead one. The arming it asks for is carried
    /// to the next refresh only while the caller's own incumbent is dead
    /// too (`incumbent_dead`).
    ///
    /// # Panics
    /// As [`SketchEngine::merged`]: on no parts or mismatched seeds.
    pub fn refresh(
        &mut self,
        config: SketchConfig,
        parts: &[&SketchEngine],
        incumbent_dead: bool,
        obs: Option<&Registry>,
    ) -> MergedRefresh {
        let mut merged = SketchEngine::merged(config, parts);
        if let Some(registry) = obs {
            merged.attach_obs(registry);
        }
        let cold = std::mem::take(&mut self.armed);
        if cold {
            merged.arm_escalation();
        }
        let stats = merged.force_refresh();
        self.armed = merged.escalation_armed() && incumbent_dead;
        self.level = merged.level();
        MergedRefresh {
            fresh: merged.witness_pair().cloned().filter(|p| !p.is_empty()),
            stats,
            cold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every step of a random insert/delete/adopt sequence the
        /// tracker's count equals a brute-force `|E(S, T)|` recount, and
        /// its density follows. Adoptions size the bitmaps to the ids seen
        /// so far, so later inserts also exercise ids past them.
        #[test]
        fn tracker_count_matches_a_recount(
            ops in prop::collection::vec((0u32..5, 0u32..12, 0u32..12, 0u32..4096, 0u32..4096), 1..80),
        ) {
            let mut live: HashSet<(VertexId, VertexId)> = HashSet::new();
            let mut tracker = WitnessTracker::default();
            let mut n = 0usize;
            let side = |mask: u32| (0..12).filter(|i| mask >> i & 1 == 1).collect::<Vec<_>>();
            for (op, u, v, s_mask, t_mask) in ops {
                match op {
                    0 | 1 => {
                        n = n.max(u.max(v) as usize + 1);
                        if live.insert((u, v)) {
                            tracker.on_insert(u, v);
                        }
                    }
                    2 => {
                        if live.remove(&(u, v)) {
                            tracker.on_delete(u, v);
                        }
                    }
                    3 => {
                        let pair = Pair::new(side(s_mask), side(t_mask));
                        tracker.reset(n, Some(pair), live.iter().copied());
                    }
                    _ => tracker.reset(n, None, live.iter().copied()),
                }
                let expect = tracker.pair().map_or(0, |p| {
                    live.iter()
                        .filter(|(a, b)| p.s().contains(a) && p.t().contains(b))
                        .count() as u64
                });
                prop_assert_eq!(tracker.edges(), expect);
                let density = match tracker.pair() {
                    Some(p) if !p.is_empty() => {
                        Density::new(expect, p.s().len() as u64, p.t().len() as u64)
                    }
                    _ => Density::ZERO,
                };
                prop_assert_eq!(tracker.density(), density);
                prop_assert_eq!(tracker.is_dead(), expect == 0);
            }
        }
    }

    #[test]
    fn structural_bound_is_zero_on_an_edgeless_graph() {
        assert_eq!(structural_upper(0, 0, 0), 0.0);
        assert_eq!(structural_upper(0, 5, 7), 0.0);
        // K_{2,2}: √m = 2 = √(2·2); the margin sits on top.
        assert_eq!(structural_upper(4, 2, 2), 2.0 * (1.0 + SAFETY));
        // A star: the degree arm wins.
        assert_eq!(structural_upper(9, 9, 1), 3.0 * (1.0 + SAFETY));
        assert_eq!(structural_upper(100, 1, 1), 1.0 + SAFETY);
    }

    #[test]
    fn factor_rule_handles_empty_and_dead_brackets() {
        let bracket = |lower: Density, upper: f64| CertifiedBounds { lower, upper };
        assert_eq!(bracket(Density::ZERO, 0.0).certified_factor(), 1.0);
        assert_eq!(
            bracket(Density::ZERO, 3.5).certified_factor(),
            f64::INFINITY
        );
        // K_{2,2} certified against a loose upper bound of 3.
        assert_eq!(bracket(Density::new(4, 2, 2), 3.0).certified_factor(), 1.5);
    }

    #[test]
    fn drift_trigger_waits_for_the_floor() {
        assert!(
            !refresh_due(0, true, 1_000, 0.25),
            "empty samples never refresh"
        );
        assert!(
            refresh_due(1, true, 0, 0.25),
            "a dead incumbent refreshes at once"
        );
        // Below the floor the drift counts against 32 retained edges.
        assert!(!refresh_due(4, false, 7, 0.25));
        assert!(refresh_due(4, false, 8, 0.25));
        assert!(!refresh_due(400, false, 99, 0.25));
        assert!(refresh_due(400, false, 100, 0.25));
    }

    /// Two opposed hub stars subsampled to a scattered sample: the sweep
    /// of the merged sample certifies under 10% of the structural bound,
    /// which is the shape that arms a one-shot escalation.
    fn cold_part(config: SketchConfig) -> SketchEngine {
        let mut sk = SketchEngine::new(config);
        for v in 1..=1200u32 {
            sk.insert(0, v);
        }
        for u in 1201..=2400u32 {
            sk.insert(u, 2401);
        }
        sk
    }

    #[test]
    fn escalation_carry_survives_only_while_the_incumbent_is_dead() {
        let config = SketchConfig {
            state_bound: 24,
            escalate_factor: 3.0,
            ..SketchConfig::default()
        };
        let part = cold_part(config);

        // A dead incumbent keeps the arming for the next refresh, which
        // then goes exact and disarms.
        let mut certifier = MergedCertifier::default();
        let first = certifier.refresh(config, &[&part], true, None);
        assert!(
            !first.cold && first.stats.is_none(),
            "factor 3 starts sweep-first"
        );
        assert!(
            certifier.armed(),
            "cold start with a dead incumbent must arm"
        );
        let second = certifier.refresh(config, &[&part], true, None);
        assert!(second.cold, "the carried shot fires");
        assert!(second.stats.is_some(), "the armed refresh goes exact");
        assert!(!certifier.armed(), "one-shot: disarmed after firing");
        let third = certifier.refresh(config, &[&part], true, None);
        assert!(
            !third.cold && third.stats.is_none(),
            "the shot does not repeat"
        );
        assert!(certifier.armed(), "the sweep-first refresh re-arms");

        // A live incumbent drops the arming: the next refresh stays
        // sweep-first.
        let mut certifier = MergedCertifier::default();
        certifier.refresh(config, &[&part], false, None);
        assert!(
            !certifier.armed(),
            "a live incumbent must not carry the shot"
        );
        let next = certifier.refresh(config, &[&part], false, None);
        assert!(!next.cold && next.stats.is_none());

        // An armed certifier whose caller reports a live incumbent fires
        // the carried shot once, then drops it.
        let mut certifier = MergedCertifier::restore(true, 0);
        let fired = certifier.refresh(config, &[&part], false, None);
        assert!(fired.cold && fired.stats.is_some());
        assert!(!certifier.armed());
        assert_eq!(certifier.level(), part.level());
    }
}
