//! `[x, y]`-core decomposition: `y_max` sweeps, the skyline, and the
//! maximum-product core behind `CoreApprox`.

use dds_graph::{DiGraph, StMask, VertexId};
use dds_num::isqrt;

use crate::peel::xy_core_within;

/// Result of a `y_max` computation: the largest `y` with a non-empty
/// `[x, y]`-core, together with that core.
#[derive(Clone, Debug)]
pub struct YMaxCore {
    /// The maximal `y`.
    pub y: u64,
    /// The `[x, y]`-core achieving it.
    pub mask: StMask,
}

/// One maximal point of the core skyline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkylinePoint {
    /// Out-degree threshold.
    pub x: u64,
    /// The largest `y` such that the `[x, y]`-core is non-empty.
    pub y: u64,
}

/// Computes `y_max(x)` within `base`: the largest `y ≥ 1` such that the
/// `[x, y]`-core (inside `base`) is non-empty, plus that core. Returns
/// `None` when even the `[x, 1]`-core is empty.
///
/// Single bucket-peeling pass in `O(n + m + d_max)`: T vertices are drained
/// in increasing current in-degree (the directed analog of
/// Batagelj–Zaversnik k-core decomposition) while S-side violations cascade.
/// Removals are stamped with the level at which they fell, so the core at
/// the final level is reconstructed without cloning per level.
#[must_use]
pub fn y_max_core(g: &DiGraph, base: &StMask, x: u64) -> Option<YMaxCore> {
    y_max_step(g, base, x).map(|step| step.core)
}

/// One sweep point: [`y_max_core`]'s answer plus what the sweep steps on.
struct Step {
    core: YMaxCore,
    /// The `[x, 1]`-core of `base` the peel started from: the base of the
    /// next sweep point.
    x1_core: StMask,
    /// The largest out-degree inside `x1_core`: no later sweep point has
    /// a larger `x`.
    max_out: u64,
}

/// [`y_max_core`], keeping the `[x, 1]`-core and its largest out-degree.
#[allow(clippy::needless_range_loop)] // parallel-array indexing
fn y_max_step(g: &DiGraph, base: &StMask, x: u64) -> Option<Step> {
    let n = g.n();
    let mut mask = xy_core_within(g, base, x, 1);
    if mask.is_empty() {
        return None;
    }
    // Its S side is also needed to reconstruct the final core when x = 0
    // (S vertices are then never peeled and carry no stamp).
    let x1_core = mask.clone();

    // Degrees inside the [x, 1]-core.
    let mut deg_out = vec![0u64; n];
    let mut deg_in = vec![0u64; n];
    for u in 0..n {
        if mask.in_s[u] {
            for &v in g.out_neighbors(u as VertexId) {
                if mask.in_t[v as usize] {
                    deg_out[u] += 1;
                    deg_in[v as usize] += 1;
                }
            }
        }
    }

    let max_out = deg_out.iter().copied().max().unwrap_or(0);
    let max_deg = (0..n)
        .filter(|&v| mask.in_t[v])
        .map(|v| deg_in[v])
        .max()
        .unwrap_or(0);
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_deg as usize + 1];
    let mut t_alive = 0usize;
    for v in 0..n {
        if mask.in_t[v] {
            buckets[deg_in[v] as usize].push(v as VertexId);
            t_alive += 1;
        }
    }

    // Removal stamps: the `y` being peeled toward when the vertex fell
    // (vertex belongs to the [x, y−1]-core but not the [x, y]-core).
    const ALIVE: u64 = u64::MAX;
    let mut level_s = vec![ALIVE; n];
    let mut level_t = vec![ALIVE; n];

    let mut final_y = 1; // level whose peel emptied the T side
    let mut s_removal_stack: Vec<VertexId> = Vec::new();
    'levels: for y in 2..=(max_deg + 1) {
        // Peel toward [x, y]: drain every T vertex whose in-degree < y.
        let mut d = 0usize;
        while d < y as usize {
            while let Some(v) = buckets[d].pop() {
                let v_us = v as usize;
                if !mask.in_t[v_us] || deg_in[v_us] as usize != d {
                    continue; // stale bucket entry
                }
                mask.in_t[v_us] = false;
                level_t[v_us] = y;
                t_alive -= 1;
                // Cascade: S vertices losing this target may fall below x.
                for &u in g.in_neighbors(v) {
                    let u_us = u as usize;
                    if mask.in_s[u_us] {
                        deg_out[u_us] -= 1;
                        if deg_out[u_us] < x {
                            s_removal_stack.push(u);
                        }
                    }
                }
                while let Some(u) = s_removal_stack.pop() {
                    let u_us = u as usize;
                    if !mask.in_s[u_us] {
                        continue;
                    }
                    mask.in_s[u_us] = false;
                    level_s[u_us] = y;
                    for &w in g.out_neighbors(u) {
                        let w_us = w as usize;
                        if mask.in_t[w_us] {
                            deg_in[w_us] -= 1;
                            let nd = deg_in[w_us] as usize;
                            buckets[nd].push(w);
                            if nd < d {
                                d = nd; // re-drain the lower bucket
                            }
                        }
                    }
                }
                if t_alive == 0 {
                    final_y = y;
                    break 'levels;
                }
            }
            d += 1;
        }
    }
    assert!(t_alive == 0, "peeling must eventually empty the T side");

    // Reconstruct the [x, final_y − 1]-core: exactly the state of the mask
    // just before the final level's peel began, i.e. vertices stamped at
    // `final_y` plus vertices never removed at all (S side with x = 0; the
    // T side always empties, and with x ≥ 1 the S side empties with it).
    let y_max = final_y - 1;
    let core = StMask {
        in_s: (0..n)
            .map(|v| level_s[v] == final_y || (level_s[v] == ALIVE && x1_core.in_s[v]))
            .collect(),
        in_t: (0..n).map(|v| level_t[v] == final_y).collect(),
    };
    Some(Step {
        core: YMaxCore {
            y: y_max,
            mask: core,
        },
        x1_core,
        max_out,
    })
}

/// Computes `x_max(y)`: the largest `x ≥ 1` with a non-empty `[x, y]`-core
/// inside `base`. Convenience wrapper that transposes the graph; callers
/// looping over `y` should transpose once and use [`y_max_core`] directly
/// (as [`max_product_core`] does).
#[must_use]
pub fn x_max(g: &DiGraph, base: &StMask, y: u64) -> Option<YMaxCore> {
    let rev = g.reverse();
    let swapped = StMask {
        in_s: base.in_t.clone(),
        in_t: base.in_s.clone(),
    };
    y_max_core(&rev, &swapped, y).map(|r| YMaxCore {
        y: r.y,
        mask: StMask {
            in_s: r.mask.in_t,
            in_t: r.mask.in_s,
        },
    })
}

/// The full core skyline: for every `x` with a non-empty `[x, 1]`-core, the
/// point `(x, y_max(x))`. `y` values are non-increasing in `x`.
///
/// `O(x_max · (n + m))`; used by the analysis experiments (E10), not by the
/// solvers.
#[must_use]
pub fn skyline(g: &DiGraph) -> Vec<SkylinePoint> {
    let mut points = Vec::new();
    let mut base = StMask::full(g.n());
    let mut x = 1u64;
    while let Some(step) = y_max_step(g, &base, x) {
        points.push(SkylinePoint { x, y: step.core.y });
        base = step.x1_core;
        x += 1;
    }
    points
}

/// The non-empty `[x, y]`-core maximising `x·y`, found by two `√m`-bounded
/// sweeps (every non-empty core has `x·y ≤ m`, so any skyline point has
/// `min(x, y) ≤ ⌊√m⌋` and is covered by one of the sweeps).
///
/// This core is the `CoreApprox` answer: its density is at least
/// `sqrt(x·y) ≥ ρ_opt / 2`.
///
/// The answer is the first point of maximum product in sweep order: the
/// forward points `(x, y_max(x))` by increasing `x ≤ ⌊√m⌋`, then the
/// reverse points `(x_max(y), y)` by increasing `y ≤ ⌊√m⌋`. The sweeps
/// skip only evaluations that provably cannot be that point, so skipping
/// changes neither the core nor the tie-break. With `P` the best product,
/// `L = ⌊√m⌋` and `d⁺max`/`d⁻max` the graph's largest degrees:
///
/// 1. **Reverse stop.** A reverse point with `x ≤ L` is dominated by the
///    earlier forward point `(x, y_max(x))`, as `y_max(x) ≥ y`. So the
///    reverse sweep stops after the first `y` with `x_max(y) ≤ L`, and
///    never starts when `d⁺max ≤ L`.
/// 2. **Forward stop.** Later forward points have `x ≤ min(L, d⁺max(base))`,
///    the base being the current `[x, 1]`-core, and `y ≤ y_max(x)`, so the
///    sweep stops once that product bound cannot beat the best. The
///    reverse sweep stops on the same bound with the sides swapped.
/// 3. **Floor.** One probe at `x_p = ⌊min(L, d⁺max)/2⌋` gives
///    `F = x_p·y_max(x_p) ≤ P`. Every `x < ⌈F/d⁻max⌉` has
///    `x·y_max(x) ≤ x·d⁻max < F`, so the forward sweep starts there, with
///    one peel from the full graph. The probe is that sweep's own point at
///    `x_p`, reused when the sweep gets there. Below `x_p` every bound of
///    rule 2 is at least `F`, so `F` needs no stop rule of its own. The
///    probe runs only when one peel shows that `F > d⁻max`: when the
///    `[x_p, ⌊d⁻max/x_p⌋ + 1]`-core is non-empty. Otherwise the start would
///    stay at `x = 1`.
///
/// All comparisons are strict, as in two plain sweeps, so ties still go to
/// the earlier point. Nor do the rules ever cost an evaluation: the probe
/// runs only when it skips the sweep's evaluation at `x = 1`, and the rest
/// only drop evaluations.
#[derive(Clone, Debug)]
pub struct MaxProductCore {
    /// Out-degree threshold of the arg-max core.
    pub x: u64,
    /// In-degree threshold of the arg-max core.
    pub y: u64,
    /// The core itself.
    pub mask: StMask,
    /// Number of `y_max`/`x_max` evaluations performed, the probe included
    /// (instrumentation).
    pub sweep_evals: usize,
}

impl MaxProductCore {
    /// The product `x·y`; `ρ_opt ≤ 2·sqrt(product)` and the core's density
    /// is `≥ sqrt(product)`.
    #[must_use]
    pub fn product(&self) -> u64 {
        self.x * self.y
    }
}

/// See [`MaxProductCore`], which also states the sweep's three pruning
/// rules and why they leave the answer unchanged. Returns `None` on
/// graphs with no edges.
#[must_use]
pub fn max_product_core(g: &DiGraph) -> Option<MaxProductCore> {
    if g.m() == 0 {
        return None;
    }
    let limit = isqrt(g.m() as u128) as u64;
    let (d_out, d_in) = (g.max_out_degree() as u64, g.max_in_degree() as u64);
    let full = StMask::full(g.n());
    let mut best: Option<MaxProductCore> = None;
    let mut evals = 0usize;

    let consider = |x: u64, y: u64, mask: StMask, best: &mut Option<MaxProductCore>| {
        let product = x * y;
        if best.as_ref().is_none_or(|b| product > b.product()) {
            *best = Some(MaxProductCore {
                x,
                y,
                mask,
                sweep_evals: 0,
            });
        }
    };
    let best_product = |best: &Option<MaxProductCore>| best.as_ref().map_or(0, |b| b.product());

    // Rule 3: the probe, run only when it moves the start past x = 1, and
    // the first x that can reach its product.
    let x_p = limit.min(d_out) / 2;
    let mut probe = if x_p >= 2 && !xy_core_within(g, &full, x_p, d_in / x_p + 1).is_empty() {
        y_max_step(g, &full, x_p)
    } else {
        None
    };
    evals += usize::from(probe.is_some());
    let start = probe
        .as_ref()
        .map_or(1, |p| (x_p * p.core.y).div_ceil(d_in));

    // Forward sweep: x = start..⌊√m⌋, nested bases.
    let mut base = full.clone();
    for x in start..=limit {
        let step = match probe.take_if(|_| x == x_p) {
            Some(step) => step,
            None => {
                let Some(step) = y_max_step(g, &base, x) else {
                    break;
                };
                evals += 1;
                step
            }
        };
        base = step.x1_core;
        let y = step.core.y;
        consider(x, y, step.core.mask, &mut best);
        // Rule 2: later points have x ≤ min(⌊√m⌋, max_out) and y ≤ y_max(x).
        if limit.min(step.max_out).saturating_mul(y) <= best_product(&best) {
            break;
        }
    }

    // Reverse sweep: y = 1..⌊√m⌋ on the transpose, while a point with
    // x > ⌊√m⌋ can remain (rule 1).
    if d_out > limit {
        let rev = g.reverse();
        let mut base = full;
        for y in 1..=limit {
            let Some(step) = y_max_step(&rev, &base, y) else {
                break;
            };
            evals += 1;
            base = step.x1_core;
            let x = step.core.y;
            let mask = StMask {
                in_s: step.core.mask.in_t,
                in_t: step.core.mask.in_s,
            };
            consider(x, y, mask, &mut best);
            if x <= limit || limit.min(step.max_out).saturating_mul(x) <= best_product(&best) {
                break;
            }
        }
    }

    best.map(|mut b| {
        b.sweep_evals = evals;
        b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::xy_core;
    use dds_graph::gen;

    /// Reference y_max: iterate full peels until empty.
    fn naive_y_max(g: &DiGraph, x: u64) -> Option<(u64, StMask)> {
        let mut last: Option<(u64, StMask)> = None;
        for y in 1..=(g.m() as u64 + 1) {
            let core = xy_core(g, x, y);
            if core.is_empty() {
                break;
            }
            last = Some((y, core));
        }
        last
    }

    #[test]
    fn y_max_on_complete_bipartite() {
        let g = gen::complete_bipartite(2, 3);
        let r = y_max_core(&g, &StMask::full(g.n()), 3).unwrap();
        assert_eq!(r.y, 2);
        assert_eq!(r.mask.s_count(), 2);
        assert_eq!(r.mask.t_count(), 3);
        assert!(y_max_core(&g, &StMask::full(g.n()), 4).is_none());
    }

    #[test]
    fn y_max_on_star() {
        let g = gen::out_star(4);
        let r = y_max_core(&g, &StMask::full(g.n()), 4).unwrap();
        assert_eq!(r.y, 1);
        assert_eq!(r.mask.s_count(), 1);
        assert_eq!(r.mask.t_count(), 4);
    }

    #[test]
    fn y_max_with_x_zero() {
        // x = 0: S side unconstrained; y_max = max in-degree achievable.
        let g = gen::complete_bipartite(2, 3);
        let r = y_max_core(&g, &StMask::full(g.n()), 0).unwrap();
        assert_eq!(r.y, 2);
        assert_eq!(r.mask.s_count(), g.n(), "x = 0 keeps every S vertex");
    }

    #[test]
    fn y_max_matches_naive_on_random_graphs() {
        for seed in 0..10 {
            let g = gen::gnm(12, 50, seed);
            for x in 0..5u64 {
                let fast = y_max_core(&g, &StMask::full(g.n()), x);
                let naive = naive_y_max(&g, x);
                match (fast, naive) {
                    (None, None) => {}
                    (Some(f), Some((ny, nmask))) => {
                        assert_eq!(f.y, ny, "seed={seed} x={x}");
                        assert_eq!(f.mask, nmask, "seed={seed} x={x}");
                    }
                    (f, n) => panic!(
                        "seed={seed} x={x}: fast={:?} naive={:?}",
                        f.map(|r| r.y),
                        n.map(|r| r.0)
                    ),
                }
            }
        }
    }

    #[test]
    fn y_max_matches_naive_on_power_law() {
        let g = gen::power_law(60, 400, 2.1, 7);
        for x in [1u64, 2, 3, 5] {
            let fast = y_max_core(&g, &StMask::full(g.n()), x).map(|r| (r.y, r.mask));
            let naive = naive_y_max(&g, x);
            assert_eq!(fast, naive, "x={x}");
        }
    }

    #[test]
    fn x_max_is_y_max_of_transpose() {
        let g = gen::power_law(40, 200, 2.3, 5);
        for y in [1u64, 2, 3] {
            let via_x = x_max(&g, &StMask::full(g.n()), y).map(|r| r.y);
            let rev = g.reverse();
            let via_rev = y_max_core(&rev, &StMask::full(g.n()), y).map(|r| r.y);
            assert_eq!(via_x, via_rev, "y={y}");
        }
    }

    #[test]
    fn skyline_shape() {
        let g = gen::complete_bipartite(2, 3);
        let sky = skyline(&g);
        assert_eq!(
            sky,
            vec![
                SkylinePoint { x: 1, y: 2 },
                SkylinePoint { x: 2, y: 2 },
                SkylinePoint { x: 3, y: 2 }
            ]
        );
    }

    #[test]
    fn skyline_is_non_increasing() {
        let g = gen::gnm(40, 300, 9);
        let sky = skyline(&g);
        assert!(!sky.is_empty());
        for w in sky.windows(2) {
            assert_eq!(w[1].x, w[0].x + 1, "consecutive x");
            assert!(w[1].y <= w[0].y, "y_max must not increase");
        }
        // Cross-check a few points against the naive reference.
        for p in sky.iter().step_by(2) {
            let naive = naive_y_max(&g, p.x).unwrap().0;
            assert_eq!(p.y, naive, "x={}", p.x);
        }
    }

    #[test]
    fn max_product_on_fixtures() {
        // K_{2,3}: best product 3·2 = 6; density √6 equals ρ_opt.
        let g = gen::complete_bipartite(2, 3);
        let best = max_product_core(&g).unwrap();
        assert_eq!(best.product(), 6);
        assert_eq!((best.x, best.y), (3, 2));

        // Star k=4: best product 4·1 = 4.
        let g = gen::out_star(4);
        let best = max_product_core(&g).unwrap();
        assert_eq!(best.product(), 4);

        // Cycle: every vertex has in/out degree 1 ⇒ best is [1,1], product 1.
        let g = gen::cycle(7);
        let best = max_product_core(&g).unwrap();
        assert_eq!(best.product(), 1);
    }

    #[test]
    fn max_product_matches_exhaustive_skyline() {
        for seed in 0..8 {
            let g = gen::gnm(20, 90, seed);
            let best = max_product_core(&g).unwrap();
            let sky_best = skyline(&g).iter().map(|p| p.x * p.y).max().unwrap();
            assert_eq!(best.product(), sky_best, "seed={seed}");
        }
    }

    #[test]
    fn max_product_core_density_guarantee() {
        use dds_num::cmp_prod;
        for seed in [1u64, 4, 9] {
            let g = gen::power_law(80, 600, 2.2, seed);
            let best = max_product_core(&g).unwrap();
            let d = best.mask.density(&g);
            // ρ(core) ≥ √(x·y) ⟺ edges² ≥ x·y·s·t.
            let e2 = u128::from(d.edges) * u128::from(d.edges);
            let xyst = u128::from(best.product()) * u128::from(d.s) * u128::from(d.t);
            assert!(
                cmp_prod(e2, 1, xyst, 1) != std::cmp::Ordering::Less,
                "seed={seed}: density {d} below sqrt({})",
                best.product()
            );
        }
    }

    #[test]
    fn edgeless_graph_has_no_core() {
        assert!(max_product_core(&DiGraph::empty(5)).is_none());
        assert!(skyline(&DiGraph::empty(5)).is_empty());
        assert!(y_max_core(&DiGraph::empty(5), &StMask::full(5), 1).is_none());
    }
}
