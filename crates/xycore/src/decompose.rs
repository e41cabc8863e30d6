//! `[x, y]`-core decomposition: `y_max` sweeps, the skyline, and the
//! maximum-product core behind `CoreApprox`.

use dds_graph::{DiGraph, StMask, VertexId};
use dds_num::isqrt;

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
/// `O(n + m)`: one pass over the base finds the `[x, 1]`-core with no
/// cascade (see [`MaxProductCore`]), and a bucket peel inside that core
/// drains T vertices in increasing in-degree while S vertices falling
/// below `x` cascade (the directed analog of Batagelj–Zaversnik k-core
/// decomposition). Each removal is stamped with the level it fell at, so
/// the core at the final level is read off the stamps.
#[must_use]
pub fn y_max_core(g: &DiGraph, base: &StMask, x: u64) -> Option<YMaxCore> {
    Sweep::new(g, false).within(base, x)
}

/// Computes `x_max(y)`: the largest `x ≥ 1` with a non-empty `[x, y]`-core
/// inside `base`, plus that core (its `y` field holds `x_max`). The mirror
/// image of [`y_max_core`]: it reads in-rows where that reads out-rows, so
/// the graph is never transposed.
#[must_use]
pub fn x_max(g: &DiGraph, base: &StMask, y: u64) -> Option<YMaxCore> {
    Sweep::new(g, true).within(base, y)
}

/// The full core skyline: for every `x` with a non-empty `[x, 1]`-core, the
/// point `(x, y_max(x))`. `y` values are non-increasing in `x`.
///
/// One point per `x ≤ d⁺max`, each peeling only its `[x, 1]`-core (see
/// [`MaxProductCore`]); used by the analysis experiments (E10), not by the
/// solvers.
#[must_use]
pub fn skyline(g: &DiGraph) -> Vec<SkylinePoint> {
    let mut sweep = Sweep::new(g, false);
    let order = sweep.degree_order();
    let mut points = Vec::new();
    let mut x = 1;
    while let Some(point) = sweep.full(&order, x) {
        points.push(SkylinePoint { x, y: point.y });
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
/// **No point cascades to its `[x, 1]`-core.** Inside any base
/// `(S_b, T_b)`, the `[x, 1]`-core's S side is every `u ∈ S_b` with at
/// least `x` out-neighbours in `T_b`, and its T side is those vertices'
/// out-neighbours in `T_b`. Each of those T vertices has an in-neighbour in
/// S, so it stays; and no S vertex loses an out-neighbour, so none falls.
/// On the whole graph S is then a prefix of one out-degree order, sorted
/// once in `O(n + d⁺max)`, and the `y`-level peel runs inside that core
/// only, in `O(Σ_{u∈S_x} d⁺(u) + Σ_{v∈T_x} d⁻(v))` per point. Those
/// cores are a small part of the graph once `x` passes the typical
/// out-degree: on the 15,000-vertex, 105k-edge benchmark graph the largest
/// of the 18 points, the sweep's first at `x = 14`, holds 206 S and 2,575
/// T vertices.
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
/// 2. **Forward stop.** Later forward points have `x ≤ min(L, d⁺max)`, as
///    no S vertex has more out-neighbours, and `y ≤ y_max(x)`, so the
///    sweep stops once that product bound cannot beat the best. The
///    reverse sweep stops on the same bound with the sides swapped.
/// 3. **Floor.** One probe at `x_p = ⌊min(L, d⁺max)/2⌋` gives
///    `F = x_p·y_max(x_p) ≤ P`. Every `x < ⌈F/d⁻max⌉` has
///    `x·y_max(x) ≤ x·d⁻max < F`, so the forward sweep starts there. The
///    probe is that sweep's own point at `x_p`, reused when the sweep gets
///    there. Below `x_p` every bound of rule 2 is at least `F`, so `F`
///    needs no stop rule of its own. The probe is kept only when
///    `F > d⁻max`, which is when it moves the start past `x = 1`.
///
/// All comparisons are strict, as in two plain sweeps, so ties still go to
/// the earlier point. Nor do the rules ever cost a counted evaluation: a
/// kept probe skips the sweep's evaluation at `x = 1`, a dropped one is not
/// counted, and the rest only drop evaluations.
#[derive(Clone, Debug)]
pub struct MaxProductCore {
    /// Out-degree threshold of the arg-max core.
    pub x: u64,
    /// In-degree threshold of the arg-max core.
    pub y: u64,
    /// The core itself.
    pub mask: StMask,
    /// Number of `y_max`/`x_max` evaluations performed, a kept probe
    /// included (instrumentation).
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
    let mut best: Option<(u64, u64, Point)> = None;
    let mut evals = 0usize;

    let consider = |x: u64, y: u64, point: Point, best: &mut Option<(u64, u64, Point)>| {
        if best.as_ref().is_none_or(|b| x * y > b.0 * b.1) {
            *best = Some((x, y, point));
        }
    };
    let best_product = |best: &Option<(u64, u64, Point)>| best.as_ref().map_or(0, |b| b.0 * b.1);

    let mut sweep = Sweep::new(g, false);
    let order = sweep.degree_order();

    // Rule 3: the probe, kept only when it moves the start past x = 1
    // (`[x_p, y]` is non-empty iff `y_max(x_p) ≥ y`), and the first x that
    // can reach its product.
    let x_p = limit.min(d_out) / 2;
    let probe = if x_p >= 2 {
        sweep.full(&order, x_p)
    } else {
        None
    };
    let mut probe = probe.filter(|p| x_p * p.y > d_in);
    evals += usize::from(probe.is_some());
    let start = probe.as_ref().map_or(1, |p| (x_p * p.y).div_ceil(d_in));

    // Forward sweep: x = start..⌊√m⌋.
    for x in start..=limit {
        let point = match probe.take_if(|_| x == x_p) {
            Some(point) => point,
            None => {
                let Some(point) = sweep.full(&order, x) else {
                    break;
                };
                evals += 1;
                point
            }
        };
        let y = point.y;
        consider(x, y, point, &mut best);
        // Rule 2: later points have x ≤ min(⌊√m⌋, d⁺max) and y ≤ y_max(x).
        if limit.min(d_out).saturating_mul(y) <= best_product(&best) {
            break;
        }
    }

    // Reverse sweep: y = 1..⌊√m⌋ on in-rows, while a point with x > ⌊√m⌋
    // can remain (rule 1). The scratch is zero between points, so the
    // same sweep turns round.
    if d_out > limit {
        sweep.reverse = true;
        let order = sweep.degree_order();
        for y in 1..=limit {
            let Some(point) = sweep.full(&order, y) else {
                break;
            };
            evals += 1;
            let x = point.y;
            consider(x, y, point, &mut best);
            if x <= limit || limit.min(d_in).saturating_mul(x) <= best_product(&best) {
                break;
            }
        }
    }

    best.map(|(x, y, point)| MaxProductCore {
        x,
        y,
        mask: point.mask(g.n()),
        sweep_evals: evals,
    })
}

/// One sweep point: `y_max(x)` (`x_max(y)` in reverse) and the sides of
/// its core, in the graph's orientation.
struct Point {
    y: u64,
    s: Vec<VertexId>,
    t: Vec<VertexId>,
}

impl Point {
    /// The core as a mask over `n` vertices.
    fn mask(&self, n: usize) -> StMask {
        let mut mask = StMask::empty(n);
        for &u in &self.s {
            mask.in_s[u as usize] = true;
        }
        for &v in &self.t {
            mask.in_t[v as usize] = true;
        }
        mask
    }
}

/// The scratch a run of sweep points shares, and the direction they read
/// the graph in: forward, a point's `S → T` edges are out-rows; in reverse
/// they are in-rows, so its points are those of the transpose and `x`
/// bounds in-degrees.
///
/// Each array holds one `u32` per vertex. It is allocated once, is zero
/// between points, and a point touches it only at the vertices of its
/// `[x, 1]`-core.
struct Sweep<'g> {
    g: &'g DiGraph,
    reverse: bool,
    /// An S vertex's out-neighbours in T; below `x` once it fell.
    deg_s: Vec<u32>,
    /// A T vertex's in-neighbours among the S vertices still standing.
    deg_t: Vec<u32>,
    /// The level `y` whose peel removed the vertex from S; 0 while it stays.
    fell_s: Vec<u32>,
    /// The level `y` whose peel removed the vertex from T; 0 while it stays.
    fell_t: Vec<u32>,
    /// The T side of the point's `[x, 1]`-core.
    t_side: Vec<VertexId>,
    /// `buckets[d]`: T vertices whose in-degree reached `d` (entries of
    /// removed vertices are skipped).
    buckets: Vec<Vec<VertexId>>,
}

impl<'g> Sweep<'g> {
    fn new(g: &'g DiGraph, reverse: bool) -> Self {
        let zeros = vec![0u32; g.n()];
        Sweep {
            g,
            reverse,
            deg_s: zeros.clone(),
            deg_t: zeros.clone(),
            fell_s: zeros.clone(),
            fell_t: zeros,
            t_side: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// The `S → T` edges out of `u`, by their heads.
    fn heads(&self, u: VertexId) -> &'g [VertexId] {
        if self.reverse {
            self.g.in_neighbors(u)
        } else {
            self.g.out_neighbors(u)
        }
    }

    /// The `S → T` edges into `v`, by their tails.
    fn tails(&self, v: VertexId) -> &'g [VertexId] {
        if self.reverse {
            self.g.out_neighbors(v)
        } else {
            self.g.in_neighbors(v)
        }
    }

    /// Every vertex by non-increasing number of heads, counting-sorted in
    /// `O(n + d_max)`.
    fn degree_order(&self) -> Vec<VertexId> {
        let ids = 0..self.g.n() as VertexId;
        let degree = |u: VertexId| self.heads(u).len();
        let top = ids.clone().map(degree).max().unwrap_or(0);
        // at[k]: where the vertices with `top − k` heads start.
        let mut at = vec![0usize; top + 2];
        for u in ids.clone() {
            at[top - degree(u) + 1] += 1;
        }
        for k in 1..at.len() {
            at[k] += at[k - 1];
        }
        let mut order = vec![0; self.g.n()];
        for u in ids {
            let k = top - degree(u);
            order[at[k]] = u;
            at[k] += 1;
        }
        order
    }

    /// The point at `x` of the whole graph, `order` being
    /// [`degree_order`](Sweep::degree_order): its `[x, 1]`-core's S side is
    /// the prefix of vertices with at least `x` heads.
    fn full(&mut self, order: &[VertexId], x: u64) -> Option<Point> {
        let len = order.partition_point(|&u| self.heads(u).len() as u64 >= x);
        self.point(x, &order[..len], |_| true)
    }

    /// The point at `x` inside `base`, as a [`YMaxCore`].
    fn within(&mut self, base: &StMask, x: u64) -> Option<YMaxCore> {
        let (in_s, in_t) = if self.reverse {
            (&base.in_t, &base.in_s)
        } else {
            (&base.in_s, &base.in_t)
        };
        let heads_in_t = |u: VertexId| self.heads(u).iter().filter(|&&v| in_t[v as usize]).count();
        let s: Vec<VertexId> = (0..self.g.n() as VertexId)
            .filter(|&u| in_s[u as usize] && heads_in_t(u) as u64 >= x)
            .collect();
        let point = self.point(x, &s, |v| in_t[v as usize])?;
        let mask = point.mask(self.g.n());
        Some(YMaxCore { y: point.y, mask })
    }

    /// `y_max(x)` and its core inside a base `(S_b, T_b)`, given `s`: the
    /// `[x, 1]`-core's S side, every `u ∈ S_b` with at least `x` heads in
    /// `T_b` (`in_t`). The core's T side is their heads in `T_b`.
    ///
    /// Levels `y = 2, 3, …` then peel toward the `[x, y]`-core until T is
    /// empty. A level drains the T vertices of in-degree `y − 1`; an S
    /// vertex falls the moment it has fewer than `x` heads left, and its
    /// heads lose an in-degree at once, joining this level's drain if they
    /// drop to `y − 1`. The last non-empty core, `[x, y − 1]`, is what the
    /// final level removed: the vertices stamped with it, plus all of S
    /// when `x = 0`, as S is then never peeled.
    fn point(&mut self, x: u64, s: &[VertexId], in_t: impl Fn(VertexId) -> bool) -> Option<Point> {
        for &u in s {
            for &v in self.heads(u) {
                if in_t(v) {
                    if self.deg_t[v as usize] == 0 {
                        self.t_side.push(v);
                    }
                    self.deg_t[v as usize] += 1;
                    self.deg_s[u as usize] += 1;
                }
            }
        }
        let top = self.t_side.iter().map(|&v| self.deg_t[v as usize]);
        let top = top.max().unwrap_or(0) as usize;
        if self.buckets.len() <= top {
            self.buckets.resize_with(top + 1, Vec::new);
        }
        for &v in &self.t_side {
            self.buckets[self.deg_t[v as usize] as usize].push(v);
        }

        let mut standing = self.t_side.len();
        let mut y = 1u32;
        while standing > 0 {
            y += 1;
            while let Some(v) = self.buckets[y as usize - 1].pop() {
                if self.fell_t[v as usize] != 0 {
                    continue;
                }
                self.fell_t[v as usize] = y;
                standing -= 1;
                if x == 0 {
                    continue;
                }
                for &u in self.tails(v) {
                    // S vertices still standing have at least x heads;
                    // fallen ones and vertices outside S have fewer.
                    if u64::from(self.deg_s[u as usize]) < x {
                        continue;
                    }
                    self.deg_s[u as usize] -= 1;
                    if u64::from(self.deg_s[u as usize]) >= x {
                        continue;
                    }
                    self.fell_s[u as usize] = y;
                    for &w in self.heads(u) {
                        if in_t(w) && self.fell_t[w as usize] == 0 {
                            self.deg_t[w as usize] -= 1;
                            // Below y − 1 it is already in this level's drain.
                            let d = self.deg_t[w as usize];
                            if d + 1 >= y {
                                self.buckets[d as usize].push(w);
                            }
                        }
                    }
                }
            }
        }

        let core_s = s.iter().copied();
        let core_s = core_s.filter(|&u| x == 0 || self.fell_s[u as usize] == y);
        let core_t = self.t_side.iter().copied();
        let core_t = core_t.filter(|&v| self.fell_t[v as usize] == y);
        let point = (y > 1).then(|| {
            let (s, t) = (core_s.collect(), core_t.collect());
            let (s, t) = if self.reverse { (t, s) } else { (s, t) };
            Point {
                y: u64::from(y - 1),
                s,
                t,
            }
        });
        for &u in s {
            self.deg_s[u as usize] = 0;
            self.fell_s[u as usize] = 0;
        }
        for v in self.t_side.drain(..) {
            self.deg_t[v as usize] = 0;
            self.fell_t[v as usize] = 0;
        }
        self.buckets.iter_mut().for_each(Vec::clear);
        point
    }
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
        let flipped: Vec<_> = g.edges().map(|(u, v)| (v, u)).collect();
        let rev = DiGraph::from_edges(g.n(), &flipped).unwrap();
        for y in [1u64, 2, 3] {
            let via_x = x_max(&g, &StMask::full(g.n()), y).map(|r| r.y);
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

    /// Pinned answers, evaluation counts included, so a faster sweep
    /// cannot come from skipping points: the 105k-edge benchmark graph
    /// (probe kept, forward sweep only), a smaller planted graph, and a
    /// power-law graph whose answer comes from the reverse sweep.
    #[test]
    fn sweep_points_are_pinned_on_fixtures() {
        let cases = [
            (
                gen::planted(15_000, 105_000, 30, 34, 0.9, 2).graph,
                (26, 24, 18, 30, 33),
            ),
            (
                gen::planted(2_000, 14_000, 12, 14, 0.9, 5).graph,
                (11, 10, 11, 12, 14),
            ),
            (gen::power_law(3_000, 20_000, 2.1, 4), (1, 859, 51, 859, 1)),
        ];
        for (g, pinned) in cases {
            let best = max_product_core(&g).unwrap();
            let got = (best.x, best.y, best.sweep_evals);
            let sides = (best.mask.s_count(), best.mask.t_count());
            assert_eq!((got.0, got.1, got.2, sides.0, sides.1), pinned);
        }
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
