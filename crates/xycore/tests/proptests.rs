//! Property tests for `[x, y]`-core peeling and decomposition.

use dds_graph::{gen, DiGraph, GraphBuilder, StMask, VertexId};
use dds_num::isqrt;
use dds_xycore::{
    max_product_core, skyline, x_max, xy_core, xy_core_within, y_max_core, CoreCache,
};
use proptest::prelude::*;

fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = DiGraph> {
    prop::collection::vec((0..max_n, 0..max_n), 0..max_m).prop_map(move |edges| {
        let mut b = GraphBuilder::with_min_vertices(max_n as usize);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    })
}

/// The defining fixpoint property of a core mask.
fn is_fixpoint(g: &DiGraph, mask: &StMask, x: u64, y: u64) -> bool {
    (0..g.n()).all(|v| {
        let s_ok = !mask.in_s[v] || {
            g.out_neighbors(v as VertexId)
                .iter()
                .filter(|&&w| mask.in_t[w as usize])
                .count() as u64
                >= x
        };
        let t_ok = !mask.in_t[v] || {
            g.in_neighbors(v as VertexId)
                .iter()
                .filter(|&&w| mask.in_s[w as usize])
                .count() as u64
                >= y
        };
        s_ok && t_ok
    })
}

/// The last non-empty core of the chain `levels(1), levels(2), …` inside
/// `base`, with its level: `y_max` or `x_max` found by iterated cascading
/// peels ([`xy_core_within`]), each inside the core before it, and no code
/// of the sweep.
fn peeled_max(
    g: &DiGraph,
    base: &StMask,
    levels: impl Fn(u64) -> (u64, u64),
) -> Option<(u64, StMask)> {
    let mut last = None;
    let mut core = base.clone();
    for k in 1..=g.n() as u64 + 1 {
        let (x, y) = levels(k);
        core = xy_core_within(g, &core, x, y);
        if core.is_empty() {
            break;
        }
        last = Some((k, core.clone()));
    }
    last
}

/// The unpruned sweep: a forward sweep over `x = 1..⌊√m⌋` and a reverse
/// sweep over `y = 1..⌊√m⌋`, each stopping only on the `⌊√m⌋`-times-
/// current bound, with every point found by [`peeled_max`]. The pruned
/// [`max_product_core`] must reproduce it point for point. Returns
/// `(x, y, mask, sweep_evals)`.
fn reference_max_product_core(g: &DiGraph) -> Option<(u64, u64, StMask, usize)> {
    if g.m() == 0 {
        return None;
    }
    let limit = isqrt(g.m() as u128) as u64;
    let mut best: Option<(u64, u64, StMask)> = None;
    let mut evals = 0usize;
    let product = |best: &Option<(u64, u64, StMask)>| best.as_ref().map_or(0, |b| b.0 * b.1);

    // Each sweep's bases nest: the [x, 1]-core (the [1, y]-core in
    // reverse) holds every later point.
    let mut base = StMask::full(g.n());
    for x in 1..=limit {
        base = xy_core_within(g, &base, x, 1);
        let Some((y, mask)) = peeled_max(g, &base, |y| (x, y)) else {
            break;
        };
        evals += 1;
        if x * y > product(&best) {
            best = Some((x, y, mask));
        }
        if limit * y <= product(&best) {
            break;
        }
    }

    let mut base = StMask::full(g.n());
    for y in 1..=limit {
        base = xy_core_within(g, &base, 1, y);
        let Some((x, mask)) = peeled_max(g, &base, |x| (x, y)) else {
            break;
        };
        evals += 1;
        if x * y > product(&best) {
            best = Some((x, y, mask));
        }
        if limit * x <= product(&best) {
            break;
        }
    }
    best.map(|(x, y, mask)| (x, y, mask, evals))
}

/// The pruned sweep returns the reference's `(x, y, mask)` and spends no
/// more evaluations.
fn assert_sweep_matches_reference(g: &DiGraph, what: &str) {
    let fast = max_product_core(g);
    let reference = reference_max_product_core(g);
    match (fast, reference) {
        (None, None) => {}
        (Some(f), Some((x, y, mask, evals))) => {
            assert_eq!((f.x, f.y), (x, y), "{what}: arg-max point");
            assert!(f.mask == mask, "{what}: arg-max core");
            assert!(
                f.sweep_evals <= evals,
                "{what}: {} evaluations, the reference spends {evals}",
                f.sweep_evals
            );
        }
        (f, r) => panic!(
            "{what}: pruned {:?}, reference {:?}",
            f.map(|b| (b.x, b.y)),
            r.map(|b| (b.0, b.1))
        ),
    }
}

/// Stars and complete bipartite graphs, where the reverse sweep or a tie
/// between the two sweeps decides the answer, and an in-star beside an
/// out-star, where the hub's `[1, k]`-core stops the forward sweep before
/// the probe point.
#[test]
fn pruned_sweep_matches_reference_on_stars_and_bicliques() {
    for k in 1..=40 {
        assert_sweep_matches_reference(&gen::out_star(k), &format!("out-star {k}"));
        let in_star = gen::out_star(k).reverse();
        assert_sweep_matches_reference(&in_star, &format!("in-star {k}"));
        let mut both = GraphBuilder::new();
        for leaf in 1..=k as VertexId {
            both.add_edge(leaf, 0);
            both.add_edge(k as VertexId + 1, k as VertexId + 1 + leaf);
        }
        assert_sweep_matches_reference(&both.build(), &format!("in-star + out-star {k}"));
    }
    for s in 1..=9 {
        for t in 1..=9 {
            let g = gen::complete_bipartite(s, t);
            assert_sweep_matches_reference(&g, &format!("K_{{{s},{t}}}"));
        }
    }
}

/// `cache` answers every `[x, y]`-core with `x, y ≤ hi` on `g` as a direct
/// peel does: zero thresholds peel the whole graph, the rest peel inside
/// the level filter. The direct peel, seeded from the CSR degrees, also
/// equals a masked peel from the full mask.
fn assert_cache_matches_peels(cache: &mut CoreCache, g: &DiGraph, hi: u64, what: &str) {
    let full = StMask::full(g.n());
    for x in 0..=hi {
        for y in 0..=hi {
            let direct = xy_core(g, x, y);
            assert!(
                direct == xy_core_within(g, &full, x, y),
                "{what}: the [{x}, {y}]-core from CSR degrees differs from the masked peel"
            );
            assert!(
                cache.core(g, x, y) == direct,
                "{what}: the cached [{x}, {y}]-core differs from a direct peel"
            );
        }
    }
}

/// Stars and bicliques, up to the first empty threshold; then an out-star
/// followed by its reverse in one cache, where levels kept across `clear`
/// would drop every leaf from the in-star's `[1, k]`-core.
#[test]
fn cached_cores_match_peels_on_stars_and_bicliques() {
    for k in 1..=20 {
        let out_star = gen::out_star(k);
        let what = format!("out-star {k}, then its reverse");
        let mut cache = CoreCache::new();
        assert_cache_matches_peels(&mut cache, &out_star, k as u64 + 1, &what);
        cache.clear();
        assert_cache_matches_peels(&mut cache, &out_star.reverse(), k as u64 + 1, &what);
    }
    for s in 1..=7 {
        for t in 1..=7 {
            let g = gen::complete_bipartite(s, t);
            let hi = s.max(t) as u64 + 1;
            assert_cache_matches_peels(&mut CoreCache::new(), &g, hi, &format!("K_{{{s},{t}}}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every threshold pair in `0..5`, zero thresholds included, on two
    /// graphs sharing one cache: `clear` drops the first graph's levels
    /// with its memo.
    #[test]
    fn cached_cores_match_peels_across_clear(
        g1 in graph_strategy(14, 70),
        g2 in graph_strategy(14, 70),
    ) {
        let mut cache = CoreCache::new();
        assert_cache_matches_peels(&mut cache, &g1, 4, "first graph");
        cache.clear();
        assert_cache_matches_peels(&mut cache, &g2, 4, "second graph");
    }

    /// Seeded random, power-law and planted graphs.
    #[test]
    fn cached_cores_match_peels_on_seeded_graphs(
        seed in 0u64..1_000_000,
        n in 8usize..120,
        density in 1usize..12,
        block in 2usize..8,
    ) {
        let m = n * density.min(n / 2);
        let side = block.min(n / 2);
        for (g, what) in [
            (gen::gnm(n, m, seed), "gnm"),
            (gen::power_law(n, m, 2.1, seed), "power_law"),
            (gen::planted(n, m, side, side, 0.9, seed).graph, "planted"),
        ] {
            let what = format!("{what}({n}, {m}, {seed})");
            assert_cache_matches_peels(&mut CoreCache::new(), &g, 8, &what);
        }
    }

    /// Seeded random, power-law and planted graphs.
    #[test]
    fn pruned_sweep_matches_reference(
        seed in 0u64..1_000_000,
        n in 8usize..120,
        density in 1usize..12,
        block in 2usize..8,
    ) {
        let m = n * density.min(n / 2);
        assert_sweep_matches_reference(&gen::gnm(n, m, seed), &format!("gnm({n}, {m}, {seed})"));
        assert_sweep_matches_reference(
            &gen::power_law(n, m, 2.1, seed),
            &format!("power_law({n}, {m}, {seed})"),
        );
        let side = block.min(n / 2);
        let planted = gen::planted(n, m, side, side, 0.9, seed).graph;
        assert_sweep_matches_reference(&planted, &format!("planted({n}, {m}, {block}, {seed})"));
    }

    /// Peeling yields a fixpoint that contains every other fixpoint
    /// (checked against a greedily grown witness, not full enumeration).
    #[test]
    fn core_is_a_fixpoint(g in graph_strategy(14, 70), x in 0u64..4, y in 0u64..4) {
        let core = xy_core(&g, x, y);
        prop_assert!(is_fixpoint(&g, &core, x, y));
    }

    /// Nesting in both parameters.
    #[test]
    fn cores_nest(g in graph_strategy(14, 70), x in 0u64..3, y in 0u64..3) {
        let base = xy_core(&g, x, y);
        for (dx, dy) in [(1, 0), (0, 1), (1, 1)] {
            let tighter = xy_core(&g, x + dx, y + dy);
            for v in 0..g.n() {
                prop_assert!(!tighter.in_s[v] || base.in_s[v]);
                prop_assert!(!tighter.in_t[v] || base.in_t[v]);
            }
        }
    }

    /// The core within a sub-mask is the intersection behaviourally: it is
    /// a fixpoint inside the base and contained in the unrestricted core.
    #[test]
    fn core_within_restricts(g in graph_strategy(12, 60), x in 0u64..3, y in 0u64..3) {
        let mut base = StMask::full(g.n());
        for v in (0..g.n()).step_by(3) {
            base.in_s[v] = false;
        }
        let inner = xy_core_within(&g, &base, x, y);
        let outer = xy_core(&g, x, y);
        prop_assert!(is_fixpoint(&g, &inner, x, y));
        for v in 0..g.n() {
            prop_assert!(!inner.in_s[v] || (outer.in_s[v] && base.in_s[v]));
            prop_assert!(!inner.in_t[v] || outer.in_t[v]);
        }
    }

    /// `y_max` and `x_max` agree with [`peeled_max`] inside a base that is
    /// full or drops every k-th vertex from S, T or both, as in
    /// `core_within_restricts`: the no-cascade `[x, 1]`-core must hold in
    /// any base, and with `x = 0` every base S vertex stays.
    #[test]
    fn y_max_matches_naive(g in graph_strategy(12, 60), k in 2usize..5, cut in 0u8..4) {
        let mut base = StMask::full(g.n());
        for v in (0..g.n()).step_by(k) {
            base.in_s[v] &= cut & 1 == 0;
            base.in_t[v] &= cut & 2 == 0;
        }
        for x in 0u64..4 {
            let fast = y_max_core(&g, &base, x).map(|r| (r.y, r.mask));
            prop_assert_eq!(fast, peeled_max(&g, &base, |y| (x, y)), "y_max({})", x);
            let fast = x_max(&g, &base, x).map(|r| (r.y, r.mask));
            prop_assert_eq!(fast, peeled_max(&g, &base, |level| (level, x)), "x_max({})", x);
        }
    }

    /// The double sweep finds the true maximum skyline product, and its
    /// core meets the sqrt(xy) density bound.
    #[test]
    fn max_product_agrees_with_skyline(g in graph_strategy(14, 80)) {
        let sky = skyline(&g);
        let best = max_product_core(&g);
        match (sky.is_empty(), best) {
            (true, None) => {}
            (false, Some(b)) => {
                let sky_max = sky.iter().map(|p| p.x * p.y).max().unwrap();
                prop_assert_eq!(b.product(), sky_max);
                let d = b.mask.density(&g);
                let e2 = u128::from(d.edges) * u128::from(d.edges);
                let bound = u128::from(b.product()) * u128::from(d.s) * u128::from(d.t);
                prop_assert!(e2 >= bound, "density below sqrt(xy)");
            }
            (empty, b) => {
                return Err(TestCaseError::fail(format!(
                    "skyline empty={empty} but max_product={:?}",
                    b.map(|x| x.product())
                )));
            }
        }
    }
}
