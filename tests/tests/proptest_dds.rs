//! Property tests pinning the full solver stack against ground truth.

use dds_core::parallel::dc_exact_parallel_with;
use dds_core::validate::brute_force_dds;
use dds_core::{
    core_approx, DcExact, ExactOptions, ExhaustivePeel, FlowExact, GridPeel, SolveContext,
};
use dds_graph::{DiGraph, GraphBuilder};
use dds_tests::assert_within_factor;
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

/// Graphs of 12–24 vertices: uniform noise alone, or noise over an
/// out-star, an in-star or a complete-bipartite block. The skewed shapes
/// put the optimum at an extreme ratio, where the structural band decides
/// and Stern–Brocot spines toward the band edges occur.
fn skewed_strategy() -> impl Strategy<Value = DiGraph> {
    (
        12u32..25,
        0u32..4,
        (1u32..11, 1u32..11),
        prop::collection::vec((0u32..24, 0u32..24), 0..40),
    )
        .prop_map(|(n, shape, (p, q), noise)| {
            let mut b = GraphBuilder::with_min_vertices(n as usize);
            let leaves = (p + q).min(n - 1);
            match shape {
                1 => (1..=leaves).for_each(|v| {
                    b.add_edge(0, v);
                }),
                2 => (1..=leaves).for_each(|u| {
                    b.add_edge(u, 0);
                }),
                3 => {
                    let p = p.min(n / 2);
                    for u in 0..p {
                        for v in p..(p + q).min(n) {
                            b.add_edge(u, v);
                        }
                    }
                }
                _ => {}
            }
            for (u, v) in noise {
                b.add_edge(u % n, v % n);
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: DcExact equals exhaustive enumeration.
    #[test]
    fn dc_exact_equals_brute_force(g in graph_strategy(8, 30)) {
        let want = brute_force_dds(&g).density;
        let got = DcExact::new().solve(&g);
        prop_assert_eq!(got.solution.density, want);
        prop_assert_eq!(got.solution.pair.density(&g), want);
    }

    /// Past brute force's reach: DcExact at 1 and 2 threads equals the
    /// all-ratios baseline on 12–24-vertex graphs, skewed ones included.
    /// The cold variant starts from no incumbent, so the pruning, not the
    /// warm start, must find the optimum.
    #[test]
    fn dc_exact_equals_flow_exact_on_skewed_graphs(g in skewed_strategy()) {
        let want = FlowExact.solve(&g).solution.density;
        let warm = ExactOptions::default();
        let cold = ExactOptions { warm_start: false, ..warm };
        for (opts, threads) in [(warm, 1), (warm, 2), (cold, 1), (cold, 2)] {
            let mut ctx = SolveContext::new();
            let got = dc_exact_parallel_with(&mut ctx, &g, opts, threads).solution;
            prop_assert_eq!(got.density, want, "threads = {}, {:?}", threads, opts);
            prop_assert_eq!(got.pair.density(&g), want);
        }
    }

    /// Approximation guarantees hold on arbitrary graphs.
    #[test]
    fn approximations_hold_their_guarantees(g in graph_strategy(8, 26)) {
        let opt = brute_force_dds(&g).density;
        assert_within_factor(2, core_approx(&g).solution.density, opt);
        assert_within_factor(2, ExhaustivePeel.solve(&g).solution.density, opt);
        let grid = GridPeel::new(0.1).solve(&g).solution.density;
        prop_assert!(2.2 * grid.to_f64() + 1e-9 >= opt.to_f64());
    }

    /// Adding an edge never decreases the optimum; removing never raises it.
    #[test]
    fn optimum_is_monotone_in_edges(
        g in graph_strategy(7, 20),
        extra in (0u32..7, 0u32..7),
    ) {
        let base = DcExact::new().solve(&g).solution.density;
        let mut b = GraphBuilder::with_min_vertices(7);
        for (u, v) in g.edges() {
            b.add_edge(u, v);
        }
        b.add_edge(extra.0, extra.1);
        let bigger = b.build();
        let denser = DcExact::new().solve(&bigger).solution.density;
        prop_assert!(denser >= base);
    }

    /// Transposing the graph transposes the answer (ρ is invariant, S/T swap).
    #[test]
    fn optimum_is_invariant_under_transpose(g in graph_strategy(8, 26)) {
        let fwd = DcExact::new().solve(&g).solution.density;
        let rev = DcExact::new().solve(&g.reverse()).solution.density;
        prop_assert_eq!(fwd, rev);
    }
}
