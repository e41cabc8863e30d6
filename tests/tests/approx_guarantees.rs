//! Integration: every approximation algorithm honours its guarantee
//! against the exact optimum.

use dds_core::{core_approx, parallel, DcExact, ExhaustivePeel, GridPeel};
use dds_graph::gen;
use dds_tests::assert_within_factor;

#[test]
fn core_approx_is_a_2_approximation_everywhere() {
    for (name, g) in dds_tests::small_workloads() {
        let opt = DcExact::new().solve(&g).solution.density;
        let r = core_approx(&g);
        assert_within_factor(2, r.solution.density, opt);
        // The certified bracket really brackets ρ_opt.
        assert!(opt.to_f64() <= r.upper_bound + 1e-9, "{name}");
        assert!(
            r.solution.density.to_f64() >= r.lower_bound - 1e-9,
            "{name}"
        );
    }
}

#[test]
fn exhaustive_peel_is_a_2_approximation_everywhere() {
    for (name, g) in dds_tests::small_workloads() {
        let opt = DcExact::new().solve(&g).solution.density;
        let r = ExhaustivePeel.solve(&g);
        assert_within_factor(2, r.solution.density, opt);
        let _ = name;
    }
}

#[test]
fn grid_peel_guarantee_scales_with_epsilon() {
    for (name, g) in dds_tests::small_workloads() {
        let opt = DcExact::new().solve(&g).solution.density;
        for eps in [0.05, 0.1, 0.5] {
            let r = GridPeel::new(eps).solve(&g);
            // 2(1+ε) in f64 with slack.
            assert!(
                2.0 * (1.0 + eps) * r.solution.density.to_f64() + 1e-9 >= opt.to_f64(),
                "{name} eps={eps}: {} vs {opt}",
                r.solution.density
            );
        }
    }
}

#[test]
fn parallel_variants_match_sequential_quality() {
    let g = gen::power_law(200, 1200, 2.2, 31);
    let seq_grid = GridPeel::new(0.2).solve(&g);
    for threads in [1, 2, 8] {
        let par_grid = parallel::grid_peel_parallel(&g, 0.2, threads);
        assert_eq!(seq_grid.solution, par_grid.solution, "threads={threads}");
    }
}

#[test]
fn approximations_stack_up_as_theory_predicts_on_a_planted_graph() {
    // Planted block density √(5·6·0.9)… with p = 1.0: exactly √30.
    let p = gen::planted(80, 160, 5, 6, 1.0, 13);
    let g = &p.graph;
    let opt = DcExact::new().solve(g);
    assert!(opt.solution.density >= p.pair.density(g));
    let core = core_approx(g);
    let grid = GridPeel::new(0.1).solve(g);
    assert_within_factor(2, core.solution.density, opt.solution.density);
    // Grid peel at a planted near-square ratio is usually exact; at minimum
    // its guarantee holds.
    assert!(2.2 * grid.solution.density.to_f64() + 1e-9 >= opt.solution.density.to_f64());
}

#[test]
fn quality_ordering_exhaustive_dominates_grid_on_fixed_seeds() {
    for seed in [2u64, 5, 11] {
        let g = gen::gnm(30, 140, seed);
        let exhaustive = ExhaustivePeel.solve(&g).solution.density;
        let grid = GridPeel::new(1.0).solve(&g).solution.density;
        assert!(exhaustive >= grid, "seed={seed}");
    }
}
