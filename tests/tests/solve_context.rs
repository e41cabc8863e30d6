//! Equivalence suite for the `SolveContext` pipeline: the context-backed
//! exact engine (serial and parallel, warm and cold) must be
//! indistinguishable — in answers — from the `Θ(n²)` flow baseline and
//! from fresh-state solves.

use dds_core::{parallel, DcExact, ExactOptions, FlowExact, SolveContext};
use dds_graph::{gen, GraphBuilder};
use proptest::prelude::*;

fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = dds_graph::DiGraph> {
    prop::collection::vec((0..max_n, 0..max_n), 0..max_m).prop_map(move |edges| {
        let mut b = GraphBuilder::with_min_vertices(max_n as usize);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DcExact on a SolveContext — serial and parallel — pins to the
    /// all-ratios flow baseline on random digraphs.
    #[test]
    fn context_engine_serial_and_parallel_match_flow_exact(g in graph_strategy(9, 32)) {
        let want = FlowExact.solve(&g).solution.density;

        let mut ctx = SolveContext::new();
        let serial = DcExact::new().solve_with(&mut ctx, &g);
        prop_assert_eq!(serial.solution.density, want);
        prop_assert_eq!(serial.solution.pair.density(&g), serial.solution.density);

        let par = parallel::dc_exact_parallel_with(&mut SolveContext::new(), &g, ExactOptions::default(), 3);
        prop_assert_eq!(par.solution.density, want);
        prop_assert_eq!(par.solution.pair.density(&g), par.solution.density);
    }

    /// A context reused across two *different* random graphs returns
    /// exactly what fresh contexts return on each — cache invalidation and
    /// incumbent revalidation can never leak one graph's answer into
    /// another's.
    #[test]
    fn reused_context_matches_fresh_contexts_across_graphs(
        g1 in graph_strategy(8, 28),
        g2 in graph_strategy(10, 24),
    ) {
        let mut shared = SolveContext::new();
        let first = DcExact::new().solve_with(&mut shared, &g1);
        let second = DcExact::new().solve_with(&mut shared, &g2);
        let back = DcExact::new().solve_with(&mut shared, &g1);

        let fresh1 = DcExact::new().solve(&g1);
        let fresh2 = DcExact::new().solve(&g2);
        prop_assert_eq!(first.solution.density, fresh1.solution.density);
        prop_assert_eq!(second.solution.density, fresh2.solution.density);
        prop_assert_eq!(back.solution.density, fresh1.solution.density);
        // Whatever pair the warm solves report is a genuine pair of the
        // graph they ran on, at the reported density.
        prop_assert_eq!(second.solution.pair.density(&g2), second.solution.density);
        prop_assert_eq!(back.solution.pair.density(&g1), back.solution.density);
    }

    /// Exact tie pruning is invisible in answers on random digraphs (its
    /// wins are on structured instances; its *correctness* must hold
    /// everywhere).
    #[test]
    fn tie_pruning_never_changes_the_answer(g in graph_strategy(9, 30)) {
        let with = DcExact::new().solve(&g);
        let without = DcExact::with_options(ExactOptions {
            tie_pruning: false,
            ..ExactOptions::default()
        })
        .solve(&g);
        prop_assert_eq!(with.solution.density, without.solution.density);
        prop_assert!(with.ratios_solved <= without.ratios_solved);
    }
}

/// The planted-block regression at integration scale: counting solved
/// ratios with and without the exact tie test (the ROADMAP bug).
#[test]
fn tie_pruning_counts_on_a_planted_block() {
    let p = gen::planted(80, 160, 5, 6, 1.0, 23);
    let with = DcExact::new().solve(&p.graph);
    let without = DcExact::with_options(ExactOptions {
        tie_pruning: false,
        ..ExactOptions::default()
    })
    .solve(&p.graph);
    assert_eq!(with.solution.density, without.solution.density);
    assert!(with.solution.density >= p.pair.density(&p.graph));
    assert!(with.ratios_pruned_tie > 0, "tie prunes must fire");
    assert!(
        with.ratios_solved * 2 <= without.ratios_solved,
        "tie pruning must at least halve the solved ratios ({} vs {})",
        with.ratios_solved,
        without.ratios_solved
    );
}

/// Warm contexts across a mutating graph sequence: every answer matches a
/// cold solve, and the reuse instrumentation actually reports reuse.
#[test]
fn warm_context_equivalence_under_churn() {
    let base = gen::planted(60, 120, 4, 5, 1.0, 31).graph;
    let mut ctx = SolveContext::new();
    let mut prev_seed = None;
    for epoch in 0..4usize {
        let mut k = 0usize;
        let g = base.filter_edges(|_, _| {
            k += 1;
            !(k + epoch).is_multiple_of(13) // churn ~8% of edges per epoch
        });
        let warm = DcExact::new().solve_with(&mut ctx, &g);
        let cold = DcExact::new().solve(&g);
        assert_eq!(
            warm.solution.density, cold.solution.density,
            "epoch {epoch}"
        );
        if epoch > 0 {
            assert!(
                warm.context_seed_density.is_some(),
                "epoch {epoch} must seed from the previous witness"
            );
            assert!(warm.arena_reuse_hits > 0, "arenas must be recycled");
        }
        prev_seed = warm.context_seed_density;
    }
    assert!(prev_seed.is_some());
    assert_eq!(ctx.solves(), 4);
}
