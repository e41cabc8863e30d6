//! Pinning the pool-backed exact engine to its serial counterpart.
//!
//! The parallelism contract of the worker pool: scheduling changes,
//! answers do not. The pool-backed divide-and-conquer engine must return
//! the same exact density (and a witness certifying it) as the serial
//! engine at every thread count — also when the solves themselves run
//! inside pool tasks, the shape sharded escalations produce.

use dds_core::{parallel, DcExact, ExactOptions, SolveContext};
use dds_graph::GraphBuilder;
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pool-backed divide-and-conquer equals the serial engine: same
    /// exact density at every thread count, and the parallel witness
    /// certifies the density it claims.
    #[test]
    fn pool_backed_engine_matches_serial(
        g in graph_strategy(10, 40),
        threads in 1usize..5,
    ) {
        let serial = DcExact::new().solve(&g);
        let mut ctx = SolveContext::new();
        let par = parallel::dc_exact_parallel_with(&mut ctx, &g, ExactOptions::default(), threads);
        prop_assert_eq!(par.solution.density, serial.solution.density);
        prop_assert_eq!(par.solution.pair.density(&g), serial.solution.density);
    }
}

/// Exact solves nested inside pool tasks: `for_each_mut` fans four graphs
/// over two lanes and each lane runs a three-worker interval queue on the
/// same global pool, so interval workers of different solves share (and
/// steal from) one set of pool threads while their owners are themselves
/// pool tasks. Every solve must finish and match the serial engine.
#[test]
fn exact_solves_nested_in_pool_tasks_match_serial() {
    let mut graphs: Vec<dds_graph::DiGraph> = [
        dds_graph::gen::gnm(30, 140, 1),
        dds_graph::gen::power_law(40, 220, 2.2, 2),
        dds_graph::gen::gnm(24, 110, 3),
        dds_graph::gen::planted(50, 120, 4, 5, 1.0, 4).graph,
    ]
    .into();
    let densities = parallel::for_each_mut(&mut graphs, 2, |_, g| {
        let mut ctx = SolveContext::new();
        parallel::dc_exact_parallel_with(&mut ctx, g, ExactOptions::default(), 3)
            .solution
            .density
    });
    for (g, density) in graphs.iter().zip(densities) {
        assert_eq!(density, DcExact::new().solve(g).solution.density);
    }
}
