//! Pinning the lane-parallel exact engine to its serial counterpart.
//!
//! The parallelism contract of the fork-join lanes: scheduling changes,
//! answers do not. The divide-and-conquer engine on parallel lanes must
//! return the same exact density (and a witness certifying it) as the
//! serial engine at every thread count — also when the solves themselves
//! run on lanes of an enclosing fork.

use dds_core::{parallel, DcExact, ExactOptions, SolveContext, WorkerPool};
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

    /// Lane-parallel divide-and-conquer equals the serial engine: same
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

/// Exact solves nested inside lanes: an outer fork runs four graphs on
/// four lanes and each lane runs a three-thread interval queue of its
/// own, so the interval workers of different solves run at once while
/// their owners are themselves lanes. Every solve must finish and match
/// the serial engine.
#[test]
fn exact_solves_nested_in_pool_tasks_match_serial() {
    let graphs = [
        dds_graph::gen::gnm(30, 140, 1),
        dds_graph::gen::power_law(40, 220, 2.2, 2),
        dds_graph::gen::gnm(24, 110, 3),
        dds_graph::gen::planted(50, 120, 4, 5, 1.0, 4).graph,
    ];
    let densities = WorkerPool::global().fork_join(&graphs, |g| {
        let mut ctx = SolveContext::new();
        parallel::dc_exact_parallel_with(&mut ctx, g, ExactOptions::default(), 3)
            .solution
            .density
    });
    for (g, density) in graphs.iter().zip(densities) {
        assert_eq!(density, DcExact::new().solve(g).solution.density);
    }
}
