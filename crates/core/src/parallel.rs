//! Parallel variants of the solvers.
//!
//! The solvers parallelise only across independent units, each variant
//! forking its lanes once through
//! [`WorkerPool::fork_join`](crate::pool::WorkerPool::fork_join) (`threads`
//! capped at the host width):
//!
//! * [`dc_exact_parallel_with`] — the exact divide-and-conquer search with
//!   its ratio-interval work queue consumed by one worker per lane.
//!   Workers share the incumbent through the engine's atomic floor (plus a
//!   mutex for the exact pair), share γ certificates, share the context's
//!   memoised core table, and each own a private flow arena. The returned
//!   density is identical to the serial engine's (tested); the
//!   instrumentation traces differ only in order;
//! * [`grid_peel_parallel`] — grid points are independent peels; one
//!   contiguous chunk of the grid per lane, merged in grid order, so the
//!   returned pair is [`GridPeel::solve`]'s.
//!
//! The max-product core sweep behind [`core_approx`](crate::core_approx)
//! has no parallel variant: its serial sweep skips the points its pruning
//! rules prove cannot win, and beats a chunked sweep on two threads.
//! Callers choose a thread count purely on wall-clock grounds (experiments
//! E11, E13, E17).

use dds_graph::DiGraph;

use crate::approx::PeelResult;
use crate::exact::run_with_context;
use crate::peel::peel_at_f64_ratio;
use crate::pool::WorkerPool;
use crate::{DdsSolution, ExactOptions, ExactReport, GridPeel, SolveContext};

/// Parallel exact solve on a reusable [`SolveContext`] with explicit
/// options — the full-control entry point. The stream and window engines,
/// `dds exact` and the benchmarks call it at every thread count: with
/// `threads == 1` it is exactly [`DcExact::solve_with`](crate::DcExact::solve_with).
///
/// # Panics
/// Panics if `threads == 0`.
#[must_use]
pub fn dc_exact_parallel_with(
    ctx: &mut SolveContext,
    g: &DiGraph,
    options: ExactOptions,
    threads: usize,
) -> ExactReport {
    assert!(threads > 0, "need at least one worker");
    run_with_context(g, options, ctx, threads)
}

/// Parallel [`GridPeel`]: the same pair, grid points spread over up to
/// `threads` lanes.
///
/// # Panics
/// Panics if `threads == 0` or `epsilon` is not positive.
#[must_use]
pub fn grid_peel_parallel(g: &DiGraph, epsilon: f64, threads: usize) -> PeelResult {
    assert!(threads > 0, "need at least one worker");
    let grid = GridPeel::new(epsilon).grid(g.n());
    let pool = WorkerPool::global();
    let chunk_size = grid.len().div_ceil(pool.lanes(threads)).max(1);
    // Strict `improve_to` keeps the first maximum within each chunk and,
    // merging in chunk order, across chunks: the sequential scan's pick.
    let locals = pool.fork_join(grid.chunks(chunk_size), |chunk| {
        let mut best = DdsSolution::empty();
        for &c in chunk {
            best.improve_to(peel_at_f64_ratio(g, c));
        }
        best
    });
    let mut best = DdsSolution::empty();
    for local in locals {
        best.improve_to(local);
    }
    PeelResult {
        solution: best,
        ratios_tried: grid.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcExact, GridPeel};
    use dds_graph::gen;

    fn parallel_exact(g: &DiGraph, threads: usize) -> ExactReport {
        dc_exact_parallel_with(
            &mut SolveContext::new(),
            g,
            ExactOptions::default(),
            threads,
        )
    }

    #[test]
    fn parallel_exact_matches_serial_on_varied_graphs() {
        let graphs = [
            gen::gnm(24, 100, 3),
            gen::power_law(40, 220, 2.2, 7),
            gen::planted(40, 80, 4, 5, 1.0, 2).graph,
        ];
        for (i, g) in graphs.iter().enumerate() {
            let serial = DcExact::new().solve(g);
            for threads in [1, 2, 4] {
                let par = parallel_exact(g, threads);
                assert_eq!(
                    par.solution.density, serial.solution.density,
                    "graph #{i} threads={threads}"
                );
                assert_eq!(par.solution.pair.density(g), par.solution.density);
            }
        }
    }

    #[test]
    fn parallel_exact_on_a_warm_context_stays_correct() {
        let g1 = gen::gnm(20, 80, 5);
        let g2 = gen::power_law(30, 150, 2.3, 5);
        let mut ctx = SolveContext::new();
        for g in [&g1, &g2, &g1] {
            let par = dc_exact_parallel_with(&mut ctx, g, ExactOptions::default(), 3);
            let fresh = DcExact::new().solve(g);
            assert_eq!(par.solution.density, fresh.solution.density);
        }
        assert_eq!(ctx.solves(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn parallel_exact_rejects_zero_threads() {
        let _ = parallel_exact(&gen::path(3), 0);
    }

    #[test]
    fn parallel_grid_peel_matches_sequential() {
        let g = gen::power_law(150, 900, 2.2, 21);
        let seq = GridPeel::new(0.2).solve(&g);
        for threads in [1, 2, 4, 7, 8] {
            let par = grid_peel_parallel(&g, 0.2, threads);
            assert_eq!(par.solution, seq.solution, "threads={threads}");
            assert_eq!(par.ratios_tried, seq.ratios_tried);
        }
    }

    #[test]
    fn parallel_handles_fixtures_and_degenerates() {
        let g = gen::complete_bipartite(2, 3);
        let par = grid_peel_parallel(&g, 0.5, 4);
        assert_eq!(
            par.solution.density,
            GridPeel::new(0.5).solve(&g).solution.density
        );
        for n in [0, 4] {
            let empty = DiGraph::empty(n);
            assert!(grid_peel_parallel(&empty, 0.5, 3).solution.pair.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = grid_peel_parallel(&gen::path(3), 0.5, 0);
    }
}
