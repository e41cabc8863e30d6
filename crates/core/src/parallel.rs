//! Parallel variants of the solvers.
//!
//! The paper notes that both the peeling sweeps and the core computations
//! parallelise naturally; this module provides implementations (no extra
//! dependencies) of:
//!
//! * [`dc_exact_parallel`] — the exact divide-and-conquer search with its
//!   ratio-interval work queue consumed by `threads` workers. Workers share
//!   the incumbent through the engine's atomic floor (plus a mutex for the
//!   exact pair), share γ certificates, share the context's memoised core
//!   table, and each own a private flow arena. The returned density is
//!   identical to the serial engine's (tested); the instrumentation traces
//!   differ only in order;
//! * [`grid_peel_parallel`] — grid points are independent peels; static
//!   chunking over `threads` workers;
//! * [`core_approx_parallel`] — the two `√m` sweeps of the max-product
//!   core search, each chunked over `x`-ranges (every chunk re-derives its
//!   own nested base from the full graph, trading a little redundant
//!   peeling for independence);
//! * [`for_each_mut`] — the bare work queue itself, generic over mutable
//!   items: the two helpers above are thin wrappers over it.
//!
//! Every helper here executes on the process-wide persistent
//! [`WorkerPool`](crate::pool::WorkerPool) — no per-call thread spawns —
//! and all return results identical to their sequential counterparts
//! (tested), so callers choose purely on wall-clock grounds (experiments
//! E11, E13, E17).

use std::sync::Mutex;

use dds_graph::{DiGraph, StMask};
use dds_num::isqrt;
use dds_xycore::{xy_core_within, y_max_core};

use crate::approx::{CoreApproxResult, PeelResult};
use crate::exact::run_with_context;
use crate::peel::peel_at_f64_ratio;
use crate::{DdsSolution, ExactOptions, ExactReport, GridPeel, SolveContext};

/// Runs `f` once over every item of `items` — each call getting exclusive
/// `&mut` access — with the calls spread across up to `threads` lanes of
/// the persistent [`WorkerPool`](crate::pool::WorkerPool) consuming an
/// atomic work queue (the same discipline as the ratio-interval queue:
/// workers claim the next unclaimed index, so an uneven workload never
/// idles a worker while items remain). Results come back in item order.
/// With `threads == 1` (or a single item) everything runs inline on the
/// caller's thread — no tasks, no locks on the hot path — so the serial
/// run of [`grid_peel_parallel`] and [`core_approx_parallel`] is the same
/// code path, not a separate one.
///
/// # Panics
/// Panics if `threads == 0`, or if `f` panics on any worker.
pub fn for_each_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker");
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    // Each item sits behind its own mutex purely to hand `&mut` across the
    // pool safely; the atomic queue guarantees every index is claimed by
    // exactly one lane, so the locks are uncontended by construction.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let results: Vec<Mutex<Option<R>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    crate::pool::WorkerPool::global().run_indexed(workers, slots.len(), &|i| {
        let mut item = slots[i].lock().expect("slot poisoned");
        let out = f(i, &mut item);
        *results[i].lock().expect("result poisoned") = Some(out);
    });
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("result poisoned")
                .expect("work queue left an item unvisited")
        })
        .collect()
}

/// Parallel [`DcExact`](crate::DcExact) with throwaway state: the ratio
/// work queue is consumed by `threads` workers.
///
/// # Panics
/// Panics if `threads == 0`.
#[must_use]
pub fn dc_exact_parallel(g: &DiGraph, threads: usize) -> ExactReport {
    dc_exact_parallel_with(
        &mut SolveContext::new(),
        g,
        ExactOptions::default(),
        threads,
    )
}

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

/// The sketch tier's escalation entry point: an exact solve of a retained
/// subgraph `H ⊆ G` on a warm context.
///
/// The result is the exact optimum **of the sketch**. Because every edge
/// of `H` is an edge of `G`, the winning pair's `H`-density is a certified
/// lower bound on `ρ_opt(G)` for any supergraph `G` — which is the whole
/// contract of exact-on-sketch escalation: `H` is small by construction
/// (the sketch's state bound), so paying the full exact machinery here is
/// cheap, and the warm context amortises arenas and the core memo across
/// consecutive refreshes of a slowly-drifting sketch.
///
/// # Panics
/// Panics if `threads == 0`.
#[must_use]
pub fn exact_on_sketch(ctx: &mut SolveContext, g: &DiGraph, threads: usize) -> ExactReport {
    dc_exact_parallel_with(ctx, g, ExactOptions::default(), threads)
}

/// Parallel [`GridPeel`]: identical output, grid points spread over
/// `threads` workers.
///
/// # Panics
/// Panics if `threads == 0` or `epsilon` is not positive.
#[must_use]
pub fn grid_peel_parallel(g: &DiGraph, epsilon: f64, threads: usize) -> PeelResult {
    assert!(threads > 0, "need at least one worker");
    let grid = GridPeel::new(epsilon).grid(g.n());
    let ratios_tried = grid.len();
    if grid.is_empty() {
        return PeelResult {
            solution: DdsSolution::empty(),
            ratios_tried,
        };
    }
    let workers = threads.min(grid.len());
    let chunk_size = grid.len().div_ceil(workers);
    let mut chunks: Vec<&[f64]> = grid.chunks(chunk_size).collect();
    let locals = for_each_mut(&mut chunks, workers, |_, chunk| {
        let mut best = DdsSolution::empty();
        for &c in chunk.iter() {
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
        ratios_tried,
    }
}

/// One orientation-chunk of the parallel max-product sweep: thresholds
/// `x ∈ [lo, hi]` on graph `g` (already transposed for the reverse
/// orientation). Returns the best `(x, y, mask)` in the chunk.
fn sweep_chunk(g: &DiGraph, lo: u64, hi: u64) -> Option<(u64, u64, StMask)> {
    let mut base = StMask::full(g.n());
    let mut best: Option<(u64, u64, StMask)> = None;
    let mut first = true;
    for x in lo..=hi {
        // Nested bases inside the chunk; the first peel jumps straight to
        // threshold `lo`.
        base = xy_core_within(g, &base, if first { lo } else { x }, 1);
        first = false;
        if base.is_empty() {
            break;
        }
        let Some(r) = y_max_core(g, &base, x) else {
            break;
        };
        let product = x * r.y;
        if best.as_ref().is_none_or(|(bx, by, _)| product > bx * by) {
            best = Some((x, r.y, r.mask));
        }
        // Within-chunk early stop mirrors the sequential sweep.
        if hi.saturating_mul(r.y) <= best.as_ref().map_or(0, |(bx, by, _)| bx * by) {
            break;
        }
    }
    best
}

/// Parallel `core_approx`: same certified 2-approximation, the two `√m`
/// sweeps chunked across `threads` workers.
///
/// # Panics
/// Panics if `threads == 0`.
#[must_use]
pub fn core_approx_parallel(g: &DiGraph, threads: usize) -> CoreApproxResult {
    assert!(threads > 0, "need at least one worker");
    if g.m() == 0 {
        return crate::core_approx(g);
    }
    let limit = (isqrt(g.m() as u128) as u64).max(1);
    let rev = g.reverse();

    // Split 1..=limit into contiguous chunks per orientation.
    let per_orientation = threads.div_ceil(2).max(1);
    let chunk = limit.div_ceil(per_orientation as u64).max(1);
    let mut tasks: Vec<(bool, u64, u64)> = Vec::new();
    for k in 0..per_orientation as u64 {
        let lo = 1 + k * chunk;
        if lo > limit {
            break;
        }
        let hi = (lo + chunk - 1).min(limit);
        tasks.push((false, lo, hi));
        tasks.push((true, lo, hi));
    }

    let results = for_each_mut(&mut tasks, threads, |_, &mut (reversed, lo, hi)| {
        let graph = if reversed { &rev } else { g };
        sweep_chunk(graph, lo, hi).map(|(x, y, mask)| (reversed, x, y, mask))
    });

    let mut best: Option<(u64, u64, StMask)> = None;
    for r in results.into_iter().flatten() {
        let (reversed, x, y, mask) = r;
        // Reverse-orientation results swap sides and thresholds back.
        let (x, y, mask) = if reversed {
            (
                y,
                x,
                StMask {
                    in_s: mask.in_t,
                    in_t: mask.in_s,
                },
            )
        } else {
            (x, y, mask)
        };
        if best.as_ref().is_none_or(|(bx, by, _)| x * y > bx * by) {
            best = Some((x, y, mask));
        }
    }

    match best {
        None => crate::core_approx(g), // degenerate; sequential handles it
        Some((x, y, mask)) => {
            let solution = DdsSolution::from_pair(g, mask.to_pair());
            let root = ((x * y) as f64).sqrt();
            CoreApproxResult {
                solution,
                x,
                y,
                lower_bound: root,
                upper_bound: 2.0 * root,
                sweep_evals: 0, // not meaningful across workers
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{core_approx, DcExact, GridPeel};
    use dds_graph::gen;

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
                let par = dc_exact_parallel(g, threads);
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
        let _ = dc_exact_parallel(&gen::path(3), 0);
    }

    #[test]
    fn parallel_grid_peel_matches_sequential() {
        let g = gen::power_law(150, 900, 2.2, 21);
        let seq = GridPeel::new(0.2).solve(&g);
        for threads in [1, 2, 4, 7] {
            let par = grid_peel_parallel(&g, 0.2, threads);
            assert_eq!(
                par.solution.density, seq.solution.density,
                "threads={threads}"
            );
            assert_eq!(par.ratios_tried, seq.ratios_tried);
        }
    }

    #[test]
    fn parallel_core_approx_matches_sequential_product() {
        for seed in [3u64, 14, 159] {
            let g = gen::gnm(120, 900, seed);
            let seq = core_approx(&g);
            for threads in [1, 2, 4] {
                let par = core_approx_parallel(&g, threads);
                // The maximum product is unique; the arg-max core need not
                // be, so compare the certified quantities rather than the
                // particular pair.
                assert_eq!(
                    par.x * par.y,
                    seq.x * seq.y,
                    "seed={seed} threads={threads}"
                );
                assert!(par.solution.density.to_f64() >= par.lower_bound - 1e-9);
                assert!(!par.solution.pair.is_empty());
            }
        }
    }

    #[test]
    fn parallel_handles_fixtures_and_degenerates() {
        let g = gen::complete_bipartite(2, 3);
        let par = core_approx_parallel(&g, 4);
        assert_eq!(par.solution.density, core_approx(&g).solution.density);
        let empty = DiGraph::empty(4);
        assert!(core_approx_parallel(&empty, 2).solution.pair.is_empty());
        assert!(grid_peel_parallel(&empty, 0.5, 3).solution.pair.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = grid_peel_parallel(&gen::path(3), 0.5, 0);
    }

    #[test]
    fn for_each_mut_visits_every_item_once_in_order() {
        for threads in [1, 2, 3, 8] {
            let mut items: Vec<u64> = (0..23).collect();
            let results = for_each_mut(&mut items, threads, |i, item| {
                *item += 100;
                (i, *item)
            });
            assert_eq!(results.len(), 23, "threads={threads}");
            for (i, &(idx, val)) in results.iter().enumerate() {
                assert_eq!(idx, i, "results must come back in item order");
                assert_eq!(val, i as u64 + 100);
            }
            assert!(items.iter().enumerate().all(|(i, &v)| v == i as u64 + 100));
        }
    }

    #[test]
    fn for_each_mut_handles_empty_and_single() {
        let mut none: Vec<u32> = Vec::new();
        assert!(for_each_mut(&mut none, 4, |_, _| ()).is_empty());
        let mut one = vec![7u32];
        let r = for_each_mut(&mut one, 4, |_, item| {
            *item *= 2;
            *item
        });
        assert_eq!((r, one[0]), (vec![14], 14));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn for_each_mut_rejects_zero_threads() {
        let _ = for_each_mut(&mut [1], 0, |_, _: &mut i32| ());
    }

    use dds_graph::DiGraph;
}
