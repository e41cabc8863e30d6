//! static-exact: `dds exact` on a planted 105k-edge graph. Why it exists
//! (as in BENCHMARK.json): The paper's use case, dds exact on a planted
//! 105k-edge graph: graph.load_s moves setup_s; core.*, flow.*,
//! xycore.core_cache_hits and xycore.sweep_s move pass_s.
//!
//! `--seed` relabels one base graph (see `Workload::base_seed`).

use std::hint::black_box;
use std::time::Instant;

use dds_core::{parallel, DcExact, ExactOptions, ExactReport, PoolStats, SolveContext, WorkerPool};
use dds_graph::io::{load_edge_list, ParseOptions};
use dds_graph::{DiGraph, Pair};
use dds_xycore::max_product_core;

use super::{iterate, pool_delta, put_pool, share, within, Ctx, Outcome};
use crate::metrics::MetricSet;

/// The solve `dds exact` runs: parallel DcExact on the auto-detected
/// thread count, serial DcExact on one thread.
fn solve(ctx: &mut SolveContext, g: &DiGraph, threads: usize) -> ExactReport {
    if threads > 1 {
        parallel::dc_exact_parallel_with(ctx, g, ExactOptions::default(), threads)
    } else {
        DcExact::with_options(ExactOptions::default()).solve_with(ctx, g)
    }
}

pub fn run(ctx: &mut Ctx<'_>) -> Outcome {
    let mut first: Option<(f64, Pair)> = None;
    let mut layers = MetricSet::default();
    let mut live_m = 0;
    let iters = iterate(ctx, |ctx, i, with_pass| {
        // Set-up: parse the edge list and build the solver context.
        let t0 = Instant::now();
        let setup = ctx.spans.enter("setup");
        let load = ctx.spans.enter("graph.load");
        let g = load_edge_list(&ctx.input.path, &ParseOptions::default())
            .expect("the generated edge list parses");
        ctx.spans.exit(load);
        let mut solver = SolveContext::new();
        ctx.spans.exit(setup);
        let setup_s = t0.elapsed().as_secs_f64();
        live_m = g.m();
        if !with_pass {
            return (setup_s, None);
        }

        // Pass: one cold exact solve.
        let pool = WorkerPool::global().stats();
        let t1 = Instant::now();
        let pass = ctx.spans.enter("pass");
        let exact = ctx.spans.enter("core.exact");
        let report = solve(&mut solver, &g, ctx.threads);
        ctx.spans.exit(exact);
        ctx.spans.exit(pass);
        let pass_s = t1.elapsed().as_secs_f64();
        let pool = pool_delta(pool);

        if ctx.spans.enabled() {
            // One standalone max-product core sweep on the loaded graph.
            let sweep = ctx.spans.enter("xycore.sweep");
            black_box(max_product_core(black_box(&g)));
            ctx.spans.exit(sweep);
            layers = solve_layers(&report, pool);
        }

        // Oracles, untimed.
        let density = report.solution.density.to_f64();
        let pair = &report.solution.pair;
        ctx.checks
            .op(pair.density(&g) == report.solution.density, || {
                format!("iteration {i}: the returned (S,T) does not have the reported density")
            });
        match &first {
            None => {
                let approx = dds_core::core_approx(&g);
                ctx.checks.op(
                    within(density, approx.lower_bound, approx.upper_bound),
                    || {
                        format!(
                            "density {density} outside core_approx's [{}, {}]",
                            approx.lower_bound, approx.upper_bound
                        )
                    },
                );
                let block = ctx.input.planted.density(&g).to_f64();
                ctx.checks.op(density >= block, || {
                    format!("density {density} below the planted block's {block}")
                });
                first = Some((density, pair.clone()));
            }
            Some((d0, p0)) => ctx.checks.op(density == *d0 && pair == p0, || {
                format!("iteration {i}: density {density} differs from the first solve's {d0}")
            }),
        }
        (setup_s, Some(pass_s))
    });

    let mut e2e = MetricSet::default();
    e2e.put(
        "bracket_max",
        1.0,
        "x",
        "an exact solve certifies its own optimum",
    );
    Outcome {
        iters,
        e2e,
        layers,
        live_m,
        epochs: 0,
    }
}

fn solve_layers(r: &ExactReport, pool: PoolStats) -> MetricSet {
    let mut m = MetricSet::default();
    let pruned = r.ratios_pruned_structural + r.ratios_pruned_gamma + r.ratios_pruned_tie;
    m.put("core.exact_solves", 1.0, "count", "");
    m.put("core.ratios_solved", r.ratios_solved as f64, "count", "");
    m.put(
        "core.prune_share",
        share(pruned as f64, r.ratios_considered as f64),
        "ratio",
        format!("{pruned} of {} intervals pruned", r.ratios_considered),
    );
    m.put(
        "core.speculative_solves",
        r.speculative_solves as f64,
        "count",
        "",
    );
    m.put(
        "core.speculative_win_share",
        share(r.speculative_wins as f64, r.speculative_solves as f64),
        "ratio",
        format!("{} wins", r.speculative_wins),
    );
    put_pool(&mut m, pool);
    m.put("flow.decisions", r.flow_decisions as f64, "count", "");
    m.put(
        "flow.network_edges",
        r.network_edges.iter().sum::<usize>() as f64,
        "count",
        "summed over decisions",
    );
    m.put(
        "flow.arena_reuse_hits",
        r.arena_reuse_hits as f64,
        "count",
        "",
    );
    m.put(
        "xycore.core_cache_hits",
        r.core_cache_hits as f64,
        "count",
        "",
    );
    m
}
