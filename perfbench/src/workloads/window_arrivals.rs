//! window-arrivals: `dds stream --window` over uniform arrivals, the
//! E14-quick stream itself. Why it exists (as in BENCHMARK.json): E14-quick
//! window replay led by exact escalations on ambiguous windows:
//! stream.warmup_s moves setup_s; core.*, flow.*, xycore.repairs,
//! stream.window_* move pass_s.
//!
//! Set-up fills the first window, which includes the cold-start
//! escalation. `--seed` relabels the E14 stream (see
//! `Workload::base_seed`).

use std::time::Instant;

use dds_core::{DcExact, WorkerPool};
use dds_stream::{
    batch_slices, load_events, Batch, BatchBy, WindowConfig, WindowEngine, WindowMode,
};

use super::{
    iterate, pool_delta, put_pool, share, within, Ctx, Outcome, Stopwatch, SLACK, TOLERANCE,
};
use crate::inputs::Spec;
use crate::metrics::{self, MetricSet};

/// Epochs of the first iteration whose bracket is checked against a fresh
/// exact solve (the final epoch always is).
const EXACT_SAMPLES: usize = 1;

pub fn run(ctx: &mut Ctx<'_>) -> Outcome {
    let Spec::Arrivals { window, batch, .. } = ctx.spec else {
        unreachable!("window-arrivals runs on an arrival stream")
    };
    let config = WindowConfig {
        tolerance: TOLERANCE,
        slack: SLACK,
        exact_escalation: true,
        threads: ctx.threads,
        ..WindowConfig::new(window)
    };
    let mut first: Option<Vec<(f64, f64)>> = None;
    let mut layers = MetricSet::default();
    let mut e2e = MetricSet::default();
    let (mut live_m, mut epochs) = (0, 0);
    let iters = iterate(ctx, |ctx, i, with_pass| {
        // Set-up: parse, build the engine, and fill the first window
        // (which includes the cold-start escalation).
        let t0 = Instant::now();
        let setup = ctx.spans.enter("setup");
        let load = ctx.spans.enter("stream.load");
        let events = load_events(&ctx.input.path).expect("the generated event file parses");
        ctx.spans.exit(load);
        let prefix = events.partition_point(|e| e.time < window);
        let (warm, rest) = events.split_at(prefix);
        let to_batches = |evs| -> Vec<Batch> {
            batch_slices(evs, BatchBy::Count(batch))
                .into_iter()
                .map(|s| Batch::from_events(s.to_vec()))
                .collect()
        };
        let (warm, rest) = (to_batches(warm), to_batches(rest));
        let mut engine = WindowEngine::new(config);
        let warmup = ctx.spans.enter("stream.warmup");
        for b in &warm {
            engine.apply(b);
        }
        ctx.spans.exit(warmup);
        ctx.spans.exit(setup);
        let setup_s = t0.elapsed().as_secs_f64();
        live_m = engine.m();
        epochs = rest.len();
        if !with_pass {
            return (setup_s, None);
        }

        // Pass: replay the remaining windows epoch by epoch.
        let pool = WorkerPool::global().stats();
        let oracle = first.is_none();
        let samples: Vec<usize> = (1..=EXACT_SAMPLES)
            .map(|k| k * rest.len() / (EXACT_SAMPLES + 1))
            .chain([rest.len().saturating_sub(1)])
            .collect();
        let mut clock = Stopwatch::default();
        let mut brackets = Vec::with_capacity(rest.len());
        let mut epoch_us = Vec::with_capacity(rest.len());
        let (mut sweeps, mut exact, mut incremental, mut repairs) =
            (0usize, 0usize, 0usize, 0usize);
        let mut solve = dds_core::SolveStats::default();
        let mut worst = 1.0f64;
        let pass = ctx.spans.enter("pass");
        for (k, b) in rest.iter().enumerate() {
            clock.start();
            let span = ctx.spans.enter("stream.window_apply");
            let r = engine.apply(b);
            match r.mode {
                WindowMode::ExactResolve => ctx.spans.exit_as(span, "core.exact"),
                WindowMode::CoreRefresh => ctx.spans.exit_as(span, "stream.window_sweep"),
                _ => ctx.spans.exit(span),
            }
            epoch_us.push(clock.stop().as_secs_f64() * 1e6);

            match r.mode {
                WindowMode::ExactResolve => exact += 1,
                WindowMode::CoreRefresh => sweeps += 1,
                WindowMode::Incremental => incremental += 1,
                WindowMode::SketchRefresh => {}
            }
            repairs += r.repairs;
            if let Some(s) = r.solve_stats {
                solve.merge(s);
            }
            worst = worst.max(r.certified_factor);
            brackets.push((r.lower, r.upper));
            ctx.checks.op(r.lower <= r.upper && r.within_band, || {
                format!(
                    "epoch {}: bracket [{}, {}] inverted or out of band",
                    r.epoch, r.lower, r.upper
                )
            });
            if oracle && samples.contains(&k) {
                let rho = DcExact::new()
                    .solve(&engine.materialize())
                    .solution
                    .density
                    .to_f64();
                ctx.checks.op(within(rho, r.lower, r.upper), || {
                    format!(
                        "epoch {}: exact density {rho} outside [{}, {}]",
                        r.epoch, r.lower, r.upper
                    )
                });
            }
        }
        ctx.spans.exit(pass);
        let pool = pool_delta(pool);
        match &first {
            None => first = Some(brackets),
            Some(b0) => ctx.checks.op(*b0 == brackets, || {
                format!("iteration {i}: brackets differ from the first replay's")
            }),
        }

        if i == 0 {
            e2e.put(
                "bracket_max",
                worst,
                "x",
                format!("worst certified upper/lower over {} epochs", rest.len()),
            );
        }
        if ctx.spans.enabled() {
            let n = epoch_us.len();
            let lat = metrics::sorted(epoch_us);
            layers = MetricSet::default();
            layers.put("core.exact_solves", exact as f64, "count", "");
            layers.put(
                "core.ratios_solved",
                solve.ratios_solved as f64,
                "count",
                "",
            );
            put_pool(&mut layers, pool);
            layers.put("flow.decisions", solve.flow_decisions as f64, "count", "");
            layers.put(
                "flow.arena_reuse_hits",
                solve.arena_reuse_hits as f64,
                "count",
                "",
            );
            layers.put(
                "xycore.core_cache_hits",
                solve.core_cache_hits as f64,
                "count",
                "",
            );
            layers.put("xycore.repairs", repairs as f64, "count", "");
            layers.put("stream.window_sweeps", sweeps as f64, "count", "");
            layers.put(
                "stream.window_incremental_share",
                share(incremental as f64, n as f64),
                "ratio",
                format!("{incremental} of {n} epochs"),
            );
            layers.put("stream.window_epoch_samples", n as f64, "count", "");
            layers.put_pct(
                "stream.window_epoch_p50_us",
                metrics::percentile(&lat, 50.0),
                n,
            );
            layers.put_pct("stream.window_epoch_tail_us", metrics::tail(&lat), n);
        }
        (setup_s, Some(clock.total_s()))
    });
    Outcome {
        iters,
        e2e,
        layers,
        live_m,
        epochs,
    }
}
