//! The workload runners and what they share: the iteration loop (set-up
//! then timed pass, repeated for the run's time budget), the oracle
//! ledger, and the stopwatch that keeps oracle work out of the timed
//! regions.

use std::time::{Duration, Instant};

use dds_core::{PoolStats, WorkerPool};

use crate::inputs::{Input, Spec};
use crate::metrics::MetricSet;
use crate::trace::Spans;

pub mod churn_serve;
pub mod cluster;
pub mod static_exact;
pub mod window_arrivals;

/// The `dds` CLI's default certification band (`--tolerance`, `--slack`).
pub const TOLERANCE: f64 = 0.25;
pub const SLACK: f64 = 2.0;

/// Fewest set-ups a run makes: iterations without a pass top them up.
const MIN_SETUPS: usize = 10;

/// Counts checked operations and the ones whose oracle failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(what());
            }
        }
    }
}

/// Everything a workload runner needs.
pub struct Ctx<'a> {
    pub input: &'a Input,
    pub spec: Spec,
    /// Solver threads: what `--threads` auto-detection resolves to.
    pub threads: usize,
    /// Time budget for the iterations.
    pub seconds: f64,
    /// Whether this is the traced run (odd iterations record spans).
    pub trace: bool,
    pub spans: Spans,
    pub checks: Checks,
}

/// Timings of one iteration; set-up-only iterations have no pass.
#[derive(Clone, Copy, Debug)]
pub struct Iter {
    pub setup_s: f64,
    pub pass_s: Option<f64>,
    pub traced: bool,
}

/// What a runner hands back besides its iterations.
#[derive(Debug, Default)]
pub struct Outcome {
    pub iters: Vec<Iter>,
    /// Figures printed beside the end-to-end metrics: `bracket_max`
    /// (reported as a per-layer metric) and churn-serve's latencies.
    pub e2e: MetricSet,
    /// Layer counts and ratios (layer times come from the spans).
    pub layers: MetricSet,
    /// Live edges after set-up and epochs per pass (run header).
    pub live_m: usize,
    pub epochs: usize,
}

/// Runs `body(ctx, i, with_pass)`, which returns its set-up and pass
/// seconds, once per iteration: set-up then pass while the measured time
/// (set-ups plus passes, not oracles) leaves room for another iteration
/// like the last (at least one pass, two in the traced run), then
/// set-up-only iterations until [`MIN_SETUPS`] set-ups ran. In the traced
/// run odd iterations record spans and even ones do not, so one process
/// measures both sides of the tracing overhead.
pub fn iterate(
    ctx: &mut Ctx<'_>,
    mut body: impl FnMut(&mut Ctx<'_>, usize, bool) -> (f64, Option<f64>),
) -> Vec<Iter> {
    let min_passes = if ctx.trace { 2 } else { 1 };
    let mut iters: Vec<Iter> = Vec::new();
    let mut measured = 0.0;
    loop {
        let done = iters.len();
        let last = iters
            .last()
            .map_or(0.0, |it| it.setup_s + it.pass_s.unwrap_or(0.0));
        if done >= min_passes && measured + last > ctx.seconds {
            break;
        }
        ctx.spans.set_run(done as u32);
        ctx.spans.set_enabled(ctx.trace && done % 2 == 1);
        let (setup_s, pass_s) = body(ctx, done, true);
        measured += setup_s + pass_s.unwrap_or(0.0);
        iters.push(Iter {
            setup_s,
            pass_s,
            traced: ctx.spans.enabled(),
        });
    }
    ctx.spans.set_enabled(false);
    while iters.len() < MIN_SETUPS {
        let i = iters.len();
        ctx.spans.set_run(i as u32);
        let (setup_s, _) = body(ctx, i, false);
        iters.push(Iter {
            setup_s,
            pass_s: None,
            traced: false,
        });
    }
    iters
}

/// Accumulates only the timed segments of a region that interleaves
/// untimed oracle work.
#[derive(Debug, Default)]
pub struct Stopwatch {
    total: Duration,
    started: Option<Instant>,
}

impl Stopwatch {
    pub fn start(&mut self) {
        debug_assert!(self.started.is_none(), "stopwatch already running");
        self.started = Some(Instant::now());
    }

    /// Stops and returns the segment just timed.
    pub fn stop(&mut self) -> Duration {
        let seg = self
            .started
            .take()
            .expect("stopwatch not running")
            .elapsed();
        self.total += seg;
        seg
    }

    pub fn total_s(&self) -> f64 {
        self.total.as_secs_f64()
    }
}

/// Worker-pool counters moved over a region.
pub fn pool_delta(before: PoolStats) -> PoolStats {
    let after = WorkerPool::global().stats();
    PoolStats {
        tasks: after.tasks - before.tasks,
        steals: after.steals - before.steals,
        parks: after.parks - before.parks,
    }
}

pub fn put_pool(layers: &mut MetricSet, pool: PoolStats) {
    layers.put("core.pool_tasks", pool.tasks as f64, "count", "");
    layers.put("core.pool_steals", pool.steals as f64, "count", "");
    layers.put("core.pool_parks", pool.parks as f64, "count", "");
}

/// `a / b`, 0 when `b` is 0.
pub fn share(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Whether `x` lies in `[lower, upper]` up to float rounding.
pub fn within(x: f64, lower: f64, upper: f64) -> bool {
    let eps = 1e-9 * upper.abs().max(1.0);
    lower - eps <= x && x <= upper + eps
}
