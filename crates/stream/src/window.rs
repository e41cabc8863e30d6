//! The window-native engine: sliding-window DDS maintenance on top of
//! decremental `[x, y]`-cores.
//!
//! # Why [`crate::StreamEngine`] is the wrong tool for windows
//!
//! The lazy-re-solve engine assumes the optimum mostly *persists*: its
//! witness pair keeps certifying epochs as long as churn leaves it alone.
//! A sliding window breaks that assumption by construction — every edge
//! expires `window` ticks after it arrives, so any fixed witness decays to
//! nothing and the exact re-solve fires over and over on a graph that will
//! have rotated away before the answer is stale-proof.
//!
//! # The window-native certificate
//!
//! [`WindowEngine`] maintains three things per event, each `O(1)` or
//! `O(affected)`:
//!
//! * an **expiry ring** — arrivals carry their timestamp; edges older than
//!   `window` are deleted automatically (re-arrival of a live edge renews
//!   its expiry, the classic last-occurrence window semantics);
//! * a **decremental max-product core** ([`dds_xycore::DecrementalCore`]) —
//!   the `[x, y]`-core the 2-approximation certified at the last refresh,
//!   repaired locally as its edges expire. While non-empty it proves
//!   `ρ_opt ≥ ρ(core) ≥ sqrt(x·y)` *on the current graph*, which is what
//!   keeps the lower bound alive between refreshes as the window slides;
//! * the **certificate** [`crate::StreamEngine`] holds too (the crate's
//!   one bound tracker): the drift upper bound — deletions only lower the
//!   optimum, insertions are covered by the delta-degree/crossing bounds,
//!   so `ρ_opt ≤ min(2·sqrt(P) + drift, sqrt(m), …)` holds at every tick —
//!   and the witness of the last exact escalation or sketch refresh. The
//!   core's live density is the floor under its lower bound.
//!
//! When the band `upper ≤ gap · max(lower·(1+tolerance), lower+slack)`
//! breaks (the trigger the stream engine uses), the engine **refreshes**:
//! one `O(sqrt(m)·(n+m))` max-product core sweep re-anchors the
//! certificate within a factor ~2. If that bracket still cannot satisfy
//! the configured band and [`WindowConfig::exact_escalation`] is on, it
//! escalates to one exact solve through the long-lived [`SolveContext`]
//! and adopts its pair — rare by design, so the steady state is
//! core-sweep cheap and never exact-solver expensive. With a
//! [`SketchTier`] engaged, a refresh is the stream engine's sketch-tier
//! re-certification instead.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use dds_core::{core_approx, parallel, ExactOptions, SolveContext, SolveStats};
use dds_graph::{DiGraph, Pair, VertexId};
use dds_num::Density;
use dds_obs::{span, Counter, Gauge, Histogram, Registry, Tracer};
use dds_sketch::certify::{CertifiedBounds, SAFETY};
use dds_sketch::{SketchEngine, SketchStats};
use dds_xycore::DecrementalCore;

use crate::bounds::{sweep_anchor, BoundTracker, Cause};
use crate::engine::{batch_slices, BatchBy, SketchTier};
use crate::events::{Batch, Event, TimedEvent};
use crate::state::DynamicGraph;

/// Configuration of a [`WindowEngine`].
#[derive(Clone, Copy, Debug)]
pub struct WindowConfig {
    /// Window length in stream ticks: an edge arriving at time `t` expires
    /// at `t + window` unless re-inserted first (which renews it).
    pub window: u64,
    /// Allowed relative certificate degradation before a refresh fires.
    /// Must be non-negative.
    pub tolerance: f64,
    /// Allowed absolute certificate degradation (density units). Must be
    /// non-negative; keeps quiet low-density windows from burning
    /// refreshes on noise.
    pub slack: f64,
    /// When a fresh core sweep still cannot certify the configured band,
    /// run one exact solve (warm [`SolveContext`]) instead of settling for
    /// the ~2× core bracket. Off: the engine never pays for flows and the
    /// certified factor may reach ~`2·(1+tolerance)`.
    ///
    /// Escalation is **rate-limited to one exact solve per window length**
    /// of stream time: the window rotates its entire edge set every
    /// `window` ticks, so solving exactly more often means solving
    /// essentially different graphs back to back — the degenerate regime
    /// window-native maintenance exists to avoid. Between escalations the
    /// gap-relative core bracket certifies (the same `gap₀` semantics as
    /// [`crate::StreamEngine`] with [`crate::SolverKind::CoreApprox`]).
    pub exact_escalation: bool,
    /// Worker threads of the exact escalations, each one call of
    /// [`dds_core::parallel::dc_exact_parallel_with`] on the engine's warm
    /// context (1 runs the ratio search inline). Must be positive.
    pub threads: usize,
    /// Optional sketch fallback (see [`SketchTier`]): when the live window
    /// holds at least `min_m` edges, a band break refreshes through
    /// **sketch-refresh + exact-on-sketch** instead of the full
    /// `O(√m·(n+m))` core sweep. The maintained decremental core is
    /// dropped for the duration (the sketch's witness plays its role as
    /// the decaying lower bound) and exact escalation on the *full* graph
    /// is suppressed — while engaged, the tier never pays a full-graph
    /// sweep or solve (the linear `O(m)` witness/certificate bookkeeping
    /// a refresh performs anyway is all that touches the full edge set).
    pub sketch: Option<SketchTier>,
}

impl WindowConfig {
    /// Defaults tuned like [`crate::StreamConfig`]: `tolerance = 0.25`,
    /// `slack = 2.0`, escalation on, serial, no sketch tier.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        WindowConfig {
            window,
            tolerance: 0.25,
            slack: 2.0,
            exact_escalation: true,
            threads: 1,
            sketch: None,
        }
    }
}

/// How an epoch was certified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowMode {
    /// The maintained bounds still covered the band: no solver ran.
    Incremental,
    /// A max-product core sweep re-certified the bracket (factor ~2).
    CoreRefresh,
    /// The sweep bracket exceeded the band and one exact solve ran.
    ExactResolve,
    /// The sketch tier re-certified: exact-on-sketch witness as the lower
    /// bound, structural upper — no full-graph pass of any kind.
    SketchRefresh,
}

/// What one [`WindowEngine::apply`] call did and certified.
#[derive(Clone, Debug)]
pub struct WindowReport {
    /// 1-based epoch number (one per applied batch).
    pub epoch: u64,
    /// Events in the batch, including no-ops.
    pub events: usize,
    /// Insertions of genuinely new edges.
    pub arrivals: usize,
    /// Re-insertions of live edges (expiry renewed, graph unchanged).
    pub renewals: usize,
    /// Edges expired by the sliding window during this batch.
    pub expired: usize,
    /// Explicit deletions that changed the graph.
    pub deletes: usize,
    /// No-op events (self-loops, absent deletes).
    pub ignored: usize,
    /// Stream time after the batch (largest timestamp seen).
    pub now: u64,
    /// Vertex count after the batch.
    pub n: usize,
    /// Edge count after the batch.
    pub m: usize,
    /// How the epoch was certified.
    pub mode: WindowMode,
    /// Thresholds `(x, y)` of the maintained core, if one is alive.
    pub core: Option<(u64, u64)>,
    /// Vertices peeled by decremental core repair during this batch.
    pub repairs: usize,
    /// Instrumentation of the epoch's exact escalation or exact-on-sketch
    /// solve (`None` otherwise).
    pub solve_stats: Option<SolveStats>,
    /// Sketch-tier counters, present when this epoch refreshed through the
    /// sketch fallback.
    pub sketch: Option<SketchStats>,
    /// The reported density: the best maintained pair's exact density.
    pub density: Density,
    /// Certified lower bound (`density` as `f64`).
    pub lower: f64,
    /// Certified upper bound on the current optimum.
    pub upper: f64,
    /// Proven approximation factor of `density` (`upper / lower`).
    pub certified_factor: f64,
    /// Whether the epoch ends inside its configured certification band
    /// (always true after a refresh; checked by E14 and the CI smoke).
    pub within_band: bool,
    /// Wall-clock time spent in this `apply` call.
    pub elapsed: Duration,
}

/// Sliding-window DDS maintenance (see module docs).
#[derive(Debug)]
pub struct WindowEngine {
    config: WindowConfig,
    state: DynamicGraph,
    /// Expiry ring: `(arrival, edge)` in arrival order. Entries are lazily
    /// invalidated by `live_since` (renewals and explicit deletions leave
    /// stale entries behind rather than searching the ring).
    ring: VecDeque<(u64, (VertexId, VertexId))>,
    /// Latest arrival time of each live edge — the authority on whether a
    /// popped ring entry still speaks for its edge.
    live_since: HashMap<(VertexId, VertexId), u64>,
    now: u64,
    /// The maintained max-product core: the certificate's lower-bound
    /// floor between refreshes.
    core: Option<DecrementalCore>,
    tracker: BoundTracker,
    ctx: SolveContext,
    sketch: Option<SketchEngine>,
    /// Stream time of the last exact escalation (rate-limit anchor).
    last_escalation: Option<u64>,
    metrics: WindowMetrics,
    tracer: Tracer,
    last_solve_stats: Option<SolveStats>,
}

/// Obs-backed lifetime counters of a [`WindowEngine`] (the `dds_window_*`
/// series): standalone atomics by default — the public accessors read them
/// as views — re-homed into a shared registry by
/// [`WindowEngine::attach_obs`]. The gauge and the latency histograms are
/// no-ops until attached.
#[derive(Debug, Default)]
struct WindowMetrics {
    epochs: Counter,
    refreshes: Counter,
    exact_solves: Counter,
    sketch_refreshes: Counter,
    expired: Counter,
    repairs: Counter,
    refresh_cold: Counter,
    refresh_band: Counter,
    edges: Option<Gauge>,
    apply_latency: Histogram,
    refresh_latency: Histogram,
}

impl WindowMetrics {
    fn attach(&mut self, registry: &Registry) {
        self.epochs.rehome(registry, "dds_window_epochs_total");
        self.refreshes
            .rehome(registry, "dds_window_refreshes_total");
        self.exact_solves
            .rehome(registry, "dds_window_exact_solves_total");
        self.sketch_refreshes
            .rehome(registry, "dds_window_sketch_refreshes_total");
        self.expired.rehome(registry, "dds_window_expired_total");
        self.repairs.rehome(registry, "dds_window_repairs_total");
        self.refresh_cold
            .rehome(registry, "dds_window_refresh_cause_cold_total");
        self.refresh_band
            .rehome(registry, "dds_window_refresh_cause_band_total");
        self.edges = Some(registry.gauge("dds_window_edges"));
        self.apply_latency = registry.histogram("dds_window_apply_latency_us");
        self.refresh_latency = registry.histogram("dds_window_refresh_latency_us");
    }
}

impl WindowEngine {
    /// A fresh engine over an empty graph at stream time 0.
    ///
    /// # Panics
    /// Panics if the window is zero or tolerance/slack are negative.
    #[must_use]
    pub fn new(config: WindowConfig) -> Self {
        assert!(config.window > 0, "window must be positive");
        assert!(config.tolerance >= 0.0, "tolerance must be non-negative");
        assert!(config.slack >= 0.0, "slack must be non-negative");
        assert!(config.threads > 0, "threads must be positive");
        WindowEngine {
            state: DynamicGraph::new(),
            ring: VecDeque::new(),
            live_since: HashMap::new(),
            now: 0,
            core: None,
            tracker: BoundTracker::new(config.tolerance, config.slack),
            ctx: SolveContext::new(),
            sketch: config.sketch.map(|tier| SketchEngine::new(tier.config)),
            config,
            last_escalation: None,
            metrics: WindowMetrics::default(),
            tracer: Tracer::detached(),
            last_solve_stats: None,
        }
    }

    /// Re-homes this engine's lifetime counters in `registry` (the
    /// `dds_window_*` series, plus the `dds_exact_*` series of its solver
    /// context and the `dds_sketch_*` series of its sketch tier when one
    /// is maintained), transferring the values accumulated so far and
    /// enabling the latency histograms and the edge gauge.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.metrics.attach(registry);
        self.ctx.attach_obs(registry);
        if let Some(sk) = &mut self.sketch {
            sk.attach_obs(registry);
        }
    }

    /// Routes this engine's spans (`window.apply` with a nested
    /// `window.refresh`) to `tracer`. The default is the detached tracer:
    /// spans are inert and never read the clock.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Applies one batch: expiry + event ingestion in `O(batch + repairs)`,
    /// then a certification check that refreshes only when the band broke.
    ///
    /// Timestamps are expected to be non-decreasing across events (the
    /// same contract as [`BatchBy::TimeWindow`] batching); an
    /// out-of-order timestamp never advances time backwards, it only
    /// delays that edge's expiry to the ring's pace.
    pub fn apply(&mut self, batch: &Batch) -> WindowReport {
        let start = Instant::now();
        let mut span = span!(self.tracer, "window.apply");
        let expired_before = self.metrics.expired.get();
        let repairs_before = self.metrics.repairs.get();
        let (mut arrivals, mut renewals, mut deletes, mut ignored) =
            (0usize, 0usize, 0usize, 0usize);
        for ev in &batch.events {
            self.expire_until(ev.time);
            match ev.event {
                Event::Insert(u, v) => {
                    if self.state.insert(u, v) {
                        arrivals += 1;
                        self.live_since.insert((u, v), ev.time);
                        self.ring.push_back((ev.time, (u, v)));
                        self.tracker.on_insert(u, v);
                        if let Some(core) = &mut self.core {
                            core.insert_edge(u, v);
                        }
                        if let Some(sk) = &mut self.sketch {
                            sk.insert(u, v);
                        }
                    } else if u != v && self.state.has_edge(u, v) {
                        // Live edge re-arrives: renew its expiry.
                        renewals += 1;
                        self.live_since.insert((u, v), ev.time);
                        self.ring.push_back((ev.time, (u, v)));
                    } else {
                        ignored += 1;
                    }
                }
                Event::Delete(u, v) => {
                    if self.state.delete(u, v) {
                        deletes += 1;
                        self.live_since.remove(&(u, v));
                        self.on_removed(u, v);
                    } else {
                        ignored += 1;
                    }
                }
            }
        }
        self.metrics.epochs.inc();
        let epoch = self.metrics.epochs.get();

        let cause = self
            .tracker
            .cause(&self.state, self.floor(), self.tracker.gap());
        let mode = if let Some(cause) = cause {
            match cause {
                Cause::Cold => self.metrics.refresh_cold.inc(),
                Cause::Band => self.metrics.refresh_band.inc(),
            }
            self.refresh()
        } else {
            WindowMode::Incremental
        };
        if let Some(g) = &self.metrics.edges {
            g.set(self.state.m() as u64);
        }
        span.record("epoch", epoch);
        span.record("events", batch.events.len() as u64);
        span.record("m", self.state.m() as u64);
        span.record_flag("refreshed", mode != WindowMode::Incremental);

        let bounds = self.bounds();
        let lower = bounds.lower.to_f64();
        let elapsed = start.elapsed();
        self.metrics.apply_latency.observe(elapsed);
        WindowReport {
            epoch,
            events: batch.events.len(),
            arrivals,
            renewals,
            expired: (self.metrics.expired.get() - expired_before) as usize,
            deletes,
            ignored,
            now: self.now,
            n: self.state.n(),
            m: self.state.m(),
            mode,
            core: self.core_thresholds(),
            repairs: (self.metrics.repairs.get() - repairs_before) as usize,
            solve_stats: if matches!(mode, WindowMode::ExactResolve | WindowMode::SketchRefresh) {
                self.last_solve_stats
            } else {
                None
            },
            sketch: if mode == WindowMode::SketchRefresh {
                self.sketch.as_ref().map(SketchEngine::stats)
            } else {
                None
            },
            density: bounds.lower,
            lower,
            upper: bounds.upper,
            certified_factor: bounds.certified_factor(),
            // The trigger, forgiving the float slack of a fresh gap.
            within_band: self
                .tracker
                .cause(
                    &self.state,
                    self.floor(),
                    self.tracker.gap() * (1.0 + SAFETY),
                )
                .is_none(),
            elapsed,
        }
    }

    /// Advances stream time to `t` (monotone), expiring everything older
    /// than the window — useful when time passes without events.
    pub fn advance_to(&mut self, t: u64) {
        self.expire_until(t);
    }

    fn expire_until(&mut self, t: u64) {
        self.now = self.now.max(t);
        while let Some(&(t0, e)) = self.ring.front() {
            if t0.saturating_add(self.config.window) > self.now {
                break;
            }
            self.ring.pop_front();
            if self.live_since.get(&e) != Some(&t0) {
                continue; // renewed or explicitly deleted: stale entry
            }
            self.live_since.remove(&e);
            let deleted = self.state.delete(e.0, e.1);
            debug_assert!(deleted, "ring edge missing from the graph");
            self.metrics.expired.inc();
            self.on_removed(e.0, e.1);
        }
    }

    /// Shared bookkeeping for any edge leaving the graph (expiry or
    /// explicit delete).
    fn on_removed(&mut self, u: VertexId, v: VertexId) {
        self.tracker.on_delete(u, v);
        if let Some(core) = &mut self.core {
            self.metrics.repairs.add(core.delete_edge(u, v) as u64);
        }
        if let Some(sk) = &mut self.sketch {
            sk.delete(u, v);
        }
    }

    /// Re-certifies. Sketch tier engaged: exact-on-sketch only, with no
    /// decremental core and no full-graph pass (see
    /// [`WindowConfig::sketch`]). Otherwise: one max-product core sweep,
    /// whose core becomes the lower-bound floor, escalated to an exact
    /// solve when the sweep bracket still misses the band (and escalation
    /// is enabled and cooled down).
    fn refresh(&mut self) -> WindowMode {
        let timer = self.metrics.refresh_latency.timer();
        let mut span = span!(self.tracer, "window.refresh");
        self.metrics.refreshes.inc();
        let mode = if self
            .config
            .sketch
            .is_some_and(|tier| self.state.m() >= tier.min_m)
        {
            let sk = self.sketch.as_mut().expect("tier implies a sketch");
            self.core = None;
            self.last_solve_stats = self.tracker.sketch_reanchor(sk, &self.state);
            self.metrics.sketch_refreshes.inc();
            WindowMode::SketchRefresh
        } else {
            let g = self.state.materialize();
            let approx = core_approx(&g);
            self.core = (!approx.solution.pair.is_empty()).then(|| {
                let mask = approx.solution.pair.to_mask(g.n());
                DecrementalCore::from_mask(&g, approx.x, approx.y, mask)
            });
            let floor = self.floor();
            self.tracker
                .reanchor(&self.state, None, sweep_anchor(&approx), floor);
            self.last_solve_stats = None;
            let cooled_down = self
                .last_escalation
                .is_none_or(|t| self.now >= t.saturating_add(self.config.window));
            if self.config.exact_escalation
                && cooled_down
                && self.tracker.cause(&self.state, floor, 1.0).is_some()
            {
                let report = parallel::dc_exact_parallel_with(
                    &mut self.ctx,
                    &g,
                    ExactOptions::default(),
                    self.config.threads,
                );
                self.last_solve_stats = Some(report.stats());
                let rho = report.solution.density.to_f64() * (1.0 + SAFETY);
                self.tracker
                    .adopt(&self.state, Some(report.solution.pair), rho, floor);
                self.metrics.exact_solves.inc();
                self.last_escalation = Some(self.now);
                WindowMode::ExactResolve
            } else {
                WindowMode::CoreRefresh
            }
        };
        span.record_str(
            "mode",
            match mode {
                WindowMode::SketchRefresh => "sketch",
                WindowMode::ExactResolve => "exact",
                _ => "core",
            },
        );
        span.close();
        timer.stop();
        mode
    }

    /// Forces a refresh now, regardless of the certificate, and returns
    /// the refreshed bounds.
    pub fn force_refresh(&mut self) -> CertifiedBounds {
        self.refresh();
        self.bounds()
    }

    /// The decremental core's live density: the floor the certificate's
    /// lower bound never drops below while the core is alive.
    fn floor(&self) -> Density {
        self.core
            .as_ref()
            .map_or(Density::ZERO, DecrementalCore::density)
    }

    /// The current certified bracket `lower ≤ ρ_opt ≤ upper`: the lower
    /// bound is the decremental core's live density or the exact
    /// witness's, whichever is denser right now.
    #[must_use]
    pub fn bounds(&self) -> CertifiedBounds {
        self.tracker.bounds(&self.state, self.floor())
    }

    /// Thresholds `(x, y)` of the maintained decremental core, while it is
    /// alive.
    #[must_use]
    pub fn core_thresholds(&self) -> Option<(u64, u64)> {
        self.core
            .as_ref()
            .filter(|c| !c.is_empty())
            .map(|c| (c.x(), c.y()))
    }

    /// The maintained exact witness pair (present only after an exact
    /// escalation, until the next refresh).
    #[must_use]
    pub fn witness(&self) -> Option<&Pair> {
        self.tracker.witness()
    }

    /// Number of batches applied so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.metrics.epochs.get()
    }

    /// Number of certification refreshes (core sweeps) run so far,
    /// including the ones that escalated.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.metrics.refreshes.get()
    }

    /// Number of exact escalations run so far.
    #[must_use]
    pub fn exact_solves(&self) -> u64 {
        self.metrics.exact_solves.get()
    }

    /// How many refreshes went through the sketch tier.
    #[must_use]
    pub fn sketch_refreshes(&self) -> u64 {
        self.metrics.sketch_refreshes.get()
    }

    /// Lifetime counters of the maintained sketch, when the tier is
    /// configured.
    #[must_use]
    pub fn sketch_stats(&self) -> Option<SketchStats> {
        self.sketch.as_ref().map(SketchEngine::stats)
    }

    /// Edges expired by the window so far.
    #[must_use]
    pub fn expired(&self) -> u64 {
        self.metrics.expired.get()
    }

    /// Vertices peeled by decremental core repair so far.
    #[must_use]
    pub fn repairs(&self) -> u64 {
        self.metrics.repairs.get()
    }

    /// Instrumentation of the most recent exact escalation, if any since
    /// the last refresh.
    #[must_use]
    pub fn last_solve_stats(&self) -> Option<SolveStats> {
        self.last_solve_stats
    }

    /// The engine's long-lived solver context (escalations warm-start from
    /// it).
    #[must_use]
    pub fn context(&self) -> &SolveContext {
        &self.ctx
    }

    /// Current stream time (largest timestamp seen).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configured window length.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.config.window
    }

    /// Current vertex count.
    #[must_use]
    pub fn n(&self) -> usize {
        self.state.n()
    }

    /// Current (live) edge count.
    #[must_use]
    pub fn m(&self) -> usize {
        self.state.m()
    }

    /// Freezes the current live window into the CSR form the static
    /// solvers use.
    #[must_use]
    pub fn materialize(&self) -> DiGraph {
        self.state.materialize()
    }
}

/// Replays `events` through a [`WindowEngine`] in batches, returning one
/// report per epoch (the window-native analog of [`crate::replay`]).
///
/// # Panics
/// Panics if the batch size or time window is zero.
pub fn replay_window(
    engine: &mut WindowEngine,
    events: &[TimedEvent],
    batch_by: BatchBy,
) -> Vec<WindowReport> {
    batch_slices(events, batch_by)
        .into_iter()
        .map(|chunk| engine.apply(&Batch::from_events(chunk.to_vec())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k22_batch(t: u64) -> Batch {
        let mut batch = Batch::new();
        for (u, v) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
            batch.insert_at(t, u, v);
        }
        batch
    }

    #[test]
    fn first_batch_certifies_and_expiry_empties_the_window() {
        let mut engine = WindowEngine::new(WindowConfig::new(10));
        let report = engine.apply(&k22_batch(0));
        assert_ne!(report.mode, WindowMode::Incremental);
        assert_eq!(report.m, 4);
        assert!(report.within_band);
        assert!(report.lower > 0.0);
        // Advance past the window: everything expires.
        let mut empty = Batch::new();
        empty.insert_at(20, 7, 8);
        let report = engine.apply(&empty);
        assert_eq!(report.expired, 4);
        assert_eq!(report.m, 1);
        assert_eq!(engine.expired(), 4);
    }

    #[test]
    fn renewals_extend_expiry_without_mutating_the_graph() {
        let mut engine = WindowEngine::new(WindowConfig::new(10));
        engine.apply(&k22_batch(0));
        // Renew the whole block at t = 8: nothing expires at t = 12.
        let report = engine.apply(&k22_batch(8));
        assert_eq!(report.renewals, 4);
        assert_eq!(report.arrivals, 0);
        let mut tick = Batch::new();
        tick.insert_at(12, 9, 10);
        let report = engine.apply(&tick);
        assert_eq!(report.expired, 0, "renewed edges must survive t=12");
        assert_eq!(report.m, 5);
        // …but they do expire at t = 18.
        engine.advance_to(18);
        assert_eq!(engine.m(), 1);
    }

    #[test]
    fn explicit_deletes_work_and_stale_ring_entries_are_ignored() {
        let mut engine = WindowEngine::new(WindowConfig::new(100));
        engine.apply(&k22_batch(0));
        let mut batch = Batch::new();
        batch.delete_at(1, 0, 2);
        batch.delete_at(1, 0, 2); // absent now: ignored
        let report = engine.apply(&batch);
        assert_eq!((report.deletes, report.ignored), (1, 1));
        assert_eq!(report.m, 3);
        // Re-insert: a fresh ring entry; the stale original must not
        // expire it early, the new one expires it at 50 + 100.
        let mut batch = Batch::new();
        batch.insert_at(50, 0, 2);
        assert_eq!(engine.apply(&batch).arrivals, 1);
        engine.advance_to(120);
        assert!(engine.materialize().has_edge(0, 2), "fresh entry governs");
        engine.advance_to(150);
        assert_eq!(engine.m(), 0);
    }

    #[test]
    fn incremental_epochs_keep_the_band() {
        let mut engine = WindowEngine::new(WindowConfig::new(10_000));
        engine.apply(&k22_batch(0));
        // Scattered noise: absorbed without refresh, band intact.
        for i in 0..5u32 {
            let mut batch = Batch::new();
            batch.insert_at(u64::from(i) + 1, 20 + i, 40 + i);
            let report = engine.apply(&batch);
            assert_eq!(report.mode, WindowMode::Incremental, "epoch {i}");
            assert!(report.within_band, "epoch {i}");
            assert!(report.lower <= report.upper);
        }
    }

    #[test]
    fn core_decay_triggers_a_refresh_not_a_panic() {
        let mut engine = WindowEngine::new(WindowConfig {
            tolerance: 0.25,
            slack: 0.5,
            exact_escalation: true,
            ..WindowConfig::new(4)
        });
        // A dense block that fully expires while background edges rotate:
        // the maintained core dies with it and a refresh must re-certify.
        engine.apply(&k22_batch(0));
        for t in 1..12u64 {
            let mut batch = Batch::new();
            batch.insert_at(t, 50 + (t as u32 % 6), 70 + (t as u32 / 2 % 5));
            let report = engine.apply(&batch);
            assert!(report.within_band, "t={t}");
            assert!(report.lower <= report.upper * (1.0 + 1e-9), "t={t}");
        }
        assert!(engine.refreshes() >= 2, "the expiring block must refresh");
    }

    #[test]
    fn escalation_reports_exact_density() {
        let mut engine = WindowEngine::new(WindowConfig {
            tolerance: 0.0,
            slack: 0.0,
            exact_escalation: true,
            ..WindowConfig::new(1_000)
        });
        let report = engine.apply(&k22_batch(0));
        assert_eq!(report.mode, WindowMode::ExactResolve);
        assert_eq!(report.density, Density::new(4, 2, 2));
        assert!(report.solve_stats.is_some());
        assert_eq!(engine.exact_solves(), 1);
        assert!(engine.witness().is_some());
    }

    #[test]
    fn without_escalation_the_core_bracket_stands() {
        let mut engine = WindowEngine::new(WindowConfig {
            tolerance: 0.0,
            slack: 0.0,
            exact_escalation: false,
            ..WindowConfig::new(1_000)
        });
        let report = engine.apply(&k22_batch(0));
        assert_eq!(report.mode, WindowMode::CoreRefresh);
        assert!(report.solve_stats.is_none());
        assert_eq!(engine.exact_solves(), 0);
        // The 2-approx bracket holds even though the band is unreachable.
        assert!(report.lower > 0.0);
        assert!(report.certified_factor <= 2.0 * (1.0 + 1e-6));
    }

    #[test]
    fn empty_windows_report_zero() {
        let mut engine = WindowEngine::new(WindowConfig::new(5));
        let report = engine.apply(&Batch::new());
        assert_eq!(report.m, 0);
        assert!(report.density.is_zero());
        assert_eq!(report.upper, 0.0);
        assert!(report.within_band);
        assert_eq!(report.mode, WindowMode::Incremental);
    }

    #[test]
    fn sketch_mode_refreshes_without_core_sweeps() {
        use crate::engine::SketchTier;
        use dds_sketch::SketchConfig;
        let mut engine = WindowEngine::new(WindowConfig {
            sketch: Some(SketchTier {
                min_m: 0,
                config: SketchConfig {
                    state_bound: 16,
                    ..SketchConfig::default()
                },
            }),
            ..WindowConfig::new(6)
        });
        // A rotating stream: blocks arrive and fully expire.
        for t in 0..30u64 {
            let mut batch = Batch::new();
            batch.insert_at(t, (t % 5) as u32, 10 + (t % 7) as u32);
            let report = engine.apply(&batch);
            assert_ne!(report.mode, WindowMode::ExactResolve);
            assert_ne!(report.mode, WindowMode::CoreRefresh);
            assert!(report.within_band, "t={t}");
            assert!(report.lower <= report.upper * (1.0 + 1e-9), "t={t}");
            if report.mode == WindowMode::SketchRefresh {
                let stats = report.sketch.expect("sketch refresh reports stats");
                assert!(stats.retained <= 16);
            }
        }
        assert_eq!(engine.exact_solves(), 0, "sketch mode never solves full");
        assert_eq!(engine.sketch_refreshes(), engine.refreshes());
        assert!(engine.sketch_refreshes() >= 1);
        assert!(engine.core_thresholds().is_none(), "no core in sketch mode");
    }

    #[test]
    fn replay_window_batches_by_count_and_time() {
        let events: Vec<TimedEvent> = (0..30u64)
            .map(|t| TimedEvent {
                time: t,
                event: Event::Insert((t % 6) as u32, ((t + 1) % 6) as u32),
            })
            .collect();
        let mut by_count = WindowEngine::new(WindowConfig::new(10));
        let a = replay_window(&mut by_count, &events, BatchBy::Count(7));
        let mut by_time = WindowEngine::new(WindowConfig::new(10));
        let b = replay_window(&mut by_time, &events, BatchBy::TimeWindow(10));
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 3);
        assert_eq!(a.last().unwrap().m, b.last().unwrap().m);
        assert_eq!(by_count.now(), 29);
    }
}
