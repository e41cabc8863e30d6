//! The stream engine: batched ingestion, certified lazy re-solve, epoch
//! reports, and replay helpers.

use std::time::{Duration, Instant};

use dds_core::{core_approx, parallel, ExactOptions, SolveContext, SolveStats};
use dds_graph::{DiGraph, Pair};
use dds_num::Density;
use dds_obs::{span, Counter, Gauge, Histogram, Registry, Tracer};
use dds_sketch::certify::{CertifiedBounds, SAFETY};
use dds_sketch::{SketchConfig, SketchEngine, SketchStats};

use crate::bounds::{sweep_anchor, BoundTracker, Cause};
use crate::events::{Batch, Event, TimedEvent};
use crate::snapshot::{SnapshotError, SnapshotKind, SnapshotReader, SnapshotWriter};
use crate::state::DynamicGraph;

/// Which full solver backs a re-solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// [`dds_core::DcExact`] — re-solves cost more, but every epoch's
    /// density is certified within `1 + tolerance` of the exact optimum.
    Exact,
    /// [`dds_core::core_approx`] — cheap `O(√m·(n+m))` re-solves; epochs
    /// are certified within `gap₀·(1 + tolerance)` where `gap₀ ≤ 2` is the
    /// bracket the approximation itself certifies at solve time.
    CoreApprox,
}

/// The sketch-fallback knob shared by [`StreamConfig`] and
/// [`crate::WindowConfig`]: when set, an engine maintains a
/// [`SketchEngine`] alongside its full edge set (`O(1)` per event) and —
/// whenever its band breaks while the live edge count is at least
/// `min_m` — replaces the full-graph solver with a **sketch refresh**: a
/// core sweep of the retained subgraph (bounded by
/// [`SketchConfig::state_bound`]), escalated to an exact-on-sketch solve
/// when the sweep's own bracket is loose. The witness pair is adopted as
/// the full-graph lower bound (its true live edge count is recounted and
/// then maintained per event); the upper bound re-anchors to the
/// structural `min(√m, √(d⁺·d⁻))`, so certification proceeds with the
/// same gap-relative band semantics as [`SolverKind::CoreApprox`] — paying
/// `O(state_bound)`-scale work instead of `O(√m·(n+m))` per refresh.
///
/// Below `min_m` the engine's configured full solver runs as usual (small
/// graphs are cheaper to solve outright than to approximate).
#[derive(Clone, Copy, Debug)]
pub struct SketchTier {
    /// Live edge count at which re-solves switch to the sketch tier.
    pub min_m: usize,
    /// Configuration of the maintained sketch.
    pub config: SketchConfig,
}

impl SketchTier {
    /// A tier that engages at `min_m` with the default sketch
    /// configuration.
    #[must_use]
    pub fn at(min_m: usize) -> Self {
        SketchTier {
            min_m,
            config: SketchConfig::default(),
        }
    }
}

/// Engine configuration.
///
/// The certificate band is relative *and* absolute: a re-solve fires when
///
/// ```text
/// upper > gap₀ · max(lower · (1 + tolerance), lower + slack)
/// ```
///
/// with `gap₀` the bracket width right after the last solve (1 for
/// [`SolverKind::Exact`]). The relative term is what you configure for
/// dense regimes ("stay within 25% of the optimum"); the absolute `slack`
/// keeps quiet low-density regimes from burning re-solves on noise (at
/// `ρ ≈ 2`, a 25% band is half an edge of density — nothing real).
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Allowed relative certificate degradation before a re-solve fires.
    /// Must be non-negative.
    pub tolerance: f64,
    /// Allowed absolute certificate degradation (density units). Must be
    /// non-negative. Set to 0 to make the band purely relative.
    pub slack: f64,
    /// Solver used for re-solves.
    pub solver: SolverKind,
    /// Worker threads of the exact re-solves, each one call of
    /// [`dds_core::parallel::dc_exact_parallel_with`] on the engine's warm
    /// context (1 runs the ratio search inline). Must be positive.
    pub threads: usize,
    /// Optional sketch fallback (see [`SketchTier`]).
    pub sketch: Option<SketchTier>,
}

impl Default for StreamConfig {
    /// Exact re-solves with `tolerance = 0.25` and `slack = 2.0`: every
    /// reported density is certified within `max(1.25×, +2.0)` of the true
    /// optimum — far tighter than the static 2-approximation — while
    /// scattered churn is absorbed incrementally for hundreds of epochs at
    /// a time. Tighten when re-solve cost is cheap for your graph sizes;
    /// loosen when updates are hot.
    fn default() -> Self {
        StreamConfig {
            tolerance: 0.25,
            slack: 2.0,
            solver: SolverKind::Exact,
            threads: 1,
            sketch: None,
        }
    }
}

/// What one [`StreamEngine::apply`] call did and certified.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// 1-based epoch number (one per applied batch).
    pub epoch: u64,
    /// Events in the batch, including no-ops.
    pub events: usize,
    /// Insertions that changed the graph.
    pub inserts: usize,
    /// Deletions that changed the graph.
    pub deletes: usize,
    /// No-op events (duplicate inserts, absent deletes, self-loops).
    pub ignored: usize,
    /// Vertex count after the batch.
    pub n: usize,
    /// Edge count after the batch.
    pub m: usize,
    /// Whether this epoch ran a full solver (certificate was invalidated).
    pub resolved: bool,
    /// Instrumentation of the epoch's exact re-solve (`None` for
    /// incremental epochs and for `CoreApprox` re-solves, which run no
    /// ratio searches). Warm-context effects — fewer flow decisions, arena
    /// and core-memo reuse — are visible here, which is how `dds stream`
    /// and experiment E12/E13 logs expose re-solve cost regressions.
    pub solve_stats: Option<SolveStats>,
    /// Sketch-tier counters, present when this epoch's re-solve went
    /// through the sketch fallback (the lifetime [`SketchStats`] of the
    /// maintained sketch at that moment).
    pub sketch: Option<SketchStats>,
    /// The reported density: the witness pair's exact density.
    pub density: Density,
    /// Certified lower bound (`density` as `f64`).
    pub lower: f64,
    /// Certified upper bound on the current optimum.
    pub upper: f64,
    /// Proven approximation factor of `density` (`upper / lower`).
    pub certified_factor: f64,
    /// Wall-clock time spent in this `apply` call.
    pub elapsed: Duration,
}

/// Incremental DDS maintenance over an edge stream (see crate docs).
///
/// The engine owns a [`SolveContext`] that survives across epochs: every
/// lazy re-solve warm-starts from the previous solve's witness (revalidated
/// on the mutated graph), recycles the flow arenas, and keeps the memoised
/// `[x, y]`-cores for as long as the graph is unchanged (the context's
/// graph-identity check invalidates them the moment a re-solve runs on a
/// mutated edge set).
#[derive(Debug)]
pub struct StreamEngine {
    config: StreamConfig,
    state: DynamicGraph,
    tracker: BoundTracker,
    ctx: SolveContext,
    sketch: Option<SketchEngine>,
    metrics: StreamMetrics,
    tracer: Tracer,
    last_solve_stats: Option<SolveStats>,
    last_resolve_sketched: bool,
}

/// Obs-backed lifetime counters of a [`StreamEngine`] (the `dds_stream_*`
/// series): standalone atomics by default — epoch numbering and the
/// `resolves()`/`sketch_resolves()` accessors read them as views — re-homed
/// into a shared registry by [`StreamEngine::attach_obs`]. The gauge and
/// the latency histograms are no-ops until attached.
#[derive(Debug, Default)]
struct StreamMetrics {
    epochs: Counter,
    resolves: Counter,
    sketch_resolves: Counter,
    inserts: Counter,
    deletes: Counter,
    ignored: Counter,
    resolve_cold: Counter,
    resolve_band: Counter,
    edges: Option<Gauge>,
    apply_latency: Histogram,
    resolve_latency: Histogram,
}

impl StreamMetrics {
    fn attach(&mut self, registry: &Registry) {
        self.epochs.rehome(registry, "dds_stream_epochs_total");
        self.resolves.rehome(registry, "dds_stream_resolves_total");
        self.sketch_resolves
            .rehome(registry, "dds_stream_sketch_resolves_total");
        self.inserts.rehome(registry, "dds_stream_inserts_total");
        self.deletes.rehome(registry, "dds_stream_deletes_total");
        self.ignored.rehome(registry, "dds_stream_ignored_total");
        self.resolve_cold
            .rehome(registry, "dds_stream_resolve_cause_cold_total");
        self.resolve_band
            .rehome(registry, "dds_stream_resolve_cause_band_total");
        self.edges = Some(registry.gauge("dds_stream_edges"));
        self.apply_latency = registry.histogram("dds_stream_apply_latency_us");
        self.resolve_latency = registry.histogram("dds_stream_resolve_latency_us");
    }
}

impl StreamEngine {
    /// A fresh engine over an empty graph.
    #[must_use]
    pub fn new(config: StreamConfig) -> Self {
        assert!(config.tolerance >= 0.0, "tolerance must be non-negative");
        assert!(config.slack >= 0.0, "slack must be non-negative");
        assert!(config.threads > 0, "threads must be positive");
        StreamEngine {
            state: DynamicGraph::new(),
            tracker: BoundTracker::new(config.tolerance, config.slack),
            ctx: SolveContext::new(),
            sketch: config.sketch.map(|tier| SketchEngine::new(tier.config)),
            config,
            metrics: StreamMetrics::default(),
            tracer: Tracer::detached(),
            last_solve_stats: None,
            last_resolve_sketched: false,
        }
    }

    /// Re-homes this engine's lifetime counters in `registry` (the
    /// `dds_stream_*` series, plus the `dds_exact_*` series of its solver
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

    /// Routes this engine's spans (`stream.apply` with a nested
    /// `stream.resolve`) to `tracer`. The default is the detached tracer:
    /// spans are inert and never read the clock.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Applies one batch: `O(batch)` bound maintenance, plus a full solve
    /// only if the certificate from the last solve no longer covers the
    /// configured tolerance.
    pub fn apply(&mut self, batch: &Batch) -> EpochReport {
        let start = Instant::now();
        let mut span = span!(self.tracer, "stream.apply");
        let (mut inserts, mut deletes, mut ignored) = (0usize, 0usize, 0usize);
        for ev in &batch.events {
            match ev.event {
                Event::Insert(u, v) => {
                    if self.state.insert(u, v) {
                        inserts += 1;
                        self.tracker.on_insert(u, v);
                        if let Some(sk) = &mut self.sketch {
                            sk.insert(u, v);
                        }
                    } else {
                        ignored += 1;
                    }
                }
                Event::Delete(u, v) => {
                    if self.state.delete(u, v) {
                        deletes += 1;
                        self.tracker.on_delete(u, v);
                        if let Some(sk) = &mut self.sketch {
                            sk.delete(u, v);
                        }
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
            .cause(&self.state, Density::ZERO, self.tracker.gap());
        let resolved = cause.is_some();
        if let Some(cause) = cause {
            match cause {
                Cause::Cold => self.metrics.resolve_cold.inc(),
                Cause::Band => self.metrics.resolve_band.inc(),
            }
            self.resolve();
        }
        self.metrics.inserts.add(inserts as u64);
        self.metrics.deletes.add(deletes as u64);
        self.metrics.ignored.add(ignored as u64);
        if let Some(g) = &self.metrics.edges {
            g.set(self.state.m() as u64);
        }
        span.record("epoch", epoch);
        span.record("events", batch.events.len() as u64);
        span.record("m", self.state.m() as u64);
        span.record_flag("resolved", resolved);

        let bounds = self.bounds();
        let elapsed = start.elapsed();
        self.metrics.apply_latency.observe(elapsed);
        EpochReport {
            epoch,
            events: batch.events.len(),
            inserts,
            deletes,
            ignored,
            n: self.state.n(),
            m: self.state.m(),
            resolved,
            solve_stats: if resolved {
                self.last_solve_stats
            } else {
                None
            },
            sketch: if resolved && self.last_resolve_sketched {
                self.sketch.as_ref().map(SketchEngine::stats)
            } else {
                None
            },
            density: bounds.lower,
            lower: bounds.lower.to_f64(),
            upper: bounds.upper,
            certified_factor: bounds.certified_factor(),
            elapsed,
        }
    }

    fn resolve(&mut self) {
        let timer = self.metrics.resolve_latency.timer();
        let mut span = span!(self.tracer, "stream.resolve");
        self.last_resolve_sketched = self
            .config
            .sketch
            .is_some_and(|tier| self.state.m() >= tier.min_m);
        if self.last_resolve_sketched {
            // Sketch tier: an exact solve of the retained subgraph only.
            // Its witness is a genuine pair of the full graph (vertex ids
            // transfer), so the tracker recounts its true edges — the
            // lower bound is full-graph exact even though no full solver
            // ran — and the band runs gap-relative, like a `CoreApprox`
            // solve.
            let sk = self.sketch.as_mut().expect("tier implies a sketch");
            self.last_solve_stats = self.tracker.sketch_reanchor(sk, &self.state);
            self.metrics.sketch_resolves.inc();
        } else {
            let g = self.state.materialize();
            let (pair, rho_cert) = match self.config.solver {
                SolverKind::Exact => {
                    // Warm start: the context carries the previous epoch's
                    // witness, arenas, and (graph permitting) memoised cores.
                    let report = parallel::dc_exact_parallel_with(
                        &mut self.ctx,
                        &g,
                        ExactOptions::default(),
                        self.config.threads,
                    );
                    self.last_solve_stats = Some(report.stats());
                    let rho = report.solution.density.to_f64() * (1.0 + SAFETY);
                    (report.solution.pair, rho)
                }
                SolverKind::CoreApprox => {
                    let report = core_approx(&g);
                    self.last_solve_stats = None;
                    let rho = sweep_anchor(&report);
                    (report.solution.pair, rho)
                }
            };
            self.tracker
                .reanchor(&self.state, Some(pair), rho_cert, Density::ZERO);
        }
        self.metrics.resolves.inc();
        span.record_flag("sketched", self.last_resolve_sketched);
        span.record("m", self.state.m() as u64);
        span.close();
        timer.stop();
    }

    /// Forces a full solve now, regardless of the certificate, and returns
    /// the refreshed bounds.
    pub fn force_resolve(&mut self) -> CertifiedBounds {
        self.resolve();
        self.bounds()
    }

    /// The current certified bracket `lower ≤ ρ_opt ≤ upper`.
    #[must_use]
    pub fn bounds(&self) -> CertifiedBounds {
        self.tracker.bounds(&self.state, Density::ZERO)
    }

    /// The maintained witness pair (the last solve's answer), if any.
    #[must_use]
    pub fn witness(&self) -> Option<&Pair> {
        self.tracker.witness()
    }

    /// Number of batches applied so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.metrics.epochs.get()
    }

    /// Number of full solves run so far.
    #[must_use]
    pub fn resolves(&self) -> u64 {
        self.metrics.resolves.get()
    }

    /// How many of those re-solves went through the sketch tier.
    #[must_use]
    pub fn sketch_resolves(&self) -> u64 {
        self.metrics.sketch_resolves.get()
    }

    /// Lifetime counters of the maintained sketch, when the tier is
    /// configured.
    #[must_use]
    pub fn sketch_stats(&self) -> Option<SketchStats> {
        self.sketch.as_ref().map(SketchEngine::stats)
    }

    /// Instrumentation of the most recent exact re-solve, if any.
    #[must_use]
    pub fn last_solve_stats(&self) -> Option<SolveStats> {
        self.last_solve_stats
    }

    /// The engine's long-lived solver context (inspection: solve count,
    /// lifetime arena/core reuse totals).
    #[must_use]
    pub fn context(&self) -> &SolveContext {
        &self.ctx
    }

    /// Current vertex count.
    #[must_use]
    pub fn n(&self) -> usize {
        self.state.n()
    }

    /// Current edge count.
    #[must_use]
    pub fn m(&self) -> usize {
        self.state.m()
    }

    /// Freezes the current graph into the CSR form the static solvers use.
    #[must_use]
    pub fn materialize(&self) -> DiGraph {
        self.state.materialize()
    }

    /// Serializes the engine to the versioned snapshot format (see
    /// [`crate::snapshot`]): the live edge set, the certificate state
    /// (`ρ₁`, the gap, the witness pair, the delta and surviving-certified
    /// edge sets — everything the drift bounds need to keep certifying
    /// bit-identically after a restart), and the sketch tier's subsampling
    /// level when one is maintained. The lifetime metric counters ride
    /// along so a restored engine's `dds_stream_*_total` series continue
    /// instead of restarting at zero. `cursor` is the source-stream byte
    /// offset a follow loop should resume from (0 if unused).
    ///
    /// Round-trip identity holds: [`StreamEngine::restore`] of these bytes
    /// yields an engine whose own `snapshot` is byte-identical.
    #[must_use]
    pub fn snapshot(&self, cursor: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SnapshotKind::Stream, cursor);
        w.put_u64(self.state.n() as u64);
        w.put_u64(self.metrics.epochs.get());
        w.put_u64(self.metrics.resolves.get());
        w.put_u64(self.metrics.sketch_resolves.get());
        w.put_u64(self.metrics.inserts.get());
        w.put_u64(self.metrics.deletes.get());
        w.put_u64(self.metrics.ignored.get());
        w.put_u64(self.metrics.resolve_cold.get());
        w.put_u64(self.metrics.resolve_band.get());
        let mut edges: Vec<_> = self.state.edges().collect();
        w.put_edges(&mut edges);
        let (rho, gap, witness, mut drift, mut cert) = self.tracker.snapshot_state();
        w.put_f64(rho);
        w.put_f64(gap);
        w.put_pair(witness);
        w.put_edges(&mut drift);
        w.put_edges(&mut cert);
        match &self.sketch {
            Some(sk) => {
                w.put_u8(1);
                w.put_u32(sk.level());
            }
            None => w.put_u8(0),
        }
        w.finish()
    }

    /// Reconstructs an engine from snapshot bytes under `config` (the
    /// config is the caller's, like [`StreamEngine::new`] — snapshots
    /// carry state, not policy). Returns the engine and the stored stream
    /// cursor. The solver context starts cold (arena/memo warmth is a
    /// perf property, not state); the sketch tier, when configured, is
    /// rebuilt deterministically from the edge set at the stored level.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] on malformed bytes, a kind/
    /// version mismatch, or an edge list violating the simple-graph
    /// invariants.
    pub fn restore(config: StreamConfig, bytes: &[u8]) -> Result<(Self, u64), SnapshotError> {
        let (mut r, cursor) = SnapshotReader::open(bytes, SnapshotKind::Stream)?;
        let n = r.take_u64()? as usize;
        let epoch = r.take_u64()?;
        let resolves = r.take_u64()?;
        let sketch_resolves = r.take_u64()?;
        let inserts = r.take_u64()?;
        let deletes = r.take_u64()?;
        let ignored = r.take_u64()?;
        let resolve_cold = r.take_u64()?;
        let resolve_band = r.take_u64()?;
        let edges = r.take_edges()?;
        let rho = r.take_f64()?;
        let gap = r.take_f64()?;
        let witness = r.take_pair()?;
        let drift = r.take_edges()?;
        let cert = r.take_edges()?;
        let sketch_level = match r.take_u8()? {
            0 => None,
            1 => Some(r.take_u32()?),
            other => {
                return Err(SnapshotError::Format(format!(
                    "bad sketch presence byte {other}"
                )))
            }
        };
        r.finish()?;

        let mut state = DynamicGraph::new();
        for &(u, v) in &edges {
            if !state.insert(u, v) {
                return Err(SnapshotError::Format(format!(
                    "snapshot edge list violates the simple-graph invariants at {u} -> {v}"
                )));
            }
        }
        state.ensure_vertices(n);
        // Untrusted ids must be range-checked before anything sizes a
        // bitmap to n — a flipped byte must be a Format error, not an
        // index panic.
        if let Some(pair) = &witness {
            if let Some(&id) = pair
                .s()
                .iter()
                .chain(pair.t())
                .find(|&&id| id as usize >= state.n())
            {
                return Err(SnapshotError::Format(format!(
                    "witness vertex {id} is beyond the stored vertex count {}",
                    state.n()
                )));
            }
        }
        let sketch = config.sketch.map(|tier| {
            SketchEngine::restore_at(
                tier.config,
                sketch_level.unwrap_or(0),
                edges.iter().copied(),
            )
        });
        let mut engine = StreamEngine::new(config);
        engine
            .tracker
            .restore(&state, rho, gap, witness, &drift, cert);
        engine.state = state;
        engine.sketch = sketch;
        engine.metrics.epochs.store(epoch);
        engine.metrics.resolves.store(resolves);
        engine.metrics.sketch_resolves.store(sketch_resolves);
        engine.metrics.inserts.store(inserts);
        engine.metrics.deletes.store(deletes);
        engine.metrics.ignored.store(ignored);
        engine.metrics.resolve_cold.store(resolve_cold);
        engine.metrics.resolve_band.store(resolve_band);
        Ok((engine, cursor))
    }

    /// Writes [`StreamEngine::snapshot`] to `path` atomically.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Io`] on write failure.
    pub fn save_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
        cursor: u64,
    ) -> Result<(), SnapshotError> {
        crate::snapshot::write_snapshot_file(&self.snapshot(cursor), path)
    }

    /// Reads a snapshot file and [`StreamEngine::restore`]s from it.
    ///
    /// # Errors
    /// Propagates read and format errors.
    pub fn restore_from(
        config: StreamConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(Self, u64), SnapshotError> {
        let bytes = crate::snapshot::read_snapshot_file(path)?;
        StreamEngine::restore(config, &bytes)
    }
}

/// How [`replay`] groups a timestamped event stream into batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchBy {
    /// Fixed-size batches of `n` events (the last may be smaller).
    Count(usize),
    /// One batch per half-open time window `[k·w, (k+1)·w)`; empty
    /// windows produce no batch.
    TimeWindow(u64),
}

/// Slices `events` into the batches `batch_by` describes (shared by
/// [`replay`], [`crate::replay_window`], and the CLI's whole-file replays
/// of `dds stream` and `dds sketch`).
///
/// # Panics
/// Panics if the batch size or window is zero.
pub fn batch_slices(events: &[TimedEvent], batch_by: BatchBy) -> Vec<&[TimedEvent]> {
    match batch_by {
        BatchBy::Count(size) => {
            assert!(size > 0, "batch size must be positive");
            events.chunks(size).collect()
        }
        BatchBy::TimeWindow(window) => {
            assert!(window > 0, "time window must be positive");
            let mut slices = Vec::new();
            let mut start = 0;
            while start < events.len() {
                let bucket = events[start].time / window;
                let mut end = start + 1;
                while end < events.len() && events[end].time / window == bucket {
                    end += 1;
                }
                slices.push(&events[start..end]);
                start = end;
            }
            slices
        }
    }
}

/// Replays `events` through `engine` in batches, returning one report per
/// epoch.
///
/// # Panics
/// Panics if the batch size or window is zero.
pub fn replay(
    engine: &mut StreamEngine,
    events: &[TimedEvent],
    batch_by: BatchBy,
) -> Vec<EpochReport> {
    batch_slices(events, batch_by)
        .into_iter()
        .map(|chunk| engine.apply(&Batch::from_events(chunk.to_vec())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::validate::brute_force_dds;
    use dds_core::DcExact;
    use dds_graph::gen;

    fn insert_all(engine: &mut StreamEngine, edges: &[(u32, u32)]) -> EpochReport {
        let mut batch = Batch::new();
        for &(u, v) in edges {
            batch.insert(u, v);
        }
        engine.apply(&batch)
    }

    #[test]
    fn first_batch_solves_and_matches_exact() {
        let mut engine = StreamEngine::new(StreamConfig::default());
        let report = insert_all(&mut engine, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        assert!(report.resolved);
        assert_eq!(report.density, Density::new(4, 2, 2));
        assert!(report.certified_factor <= 1.0 + 1e-6);
    }

    #[test]
    fn noop_events_are_counted_not_applied() {
        let mut engine = StreamEngine::new(StreamConfig::default());
        insert_all(&mut engine, &[(0, 1)]);
        let mut batch = Batch::new();
        batch.insert(0, 1); // duplicate
        batch.delete(5, 6); // absent
        batch.insert(2, 2); // self-loop
        let report = engine.apply(&batch);
        assert_eq!(report.ignored, 3);
        assert_eq!((report.inserts, report.deletes), (0, 0));
        assert_eq!(report.m, 1);
    }

    #[test]
    fn distant_noise_is_absorbed_incrementally() {
        let mut engine = StreamEngine::new(StreamConfig::default());
        // A strong clique: ρ = 20/√20 ≈ 4.47.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 4..9u32 {
                edges.push((u, v));
            }
        }
        assert!(insert_all(&mut engine, &edges).resolved);
        // Sparse, spread-out noise: every epoch must stay incremental.
        for i in 0..5u32 {
            let mut batch = Batch::new();
            batch.insert(20 + i, 40 + i);
            let report = engine.apply(&batch);
            assert!(!report.resolved, "epoch {i} should not re-solve");
            assert!(report.certified_factor <= 1.1 * (1.0 + 1e-6));
        }
    }

    #[test]
    fn deleting_the_witness_forces_a_resolve() {
        let mut engine = StreamEngine::new(StreamConfig::default());
        let mut edges = vec![(0, 2), (0, 3), (1, 2), (1, 3)];
        edges.extend([(10, 11), (11, 12)]);
        insert_all(&mut engine, &edges);
        // Tear the dense block down edge by edge; the witness density
        // collapses, the gap blows past tolerance, and a re-solve fires.
        let mut resolved_any = false;
        for &(u, v) in &[(0, 2), (0, 3), (1, 2), (1, 3)] {
            let mut batch = Batch::new();
            batch.delete(u, v);
            resolved_any |= engine.apply(&batch).resolved;
        }
        assert!(resolved_any);
        let bounds = engine.bounds();
        let exact = DcExact::new().solve(&engine.materialize()).solution.density;
        assert!(bounds.lower <= exact);
        assert!(exact.to_f64() <= bounds.upper * (1.0 + 1e-9));
    }

    #[test]
    fn bounds_bracket_the_exact_optimum_under_churn() {
        let g = gen::gnm(12, 40, 7);
        let mut engine = StreamEngine::new(StreamConfig {
            tolerance: 0.5,
            slack: 0.0,
            solver: SolverKind::Exact,
            ..Default::default()
        });
        let all: Vec<(u32, u32)> = g.edges().collect();
        insert_all(&mut engine, &all);
        // Alternate deleting and re-inserting slices of the edge set.
        for round in 0..6 {
            let mut batch = Batch::new();
            for &(u, v) in all.iter().skip(round % 3).step_by(3).take(4) {
                if round % 2 == 0 {
                    batch.delete(u, v);
                } else {
                    batch.insert(u, v);
                }
            }
            let report = engine.apply(&batch);
            let exact = brute_force_dds(&engine.materialize()).density;
            assert!(report.density <= exact, "lower bound must hold");
            assert!(
                exact.to_f64() <= report.upper * (1.0 + 1e-9),
                "upper bound must hold: exact {exact} vs upper {}",
                report.upper
            );
        }
    }

    #[test]
    fn core_approx_solver_certifies_within_its_gap() {
        let mut engine = StreamEngine::new(StreamConfig {
            tolerance: 0.25,
            slack: 0.0,
            solver: SolverKind::CoreApprox,
            ..Default::default()
        });
        let g = gen::planted(40, 60, 4, 5, 1.0, 3).graph;
        let all: Vec<(u32, u32)> = g.edges().collect();
        let report = insert_all(&mut engine, &all);
        assert!(report.resolved);
        let exact = DcExact::new().solve(&engine.materialize()).solution.density;
        assert!(report.density <= exact);
        assert!(exact.to_f64() <= report.upper * (1.0 + 1e-9));
        // The approximation's own guarantee: factor ≤ 2 (plus safety).
        assert!(report.certified_factor <= 2.0 * (1.0 + 1e-6));
    }

    #[test]
    fn emptying_the_graph_resets_to_zero() {
        let mut engine = StreamEngine::new(StreamConfig::default());
        insert_all(&mut engine, &[(0, 1), (1, 2)]);
        let mut batch = Batch::new();
        batch.delete(0, 1).delete(1, 2);
        let report = engine.apply(&batch);
        assert_eq!(report.m, 0);
        assert!(report.density.is_zero());
        assert_eq!(report.upper, 0.0);
        assert!(!report.resolved, "empty graph needs no solver");
    }

    #[test]
    fn resolves_reuse_the_engine_context_and_report_stats() {
        let mut engine = StreamEngine::new(StreamConfig {
            tolerance: 0.0,
            slack: 0.0,
            solver: SolverKind::Exact,
            ..Default::default()
        });
        // Zero tolerance: every growing batch re-solves.
        let g = gen::planted(30, 50, 4, 4, 1.0, 6).graph;
        let all: Vec<(u32, u32)> = g.edges().collect();
        let mut stats = Vec::new();
        for chunk in all.chunks(10) {
            let report = insert_all(&mut engine, chunk);
            assert!(report.resolved, "tolerance 0 must re-solve every epoch");
            let s = report.solve_stats.expect("exact re-solve reports stats");
            assert!(s.flow_decisions > 0);
            stats.push(s);
        }
        assert_eq!(engine.context().solves() as u64, engine.resolves());
        assert_eq!(engine.last_solve_stats(), stats.last().copied());
        // Warm-started re-solves recycle arenas across epochs: the second
        // solve onwards starts with already-allocated buffers.
        assert!(
            stats.iter().skip(1).all(|s| s.arena_reuse_hits > 0),
            "context reuse must show up in the stats: {stats:?}"
        );
        // And the maintained answer still matches a cold solve.
        let cold = DcExact::new().solve(&engine.materialize());
        assert_eq!(engine.bounds().lower, cold.solution.density);
    }

    #[test]
    fn parallel_resolves_match_the_serial_engine() {
        let g = gen::planted(30, 60, 4, 4, 1.0, 9).graph;
        let all: Vec<(u32, u32)> = g.edges().collect();
        let mut serial = StreamEngine::new(StreamConfig {
            tolerance: 0.0,
            slack: 0.0,
            ..Default::default()
        });
        let mut parallel = StreamEngine::new(StreamConfig {
            tolerance: 0.0,
            slack: 0.0,
            threads: 3,
            ..Default::default()
        });
        for chunk in all.chunks(15) {
            let a = insert_all(&mut serial, chunk);
            let b = insert_all(&mut parallel, chunk);
            assert!(a.resolved && b.resolved);
            assert_eq!(a.density, b.density, "thread count changed the answer");
        }
        assert_eq!(serial.resolves(), parallel.resolves());
    }

    #[test]
    fn sketch_tier_resolves_without_a_full_solver() {
        use dds_sketch::SketchConfig;
        let mut engine = StreamEngine::new(StreamConfig {
            tolerance: 0.25,
            slack: 2.0,
            sketch: Some(SketchTier {
                min_m: 0, // every re-solve goes through the sketch
                config: SketchConfig {
                    state_bound: 24,
                    ..SketchConfig::default()
                },
            }),
            ..Default::default()
        });
        let g = gen::planted(40, 120, 5, 5, 1.0, 4).graph;
        let all: Vec<(u32, u32)> = g.edges().collect();
        let mut sketched = 0u64;
        for chunk in all.chunks(20) {
            let report = insert_all(&mut engine, chunk);
            if report.resolved {
                let stats = report.sketch.expect("sketch tier must report stats");
                assert!(stats.retained <= 24, "state bound broken");
                sketched += 1;
            }
            // The bracket stays sound even though no full solver ever ran.
            let exact = DcExact::new().solve(&engine.materialize()).solution.density;
            assert!(report.density <= exact, "lower bound must hold");
            assert!(exact.to_f64() <= report.upper * (1.0 + 1e-9));
        }
        assert!(sketched >= 1, "at least the warm-up resolve sketches");
        assert_eq!(engine.sketch_resolves(), engine.resolves());
        let stats = engine.sketch_stats().expect("tier keeps a sketch");
        assert_eq!(stats.refreshes, engine.sketch_resolves());
        assert!(stats.solve.flow_decisions > 0, "exact-on-sketch ran flows");
    }

    #[test]
    fn sketch_tier_below_threshold_uses_the_full_solver() {
        let mut engine = StreamEngine::new(StreamConfig {
            sketch: Some(SketchTier::at(1_000_000)),
            ..Default::default()
        });
        let report = insert_all(&mut engine, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        assert!(report.resolved);
        assert!(report.sketch.is_none(), "below min_m the exact tier runs");
        assert_eq!(report.density, Density::new(4, 2, 2));
        assert_eq!(engine.sketch_resolves(), 0);
    }

    #[test]
    fn replay_by_count_and_window_agree_on_final_state() {
        let events: Vec<TimedEvent> = (0..30u32)
            .map(|i| TimedEvent {
                time: u64::from(i),
                event: Event::Insert(i % 6, (i + 1) % 6),
            })
            .collect();
        let mut by_count = StreamEngine::new(StreamConfig::default());
        let mut by_window = StreamEngine::new(StreamConfig::default());
        let a = replay(&mut by_count, &events, BatchBy::Count(7));
        let b = replay(&mut by_window, &events, BatchBy::TimeWindow(10));
        assert_eq!(a.last().unwrap().m, b.last().unwrap().m);
        assert_eq!(by_count.m(), by_window.m());
        assert_eq!(a.len(), 5); // ceil(30 / 7)
        assert_eq!(b.len(), 3); // three 10-tick windows
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let g = gen::planted(30, 60, 4, 4, 1.0, 11).graph;
        let all: Vec<(u32, u32)> = g.edges().collect();
        let config = StreamConfig::default();
        let mut engine = StreamEngine::new(config);
        insert_all(&mut engine, &all[..40]);
        // Leave some drift in flight so the snapshot carries a non-trivial
        // certificate state (delta edges, eroded certified set).
        let mut batch = Batch::new();
        for &(u, v) in &all[40..50] {
            batch.insert(u, v);
        }
        batch.delete(all[0].0, all[0].1);
        engine.apply(&batch);

        let bytes = engine.snapshot(777);
        let (restored, cursor) = StreamEngine::restore(config, &bytes).unwrap();
        assert_eq!(cursor, 777);
        assert_eq!(restored.snapshot(777), bytes, "round-trip identity");
        assert_eq!((restored.n(), restored.m()), (engine.n(), engine.m()));
        assert_eq!(restored.epoch(), engine.epoch());
        assert_eq!(restored.resolves(), engine.resolves());
        let (a, b) = (engine.bounds(), restored.bounds());
        assert_eq!(a.lower, b.lower);
        assert_eq!(a.upper.to_bits(), b.upper.to_bits(), "certificate state");
        assert_eq!(restored.witness(), engine.witness());
    }

    #[test]
    fn snapshot_preserves_the_sketch_tier_level() {
        let config = StreamConfig {
            sketch: Some(SketchTier {
                min_m: 0,
                config: dds_sketch::SketchConfig {
                    state_bound: 16,
                    ..dds_sketch::SketchConfig::default()
                },
            }),
            ..Default::default()
        };
        let mut engine = StreamEngine::new(config);
        let g = gen::gnm(40, 200, 5);
        insert_all(&mut engine, &g.edges().collect::<Vec<_>>());
        let level = engine.sketch_stats().unwrap().level;
        assert!(level > 0, "200 edges past bound 16 must subsample");
        let bytes = engine.snapshot(0);
        let (restored, _) = StreamEngine::restore(config, &bytes).unwrap();
        let stats = restored.sketch_stats().unwrap();
        assert_eq!(stats.level, level);
        assert_eq!(
            stats.retained,
            engine.sketch_stats().unwrap().retained,
            "deterministic admission must rebuild the same sample"
        );
        assert_eq!(restored.snapshot(0), bytes);
    }

    #[test]
    fn restore_rejects_corrupt_and_mismatched_snapshots() {
        let mut engine = StreamEngine::new(StreamConfig::default());
        insert_all(&mut engine, &[(0, 1), (1, 2)]);
        let bytes = engine.snapshot(0);
        assert!(StreamEngine::restore(StreamConfig::default(), &bytes[..10]).is_err());
        let mut corrupt = bytes.clone();
        corrupt[4] = 200; // version byte
        assert!(StreamEngine::restore(StreamConfig::default(), &corrupt).is_err());
        assert!(StreamEngine::restore(StreamConfig::default(), b"junk").is_err());
    }

    #[test]
    fn restore_rejects_out_of_range_witness_ids() {
        use crate::snapshot::{SnapshotKind, SnapshotWriter};
        // A hand-built snapshot whose witness mentions vertex 9 while the
        // graph holds ids < 2: must be a Format error, not an index panic.
        let mut w = SnapshotWriter::new(SnapshotKind::Stream, 0);
        w.put_u64(2); // n
        w.put_u64(1); // epoch
        w.put_u64(1); // resolves
        w.put_u64(0); // sketch_resolves
        w.put_u64(1); // inserts
        w.put_u64(0); // deletes
        w.put_u64(0); // ignored
        w.put_u64(1); // resolve_cause_cold
        w.put_u64(0); // resolve_cause_band
        w.put_edges(&mut [(0, 1)]);
        w.put_f64(1.0); // rho at solve
        w.put_f64(1.0); // gap
        w.put_pair(Some(&Pair::new(vec![0], vec![9])));
        w.put_edges(&mut []); // drift
        w.put_edges(&mut []); // cert
        w.put_u8(0); // no sketch
        let err = StreamEngine::restore(StreamConfig::default(), &w.finish())
            .expect_err("out-of-range witness must be rejected");
        assert!(err.to_string().contains("witness vertex 9"), "{err}");
    }

    #[test]
    fn force_resolve_tightens_bounds() {
        let mut engine = StreamEngine::new(StreamConfig {
            tolerance: 5.0,
            slack: 0.0,
            solver: SolverKind::Exact,
            ..Default::default()
        });
        insert_all(&mut engine, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        // Loose tolerance lets drift accumulate without re-solving.
        for i in 0..4u32 {
            let mut batch = Batch::new();
            batch.insert(30 + i, 60 + i);
            assert!(!engine.apply(&batch).resolved);
        }
        let before = engine.bounds();
        let after = engine.force_resolve();
        assert!(after.upper <= before.upper * (1.0 + 1e-9));
        assert!(after.certified_factor() <= before.certified_factor());
    }
}
