//! The sharded engine: deterministic edge routing, one serial batch
//! apply over the partitions, merged certification, and snapshot/restore.

use std::time::{Duration, Instant};

use dds_core::SolveStats;
use dds_graph::{DiGraph, GraphBuilder, Pair, VertexId};
use dds_num::Density;
use dds_obs::{span, Counter, Gauge, Histogram, Registry, Tracer};
use dds_sketch::certify::{
    refresh_due, structural_upper, CertifiedBounds, MergedCertifier, WitnessTracker,
};
use dds_sketch::{MaxTracker, SketchConfig, SketchEngine};
use dds_stream::snapshot::{SnapshotError, SnapshotKind, SnapshotReader, SnapshotWriter};
use dds_stream::{denser_pair, Batch, Event, TimedEvent};

use crate::partition::Partition;

/// Configuration of a [`ShardedEngine`].
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of edge partitions `K`. Must be positive.
    pub shards: usize,
    /// Fraction of the pooled retained set that must have churned since
    /// the last merged refresh before one fires. Must be positive.
    pub refresh_drift: f64,
    /// The per-shard sketch configuration. The admission `seed` is shared
    /// by every shard (that is what makes the union sound) and
    /// `state_bound` bounds both each shard's retained set and the merged
    /// sample (the merge re-enforces it, raising the level if the union
    /// overflows).
    pub sketch: SketchConfig,
}

impl Default for ShardConfig {
    /// 4 shards, a refresh once a quarter of the pooled sample has
    /// churned (drift 0.25), and the default sketch configuration.
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            refresh_drift: 0.25,
            sketch: SketchConfig::default(),
        }
    }
}

/// Lifetime counters of a [`ShardedEngine`].
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Retained edges right now, summed over shards.
    pub retained: usize,
    /// Per-shard subsampling levels.
    pub levels: Vec<u32>,
    /// Level of the last merged refresh's sample.
    pub merged_level: u32,
    /// Merged refreshes run so far.
    pub refreshes: u64,
    /// How many of those escalated to an exact solve of the merged sample.
    pub escalations: u64,
    /// How many ran with the cold-start one-shot escalation armed.
    pub cold_escalations: u64,
    /// Wall-clock spent in the batch applies.
    pub apply: Duration,
    /// Wall-clock spent certifying (counter merges, merged refreshes).
    pub certify: Duration,
    /// Accumulated instrumentation of every escalated merged solve.
    pub solve: SolveStats,
}

/// What one [`ShardedEngine::apply`] call did and certified.
#[derive(Clone, Debug)]
pub struct ShardReport {
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
    /// Vertex count after the batch (one past the largest id seen).
    pub n: usize,
    /// Live edge count after the batch, summed over shards.
    pub m: u64,
    /// Retained (sampled) edges after the batch, summed over shards.
    pub retained: usize,
    /// Whether this epoch ran a merged refresh.
    pub refreshed: bool,
    /// The merged sample's level, when this epoch refreshed.
    pub merged_level: Option<u32>,
    /// The witness pair's exact density on the **full** graph — the
    /// certified lower bound.
    pub density: Density,
    /// `density` as `f64`.
    pub lower: f64,
    /// Certified upper bound: the structural `min(√m, √(d⁺·d⁻))` over the
    /// exact summed counters.
    pub upper: f64,
    /// Proven approximation factor (`upper / lower`).
    pub certified_factor: f64,
    /// Instrumentation of this epoch's escalated merged solve (`None` for
    /// unescalated refreshes and quiet epochs).
    pub solve_stats: Option<SolveStats>,
    /// Wall-clock spent applying the batch.
    pub apply: Duration,
    /// Wall-clock spent certifying the epoch.
    pub certify: Duration,
    /// Total wall-clock of this `apply` call.
    pub elapsed: Duration,
}

/// A decoded snapshot payload, identity not yet checked.
#[derive(Debug)]
struct ShardSnapshotParts {
    shards: usize,
    seed: u64,
    state_bound: usize,
    n: usize,
    epoch: u64,
    refreshes: u64,
    escalations: u64,
    cold_escalations: u64,
    inserts: u64,
    deletes: u64,
    ignored: u64,
    merged_level: u32,
    escalate_next: bool,
    levels: Vec<(u32, u64)>,
    edges: Vec<(VertexId, VertexId)>,
    witness: Option<Pair>,
}

impl ShardSnapshotParts {
    /// Rejects a checkpoint whose identity fields (shard count, admission
    /// seed, state bound) disagree with `config`, naming each mismatched
    /// field. Partitioning and admission are pure functions of these, so
    /// restoring across a mismatch would silently re-hash every edge onto
    /// different shards — the failure `dds shard --resume` must surface as
    /// an error, never absorb.
    fn check_identity(&self, config: ShardConfig) -> Result<(), SnapshotError> {
        let mut wrong = Vec::new();
        if self.shards != config.shards {
            wrong.push(format!(
                "shard count (checkpoint {}, requested {})",
                self.shards, config.shards
            ));
        }
        if self.seed != config.sketch.seed {
            wrong.push(format!(
                "admission seed (checkpoint {:#x}, requested {:#x})",
                self.seed, config.sketch.seed
            ));
        }
        if self.state_bound != config.sketch.state_bound {
            wrong.push(format!(
                "state bound (checkpoint {}, requested {})",
                self.state_bound, config.sketch.state_bound
            ));
        }
        if wrong.is_empty() {
            return Ok(());
        }
        Err(SnapshotError::Format(format!(
            "checkpoint identity mismatch: {} — edge routing and sample admission are derived \
             from these, so resuming would silently re-hash edges onto different shards; rerun \
             with the checkpoint's flags or start fresh without --resume",
            wrong.join(", ")
        )))
    }
}

/// Edge-partitioned DDS maintenance (see the crate docs).
#[derive(Debug)]
pub struct ShardedEngine {
    config: ShardConfig,
    parts: Vec<Partition>,
    /// The incumbent witness with its full-graph edge count maintained per
    /// event.
    witness: WitnessTracker,
    /// The merged refresh with its carried one-shot escalation.
    certifier: MergedCertifier,
    metrics: ShardMetrics,
    tracer: Tracer,
    /// Registry to re-home each merged refresh's fresh [`SketchEngine`]
    /// into (the merged engines are short-lived; their `dds_sketch_*`
    /// counters only survive by summing into a shared registry).
    obs: Option<Registry>,
    solve_totals: SolveStats,
    apply_wall: Duration,
    certify_wall: Duration,
}

/// Obs-backed lifetime counters of a [`ShardedEngine`] (the `dds_shard_*`
/// series): standalone atomics by default — [`ShardStats`] and the public
/// accessors read them as views — re-homed into a shared registry by
/// [`ShardedEngine::attach_obs`]. The gauges and the latency histograms
/// are no-ops until attached.
#[derive(Debug, Default)]
struct ShardMetrics {
    epochs: Counter,
    refreshes: Counter,
    escalations: Counter,
    cold_escalations: Counter,
    inserts: Counter,
    deletes: Counter,
    ignored: Counter,
    retained: Option<Gauge>,
    merged_level: Option<Gauge>,
    edges: Option<Gauge>,
    apply_latency: Histogram,
    certify_latency: Histogram,
    merge_latency: Histogram,
}

impl ShardMetrics {
    fn attach(&mut self, registry: &Registry) {
        self.epochs.rehome(registry, "dds_shard_epochs_total");
        self.refreshes.rehome(registry, "dds_shard_refreshes_total");
        self.escalations
            .rehome(registry, "dds_shard_escalations_total");
        self.cold_escalations
            .rehome(registry, "dds_shard_cold_escalations_total");
        self.inserts.rehome(registry, "dds_shard_inserts_total");
        self.deletes.rehome(registry, "dds_shard_deletes_total");
        self.ignored.rehome(registry, "dds_shard_ignored_total");
        self.retained = Some(registry.gauge("dds_shard_retained"));
        self.merged_level = Some(registry.gauge("dds_shard_merged_level"));
        self.edges = Some(registry.gauge("dds_shard_edges"));
        self.apply_latency = registry.histogram("dds_shard_apply_latency_us");
        self.certify_latency = registry.histogram("dds_shard_certify_latency_us");
        self.merge_latency = registry.histogram("dds_shard_merge_latency_us");
    }
}

/// The deterministic edge router: a seeded splitmix64 finaliser over the
/// packed endpoints, salted away from the admission hash so routing and
/// sampling stay independent. Same `(seed, u, v)` → same shard, always —
/// on every run, on every restore.
fn route_hash(seed: u64, u: VertexId, v: VertexId) -> u64 {
    let mut z = (seed ^ 0xA076_1D64_78BD_642F)
        .wrapping_add((u64::from(u) << 32 | u64::from(v)).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which of `shards` partitions owns the edge `u → v` under `seed`.
///
/// This is the same deterministic router [`ShardedEngine`] uses
/// internally, exposed so out-of-process ingesters (`dds-cluster` worker
/// processes) can claim exactly the partition an in-process engine would
/// hand them — identical placement is what makes their digests mergeable.
///
/// # Panics
/// Panics if `shards` is zero.
#[must_use]
pub fn route_edge(seed: u64, u: VertexId, v: VertexId, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    (route_hash(seed, u, v) % shards as u64) as usize
}

impl ShardedEngine {
    /// A fresh engine over an empty graph.
    ///
    /// # Panics
    /// Panics on zero shards or non-positive drift (the sketch config's
    /// own invariants are checked by the partitions).
    #[must_use]
    pub fn new(config: ShardConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.refresh_drift > 0.0, "refresh drift must be positive");
        ShardedEngine {
            parts: (0..config.shards)
                .map(|_| Partition::new(config.sketch))
                .collect(),
            config,
            witness: WitnessTracker::default(),
            certifier: MergedCertifier::default(),
            metrics: ShardMetrics::default(),
            tracer: Tracer::detached(),
            obs: None,
            solve_totals: SolveStats::default(),
            apply_wall: Duration::ZERO,
            certify_wall: Duration::ZERO,
        }
    }

    /// Re-homes this engine's lifetime counters in `registry` (the
    /// `dds_shard_*` series, plus the `dds_sketch_*`/`dds_exact_*` series
    /// of every per-shard sketch — and of every future merged refresh's
    /// sketch — which sum into the shared registry handles), transferring
    /// the values accumulated so far and enabling the gauges and latency
    /// histograms.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.metrics.attach(registry);
        for part in &mut self.parts {
            part.attach_obs(registry);
        }
        self.obs = Some(registry.clone());
    }

    /// Routes this engine's spans (`shard.apply` with a nested
    /// `shard.merge`) to `tracer`. The default is the detached tracer:
    /// spans are inert and never read the clock.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Which shard owns the edge `u → v` (deterministic, seed-keyed).
    #[must_use]
    pub fn shard_of(&self, u: VertexId, v: VertexId) -> usize {
        route_edge(self.config.sketch.seed, u, v, self.config.shards)
    }

    /// Applies one batch — route each event to its partition, apply the
    /// partitions in one serial pass (the witness count follows every
    /// applied mutation), then certify the epoch globally (summed
    /// counters; a merged-sketch refresh when the pooled drift policy
    /// asks for one).
    pub fn apply(&mut self, batch: &Batch) -> ShardReport {
        let start = Instant::now();
        let mut span = span!(self.tracer, "shard.apply");
        let mut slices: Vec<Vec<&Event>> = vec![Vec::new(); self.config.shards];
        for ev in &batch.events {
            let (Event::Insert(u, v) | Event::Delete(u, v)) = ev.event;
            slices[self.shard_of(u, v)].push(&ev.event);
        }
        let (mut inserts, mut deletes, mut ignored) = (0u64, 0u64, 0u64);
        let witness = &mut self.witness;
        for (part, slice) in self.parts.iter_mut().zip(slices) {
            let t = part.apply(slice, |ev| match *ev {
                Event::Insert(u, v) => witness.on_insert(u, v),
                Event::Delete(u, v) => witness.on_delete(u, v),
            });
            inserts += t.inserts;
            deletes += t.deletes;
            ignored += t.ignored;
        }
        let apply = start.elapsed();
        self.apply_wall += apply;
        self.metrics.apply_latency.observe(apply);
        self.metrics.epochs.inc();
        let epoch = self.metrics.epochs.get();
        self.metrics.inserts.add(inserts);
        self.metrics.deletes.add(deletes);
        self.metrics.ignored.add(ignored);

        let certify_start = Instant::now();
        let refreshed = self.needs_refresh();
        let solve_stats = if refreshed {
            self.refresh_merged()
        } else {
            None
        };
        let bounds = self.bounds();
        let certify = certify_start.elapsed();
        self.certify_wall += certify;
        self.metrics.certify_latency.observe(certify);
        if let Some(g) = &self.metrics.retained {
            g.set(self.retained() as u64);
        }
        if let Some(g) = &self.metrics.edges {
            g.set(self.m());
        }
        span.record("epoch", epoch);
        span.record("events", batch.events.len() as u64);
        span.record("m", self.m());
        span.record_flag("refreshed", refreshed);

        ShardReport {
            epoch,
            events: batch.events.len(),
            inserts: inserts as usize,
            deletes: deletes as usize,
            ignored: ignored as usize,
            n: self.n(),
            m: self.m(),
            retained: self.retained(),
            refreshed,
            merged_level: refreshed.then(|| self.certifier.level()),
            density: bounds.lower,
            lower: bounds.lower.to_f64(),
            upper: bounds.upper,
            certified_factor: bounds.certified_factor(),
            solve_stats,
            apply,
            certify,
            elapsed: start.elapsed(),
        }
    }

    /// Whether the pooled drift policy wants a merged refresh now (the
    /// shared [`refresh_due`] rule over the summed state).
    fn needs_refresh(&self) -> bool {
        let mutations = self.parts.iter().map(|p| p.sketch().sample_mutations());
        refresh_due(
            self.retained(),
            self.witness.is_dead(),
            mutations.sum(),
            self.config.refresh_drift,
        )
    }

    /// Runs a merged refresh now ([`MergedCertifier::refresh`] over the
    /// partition sketches) and keeps the denser of the fresh pair and the
    /// incumbent witness, measured on the full graph.
    fn refresh_merged(&mut self) -> Option<SolveStats> {
        let timer = self.metrics.merge_latency.timer();
        let mut span = span!(self.tracer, "shard.merge");
        self.metrics.refreshes.inc();
        let sketches: Vec<&SketchEngine> = self.parts.iter().map(Partition::sketch).collect();
        let refresh = self.certifier.refresh(
            self.config.sketch,
            &sketches,
            self.witness.is_dead(),
            self.obs.as_ref(),
        );
        if refresh.cold {
            self.metrics.cold_escalations.inc();
        }
        if let Some(stats) = refresh.stats {
            self.metrics.escalations.inc();
            self.solve_totals.merge(stats);
        }
        let pair = match (refresh.fresh, self.witness.pair().cloned()) {
            (Some(a), Some(b)) => Some(denser_pair(self.n(), self.edges(), a, b)),
            (a, b) => a.or(b),
        };
        self.adopt_witness(pair);
        for part in &mut self.parts {
            part.reset_drift();
        }
        let level = u64::from(self.certifier.level());
        if let Some(g) = &self.metrics.merged_level {
            g.set(level);
        }
        span.record("level", level);
        span.record_flag("escalated", refresh.stats.is_some());
        span.close();
        timer.stop();
        refresh.stats
    }

    /// Forces a merged refresh regardless of the drift policy and returns
    /// the refreshed bracket.
    pub fn force_refresh(&mut self) -> CertifiedBounds {
        self.refresh_merged();
        self.bounds()
    }

    /// Adopts `pair` (or clears), recounting its live edges across every
    /// partition.
    fn adopt_witness(&mut self, pair: Option<Pair>) {
        let n = self.n();
        let edges = self.parts.iter().flat_map(Partition::edges);
        self.witness.reset(n, pair, edges);
    }

    /// The current certified bracket `lower ≤ ρ_opt ≤ upper`: the
    /// witness's exact density on the full graph, and the structural
    /// bound over the **summed** partition counters. Degrees sum across
    /// partitions (they are disjoint), so the bound is the exact
    /// full-graph one.
    #[must_use]
    pub fn bounds(&self) -> CertifiedBounds {
        let (mut out, mut inc) = (MaxTracker::default(), MaxTracker::default());
        for part in &self.parts {
            let (o, i) = part.sketch().degree_trackers();
            out.merge(o);
            inc.merge(i);
        }
        CertifiedBounds {
            lower: self.witness.density(),
            upper: structural_upper(self.m(), out.max(), inc.max()),
        }
    }

    /// The incumbent witness pair, if a refresh has produced one.
    #[must_use]
    pub fn witness(&self) -> Option<&Pair> {
        self.witness.pair()
    }

    /// Live edge count, summed over partitions.
    #[must_use]
    pub fn m(&self) -> u64 {
        self.parts.iter().map(Partition::m).sum()
    }

    /// Vertex count (one past the largest id seen).
    #[must_use]
    pub fn n(&self) -> usize {
        self.parts.iter().map(Partition::n).max().unwrap_or(0)
    }

    /// Retained (sampled) edges, summed over partitions.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.parts.iter().map(|p| p.sketch().retained()).sum()
    }

    /// Number of batches applied so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.metrics.epochs.get()
    }

    /// Number of merged refreshes so far.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.metrics.refreshes.get()
    }

    /// Iterates the full live edge set (arbitrary order, shard by shard).
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.parts.iter().flat_map(Partition::edges)
    }

    /// The per-shard sketches, in shard order — what a merged refresh
    /// unions, exposed so differential oracles can compare the union
    /// against a single engine over the whole stream.
    pub fn shard_sketches(&self) -> Vec<&SketchEngine> {
        self.parts.iter().map(Partition::sketch).collect()
    }

    /// Freezes the full graph into the CSR form the static solvers use.
    #[must_use]
    pub fn materialize(&self) -> DiGraph {
        let mut b = GraphBuilder::with_min_vertices(self.n());
        for (u, v) in self.edges() {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Lifetime counters in one struct.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            retained: self.retained(),
            levels: self.parts.iter().map(|p| p.sketch().level()).collect(),
            merged_level: self.certifier.level(),
            refreshes: self.metrics.refreshes.get(),
            escalations: self.metrics.escalations.get(),
            cold_escalations: self.metrics.cold_escalations.get(),
            apply: self.apply_wall,
            certify: self.certify_wall,
            solve: self.solve_totals,
        }
    }

    /// Serializes the engine to the versioned snapshot format
    /// ([`dds_stream::snapshot`], kind [`SnapshotKind::Shard`]): identity
    /// (shard count, admission seed, state bound — a restore must be
    /// asked for the same partitioning), the global edge set in canonical
    /// order, per-shard subsampling levels and drift counters, the
    /// incumbent witness, and the armed-escalation bit. The lifetime
    /// metric counters (epochs, refreshes, escalations, ingest tallies)
    /// ride along so a restored engine's `dds_shard_*_total` series
    /// continue instead of restarting at zero. Retained samples, degree
    /// counters, and witness edge counts are recomputed on restore (pure
    /// functions of the above). `cursor` is the source-stream byte offset
    /// a follow loop should resume from.
    #[must_use]
    pub fn snapshot(&self, cursor: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SnapshotKind::Shard, cursor);
        w.put_u32(self.config.shards as u32);
        w.put_u64(self.config.sketch.seed);
        w.put_u64(self.config.sketch.state_bound as u64);
        w.put_u64(self.n() as u64);
        w.put_u64(self.metrics.epochs.get());
        w.put_u64(self.metrics.refreshes.get());
        w.put_u64(self.metrics.escalations.get());
        w.put_u64(self.metrics.cold_escalations.get());
        w.put_u64(self.metrics.inserts.get());
        w.put_u64(self.metrics.deletes.get());
        w.put_u64(self.metrics.ignored.get());
        w.put_u32(self.certifier.level());
        w.put_u8(u8::from(self.certifier.armed()));
        for part in &self.parts {
            w.put_u32(part.sketch().level());
            w.put_u64(part.sketch().sample_mutations());
        }
        let mut edges: Vec<(VertexId, VertexId)> = self.edges().collect();
        w.put_edges(&mut edges);
        w.put_pair(self.witness.pair());
        w.finish()
    }

    /// Reconstructs an engine from snapshot bytes under `config`. The
    /// snapshot's identity fields (shard count, seed, state bound) must
    /// match `config` — partitioning and admission are determined by
    /// them, so a mismatch would silently scramble every invariant.
    /// Returns the engine and the stored stream cursor.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] on malformed bytes or an
    /// identity mismatch.
    pub fn restore(config: ShardConfig, bytes: &[u8]) -> Result<(Self, u64), SnapshotError> {
        let (parts, cursor) = Self::decode_parts(bytes)?;
        parts.check_identity(config)?;
        Ok((Self::from_parts(config, parts)?, cursor))
    }

    /// Decodes a snapshot payload into its parts without building an
    /// engine (no identity check — callers run
    /// [`ShardSnapshotParts::check_identity`] against their config).
    fn decode_parts(bytes: &[u8]) -> Result<(ShardSnapshotParts, u64), SnapshotError> {
        let (mut r, cursor) = SnapshotReader::open(bytes, SnapshotKind::Shard)?;
        let shards = r.take_u32()? as usize;
        let seed = r.take_u64()?;
        let state_bound = r.take_u64()? as usize;
        let n = r.take_u64()? as usize;
        let epoch = r.take_u64()?;
        let refreshes = r.take_u64()?;
        let escalations = r.take_u64()?;
        let cold_escalations = r.take_u64()?;
        let inserts = r.take_u64()?;
        let deletes = r.take_u64()?;
        let ignored = r.take_u64()?;
        let merged_level = r.take_u32()?;
        let escalate_next = match r.take_u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(SnapshotError::Format(format!(
                    "bad escalation byte {other}"
                )))
            }
        };
        // 12 bytes per shard (level + mutation count): reject a count the
        // payload cannot hold before allocating for it.
        r.need(shards.saturating_mul(12))?;
        let mut levels = Vec::with_capacity(shards);
        for _ in 0..shards {
            let level = r.take_u32()?;
            let mutations = r.take_u64()?;
            levels.push((level, mutations));
        }
        let edges = r.take_edges()?;
        let witness = r.take_pair()?;
        r.finish()?;
        Ok((
            ShardSnapshotParts {
                shards,
                seed,
                state_bound,
                n,
                epoch,
                refreshes,
                escalations,
                cold_escalations,
                inserts,
                deletes,
                ignored,
                merged_level,
                escalate_next,
                levels,
                edges,
                witness,
            },
            cursor,
        ))
    }

    /// Builds an engine from decoded (and identity-checked) parts.
    fn from_parts(config: ShardConfig, parts: ShardSnapshotParts) -> Result<Self, SnapshotError> {
        let ShardSnapshotParts {
            n,
            epoch,
            refreshes,
            escalations,
            cold_escalations,
            inserts,
            deletes,
            ignored,
            merged_level,
            escalate_next,
            levels,
            edges,
            witness,
            ..
        } = parts;
        // Untrusted ids must be range-checked against the stored vertex
        // count (the partitions check their edges) — a flipped byte must
        // be a Format error, not a bogus witness.
        if let Some(pair) = &witness {
            if let Some(&id) = pair
                .s()
                .iter()
                .chain(pair.t())
                .find(|&&id| id as usize >= n)
            {
                return Err(SnapshotError::Format(format!(
                    "witness vertex {id} is beyond the stored vertex count {n}"
                )));
            }
        }
        let mut engine = ShardedEngine::new(config);
        // Re-partition with the router, then rebuild every partition's
        // state deterministically from its edges at the stored level.
        let mut slices: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); config.shards];
        for &(u, v) in &edges {
            slices[engine.shard_of(u, v)].push((u, v));
        }
        engine.parts = slices
            .into_iter()
            .zip(levels)
            .map(|(slice, (level, mutations))| {
                Partition::restore(config.sketch, n, level, mutations, slice)
            })
            .collect::<Result<_, _>>()?;
        engine.metrics.epochs.store(epoch);
        engine.metrics.refreshes.store(refreshes);
        engine.metrics.escalations.store(escalations);
        engine.metrics.cold_escalations.store(cold_escalations);
        engine.metrics.inserts.store(inserts);
        engine.metrics.deletes.store(deletes);
        engine.metrics.ignored.store(ignored);
        engine.certifier = MergedCertifier::restore(escalate_next, merged_level);
        engine.adopt_witness(witness);
        Ok(engine)
    }
}

/// Replays `events` through `engine` in `batch`-sized slices, returning
/// one report per epoch (the sharded analog of [`dds_stream::replay`]).
///
/// # Panics
/// Panics if `batch` is zero.
pub fn replay_sharded(
    engine: &mut ShardedEngine,
    events: &[TimedEvent],
    batch: usize,
) -> Vec<ShardReport> {
    assert!(batch > 0, "batch size must be positive");
    events
        .chunks(batch)
        .map(|chunk| engine.apply(&Batch::from_events(chunk.to_vec())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::DcExact;
    use dds_graph::gen;
    use dds_stream::DynamicGraph;

    fn config(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            sketch: SketchConfig {
                state_bound: 64,
                ..SketchConfig::default()
            },
            ..ShardConfig::default()
        }
    }

    fn insert_all(engine: &mut ShardedEngine, edges: &[(u32, u32)]) -> ShardReport {
        let mut batch = Batch::new();
        for &(u, v) in edges {
            batch.insert(u, v);
        }
        engine.apply(&batch)
    }

    #[test]
    fn routing_is_deterministic_and_covers_every_shard() {
        let engine = ShardedEngine::new(config(4));
        let mut hit = [false; 4];
        for u in 0..40u32 {
            for v in 40..80u32 {
                let s = engine.shard_of(u, v);
                assert_eq!(s, engine.shard_of(u, v), "routing must be stable");
                hit[s] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "1600 edges must touch all 4 shards");
    }

    #[test]
    fn apply_matches_a_dynamic_graph_mirror_through_dirty_events() {
        let mut engine = ShardedEngine::new(config(3));
        let mut mirror = DynamicGraph::new();
        let mut batch = Batch::new();
        // Dirty stream: dups, self-loops, absent deletes.
        for (u, v) in [(0, 1), (0, 1), (2, 2), (1, 2), (0, 1)] {
            batch.insert(u, v);
        }
        batch.delete(9, 9).delete(0, 1).delete(0, 1);
        for ev in &batch.events {
            match ev.event {
                Event::Insert(u, v) => {
                    mirror.insert(u, v);
                }
                Event::Delete(u, v) => {
                    mirror.delete(u, v);
                }
            }
        }
        let report = engine.apply(&batch);
        assert_eq!(report.m as usize, mirror.m());
        assert_eq!(report.n, mirror.n());
        assert_eq!(report.inserts, 2);
        assert_eq!(report.deletes, 1);
        assert_eq!(report.ignored, 5);
        let mut ours: Vec<_> = engine.edges().collect();
        let mut theirs: Vec<_> = mirror.edges().collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn brackets_contain_the_exact_optimum_under_churn() {
        let g = gen::planted(40, 120, 5, 5, 1.0, 7).graph;
        let all: Vec<(u32, u32)> = g.edges().collect();
        let mut engine = ShardedEngine::new(config(4));
        for chunk in all.chunks(25) {
            let report = insert_all(&mut engine, chunk);
            assert!(report.lower <= report.upper * (1.0 + 1e-9));
            let exact = DcExact::new().solve(&engine.materialize()).solution.density;
            assert!(report.density <= exact, "lower bound must hold");
            assert!(
                exact.to_f64() <= report.upper * (1.0 + 1e-9),
                "upper bound must hold: exact {exact} vs upper {}",
                report.upper
            );
        }
        // Tear a third of the edges back out.
        let mut batch = Batch::new();
        for &(u, v) in all.iter().step_by(3) {
            batch.delete(u, v);
        }
        let report = engine.apply(&batch);
        let exact = DcExact::new().solve(&engine.materialize()).solution.density;
        assert!(report.density <= exact);
        assert!(exact.to_f64() <= report.upper * (1.0 + 1e-9));
        assert!(engine.refreshes() >= 1);
    }

    #[test]
    fn one_shard_is_the_serial_baseline_with_identical_semantics() {
        let g = gen::gnm(30, 150, 9);
        let all: Vec<(u32, u32)> = g.edges().collect();
        let mut one = ShardedEngine::new(config(1));
        let report = insert_all(&mut one, &all);
        assert_eq!(report.m, 150);
        assert!(report.refreshed);
        assert!(report.lower > 0.0);
        let exact = DcExact::new().solve(&one.materialize()).solution.density;
        assert!(report.density <= exact);
        assert!(exact.to_f64() <= report.upper * (1.0 + 1e-9));
    }

    #[test]
    fn per_shard_state_bounds_hold() {
        let mut engine = ShardedEngine::new(ShardConfig {
            shards: 4,
            sketch: SketchConfig {
                state_bound: 16,
                ..SketchConfig::default()
            },
            ..ShardConfig::default()
        });
        let edges: Vec<(u32, u32)> = (0..600u32).map(|i| (i % 57, 57 + (i * 5) % 97)).collect();
        for chunk in edges.chunks(50) {
            insert_all(&mut engine, chunk);
            assert!(
                engine.parts.iter().all(|p| p.sketch().retained() <= 16),
                "a shard broke its state bound"
            );
        }
        assert!(engine.stats().levels.iter().any(|&l| l > 0));
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let g = gen::planted(40, 120, 5, 5, 1.0, 3).graph;
        let all: Vec<(u32, u32)> = g.edges().collect();
        let cfg = config(3);
        let mut engine = ShardedEngine::new(cfg);
        for chunk in all.chunks(30) {
            insert_all(&mut engine, chunk);
        }
        let bytes = engine.snapshot(1234);
        let (restored, cursor) = ShardedEngine::restore(cfg, &bytes).unwrap();
        assert_eq!(cursor, 1234);
        assert_eq!(restored.snapshot(1234), bytes, "round-trip identity");
        assert_eq!(restored.m(), engine.m());
        assert_eq!(restored.n(), engine.n());
        assert_eq!(restored.epoch(), engine.epoch());
        assert_eq!(restored.witness(), engine.witness());
        assert_eq!(restored.witness.edges(), engine.witness.edges());
        let (a, b) = (engine.bounds(), restored.bounds());
        assert_eq!(a.lower, b.lower);
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());
        assert_eq!(restored.stats().levels, engine.stats().levels);
    }

    #[test]
    fn restore_resumes_bit_identically_mid_replay() {
        let g = gen::planted(50, 200, 6, 6, 1.0, 21).graph;
        let all: Vec<(u32, u32)> = g.edges().collect();
        let cfg = config(4);
        let mut original = ShardedEngine::new(cfg);
        for chunk in all[..100].chunks(20) {
            insert_all(&mut original, chunk);
        }
        let bytes = original.snapshot(0);
        let (mut restored, _) = ShardedEngine::restore(cfg, &bytes).unwrap();
        // Replay the same remaining batches (with some churn) on both; the
        // trajectories must be indistinguishable, report by report.
        for round in 0..6 {
            let mut batch = Batch::new();
            for &(u, v) in all[100..].iter().skip(round).step_by(5).take(8) {
                batch.insert(u, v);
            }
            for &(u, v) in all[..100].iter().skip(round * 7).step_by(11).take(3) {
                batch.delete(u, v);
            }
            let a = original.apply(&batch);
            let b = restored.apply(&batch);
            assert_eq!(a.m, b.m, "round {round}");
            assert_eq!(a.refreshed, b.refreshed, "round {round}");
            assert_eq!(a.density, b.density, "round {round}");
            assert_eq!(a.lower.to_bits(), b.lower.to_bits(), "round {round}");
            assert_eq!(a.upper.to_bits(), b.upper.to_bits(), "round {round}");
        }
        assert_eq!(
            original.snapshot(0),
            restored.snapshot(0),
            "final states must be bit-identical"
        );
    }

    #[test]
    fn restore_rejects_out_of_range_witness_and_edge_ids() {
        use dds_stream::snapshot::{SnapshotKind, SnapshotWriter};
        let cfg = config(2);
        // Write header + identity by hand, then corrupt payload variants.
        let build = |witness_id: VertexId, edge_v: VertexId| {
            let mut w = SnapshotWriter::new(SnapshotKind::Shard, 0);
            w.put_u32(2); // shards
            w.put_u64(cfg.sketch.seed);
            w.put_u64(cfg.sketch.state_bound as u64);
            w.put_u64(2); // n
            w.put_u64(1); // epoch
            w.put_u64(0); // refreshes
            w.put_u64(0); // escalations
            w.put_u64(0); // cold escalations
            w.put_u64(1); // inserts
            w.put_u64(0); // deletes
            w.put_u64(0); // ignored
            w.put_u32(0); // merged level
            w.put_u8(0); // escalate_next
            for _ in 0..2 {
                w.put_u32(0); // level
                w.put_u64(0); // mutations
            }
            w.put_edges(&mut [(0, edge_v)]);
            w.put_pair(Some(&Pair::new(vec![0], vec![witness_id])));
            w.finish()
        };
        // Witness id beyond n: Format error, not an index panic.
        let err = ShardedEngine::restore(cfg, &build(9, 1))
            .expect_err("out-of-range witness must be rejected");
        assert!(err.to_string().contains("witness vertex 9"), "{err}");
        // Edge endpoint beyond n: same.
        let err = ShardedEngine::restore(cfg, &build(1, 7))
            .expect_err("out-of-range edge must be rejected");
        assert!(
            err.to_string().contains("beyond the stored vertex count"),
            "{err}"
        );
        // The clean variant restores fine.
        assert!(ShardedEngine::restore(cfg, &build(1, 1)).is_ok());
    }

    #[test]
    fn restore_rejects_identity_mismatches() {
        let engine = ShardedEngine::new(config(3));
        let bytes = engine.snapshot(0);
        let err = ShardedEngine::restore(config(4), &bytes).unwrap_err();
        assert!(
            err.to_string()
                .contains("shard count (checkpoint 3, requested 4)"),
            "{err}"
        );
        assert!(err.to_string().contains("re-hash"), "{err}");
        let mut other = config(3);
        other.sketch.seed = 99;
        let err = ShardedEngine::restore(other, &bytes).unwrap_err();
        assert!(err.to_string().contains("admission seed"), "{err}");
        let mut other = config(3);
        other.sketch.state_bound = 128;
        let err = ShardedEngine::restore(other, &bytes).unwrap_err();
        assert!(err.to_string().contains("state bound"), "{err}");
        assert!(ShardedEngine::restore(config(3), b"junk").is_err());
    }

    #[test]
    fn restore_rejects_a_shard_count_the_payload_cannot_hold() {
        let mut bytes = ShardedEngine::new(config(3)).snapshot(0);
        // The shard count follows the 17-byte header (magic, version,
        // kind, cursor).
        bytes[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ShardedEngine::restore(config(3), &bytes)
            .expect_err("a hostile shard count must be rejected");
        assert!(matches!(err, SnapshotError::Format(_)), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn route_edge_matches_shard_of() {
        let engine = ShardedEngine::new(config(4));
        for u in 0..30u32 {
            for v in 30..60u32 {
                assert_eq!(
                    route_edge(engine.config.sketch.seed, u, v, 4),
                    engine.shard_of(u, v)
                );
            }
        }
    }

    #[test]
    fn replay_sharded_chunks_like_the_stream_replay() {
        let events: Vec<TimedEvent> = (0..30u32)
            .map(|i| TimedEvent {
                time: u64::from(i),
                event: Event::Insert(i % 6, 6 + (i + 1) % 6),
            })
            .collect();
        let mut engine = ShardedEngine::new(config(2));
        let reports = replay_sharded(&mut engine, &events, 7);
        assert_eq!(reports.len(), 5);
        assert_eq!(reports.last().unwrap().epoch, 5);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::new(ShardConfig {
            shards: 0,
            ..ShardConfig::default()
        });
    }
}
