//! The sketch engine: sublinear-state ingestion, level-based subsampling,
//! and two-tier refreshes (core-approx-on-sketch, escalated to
//! exact-on-sketch when the sketch's own core bracket is too loose).

use dds_core::parallel::dc_exact_parallel_with;
use dds_core::{core_approx, ExactOptions, SolveContext, SolveStats};
use dds_graph::{DiGraph, GraphBuilder, Pair, VertexId};
use dds_num::Density;
use dds_obs::{Counter, Gauge, Histogram, Registry};

use crate::certify::{structural_upper, WitnessTracker};
use crate::maxtrack::MaxTracker;
use crate::sample::SampleStore;

/// The cold-start degradation threshold: a sweep-first refresh whose
/// certified lower bound lands within this fraction of the bottom of the
/// bracket — less than 10% of the structural upper bound — with no
/// surviving incumbent to fall back on, has left the bracket pinned at
/// the structural bound (the signature of an optimum the sweep-on-sample
/// cannot see). The engine then arms a **one-shot escalation**: the next
/// refresh runs with `escalate_factor` forced to 1 (always
/// exact-on-sketch), after which the configured factor applies again.
/// One-shot, because if even the exact solve of the sample cannot do
/// better, the sample genuinely holds no signal and repeating the solve
/// would burn flows for nothing.
const COLD_START_FRACTION: f64 = 0.1;

/// Configuration of a [`SketchEngine`].
#[derive(Clone, Copy, Debug)]
pub struct SketchConfig {
    /// Maximum retained edges. When an insert pushes the retained set past
    /// this, the subsampling level increments (halving the admission rate)
    /// until the set fits again. Must be positive.
    pub state_bound: usize,
    /// Escalation threshold of the two-tier refresh: a refresh first runs
    /// the `O(√m_H·(n+m_H))` core sweep **on the sketch** (`m_H ≤
    /// state_bound`, so this is the cheap tier the sketch exists for) and
    /// escalates to a full exact solve of the sketch only when the sweep's
    /// own certified bracket on `ρ_opt(H)` is wider than this factor.
    /// `1.0` escalates every refresh (always-exact); `2.0` effectively
    /// never does (the sweep's bracket is within 2 by construction, so
    /// only a sweep that certifies nothing at all escalates). Must be
    /// ≥ 1.
    pub escalate_factor: f64,
    /// Worker threads for the exact-on-sketch escalation (1 = serial).
    pub threads: usize,
    /// Seed of the deterministic edge-admission hash.
    pub seed: u64,
}

impl Default for SketchConfig {
    /// `state_bound = 4096`, `escalate_factor = 1.5`, serial solves, a
    /// fixed seed — sized so the sketch stays a few percent of any graph
    /// large enough to need one, escalating when the sweep's bracket on
    /// the sketch leaves more than 50% on the table. Raise toward 2 for
    /// sweep-first cheapness (experiment E15's headline configuration),
    /// lower toward 1 for near-exact witnesses.
    fn default() -> Self {
        SketchConfig {
            state_bound: 4096,
            escalate_factor: 1.5,
            threads: 1,
            seed: 0x5EED_CA5E,
        }
    }
}

/// Lifetime counters of a [`SketchEngine`] — the sketch-tier analog of
/// [`SolveStats`], flowing through the same report plumbing (the stream
/// and window engines' epoch reports, experiment E15).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SketchStats {
    /// Retained edges right now.
    pub retained: usize,
    /// Largest retained set ever held (post-subsampling steady state).
    pub peak_retained: usize,
    /// Current subsampling level (admission probability `2⁻ˡᵉᵛᵉˡ`).
    pub level: u32,
    /// Level increments performed so far.
    pub subsamples: u64,
    /// Refreshes run so far (each one a core sweep *of the sketch*).
    pub refreshes: u64,
    /// How many of those refreshes escalated to an exact-on-sketch solve
    /// (the sketch's core bracket exceeded the configured
    /// [`SketchConfig::escalate_factor`]).
    pub escalations: u64,
    /// How many refreshes ran with a **one-shot escalation** armed by the
    /// cold-start degradation detector (a sweep-first refresh that left
    /// the bracket pinned at the structural bound with no surviving
    /// incumbent — see [`SketchEngine::force_refresh`]).
    pub cold_escalations: u64,
    /// Full rebuilds from the authoritative edge set (the
    /// [`SketchEngine::is_undersampled`] recovery path).
    pub rebuilds: u64,
    /// Accumulated instrumentation of every exact-on-sketch escalation.
    pub solve: SolveStats,
}

/// Sublinear-state density sketch (see crate docs).
///
/// The sketch never decides when to refresh: its embedding engine feeds
/// it applied mutations and calls [`force_refresh`](Self::force_refresh)
/// on its own policy — the certification band of `dds-stream`'s engines,
/// or the pooled [`refresh_due`](crate::certify::refresh_due) drift rule
/// of the sharded and cluster tiers over
/// [`sample_mutations`](Self::sample_mutations) — then adopts the witness
/// pair as a full-graph lower bound.
#[derive(Debug)]
pub struct SketchEngine {
    config: SketchConfig,
    sample: SampleStore,
    n: usize,
    m: u64,
    out_deg: MaxTracker,
    in_deg: MaxTracker,
    /// Witness of the last refresh, with its retained edge count
    /// maintained per event.
    witness: WitnessTracker,
    /// Retained-set changes (inserts, deletes, subsample drops) since the
    /// last refresh — the drift the pooled refresh rule reads.
    mutations: u64,
    /// One-shot escalation armed by the cold-start degradation detector:
    /// the next refresh runs with `escalate_factor` forced to 1.
    escalate_once: bool,
    ctx: SolveContext,
    peak_retained: usize,
    metrics: SketchMetrics,
    solve_totals: SolveStats,
}

/// Obs-backed lifetime counters of a [`SketchEngine`] (the `dds_sketch_*`
/// series): standalone atomics by default — [`SketchStats`] reads them as
/// a view — re-homed into a shared registry by
/// [`SketchEngine::attach_obs`]. The latency histogram and the gauges are
/// no-ops until attached.
#[derive(Debug, Default)]
struct SketchMetrics {
    subsamples: Counter,
    refreshes: Counter,
    escalations: Counter,
    cold_escalations: Counter,
    rebuilds: Counter,
    retained: Option<Gauge>,
    level: Option<Gauge>,
    refresh_latency: Histogram,
}

impl SketchMetrics {
    fn attach(&mut self, registry: &Registry) {
        self.subsamples
            .rehome(registry, "dds_sketch_subsamples_total");
        self.refreshes
            .rehome(registry, "dds_sketch_refreshes_total");
        self.escalations
            .rehome(registry, "dds_sketch_escalations_total");
        self.cold_escalations
            .rehome(registry, "dds_sketch_cold_escalations_total");
        self.rebuilds.rehome(registry, "dds_sketch_rebuilds_total");
        self.retained = Some(registry.gauge("dds_sketch_retained"));
        self.level = Some(registry.gauge("dds_sketch_level"));
        self.refresh_latency = registry.histogram("dds_sketch_refresh_latency_us");
    }

    /// Publishes the retained-state gauges (fold points only, never the
    /// per-event hot path).
    fn publish_state(&self, retained: usize, level: u32) {
        if let Some(g) = &self.retained {
            g.set(retained as u64);
        }
        if let Some(g) = &self.level {
            g.set(u64::from(level));
        }
    }
}

impl SketchEngine {
    /// A fresh sketch over an empty graph.
    ///
    /// # Panics
    /// Panics on a zero state bound, an escalate factor below 1, or zero
    /// threads.
    #[must_use]
    pub fn new(config: SketchConfig) -> Self {
        assert!(config.state_bound > 0, "state bound must be positive");
        assert!(
            config.escalate_factor >= 1.0,
            "escalate factor must be at least 1"
        );
        assert!(config.threads > 0, "need at least one solve thread");
        SketchEngine {
            config,
            sample: SampleStore::new(config.seed),
            n: 0,
            m: 0,
            out_deg: MaxTracker::default(),
            in_deg: MaxTracker::default(),
            witness: WitnessTracker::default(),
            mutations: 0,
            escalate_once: false,
            ctx: SolveContext::new(),
            peak_retained: 0,
            metrics: SketchMetrics::default(),
            solve_totals: SolveStats::default(),
        }
    }

    /// Re-homes this engine's lifetime counters in `registry` (the
    /// `dds_sketch_*` series plus the embedded solver context's
    /// `dds_exact_*`), transferring the values accumulated so far and
    /// enabling the refresh-latency histogram and retained-state gauges.
    /// Several engines attached to one registry (the sharded engine's
    /// per-shard sketches) sum into the same series.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.metrics.attach(registry);
        self.ctx.attach_obs(registry);
    }

    /// Merges edge-partitioned part-sketches into one sketch of their
    /// union, **by union of retained sets at the maximum part level** —
    /// sound because admission is a deterministic, seed-keyed, *nested*
    /// function of the edge alone: every part retains exactly the edges of
    /// its partition admitted at its level, so filtering the union at
    /// `L = max(levels)` yields precisely the retained set a single engine
    /// at level `L` would hold over the whole edge set. Exact counters
    /// (live `m`, count-of-counts degree maxima) **sum**: the partition is
    /// disjoint, so per-vertex degrees add across parts
    /// ([`MaxTracker::merge`]). The merged sketch then enforces its own
    /// state bound (which may raise the level further — still nested,
    /// still only drops) and starts with no witness: run a refresh.
    ///
    /// # Panics
    /// Panics if any part's admission seed differs from `config.seed`
    /// (unioning differently-seeded samples is meaningless) or if `parts`
    /// is empty.
    #[must_use]
    pub fn merged(config: SketchConfig, parts: &[&SketchEngine]) -> Self {
        assert!(!parts.is_empty(), "merging zero sketches");
        let mut merged = SketchEngine::new(config);
        let mut level = 0u32;
        for part in parts {
            assert_eq!(
                part.sample.seed(),
                config.seed,
                "admission seeds must match for a sound union"
            );
            level = level.max(part.sample.level());
        }
        merged
            .sample
            .rebuild_at(level, parts.iter().flat_map(|p| p.sample.iter()));
        for part in parts {
            merged.n = merged.n.max(part.n);
            merged.m += part.m;
            merged.out_deg.merge(&part.out_deg);
            merged.in_deg.merge(&part.in_deg);
        }
        merged.enforce_state_bound();
        merged.peak_retained = merged.sample.len();
        merged
    }

    /// Reconstructs a sketch from snapshot state: the authoritative live
    /// edge set plus the stored subsampling `level`. Deterministic
    /// admission makes the retained set a pure function of
    /// `(seed, level, edges)`, so snapshots never serialise the sample
    /// itself. Counters are rebuilt exactly; the witness starts empty
    /// (run a refresh).
    #[must_use]
    pub fn restore_at<I: IntoIterator<Item = (VertexId, VertexId)>>(
        config: SketchConfig,
        level: u32,
        edges: I,
    ) -> Self {
        let mut engine = SketchEngine::new(config);
        let edges: Vec<(VertexId, VertexId)> = edges.into_iter().collect();
        for &(u, v) in &edges {
            engine.n = engine.n.max(u as usize + 1).max(v as usize + 1);
            engine.m += 1;
            engine.out_deg.incr(u as usize);
            engine.in_deg.incr(v as usize);
        }
        engine.sample.rebuild_at(level, edges);
        engine.peak_retained = engine.sample.len();
        engine
    }

    /// Ingests an **applied** insertion (see the crate docs' turnstile
    /// contract): `O(1)` counters always, retained-set admission by the
    /// deterministic hash, subsampling when the state bound is hit.
    pub fn insert(&mut self, u: VertexId, v: VertexId) {
        debug_assert_ne!(u, v, "self-loops are never applied mutations");
        self.n = self.n.max(u as usize + 1).max(v as usize + 1);
        self.m += 1;
        self.out_deg.incr(u as usize);
        self.in_deg.incr(v as usize);
        if self.sample.try_insert(u, v) {
            self.mutations += 1;
            self.witness.on_insert(u, v);
            self.enforce_state_bound();
            self.peak_retained = self.peak_retained.max(self.sample.len());
        }
    }

    /// Ingests an **applied** deletion.
    ///
    /// # Panics
    /// Panics (in the degree trackers) if the edge's endpoints have no
    /// live degree — the signature of a delete that was never inserted,
    /// i.e. a broken turnstile contract upstream.
    pub fn delete(&mut self, u: VertexId, v: VertexId) {
        self.m = self
            .m
            .checked_sub(1)
            .expect("delete of an edge the sketch never saw");
        self.out_deg.decr(u as usize);
        self.in_deg.decr(v as usize);
        if self.sample.remove(u, v) {
            self.mutations += 1;
            self.witness.on_delete(u, v);
        }
    }

    /// Doubles the sampling rate's inverse until the retained set fits the
    /// bound again (admission sets are nested, so each bump only drops).
    fn enforce_state_bound(&mut self) {
        while self.sample.len() > self.config.state_bound && self.sample.level() < 63 {
            self.metrics.subsamples.inc();
            for (u, v) in self.sample.raise_level() {
                self.mutations += 1;
                self.witness.on_delete(u, v);
            }
        }
    }

    /// Raises the subsampling level to `level` (no-op if not above the
    /// current one), dropping the edges the new level rejects — the
    /// explicit form of the nested-admission bump, used by the shard
    /// oracle to bring two sketches to a common level before comparing
    /// their retained sets.
    pub fn raise_to_level(&mut self, level: u32) {
        if level <= self.sample.level() {
            return;
        }
        self.metrics.subsamples.inc();
        for (u, v) in self.sample.raise_to(level) {
            self.mutations += 1;
            self.witness.on_delete(u, v);
        }
    }

    /// Whether the sample has collapsed well below what the state bound
    /// could hold: the level only ever rises while the stream grows, so a
    /// graph that later *shrinks* (a window expiring a burst, deletions
    /// draining a peak) can leave the sketch sampling at a rate far
    /// stingier than necessary — down to an empty retained set and a dead
    /// witness. Admission sets are nested, so the dropped edges cannot be
    /// resampled from inside the sketch; whoever owns the authoritative
    /// live edge set (the stream engines, the CLI's mirror) should call
    /// [`rebuild`](Self::rebuild) when this reports true. The `2×`
    /// hysteresis keeps a borderline sketch from rebuild-thrashing.
    #[must_use]
    pub fn is_undersampled(&self) -> bool {
        let level = self.sample.level();
        level > 0 && self.m.saturating_mul(2) <= (self.config.state_bound as u64) << (level - 1)
    }

    /// Rebuilds the sketch from the authoritative live edge set: resets
    /// every counter, picks the smallest level whose admitted subset fits
    /// the state bound, and retains exactly that subset. `O(m)` — the
    /// recovery path for [`is_undersampled`](Self::is_undersampled)
    /// collapse, not a per-batch operation. The witness is cleared; run a
    /// refresh afterwards.
    pub fn rebuild<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, edges: I) {
        let edges: Vec<(VertexId, VertexId)> = edges.into_iter().collect();
        self.sample.clear();
        self.m = 0;
        self.out_deg.clear();
        self.in_deg.clear();
        self.witness = WitnessTracker::default();
        self.mutations = 0;
        // Histogram edges by the deepest level still admitting them, then
        // walk levels up from 0 until the admitted count fits the bound
        // (prefix of the nested admission chain).
        let mut admitted_at = [0u64; 64];
        for &(u, v) in &edges {
            self.n = self.n.max(u as usize + 1).max(v as usize + 1);
            self.m += 1;
            self.out_deg.incr(u as usize);
            self.in_deg.incr(v as usize);
            let mut deepest = 0u32;
            while deepest < 63 && self.sample.admits_at(deepest + 1, u, v) {
                deepest += 1;
            }
            admitted_at[deepest as usize] += 1;
        }
        let mut level = 0u32;
        loop {
            let admitted: u64 = admitted_at[level as usize..].iter().sum();
            if admitted <= self.config.state_bound as u64 || level == 63 {
                break;
            }
            level += 1;
        }
        self.sample.rebuild_at(level, edges);
        self.peak_retained = self.peak_retained.max(self.sample.len());
        // Gauges publish at refreshes only: a rebuilding shard sees just
        // its own partition and must not overwrite the shared gauges.
        self.metrics.rebuilds.inc();
    }

    /// Runs a refresh now — the two-tier scheme on the **materialised
    /// sketch** `H` (never the full graph):
    ///
    /// 1. the max-product core sweep of `H`, `O(√m_H·(n+m_H))` with
    ///    `m_H ≤ state_bound` — its pair becomes the witness and its
    ///    certified bracket on `ρ_opt(H)` is measured;
    /// 2. if that bracket is wider than [`SketchConfig::escalate_factor`],
    ///    escalate to an exact solve of `H` on the warm context
    ///    (exact-on-sketch — still bounded by the state bound, which is
    ///    what makes the escalation affordable at any full-graph `m`).
    ///
    /// Returns the escalation's instrumentation (`None` when the core
    /// bracket sufficed).
    pub fn force_refresh(&mut self) -> Option<SolveStats> {
        let timer = self.metrics.refresh_latency.timer();
        let incumbent_dead = self.witness.is_dead();
        let g = self.materialize();
        self.metrics.refreshes.inc();
        self.metrics
            .publish_state(self.sample.len(), self.sample.level());
        self.mutations = 0;
        // The cold-start one-shot: an armed escalation forces this refresh
        // exact, then disarms (the configured factor applies again next
        // time).
        let one_shot = std::mem::take(&mut self.escalate_once);
        let factor = if one_shot {
            self.metrics.cold_escalations.inc();
            1.0
        } else {
            self.config.escalate_factor
        };
        let approx = core_approx(&g);
        let lower_c = approx.solution.density.to_f64();
        let escalate = lower_c <= 0.0 || approx.upper_bound > factor * lower_c;
        if !escalate {
            let pair = (!approx.solution.pair.is_empty()).then_some(approx.solution.pair);
            self.adopt_witness(pair, &g);
            // Cold-start degradation detection (the ROADMAP's sweep-first
            // hole): with no surviving incumbent, a sweep-on-sample witness
            // certifying less than [`COLD_START_FRACTION`] of the
            // structural upper bound has pinned the bracket at the
            // structural bound — the shape of an optimum the subsampled
            // sweep cannot see. Arm a one-shot escalation so the *next*
            // refresh pays for an exact solve of the sample instead of
            // settling again.
            if incumbent_dead && self.config.escalate_factor > 1.0 {
                let upper = self.certified_upper();
                if upper > 0.0 && self.witness_density().to_f64() < COLD_START_FRACTION * upper {
                    self.escalate_once = true;
                }
            }
            timer.stop();
            return None;
        }
        // Exact-on-sketch: every edge of `H` is an edge of `G`, so the
        // exact optimum of `H` is a certified lower bound on `ρ_opt(G)`.
        // `H` is bounded by the state bound, which keeps this solve cheap,
        // and the warm context amortises arenas and the core memo across
        // refreshes of a slowly drifting sketch.
        let report = dc_exact_parallel_with(
            &mut self.ctx,
            &g,
            ExactOptions::default(),
            self.config.threads,
        );
        let stats = report.stats();
        self.solve_totals.merge(stats);
        self.metrics.escalations.inc();
        let pair = (!report.solution.pair.is_empty()).then_some(report.solution.pair);
        self.adopt_witness(pair, &g);
        timer.stop();
        Some(stats)
    }

    fn adopt_witness(&mut self, pair: Option<Pair>, h: &DiGraph) {
        self.witness.reset(self.n, pair, h.edges());
    }

    /// Exact density of the maintained witness **on the sketch** — a
    /// certified lower bound on the true optimum ([`Density::ZERO`] before
    /// the first refresh or after the witness decays away).
    #[must_use]
    pub fn witness_density(&self) -> Density {
        self.witness.density()
    }

    /// Certified upper bound on the true optimum from the exact counters
    /// ([`structural_upper`]).
    #[must_use]
    pub fn certified_upper(&self) -> f64 {
        structural_upper(self.m, self.out_deg.max(), self.in_deg.max())
    }

    /// Freezes the retained subgraph into the CSR form the solvers use
    /// (vertex ids match the full graph's, so solved pairs transfer).
    #[must_use]
    pub fn materialize(&self) -> DiGraph {
        let mut b = GraphBuilder::with_min_vertices(self.n);
        for (u, v) in self.sample.iter() {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The maintained witness pair, if a refresh has produced one.
    #[must_use]
    pub fn witness_pair(&self) -> Option<&Pair> {
        self.witness.pair()
    }

    /// Lifetime counters in one struct (the report-plumbing form).
    #[must_use]
    pub fn stats(&self) -> SketchStats {
        SketchStats {
            retained: self.sample.len(),
            peak_retained: self.peak_retained,
            level: self.sample.level(),
            subsamples: self.metrics.subsamples.get(),
            refreshes: self.metrics.refreshes.get(),
            escalations: self.metrics.escalations.get(),
            cold_escalations: self.metrics.cold_escalations.get(),
            rebuilds: self.metrics.rebuilds.get(),
            solve: self.solve_totals,
        }
    }

    /// Retained edges right now.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.sample.len()
    }

    /// Iterates the retained edges (arbitrary order) — the sample the
    /// refreshes solve, exposed for merging, differential oracles, and
    /// snapshot verification.
    pub fn retained_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.sample.iter()
    }

    /// Current subsampling level.
    #[must_use]
    pub fn level(&self) -> u32 {
        self.sample.level()
    }

    /// The deterministic admission seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.sample.seed()
    }

    /// The exact count-of-counts degree maxima `(out, in)` over the live
    /// edge set this sketch has ingested — the counters edge-partitioned
    /// shards sum ([`MaxTracker::merge`]) into the global structural
    /// upper bound.
    #[must_use]
    pub fn degree_trackers(&self) -> (&MaxTracker, &MaxTracker) {
        (&self.out_deg, &self.in_deg)
    }

    /// Retained-set changes (inserts, deletes, subsample drops) since the
    /// last refresh, exposed so embedding engines that pool several
    /// sketches (`dds-shard`, `dds-cluster`) can run the
    /// [`refresh_due`](crate::certify::refresh_due) rule over the summed
    /// drift.
    #[must_use]
    pub fn sample_mutations(&self) -> u64 {
        self.mutations
    }

    /// Overwrites the drift counter: embedding engines zero it after a
    /// pooled refresh (what [`SketchEngine::force_refresh`] does for its
    /// own sample), and snapshot restores put the saved value back so
    /// refresh timing resumes bit-identically.
    pub fn set_sample_mutations(&mut self, mutations: u64) {
        self.mutations = mutations;
    }

    /// Whether the cold-start detector has armed a one-shot escalation
    /// for the next refresh (see [`SketchStats::cold_escalations`]).
    #[must_use]
    pub(crate) fn escalation_armed(&self) -> bool {
        self.escalate_once
    }

    /// Arms a one-shot escalation by hand: the next refresh runs with
    /// `escalate_factor` forced to 1, then the configured factor applies
    /// again. [`MergedCertifier`](crate::certify::MergedCertifier) uses
    /// this to carry an armed escalation across merged sketches (each
    /// merge starts a fresh engine).
    pub(crate) fn arm_escalation(&mut self) {
        self.escalate_once = true;
    }

    /// Exact live edge count of the full graph (counter).
    #[must_use]
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Vertex count (one past the largest id seen).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of refreshes so far (core sweeps of the sketch).
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.metrics.refreshes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{refresh_due, CertifiedBounds};

    fn k22() -> [(u32, u32); 4] {
        [(0, 2), (0, 3), (1, 2), (1, 3)]
    }

    #[test]
    fn level_zero_sketch_is_exact() {
        let mut sk = SketchEngine::new(SketchConfig::default());
        for (u, v) in k22() {
            sk.insert(u, v);
        }
        sk.force_refresh();
        assert_eq!(sk.refreshes(), 1);
        assert_eq!((sk.level(), sk.retained()), (0, 4));
        assert_eq!(sk.witness_density(), Density::new(4, 2, 2));
        let bounds = CertifiedBounds {
            lower: sk.witness_density(),
            upper: sk.certified_upper(),
        };
        assert!(bounds.certified_factor() <= 1.0 + 1e-6);
    }

    #[test]
    fn state_bound_forces_subsampling_and_holds() {
        let mut sk = SketchEngine::new(SketchConfig {
            state_bound: 16,
            ..SketchConfig::default()
        });
        for i in 0..400u32 {
            sk.insert(i % 57, 57 + i % 91); // bipartite-ish spray, no loops
            assert!(sk.retained() <= 16, "bound broken at event {i}");
        }
        assert!(sk.level() > 0, "400 inserts past bound 16 must subsample");
        assert_eq!(sk.m(), 400);
        let stats = sk.stats();
        assert!(stats.subsamples >= 4, "level {} too low", stats.level);
        assert!(stats.peak_retained <= 16);
        // Every retained edge is a real edge of the inserted spray.
        for (u, v) in sk.materialize().edges() {
            assert!(u < 57 && (57..148).contains(&v));
        }
    }

    #[test]
    fn deletes_refund_counters_and_witness() {
        let mut sk = SketchEngine::new(SketchConfig::default());
        for (u, v) in k22() {
            sk.insert(u, v);
        }
        sk.force_refresh();
        assert_eq!(sk.witness_density(), Density::new(4, 2, 2));
        sk.delete(0, 2);
        assert_eq!(sk.m(), 3);
        assert_eq!(sk.witness_density(), Density::new(3, 2, 2));
        // The decayed witness is still a sound lower bound.
        assert!(sk.witness_density().to_f64() <= sk.certified_upper());
    }

    #[test]
    #[should_panic(expected = "decrement of zero counter")]
    fn turnstile_violations_panic_loudly() {
        let mut sk = SketchEngine::new(SketchConfig::default());
        sk.insert(0, 1);
        sk.delete(5, 6); // never inserted: contract breach
    }

    #[test]
    fn witness_death_triggers_refresh() {
        let mut sk = SketchEngine::new(SketchConfig::default());
        for (u, v) in k22() {
            sk.insert(u, v);
        }
        sk.force_refresh();
        for (u, v) in k22() {
            sk.delete(u, v);
        }
        sk.insert(7, 8); // retained edges exist, witness is gone
                         // Five mutations stay under the drift floor: only the dead
                         // witness makes the shared rule fire.
        let (retained, drift) = (sk.retained(), sk.sample_mutations());
        assert!(!refresh_due(retained, false, drift, 0.25));
        assert!(
            refresh_due(retained, sk.witness.is_dead(), drift, 0.25),
            "dead witness must force a solve"
        );
        sk.force_refresh();
        assert!(sk.witness_density().to_f64() > 0.0);
    }

    #[test]
    fn empty_graph_reports_zero() {
        let sk = SketchEngine::new(SketchConfig::default());
        assert_eq!(sk.m(), 0);
        assert!(!refresh_due(
            sk.retained(),
            sk.witness.is_dead(),
            sk.sample_mutations(),
            0.25
        ));
        let bounds = CertifiedBounds {
            lower: sk.witness_density(),
            upper: sk.certified_upper(),
        };
        assert_eq!(bounds.upper, 0.0);
        assert_eq!(bounds.certified_factor(), 1.0);
    }

    #[test]
    fn rebuild_recovers_a_shrunken_sketch() {
        let mut sk = SketchEngine::new(SketchConfig {
            state_bound: 32,
            ..SketchConfig::default()
        });
        // Grow far past the bound so the level climbs…
        for i in 0..600u32 {
            sk.insert(i % 57, 57 + (i * 5) % 97);
        }
        let high = sk.level();
        assert!(high >= 4, "level {high}");
        // …then drain almost everything: the sample over-thins.
        let survivors: Vec<(u32, u32)> = sk.materialize().edges().take(3).collect();
        let all: Vec<(u32, u32)> = (0..600u32).map(|i| (i % 57, 57 + (i * 5) % 97)).collect();
        for &(u, v) in &all {
            if !survivors.contains(&(u, v)) {
                sk.delete(u, v);
            }
        }
        assert!(sk.is_undersampled(), "3 live edges at level {high}");
        // Rebuild from the authoritative live set: back to level 0, every
        // live edge retained, counters intact.
        sk.rebuild(survivors.iter().copied());
        assert_eq!(sk.level(), 0);
        assert_eq!(sk.retained(), 3);
        assert_eq!(sk.m(), 3);
        assert!(!sk.is_undersampled());
        assert_eq!(sk.stats().rebuilds, 1);
        assert!(sk.witness.is_dead(), "rebuild clears the witness");
        sk.force_refresh();
        let lower = sk.witness_density().to_f64();
        assert!(lower > 0.0, "the reseeded sketch certifies again");
        assert!(lower <= sk.certified_upper());
    }

    #[test]
    fn rebuild_picks_the_smallest_fitting_level() {
        let mut sk = SketchEngine::new(SketchConfig {
            state_bound: 64,
            ..SketchConfig::default()
        });
        let edges: Vec<(u32, u32)> = (0..400u32).map(|i| (i % 57, 57 + (i * 5) % 97)).collect();
        sk.rebuild(edges.iter().copied());
        assert!(sk.retained() <= 64, "bound holds after rebuild");
        assert!(sk.level() > 0, "400 edges cannot fit a 64 bound at level 0");
        // Minimality: one level down must overflow the bound.
        let down = sk.level() - 1;
        let admitted_down = edges
            .iter()
            .filter(|&&(u, v)| sk.sample.admits_at(down, u, v))
            .count();
        assert!(admitted_down > 64, "level was not minimal");
        assert_eq!(sk.m(), 400);
    }

    /// A spray of edges split across k deterministic partitions and merged
    /// back must equal the single engine over the whole stream, once both
    /// sit at the same level — the union-soundness the sharded engine's
    /// certification rests on.
    #[test]
    fn merged_partitions_equal_the_single_engine() {
        let config = SketchConfig {
            state_bound: 48,
            ..SketchConfig::default()
        };
        let edges: Vec<(u32, u32)> = (0..500u32).map(|i| (i % 61, 61 + (i * 7) % 83)).collect();
        let mut single = SketchEngine::new(config);
        let mut parts: Vec<SketchEngine> = (0..3).map(|_| SketchEngine::new(config)).collect();
        for &(u, v) in &edges {
            single.insert(u, v);
            parts[((u ^ v) % 3) as usize].insert(u, v);
        }
        // Drop a slice again, to exercise merged deletes too.
        for &(u, v) in edges.iter().step_by(5) {
            single.delete(u, v);
            parts[((u ^ v) % 3) as usize].delete(u, v);
        }
        let refs: Vec<&SketchEngine> = parts.iter().collect();
        let mut merged = SketchEngine::merged(config, &refs);
        assert_eq!(merged.m(), single.m(), "live counters must sum");
        let (mo, mi) = merged.degree_trackers();
        let (so, si) = single.degree_trackers();
        assert_eq!((mo.max(), mi.max()), (so.max(), si.max()));
        // Bring both to a common level; the retained sets must coincide.
        let level = merged.level().max(single.level());
        merged.raise_to_level(level);
        single.raise_to_level(level);
        let mut a: Vec<_> = merged.retained_edges().collect();
        let mut b: Vec<_> = single.retained_edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "merged sample diverged from the single engine");
    }

    #[test]
    #[should_panic(expected = "admission seeds must match")]
    fn merging_mismatched_seeds_panics() {
        let a = SketchEngine::new(SketchConfig::default());
        let b = SketchEngine::new(SketchConfig {
            seed: 1,
            ..SketchConfig::default()
        });
        let _ = SketchEngine::merged(SketchConfig::default(), &[&a, &b]);
    }

    /// `restore_at` rebuilds a snapshot's sketch as a pure function of
    /// `(seed, level, edges)` — identical retained set and counters.
    #[test]
    fn restore_at_reconstructs_the_sample() {
        let config = SketchConfig {
            state_bound: 32,
            ..SketchConfig::default()
        };
        let mut live = SketchEngine::new(config);
        let edges: Vec<(u32, u32)> = (0..300u32).map(|i| (i % 41, 41 + (i * 11) % 59)).collect();
        for &(u, v) in &edges {
            live.insert(u, v);
        }
        let restored = SketchEngine::restore_at(config, live.level(), edges.iter().copied());
        assert_eq!(restored.level(), live.level());
        assert_eq!(restored.m(), live.m());
        assert_eq!(restored.n(), live.n());
        let mut a: Vec<_> = restored.retained_edges().collect();
        let mut b: Vec<_> = live.retained_edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        let (ro, ri) = restored.degree_trackers();
        let (lo, li) = live.degree_trackers();
        assert_eq!((ro.max(), ri.max()), (lo.max(), li.max()));
    }

    /// The one-shot escalation machinery: an armed engine must run its
    /// next refresh exact-on-sketch regardless of the configured factor,
    /// then disarm and count the event.
    #[test]
    fn armed_escalation_fires_exactly_once() {
        let mut sk = SketchEngine::new(SketchConfig {
            escalate_factor: 2.0, // sweep-first: never escalates on its own
            ..SketchConfig::default()
        });
        for (u, v) in k22() {
            sk.insert(u, v);
        }
        assert!(sk.force_refresh().is_none(), "factor 2 stays sweep-first");
        assert!(!sk.escalation_armed(), "K_{{2,2}} cold start is healthy");
        sk.arm_escalation();
        sk.force_refresh();
        assert_eq!(sk.stats().escalations, 1, "armed refresh must go exact");
        assert_eq!(sk.stats().cold_escalations, 1);
        assert!(!sk.escalation_armed(), "one-shot must disarm after firing");
        sk.force_refresh();
        assert_eq!(sk.stats().escalations, 1, "the shot does not repeat");
    }

    /// The cold-start detector end to end: subsample a graph whose
    /// optimum the sweep-on-sample cannot see (scattered sample, high
    /// structural bound), then check the sweep-first refresh arms and the
    /// next one escalates.
    #[test]
    fn cold_start_degradation_arms_a_one_shot_escalation() {
        let mut sk = SketchEngine::new(SketchConfig {
            state_bound: 24,
            escalate_factor: 3.0,
            ..SketchConfig::default()
        });
        // Two opposed hub stars: m = 2400, d⁺_max = d⁻_max = 1200 pins the
        // structural bound at √2400 ≈ 49, while the level-≈7 sample
        // retains ~20 scattered star edges whose best pair certifies
        // ~√12 ≈ 3.5 — under 10% of the bound, with no incumbent: the
        // pinned shape.
        for v in 1..=1200u32 {
            sk.insert(0, v);
        }
        for u in 1201..=2400u32 {
            sk.insert(u, 2401);
        }
        assert!(
            sk.force_refresh().is_none(),
            "factor 3 must start sweep-first"
        );
        assert!(
            sk.escalation_armed(),
            "lower {} vs upper {}: cold start must arm",
            sk.witness_density(),
            sk.certified_upper()
        );
        // The armed refresh goes exact-on-sketch.
        let stats = sk.force_refresh();
        assert!(
            stats.is_some(),
            "armed refresh must escalate to exact-on-sketch"
        );
        assert!(!sk.escalation_armed(), "one-shot must disarm after firing");
        assert_eq!(sk.stats().cold_escalations, 1);
        assert_eq!(sk.stats().escalations, 1);
    }

    /// A healthy cold start (dense optimum, sweep recovers most of the
    /// bound) must NOT arm the escalation.
    #[test]
    fn healthy_sweeps_do_not_arm_escalation() {
        let mut sk = SketchEngine::new(SketchConfig {
            escalate_factor: 2.0,
            ..SketchConfig::default()
        });
        for u in 0..8u32 {
            for v in 8..16u32 {
                sk.insert(u, v);
            }
        }
        sk.force_refresh();
        assert!(!sk.escalation_armed(), "dense cold start must stay calm");
        assert_eq!(sk.stats().cold_escalations, 0);
    }

    #[test]
    fn deterministic_across_reruns() {
        let run = || {
            let mut sk = SketchEngine::new(SketchConfig {
                state_bound: 32,
                ..SketchConfig::default()
            });
            // `(i % 40, (i·7) % 60)` is injective below lcm(40, 60) = 120,
            // so the stream stays a clean turnstile.
            for i in 0..120u32 {
                sk.insert(i % 40, 40 + (i * 7) % 60);
                if i % 5 == 4 {
                    sk.delete(i % 40, 40 + (i * 7) % 60);
                }
            }
            sk.force_refresh();
            (
                sk.retained(),
                sk.level(),
                sk.m(),
                sk.witness_density(),
                sk.certified_upper().to_bits(),
            )
        };
        assert_eq!(run(), run());
    }
}
