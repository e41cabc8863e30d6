//! The one certificate both full-graph engines hold.
//!
//! [`BoundTracker`] is the certificate of [`crate::StreamEngine`] and
//! [`crate::WindowEngine`] alike: every certification (an exact solve, a
//! core sweep, a sketch refresh) re-anchors it through one rule
//! ([`BoundTracker::reanchor`]), and one trigger ([`BoundTracker::cause`])
//! decides when the next is due. See the crate docs for the upper bounds
//! and their proofs. The lower bound, the structural upper bound and the
//! factor rule are the shared ones of [`dds_sketch::certify`]. The drift
//! since the last certification has two ingredients:
//!
//! * [`DeltaDrift`] — the **delta graph** (edges inserted since the last
//!   certification and still present) with exact degree maxima `aΔ`/`bΔ`
//!   (deleting an edge that postdates the certification refunds its
//!   budget). For every pair, the delta contributes at most
//!   `sqrt(aΔ·bΔ)` density — `E_Δ(S,T) ≤ min(|S|·aΔ, |T|·bΔ)
//!   ≤ sqrt(|S||T|·aΔ·bΔ)` by AM–GM — so scattered churn consumes almost
//!   no certificate budget even when thousands of edges have moved;
//! * [`CertEdges`] — the certified graph's **surviving** edges (present at
//!   the last certification and not yet deleted/expired) with exact degree
//!   maxima `aC`/`bC`. Every current edge is a surviving certified edge or
//!   a delta edge, so `ρ_now ≤ min(ρ₁, sqrt(aC·bC)) + sqrt(aΔ·bΔ)`: as
//!   pre-certification edges leave (a sliding window expiring its whole
//!   ring, say), `aC·bC` falls and the upper bound falls with it — the
//!   *refund* that keeps the band alive on long windows, where the frozen
//!   `ρ₁` anchor alone would pin the upper bound at its stale height while
//!   the lower bound decays.

use std::collections::HashSet;

use dds_core::{CoreApproxResult, SolveStats};
use dds_graph::{Pair, VertexId};
use dds_num::Density;
use dds_sketch::certify::{structural_upper, CertifiedBounds, WitnessTracker, SAFETY};
use dds_sketch::{MaxTracker, SketchEngine};

use crate::state::DynamicGraph;
use crate::witness::denser_pair;

/// The delta graph: edges inserted since the last certification and still
/// present, with exact per-side degree maxima (see module docs).
#[derive(Clone, Debug, Default)]
struct DeltaDrift {
    inserted: HashSet<(VertexId, VertexId)>,
    out: MaxTracker,
    r#in: MaxTracker,
}

impl DeltaDrift {
    /// Records an applied insertion (the edge was genuinely added).
    fn on_insert(&mut self, u: VertexId, v: VertexId) {
        if self.inserted.insert((u, v)) {
            self.out.incr(u as usize);
            self.r#in.incr(v as usize);
        }
    }

    /// Records an applied deletion, refunding the drift budget when the
    /// deleted edge postdates the last certification (the bound argument
    /// only counts inserted-and-still-present edges).
    fn on_delete(&mut self, u: VertexId, v: VertexId) {
        if self.inserted.remove(&(u, v)) {
            self.out.decr(u as usize);
            self.r#in.decr(v as usize);
        }
    }

    /// Forgets the delta (a fresh certification just happened).
    fn clear(&mut self) {
        self.inserted.clear();
        self.out.clear();
        self.r#in.clear();
    }

    /// Number of delta edges (`k` in the crossing bound).
    fn len(&self) -> usize {
        self.inserted.len()
    }

    /// The delta graph's degree maxima `(aΔ, bΔ)`.
    fn degree_maxima(&self) -> (u64, u64) {
        (self.out.max(), self.r#in.max())
    }

    /// The delta edges in canonical (sorted) order — the snapshot form.
    fn edges_sorted(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges: Vec<_> = self.inserted.iter().copied().collect();
        edges.sort_unstable();
        edges
    }
}

/// The surviving certified edges: the edge set frozen at the last
/// certification, shrunk as those edges are deleted or expire (see module
/// docs). Degree maxima are exact (count-of-counts), so the refund bound
/// `sqrt(aC·bC)` decays monotonically as the certified graph erodes.
#[derive(Clone, Debug, Default)]
struct CertEdges {
    present: HashSet<(VertexId, VertexId)>,
    out: MaxTracker,
    r#in: MaxTracker,
}

impl CertEdges {
    /// Freezes the current graph as the certified edge set (`O(m)`, run
    /// once per certification — the same order as the solve it follows).
    fn reset(&mut self, g: &DynamicGraph) {
        self.present.clear();
        self.out.clear();
        self.r#in.clear();
        for (u, v) in g.edges() {
            self.present.insert((u, v));
            self.out.incr(u as usize);
            self.r#in.incr(v as usize);
        }
    }

    /// Records an applied deletion/expiry, refunding the certified-degree
    /// budget when the edge predates the certification. (Re-inserting it
    /// later does *not* restore it here — it re-enters as a delta edge in
    /// [`DeltaDrift`], preserving the C/Δ partition the bound needs.)
    fn on_delete(&mut self, u: VertexId, v: VertexId) {
        if self.present.remove(&(u, v)) {
            self.out.decr(u as usize);
            self.r#in.decr(v as usize);
        }
    }

    /// The surviving certified edges' degree maxima `(aC, bC)`.
    fn degree_maxima(&self) -> (u64, u64) {
        (self.out.max(), self.r#in.max())
    }

    /// The surviving certified edges in canonical (sorted) order — the
    /// snapshot form.
    fn edges_sorted(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges: Vec<_> = self.present.iter().copied().collect();
        edges.sort_unstable();
        edges
    }

    /// Rebuilds the certified edge set from a snapshot's edge list (the
    /// restore path — [`CertEdges::reset`] freezes a live graph instead).
    fn restore<I: IntoIterator<Item = (VertexId, VertexId)>>(edges: I) -> Self {
        let mut cert = CertEdges::default();
        for (u, v) in edges {
            cert.present.insert((u, v));
            cert.out.incr(u as usize);
            cert.r#in.incr(v as usize);
        }
        cert
    }
}

/// Certified upper bound on the current optimum given `rho_cert` (a
/// certified upper bound at the last certification) and the drift since:
/// the minimum of four independently valid bounds (crate docs prove each):
///
/// 1. crossing drift — `(ρ₁ + sqrt(ρ₁² + 4k)) / 2` with `k` the delta
///    edge count (tight when few, possibly concentrated, inserts);
/// 2. delta-degree drift — `min(ρ₁, sqrt(aC·bC)) + sqrt(aΔ·bΔ)`, where
///    `aC`/`bC` are the **surviving** certified edges' degree maxima: any
///    pair's current edges split into surviving certified edges
///    (`E_C ≤ min(ρ₁·q, q·sqrt(aC·bC))`, the second term by the same
///    AM–GM as the delta) and post-certification inserts
///    (`E_Δ ≤ q·sqrt(aΔ·bΔ)`). The `aC·bC` arm refunds pre-certification
///    deletions/expiries, which the frozen `ρ₁` cannot;
/// 3. and 4. the structural `min(sqrt(m), sqrt(d⁺_max · d⁻_max))` on the
///    current graph ([`structural_upper`]), which is 0 on an edgeless
///    graph.
fn certified_upper(g: &DynamicGraph, rho_cert: f64, drift: &DeltaDrift, cert: &CertEdges) -> f64 {
    let k = drift.len() as f64;
    let crossing = 0.5 * (rho_cert + (rho_cert * rho_cert + 4.0 * k).sqrt());
    let (a, b) = drift.degree_maxima();
    let delta = ((a as f64) * (b as f64)).sqrt();
    let (ac, bc) = cert.degree_maxima();
    let surviving = ((ac as f64) * (bc as f64)).sqrt();
    let delta_deg = rho_cert.min(surviving) + delta;
    let structural = structural_upper(g.m() as u64, g.max_out_degree(), g.max_in_degree());
    (crossing.min(delta_deg) * (1.0 + SAFETY)).min(structural)
}

/// The anchor a max-product core sweep certifies, for
/// [`BoundTracker::reanchor`]: the sweep's `2·√(x·y)` upper bound on
/// `ρ_opt`, safety-inflated. Both engines' sweeps anchor here.
pub(crate) fn sweep_anchor(sweep: &CoreApproxResult) -> f64 {
    sweep.upper_bound * (1.0 + SAFETY)
}

/// Why a certificate must be renewed (feeds the engines'
/// `*_cause_cold_total` / `*_cause_band_total` counters).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cause {
    /// Edges exist but the lower bound is zero: no solve has happened yet,
    /// or every maintained pair decayed away.
    Cold,
    /// The certified band broke: `upper > gap · band(lower)`.
    Band,
}

/// The one certificate both full-graph engines hold: the anchor `ρ₁` and
/// the gap measured at the last certification, the drift since
/// ([`DeltaDrift`]), the surviving certified edges ([`CertEdges`]) and the
/// witness pair, plus the engine's band (`tolerance`, `slack`).
///
/// The lower bound is the witness's live density, raised to a caller-held
/// `floor` that the tracker does not maintain: the window engine's
/// decremental core, or [`Density::ZERO`] for the stream engine. Every
/// certification re-anchors through [`BoundTracker::reanchor`].
#[derive(Clone, Debug)]
pub(crate) struct BoundTracker {
    tolerance: f64,
    slack: f64,
    /// Certified upper bound on the optimum at the last certification
    /// (`ρ₁`), already carrying the float-safety inflation. Starts at 0:
    /// the empty graph is certified.
    rho_at_cert: f64,
    /// `upper / lower` measured right after the last certification (1 for
    /// an exact solve).
    gap_at_cert: f64,
    drift: DeltaDrift,
    cert: CertEdges,
    witness: WitnessTracker,
}

impl BoundTracker {
    /// An empty certificate for an engine whose band is
    /// `max(lower·(1+tolerance), lower+slack)`.
    pub(crate) fn new(tolerance: f64, slack: f64) -> Self {
        BoundTracker {
            tolerance,
            slack,
            rho_at_cert: 0.0,
            gap_at_cert: 1.0,
            drift: DeltaDrift::default(),
            cert: CertEdges::default(),
            witness: WitnessTracker::default(),
        }
    }

    /// Records an applied insertion (the edge was genuinely added).
    pub(crate) fn on_insert(&mut self, u: VertexId, v: VertexId) {
        self.drift.on_insert(u, v);
        self.witness.on_insert(u, v);
    }

    /// Records an applied deletion or expiry (the edge was genuinely
    /// removed).
    pub(crate) fn on_delete(&mut self, u: VertexId, v: VertexId) {
        self.drift.on_delete(u, v);
        self.cert.on_delete(u, v);
        self.witness.on_delete(u, v);
    }

    /// Re-anchors on a fresh certification of `g`: clears the drift,
    /// re-freezes the certified edges, then [`adopt`](Self::adopt)s `pair`
    /// and `rho_cert`.
    pub(crate) fn reanchor(
        &mut self,
        g: &DynamicGraph,
        pair: Option<Pair>,
        rho_cert: f64,
        floor: Density,
    ) {
        self.drift.clear();
        self.cert.reset(g);
        self.adopt(g, pair, rho_cert, floor);
    }

    /// Adopts `pair` as the witness (recounting its live edges on `g`; an
    /// empty pair counts as none) and `rho_cert` as `ρ₁`, then measures the
    /// fresh gap against `floor`. `rho_cert` must be a certified upper
    /// bound on `ρ_opt(g)` that already carries the [`SAFETY`] inflation.
    /// On its own this is for a second certification of the same graph
    /// right after [`reanchor`](Self::reanchor) (the window's exact
    /// escalation), whose drift and certified edges are already fresh.
    pub(crate) fn adopt(
        &mut self,
        g: &DynamicGraph,
        pair: Option<Pair>,
        rho_cert: f64,
        floor: Density,
    ) {
        self.rho_at_cert = rho_cert;
        self.witness
            .reset(g.n(), pair.filter(|p| !p.is_empty()), g.edges());
        self.gap_at_cert = self.bounds(g, floor).certified_factor().max(1.0);
    }

    /// The sketch tier's re-certification, shared by both engines so they
    /// cannot diverge on adoption policy:
    ///
    /// 1. a graph that shrank far below its peak leaves the sample
    ///    over-thinned (the level never decrements on its own), so reseed
    ///    it from the authoritative edge set first;
    /// 2. run the sketch refresh (core sweep of the sample, escalated per
    ///    the sketch's own config);
    /// 3. keep the denser of the fresh sketched pair and the incumbent
    ///    witness, measured on the full graph: both are real pairs of it,
    ///    and a subsampled sweep can be wrong about which is best;
    /// 4. re-anchor on that pair at the structural bound, since no solver
    ///    certified an upper bound on the full graph. No floor survives a
    ///    sketch refresh.
    ///
    /// Returns the escalation's instrumentation.
    pub(crate) fn sketch_reanchor(
        &mut self,
        sk: &mut SketchEngine,
        g: &DynamicGraph,
    ) -> Option<SolveStats> {
        if sk.is_undersampled() {
            sk.rebuild(g.edges());
        }
        let stats = sk.force_refresh();
        let fresh = sk.witness_pair().cloned().filter(|p| !p.is_empty());
        let pair = match (fresh, self.witness.pair().cloned()) {
            (Some(a), Some(b)) => Some(denser_pair(g.n(), g.edges(), a, b)),
            (a, b) => a.or(b),
        };
        let upper = structural_upper(g.m() as u64, g.max_out_degree(), g.max_in_degree());
        self.reanchor(g, pair, upper, Density::ZERO);
        stats
    }

    /// The one trigger: why the certificate must be renewed, if it must.
    /// Never on an edgeless graph (the empty certificate `[0, 0]` is
    /// exact); [`Cause::Cold`] when the lower bound (the witness or
    /// `floor`) is zero; [`Cause::Band`] when the upper bound exceeds
    /// `gap · max(lower·(1+tolerance), lower+slack)`. The engines pass the
    /// [`gap`](Self::gap) measured at the last certification; the window
    /// passes 1 to ask whether a fresh bracket misses the band itself.
    pub(crate) fn cause(&self, g: &DynamicGraph, floor: Density, gap: f64) -> Option<Cause> {
        if g.m() == 0 {
            return None;
        }
        let bounds = self.bounds(g, floor);
        let lower = bounds.lower.to_f64();
        if lower <= 0.0 {
            return Some(Cause::Cold);
        }
        let band = (lower * (1.0 + self.tolerance)).max(lower + self.slack);
        (bounds.upper > gap * band).then_some(Cause::Band)
    }

    /// The certified gap measured right after the last certification (1
    /// for an exact solve; up to 2 for the core approximation).
    pub(crate) fn gap(&self) -> f64 {
        self.gap_at_cert
    }

    /// The witness pair, if a certification adopted one.
    pub(crate) fn witness(&self) -> Option<&Pair> {
        self.witness.pair()
    }

    /// Both bounds as one bracket: the lower bound is the witness's live
    /// density, or `floor` when the floor is at least as dense; the upper
    /// bound is [`certified_upper`].
    pub(crate) fn bounds(&self, g: &DynamicGraph, floor: Density) -> CertifiedBounds {
        let witness = self.witness.density();
        CertifiedBounds {
            lower: if witness > floor { witness } else { floor },
            upper: certified_upper(g, self.rho_at_cert, &self.drift, &self.cert),
        }
    }

    /// The snapshot form of the certificate state: `ρ₁`, the gap, the
    /// witness pair, and the delta/certified edge sets in canonical order.
    #[allow(clippy::type_complexity)]
    pub(crate) fn snapshot_state(
        &self,
    ) -> (
        f64,
        f64,
        Option<&Pair>,
        Vec<(VertexId, VertexId)>,
        Vec<(VertexId, VertexId)>,
    ) {
        (
            self.rho_at_cert,
            self.gap_at_cert,
            self.witness.pair(),
            self.drift.edges_sorted(),
            self.cert.edges_sorted(),
        )
    }

    /// Resumes from snapshot state: `rho_at_cert` is stored
    /// already-inflated (bit-exact round trip, no double inflation), the
    /// witness is recounted against the restored graph, and the drift /
    /// certified-edge trackers are replayed from their edge lists.
    pub(crate) fn restore(
        &mut self,
        g: &DynamicGraph,
        rho_at_cert: f64,
        gap_at_cert: f64,
        witness: Option<Pair>,
        drift_edges: &[(VertexId, VertexId)],
        cert_edges: Vec<(VertexId, VertexId)>,
    ) {
        self.rho_at_cert = rho_at_cert;
        self.gap_at_cert = gap_at_cert;
        self.drift.clear();
        for &(u, v) in drift_edges {
            self.drift.on_insert(u, v);
        }
        self.cert = CertEdges::restore(cert_edges);
        self.witness.reset(g.n(), witness, g.edges());
    }
}
