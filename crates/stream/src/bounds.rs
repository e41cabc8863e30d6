//! Incremental certified bounds on the current optimum density.
//!
//! See the crate docs for the upper bounds and their proofs. The lower
//! bound, the structural upper bound and the factor rule are the shared
//! ones of [`dds_sketch::certify`]. Two reusable pieces live here
//! alongside [`BoundTracker`] (the grow-mostly engine's state), because
//! the window engine certifies with the same drift ingredients:
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

use dds_graph::{Pair, VertexId};
use dds_num::Density;
use dds_sketch::certify::{structural_upper, CertifiedBounds, WitnessTracker, SAFETY};
use dds_sketch::MaxTracker;

use crate::state::DynamicGraph;

/// The delta graph: edges inserted since the last certification and still
/// present, with exact per-side degree maxima (see module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct DeltaDrift {
    inserted: HashSet<(VertexId, VertexId)>,
    out: MaxTracker,
    r#in: MaxTracker,
}

impl DeltaDrift {
    /// Records an applied insertion (the edge was genuinely added).
    pub(crate) fn on_insert(&mut self, u: VertexId, v: VertexId) {
        if self.inserted.insert((u, v)) {
            self.out.incr(u as usize);
            self.r#in.incr(v as usize);
        }
    }

    /// Records an applied deletion, refunding the drift budget when the
    /// deleted edge postdates the last certification (the bound argument
    /// only counts inserted-and-still-present edges).
    pub(crate) fn on_delete(&mut self, u: VertexId, v: VertexId) {
        if self.inserted.remove(&(u, v)) {
            self.out.decr(u as usize);
            self.r#in.decr(v as usize);
        }
    }

    /// Forgets the delta (a fresh certification just happened).
    pub(crate) fn clear(&mut self) {
        self.inserted.clear();
        self.out.clear();
        self.r#in.clear();
    }

    /// Number of delta edges (`k` in the crossing bound).
    pub(crate) fn len(&self) -> usize {
        self.inserted.len()
    }

    /// The delta graph's degree maxima `(aΔ, bΔ)`.
    pub(crate) fn degree_maxima(&self) -> (u64, u64) {
        (self.out.max(), self.r#in.max())
    }

    /// The delta edges in canonical (sorted) order — the snapshot form.
    pub(crate) fn edges_sorted(&self) -> Vec<(VertexId, VertexId)> {
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
pub(crate) struct CertEdges {
    present: HashSet<(VertexId, VertexId)>,
    out: MaxTracker,
    r#in: MaxTracker,
}

impl CertEdges {
    /// Freezes the current graph as the certified edge set (`O(m)`, run
    /// once per certification — the same order as the solve it follows).
    pub(crate) fn reset(&mut self, g: &DynamicGraph) {
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
    pub(crate) fn on_delete(&mut self, u: VertexId, v: VertexId) {
        if self.present.remove(&(u, v)) {
            self.out.decr(u as usize);
            self.r#in.decr(v as usize);
        }
    }

    /// The surviving certified edges' degree maxima `(aC, bC)`.
    pub(crate) fn degree_maxima(&self) -> (u64, u64) {
        (self.out.max(), self.r#in.max())
    }

    /// The surviving certified edges in canonical (sorted) order — the
    /// snapshot form.
    pub(crate) fn edges_sorted(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges: Vec<_> = self.present.iter().copied().collect();
        edges.sort_unstable();
        edges
    }

    /// Rebuilds the certified edge set from a snapshot's edge list (the
    /// restore path — [`CertEdges::reset`] freezes a live graph instead).
    pub(crate) fn restore<I: IntoIterator<Item = (VertexId, VertexId)>>(edges: I) -> Self {
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
pub(crate) fn certified_upper(
    g: &DynamicGraph,
    rho_cert: f64,
    drift: &DeltaDrift,
    cert: &CertEdges,
) -> f64 {
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

/// The certification band both engines share, before their gap factor:
/// `max(lower·(1+tolerance), lower+slack)`. The relative arm is what you
/// configure for dense regimes; the absolute `slack` keeps quiet
/// low-density regimes from burning re-solves on noise.
pub(crate) fn certification_band(lower: f64, tolerance: f64, slack: f64) -> f64 {
    (lower * (1.0 + tolerance)).max(lower + slack)
}

/// The incrementally-maintained bound state of [`crate::StreamEngine`]
/// (crate-internal; the engine exposes it through [`CertifiedBounds`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct BoundTracker {
    /// Certified upper bound on the optimum at the last solve (`ρ₁`),
    /// already carrying the float-safety inflation.
    rho_at_solve: f64,
    /// `upper / lower` measured right after the last solve (1 for exact).
    gap_at_solve: f64,
    drift: DeltaDrift,
    cert: CertEdges,
    witness: WitnessTracker,
}

impl BoundTracker {
    pub(crate) fn new() -> Self {
        BoundTracker {
            gap_at_solve: 1.0,
            ..BoundTracker::default()
        }
    }

    /// Records an applied insertion (the edge was genuinely added).
    pub(crate) fn on_insert(&mut self, u: VertexId, v: VertexId) {
        self.drift.on_insert(u, v);
        self.witness.on_insert(u, v);
    }

    /// Records an applied deletion (the edge was genuinely removed).
    pub(crate) fn on_delete(&mut self, u: VertexId, v: VertexId) {
        self.drift.on_delete(u, v);
        self.cert.on_delete(u, v);
        self.witness.on_delete(u, v);
    }

    /// Resets the tracker after a full solve: `witness` is the solver's
    /// pair on `g` (materialised), `rho_upper` a certified upper bound on
    /// `ρ_opt(g)` (the exact optimum for exact solves).
    pub(crate) fn reset_after_solve(
        &mut self,
        g: &DynamicGraph,
        witness: Option<Pair>,
        rho_upper: f64,
    ) {
        self.drift.clear();
        self.cert.reset(g);
        self.rho_at_solve = rho_upper * (1.0 + SAFETY);
        self.witness.reset(g.n(), witness, g.edges());
        let bounds = self.bounds(g);
        self.gap_at_solve = bounds.certified_factor().max(1.0);
    }

    /// The witness pair, if a solve has happened.
    pub(crate) fn witness(&self) -> Option<&Pair> {
        self.witness.pair()
    }

    /// The certified gap measured right after the last solve (1 for an
    /// exact solve; up to 2 for the core approximation).
    pub(crate) fn gap_at_solve(&self) -> f64 {
        self.gap_at_solve
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
            self.rho_at_solve,
            self.gap_at_solve,
            self.witness.pair(),
            self.drift.edges_sorted(),
            self.cert.edges_sorted(),
        )
    }

    /// Rebuilds a tracker from snapshot state: `rho_at_solve` is stored
    /// already-inflated (bit-exact round trip, no double inflation), the
    /// witness is recounted against the restored graph, and the drift /
    /// certified-edge trackers are replayed from their edge lists.
    pub(crate) fn restore(
        g: &DynamicGraph,
        rho_at_solve: f64,
        gap_at_solve: f64,
        witness: Option<Pair>,
        drift_edges: &[(VertexId, VertexId)],
        cert_edges: Vec<(VertexId, VertexId)>,
    ) -> Self {
        let mut drift = DeltaDrift::default();
        for &(u, v) in drift_edges {
            drift.on_insert(u, v);
        }
        let mut tracker = BoundTracker {
            rho_at_solve,
            gap_at_solve,
            drift,
            cert: CertEdges::restore(cert_edges),
            witness: WitnessTracker::default(),
        };
        tracker.witness.reset(g.n(), witness, g.edges());
        tracker
    }

    /// Exact density of the witness on the current graph.
    pub(crate) fn lower(&self) -> Density {
        self.witness.density()
    }

    /// Certified upper bound on the current optimum ([`certified_upper`]).
    pub(crate) fn upper(&self, g: &DynamicGraph) -> f64 {
        certified_upper(g, self.rho_at_solve, &self.drift, &self.cert)
    }

    /// Both bounds as one bracket.
    pub(crate) fn bounds(&self, g: &DynamicGraph) -> CertifiedBounds {
        CertifiedBounds {
            lower: self.lower(),
            upper: self.upper(g),
        }
    }

    /// Diagnostic string showing each bound ingredient (debug logging).
    pub(crate) fn debug_bounds(&self, g: &DynamicGraph) -> String {
        let k = self.drift.len() as f64;
        let rho = self.rho_at_solve;
        let crossing = 0.5 * (rho + (rho * rho + 4.0 * k).sqrt());
        let (a, b) = self.drift.degree_maxima();
        let (ac, bc) = self.cert.degree_maxima();
        let surviving = ((ac as f64) * (bc as f64)).sqrt();
        let delta_deg = rho.min(surviving) + ((a as f64) * (b as f64)).sqrt();
        let sqrt_m = (g.m() as f64).sqrt();
        let degree = ((g.max_out_degree() as f64) * (g.max_in_degree() as f64)).sqrt();
        format!(
            "rho1={rho:.4} k={k} cross={crossing:.4} aD={a} bD={b} aC={ac} bC={bc} ddeg={delta_deg:.4} sqrtm={sqrt_m:.4} deg={degree:.4} wE={}",
            self.witness.edges()
        )
    }
}
