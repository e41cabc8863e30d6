//! The dataset registry: seeded synthetic analogs of the paper's corpus.
//!
//! The SIGMOD 2020 evaluation uses ~a dozen real directed graphs spanning
//! 10³–10⁹ edges. Those corpora are not redistributable here, so each tier
//! below pairs a size class with the three structural families that drive
//! the algorithms' behaviour: uniform (`UN-*`, flat
//! degrees — pruning's worst case), power-law (`PL-*`, heavy tails — the
//! regime of real web/social graphs), and planted (`PD-*`, a known dense
//! block — recovery ground truth). All generators are seeded; every run of
//! the harness sees identical graphs.

use dds_graph::{gen, DiGraph};

/// Size class of a workload tier (roughly ×10 edges per step).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// ~2k edges: every algorithm, including the Θ(n²) baselines.
    Xs,
    /// ~20k edges: exact solver + all approximations.
    S,
    /// ~200k edges: approximations (exact optional).
    M,
    /// ~1M edges: scalable approximations only.
    L,
}

impl Scale {
    /// `(n, m)` for this tier, optionally shrunk for smoke tests.
    #[must_use]
    pub fn dims(self, quick: bool) -> (usize, usize) {
        match (self, quick) {
            (Scale::Xs, false) => (300, 2_000),
            (Scale::S, false) => (3_000, 20_000),
            (Scale::M, false) => (30_000, 200_000),
            (Scale::L, false) => (150_000, 1_000_000),
            (Scale::Xs, true) => (60, 320),
            (Scale::S, true) => (300, 1_600),
            (Scale::M, true) => (1_000, 6_000),
            (Scale::L, true) => (4_000, 24_000),
        }
    }

    /// Tier label used in dataset names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Xs => "xs",
            Scale::S => "s",
            Scale::M => "m",
            Scale::L => "l",
        }
    }
}

/// A named, reproducible benchmark graph.
pub struct Workload {
    /// Registry name, e.g. `PL-s`.
    pub name: String,
    /// Size tier.
    pub scale: Scale,
    /// The graph itself.
    pub graph: DiGraph,
}

const SEED: u64 = 0xDD5;

fn uniform(scale: Scale, quick: bool) -> Workload {
    let (n, m) = scale.dims(quick);
    Workload {
        name: format!("UN-{}", scale.label()),
        scale,
        graph: gen::gnm(n, m, SEED),
    }
}

fn power_law(scale: Scale, quick: bool) -> Workload {
    let (n, m) = scale.dims(quick);
    Workload {
        name: format!("PL-{}", scale.label()),
        scale,
        graph: gen::power_law(n, m, 2.2, SEED),
    }
}

fn planted(scale: Scale, quick: bool) -> Workload {
    let (n, m) = scale.dims(quick);
    // Block grows slowly with the tier so its density always dominates the
    // background (background densest ≈ O(m/n); block ≈ 0.9·sqrt(s·t)).
    let side = 6 + (m as f64).log10() as usize * 2;
    Workload {
        name: format!("PD-{}", scale.label()),
        scale,
        graph: gen::planted(n, m, side, side + 2, 0.9, SEED).graph,
    }
}

/// All workloads with `scale ≤ max_scale`, three families per tier.
#[must_use]
pub fn registry(max_scale: Scale, quick: bool) -> Vec<Workload> {
    let mut out = Vec::new();
    for scale in [Scale::Xs, Scale::S, Scale::M, Scale::L] {
        if scale > max_scale {
            break;
        }
        out.push(uniform(scale, quick));
        out.push(power_law(scale, quick));
        out.push(planted(scale, quick));
    }
    out
}

/// The canonical planted-block instance at vertex count `n` (edge budget
/// `5n`, block side growing with the edge count — the same recipe as the
/// `PD-*` registry tiers). Shared by experiments E13 and E17.
#[must_use]
pub fn planted_block(n: usize) -> gen::Planted {
    let m = n * 5;
    let side = 6 + (m as f64).log10() as usize * 2;
    gen::planted(n, m, side, side + 2, 0.9, SEED)
}

/// The vertex-count ladder used by the exact-efficiency experiment (E2):
/// power-law graphs of growing size; the quadratic baseline is only run on
/// the first few rungs (mirroring the paper, where the flow baseline
/// times out beyond small datasets).
#[must_use]
pub fn exact_ladder(quick: bool) -> Vec<(usize, DiGraph)> {
    let sizes: &[usize] = if quick {
        &[40, 60]
    } else {
        &[80, 120, 160, 240, 500, 1_000, 2_000]
    };
    sizes
        .iter()
        .map(|&n| (n, gen::power_law(n, n * 6, 2.2, SEED ^ n as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_deterministic_and_tiered() {
        let a = registry(Scale::S, true);
        let b = registry(Scale::S, true);
        assert_eq!(a.len(), 6);
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.name, wb.name);
            assert_eq!(wa.graph, wb.graph);
        }
        assert!(a.iter().all(|w| w.graph.m() > 0));
    }

    #[test]
    fn names_encode_family_and_tier() {
        let names: Vec<String> = registry(Scale::Xs, true)
            .into_iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(names, vec!["UN-xs", "PL-xs", "PD-xs"]);
    }

    #[test]
    fn ladder_grows() {
        let ladder = exact_ladder(true);
        assert!(ladder.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(ladder.iter().all(|(n, g)| g.n() == *n));
    }
}
