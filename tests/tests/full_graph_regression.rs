//! Regression lock on both full-graph streaming engines across every
//! certification mode: [`StreamEngine`] with the exact and the
//! core-approximation solver, each also with a sketch tier that engages
//! mid-stream, and [`WindowEngine`] with exact escalation on, off, and
//! with a sketch tier. Each run replays a small seeded stream at one
//! thread and pins its counters, its final answer, its worst certified
//! factor and the exact solver's summed work, so a refactor of the shared
//! certificate, or of the solver's ratio search, cannot move any of them
//! unnoticed. Every value is deterministic: seeded generators,
//! deterministic solvers, no wall clock in any decision.

use dds_bench::stream_workloads::{arrivals, churn};
use dds_core::SolveStats;
use dds_sketch::SketchConfig;
use dds_stream::{
    replay, replay_window, BatchBy, SketchTier, SolverKind, StreamConfig, StreamEngine,
    WindowConfig, WindowEngine, WindowMode,
};

/// What one replay pins.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    epochs: u64,
    /// Re-solves (stream) or refreshes (window).
    refreshes: u64,
    /// Full-graph exact solves among them.
    exact: u64,
    /// Sketch-tier re-certifications among them.
    sketch: u64,
    repairs: u64,
    expired: u64,
    m: usize,
    /// The final density as the exact triple `(edges, |S|, |T|)`.
    density: (u64, u64, u64),
    /// The worst certified factor over all epochs, to 6 decimals.
    max_factor: String,
    /// `(ratios_solved, flow_decisions)` summed over every epoch's solve.
    work: (usize, usize),
}

/// A sketch tier small enough to subsample these streams, engaging once
/// the live graph reaches `min_m` edges.
fn tier(min_m: usize) -> SketchTier {
    SketchTier {
        min_m,
        config: SketchConfig {
            state_bound: 96,
            ..SketchConfig::default()
        },
    }
}

fn max_factor(factors: impl Iterator<Item = f64>) -> String {
    format!("{:.6}", factors.fold(1.0f64, f64::max))
}

fn total_work(stats: impl Iterator<Item = Option<SolveStats>>) -> (usize, usize) {
    stats.flatten().fold((0, 0), |(ratios, flows), s| {
        (ratios + s.ratios_solved, flows + s.flow_decisions)
    })
}

/// FNV-1a over `bytes`: a stable fingerprint (std's hasher is not
/// guaranteed stable across releases).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn run_stream(solver: SolverKind, sketch: Option<SketchTier>) -> (Pinned, StreamEngine) {
    // A 6×6 planted block (ρ = 6) under 3k events of background churn.
    let events = churn(100, 360, (6, 6), 3_000, 0x5EED);
    let mut engine = StreamEngine::new(StreamConfig {
        solver,
        sketch,
        slack: 1.0,
        ..StreamConfig::default()
    });
    let reports = replay(&mut engine, &events, BatchBy::Count(25));
    let last = reports.last().expect("non-empty stream");
    let exact = reports
        .iter()
        .filter(|r| r.resolved && r.sketch.is_none() && r.solve_stats.is_some())
        .count() as u64;
    let pinned = Pinned {
        epochs: engine.epoch(),
        refreshes: engine.resolves(),
        exact,
        sketch: engine.sketch_resolves(),
        repairs: 0,
        expired: 0,
        m: last.m,
        density: (last.density.edges, last.density.s, last.density.t),
        max_factor: max_factor(reports.iter().map(|r| r.certified_factor)),
        work: total_work(reports.iter().map(|r| r.solve_stats)),
    };
    (pinned, engine)
}

fn run_window(exact_escalation: bool, sketch: Option<SketchTier>) -> Pinned {
    // Uniform arrivals: the optimum is weak and rotates with the window,
    // so refreshes, repairs and escalations all fire.
    let events = arrivals(60, 1_200, 0x5EED);
    let mut engine = WindowEngine::new(WindowConfig {
        exact_escalation,
        sketch,
        ..WindowConfig::new(300)
    });
    let reports = replay_window(&mut engine, &events, BatchBy::Count(20));
    assert!(
        reports.iter().all(|r| r.within_band),
        "an epoch left its band"
    );
    let last = reports.last().expect("non-empty stream");
    assert_eq!(
        engine.exact_solves(),
        reports
            .iter()
            .filter(|r| r.mode == WindowMode::ExactResolve)
            .count() as u64
    );
    Pinned {
        epochs: engine.epoch(),
        refreshes: engine.refreshes(),
        exact: engine.exact_solves(),
        sketch: engine.sketch_refreshes(),
        repairs: engine.repairs(),
        expired: engine.expired(),
        m: last.m,
        density: (last.density.edges, last.density.s, last.density.t),
        max_factor: max_factor(reports.iter().map(|r| r.certified_factor)),
        work: total_work(reports.iter().map(|r| r.solve_stats)),
    }
}

/// One run's recorded values, grouped as `(refreshes, exact, sketch)` and
/// `(repairs, expired)`, with no solver work (see [`Pinned::work`]).
fn pinned(
    epochs: u64,
    (refreshes, exact, sketch): (u64, u64, u64),
    (repairs, expired): (u64, u64),
    m: usize,
    density: (u64, u64, u64),
    max_factor: &str,
) -> Pinned {
    Pinned {
        epochs,
        refreshes,
        exact,
        sketch,
        repairs,
        expired,
        m,
        density,
        max_factor: max_factor.to_string(),
        work: (0, 0),
    }
}

impl Pinned {
    /// The same record with the solver's summed `ratios` and `flows`.
    fn work(self, ratios: usize, flows: usize) -> Pinned {
        Pinned {
            work: (ratios, flows),
            ..self
        }
    }
}

#[test]
fn stream_engine_modes_are_pinned() {
    let (exact, engine) = run_stream(SolverKind::Exact, None);
    assert_eq!(
        exact,
        pinned(134, (77, 77, 0), (0, 0), 384, (36, 6, 6), "1.247219").work(310, 331)
    );
    assert_eq!(
        fnv1a(&engine.snapshot(0)),
        0x10e0_8ccf_dec9_c407,
        "snapshot bytes changed"
    );
    let (approx, _) = run_stream(SolverKind::CoreApprox, None);
    assert_eq!(
        approx,
        pinned(134, (3, 0, 0), (0, 0), 384, (36, 6, 6), "2.081666")
    );
    let (exact_sketch, _) = run_stream(SolverKind::Exact, Some(tier(200)));
    assert_eq!(
        exact_sketch,
        pinned(134, (5, 3, 2), (0, 0), 384, (36, 6, 6), "2.081666").work(16, 21)
    );
    let (approx_sketch, _) = run_stream(SolverKind::CoreApprox, Some(tier(200)));
    assert_eq!(
        approx_sketch,
        pinned(134, (3, 0, 1), (0, 0), 384, (36, 6, 6), "2.081666").work(3, 4)
    );
}

#[test]
fn window_engine_modes_are_pinned() {
    assert_eq!(
        run_window(true, None),
        pinned(60, (20, 4, 0), (802, 832), 294, (172, 30, 44), "2.828427").work(27, 54)
    );
    assert_eq!(
        run_window(false, None),
        pinned(60, (17, 0, 0), (739, 832), 294, (139, 26, 40), "3.401680")
    );
    assert_eq!(
        run_window(true, Some(tier(200))),
        pinned(60, (7, 1, 4), (0, 832), 294, (7, 4, 12), "17.748239").work(38, 73)
    );
}
