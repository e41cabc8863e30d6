//! The experiment suite (E1–E20): one function per table/figure of the
//! reconstructed evaluation (E1–E11 follow the paper's own evaluation;
//! E12–E16 cover the streaming subsystems, E17 the parallel exact lanes,
//! E18 the query-serving tier, E19 the admin plane, E20 the cross-process
//! cluster tier). Each prints an aligned table to stdout, writes the same
//! data to `bench_results/<id>.csv`, and states the *expected shape* in
//! its header line so a run can be read as measured-vs-expected.
//!
//! E12–E20 are also the perf trajectory. Each replays its scenarios once,
//! asserts its experiment's contracts, and returns the [`BenchRecord`]
//! read off its headline row, so `dds-bench eNN`, `full` and `compare` run
//! the same code and a printed table cannot disagree with its gate.

use std::time::Duration;

use dds_cluster::{ClusterConfig, ClusterCore, ClusterEpoch, Frame, WorkerConfig, WorkerState};
use dds_core::{
    core_approx, parallel, DcExact, ExactOptions, ExhaustivePeel, FlowExact, GridPeel,
    SolveContext, SolveStats,
};
use dds_graph::GraphStats;
use dds_num::Density;
use dds_shard::{ShardConfig, ShardReport, ShardedEngine};
use dds_sketch::SketchConfig;
use dds_stream::{
    replay, replay_window, write_events, Batch, BatchBy, DynamicGraph, Event, SketchTier,
    SolverKind, StreamConfig, StreamEngine, TimedEvent, WindowConfig, WindowEngine, WindowMode,
};
use dds_xycore::{max_product_core, skyline};

use crate::perf::BenchRecord;
use crate::report::{fmt_duration, time, Table};
use crate::stream_workloads::{arrivals, churn, planted_emerge, recurring_block};
use crate::workloads::{exact_ladder, planted_block, registry, Scale};

/// Runs one experiment by id (`e1`…`e20`); `quick` shrinks workloads for
/// smoke tests. The perf-tracked experiments (E12–E20) return their
/// record.
///
/// # Panics
/// Panics on an unknown id.
pub fn run(id: &str, quick: bool) -> Option<BenchRecord> {
    let table = |f: fn(bool)| {
        f(quick);
        None
    };
    match id {
        "e1" => table(e1_datasets),
        "e2" => table(e2_exact_efficiency),
        "e3" => table(e3_network_sizes),
        "e4" => table(e4_ablation),
        "e5" => table(e5_approx_efficiency),
        "e6" => table(e6_quality),
        "e7" => table(e7_scalability),
        "e8" => table(e8_epsilon),
        "e9" => table(e9_case_study),
        "e10" => table(e10_cores),
        "e11" => table(e11_parallel),
        "e12" => Some(e12_streaming(quick)),
        "e13" => Some(e13_solve_context(quick)),
        "e14" => Some(e14_window(quick)),
        "e15" => Some(e15_sketch_tier(quick)),
        "e16" => Some(e16_shard_scaling(quick)),
        "e17" => Some(e17_pool_parallel(quick)),
        "e18" => Some(e18_serve(quick)),
        "e19" => Some(e19_admin(quick)),
        "e20" => Some(e20_cluster(quick)),
        other => panic!("unknown experiment {other:?} (expected e1..e20)"),
    }
}

/// All experiment ids in order.
pub const ALL: [&str; 20] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20",
];

/// E1 — dataset statistics table (the paper's "Table: datasets").
pub fn e1_datasets(quick: bool) {
    println!(
        "\n=== E1: dataset statistics (expected: heavy tails on PL-*, planted density on PD-*)"
    );
    let mut t = Table::new(
        "datasets",
        &[
            "name",
            "n",
            "m",
            "d+max",
            "d-max",
            "maxcore[x,y]",
            "x*y",
            "core_rho",
            "core_ms",
        ],
    );
    for w in registry(Scale::L, quick) {
        let s = GraphStats::compute(&w.graph);
        let (core, dur) = time(|| max_product_core(&w.graph));
        let (label, product, rho) = match core {
            Some(c) => {
                let d = c.mask.density(&w.graph);
                (
                    format!("[{},{}]", c.x, c.y),
                    c.product().to_string(),
                    format!("{:.3}", d.to_f64()),
                )
            }
            None => ("-".into(), "0".into(), "0".into()),
        };
        t.row(vec![
            w.name.clone(),
            s.n.to_string(),
            s.m.to_string(),
            s.max_out_degree.to_string(),
            s.max_in_degree.to_string(),
            label,
            product,
            rho,
            format!("{:.1}", dur.as_secs_f64() * 1e3),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e1_datasets");
}

/// E2 — exact-algorithm efficiency (the paper's headline figure: the
/// divide-and-conquer exact solver vs the Θ(n²)-ratio flow baseline).
pub fn e2_exact_efficiency(quick: bool) {
    println!("\n=== E2: exact efficiency (expected: DcExact orders of magnitude faster; gap grows with n)");
    let baseline_cap = if quick { 60 } else { 120 };
    let mut t = Table::new(
        "exact runtimes on the power-law ladder",
        &[
            "n",
            "m",
            "dc_ms",
            "dc_ratios",
            "base_ms",
            "base_ratios",
            "speedup",
        ],
    );
    for (n, g) in exact_ladder(quick) {
        let (dc, dc_t) = time(|| DcExact::new().solve(&g));
        let (base_cell, base_ratio_cell, speed_cell) = if n <= baseline_cap {
            let (base, base_t) = time(|| FlowExact.solve(&g));
            assert_eq!(
                dc.solution.density, base.solution.density,
                "solvers disagree at n={n}"
            );
            (
                format!("{:.1}", base_t.as_secs_f64() * 1e3),
                base.ratios_solved.to_string(),
                format!(
                    "{:.0}x",
                    base_t.as_secs_f64() / dc_t.as_secs_f64().max(1e-9)
                ),
            )
        } else {
            ("skipped".into(), "-".into(), "-".into())
        };
        t.row(vec![
            n.to_string(),
            g.m().to_string(),
            format!("{:.1}", dc_t.as_secs_f64() * 1e3),
            dc.ratios_solved.to_string(),
            base_cell,
            base_ratio_cell,
            speed_cell,
        ]);
    }
    println!("{}", t.render());
    println!("(baseline skipped beyond n = {baseline_cap}: its Θ(n²) ratio count makes runs impractical, as in the paper)");
    t.write_csv("e2_exact");
}

/// E3 — flow-network size across decisions (the paper's "network shrinks
/// as the search converges" figure), with and without core pruning.
pub fn e3_network_sizes(quick: bool) {
    println!("\n=== E3: flow-network sizes (expected: core pruning shrinks networks by orders of magnitude)");
    let w = registry(Scale::S, quick)
        .into_iter()
        .find(|w| w.name.starts_with("PD"))
        .unwrap();
    let g = &w.graph;
    let mut t = Table::new(
        format!("network nodes per decision on {} (n={})", w.name, g.n()),
        &["variant", "decisions", "max_nodes", "mean_nodes", "first_8"],
    );
    for (label, core) in [("with core pruning", true), ("without", false)] {
        let opts = ExactOptions {
            core_pruning: core,
            ..ExactOptions::default()
        };
        let r = DcExact::with_options(opts).solve(g);
        let nodes = &r.network_nodes;
        let mean = if nodes.is_empty() {
            0.0
        } else {
            nodes.iter().sum::<usize>() as f64 / nodes.len() as f64
        };
        t.row(vec![
            label.into(),
            nodes.len().to_string(),
            nodes.iter().max().copied().unwrap_or(0).to_string(),
            format!("{mean:.1}"),
            format!("{:?}", &nodes[..nodes.len().min(8)]),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e3_netsize");
}

/// E4 — pruning-device ablation (the paper's "effect of each technique").
pub fn e4_ablation(quick: bool) {
    println!("\n=== E4: ablation (expected: γ-pruning largest, then core pruning; -dc collapses to the baseline)");
    let variants: [(&str, ExactOptions); 6] = [
        ("full", ExactOptions::default()),
        (
            "-tie",
            ExactOptions {
                tie_pruning: false,
                ..Default::default()
            },
        ),
        (
            "-gamma",
            ExactOptions {
                gamma_pruning: false,
                ..Default::default()
            },
        ),
        (
            "-core",
            ExactOptions {
                core_pruning: false,
                ..Default::default()
            },
        ),
        (
            "-warm",
            ExactOptions {
                warm_start: false,
                ..Default::default()
            },
        ),
        (
            "-dc",
            ExactOptions {
                divide_and_conquer: false,
                ..Default::default()
            },
        ),
    ];
    let mut t = Table::new(
        "DcExact variants",
        &["dataset", "variant", "ms", "ratios", "flows", "max_nodes"],
    );
    // The -dc and -gamma variants lose the device that keeps the ratio
    // count tractable, so beyond this size they are skipped on the tier
    // datasets (like the paper's timed-out baseline bars) and measured on
    // the ladder rung below instead; E2 quantifies the same gap directly.
    let slow_variant_cap = 150;
    for w in registry(Scale::Xs, quick) {
        let mut reference = None;
        for (label, opts) in variants {
            if matches!(label, "-dc" | "-gamma") && w.graph.n() > slow_variant_cap {
                t.row(vec![
                    w.name.clone(),
                    label.into(),
                    "skipped".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let (r, dur) = time(|| DcExact::with_options(opts).solve(&w.graph));
            match &reference {
                None => reference = Some(r.solution.density),
                Some(d) => assert_eq!(*d, r.solution.density, "{label} changed the optimum"),
            }
            t.row(vec![
                w.name.clone(),
                label.into(),
                format!("{:.1}", dur.as_secs_f64() * 1e3),
                r.ratios_solved.to_string(),
                r.flow_decisions.to_string(),
                r.network_nodes
                    .iter()
                    .max()
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
            ]);
        }
    }
    // One rung where every variant (including -dc) is measurable.
    let (n120, ladder_g) = exact_ladder(quick)
        .into_iter()
        .next()
        .expect("ladder non-empty");
    let mut reference = None;
    for (label, opts) in variants {
        let (r, dur) = time(|| DcExact::with_options(opts).solve(&ladder_g));
        match &reference {
            None => reference = Some(r.solution.density),
            Some(d) => assert_eq!(*d, r.solution.density, "{label} changed the optimum"),
        }
        t.row(vec![
            format!("PL-ladder-{n120}"),
            label.into(),
            format!("{:.1}", dur.as_secs_f64() * 1e3),
            r.ratios_solved.to_string(),
            r.flow_decisions.to_string(),
            r.network_nodes
                .iter()
                .max()
                .copied()
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e4_ablation");
}

/// E5 — approximation efficiency across tiers (the paper's "CoreApprox up
/// to orders of magnitude faster than peeling" figure).
pub fn e5_approx_efficiency(quick: bool) {
    println!("\n=== E5: approximation efficiency (expected: core ≪ grid ≪ exhaustive; exhaustive infeasible beyond XS)");
    let mut t = Table::new(
        "approximation runtimes",
        &["dataset", "n", "m", "core_ms", "grid_ms", "exhaustive_ms"],
    );
    for w in registry(Scale::L, quick) {
        let g = &w.graph;
        let (core, core_t) = time(|| core_approx(g));
        let (grid, grid_t) = time(|| GridPeel::new(0.1).solve(g));
        let exhaustive_cell = if w.scale == Scale::Xs {
            let (ex, ex_t) = time(|| ExhaustivePeel.solve(g));
            assert!(ex.solution.density >= grid.solution.density);
            format!("{:.1}", ex_t.as_secs_f64() * 1e3)
        } else {
            "skipped".into()
        };
        let _ = core;
        t.row(vec![
            w.name.clone(),
            g.n().to_string(),
            g.m().to_string(),
            format!("{:.1}", core_t.as_secs_f64() * 1e3),
            format!("{:.1}", grid_t.as_secs_f64() * 1e3),
            exhaustive_cell,
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e5_approx");
}

/// E6 — approximation quality against the exact optimum (the paper's
/// "observed ratios are near 1, far above the ½ guarantee").
pub fn e6_quality(quick: bool) {
    println!("\n=== E6: approximation quality (expected: all ≥ 0.5, typically ≥ 0.8)");
    let mut t = Table::new(
        "density relative to the exact optimum",
        &["dataset", "rho_opt", "core", "grid(0.1)", "exhaustive"],
    );
    let max_scale = if quick { Scale::Xs } else { Scale::S };
    for w in registry(max_scale, quick) {
        let g = &w.graph;
        let opt = DcExact::new().solve(g).solution.density;
        let rel = |d: dds_num::Density| -> String {
            if opt.is_zero() {
                "1.000".into()
            } else {
                format!("{:.3}", d.to_f64() / opt.to_f64())
            }
        };
        let core = core_approx(g).solution.density;
        let grid = GridPeel::new(0.1).solve(g).solution.density;
        let exhaustive = if w.scale == Scale::Xs {
            rel(ExhaustivePeel.solve(g).solution.density)
        } else {
            "skipped".into()
        };
        assert!(
            2.0 * core.to_f64() + 1e-9 >= opt.to_f64(),
            "{}: guarantee broken",
            w.name
        );
        t.row(vec![
            w.name.clone(),
            format!("{:.3}", opt.to_f64()),
            rel(core),
            rel(grid),
            exhaustive,
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e6_quality");
}

/// E7 — scalability: runtime versus sampled edge fraction (the paper's
/// near-linear scalability figure).
pub fn e7_scalability(quick: bool) {
    println!(
        "\n=== E7: scalability vs edge fraction (expected: near-linear for both approximations)"
    );
    let w = registry(Scale::L, quick)
        .into_iter()
        .find(|w| w.name.starts_with("PL-l"))
        .unwrap();
    let mut t = Table::new(
        format!("runtime on edge-sampled {}", w.name),
        &["fraction", "m", "core_ms", "grid_ms"],
    );
    for percent in [20usize, 40, 60, 80, 100] {
        let mut k = 0usize;
        let sub = w.graph.filter_edges(|_, _| {
            k += 1;
            k % 100 < percent
        });
        let (_, core_t) = time(|| core_approx(&sub));
        let (_, grid_t) = time(|| GridPeel::new(0.2).solve(&sub));
        t.row(vec![
            format!("{percent}%"),
            sub.m().to_string(),
            format!("{:.1}", core_t.as_secs_f64() * 1e3),
            format!("{:.1}", grid_t.as_secs_f64() * 1e3),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e7_scalability");
}

/// E8 — `GridPeel` ε sensitivity (time/quality trade-off).
pub fn e8_epsilon(quick: bool) {
    println!(
        "\n=== E8: GridPeel epsilon sweep (expected: time ~ 1/ε, quality non-increasing in ε)"
    );
    let w = registry(Scale::M, quick)
        .into_iter()
        .find(|w| w.name.starts_with("PL-m"))
        .unwrap();
    let g = &w.graph;
    let mut t = Table::new(
        format!("epsilon sweep on {}", w.name),
        &["epsilon", "ratios", "ms", "density"],
    );
    for eps in [0.05, 0.1, 0.2, 0.5, 1.0] {
        let (r, dur) = time(|| GridPeel::new(eps).solve(g));
        t.row(vec![
            format!("{eps}"),
            r.ratios_tried.to_string(),
            format!("{:.1}", dur.as_secs_f64() * 1e3),
            format!("{:.4}", r.solution.density.to_f64()),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e8_epsilon");
}

/// E9 — case studies: planted-ring recovery and hub/authority separation
/// (the paper's qualitative section).
pub fn e9_case_study(quick: bool) {
    println!("\n=== E9: case studies (expected: exact recovery of the planted block; hubs/authorities split)");
    let (n, m) = if quick { (200, 1_000) } else { (2_000, 8_000) };
    let planted = dds_graph::gen::planted(n, m, 8, 10, 1.0, 7);
    let (r, dur) = time(|| DcExact::new().solve(&planted.graph));
    let hit_s = r
        .solution
        .pair
        .s()
        .iter()
        .filter(|v| planted.pair.s().contains(v))
        .count();
    let hit_t = r
        .solution
        .pair
        .t()
        .iter()
        .filter(|v| planted.pair.t().contains(v))
        .count();
    let mut t = Table::new("planted-ring recovery", &["metric", "value"]);
    t.row(vec![
        "planted density".into(),
        format!("{:.4}", planted.pair.density(&planted.graph).to_f64()),
    ]);
    t.row(vec![
        "recovered density".into(),
        format!("{:.4}", r.solution.density.to_f64()),
    ]);
    t.row(vec![
        "S recall".into(),
        format!("{hit_s}/{}", planted.pair.s().len()),
    ]);
    t.row(vec![
        "T recall".into(),
        format!("{hit_t}/{}", planted.pair.t().len()),
    ]);
    t.row(vec!["solve time".into(), fmt_duration(dur)]);
    println!("{}", t.render());
    t.write_csv("e9_case_study");

    let w = registry(Scale::S, quick)
        .into_iter()
        .find(|w| w.name.starts_with("PL"))
        .unwrap();
    let g = &w.graph;
    let sol = core_approx(g).solution;
    let avg = |side: &[u32], f: &dyn Fn(u32) -> usize| {
        side.iter().map(|&v| f(v) as f64).sum::<f64>() / side.len().max(1) as f64
    };
    let mut t = Table::new(
        "hub/authority separation on the power-law tier",
        &["side", "size", "avg_out", "avg_in"],
    );
    t.row(vec![
        "S (hubs)".into(),
        sol.pair.s().len().to_string(),
        format!("{:.1}", avg(sol.pair.s(), &|v| g.out_degree(v))),
        format!("{:.1}", avg(sol.pair.s(), &|v| g.in_degree(v))),
    ]);
    t.row(vec![
        "T (authorities)".into(),
        sol.pair.t().len().to_string(),
        format!("{:.1}", avg(sol.pair.t(), &|v| g.out_degree(v))),
        format!("{:.1}", avg(sol.pair.t(), &|v| g.in_degree(v))),
    ]);
    println!("{}", t.render());
    t.write_csv("e9_hub_authority");
}

/// E10 — core-decomposition statistics (skyline extent, sweep costs).
/// On every dataset whose skyline it computes, asserts that the pruned
/// sweep's product is the skyline's largest `x·y`.
pub fn e10_cores(quick: bool) {
    println!("\n=== E10: [x,y]-core decomposition (expected: skyline sweep ≫ double sweep; both grow ~linearly)");
    let max_scale = if quick { Scale::S } else { Scale::M };
    let mut t = Table::new(
        "core decomposition",
        &[
            "dataset",
            "skyline_pts",
            "skyline_ms",
            "maxprod",
            "sweep_evals",
            "sweep_ms",
        ],
    );
    for w in registry(max_scale, quick) {
        let g = &w.graph;
        let (sky, sky_ms) = if w.scale <= Scale::S {
            let (sky, d) = time(|| skyline(g));
            (Some(sky), format!("{:.1}", d.as_secs_f64() * 1e3))
        } else {
            (None, "-".into())
        };
        let (best, d) = time(|| max_product_core(g));
        let (prod, evals) = best.map_or((0, 0), |b| (b.product(), b.sweep_evals));
        if let Some(sky) = &sky {
            let sky_max = sky.iter().map(|p| p.x * p.y).max().unwrap_or(0);
            assert_eq!(
                prod, sky_max,
                "{}: the sweep's product is not the skyline's largest x·y",
                w.name
            );
        }
        let sky_cell = sky.map_or("skipped".into(), |sky| sky.len().to_string());
        t.row(vec![
            w.name.clone(),
            sky_cell,
            sky_ms,
            prod.to_string(),
            evals.to_string(),
            format!("{:.1}", d.as_secs_f64() * 1e3),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e10_cores");
}

/// E11 — parallel speedup of the grid peel, whose grid points are
/// independent peels.
pub fn e11_parallel(quick: bool) {
    println!("\n=== E11: parallel speedup (expected: near-linear for grid peel up to core count)");
    let w = registry(Scale::M, quick)
        .into_iter()
        .find(|w| w.name.starts_with("PL-m"))
        .unwrap();
    let g = &w.graph;
    let mut t = Table::new(
        format!("threads vs wall time on {}", w.name),
        &["threads", "grid_ms", "grid_speedup"],
    );
    let mut grid_base = None;
    for threads in [1usize, 2, 4, 8] {
        let (_, grid_t) = time(|| parallel::grid_peel_parallel(g, 0.1, threads));
        let base = *grid_base.get_or_insert(grid_t.as_secs_f64());
        t.row(vec![
            threads.to_string(),
            format!("{:.1}", grid_t.as_secs_f64() * 1e3),
            format!("{:.2}x", base / grid_t.as_secs_f64().max(1e-9)),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e11_parallel");
}

/// Seed of every streaming experiment's event stream.
const STREAM_SEED: u64 = 0xDD5;

/// The churn stream E12 and E16–E20 replay: a complete 32×32 block on 400
/// vertices under `background_m`-edge background churn, 100k churn events
/// (20k in quick mode).
fn churn_stream(background_m: usize, quick: bool) -> Vec<TimedEvent> {
    let events = if quick { 20_000 } else { 100_000 };
    churn(400, background_m, (32, 32), events, STREAM_SEED)
}

/// The largest of `factors`, and at least 1.
fn max_factor(factors: impl Iterator<Item = f64>) -> f64 {
    factors.fold(1.0, f64::max)
}

/// What one epoch of a replay certified, kept for [`check_sampled_epochs`]
/// after the timed replays.
struct SampledEpoch {
    m: u64,
    retained: usize,
    density: Density,
    upper: f64,
}

/// Checks replays of `events` in `batch`-event epochs against one
/// independent `DynamicGraph` mirror of the raw events. Each run is
/// `(name, state bound, epochs)`. Every epoch of every run must count the
/// mirror's live edges, keep a bracket that does not invert, and retain at
/// most its bound. At every fifth of the stream and at its last epoch, one
/// fresh exact solve of the mirror must sit inside every run's bracket.
/// Returns each run's worst realized factor (exact over the lower bound) at
/// those epochs.
fn check_sampled_epochs(
    exp: &str,
    events: &[TimedEvent],
    batch: usize,
    runs: &[(String, usize, Vec<SampledEpoch>)],
) -> Vec<f64> {
    let epochs = events.len().div_ceil(batch);
    let sample_every = (epochs / 5).max(1);
    let mut worst = vec![1.0f64; runs.len()];
    let mut mirror = DynamicGraph::new();
    for (name, _, run) in runs {
        assert_eq!(run.len(), epochs, "{exp} {name}: one epoch per batch");
    }
    for (i, chunk) in events.chunks(batch).enumerate() {
        let epoch = i + 1;
        for ev in chunk {
            match ev.event {
                Event::Insert(u, v) => mirror.insert(u, v),
                Event::Delete(u, v) => mirror.delete(u, v),
            };
        }
        let exact = (epoch % sample_every == 0 || epoch == epochs)
            .then(|| DcExact::new().solve(&mirror.materialize()).solution.density);
        for ((name, bound, run), worst) in runs.iter().zip(&mut worst) {
            let e = &run[i];
            assert_eq!(
                e.m,
                mirror.m() as u64,
                "{exp} {name} epoch {epoch}: the live edge count diverged from the mirror"
            );
            assert!(
                e.density.to_f64() <= e.upper * (1.0 + 1e-9),
                "{exp} {name} epoch {epoch}: inverted bracket [{}, {}]",
                e.density,
                e.upper
            );
            assert!(
                e.retained <= *bound,
                "{exp} {name} epoch {epoch}: retained {} broke the state bound {bound}",
                e.retained
            );
            if let Some(exact) = exact {
                assert!(
                    e.density <= exact && exact.to_f64() <= e.upper * (1.0 + 1e-9),
                    "{exp} {name} epoch {epoch}: bracket [{}, {}] misses exact {exact}",
                    e.density,
                    e.upper
                );
                if !e.density.is_zero() {
                    *worst = worst.max(exact.to_f64() / e.density.to_f64());
                }
            }
        }
    }
    worst
}

/// E12 — streaming lazy re-solve with the exact solver: the share of
/// epochs the incremental certificate absorbs, on a stable optimum under
/// churn (the headline row) and on a block that forms mid-stream. Every
/// scenario also runs the stream engine's kill/restore drill: a snapshot
/// taken at the half-way epoch restores to an engine that finishes the
/// stream with the original's live edge count at every epoch, sound
/// brackets, and the same final edge set. Its warm solver context is perf
/// state, not certificate state, so its re-solves may differ.
pub fn e12_streaming(quick: bool) -> BenchRecord {
    const BATCH: usize = 100;
    const CURSOR: u64 = 9;
    println!(
        "\n=== E12: streaming lazy re-solve (expected: churn ≥90% incremental, emerge re-solves while the block forms)"
    );
    let emerge = if quick {
        (
            "emerge-80",
            planted_emerge(80, 100, (10, 10), 600, STREAM_SEED),
        )
    } else {
        (
            "emerge-200",
            planted_emerge(200, 600, (16, 16), 10_000, STREAM_SEED),
        )
    };
    let scenarios = [("churn-400", churn_stream(2_500, quick)), emerge];
    let mut t = Table::new(
        format!("stream scenarios, exact solver, batch = {BATCH} events, tolerance = 0.25"),
        &[
            "scenario",
            "events",
            "epochs",
            "resolves",
            "incremental",
            "ratios",
            "flows",
            "resolve_ms",
            "density",
            "max_factor",
            "snapshot_B",
            "time",
        ],
    );
    let mut record = None;
    for (name, events) in &scenarios {
        let config = StreamConfig::default();
        let by = BatchBy::Count(BATCH);
        let half = events.len() / (2 * BATCH) * BATCH; // a batch boundary
        let mut engine = StreamEngine::new(config);
        let (mut reports, first) = time(|| replay(&mut engine, &events[..half], by));
        let snap = engine.snapshot(CURSOR);
        let (rest, second) = time(|| replay(&mut engine, &events[half..], by));
        let wall = first + second;

        let (mut restored, cursor) = StreamEngine::restore(config, &snap).expect("stream restore");
        assert_eq!(cursor, CURSOR);
        assert_eq!(
            restored.snapshot(CURSOR),
            snap,
            "{name}: round-trip identity"
        );
        for (x, y) in rest.iter().zip(replay(&mut restored, &events[half..], by)) {
            assert_eq!(x.m, y.m, "{name}: epoch {} edge sets diverged", x.epoch);
            assert!(
                x.lower <= x.upper * (1.0 + 1e-9) && y.lower <= y.upper * (1.0 + 1e-9),
                "{name}: epoch {}: a bracket inverted after restore",
                x.epoch
            );
        }
        let edges = |e: &StreamEngine| {
            let mut edges: Vec<_> = e.materialize().edges().collect();
            edges.sort_unstable();
            edges
        };
        assert_eq!(edges(&engine), edges(&restored), "{name}: final edge sets");

        reports.extend(rest);
        let epochs = reports.len() as u64;
        let resolves = engine.resolves();
        let solve = reports.iter().filter_map(|r| r.solve_stats).fold(
            SolveStats::default(),
            |mut acc, s| {
                acc.merge(s);
                acc
            },
        );
        let max_f = max_factor(reports.iter().map(|r| r.certified_factor));
        let resolve_time: Duration = reports
            .iter()
            .filter(|r| r.resolved)
            .map(|r| r.elapsed)
            .sum();
        let last = reports.last().expect("non-empty scenario");
        t.row(vec![
            (*name).into(),
            events.len().to_string(),
            epochs.to_string(),
            resolves.to_string(),
            format!(
                "{:.1}%",
                100.0 * (epochs - resolves) as f64 / epochs.max(1) as f64
            ),
            solve.ratios_solved.to_string(),
            solve.flow_decisions.to_string(),
            format!("{:.0}", resolve_time.as_secs_f64() * 1e3),
            format!("{:.3}", last.density.to_f64()),
            format!("{max_f:.3}"),
            snap.len().to_string(),
            fmt_duration(wall),
        ]);
        record.get_or_insert_with(|| {
            BenchRecord::new(
                "e12",
                quick,
                wall,
                [
                    ("epochs", epochs),
                    ("resolves", resolves),
                    ("ratios_solved", solve.ratios_solved as u64),
                    ("flow_decisions", solve.flow_decisions as u64),
                ],
                [("max_certified", max_f)],
            )
        });
    }
    println!("{}", t.render());
    println!("(kill/restore: every scenario resumed from its half-way snapshot with identical edge sets and sound brackets)");
    t.write_csv("e12_streaming");
    record.expect("the headline scenario ran")
}

/// E13 — the `SolveContext` pipeline: exact tie pruning versus the legacy
/// strict-margin engine on planted blocks, and warm-context re-solves
/// versus cold solves over a churned graph sequence (the streaming
/// re-solve pattern). The record is the tie-pruned solve of the first
/// block; its flow decisions pin the pruning (a per-ratio search that
/// bisects β, or a reverted tie pruning, multiplies them).
pub fn e13_solve_context(quick: bool) -> BenchRecord {
    println!(
        "\n=== E13: SolveContext (expected: tie pruning cuts flow decisions ≥2x on planted blocks; warm contexts re-solve with fewer flows and recycled buffers)"
    );
    let sizes = if quick { [200, 500] } else { [500, 2_000] };
    let mut t = Table::new(
        "exact tie pruning on planted blocks",
        &[
            "n",
            "m",
            "variant",
            "ratios",
            "flows",
            "tie_prunes",
            "arena_hits",
            "core_hits",
            "ms",
        ],
    );
    let mut record = None;
    for n in sizes {
        let p = planted_block(n);
        let g = &p.graph;
        let planted = p.pair.density(g);
        let (with, d_with) = time(|| DcExact::new().solve(g));
        let (without, d_without) = time(|| {
            DcExact::with_options(ExactOptions {
                tie_pruning: false,
                ..ExactOptions::default()
            })
            .solve(g)
        });
        assert_eq!(
            with.solution.density, without.solution.density,
            "tie pruning changed the optimum at n={n}"
        );
        assert!(
            with.solution.density >= planted,
            "e13: the solver missed the planted block at n={n}"
        );
        assert!(
            2 * with.flow_decisions <= without.flow_decisions,
            "tie pruning must at least halve the flow decisions at n={n} ({} vs {})",
            with.flow_decisions,
            without.flow_decisions
        );
        for (label, r, d) in [
            ("tie-pruned", &with, d_with),
            ("legacy", &without, d_without),
        ] {
            t.row(vec![
                n.to_string(),
                g.m().to_string(),
                label.into(),
                r.ratios_solved.to_string(),
                r.flow_decisions.to_string(),
                r.ratios_pruned_tie.to_string(),
                r.arena_reuse_hits.to_string(),
                r.core_cache_hits.to_string(),
                format!("{:.1}", d.as_secs_f64() * 1e3),
            ]);
        }
        record.get_or_insert_with(|| {
            BenchRecord::new(
                "e13",
                quick,
                d_with,
                [
                    ("ratios_solved", with.ratios_solved as u64),
                    ("flow_decisions", with.flow_decisions as u64),
                    ("arena_reuse_hits", with.arena_reuse_hits as u64),
                    ("core_cache_hits", with.core_cache_hits as u64),
                ],
                [(
                    "density_vs_planted",
                    with.solution.density.to_f64() / planted.to_f64().max(f64::MIN_POSITIVE),
                )],
            )
        });
    }
    println!("{}", t.render());
    t.write_csv("e13_tie_pruning");

    // Warm-context re-solves: churn ~1% of the edges per epoch (the lazy
    // re-solve pattern of the stream engine) and compare a cold solver
    // against one long-lived context.
    let n = if quick { 200 } else { 1_000 };
    let base = planted_block(n);
    let mut t = Table::new(
        format!("warm vs cold re-solves under churn (planted n={n})"),
        &[
            "epoch",
            "cold_flows",
            "warm_flows",
            "cold_ms",
            "warm_ms",
            "arena_hits",
            "core_hits",
            "seed_rho",
        ],
    );
    let mut ctx = SolveContext::new();
    for epoch in 0..5usize {
        let mut k = 0usize;
        let g = base.graph.filter_edges(|_, _| {
            k += 1;
            !(k + epoch).is_multiple_of(97) // drop a rotating ~1% slice
        });
        let (cold, d_cold) = time(|| DcExact::new().solve(&g));
        let (warm, d_warm) = time(|| DcExact::new().solve_with(&mut ctx, &g));
        assert_eq!(
            cold.solution.density, warm.solution.density,
            "warm context changed the optimum at epoch {epoch}"
        );
        t.row(vec![
            epoch.to_string(),
            cold.flow_decisions.to_string(),
            warm.flow_decisions.to_string(),
            format!("{:.1}", d_cold.as_secs_f64() * 1e3),
            format!("{:.1}", d_warm.as_secs_f64() * 1e3),
            warm.arena_reuse_hits.to_string(),
            warm.core_cache_hits.to_string(),
            warm.context_seed_density
                .map_or("-".into(), |d| format!("{d:.3}")),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e13_warm_context");
    record.expect("the headline block ran")
}

/// E14 — sliding-window maintenance with the window-native engine:
/// fraction of epochs absorbed without any solver, core-refresh vs
/// exact-escalation split, and the certified band across the whole replay.
/// The headline row is a structureless uniform arrival stream (the optimum
/// is weak and rotates with the window); the second is a recurring dense
/// block (the optimum persists through renewals while the background
/// slides). A broken decremental repair or drift certificate shows as a
/// refresh and exact-solve storm in the record.
pub fn e14_window(quick: bool) -> BenchRecord {
    const BATCH: usize = 25;
    const WINDOW: u64 = 4_000;
    println!(
        "\n=== E14: window-native engine (expected: ≥90% of epochs without an exact re-solve, every epoch within its band)"
    );
    let events = if quick { 10_000 } else { 20_000 };
    let scenarios = [
        ("warrivals-400", arrivals(400, events, STREAM_SEED)),
        (
            "wrecurring-400",
            recurring_block(400, (16, 16), 2_000, events, STREAM_SEED),
        ),
    ];
    let mut t = Table::new(
        format!(
            "sliding-window scenarios, W = {WINDOW} ticks, batch = {BATCH} events, tolerance = 0.25"
        ),
        &[
            "scenario",
            "events",
            "epochs",
            "refreshes",
            "exact",
            "no_exact",
            "expired",
            "repairs",
            "density",
            "max_factor",
            "time",
        ],
    );
    let mut record = None;
    for (name, events) in &scenarios {
        let mut engine = WindowEngine::new(WindowConfig {
            tolerance: 0.25,
            slack: 2.0,
            exact_escalation: true,
            ..WindowConfig::new(WINDOW)
        });
        let (reports, d) = time(|| replay_window(&mut engine, events, BatchBy::Count(BATCH)));
        let epochs = reports.len() as u64;
        let exact = reports
            .iter()
            .filter(|r| r.mode == WindowMode::ExactResolve)
            .count() as u64;
        let no_exact = 100.0 * (epochs - exact) as f64 / epochs.max(1) as f64;
        let max_f = max_factor(reports.iter().map(|r| r.certified_factor));
        // The headline guarantees of the window engine — regressions here
        // fail the harness, not just skew a table.
        assert!(
            no_exact >= 90.0,
            "{name}: only {no_exact:.1}% of epochs avoided an exact re-solve"
        );
        for r in &reports {
            assert!(
                r.within_band,
                "{name}: epoch {} left its certified band ([{:.3}, {:.3}])",
                r.epoch, r.lower, r.upper
            );
        }
        let last = reports.last().expect("non-empty scenario");
        t.row(vec![
            (*name).into(),
            events.len().to_string(),
            epochs.to_string(),
            engine.refreshes().to_string(),
            exact.to_string(),
            format!("{no_exact:.1}%"),
            engine.expired().to_string(),
            engine.repairs().to_string(),
            format!("{:.3}", last.density.to_f64()),
            format!("{max_f:.3}"),
            fmt_duration(d),
        ]);
        record.get_or_insert_with(|| {
            BenchRecord::new(
                "e14",
                quick,
                d,
                [
                    ("epochs", epochs),
                    ("refreshes", engine.refreshes()),
                    ("exact_solves", exact),
                    ("expired", engine.expired()),
                    ("repairs", engine.repairs()),
                ],
                [("max_certified", max_f)],
            )
        });
    }
    println!("{}", t.render());
    t.write_csv("e14_window");
    record.expect("the headline scenario ran")
}

/// E15 — the sketch tier vs the core-sweep tier on a large churn replay
/// (the approximation-first regime: graphs whose full `O(√m·(n+m))` sweep
/// is the thing being avoided). All tiers run the *same* `StreamEngine`
/// band policy; only the re-certification differs. The harness asserts the
/// sketch tier's headline guarantees: the subsampler engages, retained
/// state stays within the state bound and ≤ 10% of the live edge set at
/// peak, every epoch's bracket passes `check_sampled_epochs`, and (full
/// mode) sketch refreshes beat the sweep's total re-solve time. The record
/// is the `sketch` row.
pub fn e15_sketch_tier(quick: bool) -> BenchRecord {
    println!(
        "\n=== E15: sketch tier vs core-sweep tier (expected: bounded retained state, sound brackets, cheaper refreshes)"
    );
    // Full mode sits squarely in the tier's target regime: a live edge set
    // (~225k) whose `O(√m·(n+m))` sweep costs real milliseconds, and a
    // *dense* optimum (ρ = 256). The density matters: uniform sampling at
    // rate `p` keeps a pair's signal only while `p·ρ ≳ 1`, so the state
    // bound the tier can afford (`bound ≈ p·m`) preserves the optimum
    // exactly when `ρ ≫ m / bound` — the Mitrović–Pan regime. A sparse
    // optimum (ρ ~ 30 on this m) would still be *bracketed* soundly, but
    // the witness would be noise and the whole exercise pointless.
    let (n, bg, block, events, batch, bound) = if quick {
        (300, 1_500, (48, 48), 20_000usize, 50, 300)
    } else {
        (4_000, 160_000, (256, 256), 1_000_000usize, 500, 4_000)
    };
    let stream = churn(n, bg, block, events, STREAM_SEED);

    // Three operating points: the full core sweep; the sketch tier in its
    // sweep-first configuration (escalate only when the sweep-on-sketch
    // certifies nothing — the headline, wall-time-asserted row); and the
    // sketch tier forced always-exact (every refresh is an exact-on-sketch
    // solve), which prices the escalation hatch that replaces an
    // exact-on-full solve no one could afford at this m.
    let sketch_at = |escalate_factor: f64| {
        Some(SketchTier {
            min_m: 0,
            config: SketchConfig {
                state_bound: bound,
                escalate_factor,
                ..SketchConfig::default()
            },
        })
    };
    let tiers = [
        ("core-sweep", None),
        ("sketch", sketch_at(2.0)),
        ("sketch-exact", sketch_at(1.0)),
    ];
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for (tier, sketch) in tiers {
        let mut engine = StreamEngine::new(StreamConfig {
            solver: SolverKind::CoreApprox,
            sketch,
            ..Default::default()
        });
        let (mut resolves, mut resolve_time, mut wall) = (0u64, Duration::ZERO, Duration::ZERO);
        let (mut peak_m, mut max_f) = (0usize, 1.0f64);
        let mut epochs = Vec::new();
        for chunk in stream.chunks(batch) {
            let r = engine.apply(&Batch::from_events(chunk.to_vec()));
            wall += r.elapsed;
            peak_m = peak_m.max(r.m);
            max_f = max_f.max(r.certified_factor);
            if r.resolved {
                resolves += 1;
                resolve_time += r.elapsed;
            }
            epochs.push(SampledEpoch {
                m: r.m as u64,
                retained: engine.sketch_stats().map_or(0, |s| s.retained),
                density: r.density,
                upper: r.upper,
            });
        }
        let stats = engine.sketch_stats();
        if let Some(stats) = &stats {
            assert!(stats.level >= 1, "e15 {tier}: the subsampler never engaged");
            assert!(
                stats.peak_retained <= bound,
                "e15 {tier}: the sample peaked at {} edges, past the state bound {bound}",
                stats.peak_retained
            );
            assert!(
                stats.peak_retained as f64 <= 0.10 * peak_m as f64,
                "e15 {tier}: retained peak {} exceeds 10% of peak live m {peak_m}",
                stats.peak_retained
            );
        }
        rows.push((tier, stats, resolves, resolve_time, peak_m, max_f, wall));
        runs.push((tier.to_string(), bound, epochs));
    }
    let worst = check_sampled_epochs("e15", &stream, batch, &runs);

    let mut t = Table::new(
        format!(
            "1M-style churn replay: n = {n}, background m = {bg}, block {}x{}, batch = {batch}, bound = {bound}",
            block.0, block.1
        ),
        &[
            "tier",
            "events",
            "epochs",
            "resolves",
            "escal",
            "subsamples",
            "resolve_ms",
            "mean_ms",
            "peak_m",
            "retained_pk",
            "state_frac",
            "max_factor",
            "worst_realized",
            "wall",
        ],
    );
    let epochs = stream.len().div_ceil(batch) as u64;
    let mut record = None;
    for ((tier, stats, resolves, resolve_time, peak_m, max_f, wall), worst) in
        rows.iter().zip(&worst)
    {
        let resolve_ms = resolve_time.as_secs_f64() * 1e3;
        let [escal, subsamples, retained, frac] = match stats {
            Some(s) => [
                s.escalations.to_string(),
                s.subsamples.to_string(),
                s.peak_retained.to_string(),
                format!("{:.1}%", 100.0 * s.peak_retained as f64 / *peak_m as f64),
            ],
            None => ["-".to_string(), "-".into(), "-".into(), "-".into()],
        };
        t.row(vec![
            (*tier).into(),
            stream.len().to_string(),
            epochs.to_string(),
            resolves.to_string(),
            escal,
            subsamples,
            format!("{resolve_ms:.0}"),
            format!("{:.1}", resolve_ms / (*resolves).max(1) as f64),
            peak_m.to_string(),
            retained,
            frac,
            format!("{max_f:.3}"),
            format!("{worst:.3}"),
            format!("{:.2}s", wall.as_secs_f64()),
        ]);
        if *tier == "sketch" {
            let s = stats.as_ref().expect("the sketch row runs the sketch tier");
            record = Some(BenchRecord::new(
                "e15",
                quick,
                *wall,
                [
                    ("epochs", epochs),
                    ("resolves", *resolves),
                    ("escalations", s.escalations),
                    ("subsamples", s.subsamples),
                    ("peak_retained", s.peak_retained as u64),
                ],
                [("max_certified", *max_f)],
            ));
        }
    }
    println!("{}", t.render());
    t.write_csv("e15_sketch_tier");
    let (sweep, sketch) = (rows[0].3, rows[1].3);
    if !quick {
        assert!(
            sketch < sweep,
            "sketch refreshes ({:.0} ms) must beat the core sweeps ({:.0} ms)",
            sketch.as_secs_f64() * 1e3,
            sweep.as_secs_f64() * 1e3
        );
    }
    record.expect("the sketch row ran")
}

/// E16 — shard scaling: a churn stream replayed through the
/// edge-partitioned `ShardedEngine` at K ∈ {1, 2, 4, 8}. The partitions
/// apply in one serial pass, so the apply-wall column shows what
/// partitioning costs; certification cost is K-independent by
/// construction (summed counters, one merged solve). Every K's epochs
/// must pass `check_sampled_epochs` within K state bounds. The K = 4 row
/// is the record, and its replay runs the kill/restore drill: a snapshot
/// at the half-way epoch restores to an engine that must match the
/// uninterrupted one **bit for bit**, report by report, through the rest
/// of the stream.
pub fn e16_shard_scaling(quick: bool) -> BenchRecord {
    const BATCH: usize = 100;
    const BOUND: usize = 500;
    const DRILL_K: usize = 4;
    const CURSOR: u64 = 7;
    println!(
        "\n=== E16: shard scaling on a churn stream (expected: sound merged brackets at every K, bit-identical kill/restore)"
    );
    let stream = churn_stream(4_000, quick);
    let ks: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    println!(
        "{} events, n = 400, background m = 4000, block 32x32, batch = {BATCH}, bound = {BOUND}/shard",
        stream.len(),
    );
    let config_for = |k: usize| ShardConfig {
        shards: k,
        sketch: SketchConfig {
            state_bound: BOUND,
            ..SketchConfig::default()
        },
        ..ShardConfig::default()
    };
    let half = stream.len().div_ceil(BATCH) / 2;
    let mut runs = Vec::new();
    let mut rows = Vec::new();
    for &k in ks {
        let mut engine = ShardedEngine::new(config_for(k));
        let mut reports = Vec::new();
        let mut snap = None;
        for chunk in stream.chunks(BATCH) {
            reports.push(engine.apply(&Batch::from_events(chunk.to_vec())));
            if k == DRILL_K && reports.len() == half {
                snap = Some(engine.snapshot(CURSOR));
            }
        }
        if let Some(snap) = snap {
            let (mut restored, cursor) =
                ShardedEngine::restore(config_for(k), &snap).expect("restore must succeed");
            assert_eq!(cursor, CURSOR);
            assert_eq!(restored.snapshot(CURSOR), snap, "round-trip identity");
            for (chunk, x) in stream.chunks(BATCH).skip(half).zip(&reports[half..]) {
                let y = restored.apply(&Batch::from_events(chunk.to_vec()));
                assert_eq!(
                    (x.m, x.refreshed, x.lower.to_bits(), x.upper.to_bits()),
                    (y.m, y.refreshed, y.lower.to_bits(), y.upper.to_bits()),
                    "shard epoch {} diverged after restore",
                    x.epoch
                );
            }
            assert_eq!(
                engine.snapshot(0),
                restored.snapshot(0),
                "kill/restore must end bit-identical"
            );
            println!(
                "kill/restore at K = {k}: snapshot of {} bytes after epoch {half}, resumed bit-identically through {} epochs to m = {}",
                snap.len(),
                reports.len() - half,
                engine.m(),
            );
        }
        let sum = |f: fn(&ShardReport) -> Duration| reports.iter().map(f).sum::<Duration>();
        rows.push((
            k,
            engine.stats(),
            (sum(|r| r.apply), sum(|r| r.certify), sum(|r| r.elapsed)),
            reports.iter().map(|r| r.retained).max().unwrap_or(0),
            max_factor(reports.iter().map(|r| r.certified_factor)),
        ));
        let epochs = reports
            .iter()
            .map(|r| SampledEpoch {
                m: r.m,
                retained: r.retained,
                density: r.density,
                upper: r.upper,
            })
            .collect();
        runs.push((format!("K={k}"), k * BOUND, epochs));
    }
    let worst = check_sampled_epochs("e16", &stream, BATCH, &runs);

    let mut t = Table::new(
        "shard batch apply: K partitions, one serial pass".to_string(),
        &[
            "K",
            "epochs",
            "refreshes",
            "escal",
            "apply_ms",
            "certify_ms",
            "wall",
            "retained_pk",
            "max_factor",
            "worst_realized",
        ],
    );
    let epochs = stream.len().div_ceil(BATCH) as u64;
    let mut record = None;
    for ((k, stats, (apply, certify, wall), retained_pk, max_f), worst) in rows.iter().zip(&worst) {
        t.row(vec![
            k.to_string(),
            epochs.to_string(),
            stats.refreshes.to_string(),
            stats.escalations.to_string(),
            format!("{:.0}", apply.as_secs_f64() * 1e3),
            format!("{:.0}", certify.as_secs_f64() * 1e3),
            fmt_duration(*wall),
            retained_pk.to_string(),
            format!("{max_f:.3}"),
            format!("{worst:.3}"),
        ]);
        if *k == DRILL_K {
            record = Some(BenchRecord::new(
                "e16",
                quick,
                *wall,
                [
                    ("epochs", epochs),
                    ("refreshes", stats.refreshes),
                    ("escalations", stats.escalations),
                    ("peak_retained", *retained_pk as u64),
                ],
                [("max_certified", *max_f)],
            ));
        }
    }
    println!("{}", t.render());
    t.write_csv("e16_shard_scaling");
    record.expect("the K = 4 row ran")
}

/// E17 — the exact interval queue on parallel lanes, on a
/// single-dominant-ratio instance. Config A is the serial engine
/// (threads = 1), config B the interval queue with one lane per core:
/// lane 0 on the caller, the rest on scoped threads. Both must land on
/// the **bit-identical** density (the lanes change scheduling, never
/// answers). The planted block concentrates nearly all solve time in the
/// ratios around its own `|S|/|T|`, so B is not expected to beat A here;
/// the table records the honest numbers. The record holds A's counters
/// and B's wall time.
///
/// The lanes B spawned (cores − 1) are printed as the pool's task delta
/// around the sweep, pinning that the solve actually forked.
pub fn e17_pool_parallel(quick: bool) -> BenchRecord {
    use dds_core::WorkerPool;

    println!(
        "\n=== E17: parallel lanes (expected: bit-identical densities serial vs interval queue)"
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let n = if quick { 250 } else { 2_500 };
    let p = planted_block(n);
    let planted_rho = p.pair.density(&p.graph);
    let pool_before = WorkerPool::global().stats();
    println!(
        "planted block: n = {n}, m = {}, planted rho = {} ({cores} core(s))",
        p.graph.m(),
        planted_rho,
    );

    let mut t = Table::new(
        "exact solve: serial vs interval queue",
        &["config", "threads", "wall_ms", "ratios", "flows", "density"],
    );
    let (serial, wall_a) = time(|| DcExact::new().solve(&p.graph));
    let (queue, wall_b) = time(|| {
        let mut ctx = SolveContext::new();
        parallel::dc_exact_parallel_with(&mut ctx, &p.graph, ExactOptions::default(), cores)
    });
    for (label, threads, report, wall) in [
        ("A serial", 1, &serial, wall_a),
        ("B interval queue", cores, &queue, wall_b),
    ] {
        t.row(vec![
            label.to_string(),
            threads.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            report.ratios_solved.to_string(),
            report.flow_decisions.to_string(),
            format!("{:.6}", report.solution.density.to_f64()),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e17_pool_parallel");
    assert_eq!(
        queue.solution.density, serial.solution.density,
        "pool-backed interval queue diverged from serial"
    );
    assert_eq!(
        queue.solution.pair.density(&p.graph),
        serial.solution.density,
        "the parallel witness must certify the serial density"
    );
    assert!(
        serial.solution.density >= planted_rho,
        "solver missed the planted block"
    );

    println!(
        "lanes spawned: {}",
        WorkerPool::global().stats().tasks - pool_before.tasks
    );
    BenchRecord::new(
        "e17",
        quick,
        wall_b,
        [
            ("ratios_solved", serial.ratios_solved as u64),
            ("flow_decisions", serial.flow_decisions as u64),
        ],
        [(
            "parallel_vs_serial_density",
            queue.solution.density.to_f64()
                / serial.solution.density.to_f64().max(f64::MIN_POSITIVE),
        )],
    )
}

/// E18 — the query-serving tier under churn: client threads hammer a
/// live `dds-serve` front end with mixed `DENSITY`/`MEMBER`/`CORE`/`TOPK`
/// queries **while** the main thread replays the churn workload and
/// publishes one immutable snapshot per sealed epoch through the
/// arc-swap cell. Two operating points — 1 client / 2 readers (the
/// record) and 4 clients / 5 readers — share the stream; after every
/// publish the driver's own oracle connection re-queries `DENSITY` and
/// asserts the byte-exact answer for that epoch (per-epoch oracle
/// confirmation). The harness asserts one publish per epoch, zero
/// stale-epoch violations (a connection never sees an epoch id go
/// backwards), zero bracket violations, and zero `ERR` responses once an
/// epoch is published; with ≥ 4 real cores and full workloads the
/// 4-client aggregate throughput must beat the 1-client run by ≥ 1.5x
/// (readers scale on snapshots, never on engine locks) — on fewer cores
/// the table still records the honest numbers and the assertion is
/// skipped. Query counts and latencies depend on scheduling, so they stay
/// out of the record.
pub fn e18_serve(quick: bool) -> BenchRecord {
    use crate::serve_load::{percentile, run_clients, ClientPlan, ClientReport};
    use dds_serve::{EpochFacts, PublishOptions, Publisher, ServeMetrics, Server, SnapshotCell};
    use std::io::{BufRead, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const BATCH: usize = 100;
    const CORE: (u64, u64) = (1, 1);
    println!(
        "\n=== E18: query serving under churn (expected: zero stale/bracket/ERR violations, 4-client qps >= 1.5x 1-client with >= 4 cores)"
    );
    let stream = churn_stream(4_000, quick);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "{} events, n = 400, background m = 4000, block 32x32, batch = {BATCH}, core [{},{}], top-2 ({cores} core(s))",
        stream.len(),
        CORE.0,
        CORE.1,
    );

    let mut t = Table::new(
        "concurrent readers vs churn ingestion",
        &[
            "clients",
            "readers",
            "epochs",
            "publishes",
            "resolves",
            "queries",
            "err>0",
            "stale",
            "brk_bad",
            "p50_us",
            "p99_us",
            "qps",
            "max_cert",
            "wall",
        ],
    );
    let mut qps_by_clients: Vec<f64> = Vec::new();
    let mut record = None;
    // A connection occupies its reader for the connection's lifetime, so
    // the pool must cover every concurrent connection: the N load clients
    // plus the driver's own oracle connection.
    for (clients, readers) in [(1usize, 2usize), (4, 5)] {
        let mut engine = StreamEngine::new(StreamConfig {
            solver: SolverKind::CoreApprox,
            ..StreamConfig::default()
        });
        let cell = Arc::new(SnapshotCell::new());
        let metrics = Arc::new(ServeMetrics::new());
        let mut publisher = Publisher::new(
            Arc::clone(&cell),
            PublishOptions {
                core: Some(CORE),
                top_k: 2,
            },
            Arc::clone(&metrics),
        );
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&cell),
            readers,
            Arc::clone(&metrics),
        )
        .expect("bind ephemeral port");
        let stop = Arc::new(AtomicBool::new(false));
        let plan = ClientPlan {
            addr: server.addr(),
            stop: Arc::clone(&stop),
            core: Some(CORE),
            top_k: 2,
        };
        let load = {
            let plan = plan.clone();
            std::thread::spawn(move || run_clients(clients, &plan))
        };

        // The driver's oracle connection: one DENSITY per publish, checked
        // byte for byte against the engine's own report for that epoch.
        let oracle = std::net::TcpStream::connect(server.addr()).expect("oracle connect");
        let mut oracle_reader =
            std::io::BufReader::new(oracle.try_clone().expect("clone oracle stream"));
        let mut oracle = oracle;

        let mut epochs = 0u64;
        let mut max_f = 1.0f64;
        let ((), wall) = time(|| {
            for chunk in stream.chunks(BATCH) {
                let r = engine.apply(&Batch::from_events(chunk.to_vec()));
                publisher.publish(
                    EpochFacts {
                        epoch: r.epoch,
                        n: r.n,
                        m: r.m as u64,
                        density: r.density.to_f64(),
                        lower: r.lower,
                        upper: r.upper,
                        witness: engine.witness(),
                        resolved: r.resolved,
                    },
                    || engine.materialize(),
                );
                epochs += 1;
                max_f = max_f.max(r.certified_factor);
                oracle.write_all(b"DENSITY\n").expect("oracle query");
                let mut line = String::new();
                oracle_reader.read_line(&mut line).expect("oracle response");
                assert_eq!(
                    line.trim_end(),
                    format!(
                        "OK DENSITY epoch={} n={} m={} density={:.6} lower={:.6} upper={:.6}",
                        r.epoch,
                        r.n,
                        r.m,
                        r.density.to_f64(),
                        r.lower,
                        r.upper
                    ),
                    "oracle mismatch at epoch {}",
                    r.epoch
                );
            }
        });
        stop.store(true, Ordering::Relaxed);
        let reports = load.join().expect("load clients");
        drop(server); // shuts down on drop

        let mut total = ClientReport::default();
        for r in &reports {
            total.merge(r);
        }
        assert_eq!(total.stale_violations, 0, "epoch ids went backwards");
        assert_eq!(total.bracket_violations, 0, "a served bracket inverted");
        assert_eq!(
            total.errors_after_epoch0, 0,
            "valid queries errored after publication started"
        );
        assert!(
            total.max_epoch > 0,
            "clients never saw a published epoch — serving did not overlap ingestion"
        );
        let publishes = metrics.publishes.get();
        assert_eq!(publishes, epochs, "one publish per epoch");
        let qps = total.queries as f64 / wall.as_secs_f64().max(1e-9);
        qps_by_clients.push(qps);
        t.row(vec![
            clients.to_string(),
            readers.to_string(),
            epochs.to_string(),
            publishes.to_string(),
            engine.resolves().to_string(),
            total.queries.to_string(),
            total.errors_after_epoch0.to_string(),
            total.stale_violations.to_string(),
            total.bracket_violations.to_string(),
            percentile(&total.latencies_us, 50.0).to_string(),
            percentile(&total.latencies_us, 99.0).to_string(),
            format!("{qps:.0}"),
            format!("{max_f:.3}"),
            fmt_duration(wall),
        ]);
        record.get_or_insert_with(|| {
            BenchRecord::new(
                "e18",
                quick,
                wall,
                [
                    ("epochs", epochs),
                    ("publishes", publishes),
                    ("resolves", engine.resolves()),
                ],
                [("max_certified", max_f)],
            )
        });
    }
    println!("{}", t.render());
    t.write_csv("e18_serve");

    let (one, four) = (qps_by_clients[0], qps_by_clients[1]);
    if !quick && cores >= 4 {
        assert!(
            four >= 1.5 * one,
            "4 clients ({four:.0} qps) must beat 1 client ({one:.0} qps) by >= 1.5x on {cores} cores"
        );
    } else {
        println!(
            "throughput assertion skipped ({}): 4-client/1-client qps = {:.2}x",
            if quick {
                "quick mode"
            } else {
                "fewer than 4 cores"
            },
            four / one.max(1e-9),
        );
    }
    record.expect("the headline operating point ran")
}

/// E19's batch size.
const E19_BATCH: usize = 100;

/// What one E19 replay sealed.
#[derive(Default)]
struct AdminReplay {
    epochs: u64,
    resolves: u64,
    /// The rig's readiness flips (0 without a rig).
    ready_flips: u64,
    max_factor: f64,
    /// Time spent sealing: `engine.apply`, plus the rig's `on_seal` when
    /// one is given — batch assembly and the loop stay out of it.
    seal_wall: Duration,
}

/// One E19 replay in progress: a fresh stream engine, attached to a
/// registry when given, sealing every epoch into a rig when given as
/// `dds stream --admin` does.
struct AdminLane<'a> {
    engine: StreamEngine,
    rig: Option<&'a mut dds_obs::AdminRig>,
    events: u64,
    run: AdminReplay,
}

impl<'a> AdminLane<'a> {
    fn new(registry: Option<&dds_obs::Registry>, rig: Option<&'a mut dds_obs::AdminRig>) -> Self {
        let mut engine = StreamEngine::new(StreamConfig::default());
        if let Some(reg) = registry {
            engine.attach_obs(reg);
        }
        AdminLane {
            engine,
            rig,
            events: 0,
            run: AdminReplay {
                max_factor: 1.0,
                ..AdminReplay::default()
            },
        }
    }

    /// Seals one epoch of `batch`, timing it into `seal_wall`.
    fn seal(&mut self, batch: &Batch) {
        self.events += batch.events.len() as u64;
        let t0 = std::time::Instant::now();
        let r = self.engine.apply(batch);
        if let Some(rig) = self.rig.as_deref_mut() {
            let bracket = (r.density.to_f64(), r.lower, r.upper);
            rig.on_seal(r.epoch, self.events, self.events, 0, bracket, t0);
        }
        self.run.seal_wall += t0.elapsed();
        self.run.epochs = r.epoch;
        self.run.max_factor = self.run.max_factor.max(r.certified_factor);
    }

    fn finish(mut self) -> AdminReplay {
        self.run.resolves = self.engine.resolves();
        self.run.ready_flips = self.rig.map_or(0, |rig| rig.board.ready_flips());
        self.run
    }
}

/// The admin plane live around a replay: a registry, an
/// [`dds_obs::AdminRig`] serving it on an ephemeral port, and scraper
/// threads, each scraping at least once and pausing between scrapes,
/// every scrape checked by [`crate::serve_load::scrape_admin`].
struct AdminPlane {
    registry: dds_obs::Registry,
    rig: dds_obs::AdminRig,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    scrapers: Vec<std::thread::JoinHandle<Vec<u64>>>,
}

impl AdminPlane {
    fn start(scrapers: usize, pause: Duration) -> Self {
        use crate::serve_load::scrape_admin;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let registry = dds_obs::Registry::new();
        let rig = dds_obs::AdminRig::start("stream", 0, Some(&registry), Some("127.0.0.1:0"))
            .expect("bind ephemeral admin port");
        let addr = rig.addr().expect("the rig serves");
        let stop = Arc::new(AtomicBool::new(false));
        let scrapers = (0..scrapers)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut ready_seen = false;
                    let mut latencies_us = Vec::new();
                    loop {
                        latencies_us.push(scrape_admin(addr, &mut ready_seen));
                        if stop.load(Ordering::Relaxed) {
                            return latencies_us;
                        }
                        std::thread::sleep(pause);
                    }
                })
            })
            .collect();
        AdminPlane {
            registry,
            rig,
            stop,
            scrapers,
        }
    }

    /// A lane sealing into this plane's rig and registry.
    fn lane(&mut self) -> AdminLane<'_> {
        AdminLane::new(Some(&self.registry), Some(&mut self.rig))
    }

    /// Stops the scrapers once `run` (the lane this plane served) is
    /// done. Asserts that readiness flipped exactly once, that the board
    /// carries the sealed epoch, and that a final scrape parses and
    /// reconciles with it. Returns the scrapers' `/metrics` latencies.
    fn finish(self, run: &AdminReplay) -> Vec<u64> {
        use dds_obs::{http_get, parse_exposition};

        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let mut latencies_us = Vec::new();
        for h in self.scrapers {
            latencies_us.append(&mut h.join().expect("scraper thread"));
        }
        assert_eq!(run.ready_flips, 1, "readiness flips exactly once");
        assert_eq!(
            self.rig.board.epoch(),
            run.epochs,
            "board must carry the sealed epoch"
        );
        let addr = self.rig.addr().expect("the rig serves");
        let (code, body) = http_get(addr, "/metrics").expect("final scrape");
        assert_eq!(code, 200, "final scrape failed");
        let parsed = parse_exposition(&body).expect("final exposition parses");
        assert!(
            parsed
                .get("dds_stream_epochs_total")
                .is_some_and(|v| v.as_u64() == Some(run.epochs)),
            "final scrape must reconcile with {} sealed epochs",
            run.epochs
        );
        latencies_us
    }
}

/// Checks a replay's registry against the replay of `events` events:
/// the exposition parses, and survives the atomic file writer; the epoch
/// counter equals the sealed epochs; inserts, deletes and ignored events
/// cover every event; and the replay re-solved at least once.
fn reconcile_registry(registry: &dds_obs::Registry, run: &AdminReplay, events: u64) {
    use dds_obs::parse_exposition;

    let parsed = parse_exposition(&registry.exposition()).expect("exposition must parse");
    assert!(
        parsed
            .get("dds_stream_epochs_total")
            .is_some_and(|v| *v == run.epochs),
        "epoch counter must match the {} sealed epochs",
        run.epochs
    );
    let applied: u64 = ["inserts", "deletes", "ignored"]
        .iter()
        .map(|k| {
            registry
                .counter_value(&format!("dds_stream_{k}_total"))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(
        applied, events,
        "inserts + deletes + ignored must cover every event"
    );
    assert_eq!(
        registry.counter_value("dds_stream_resolves_total"),
        Some(run.resolves),
        "the re-solve counter must match the replay"
    );
    assert!(
        run.resolves >= 1,
        "a churn replay must re-solve at least once"
    );
    let prom = std::env::temp_dir().join(format!("dds_e19_{}.prom", std::process::id()));
    registry
        .write_exposition_file(&prom)
        .expect("atomic exposition write");
    let reread = parse_exposition(&std::fs::read_to_string(&prom).expect("read exposition"))
        .expect("written exposition must parse");
    std::fs::remove_file(&prom).ok();
    assert_eq!(reread, parsed, "file round-trip must preserve every series");
}

/// E19 — the live introspection plane under churn, sealed through the
/// [`dds_obs::AdminRig`] `dds stream --admin` ships. Scraper threads
/// hammer the admin endpoint (`/metrics`, `/status`, `/readyz`) while a
/// seeded replay ingests and seals each epoch into the rig's status board,
/// lag gauges and slow-op ring. The first table reports ingest wall
/// against scraper pressure plus scrape latency percentiles; the record
/// is its 1-scraper row. Hard gates: every scrape succeeds and parses,
/// readiness flips exactly once per run, the board carries the sealed
/// epoch, and the final scrape reconciles with it — scrapes must observe
/// ingest, never steer it.
///
/// The second table holds the planes to their cost: each of 5 rounds
/// replays the stream on three engines at once — detached, with a
/// metrics registry attached, and with the registry plus the admin rig
/// and one scraper every 50 ms — applying every batch to the three in
/// turn, with the one that goes first rotating from batch to batch, and
/// sums each engine's seal times. In full mode the smallest
/// attached/detached and the smallest admin/attached ratio must each be
/// at most 1.02: pairing each epoch's seals cancels drift that outlasts
/// an epoch, and a real overhead lifts every round while noise rarely
/// lifts all five. Every attached registry must reconcile with its
/// replay: the exposition parses and survives the atomic file writer,
/// and its counters cover every epoch and event and at least one
/// re-solve.
/// Scrape counts, ring contents and the ratios depend on scheduling, so
/// they stay out of the record.
pub fn e19_admin(quick: bool) -> BenchRecord {
    use crate::serve_load::percentile;
    use dds_obs::Registry;

    const ROUNDS: usize = 5;
    const OVERHEAD_BUDGET: f64 = 1.02;
    const SCRAPE_EVERY: Duration = Duration::from_millis(50);
    println!(
        "\n=== E19: admin introspection plane under churn (expected: zero failed scrapes, one readiness flip, ingest wall flat under scraper pressure, metrics and admin plane each within {OVERHEAD_BUDGET}x of the seal time without them)"
    );
    let stream = churn_stream(4_000, quick);
    let events = stream.len() as u64;
    let batches: Vec<Batch> = stream
        .chunks(E19_BATCH)
        .map(|chunk| Batch::from_events(chunk.to_vec()))
        .collect();
    println!("{events} events, n = 400, background m = 4000, block 32x32, batch = {E19_BATCH}");

    let mut t = Table::new(
        "scraper pressure vs churn ingestion",
        &[
            "scrapers", "epochs", "scrapes", "failed", "flips", "resolves", "p50_us", "p99_us",
            "max_cert", "wall", "vs_bare",
        ],
    );
    let mut bare_wall = None;
    let mut record = None;
    for scrapers in [0usize, 1, 4] {
        let mut plane = AdminPlane::start(scrapers, Duration::ZERO);
        let (run, wall) = time(|| {
            let mut lane = plane.lane();
            for batch in &batches {
                lane.seal(batch);
            }
            lane.finish()
        });
        let latencies_us = plane.finish(&run);
        let bare = *bare_wall.get_or_insert(wall);
        t.row(vec![
            scrapers.to_string(),
            run.epochs.to_string(),
            latencies_us.len().to_string(),
            "0".to_string(),
            run.ready_flips.to_string(),
            run.resolves.to_string(),
            percentile(&latencies_us, 50.0).to_string(),
            percentile(&latencies_us, 99.0).to_string(),
            format!("{:.3}", run.max_factor),
            fmt_duration(wall),
            format!("{:.2}x", wall.as_secs_f64() / bare.as_secs_f64().max(1e-9)),
        ]);
        if scrapers == 1 {
            record = Some(BenchRecord::new(
                "e19",
                quick,
                wall,
                [
                    ("epochs", run.epochs),
                    ("ready_flips", run.ready_flips),
                    ("resolves", run.resolves),
                ],
                [("max_certified", run.max_factor)],
            ));
        }
    }
    println!("{}", t.render());
    t.write_csv("e19_admin");

    let mut t = Table::new(
        "paired overhead rounds (seal time)",
        &[
            "round",
            "detached",
            "attached",
            "admin",
            "scrapes",
            "attached/detached",
            "admin/attached",
        ],
    );
    let (mut best_attached, mut best_admin) = (f64::INFINITY, f64::INFINITY);
    for round in 1..=ROUNDS {
        let registry = Registry::new();
        let mut plane = AdminPlane::start(1, SCRAPE_EVERY);
        let mut lanes = [
            AdminLane::new(None, None),
            AdminLane::new(Some(&registry), None),
            plane.lane(),
        ];
        for (i, batch) in batches.iter().enumerate() {
            for k in 0..lanes.len() {
                lanes[(i + k) % lanes.len()].seal(batch);
            }
        }
        let [detached, attached, admin] = lanes.map(AdminLane::finish);
        reconcile_registry(&registry, &attached, events);
        let latencies_us = plane.finish(&admin);
        let secs = |run: &AdminReplay| run.seal_wall.as_secs_f64();
        let attached_ratio = secs(&attached) / secs(&detached);
        let admin_ratio = secs(&admin) / secs(&attached);
        best_attached = best_attached.min(attached_ratio);
        best_admin = best_admin.min(admin_ratio);
        t.row(vec![
            round.to_string(),
            fmt_duration(detached.seal_wall),
            fmt_duration(attached.seal_wall),
            fmt_duration(admin.seal_wall),
            latencies_us.len().to_string(),
            format!("{attached_ratio:.3}"),
            format!("{admin_ratio:.3}"),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e19_overhead");
    println!(
        "best paired ratios over {ROUNDS} rounds: attached/detached {best_attached:.3}, \
         admin/attached {best_admin:.3} (budget {OVERHEAD_BUDGET}x)"
    );
    if quick {
        println!("overhead assertions skipped (quick mode)");
    } else {
        assert!(
            best_attached <= OVERHEAD_BUDGET,
            "metrics overhead budget exceeded: every one of {ROUNDS} paired rounds sealed \
             more than {OVERHEAD_BUDGET}x slower attached than detached \
             (best ratio {best_attached:.3})"
        );
        assert!(
            best_admin <= OVERHEAD_BUDGET,
            "admin-plane overhead budget exceeded: every one of {ROUNDS} paired rounds \
             sealed more than {OVERHEAD_BUDGET}x slower with the admin rig and a scraper \
             than with bare metrics (best ratio {best_admin:.3})"
        );
    }
    record.expect("the 1-scraper row ran")
}

/// Bytes `events` take in the event file cluster workers tail, as
/// [`write_events`] writes it: the denominator of the digest budget.
fn event_file_bytes(events: &[TimedEvent]) -> u64 {
    let mut file = Vec::new();
    write_events(events, &mut file).expect("writing to memory cannot fail");
    file.len() as u64
}

/// The cluster tier in one process: `config.shards` [`WorkerState`]s —
/// the state `dds cluster-shard` processes run — digest `events` batch by
/// batch, and one [`ClusterCore`] folds, seals and certifies every epoch
/// exactly as the TCP coordinator does (the `cluster_oracle` integration
/// test pins the two byte-identical). Each digest is offered with its
/// encoded wire size and the raw-byte cursor a worker tailing the event
/// file would report. `on_epoch` sees every sealed epoch with the batch
/// that produced it.
///
/// # Panics
/// Panics if a digest is refused or an epoch fails to seal or degrades:
/// the in-process merge never waits on a straggler.
pub fn cluster_twin(
    config: ClusterConfig,
    events: &[TimedEvent],
    mut on_epoch: impl FnMut(&ClusterEpoch, &[TimedEvent]),
) -> ClusterCore {
    let mut core = ClusterCore::new(config);
    let mut workers: Vec<WorkerState> = (0..config.shards)
        .map(|shard| {
            let mut w = WorkerState::new(WorkerConfig {
                shard,
                shards: config.shards,
                batch: config.batch,
                sketch: config.sketch,
            });
            w.sync_baseline(); // mirror the fresh handshake: digests are deltas
            w
        })
        .collect();
    let mut cursor = 0u64;
    for chunk in events.chunks(config.batch) {
        let batch = Batch::from_events(chunk.to_vec());
        cursor += event_file_bytes(chunk);
        for worker in &mut workers {
            let tallies = worker.apply_batch(&batch);
            let digest = worker.digest(tallies, cursor, 0, false);
            let payload = Frame::Digest(digest.clone()).encode().len() as u64;
            core.offer(digest, payload).expect("offer digest");
        }
        let epoch = core
            .seal_next(false)
            .expect("seal")
            .expect("the frontier is complete, the epoch must seal");
        on_epoch(&epoch, chunk);
    }
    assert_eq!(core.degraded_seals(), 0, "strict in-process merge degraded");
    core
}

/// E20 — the cross-process cluster tier: digest traffic vs raw stream
/// bytes as the shard count grows, measured through [`cluster_twin`]. The
/// table reports what the wire would carry. Expected shape: digest bytes
/// grow mildly with K (fixed per-digest counter overhead per shard per
/// epoch) but stay under the 5% budget against raw event bytes up to
/// K = 4 (the record), with the certified factor flat across K —
/// partitioning is free soundness-wise, it only spends wire bytes.
pub fn e20_cluster(quick: bool) -> BenchRecord {
    // The cluster's operating point: 1 000-event epochs amortise the fixed
    // per-digest counter block under the 5% wire budget.
    const BATCH: usize = 1_000;
    const BOUND: usize = 250;
    const RECORD_K: usize = 4;
    println!(
        "\n=== E20: cluster digest traffic vs shard count (expected: ratio under the 5% budget up to K = 4, flat certified factor)"
    );
    let stream = churn_stream(4_000, quick);
    let raw_bytes = event_file_bytes(&stream);
    println!(
        "{} events ({raw_bytes} raw B), batch = {BATCH}, state bound = {BOUND}/shard",
        stream.len(),
    );

    let mut t = Table::new(
        "digest traffic vs shard count",
        &[
            "K",
            "epochs",
            "digest_B",
            "ratio",
            "refreshes",
            "escalated",
            "max_cert",
            "wall",
        ],
    );
    let mut record = None;
    for shards in [1usize, 2, 4, 8] {
        let config = ClusterConfig {
            shards,
            batch: BATCH,
            refresh_drift: 0.25,
            sketch: SketchConfig {
                state_bound: BOUND,
                ..SketchConfig::default()
            },
        };
        let mut max_f = 1.0f64;
        let mut epochs = 0u64;
        let (core, wall) = time(|| {
            cluster_twin(config, &stream, |epoch, _| {
                max_f = max_f.max(epoch.certified_factor());
                epochs += 1;
            })
        });
        let ratio = core.digest_bytes() as f64 / core.max_cursor() as f64;
        t.row(vec![
            shards.to_string(),
            epochs.to_string(),
            core.digest_bytes().to_string(),
            format!("{:.3}%", 100.0 * ratio),
            core.refreshes().to_string(),
            core.escalations().to_string(),
            format!("{max_f:.3}"),
            fmt_duration(wall),
        ]);
        if shards == RECORD_K {
            record = Some(BenchRecord::new(
                "e20",
                quick,
                wall,
                [
                    ("epochs", epochs),
                    ("refreshes", core.refreshes()),
                    ("escalations", core.escalations()),
                    ("digest_bytes", core.digest_bytes()),
                ],
                [("max_certified", max_f), ("digest_ratio", ratio)],
            ));
        }
    }
    println!("{}", t.render());
    t.write_csv("e20_cluster");
    record.expect("the K = 4 row ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::committed_record;

    /// Smoke: every experiment runs end-to-end in quick mode.
    /// (Split across two tests to parallelise the suite.)
    #[test]
    fn quick_mode_first_half() {
        for id in &ALL[..5] {
            assert!(run(id, true).is_none(), "{id} keeps no perf record");
        }
    }

    /// Also checks each quick record against the committed full-mode
    /// record: `compare` skips a counter or factor only one mode emits, so
    /// the two must carry the same names.
    #[test]
    fn quick_mode_second_half() {
        for id in &ALL[5..] {
            let Some(quick) = run(id, true) else {
                assert!(
                    !crate::perf::EXPERIMENTS.contains(id),
                    "{id} returned no record"
                );
                continue;
            };
            let full = committed_record(id);
            assert_eq!(
                quick.counters.keys().collect::<Vec<_>>(),
                full.counters.keys().collect::<Vec<_>>(),
                "{id}: quick and committed counters differ"
            );
            assert_eq!(
                quick.factors.keys().collect::<Vec<_>>(),
                full.factors.keys().collect::<Vec<_>>(),
                "{id}: quick and committed factors differ"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run("e99", true);
    }
}
