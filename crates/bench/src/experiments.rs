//! The experiment suite (E1–E20): one function per table/figure of the
//! reconstructed evaluation (E1–E11 follow the paper's own evaluation;
//! E12–E16 cover the streaming subsystems, E17 the persistent worker pool,
//! E18 the query-serving tier, E19 the admin plane, E20 the cross-process
//! cluster tier). Each prints an aligned table to stdout, writes the same
//! data to `bench_results/<id>.csv`, and states the *expected shape* in
//! its header line so a run can be read as measured-vs-expected.

use dds_core::{
    core_approx, parallel, DcExact, ExactOptions, ExhaustivePeel, FlowExact, GridPeel, SolveContext,
};
use dds_graph::GraphStats;
use dds_xycore::{max_product_core, skyline};

use crate::report::{fmt_duration, time, Table};
use crate::workloads::{exact_ladder, planted_block, registry, Scale};

/// Runs one experiment by id (`e1`…`e20`); `quick` shrinks workloads for
/// smoke tests.
///
/// # Panics
/// Panics on an unknown id.
pub fn run(id: &str, quick: bool) {
    match id {
        "e1" => e1_datasets(quick),
        "e2" => e2_exact_efficiency(quick),
        "e3" => e3_network_sizes(quick),
        "e4" => e4_ablation(quick),
        "e5" => e5_approx_efficiency(quick),
        "e6" => e6_quality(quick),
        "e7" => e7_scalability(quick),
        "e8" => e8_epsilon(quick),
        "e9" => e9_case_study(quick),
        "e10" => e10_cores(quick),
        "e11" => e11_parallel(quick),
        "e12" => e12_streaming(quick),
        "e13" => e13_solve_context(quick),
        "e14" => e14_window(quick),
        "e15" => e15_sketch_tier(quick),
        "e16" => e16_shard_scaling(quick),
        "e17" => e17_pool_parallel(quick),
        "e18" => e18_serve(quick),
        "e19" => e19_admin(quick),
        "e20" => e20_cluster(quick),
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
        let (sky_cell, sky_ms) = if w.scale <= Scale::S {
            let (sky, d) = time(|| skyline(g));
            (
                sky.len().to_string(),
                format!("{:.1}", d.as_secs_f64() * 1e3),
            )
        } else {
            ("skipped".into(), "-".into())
        };
        let (best, d) = time(|| max_product_core(g));
        let (prod, evals) = best.map_or((0, 0), |b| (b.product(), b.sweep_evals));
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

/// E12 — streaming maintenance: fraction of batches absorbed by the
/// incremental certificate alone, per stream scenario.
pub fn e12_streaming(quick: bool) {
    println!(
        "\n=== E12: streaming lazy re-solve (expected: churn ≥90% incremental, emerge re-solves while the block forms)"
    );
    let batch = if quick { 10 } else { 25 };
    let mut t = Table::new(
        format!("stream scenarios, batch = {batch} events, tolerance = 0.25"),
        &[
            "scenario",
            "solver",
            "events",
            "epochs",
            "resolves",
            "incremental",
            "density",
            "max_factor",
            "resolve_ms",
            "resolve_flows",
            "time",
        ],
    );
    for scenario in crate::stream_workloads::stream_registry(quick) {
        // The sliding window has no persistent optimum, so exact lazy
        // re-solves degenerate there: that regime now belongs to the
        // window-native engine, measured by E14.
        if scenario.name.starts_with("window") {
            println!(
                "({}: skipped — sliding windows are E14's window-native engine territory)",
                scenario.name
            );
            continue;
        }
        // Quick mode uses the approximate engine to keep the smoke fast.
        let solver = if quick {
            dds_stream::SolverKind::CoreApprox
        } else {
            dds_stream::SolverKind::Exact
        };
        let mut engine = dds_stream::StreamEngine::new(dds_stream::StreamConfig {
            tolerance: 0.25,
            slack: 2.0,
            solver,
            ..Default::default()
        });
        let (reports, d) = time(|| {
            dds_stream::replay(
                &mut engine,
                &scenario.events,
                dds_stream::BatchBy::Count(batch),
            )
        });
        let epochs = reports.len();
        let resolves = reports.iter().filter(|r| r.resolved).count();
        let incremental = 100.0 * (epochs - resolves) as f64 / epochs.max(1) as f64;
        let max_factor = reports
            .iter()
            .map(|r| r.certified_factor)
            .fold(1.0f64, f64::max);
        let resolve_ms: f64 = reports
            .iter()
            .filter(|r| r.resolved)
            .map(|r| r.elapsed.as_secs_f64() * 1e3)
            .sum();
        let resolve_flows: usize = reports
            .iter()
            .filter_map(|r| r.solve_stats)
            .map(|s| s.flow_decisions)
            .sum();
        let last = reports.last().expect("non-empty scenario");
        t.row(vec![
            scenario.name.clone(),
            format!("{solver:?}"),
            scenario.events.len().to_string(),
            epochs.to_string(),
            resolves.to_string(),
            format!("{incremental:.1}%"),
            format!("{:.3}", last.density.to_f64()),
            format!("{max_factor:.3}"),
            format!("{resolve_ms:.0}"),
            resolve_flows.to_string(),
            fmt_duration(d),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e12_streaming");
}

/// E13 — the `SolveContext` pipeline: exact tie pruning versus the legacy
/// strict-margin engine on planted blocks, and warm-context re-solves
/// versus cold solves over a churned graph sequence (the streaming
/// re-solve pattern).
pub fn e13_solve_context(quick: bool) {
    println!(
        "\n=== E13: SolveContext (expected: tie pruning cuts flow decisions ≥2x on planted blocks; warm contexts re-solve with fewer flows and recycled buffers)"
    );
    let sizes: &[usize] = if quick { &[120, 200] } else { &[500, 2_000] };
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
            "ms",
        ],
    );
    for &n in sizes {
        let p = planted_block(n);
        let g = &p.graph;
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
                format!("{:.1}", d.as_secs_f64() * 1e3),
            ]);
        }
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
}

/// E14 — sliding-window maintenance with the window-native engine
/// (replaces E12's `CoreApprox` placeholder row): fraction of epochs
/// absorbed without any solver, core-refresh vs exact-escalation split,
/// and the certified band across the whole replay.
pub fn e14_window(quick: bool) {
    println!(
        "\n=== E14: window-native engine (expected: ≥90% of epochs without an exact re-solve, every epoch within its band)"
    );
    let batch = if quick { 10 } else { 25 };
    let mut t = Table::new(
        format!("sliding-window scenarios, batch = {batch} events, tolerance = 0.25"),
        &[
            "scenario",
            "window",
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
    for scenario in crate::stream_workloads::window_registry(quick) {
        let mut engine = dds_stream::WindowEngine::new(dds_stream::WindowConfig {
            tolerance: 0.25,
            slack: 2.0,
            exact_escalation: true,
            ..dds_stream::WindowConfig::new(scenario.window)
        });
        let (reports, d) = time(|| {
            dds_stream::replay_window(
                &mut engine,
                &scenario.events,
                dds_stream::BatchBy::Count(batch),
            )
        });
        let epochs = reports.len();
        let refreshes = reports
            .iter()
            .filter(|r| r.mode != dds_stream::WindowMode::Incremental)
            .count();
        let exact = reports
            .iter()
            .filter(|r| r.mode == dds_stream::WindowMode::ExactResolve)
            .count();
        let no_exact = 100.0 * (epochs - exact) as f64 / epochs.max(1) as f64;
        let max_factor = reports
            .iter()
            .map(|r| r.certified_factor)
            .fold(1.0f64, f64::max);
        // The headline guarantees of the window engine — regressions here
        // fail the harness, not just skew a table.
        assert!(
            no_exact >= 90.0,
            "{}: only {no_exact:.1}% of epochs avoided an exact re-solve",
            scenario.name
        );
        for r in &reports {
            assert!(
                r.within_band,
                "{}: epoch {} left its certified band ([{:.3}, {:.3}])",
                scenario.name, r.epoch, r.lower, r.upper
            );
        }
        let last = reports.last().expect("non-empty scenario");
        t.row(vec![
            scenario.name.clone(),
            scenario.window.to_string(),
            scenario.events.len().to_string(),
            epochs.to_string(),
            refreshes.to_string(),
            exact.to_string(),
            format!("{no_exact:.1}%"),
            engine.expired().to_string(),
            engine.repairs().to_string(),
            format!("{:.3}", last.density.to_f64()),
            format!("{max_factor:.3}"),
            fmt_duration(d),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e14_window");
}

/// E15 — the sketch tier vs the core-sweep tier on a large churn replay
/// (the approximation-first regime: graphs whose full `O(√m·(n+m))` sweep
/// is the thing being avoided). Both tiers run the *same* `StreamEngine`
/// band policy; only the re-certification differs. The harness asserts the
/// sketch tier's headline guarantees: retained state ≤ 10% of the live
/// edge set at peak, every sampled epoch's certified bracket containing a
/// fresh exact solve of the full graph, and (full mode) sketch refreshes
/// beating the sweep's total re-solve wall time.
pub fn e15_sketch_tier(quick: bool) {
    use dds_sketch::SketchConfig;
    use dds_stream::{
        batch_slices, Batch, BatchBy, SketchTier, SolverKind, StreamConfig, StreamEngine,
    };

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
    let stream = crate::stream_workloads::churn(n, bg, block, events, 0xDD5);
    let slices = batch_slices(&stream, BatchBy::Count(batch));
    let epochs = slices.len();
    let sample_every = (epochs / 5).max(1);

    let mut t = Table::new(
        format!(
            "1M-style churn replay: n = {n}, background m = {bg}, block {}x{}, batch = {batch}",
            block.0, block.1
        ),
        &[
            "tier",
            "events",
            "epochs",
            "resolves",
            "escal",
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
    let mut resolve_totals = [0.0f64; 3];
    for (idx, (tier, sketch)) in tiers.into_iter().enumerate() {
        let config = StreamConfig {
            solver: SolverKind::CoreApprox,
            sketch,
            ..Default::default()
        };
        let mut engine = StreamEngine::new(config);
        let (mut resolves, mut resolve_ms, mut peak_m, mut wall) = (0usize, 0.0f64, 0usize, 0.0);
        let (mut max_factor, mut worst_realized) = (1.0f64, 1.0f64);
        for (i, chunk) in slices.iter().enumerate() {
            let r = engine.apply(&Batch::from_events(chunk.to_vec()));
            wall += r.elapsed.as_secs_f64();
            peak_m = peak_m.max(r.m);
            max_factor = max_factor.max(r.certified_factor);
            if r.resolved {
                resolves += 1;
                resolve_ms += r.elapsed.as_secs_f64() * 1e3;
            }
            // Spot checks: a fresh exact solve of the FULL graph must sit
            // inside the certified bracket at every sampled epoch.
            if (i + 1) % sample_every == 0 || i + 1 == epochs {
                let exact = DcExact::new().solve(&engine.materialize()).solution.density;
                assert!(
                    r.density <= exact,
                    "{tier}: epoch {} lower {} above exact {exact}",
                    i + 1,
                    r.density
                );
                assert!(
                    exact.to_f64() <= r.upper * (1.0 + 1e-9),
                    "{tier}: epoch {} upper {} below exact {exact}",
                    i + 1,
                    r.upper
                );
                if r.lower > 0.0 {
                    worst_realized = worst_realized.max(exact.to_f64() / r.lower);
                }
            }
        }
        resolve_totals[idx] = resolve_ms;
        let escal_cell = engine
            .sketch_stats()
            .map_or("-".into(), |stats| stats.escalations.to_string());
        let (retained_cell, frac_cell) = match engine.sketch_stats() {
            Some(stats) => {
                let frac = stats.peak_retained as f64 / peak_m.max(1) as f64;
                assert!(
                    frac <= 0.10,
                    "retained peak {} exceeds 10% of peak live m {peak_m}",
                    stats.peak_retained
                );
                (
                    stats.peak_retained.to_string(),
                    format!("{:.1}%", 100.0 * frac),
                )
            }
            None => ("-".into(), "-".into()),
        };
        t.row(vec![
            (*tier).into(),
            stream.len().to_string(),
            epochs.to_string(),
            resolves.to_string(),
            escal_cell,
            format!("{resolve_ms:.0}"),
            format!("{:.1}", resolve_ms / resolves.max(1) as f64),
            peak_m.to_string(),
            retained_cell,
            frac_cell,
            format!("{max_factor:.3}"),
            format!("{worst_realized:.3}"),
            format!("{wall:.2}s"),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e15_sketch_tier");
    if !quick {
        assert!(
            resolve_totals[1] < resolve_totals[0],
            "sketch refreshes ({:.0} ms) must beat the core sweeps ({:.0} ms)",
            resolve_totals[1],
            resolve_totals[0]
        );
    }
}

/// E16 — shard scaling: the E15 churn workload replayed through the
/// edge-partitioned `ShardedEngine` at K ∈ {1, 2, 4, 8}. The partitions
/// apply in one serial pass, so the apply-wall column shows what
/// partitioning costs; certification cost is K-independent by
/// construction (summed counters, one merged solve). The harness asserts
/// bracket validity against fresh full-graph exact solves at sampled
/// epochs for every K, and runs the kill/restore drill: snapshot
/// mid-replay, restore, and resume — the restored engine must match the
/// uninterrupted one **bit for bit**, report by report, through the rest
/// of the stream.
pub fn e16_shard_scaling(quick: bool) {
    use dds_shard::{replay_sharded, ShardConfig, ShardedEngine};
    use dds_sketch::SketchConfig;

    println!(
        "\n=== E16: shard scaling on the E15 churn workload (expected: sound merged brackets at every K, bit-identical kill/restore)"
    );
    let (n, bg, block, events, batch, bound) = if quick {
        (300, 1_500, (48, 48), 20_000usize, 200, 300)
    } else {
        (4_000, 160_000, (256, 256), 1_000_000usize, 2_500, 4_000)
    };
    let stream = crate::stream_workloads::churn(n, bg, block, events, 0xDD5);
    let ks: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    println!(
        "{} events, n = {n}, background m = {bg}, block {}x{}, batch = {batch}, bound = {bound}/shard",
        stream.len(),
        block.0,
        block.1,
    );

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

    let config_for = |k: usize| ShardConfig {
        shards: k,
        sketch: SketchConfig {
            state_bound: bound,
            ..SketchConfig::default()
        },
        ..ShardConfig::default()
    };
    let epochs = stream.len().div_ceil(batch);
    let sample_every = (epochs / 5).max(1);
    for &k in ks {
        let config = config_for(k);
        let mut engine = ShardedEngine::new(config);
        let (mut apply_ms, mut certify_ms, mut wall) = (0.0f64, 0.0f64, 0.0f64);
        let (mut max_factor, mut worst_realized) = (1.0f64, 1.0f64);
        let mut retained_peak = 0usize;
        for (i, chunk) in stream.chunks(batch).enumerate() {
            let r = engine.apply(&dds_stream::Batch::from_events(chunk.to_vec()));
            apply_ms += r.apply.as_secs_f64() * 1e3;
            certify_ms += r.certify.as_secs_f64() * 1e3;
            wall += r.elapsed.as_secs_f64();
            max_factor = max_factor.max(r.certified_factor);
            retained_peak = retained_peak.max(r.retained);
            // Spot checks: a fresh exact solve of the FULL graph must sit
            // inside the merged certified bracket at every sampled epoch.
            if (i + 1) % sample_every == 0 || i + 1 == epochs {
                let exact = DcExact::new().solve(&engine.materialize()).solution.density;
                assert!(
                    r.density <= exact,
                    "K={k}: epoch {} lower {} above exact {exact}",
                    i + 1,
                    r.density
                );
                assert!(
                    exact.to_f64() <= r.upper * (1.0 + 1e-9),
                    "K={k}: epoch {} upper {} below exact {exact}",
                    i + 1,
                    r.upper
                );
                if r.lower > 0.0 {
                    worst_realized = worst_realized.max(exact.to_f64() / r.lower);
                }
            }
        }
        let stats = engine.stats();
        t.row(vec![
            k.to_string(),
            epochs.to_string(),
            stats.refreshes.to_string(),
            stats.escalations.to_string(),
            format!("{apply_ms:.0}"),
            format!("{certify_ms:.0}"),
            format!("{wall:.2}s"),
            retained_peak.to_string(),
            format!("{max_factor:.3}"),
            format!("{worst_realized:.3}"),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e16_shard_scaling");

    // The kill/restore drill: half the stream, a snapshot, a restore, and
    // the rest of the stream on both engines in lockstep.
    let k = if quick { 2 } else { 4 };
    let config = config_for(k);
    let mut original = ShardedEngine::new(config);
    let half = (stream.len() / (2 * batch)) * batch; // cut on a batch boundary
    replay_sharded(&mut original, &stream[..half], batch);
    let snap = original.snapshot(0);
    let (mut restored, _) = ShardedEngine::restore(config, &snap).expect("restore must succeed");
    assert_eq!(restored.snapshot(0), snap, "round-trip identity");
    let a = replay_sharded(&mut original, &stream[half..], batch);
    let b = replay_sharded(&mut restored, &stream[half..], batch);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.m, y.m, "epoch {}", x.epoch);
        assert_eq!(x.refreshed, y.refreshed, "epoch {}", x.epoch);
        assert_eq!(x.lower.to_bits(), y.lower.to_bits(), "epoch {}", x.epoch);
        assert_eq!(x.upper.to_bits(), y.upper.to_bits(), "epoch {}", x.epoch);
    }
    assert_eq!(
        original.snapshot(0),
        restored.snapshot(0),
        "kill/restore must end bit-identical"
    );
    println!(
        "kill/restore at K = {k}: snapshot of {} bytes after epoch {}, resumed bit-identically through {} epochs to m = {}",
        snap.len(),
        half / batch,
        a.len(),
        original.m(),
    );
}

/// E17 — the persistent worker pool on the exact interval queue, on a
/// single-dominant-ratio instance. Config A is the serial engine
/// (threads = 1), config B the pool-backed interval queue with one
/// worker per core. Both must land on the **bit-identical** density (the
/// queue changes scheduling, never answers). The planted block
/// concentrates nearly all solve time in the ratios around its own
/// `|S|/|T|`, so B is not expected to beat A here; the table records the
/// honest numbers.
///
/// The pool's own counters (tasks, steals, parks) are printed as deltas
/// around the sweep, pinning that the work actually routed through it.
pub fn e17_pool_parallel(quick: bool) {
    use dds_core::{SolveContext, WorkerPool};

    println!("\n=== E17: worker pool (expected: bit-identical densities serial vs interval queue)");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let n = if quick { 250 } else { 2_500 };
    let p = planted_block(n);
    let planted_rho = p.pair.density(&p.graph);
    let pool_before = WorkerPool::global().stats();
    println!(
        "planted block: n = {n}, m = {}, planted rho = {} ({cores} core(s), pool width {})",
        p.graph.m(),
        planted_rho,
        WorkerPool::global().width(),
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

    let pool_after = WorkerPool::global().stats();
    println!(
        "pool deltas: {} tasks, {} steals, {} parks",
        pool_after.tasks - pool_before.tasks,
        pool_after.steals - pool_before.steals,
        pool_after.parks - pool_before.parks,
    );
}

/// E18 — the query-serving tier under churn: client threads hammer a
/// live `dds-serve` front end with mixed `DENSITY`/`MEMBER`/`CORE`/`TOPK`
/// queries **while** the main thread replays the churn workload and
/// publishes one immutable snapshot per sealed epoch through the
/// arc-swap cell. Two operating points — 1 client / 1 reader and
/// 4 clients / 4 readers — share the stream; after every publish the
/// driver's own oracle connection re-queries `DENSITY` and asserts the
/// byte-exact answer for that epoch (per-epoch oracle confirmation).
/// The harness asserts zero stale-epoch violations (a connection never
/// sees an epoch id go backwards), zero bracket violations, and zero
/// `ERR` responses once an epoch is published; with ≥ 4 real cores and
/// full workloads the 4-client aggregate throughput must beat the
/// 1-client run by ≥ 1.5x (readers scale on snapshots, never on engine
/// locks) — on fewer cores the table still records the honest numbers
/// and the assertion is skipped.
pub fn e18_serve(quick: bool) {
    use crate::serve_load::{percentile, run_clients, ClientPlan, ClientReport};
    use dds_serve::{EpochFacts, PublishOptions, Publisher, ServeMetrics, Server, SnapshotCell};
    use dds_stream::{Batch, SolverKind, StreamConfig, StreamEngine};
    use std::io::{BufRead, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    println!(
        "\n=== E18: query serving under churn (expected: zero stale/bracket/ERR violations, 4-client qps >= 1.5x 1-client with >= 4 cores)"
    );
    const CORE_X: u64 = 1;
    const CORE_Y: u64 = 1;
    let (n, bg, block, events, batch) = if quick {
        (300, 1_500, (48, 48), 20_000usize, 100)
    } else {
        (400, 4_000, (32, 32), 100_000usize, 100)
    };
    let stream = crate::stream_workloads::churn(n, bg, block, events, 0xDD5);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "{} events, n = {n}, background m = {bg}, block {}x{}, batch = {batch}, core [{CORE_X},{CORE_Y}], top-2 ({cores} core(s))",
        stream.len(),
        block.0,
        block.1,
    );

    let mut t = Table::new(
        "concurrent readers vs churn ingestion",
        &[
            "clients",
            "readers",
            "epochs",
            "publishes",
            "queries",
            "err>0",
            "stale",
            "brk_bad",
            "p50_us",
            "p99_us",
            "qps",
            "wall",
        ],
    );
    let mut qps_by_clients: Vec<(usize, f64)> = Vec::new();
    // A connection occupies its reader for the connection's lifetime, so
    // the pool must cover every concurrent connection: the N load clients
    // plus the driver's own oracle connection.
    for (clients, readers) in [(1usize, 2usize), (4, 5)] {
        let mut engine = StreamEngine::new(StreamConfig {
            tolerance: 0.25,
            slack: 2.0,
            solver: SolverKind::CoreApprox,
            ..Default::default()
        });
        let cell = Arc::new(SnapshotCell::new());
        let metrics = Arc::new(ServeMetrics::new());
        let mut publisher = Publisher::new(
            Arc::clone(&cell),
            PublishOptions {
                core: Some((CORE_X, CORE_Y)),
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
            queries: None,
            stop: Arc::clone(&stop),
            core: Some((CORE_X, CORE_Y)),
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

        let t0 = std::time::Instant::now();
        let mut epochs = 0u64;
        for chunk in stream.chunks(batch) {
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
        let wall = t0.elapsed();
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
        assert_eq!(metrics.publishes.get(), epochs, "one publish per epoch");
        let qps = total.queries as f64 / wall.as_secs_f64().max(1e-9);
        qps_by_clients.push((clients, qps));
        t.row(vec![
            clients.to_string(),
            readers.to_string(),
            epochs.to_string(),
            metrics.publishes.get().to_string(),
            total.queries.to_string(),
            total.errors_after_epoch0.to_string(),
            total.stale_violations.to_string(),
            total.bracket_violations.to_string(),
            percentile(&total.latencies_us, 50.0).to_string(),
            percentile(&total.latencies_us, 99.0).to_string(),
            format!("{qps:.0}"),
            fmt_duration(wall),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e18_serve");

    let one = qps_by_clients[0].1;
    let four = qps_by_clients[1].1;
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
}

/// E19 — the live introspection plane under churn: scraper threads
/// hammer the admin endpoint (`/metrics`, `/status`, `/readyz`) while a
/// seeded replay ingests and seals the status board per epoch. The table
/// reports ingest wall against scraper pressure plus scrape latency
/// percentiles. Hard gates: every scrape succeeds and parses, readiness
/// flips exactly once per run, and the final scrape reconciles with the
/// driver's epoch count — scrapes must observe ingest, never steer it.
pub fn e19_admin(quick: bool) {
    use crate::serve_load::{percentile, scrape_admin};
    use dds_obs::{http_get, parse_exposition, AdminServer, Registry, SlowRing, StatusBoard};
    use dds_stream::{Batch, StreamConfig, StreamEngine};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    println!(
        "\n=== E19: admin introspection plane under churn (expected: zero failed scrapes, one readiness flip, ingest wall flat under scraper pressure)"
    );
    let (n, bg, block, events, batch) = if quick {
        (300, 1_500, (48, 48), 20_000usize, 100)
    } else {
        (400, 4_000, (32, 32), 100_000usize, 100)
    };
    let stream = crate::stream_workloads::churn(n, bg, block, events, 0xDD5);
    println!(
        "{} events, n = {n}, background m = {bg}, block {}x{}, batch = {batch}",
        stream.len(),
        block.0,
        block.1,
    );

    let mut t = Table::new(
        "scraper pressure vs churn ingestion",
        &[
            "scrapers", "epochs", "scrapes", "failed", "flips", "p50_us", "p99_us", "wall",
            "vs_bare",
        ],
    );
    let mut bare_wall = None;
    for scrapers in [0usize, 1, 4] {
        let registry = Registry::new();
        let board = Arc::new(StatusBoard::new("stream"));
        let ring = Arc::new(SlowRing::new(16, 1_000));
        let admin = AdminServer::start(
            "127.0.0.1:0",
            registry.clone(),
            Arc::clone(&board),
            Arc::clone(&ring),
        )
        .expect("bind ephemeral admin port");
        let addr = admin.addr();
        let mut engine = StreamEngine::new(StreamConfig::default());
        engine.attach_obs(&registry);

        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..scrapers)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut scrapes = 0u64;
                    let mut ready_seen = false;
                    let mut latencies_us = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        latencies_us.push(scrape_admin(addr, &mut ready_seen));
                        scrapes += 1;
                    }
                    (scrapes, latencies_us)
                })
            })
            .collect();

        let mut epochs = 0u64;
        let mut events_total = 0u64;
        let (_, wall) = time(|| {
            for chunk in stream.chunks(batch) {
                events_total += chunk.len() as u64;
                let r = engine.apply(&Batch::from_events(chunk.to_vec()));
                epochs = r.epoch;
                board.seal_epoch(
                    r.epoch,
                    events_total,
                    events_total,
                    r.density.to_f64(),
                    r.lower,
                    r.upper,
                );
                board.set_ready();
            }
        });
        stop.store(true, Ordering::Relaxed);
        let mut scrapes = 0u64;
        let mut latencies_us = Vec::new();
        for h in handles {
            let (s, mut l) = h.join().expect("scraper thread");
            scrapes += s;
            latencies_us.append(&mut l);
        }
        latencies_us.sort_unstable();
        assert_eq!(board.ready_flips(), 1, "readiness flips exactly once");
        if scrapers > 0 {
            assert!(scrapes > 0, "the scrapers must have gotten through");
        }
        let (code, body) = http_get(addr, "/metrics").expect("final scrape");
        assert_eq!(code, 200);
        let parsed = parse_exposition(&body).expect("final exposition parses");
        assert!(
            parsed
                .get("dds_stream_epochs_total")
                .is_some_and(|v| v.as_u64() == Some(epochs)),
            "final scrape must reconcile with {epochs} sealed epochs"
        );
        drop(admin);

        let vs_bare = bare_wall.map_or_else(
            || {
                bare_wall = Some(wall);
                "1.00x".to_string()
            },
            |bare: std::time::Duration| {
                format!("{:.2}x", wall.as_secs_f64() / bare.as_secs_f64().max(1e-9))
            },
        );
        t.row(vec![
            scrapers.to_string(),
            epochs.to_string(),
            scrapes.to_string(),
            "0".to_string(),
            board.ready_flips().to_string(),
            percentile(&latencies_us, 50.0).to_string(),
            percentile(&latencies_us, 99.0).to_string(),
            fmt_duration(wall),
            vs_bare,
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e19_admin");
}

/// E20 — the cross-process cluster tier: digest traffic vs raw stream
/// bytes as the shard count grows. K worker state machines (the exact
/// state `dds cluster-shard` processes run) digest the churn workload
/// and the coordinator core merges and certifies every epoch; the table
/// reports what the wire would carry. Expected shape: digest bytes grow
/// mildly with K (fixed per-digest counter overhead per shard per
/// epoch) but stay well under the 5% budget against raw event bytes,
/// with the certified factor flat across K — partitioning is free
/// soundness-wise, it only spends wire bytes.
pub fn e20_cluster(quick: bool) {
    use dds_cluster::{ClusterConfig, ClusterCore, Frame, WorkerConfig, WorkerState};
    use dds_sketch::SketchConfig;
    use dds_stream::{Batch, Event};

    println!(
        "\n=== E20: cluster digest traffic vs shard count (expected: ratio well under the 5% budget, flat certified factor)"
    );
    let (events_len, batch) = if quick {
        (20_000, 1_000)
    } else {
        (100_000, 1_000)
    };
    let stream = crate::stream_workloads::churn(400, 4_000, (32, 32), events_len, 0xDD5);
    let raw_bytes: u64 = stream
        .iter()
        .map(|ev| {
            let (sign, u, v) = match ev.event {
                Event::Insert(u, v) => ('+', u, v),
                Event::Delete(u, v) => ('-', u, v),
            };
            format!("{} {sign} {u} {v}\n", ev.time).len() as u64
        })
        .sum();
    println!(
        "{} events ({raw_bytes} raw B), batch = {batch}, state bound = 250/shard",
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
    for shards in [1usize, 2, 4, 8] {
        let config = ClusterConfig {
            shards,
            batch,
            refresh_drift: 0.25,
            sketch: SketchConfig {
                state_bound: 250,
                ..SketchConfig::default()
            },
        };
        let mut core = ClusterCore::new(config);
        let mut workers: Vec<WorkerState> = (0..shards)
            .map(|shard| {
                let mut w = WorkerState::new(WorkerConfig {
                    shard,
                    shards,
                    batch,
                    sketch: config.sketch,
                });
                w.sync_baseline();
                w
            })
            .collect();
        let mut max_factor = 1.0f64;
        let mut epochs = 0u64;
        let ((), wall) = time(|| {
            for chunk in stream.chunks(batch) {
                let b = Batch::from_events(chunk.to_vec());
                for worker in &mut workers {
                    let tallies = worker.apply_batch(&b);
                    let digest = worker.digest(tallies, 0, 0, false);
                    let payload = Frame::Digest(digest.clone()).encode().len() as u64;
                    core.offer(digest, payload).expect("offer digest");
                }
                let epoch = core
                    .seal_next(false)
                    .expect("seal")
                    .expect("complete frontier");
                max_factor = max_factor.max(epoch.certified_factor());
                epochs += 1;
            }
        });
        assert_eq!(core.degraded_seals(), 0, "strict merge must never degrade");
        t.row(vec![
            shards.to_string(),
            epochs.to_string(),
            core.digest_bytes().to_string(),
            format!(
                "{:.3}%",
                core.digest_bytes() as f64 * 100.0 / raw_bytes as f64
            ),
            core.refreshes().to_string(),
            core.escalations().to_string(),
            format!("{max_factor:.3}"),
            fmt_duration(wall),
        ]);
    }
    println!("{}", t.render());
    t.write_csv("e20_cluster");
}

#[cfg(test)]
mod tests {
    /// Smoke: every experiment runs end-to-end in quick mode.
    /// (Split across two tests to parallelise the suite.)
    #[test]
    fn quick_mode_first_half() {
        for id in &super::ALL[..5] {
            super::run(id, true);
        }
    }

    #[test]
    fn quick_mode_second_half() {
        for id in &super::ALL[5..] {
            super::run(id, true);
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        super::run("e99", true);
    }
}
