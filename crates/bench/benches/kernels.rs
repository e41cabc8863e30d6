//! Microbenchmarks of the performance-critical kernels: the input
//! decoders, the flow decision, fixed-ratio peeling, and the `[x, y]`-core
//! primitives.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use dds_core::peel_at_rational_ratio;
use dds_flow::{decide, decide_in, FlowArena};
use dds_graph::io::{read_edge_list, write_edge_list, ParseOptions};
use dds_graph::{gen, StMask};
use dds_num::Frac;
use dds_stream::{read_events, write_events};
use dds_xycore::{max_product_core, xy_core, y_max_core};

/// The parse layer alone, from bytes in memory, on inputs shaped like the
/// repository benchmark's: the `churn-serve` event file (about 1M events)
/// and the `static-exact` edge list (about 106k edges).
fn bench_parse(c: &mut Criterion) {
    let mut events = Vec::new();
    write_events(
        &dds_bench::churn(400, 4_000, (32, 32), 1_000_000, 0xDD5),
        &mut events,
    )
    .expect("write to memory");
    c.bench_function("parse/events-churn", |b| {
        b.iter(|| read_events(black_box(events.as_slice())).expect("parses"))
    });
    let mut edges = Vec::new();
    write_edge_list(
        &gen::planted(15_000, 105_000, 30, 34, 0.9, 1).graph,
        &mut edges,
    )
    .expect("write to memory");
    let opts = ParseOptions::default();
    c.bench_function("parse/edge-list-planted", |b| {
        b.iter(|| read_edge_list(black_box(edges.as_slice()), &opts).expect("parses"))
    });
}

fn bench_flow_decision(c: &mut Criterion) {
    let g = gen::power_law(2_000, 12_000, 2.2, 1);
    let alive = StMask::full(g.n());
    c.bench_function("flow_decision/pl-2k-full-graph", |b| {
        b.iter(|| decide(black_box(&g), &alive, 1, 1, Frac::new(5, 2)))
    });
    // Arena ablation against the entry above: `pl-2k-on-core` allocates a
    // fresh network per decision; this recycles one arena's buffers (the
    // SolveContext steady state).
    let core = xy_core(&g, 3, 3);
    c.bench_function("flow_decision/pl-2k-on-core", |b| {
        b.iter(|| decide(black_box(&g), &core, 1, 1, Frac::new(5, 2)))
    });
    let mut arena = FlowArena::new();
    c.bench_function("flow_decision/pl-2k-arena-reuse", |b| {
        b.iter(|| decide_in(&mut arena, black_box(&g), &core, 1, 1, Frac::new(5, 2)))
    });
}

fn bench_peel(c: &mut Criterion) {
    let g = gen::power_law(3_000, 20_000, 2.2, 1);
    c.bench_function("peel/pl-s-ratio-1-1", |b| {
        b.iter(|| peel_at_rational_ratio(black_box(&g), 1, 1))
    });
    c.bench_function("peel/pl-s-ratio-1-10", |b| {
        b.iter(|| peel_at_rational_ratio(black_box(&g), 1, 10))
    });
}

fn bench_cores(c: &mut Criterion) {
    let g = gen::power_law(3_000, 20_000, 2.2, 1);
    c.bench_function("xycore/peel-1-1", |b| {
        b.iter(|| xy_core(black_box(&g), 1, 1))
    });
    c.bench_function("xycore/peel-4-4", |b| {
        b.iter(|| xy_core(black_box(&g), 4, 4))
    });
    let full = StMask::full(g.n());
    c.bench_function("xycore/y-max-sweep-x2", |b| {
        b.iter(|| y_max_core(black_box(&g), &full, 2))
    });
    c.bench_function("xycore/max-product", |b| {
        b.iter(|| max_product_core(black_box(&g)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1_500))
}

criterion_group! {
    name = kernels;
    config = config();
    targets = bench_parse, bench_flow_decision, bench_peel, bench_cores
}
criterion_main!(kernels);
