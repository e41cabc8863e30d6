//! Recovering a planted fraud ring with the exact solver.
//!
//! A classic DDS application: in a payments/review graph, a ring of
//! colluding accounts (`S`) funnels transactions/reviews toward a set of
//! beneficiary accounts (`T`), forming an abnormally dense directed block
//! that ordinary activity does not. This example plants such a block in a
//! sparse background, recovers it *exactly* with `DcExact`, and shows how
//! much of the graph the core-based pruning never touches.
//!
//! ```sh
//! cargo run --release -p dds-tests --example fraud_detection
//! ```

use std::time::Instant;

use dds_core::{DcExact, ExactOptions};
use dds_graph::{gen, VertexId};

fn main() {
    // 800 accounts with 2 400 background transactions; 8 fraudsters
    // each hitting all 10 beneficiary accounts with probability 0.95.
    // (Scale n up to taste: the full solver handles thousands of vertices
    // in seconds; the no-pruning ablation at the end is the slow part.)
    let planted = gen::planted(800, 2_400, 8, 10, 0.95, 2024);
    let g = &planted.graph;
    println!(
        "transaction graph: n = {}, m = {} (block: {}×{} accounts)",
        g.n(),
        g.m(),
        planted.pair.s().len(),
        planted.pair.t().len()
    );
    let planted_density = planted.pair.density(g);
    println!("planted block density: {planted_density}");

    // Exact solve with all pruning devices.
    let t0 = Instant::now();
    let report = DcExact::new().solve(g);
    let elapsed = t0.elapsed();
    println!(
        "\nDcExact found ρ_opt = {} in {elapsed:?}",
        report.solution.density
    );
    println!(
        "  ratios solved {}, flow decisions {}, pruned {} (γ) + {} (structural)",
        report.ratios_solved,
        report.flow_decisions,
        report.ratios_pruned_gamma,
        report.ratios_pruned_structural
    );
    let max_nodes = report.network_nodes.iter().max().copied().unwrap_or(0);
    println!(
        "  largest flow network: {max_nodes} nodes (graph has {} vertices → {:.1}% touched)",
        g.n(),
        100.0 * max_nodes as f64 / g.n() as f64
    );

    // How well does the answer match the planted ring?
    let sol = &report.solution;
    let overlap = |found: &[VertexId], truth: &[VertexId]| -> (f64, f64) {
        let hit = found.iter().filter(|v| truth.contains(v)).count() as f64;
        (
            hit / found.len().max(1) as f64,
            hit / truth.len().max(1) as f64,
        )
    };
    let (s_prec, s_rec) = overlap(sol.pair.s(), planted.pair.s());
    let (t_prec, t_rec) = overlap(sol.pair.t(), planted.pair.t());
    println!("\nrecovery vs planted ring:");
    println!(
        "  S side: precision {:.0}%, recall {:.0}%",
        100.0 * s_prec,
        100.0 * s_rec
    );
    println!(
        "  T side: precision {:.0}%, recall {:.0}%",
        100.0 * t_prec,
        100.0 * t_rec
    );

    // The optimum can only be at least as dense as what we planted.
    assert!(
        sol.density >= planted_density,
        "solver must match or beat the plant"
    );
    assert!(
        s_rec >= 0.8 && t_rec >= 0.8,
        "the ring should be substantially recovered"
    );

    // Ablation: the same answer without core pruning, but on much larger
    // flow networks.
    let t0 = Instant::now();
    let no_core = DcExact::with_options(ExactOptions {
        core_pruning: false,
        ..ExactOptions::default()
    })
    .solve(g);
    let elapsed_no_core = t0.elapsed();
    assert_eq!(no_core.solution.density, report.solution.density);
    let max_nodes_nc = no_core.network_nodes.iter().max().copied().unwrap_or(0);
    println!("\nablation (no core pruning): same optimum, {elapsed_no_core:?}");
    println!(
        "  largest flow network grows {max_nodes} → {max_nodes_nc} nodes ({:.0}× larger)",
        max_nodes_nc as f64 / max_nodes.max(1) as f64
    );
    assert!(max_nodes_nc >= max_nodes);
    println!("\nOK: ring recovered exactly; core pruning kept the networks small.");
}
