//! Quickstart: build a directed graph, find its densest subgraph pair.
//!
//! ```sh
//! cargo run --release -p dds-tests --example quickstart
//! ```

use dds_core::{core_approx, DcExact};
use dds_graph::DiGraph;

fn main() {
    // A small "retweet" graph: vertices 0–2 repost everything that 3–5
    // publish, plus some background chatter.
    let edges = [
        // dense block: {0,1,2} → {3,4,5}
        (0, 3),
        (0, 4),
        (0, 5),
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 3),
        (2, 4),
        (2, 5),
        // background
        (6, 0),
        (7, 6),
        (5, 8),
        (8, 9),
        (9, 7),
    ];
    let g = DiGraph::from_edges(10, &edges).expect("valid edge list");
    println!("graph: {} vertices, {} edges", g.n(), g.m());

    // Exact solver: the densest pair (S, T) maximising |E(S,T)|/√(|S||T|).
    let exact = DcExact::new().solve(&g);
    println!("\nexact DDS:");
    println!("  density = {}", exact.solution.density);
    println!("  S = {:?}", exact.solution.pair.s());
    println!("  T = {:?}", exact.solution.pair.t());
    println!(
        "  ({} ratios solved, {} max-flow calls)",
        exact.ratios_solved, exact.flow_decisions
    );

    // 2-approximation in O(√m(n+m)): the maximum-product [x, y]-core.
    let approx = core_approx(&g);
    println!("\ncore_approx (2-approximation):");
    println!("  density = {}", approx.solution.density);
    println!("  core    = [{}, {}]", approx.x, approx.y);
    println!(
        "  certified: ρ_opt ∈ [{:.4}, {:.4}]",
        approx.solution.density.to_f64(),
        approx.upper_bound
    );

    // The dense block is the optimum: 9/√(3·3) = 3.
    assert_eq!(exact.solution.pair.s(), &[0, 1, 2]);
    assert_eq!(exact.solution.pair.t(), &[3, 4, 5]);
    assert_eq!(exact.solution.density.to_f64(), 3.0);
    assert!(2.0 * approx.solution.density.to_f64() >= exact.solution.density.to_f64());
    println!("\nOK: exact optimum is the planted block, approximation within factor 2.");
}
