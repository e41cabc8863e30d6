//! Hub/authority discovery on a synthetic follower network.
//!
//! The DDS problem on directed graphs separates the two roles an
//! undirected densest subgraph conflates: `S` collects *hubs* (accounts
//! that link out a lot — fans, aggregators) and `T` collects *authorities*
//! (accounts that are linked to — celebrities). This example builds a
//! power-law follower graph, extracts the densest pair with the scalable
//! approximations, and inspects the role split.
//!
//! ```sh
//! cargo run --release -p dds-tests --example social_network
//! ```

use std::time::Instant;

use dds_core::{core_approx, parallel, GridPeel};
use dds_graph::{gen, GraphStats, VertexId};

fn main() {
    // ~20k accounts, ~120k follows, heavy-tailed in both directions.
    let g = gen::power_law(20_000, 120_000, 2.2, 7);
    let stats = GraphStats::compute(&g);
    println!(
        "follower graph: n = {}, m = {}, max out = {}, max in = {}",
        stats.n, stats.m, stats.max_out_degree, stats.max_in_degree
    );

    // CoreApprox: deterministic 2-approximation.
    let t0 = Instant::now();
    let core = core_approx(&g);
    let t_core = t0.elapsed();
    println!(
        "\ncore_approx:  ρ = {:.4}  (core [{},{}], {:?})",
        core.solution.density.to_f64(),
        core.x,
        core.y,
        t_core
    );
    println!(
        "  certified bracket for the true optimum: [{:.4}, {:.4}]",
        core.solution.density.to_f64().max(core.lower_bound),
        core.upper_bound
    );

    // GridPeel: 2(1+ε)-approximation, here with 4 workers.
    let t0 = Instant::now();
    let grid = parallel::grid_peel_parallel(&g, 0.1, 4);
    let t_grid = t0.elapsed();
    println!(
        "grid peel:    ρ = {:.4}  ({} ratios, 4 threads, {:?})",
        grid.solution.density.to_f64(),
        grid.ratios_tried,
        t_grid
    );

    // Sequential GridPeel for reference.
    let t0 = Instant::now();
    let grid_seq = GridPeel::new(0.1).solve(&g);
    let t_seq = t0.elapsed();
    println!(
        "grid peel seq ρ = {:.4}  ({:?})",
        grid_seq.solution.density.to_f64(),
        t_seq
    );
    assert_eq!(grid.solution.density, grid_seq.solution.density);

    // Interpret the denser of the two answers.
    let best = if core.solution.density >= grid.solution.density {
        &core.solution
    } else {
        &grid.solution
    };
    let s = best.pair.s();
    let t = best.pair.t();
    println!(
        "\ndensest pair: |S| = {} hubs, |T| = {} authorities",
        s.len(),
        t.len()
    );

    let avg = |side: &[VertexId], f: &dyn Fn(VertexId) -> usize| -> f64 {
        if side.is_empty() {
            0.0
        } else {
            side.iter().map(|&v| f(v) as f64).sum::<f64>() / side.len() as f64
        }
    };
    let out_of = |v: VertexId| g.out_degree(v);
    let in_of = |v: VertexId| g.in_degree(v);
    let s_out = avg(s, &out_of);
    let s_in = avg(s, &in_of);
    let t_out = avg(t, &out_of);
    let t_in = avg(t, &in_of);
    println!("  S (hubs):        avg out-degree {s_out:.1}, avg in-degree {s_in:.1}");
    println!("  T (authorities): avg out-degree {t_out:.1}, avg in-degree {t_in:.1}");

    // The role split is the point of directed density: hubs should link
    // out far more than authorities do, and authorities should be linked
    // to far more than hubs are.
    assert!(s_out > t_out, "hubs should out-link more than authorities");
    assert!(t_in > s_in, "authorities should be followed more than hubs");
    assert!(
        2.0 * core.solution.density.to_f64() + 1e-9 >= grid.solution.density.to_f64(),
        "both carry multiplicative guarantees to the same optimum"
    );
    println!("\nOK: hub/authority roles separated as expected.");
}
