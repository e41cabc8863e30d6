//! Integration: the extension features (top-k, DOT export, weak
//! components) compose with the solvers across crates.

use dds_core::{top_k_dense_pairs, DcExact, TopKSolver};
use dds_graph::{gen, to_dot, weakly_connected_components, GraphBuilder};

#[test]
fn top_k_then_refine_yields_connected_disjoint_findings() {
    // Two planted blocks at different densities inside one background.
    let mut b = GraphBuilder::with_min_vertices(60);
    for (u, v) in gen::gnm(60, 90, 3).edges() {
        b.add_edge(u, v);
    }
    for u in 0..4u32 {
        for v in 4..9u32 {
            b.add_edge(u, v); // block A: density √20
        }
    }
    for u in 20..23u32 {
        for v in 23..26u32 {
            b.add_edge(u, v); // block B: density 3
        }
    }
    let g = b.build();

    let found = top_k_dense_pairs(&g, 2, TopKSolver::Exact);
    assert_eq!(found.len(), 2);
    assert!(found[0].density >= found[1].density);
    // The top block must be recovered in the first round.
    let first_s = found[0].pair.s();
    assert!(
        (0..4u32).all(|v| first_s.contains(&v)),
        "block A sources missing from the densest finding: {first_s:?}"
    );
}

#[test]
fn dot_highlighting_matches_the_exact_answer() {
    let g = gen::complete_bipartite(2, 3);
    let sol = DcExact::new().solve(&g).solution;
    let dot = to_dot(&g, Some(&sol.pair));
    // Every pair edge is bold; K_{2,3} has 6 of them.
    assert_eq!(dot.matches("crimson").count(), 6);
    assert_eq!(dot.matches("lightblue").count(), sol.pair.s().len());
    assert_eq!(dot.matches("lightsalmon").count(), sol.pair.t().len());
}

#[test]
fn component_labels_agree_with_solver_locality() {
    // The exact optimum of a disconnected graph lives inside one weak
    // component.
    let mut b = GraphBuilder::with_min_vertices(12);
    for u in 0..3u32 {
        for v in 3..6u32 {
            b.add_edge(u, v);
        }
    }
    b.add_edge(8, 9).add_edge(9, 10).add_edge(10, 8);
    let g = b.build();
    let (labels, count) = weakly_connected_components(&g);
    assert!(count >= 2);
    let sol = DcExact::new().solve(&g).solution;
    let pair_labels: std::collections::HashSet<u32> = sol
        .pair
        .s()
        .iter()
        .chain(sol.pair.t())
        .map(|&v| labels[v as usize])
        .collect();
    assert_eq!(pair_labels.len(), 1, "optimum spans one weak component");
}
