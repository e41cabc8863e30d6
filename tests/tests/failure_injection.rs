//! Failure injection: malformed inputs, degenerate graphs, and boundary
//! conditions across the crate stack.

use dds_core::{core_approx, DcExact, DdsSolution, GridPeel};
use dds_graph::io::{read_edge_list, ParseOptions};
use dds_graph::{DiGraph, GraphBuilder, GraphError, Pair};

#[test]
fn malformed_edge_lists_report_precise_positions() {
    let cases: &[(&str, usize)] = &[
        ("0 1\nbroken\n", 2),
        ("x y\n", 1),
        ("0 1\n1 2 3\n", 2),
        ("0 1\n\n# ok\n9999999999999 3\n", 4), // exceeds u32
        ("0 -1\n", 1),
    ];
    for (text, want_line) in cases {
        match read_edge_list(text.as_bytes(), &ParseOptions::default()) {
            Err(GraphError::Parse { line, .. }) => {
                assert_eq!(line, *want_line, "input {text:?}");
            }
            other => panic!("expected parse error for {text:?}, got {other:?}"),
        }
    }
}

#[test]
fn solvers_are_total_on_degenerate_graphs() {
    let degenerates = [
        DiGraph::empty(0),
        DiGraph::empty(1),
        DiGraph::empty(100),                                // all isolated
        DiGraph::from_edges(2, &[(0, 1)]).unwrap(),         // single edge
        DiGraph::from_edges(2, &[(0, 1), (1, 0)]).unwrap(), // 2-cycle
    ];
    for g in &degenerates {
        let exact = DcExact::new().solve(g).solution;
        let core = core_approx(g).solution;
        let grid = GridPeel::default().solve(g).solution;
        // Nothing panics; approximations never exceed the exact optimum.
        assert!(core.density <= exact.density);
        assert!(grid.density <= exact.density);
        if g.m() == 0 {
            assert_eq!(exact, DdsSolution::empty());
        }
    }
}

#[test]
fn all_self_loops_graph_behaves_per_policy() {
    // Default policy drops loops ⇒ edgeless ⇒ empty solution.
    let mut b = GraphBuilder::new();
    for v in 0..5u32 {
        b.add_edge(v, v);
    }
    let dropped = b.build();
    assert_eq!(dropped.m(), 0);
    assert_eq!(
        DcExact::new().solve(&dropped).solution,
        DdsSolution::empty()
    );

    // Keeping loops: best pair is a single vertex against itself, ρ = 1.
    let mut b = GraphBuilder::new().keep_self_loops(true);
    for v in 0..5u32 {
        b.add_edge(v, v);
    }
    let kept = b.build();
    let sol = DcExact::new().solve(&kept).solution;
    assert_eq!(sol.density.to_f64(), 1.0);
}

#[test]
fn dense_complete_digraph_stresses_capacity_scaling() {
    // K_45 complete digraph: m = 1980, every pair near-uniform density;
    // the exact search must not overflow its scaled capacities.
    let g = dds_graph::gen::gnm(45, 45 * 44, 0);
    let r = DcExact::new().solve(&g);
    // ρ_opt of the complete digraph is attained by (V, V): (n²−n)/n = n−1.
    assert_eq!(r.solution.density.to_f64(), 44.0);
    let full: Vec<u32> = (0..45).collect();
    assert_eq!(r.solution.pair, Pair::new(full.clone(), full));
}

#[test]
fn mask_length_mismatch_is_caught() {
    let g = DiGraph::from_edges(3, &[(0, 1)]).unwrap();
    let result = std::panic::catch_unwind(|| g.induced_subgraph(&[true, false]));
    assert!(
        result.is_err(),
        "short mask must panic with a clear message"
    );
}

#[test]
fn out_of_range_edges_rejected_by_from_edges() {
    for bad in [(3u32, 0u32), (0, 3), (7, 9)] {
        let err = DiGraph::from_edges(3, &[bad]).unwrap_err();
        assert!(
            matches!(err, GraphError::VertexOutOfRange { .. }),
            "{bad:?}"
        );
    }
}
