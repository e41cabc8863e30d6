//! Side-by-side comparison of every solver in the workspace.
//!
//! Runs the exact solvers and all three approximation algorithms on one
//! mid-sized power-law graph and prints a quality/cost table — a
//! miniature of the paper's evaluation (experiments E2/E5/E6).
//!
//! ```sh
//! cargo run --release -p dds-tests --example algorithm_comparison
//! ```

use std::time::Instant;

use dds_core::{core_approx, DcExact, DdsSolution, ExhaustivePeel, FlowExact, GridPeel};
use dds_graph::gen;

struct Row {
    name: &'static str,
    solution: DdsSolution,
    millis: f64,
    note: String,
}

fn main() {
    // Small enough for the Θ(n²)-ratio baselines to finish in seconds;
    // scale up (and drop the baselines) to taste.
    let g = gen::power_law(100, 600, 2.2, 99);
    println!("graph: n = {}, m = {}\n", g.n(), g.m());

    let mut rows: Vec<Row> = Vec::new();
    let timed = |f: &mut dyn FnMut() -> (DdsSolution, String)| -> (DdsSolution, f64, String) {
        let t0 = Instant::now();
        let (sol, note) = f();
        (sol, t0.elapsed().as_secs_f64() * 1e3, note)
    };

    let (sol, ms, note) = timed(&mut || {
        let r = DcExact::new().solve(&g);
        (
            r.solution,
            format!("{} flows over {} ratios", r.flow_decisions, r.ratios_solved),
        )
    });
    rows.push(Row {
        name: "DcExact",
        solution: sol,
        millis: ms,
        note,
    });

    let (sol, ms, note) = timed(&mut || {
        let r = FlowExact.solve(&g);
        (
            r.solution,
            format!("{} flows over {} ratios", r.flow_decisions, r.ratios_solved),
        )
    });
    rows.push(Row {
        name: "FlowExact (baseline)",
        solution: sol,
        millis: ms,
        note,
    });

    let (sol, ms, note) = timed(&mut || {
        let r = core_approx(&g);
        (r.solution, format!("core [{},{}], 2-approx", r.x, r.y))
    });
    rows.push(Row {
        name: "core_approx",
        solution: sol,
        millis: ms,
        note,
    });

    let (sol, ms, note) = timed(&mut || {
        let r = GridPeel::new(0.1).solve(&g);
        (
            r.solution,
            format!("{} grid peels, 2.2-approx", r.ratios_tried),
        )
    });
    rows.push(Row {
        name: "GridPeel(0.1)",
        solution: sol,
        millis: ms,
        note,
    });

    let (sol, ms, note) = timed(&mut || {
        let r = ExhaustivePeel.solve(&g);
        (r.solution, format!("{} peels, 2-approx", r.ratios_tried))
    });
    rows.push(Row {
        name: "ExhaustivePeel (baseline)",
        solution: sol,
        millis: ms,
        note,
    });

    let opt = rows[0].solution.density;
    println!(
        "{:<26} {:>10} {:>9} {:>8}  note",
        "algorithm", "density", "quality", "ms"
    );
    for row in &rows {
        let quality = if opt.is_zero() {
            1.0
        } else {
            row.solution.density.to_f64() / opt.to_f64()
        };
        println!(
            "{:<26} {:>10.4} {:>8.1}% {:>8.1}  {}",
            row.name,
            row.solution.density.to_f64(),
            100.0 * quality,
            row.millis,
            row.note
        );
    }

    // Invariants the table must satisfy.
    assert_eq!(
        rows[0].solution.density, rows[1].solution.density,
        "exact solvers agree"
    );
    for row in &rows[2..] {
        assert!(
            row.solution.density <= opt,
            "{} exceeded the optimum",
            row.name
        );
        assert!(
            2.2 * row.solution.density.to_f64() + 1e-9 >= opt.to_f64(),
            "{} broke its approximation guarantee",
            row.name
        );
    }
    println!("\nOK: exact solvers agree; every approximation met its guarantee.");
}
