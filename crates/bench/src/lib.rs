//! Experiment harness and benchmark support for the DDS workspace.
//!
//! The binary (`cargo run -p dds-bench --release -- <experiment|all>`)
//! regenerates the paper-style tables and figure series (experiments
//! E1–E20, one function each in [`experiments`]; E13 covers the
//! `SolveContext` pipeline, E14 the window-native engine, E17 the worker
//! pool, E18 the query-serving tier). Results print as aligned tables
//! and are also written as CSV under `bench_results/`. The criterion
//! benches under `benches/` cover the per-kernel microbenchmarks.
//!
//! CI gates the streaming tiers through [`perf`]: `full` writes the
//! committed `BENCH_E12..E20.json` records and `compare` re-measures
//! them, each by running the experiment function that prints the
//! experiment's table and asserts its contracts; E19 also holds the
//! metrics and admin planes to their paired overhead budgets. The
//! `cluster-smoke` subcommand gates what no record can: real worker
//! processes.

#![warn(missing_docs)]

pub mod experiments;
pub mod perf;
pub mod report;
pub mod serve_load;
pub mod stream_workloads;
pub mod workloads;

pub use report::{fmt_duration, time, Table};
pub use stream_workloads::{arrivals, churn, planted_emerge, recurring_block, sliding_window};
pub use workloads::{exact_ladder, planted_block, registry, Scale, Workload};
