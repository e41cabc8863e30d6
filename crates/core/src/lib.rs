//! Directed densest subgraph discovery (DDS).
//!
//! This crate implements the algorithm suite of *"Efficient Algorithms for
//! Densest Subgraph Discovery on Large Directed Graphs"* (SIGMOD 2020) —
//! reconstructed from the problem statement and contributions of that paper
//! (the workspace `PAPER.md` holds its abstract): given a directed graph
//! `G`, find the pair `(S, T)` maximising the Kannan–Vinay density
//!
//! ```text
//! ρ(S, T) = |E(S, T)| / sqrt(|S| · |T|)
//! ```
//!
//! # Solvers
//!
//! | Solver | Kind | Guarantee | Cost |
//! |---|---|---|---|
//! | [`DcExact`] | exact | optimal | few flow calls on core-shrunk networks |
//! | [`FlowExact`] | exact baseline | optimal | `Θ(n²)` ratio searches |
//! | [`core_approx`] | approximation | `ρ ≥ ρ_opt / 2` | one `O(n + d_max)` sort, then `O(Σ_{u∈S_x} d⁺(u) + Σ_{v∈T_x} d⁻(v))` per sweep point; `O(√m · (n + m))` at worst |
//! | [`GridPeel`] | approximation | `ρ ≥ ρ_opt / (2(1+ε))` | `O((n+m)·log₁₊ε n)` |
//! | [`ExhaustivePeel`] | approximation baseline | `ρ ≥ ρ_opt / 2` | `Θ(n²)` peels |
//! | [`validate::brute_force_dds`] | ground truth | optimal | exponential (tiny `n`) |
//!
//! # The `SolveContext` pipeline
//!
//! The exact engine runs on a long-lived [`SolveContext`]
//! ([`DcExact::solve_with`]): per-worker flow arenas (Dinic buffers reset
//! between decisions, never reallocated), a memoised `[x, y]`-core table
//! keyed by the β-floor thresholds, and the incumbent witness threaded
//! from solve to solve. The ratio traversal is a work queue of
//! Stern–Brocot intervals consumed by one worker per lane
//! ([`parallel::dc_exact_parallel_with`], lanes forked once per solve by
//! [`WorkerPool::fork_join`]); workers share the incumbent through
//! an **atomic density floor** (lock-free reads on the γ fast path, a
//! mutex only for the exact pair) and discard intervals whose certified
//! bound cannot *strictly* beat it — exact ties are resolved by a 384-bit
//! integer comparison rather than re-solved ([`ExactOptions::tie_pruning`]).
//! The context compares each solve's graph with the previous one and invalidates the
//! memoised cores when it changed, which is exactly what `dds-stream`'s
//! warm-started lazy re-solves rely on: the witness seed survives graph
//! mutation (revalidated), the core memo does not. Per-solve reuse shows
//! up in [`ExactReport::stats`] / [`SolveStats`].
//!
//! # The mathematics, in brief
//!
//! Proof sketches live on the items that use them; the load-bearing facts:
//!
//! 1. **Ratio discretisation.** Any optimum has `|S|/|T| = a/b` in lowest
//!    terms with `a, b ≤ n`, so the ratio space is the Farey set.
//! 2. **AM–GM linearisation.** For fixed ratio `c`,
//!    `sqrt(|S||T|) ≤ (|S|/√c + √c·|T|)/2` with equality iff the pair's
//!    ratio is exactly `c`; maximising the *weighted* objective
//!    `|E| − p|S| − q|T|` is a min-cut (see `dds-flow::decision`), and the
//!    maximum over all `c` of the weighted optimum equals `ρ_opt`.
//! 3. **Cores bound densities.** A non-empty `[x, y]`-core has
//!    `ρ ≥ sqrt(xy)`; conversely the DDS lies in a core with
//!    `x·y ≥ (ρ_opt/2)²` — giving the 2-approximation and the pruning.
//! 4. **Certificates transfer across ratios.** A failed cut at `(c, g)`
//!    proves `ρ(S,T) ≤ g·γ(c, c′)` for every pair of ratio `c′`, where
//!    `γ(c, c′) = (√(c′/c) + √(c/c′))/2` — letting the divide-and-conquer
//!    search prune entire ratio intervals with one flow.
//!
//! # Example
//!
//! ```
//! use dds_core::{DcExact, core_approx};
//! use dds_graph::DiGraph;
//!
//! // K_{2,2}: the optimum is (S, T) = ({0,1}, {2,3}) with ρ = 4/√4 = 2.
//! let g = DiGraph::from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
//!
//! let exact = DcExact::new().solve(&g);
//! assert_eq!(exact.solution.density.to_f64(), 2.0);
//! assert_eq!(exact.solution.pair.s(), &[0, 1]);
//!
//! let approx = core_approx(&g);
//! assert!(2.0 * approx.solution.density.to_f64() >= 2.0); // ½-guarantee
//! assert!(approx.upper_bound >= 2.0);                     // certified bracket
//! ```

#![warn(missing_docs)]

mod approx;
mod exact;
pub mod parallel;
mod peel;
pub mod pool;
mod result;
mod topk;
pub mod validate;

pub use approx::{core_approx, CoreApproxResult, ExhaustivePeel, GridPeel, PeelResult};
pub use exact::{DcExact, ExactOptions, ExactReport, FlowExact, SolveContext};
pub use peel::{peel_at_f64_ratio, peel_at_rational_ratio};
pub use pool::{auto_threads, PoolStats, WorkerPool};
pub use result::{DdsSolution, SolveStats};
pub use topk::{top_k_dense_pairs, TopKSolver};
