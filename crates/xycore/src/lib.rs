//! `[x, y]`-cores: the directed analog of k-cores that powers both the
//! 2-approximation and the pruning inside the exact DDS algorithm.
//!
//! # Definition
//!
//! For integers `x, y ≥ 0`, the **`[x, y]`-core** of a directed graph `G`
//! is the largest pair `(S, T)` of vertex subsets such that
//!
//! * every `u ∈ S` has at least `x` out-neighbours **in `T`**, and
//! * every `v ∈ T` has at least `y` in-neighbours **in `S`**.
//!
//! "Largest" is well defined because pairs satisfying the two constraints
//! are closed under componentwise union, so a unique maximum exists; it is
//! computed by cascading peeling in `O(n + m)` ([`xy_core`]).
//!
//! # Why cores matter for DDS (proofs in `dds-core` docs)
//!
//! * a non-empty `[x, y]`-core has density `ρ ≥ sqrt(x·y)`;
//! * the densest pair lies in the `[⌈ρ_opt/(2√c*)⌉, ⌈ρ_opt·√c*/2⌉]`-core,
//!   so `ρ_opt ≤ 2·sqrt(P)` for `P` = the maximum `x·y` over non-empty
//!   cores — making the arg-max core a deterministic 2-approximation
//!   ([`max_product_core`], the heart of `CoreApprox`);
//! * every maximiser of the flow objective at guess `β` for ratio `a/b`
//!   lies in the `[⌈β/2a⌉, ⌈β/2b⌉]`-core, which is how the exact search
//!   shrinks its flow networks.
//!
//! Because any non-empty `[x, y]`-core satisfies `x·y ≤ m`, every skyline
//! point has `min(x, y) ≤ √m`, and the arg-max product is found by two
//! `√m`-bounded sweeps ([`max_product_core`]). No sweep point needs a
//! cascade to reach its `[x, 1]`-core: S is every vertex of out-degree
//! `≥ x`, a prefix of one degree order sorted in `O(n + d⁺max)`, and T is
//! their out-neighbours, each of which keeps an in-neighbour in S while no
//! S vertex loses an out-neighbour. So the `y`-level peel runs inside that
//! core only, in `O(Σ_{u∈S_x} d⁺(u) + Σ_{v∈T_x} d⁻(v))` per point, and
//! `O(√m · (n + m))` at worst in total.
//! Three pruning rules skip the sweep points that provably cannot win,
//! and no others, so the answer and its tie-break are those of the two
//! full sweeps:
//!
//! 1. the reverse sweep stops at the first `y` with `x_max(y) ≤ ⌊√m⌋`, as
//!    the forward sweep already dominates every later reverse point;
//! 2. the forward sweep stops once `min(⌊√m⌋, d⁺max)·y_max(x)`, a bound
//!    on every later product, cannot beat the best;
//! 3. one probe `y_max(x_p)` gives a floor `F ≤ P`, and the forward sweep
//!    starts at `⌈F/d⁻max⌉`, as no smaller `x` reaches `F`.
//!
//! [`MaxProductCore`] states them in full. On the 105k-edge benchmark
//! graph they cut the sweep from 64 evaluations to 18, and the 18 take
//! 0.8–1.2 ms together on a 2-vCPU host, as none of their cores holds more
//! than 206 S and 2,575 T vertices of the 15,000.
//!
//! # Example
//!
//! ```
//! use dds_graph::DiGraph;
//! use dds_xycore::{xy_core, max_product_core};
//!
//! // K_{2,3}: every S vertex has 3 out-edges, every T vertex 2 in-edges.
//! let g = DiGraph::from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap();
//!
//! let core = xy_core(&g, 3, 2);
//! assert_eq!((core.s_count(), core.t_count()), (2, 3));
//! assert!(xy_core(&g, 4, 2).is_empty());
//!
//! let best = max_product_core(&g).unwrap();
//! assert_eq!(best.product(), 6); // so ρ_opt ∈ [√6, 2√6]
//! ```

#![warn(missing_docs)]

mod cache;
mod decompose;
mod decremental;
mod peel;

pub use cache::CoreCache;
pub use decompose::{
    max_product_core, skyline, x_max, y_max_core, MaxProductCore, SkylinePoint, YMaxCore,
};
pub use decremental::DecrementalCore;
pub use peel::{xy_core, xy_core_within};
