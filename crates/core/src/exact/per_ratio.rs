//! Exact per-ratio search in β-space: Newton's (Dinkelbach's) iteration.
//!
//! For a fixed ratio `c = a/b` the search finds
//! `β*(c) = max over pairs of 2abE/(b|S| + a|T|)` — the β-image of the
//! c-weighted density (see `dds-flow::decision`) — with one min cut per
//! step. Every step guesses an *achieved* value `l = β(P)` of some pair `P`:
//!
//! * a cut that **exceeds** `l` returns the minimal min cut's pair, a
//!   maximiser of `|E| − l/(2a)·|S| − l/(2b)·|T|`; its exact β-value,
//!   strictly above `l`, is the next guess (Dinkelbach's step);
//! * a cut that **certifies** `l` proves `β*(c) ≤ l`, and `P` attains `l`,
//!   so the ratio closes with `β*(c) = l` exactly. The maximal min cut's
//!   pair attains it too and is returned as the ratio's maximiser, which
//!   the divide-and-conquer engine hands to neighbouring ratios as a seed.
//!
//! The first guess is the best β over the caller's seed pairs (the
//! incumbent and neighbouring maximisers), or the whole graph's when no
//! seed has an edge, so a seed that already attains `β*(c)` closes the
//! ratio with a single cut.
//!
//! Termination: `l` strictly rises through the finitely many values
//! `2abE/D` (`E ≤ m`, `D ≤ n(a+b)`), and Dinkelbach's iteration converges
//! superlinearly, so a ratio takes a handful of cuts even from a poor seed.
//!
//! With `core_pruning`, each decision runs on the
//! `[⌈β/2a⌉, ⌈β/2b⌉]`-core: every maximiser of the cut objective at guess
//! `β` has `d⁺ ≥ β/(2a)` on the S side and `d⁻ ≥ β/(2b)` on the T side
//! within the pair (dropping a vertex below the threshold would increase
//! the objective), so restricting to the core preserves the decision and
//! every extractable optimum while shrinking the network. The same
//! argument keeps the certifying cut's maximiser non-empty: at the guess
//! `l = β*(c)` the pair attaining `l` has objective 0, the maximum, so it
//! lies in the core and inside the maximal min cut's source side.

use dds_flow::{beta_of_pair, decide_in, Decision, DecisionStats, FlowArena};
use dds_graph::{DiGraph, Pair, StMask, VertexId};
use dds_num::Frac;

/// The reusable machinery a ratio search borrows from its caller: the
/// worker's flow arena and a core provider (typically the `SolveContext`
/// memo table, possibly behind a mutex in the parallel search).
pub(crate) struct RatioResources<'a> {
    /// Recyclable flow-network buffers (one per worker thread).
    pub arena: &'a mut FlowArena,
    /// Returns the full-graph `[x, y]`-core for the guess-derived
    /// thresholds.
    pub core_of: &'a mut dyn FnMut(u64, u64) -> StMask,
}

/// Result of one per-ratio search.
#[derive(Clone, Debug)]
pub(crate) struct RatioOutcome {
    /// Certified inclusive upper bound on `β*(c)` over **all** pairs; used
    /// by the divide-and-conquer engine to prune neighbouring ratio
    /// intervals via the γ transfer bound. It is `β*(c)` itself whenever
    /// `maximizer` is set, which is what lets the engine discard intervals
    /// that merely *tie* the incumbent.
    pub certified_upper: Frac,
    /// A pair attaining `β*(c)`. Unset only on an edgeless graph, or when
    /// a floor-fast search's first guess, the floor, certified strictly
    /// (`certified_upper` is then the floor).
    pub maximizer: Option<Pair>,
    /// Instrumentation for every flow decision run.
    pub decisions: Vec<DecisionStats>,
}

/// `⌈β / k⌉` for positive `β`, as a core threshold.
fn ceil_div(beta: Frac, k: u64) -> u64 {
    let den = beta
        .den()
        .checked_mul(i128::from(k))
        .expect("core threshold overflow");
    u64::try_from(Frac::new(beta.num(), den).ceil()).expect("core threshold fits u64")
}

/// The whole graph as one pair: every vertex with an out-edge in `S`,
/// every vertex with an in-edge in `T`.
fn whole_graph(g: &DiGraph) -> Pair {
    let vertices = 0..g.n() as VertexId;
    Pair::new(
        vertices.clone().filter(|&v| g.out_degree(v) > 0).collect(),
        vertices.filter(|&v| g.in_degree(v) > 0).collect(),
    )
}

/// Solves ratio `a/b` exactly by Newton's iteration, starting from the
/// best β-value among `seeds`. `floor_beta`, the β-image of the best
/// density found so far, only steers floor-fast mode; deciding whether
/// the maximiser improves on it is the caller's job.
///
/// `tighten` picks the search regime:
///
/// * `true` — **certify**: every guess is achieved, so the search always
///   ends with `β*(c)` and a maximiser. The exact certificate is what lets
///   the divide-and-conquer engine discard whole ratio intervals.
/// * `false` — **floor-fast**: when the floor lies above every seed, it is
///   the first guess, and a ratio that cannot beat the incumbent exits
///   after that one cut with the floor as its (loose) certificate. Right
///   when no caller consumes certificates (the all-ratios baseline, or DC
///   with γ-pruning off).
#[allow(clippy::too_many_arguments)] // search knobs + borrowed resources
pub(crate) fn solve_ratio(
    g: &DiGraph,
    a: u64,
    b: u64,
    floor_beta: Frac,
    core_pruning: bool,
    tighten: bool,
    seeds: &[&Pair],
    res: &mut RatioResources<'_>,
) -> RatioOutcome {
    debug_assert!(a >= 1 && b >= 1 && a <= g.n() as u64 && b <= g.n() as u64);
    let mut decisions = Vec::new();
    if g.m() == 0 {
        return RatioOutcome {
            certified_upper: Frac::ZERO,
            maximizer: None,
            decisions,
        };
    }
    let seeded = seeds
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| beta_of_pair(g, p, a, b))
        .max()
        .filter(|beta| !beta.is_zero())
        .unwrap_or_else(|| beta_of_pair(g, &whole_graph(g), a, b));
    let mut guess = if !tighten && floor_beta > seeded {
        floor_beta
    } else {
        seeded
    };
    // Every guess but a floor-fast floor is the β-value of some pair.
    let mut achieved = guess == seeded;
    loop {
        let alive = if core_pruning {
            (res.core_of)(ceil_div(guess, 2 * a), ceil_div(guess, 2 * b))
        } else {
            StMask::full(g.n())
        };
        let (decision, stats) = decide_in(res.arena, g, &alive, a, b, guess);
        decisions.push(stats);
        match decision {
            Decision::Exceeds(pair) => {
                let beta = beta_of_pair(g, &pair, a, b);
                assert!(beta > guess, "found pair must beat the guess");
                guess = beta;
                achieved = true;
            }
            Decision::Certified { boundary } => {
                debug_assert!(
                    boundary.is_some() || !achieved,
                    "the pair attaining an achieved guess lies in the maximal cut"
                );
                debug_assert!(boundary
                    .as_ref()
                    .is_none_or(|p| beta_of_pair(g, p, a, b) == guess));
                return RatioOutcome {
                    certified_upper: guess,
                    maximizer: boundary,
                    decisions,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_graph::gen;
    use dds_num::candidate_ratios;
    use dds_xycore::xy_core_within;

    /// Test convenience: run a ratio search with throwaway resources.
    fn run(
        g: &DiGraph,
        a: u64,
        b: u64,
        floor_beta: Frac,
        core_pruning: bool,
        tighten: bool,
        seeds: &[&Pair],
    ) -> RatioOutcome {
        let mut arena = FlowArena::new();
        let mut core_of = |x: u64, y: u64| xy_core_within(g, &StMask::full(g.n()), x, y);
        let mut res = RatioResources {
            arena: &mut arena,
            core_of: &mut core_of,
        };
        solve_ratio(g, a, b, floor_beta, core_pruning, tighten, seeds, &mut res)
    }

    /// `Some(β*(c))` when the search proved the exact optimum.
    fn beta_star_exact(out: &RatioOutcome) -> Option<Frac> {
        out.maximizer.as_ref().map(|_| out.certified_upper)
    }

    /// Brute-force β*(c) over all non-empty pairs.
    fn brute_beta_star(g: &DiGraph, a: u64, b: u64) -> Frac {
        let n = g.n();
        let mut best = Frac::ZERO;
        for s_bits in 1u32..(1 << n) {
            for t_bits in 1u32..(1 << n) {
                let s: Vec<u32> = (0..n as u32).filter(|&v| s_bits >> v & 1 == 1).collect();
                let t: Vec<u32> = (0..n as u32).filter(|&v| t_bits >> v & 1 == 1).collect();
                let beta = beta_of_pair(g, &Pair::new(s, t), a, b);
                if beta > best {
                    best = beta;
                }
            }
        }
        best
    }

    fn check_all_ratios(g: &DiGraph, core_pruning: bool) {
        // Seeds exercise both Newton's climb (a single edge, far below
        // β*) and the one-cut close (the whole graph, often optimal).
        let (u, v) = g.edges().next().expect("fixtures have edges");
        let edge = Pair::new(vec![u], vec![v]);
        let whole = whole_graph(g);
        for r in candidate_ratios(g.n() as u64) {
            let (a, b) = (r.a(), r.b());
            let want = brute_beta_star(g, a, b);
            for tighten in [false, true] {
                for seeds in [&[][..], &[&edge], &[&edge, &whole]] {
                    let out = run(g, a, b, Frac::ZERO, core_pruning, tighten, seeds);
                    let ctx = format!(
                        "ratio {a}/{b} core={core_pruning} tighten={tighten} seeds={}",
                        seeds.len()
                    );
                    assert!(
                        out.certified_upper >= want,
                        "certificate must bound β*: {ctx}"
                    );
                    if tighten {
                        assert_eq!(beta_star_exact(&out), Some(want), "{ctx}");
                    }
                    // Floor-fast with a zero floor never guesses the floor,
                    // so it closes exactly too.
                    let pair = out.maximizer.as_ref().expect("maximiser returned");
                    assert_eq!(beta_of_pair(g, pair, a, b), want, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn matches_brute_force_on_fixtures() {
        for g in [
            gen::complete_bipartite(2, 3),
            gen::out_star(4),
            gen::cycle(5),
            gen::path(5),
        ] {
            check_all_ratios(&g, false);
            check_all_ratios(&g, true);
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::gnm(6, 14, seed);
            check_all_ratios(&g, false);
            check_all_ratios(&g, true);
        }
    }

    #[test]
    fn floor_prunes_hopeless_ratios() {
        let g = gen::complete_bipartite(2, 3);
        // β*(1/1) = 12/5; a floor above it must exit after one cut with
        // no maximiser.
        let out = run(&g, 1, 1, Frac::new(5, 2), false, false, &[]);
        assert!(out.maximizer.is_none());
        assert_eq!(out.decisions.len(), 1);
        assert!(out.certified_upper >= Frac::new(12, 5));
        // A floor just below it must still find the optimum.
        let floor = Frac::new(12, 5) - Frac::new(1, 1000);
        let out = run(&g, 1, 1, floor, false, false, &[]);
        assert_eq!(beta_star_exact(&out), Some(Frac::new(12, 5)));
        // Certify mode with a hopeless floor still produces the exact
        // certificate, far below the floor, so the engine's floor filter
        // reports no improvement.
        let out = run(&g, 1, 1, Frac::new(5, 2), false, true, &[]);
        assert_eq!(beta_star_exact(&out), Some(Frac::new(12, 5)));
        assert!(
            out.certified_upper < Frac::new(5, 2),
            "tight certificate expected"
        );
    }

    #[test]
    fn core_pruning_shrinks_networks() {
        // Planted dense block in sparse background: the pruned decisions
        // must touch far fewer alive edges once the floor is meaningful.
        let p = gen::planted(40, 60, 4, 4, 1.0, 3);
        let g = &p.graph;
        let floor = p.pair.density(g).beta_lower_bound(1, 1);
        let pruned = run(g, 1, 1, floor, true, false, &[]);
        let unpruned = run(g, 1, 1, floor, false, false, &[]);
        let max_alive_pruned = pruned
            .decisions
            .iter()
            .map(|d| d.alive_edges)
            .max()
            .unwrap_or(0);
        let max_alive_unpruned = unpruned
            .decisions
            .iter()
            .map(|d| d.alive_edges)
            .max()
            .unwrap_or(0);
        assert!(
            max_alive_pruned < max_alive_unpruned,
            "core pruning should shrink the decision networks ({max_alive_pruned} vs {max_alive_unpruned})"
        );
        // And both agree on the answer.
        assert_eq!(beta_star_exact(&pruned), beta_star_exact(&unpruned));
    }

    #[test]
    fn seeded_optimum_closes_with_one_cut() {
        // The block attains β*(1/1) = 4; seeded with it, Newton's first
        // guess certifies, so the ratio costs a single min cut.
        let p = gen::planted(40, 60, 4, 4, 1.0, 3);
        let g = &p.graph;
        let out = run(g, 1, 1, Frac::ZERO, true, true, &[&p.pair]);
        assert_eq!(out.decisions.len(), 1);
        assert_eq!(beta_star_exact(&out), Some(Frac::from(4u64)));
    }

    #[test]
    fn edgeless_graph_terminates_immediately() {
        let g = DiGraph::empty(4);
        let out = run(&g, 1, 1, Frac::ZERO, true, true, &[]);
        assert!(out.maximizer.is_none());
        assert!(out.decisions.is_empty());
    }

    use dds_graph::DiGraph;
}
