//! Exact per-ratio search in β-space.
//!
//! For a fixed ratio `c = a/b` the search brackets
//! `β*(c) = max over pairs of 2abE/(b|S| + a|T|)` — the β-image of the
//! c-weighted density (see `dds-flow::decision`) — between an *achieved*
//! lower bound `l` and a *certified* upper bound `u`:
//!
//! * every guess is the **simplest rational strictly inside `(l, u)`**,
//!   which keeps flow capacities small and doubles as the termination
//!   certificate: candidate values have denominator ≤ `n(a+b)` (they are
//!   `2abE/D` with `D = b|S| + a|T| ≤ n(a+b)`), so once the simplest
//!   fraction in the interval is more complex than that, the interval is
//!   empty of candidates and `l` is the optimum;
//! * a cut that **finds** a pair jumps `l` to the pair's *exact* β-value
//!   (not the guess), so `l` only ever sits on achievable values;
//! * a cut that **certifies** lowers `u` to the guess; if the guess hit
//!   `β*` exactly, the maximal min cut recovers an optimal pair on the
//!   spot (`boundary`), closing the interval.
//!
//! Termination: certifications walk the Stern–Brocot tree toward `l`, so
//! the guess denominator grows at least Fibonacci-fast — `O(log max_den)`
//! consecutive certifications suffice — and improvements move `l` through
//! the finite candidate set monotonically.
//!
//! With `core_pruning`, each decision runs on the
//! `[⌈β/2a⌉, ⌈β/2b⌉]`-core: every maximiser of the cut objective at guess
//! `β` has `d⁺ ≥ β/(2a)` on the S side and `d⁻ ≥ β/(2b)` on the T side
//! within the pair (dropping a vertex below the threshold would increase
//! the objective), so restricting to the core preserves the decision and
//! every extractable optimum while shrinking the network.

use dds_flow::{beta_of_pair, decide_in, Decision, DecisionStats, FlowArena};
use dds_graph::{DiGraph, Pair, StMask};
use dds_num::{simplest_between, Frac};

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
    /// Best pair with `β* > floor`, and its exact β-value (`None` when the
    /// ratio cannot beat the floor).
    pub best: Option<(Pair, Frac)>,
    /// Certified inclusive upper bound on `β*(c)` over **all** pairs; used
    /// by the divide-and-conquer driver to prune neighbouring ratio
    /// intervals via the γ transfer bound. In certify mode this is `β*(c)`
    /// itself whenever the search can prove it (see `beta_star_exact`),
    /// which is what lets the driver discard intervals that merely *tie*
    /// the incumbent.
    pub certified_upper: Frac,
    /// `Some(β*(c))` when the search proved the exact optimum: either the
    /// bracket closed (`l == u`), or certify mode ended with an achieved
    /// lower bound `l`, a strictly-certified upper bound, and a
    /// candidate-free open interval between them — which pins `β* = l`.
    pub beta_star_exact: Option<Frac>,
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

/// Searches ratio `a/b` exactly. `floor_beta` filters: only pairs with
/// `β* > floor_beta` are reported in `best` (the caller passes the β-image
/// of the best density found so far).
///
/// `tighten` picks the search regime:
///
/// * `false` — **floor-fast**: the lower search bound starts at the floor,
///   so ratios that cannot beat the incumbent exit after a handful of
///   certifications. The certified upper bound then sits just above the
///   floor — useless for γ transfer. Right when no caller consumes
///   certificates (the all-ratios baseline, or DC with γ-pruning off).
/// * `true` — **certify**: the search brackets the true `β*(c)` from both
///   sides (lower bound starts at 0; the floor is tried as the *first
///   guess*, which restores most of the fast-exit behaviour), leaving
///   `certified_upper` within one candidate gap of `β*(c)`. That tight
///   bound is what lets the divide-and-conquer driver discard whole ratio
///   intervals.
#[allow(clippy::too_many_arguments)] // search knobs + borrowed resources
pub(crate) fn solve_ratio(
    g: &DiGraph,
    a: u64,
    b: u64,
    floor_beta: Frac,
    core_pruning: bool,
    tighten: bool,
    seed_pair: Option<&Pair>,
    res: &mut RatioResources<'_>,
) -> RatioOutcome {
    let n = g.n() as u64;
    let m = g.m() as u64;
    debug_assert!(a >= 1 && b >= 1 && a <= n && b <= n);

    // Inclusive upper bound before any flow: D = b|S| + a|T| ≥ a + b, so
    // β* ≤ 2abm/(a+b).
    let u0 = Frac::new(
        2i128 * i128::from(a) * i128::from(b) * i128::from(m),
        i128::from(a + b),
    );
    let max_den = i128::from(n) * i128::from(a + b);

    let floor = if floor_beta.is_negative() {
        Frac::ZERO
    } else {
        floor_beta
    };
    // Certify mode brackets β*(c) from 0; jump-starting the achieved lower
    // bound at a known pair's exact β-value (typically the incumbent best
    // pair, whose weighted-density bump dominates near its own ratio)
    // removes the log-many "climb from zero" flows per ratio.
    let seed = seed_pair
        .filter(|p| !p.is_empty())
        .map(|p| beta_of_pair(g, p, a, b))
        .unwrap_or(Frac::ZERO);
    let mut l = if tighten { seed } else { floor.max(seed) };
    let mut u = u0;
    // In certify mode, probing the floor first either jumps `l` past it or
    // slams `u` onto it — one flow either way.
    let mut first_guess = if tighten && l < floor && floor < u0 {
        Some(floor)
    } else {
        None
    };
    let mut best: Option<(Pair, Frac)> = None;
    let mut decisions = Vec::new();
    let full = StMask::full(g.n());
    // Consecutive guesses usually round to the same integer thresholds, so
    // keep the last core locally; threshold changes go through the caller's
    // provider (the `SolveContext` memo, shared across ratios and solves).
    let mut core_cache: Option<((u64, u64), StMask)> = None;
    // True once a `Certified { boundary: None }` decision set `u`: the final
    // upper bound is then *strictly* above β*, which (combined with an
    // achieved `l` and a candidate-free gap) pins β* = l exactly.
    let mut u_certified_strict = false;
    // Whether `l` is a sound lower bound on β*: certify mode starts at 0 or
    // an achieved pair value; floor-fast mode starts at the (possibly
    // unachievable) floor and becomes sound only once a pair sets it.
    let mut l_achieved = tighten;

    let mut iterations = 0usize;
    while l < u {
        iterations += 1;
        assert!(
            iterations < 200_000,
            "per-ratio search failed to converge (bug)"
        );
        let guess = match first_guess.take() {
            Some(f) if l < f && f < u => f,
            _ => {
                let simplest = simplest_between(l, u);
                if simplest.den() > max_den {
                    // No candidate β-value remains strictly inside (l, u).
                    break;
                }
                // In certify mode, guess inside the middle third of (l, u):
                // every outcome then shrinks the interval by ≥ 1/3 (Exceeds
                // raises l past the guess, Certified drops u onto it),
                // giving geometric convergence; plain simplest-in-interval
                // can shave slivers when the simplest fraction hugs an
                // endpoint. The interval-wide simplest is preferred when it
                // already lies in the middle third — its denominator (and
                // hence the scaled flow capacities) is minimal. In
                // floor-fast mode, hugging the floor is exactly the cheap
                // hopeless-exit behaviour, so the simplest guess stays.
                if !tighten {
                    simplest
                } else {
                    let third = (u - l) * Frac::new(1, 3);
                    let (lo3, hi3) = (l + third, u - third);
                    if lo3 < simplest && simplest < hi3 {
                        simplest
                    } else {
                        simplest_between(lo3, hi3)
                    }
                }
            }
        };
        let alive: &StMask = if core_pruning {
            let x = ceil_div(guess, 2 * a);
            let y = ceil_div(guess, 2 * b);
            let stale = !matches!(&core_cache, Some((key, _)) if *key == (x, y));
            if stale {
                core_cache = Some(((x, y), (res.core_of)(x, y)));
            }
            &core_cache.as_ref().expect("cache populated above").1
        } else {
            &full
        };
        let (decision, stats) = decide_in(res.arena, g, alive, a, b, guess);
        decisions.push(stats);
        match decision {
            Decision::Exceeds(pair) => {
                let beta = beta_of_pair(g, &pair, a, b);
                debug_assert!(beta > guess, "found pair must beat the guess");
                l = beta;
                l_achieved = true;
                if beta > floor {
                    best = Some((pair, beta));
                }
            }
            Decision::Certified { boundary } => {
                if let Some(pair) = boundary {
                    debug_assert_eq!(beta_of_pair(g, &pair, a, b), guess);
                    if guess > floor {
                        best = Some((pair, guess));
                    }
                    l = guess; // optimum reached exactly: l == u ends the loop
                    l_achieved = true;
                } else {
                    u_certified_strict = true; // β* < guess = new u
                }
                u = guess;
            }
        }
    }
    // Pin β*(c) exactly when the bracket allows it. Soundness:
    // * `l == u` — an achieved value meets a certified bound; β* = l.
    // * certify mode, loop broke with `l < u` — then (l, u) holds no
    //   candidate β-value, `l ≤ β* ≤ u` (certify-mode `l` is always 0 or an
    //   achieved pair value), and β* is itself a candidate, so β* ∈ {l, u};
    //   a strict final certification rules out `u`, leaving β* = l.
    let beta_star_exact = if l_achieved && (l == u || u_certified_strict) {
        Some(l)
    } else {
        None
    };
    RatioOutcome {
        best,
        certified_upper: beta_star_exact.unwrap_or(u),
        beta_star_exact,
        decisions,
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
        seed_pair: Option<&Pair>,
    ) -> RatioOutcome {
        let mut arena = FlowArena::new();
        let mut core_of = |x: u64, y: u64| xy_core_within(g, &StMask::full(g.n()), x, y);
        let mut res = RatioResources {
            arena: &mut arena,
            core_of: &mut core_of,
        };
        solve_ratio(
            g,
            a,
            b,
            floor_beta,
            core_pruning,
            tighten,
            seed_pair,
            &mut res,
        )
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
        for r in candidate_ratios(g.n() as u64) {
            let (a, b) = (r.a(), r.b());
            let want = brute_beta_star(g, a, b);
            for tighten in [false, true] {
                let out = run(g, a, b, Frac::ZERO, core_pruning, tighten, None);
                let got = out.best.as_ref().map_or(Frac::ZERO, |(_, beta)| *beta);
                assert_eq!(
                    got, want,
                    "ratio {a}/{b} core={core_pruning} tighten={tighten}"
                );
                assert!(out.certified_upper >= want, "certificate must bound β*");
                if let Some((pair, beta)) = &out.best {
                    assert_eq!(beta_of_pair(g, pair, a, b), *beta);
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
        // β*(1/1) = 12/5; a floor above it must return None quickly.
        let out = run(&g, 1, 1, Frac::new(5, 2), false, false, None);
        assert!(out.best.is_none());
        assert!(out.certified_upper >= Frac::new(12, 5));
        // A floor just below it must still find the optimum.
        let out = run(
            &g,
            1,
            1,
            Frac::new(12, 5) - Frac::new(1, 1000),
            false,
            false,
            None,
        );
        assert_eq!(out.best.unwrap().1, Frac::new(12, 5));
        // Certify mode with a hopeless floor still produces a *tight*
        // certificate: β*(1/1) = 12/5, so the bound must sit within one
        // candidate gap of it, far below the floor.
        let out = run(&g, 1, 1, Frac::new(5, 2), false, true, None);
        assert!(out.best.is_none(), "floor filter still applies");
        assert!(out.certified_upper >= Frac::new(12, 5));
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
        let pruned = run(g, 1, 1, floor, true, false, None);
        let unpruned = run(g, 1, 1, floor, false, false, None);
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
        assert_eq!(
            pruned.best.map(|(_, beta)| beta),
            unpruned.best.map(|(_, beta)| beta)
        );
    }

    #[test]
    fn edgeless_graph_terminates_immediately() {
        let g = DiGraph::empty(4);
        let out = run(&g, 1, 1, Frac::ZERO, true, true, None);
        assert!(out.best.is_none());
        assert!(out.decisions.is_empty());
    }

    use dds_graph::DiGraph;
}
