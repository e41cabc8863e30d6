//! The per-guess decision procedure of the exact DDS search.
//!
//! For a ratio `c = a/b` define the *c-weighted density* of a pair `(S, T)`
//! as
//!
//! ```text
//! w_c(S, T) = 2·|E(S,T)| / (|S|/√c + √c·|T|)
//! ```
//!
//! By AM–GM `w_c(S,T) ≤ ρ(S,T)` always, with equality iff `|S|/|T| = c`
//! exactly; maximised over all pairs it equals `ρ_opt` at the optimum's own
//! ratio. The exact algorithms search the *β-image* of this value,
//! `β = w_c·√(ab)`, which is rational: `β*(S,T) = 2abE/(b|S| + a|T|)`.
//!
//! [`decide`] answers "does any pair have `w_c > β/√(ab)`?" by a single
//! min-cut on a project-selection network. Since
//! `w_c(S,T)·√(ab) > β ⟺ 2ab·|E(S,T)| > β·(b|S| + a|T|)`, the guess is
//! exceeded iff some pair has a positive objective
//! `f(S,T) = |E(S,T)| − p|S| − q|T|` with `p = β/(2a)`, `q = β/(2b)`
//! (both rational!). Scaled by `K = 2abQ` (β = P/Q) to integer capacities,
//! the network is
//!
//! ```text
//! s → u_S : d⁺(u)·K        u_S → v_T : K   (one per edge)
//! u_S → t : P·b            v_T → t   : P·a
//! ```
//!
//! A cut whose source side holds the nodes of `(S, T)` severs `s → u_S`
//! for `u ∉ S` (the out-degree `S` does not collect), `u_S → v_T` for the
//! edges from `S` that leave `T`, and the sink edges of `S` and `T`
//! (`pK·|S| + qK·|T|`, since `pK = P·b` and `qK = P·a`). Its capacity is
//! therefore `K·(m − f(S,T))`, so `min cut = K·(m − max f)` and the guess
//! is exceeded iff `min cut < K·m`. When the cut equals `K·m` *and* the
//! guess hits the optimum exactly, the empty pair and the optimal pair are
//! both maximisers; the **maximal** min-cut source side recovers the
//! non-trivial one ([`Decision::Certified`]'s `boundary`).

use dds_graph::{DiGraph, Pair, StMask, VertexId};
use dds_num::Frac;

use crate::FlowArena;

/// Outcome of one guess of the per-ratio search.
#[derive(Clone, Debug)]
pub enum Decision {
    /// Certified: **no** pair inside the alive mask has `β*(S,T) > β`.
    Certified {
        /// A pair achieving `β*(S,T) = β` exactly, if one exists (recovered
        /// from the maximal min cut; `None` when the guess is strictly
        /// above the optimum).
        boundary: Option<Pair>,
    },
    /// A pair with `β*(S,T) > β` (extracted from the minimal min cut).
    Exceeds(Pair),
}

/// Size of the flow network a decision built (experiment E3 instruments
/// these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Nodes including source and sink.
    pub nodes: usize,
    /// Directed edges (excluding residual twins).
    pub edges: usize,
    /// Edges of the graph that were alive for this decision.
    pub alive_edges: u64,
}

/// Runs the min-cut decision for ratio `a/b` and guess `β` on the subgraph
/// selected by `alive`.
///
/// Vertices outside the mask — and vertices that cannot possibly join a
/// maximiser (no alive out-edge on the S side / no alive in-edge on the T
/// side) — are never materialised, which is how core-based pruning shrinks
/// the network.
///
/// # Panics
/// Panics if `a == 0`, `b == 0`, `β ≤ 0`, or a capacity product overflows
/// `u128` (far beyond any graph this workspace targets).
pub fn decide(
    g: &DiGraph,
    alive: &StMask,
    a: u64,
    b: u64,
    beta: Frac,
) -> (Decision, DecisionStats) {
    decide_in(&mut FlowArena::new(), g, alive, a, b, beta)
}

/// [`decide`] with the flow network drawn from a caller-owned [`FlowArena`]:
/// identical answers, but the node/edge buffers are recycled between calls
/// instead of reallocated. This is the entry point the `SolveContext`-based
/// exact search uses; `decide` itself is the one-shot convenience wrapper.
///
/// # Panics
/// Same conditions as [`decide`].
pub fn decide_in(
    arena: &mut FlowArena,
    g: &DiGraph,
    alive: &StMask,
    a: u64,
    b: u64,
    beta: Frac,
) -> (Decision, DecisionStats) {
    assert!(a > 0 && b > 0, "ratio components must be positive");
    assert!(
        !beta.is_negative() && !beta.is_zero(),
        "decision guess must be strictly positive"
    );
    let n = g.n();
    debug_assert_eq!(alive.in_s.len(), n);

    // Collect S-side candidates (alive in S, ≥1 alive out-edge) and T-side
    // candidates (alive in T, ≥1 alive in-edge).
    let mut s_vertices: Vec<VertexId> = Vec::new();
    let mut s_alive_deg: Vec<u64> = Vec::new();
    let mut m_alive: u64 = 0;
    for u in 0..n {
        if !alive.in_s[u] {
            continue;
        }
        let d = g
            .out_neighbors(u as VertexId)
            .iter()
            .filter(|&&v| alive.in_t[v as usize])
            .count() as u64;
        if d > 0 {
            s_vertices.push(u as VertexId);
            s_alive_deg.push(d);
            m_alive += d;
        }
    }
    if m_alive == 0 {
        // No alive edges: every non-empty pair has f < 0.
        return (
            Decision::Certified { boundary: None },
            DecisionStats::default(),
        );
    }
    let mut t_index = vec![u32::MAX; n];
    let mut t_vertices: Vec<VertexId> = Vec::new();
    for &u in &s_vertices {
        for &v in g.out_neighbors(u) {
            if alive.in_t[v as usize] && t_index[v as usize] == u32::MAX {
                t_index[v as usize] = t_vertices.len() as u32;
                t_vertices.push(v);
            }
        }
    }

    // Integer capacity scale: K = 2abQ with β = P/Q.
    let p = u128::try_from(beta.num()).expect("β numerator positive");
    let q = u128::try_from(beta.den()).expect("β denominator positive");
    let k = 2u128
        .checked_mul(u128::from(a))
        .and_then(|x| x.checked_mul(u128::from(b)))
        .and_then(|x| x.checked_mul(q))
        .expect("capacity scale 2abQ overflowed u128");
    let cap_s_to_t_edge = k;
    let cap_us_to_sink = p.checked_mul(u128::from(b)).expect("P·b overflowed u128");
    let cap_vt_to_sink = p.checked_mul(u128::from(a)).expect("P·a overflowed u128");

    // Node layout: 0 = source, 1 = sink, then S nodes, then T nodes.
    let ns = s_vertices.len();
    let nt = t_vertices.len();
    let s_node = |i: usize| 2 + i;
    let t_node = |j: usize| 2 + ns + j;
    let net = arena.acquire(2 + ns + nt);
    for (i, (&u, &d)) in s_vertices.iter().zip(&s_alive_deg).enumerate() {
        net.add_edge(
            0,
            s_node(i),
            u128::from(d).checked_mul(k).expect("d·K overflow"),
        );
        net.add_edge(s_node(i), 1, cap_us_to_sink);
        for &v in g.out_neighbors(u) {
            if alive.in_t[v as usize] {
                net.add_edge(
                    s_node(i),
                    t_node(t_index[v as usize] as usize),
                    cap_s_to_t_edge,
                );
            }
        }
    }
    for j in 0..nt {
        net.add_edge(t_node(j), 1, cap_vt_to_sink);
    }

    let stats = DecisionStats {
        nodes: net.num_nodes(),
        edges: net.num_edges(),
        alive_edges: m_alive,
    };

    let budget = u128::from(m_alive)
        .checked_mul(k)
        .expect("K·m overflowed u128");
    let flow = net.max_flow(0, 1);
    debug_assert!(flow <= budget, "cut can never exceed the trivial {{s}} cut");

    let extract = |side: &[bool]| -> Pair {
        let s: Vec<VertexId> = s_vertices
            .iter()
            .enumerate()
            .filter(|(i, _)| side[s_node(*i)])
            .map(|(_, &u)| u)
            .collect();
        let t: Vec<VertexId> = t_vertices
            .iter()
            .enumerate()
            .filter(|(j, _)| side[t_node(*j)])
            .map(|(_, &v)| v)
            .collect();
        Pair::new(s, t)
    };

    if flow < budget {
        let side = net.min_cut_source_side(0);
        let pair = extract(&side);
        debug_assert!(
            !pair.is_empty(),
            "positive objective implies non-empty pair"
        );
        (Decision::Exceeds(pair), stats)
    } else {
        let side = net.max_cut_source_side(1);
        let pair = extract(&side);
        let boundary = if pair.is_empty() { None } else { Some(pair) };
        (Decision::Certified { boundary }, stats)
    }
}

/// Exact β-value `β*(S,T) = 2abE / (b|S| + a|T|)` of a pair under ratio
/// `a/b`; the quantity [`decide`] brackets.
///
/// # Panics
/// Panics if the pair is empty or products overflow `i128`.
#[must_use]
pub fn beta_of_pair(g: &DiGraph, pair: &Pair, a: u64, b: u64) -> Frac {
    assert!(!pair.is_empty(), "β* undefined for empty pairs");
    let e = pair.edges_between(g);
    let num = 2i128
        .checked_mul(i128::from(a))
        .and_then(|x| x.checked_mul(i128::from(b)))
        .and_then(|x| x.checked_mul(i128::from(e)))
        .expect("β* numerator overflow");
    let den = i128::from(b)
        .checked_mul(pair.s().len() as i128)
        .and_then(|x| {
            i128::from(a)
                .checked_mul(pair.t().len() as i128)
                .and_then(|y| x.checked_add(y))
        })
        .expect("β* denominator overflow");
    Frac::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_graph::gen;

    /// Brute-force maximum β* over all non-empty pairs within the mask.
    fn brute_max_beta(g: &DiGraph, alive: &StMask, a: u64, b: u64) -> Option<(Frac, Pair)> {
        let verts: Vec<VertexId> = (0..g.n() as VertexId).collect();
        let s_opts: Vec<VertexId> = verts
            .iter()
            .copied()
            .filter(|&v| alive.in_s[v as usize])
            .collect();
        let t_opts: Vec<VertexId> = verts
            .iter()
            .copied()
            .filter(|&v| alive.in_t[v as usize])
            .collect();
        let mut best: Option<(Frac, Pair)> = None;
        for s_bits in 1u32..(1 << s_opts.len()) {
            let s: Vec<VertexId> = s_opts
                .iter()
                .enumerate()
                .filter(|(i, _)| s_bits >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            for t_bits in 1u32..(1 << t_opts.len()) {
                let t: Vec<VertexId> = t_opts
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| t_bits >> j & 1 == 1)
                    .map(|(_, &v)| v)
                    .collect();
                let pair = Pair::new(s.clone(), t);
                let beta = beta_of_pair(g, &pair, a, b);
                if best.as_ref().is_none_or(|(b0, _)| beta > *b0) {
                    best = Some((beta, pair));
                }
            }
        }
        best
    }

    fn check_against_brute(g: &DiGraph, a: u64, b: u64) {
        let alive = StMask::full(g.n());
        let (best_beta, _) = brute_max_beta(g, &alive, a, b).unwrap();
        if best_beta.is_zero() {
            return; // no positive guesses to test
        }

        // Guess strictly below the optimum ⇒ Exceeds, and the recovered
        // pair must beat the guess.
        let below = best_beta * Frac::new(9, 10);
        let (dec, stats) = decide(g, &alive, a, b, below);
        match dec {
            Decision::Exceeds(pair) => {
                assert!(beta_of_pair(g, &pair, a, b) > below);
            }
            other => panic!("expected Exceeds below the optimum, got {other:?}"),
        }
        assert!(stats.nodes >= 3);

        // Guess exactly at the optimum ⇒ Certified with a boundary pair of
        // exactly that value.
        let (dec, _) = decide(g, &alive, a, b, best_beta);
        match dec {
            Decision::Certified {
                boundary: Some(pair),
            } => {
                assert_eq!(beta_of_pair(g, &pair, a, b), best_beta);
            }
            other => panic!("expected boundary recovery at the optimum, got {other:?}"),
        }

        // Guess strictly above ⇒ Certified with no boundary.
        let above = best_beta * Frac::new(11, 10);
        let (dec, _) = decide(g, &alive, a, b, above);
        assert!(
            matches!(dec, Decision::Certified { boundary: None }),
            "expected clean certificate above the optimum"
        );
    }

    #[test]
    fn matches_brute_force_on_fixtures() {
        for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 3), (5, 1)] {
            check_against_brute(&gen::complete_bipartite(2, 3), a, b);
            check_against_brute(&gen::out_star(4), a, b);
            check_against_brute(&gen::cycle(5), a, b);
            check_against_brute(&gen::path(5), a, b);
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..8 {
            let g = gen::gnm(8, 20, seed);
            for (a, b) in [(1, 1), (1, 3), (3, 2)] {
                check_against_brute(&g, a, b);
            }
        }
    }

    #[test]
    fn respects_alive_mask() {
        // K_{2,3}: masking out the strongest T vertices must lower the
        // certified optimum.
        let g = gen::complete_bipartite(2, 3);
        let mut alive = StMask::full(g.n());
        alive.in_t[2] = false;
        alive.in_t[3] = false; // only T = {4} remains
        let (best_beta, best_pair) = brute_max_beta(&g, &alive, 1, 1).unwrap();
        assert_eq!(best_pair.t(), &[4]);
        let (dec, _) = decide(&g, &alive, 1, 1, best_beta);
        match dec {
            Decision::Certified {
                boundary: Some(pair),
            } => {
                assert!(pair.t().iter().all(|&v| v == 4));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_alive_graph_certifies_immediately() {
        let g = gen::path(3);
        let alive = StMask::empty(g.n());
        let (dec, stats) = decide(&g, &alive, 1, 1, Frac::ONE);
        assert!(matches!(dec, Decision::Certified { boundary: None }));
        assert_eq!(stats, DecisionStats::default());
    }

    #[test]
    fn network_size_reflects_pruning() {
        let g = gen::complete_bipartite(3, 3);
        let full = StMask::full(g.n());
        let (_, full_stats) = decide(&g, &full, 1, 1, Frac::new(1, 2));
        let mut half = StMask::full(g.n());
        half.in_s[0] = false;
        let (_, half_stats) = decide(&g, &half, 1, 1, Frac::new(1, 2));
        assert!(half_stats.nodes < full_stats.nodes);
        assert!(half_stats.edges < full_stats.edges);
        assert!(half_stats.alive_edges < full_stats.alive_edges);
    }

    #[test]
    fn beta_of_pair_closed_form() {
        // K_{2,3}, pair = everything: β* = 2·a·b·6/(b·2 + a·3).
        let g = gen::complete_bipartite(2, 3);
        let pair = Pair::new(vec![0, 1], vec![2, 3, 4]);
        assert_eq!(beta_of_pair(&g, &pair, 1, 1), Frac::new(12, 5));
        assert_eq!(beta_of_pair(&g, &pair, 2, 3), Frac::new(72, 12));
    }

    #[test]
    fn arena_reuse_matches_one_shot_decisions() {
        // Replay a sequence of decisions through one arena and compare each
        // outcome with a fresh-allocation decide.
        let g = gen::gnm(9, 24, 5);
        let alive = StMask::full(g.n());
        let mut arena = FlowArena::new();
        let guesses = [
            (1u64, 1u64, Frac::new(1, 2)),
            (1, 1, Frac::new(5, 2)),
            (2, 3, Frac::new(7, 3)),
            (3, 1, Frac::new(1, 4)),
            (1, 1, Frac::new(5, 2)), // repeat: recycled buffers, same answer
        ];
        for (i, &(a, b, beta)) in guesses.iter().enumerate() {
            let (fresh, fresh_stats) = decide(&g, &alive, a, b, beta);
            let (reused, reused_stats) = decide_in(&mut arena, &g, &alive, a, b, beta);
            assert_eq!(fresh_stats, reused_stats, "guess #{i}");
            match (fresh, reused) {
                (Decision::Exceeds(p1), Decision::Exceeds(p2)) => {
                    // Both must beat the guess; the pair itself is unique
                    // here because the minimal min cut is unique.
                    assert!(beta_of_pair(&g, &p1, a, b) > beta);
                    assert_eq!(p1, p2, "guess #{i}");
                }
                (Decision::Certified { boundary: b1 }, Decision::Certified { boundary: b2 }) => {
                    assert_eq!(b1, b2, "guess #{i}");
                }
                (f, r) => panic!("guess #{i}: fresh {f:?} vs reused {r:?}"),
            }
        }
        assert_eq!(arena.acquires(), guesses.len());
        assert_eq!(arena.reuse_hits(), guesses.len() - 1);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_guess_rejected() {
        let g = gen::path(3);
        let _ = decide(&g, &StMask::full(3), 1, 1, Frac::ZERO);
    }
}
