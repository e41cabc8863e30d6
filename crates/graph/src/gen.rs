//! Deterministic, seeded graph generators.
//!
//! These stand in for the real directed corpora the SIGMOD 2020 evaluation
//! used (SNAP/KONECT graphs). Three stochastic families
//! cover the behaviours that drive the algorithms' relative performance:
//!
//! * [`gnm`] — uniform random digraphs: flat degree distributions, the
//!   adversarial case where core-based pruning helps least;
//! * [`power_law`] — directed Chung–Lu graphs: heavy-tailed in/out degrees
//!   as observed in web/social corpora, the regime where `[x, y]`-cores are
//!   tiny and pruning dominates;
//! * [`planted`] — a background graph plus a dense `(S, T)` block with a
//!   known location, enabling recovery experiments (E9).
//!
//! Closed-form fixtures ([`complete_bipartite`], [`out_star`], [`cycle`],
//! [`path`]) have analytically known densest subgraphs and anchor the unit
//! tests.
//!
//! All generators take an explicit `seed` and use [`SmallRng`], so every
//! workload in the experiment harness is reproducible bit-for-bit.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{DiGraph, GraphBuilder, Pair, VertexId};

/// Uniform random simple digraph with exactly `m` distinct edges (no
/// self-loops), `G(n, m)` style.
///
/// # Panics
/// Panics if `m > n·(n−1)` (more edges than a simple digraph can hold).
#[must_use]
pub fn gnm(n: usize, m: usize, seed: u64) -> DiGraph {
    let max_edges = n.saturating_mul(n.saturating_sub(1));
    assert!(
        m <= max_edges,
        "G(n,m): requested {m} edges but max is {max_edges}"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_min_vertices(n);
    let mut seen: HashSet<(VertexId, VertexId)> = HashSet::with_capacity(m * 2);
    // Rejection sampling is fine up to ~50% fill; switch to dense
    // enumeration + shuffle beyond that to bound the expected work.
    if m * 2 <= max_edges {
        while seen.len() < m {
            let u = rng.gen_range(0..n) as VertexId;
            let v = rng.gen_range(0..n) as VertexId;
            if u != v && seen.insert((u, v)) {
                builder.add_edge(u, v);
            }
        }
    } else {
        let mut all: Vec<(VertexId, VertexId)> = Vec::with_capacity(max_edges);
        for u in 0..n as VertexId {
            for v in 0..n as VertexId {
                if u != v {
                    all.push((u, v));
                }
            }
        }
        // Partial Fisher–Yates: the first `m` positions become the sample.
        for i in 0..m {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
            builder.add_edge(all[i].0, all[i].1);
        }
    }
    builder.build()
}

/// Directed Chung–Lu power-law graph: vertex `i` gets out-weight and
/// in-weight proportional to `(i+1)^(−1/(α−1))` under independent random
/// rank permutations, and `m` distinct edges are sampled proportionally to
/// `w_out(u)·w_in(v)`.
///
/// `alpha` is the degree-distribution exponent (real corpora sit around
/// 2.1–2.5; smaller ⇒ heavier tail). The generator may return slightly
/// fewer than `m` edges on tiny graphs where rejection stalls; the attempt
/// budget is `50·m`.
///
/// # Panics
/// Panics if `n == 0` or `alpha <= 1`.
#[must_use]
pub fn power_law(n: usize, m: usize, alpha: f64, seed: u64) -> DiGraph {
    assert!(n > 0, "power_law requires n > 0");
    assert!(alpha > 1.0, "power_law requires alpha > 1");
    let mut rng = SmallRng::seed_from_u64(seed);
    let theta = 1.0 / (alpha - 1.0);

    // Independent permutations decouple hub-ness on the two sides, matching
    // the weak in/out-degree correlation of real corpora.
    let out_rank = random_permutation(n, &mut rng);
    let in_rank = random_permutation(n, &mut rng);

    let out_cdf = weight_cdf(theta, &out_rank);
    let in_cdf = weight_cdf(theta, &in_rank);

    let mut builder = GraphBuilder::with_min_vertices(n);
    let mut seen: HashSet<(VertexId, VertexId)> = HashSet::with_capacity(m * 2);
    let mut attempts = 0usize;
    let budget = m.saturating_mul(50).max(1024);
    while seen.len() < m && attempts < budget {
        attempts += 1;
        let u = sample_cdf(&out_cdf, &mut rng);
        let v = sample_cdf(&in_cdf, &mut rng);
        if u != v && seen.insert((u, v)) {
            builder.add_edge(u, v);
        }
    }
    builder.build()
}

fn random_permutation(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

fn weight_cdf(theta: f64, rank: &[usize]) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(rank.len());
    let mut acc = 0.0;
    for &r in rank {
        acc += ((r + 1) as f64).powf(-theta);
        cdf.push(acc);
    }
    cdf
}

fn sample_cdf(cdf: &[f64], rng: &mut SmallRng) -> VertexId {
    let total = *cdf.last().expect("non-empty cdf");
    let x = rng.gen_range(0.0..total);
    cdf.partition_point(|&c| c <= x) as VertexId
}

/// A graph with a planted dense block, and where it was planted.
#[derive(Clone, Debug)]
pub struct Planted {
    /// The full graph (background plus planted edges).
    pub graph: DiGraph,
    /// The planted `(S, T)` pair.
    pub pair: Pair,
}

/// Plants a dense `(S, T)` block into a uniform background.
///
/// The background is `G(n, background_m)`; `S` takes the first `s_size`
/// vertex ids after a random relabelling, `T` the next `t_size` (disjoint
/// from `S`), and every `S → T` edge is added independently with probability
/// `p_dense`. With `p_dense` near 1 the planted block's density
/// `≈ p·sqrt(s·t)` dominates any background subgraph, so exact solvers must
/// recover it (experiment E9).
///
/// # Panics
/// Panics if `s_size + t_size > n` or either side is empty.
#[must_use]
pub fn planted(
    n: usize,
    background_m: usize,
    s_size: usize,
    t_size: usize,
    p_dense: f64,
    seed: u64,
) -> Planted {
    assert!(
        s_size >= 1 && t_size >= 1,
        "planted block needs non-empty sides"
    );
    assert!(s_size + t_size <= n, "planted block must fit in the graph");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let ids = random_permutation(n, &mut rng);
    let s: Vec<VertexId> = ids[..s_size].iter().map(|&v| v as VertexId).collect();
    let t: Vec<VertexId> = ids[s_size..s_size + t_size]
        .iter()
        .map(|&v| v as VertexId)
        .collect();

    let background = gnm(n, background_m, seed);
    let mut builder = GraphBuilder::with_min_vertices(n);
    for (u, v) in background.edges() {
        builder.add_edge(u, v);
    }
    for &u in &s {
        for &v in &t {
            if rng.gen_bool(p_dense) {
                builder.add_edge(u, v);
            }
        }
    }
    Planted {
        graph: builder.build(),
        pair: Pair::new(s, t),
    }
}

/// Complete bipartite digraph: all edges from `S = {0..s}` to
/// `T = {s..s+t}`. Its DDS is `(S, T)` itself with density `sqrt(s·t)`.
#[must_use]
pub fn complete_bipartite(s: usize, t: usize) -> DiGraph {
    let mut b = GraphBuilder::with_min_vertices(s + t);
    for u in 0..s as VertexId {
        for v in 0..t as VertexId {
            b.add_edge(u, s as VertexId + v);
        }
    }
    b.build()
}

/// Out-star: centre `0` points at `k` leaves. DDS is `({0}, leaves)` with
/// density `sqrt(k)`.
#[must_use]
pub fn out_star(k: usize) -> DiGraph {
    let mut b = GraphBuilder::with_min_vertices(k + 1);
    for v in 1..=k as VertexId {
        b.add_edge(0, v);
    }
    b.build()
}

/// Directed cycle on `n ≥ 2` vertices. Density of `(V, V)` is `1`; that is
/// optimal.
#[must_use]
pub fn cycle(n: usize) -> DiGraph {
    assert!(n >= 2, "cycle needs at least 2 vertices");
    let mut b = GraphBuilder::with_min_vertices(n);
    for v in 0..n as VertexId {
        b.add_edge(v, ((v as usize + 1) % n) as VertexId);
    }
    b.build()
}

/// Directed path `0 → 1 → … → n−1`.
#[must_use]
pub fn path(n: usize) -> DiGraph {
    assert!(n >= 1, "path needs at least 1 vertex");
    let mut b = GraphBuilder::with_min_vertices(n);
    for v in 0..(n - 1) as VertexId {
        b.add_edge(v, v + 1);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_exact_edge_count_and_simplicity() {
        let g = gnm(50, 400, 7);
        assert_eq!(g.n(), 50);
        assert_eq!(g.m(), 400);
        for (u, v) in g.edges() {
            assert_ne!(u, v, "no self-loops");
        }
    }

    #[test]
    fn gnm_dense_path_uses_enumeration() {
        // 10·9 = 90 max edges; request 80 (> half) to hit the dense branch.
        let g = gnm(10, 80, 3);
        assert_eq!(g.m(), 80);
        for (u, v) in g.edges() {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn gnm_extremes() {
        assert_eq!(gnm(5, 0, 1).m(), 0);
        let full = gnm(5, 20, 1);
        assert_eq!(full.m(), 20, "complete digraph");
    }

    #[test]
    #[should_panic(expected = "max is")]
    fn gnm_rejects_impossible_m() {
        let _ = gnm(3, 7, 0);
    }

    #[test]
    fn gnm_is_deterministic_per_seed() {
        assert_eq!(gnm(40, 200, 42), gnm(40, 200, 42));
        assert_ne!(gnm(40, 200, 42), gnm(40, 200, 43));
    }

    #[test]
    fn power_law_shape() {
        let g = power_law(300, 1500, 2.2, 11);
        assert_eq!(g.n(), 300);
        assert!(
            g.m() >= 1400,
            "should reach close to target edges, got {}",
            g.m()
        );
        // Heavy tail: the max out-degree should far exceed the mean.
        let mean = g.m() as f64 / g.n() as f64;
        assert!(
            g.max_out_degree() as f64 > 3.0 * mean,
            "max out-degree {} vs mean {mean}",
            g.max_out_degree()
        );
    }

    #[test]
    fn power_law_is_deterministic_per_seed() {
        assert_eq!(power_law(100, 400, 2.5, 9), power_law(100, 400, 2.5, 9));
    }

    #[test]
    fn planted_block_present_and_dense() {
        let p = planted(100, 300, 6, 8, 1.0, 5);
        assert_eq!(p.pair.s().len(), 6);
        assert_eq!(p.pair.t().len(), 8);
        // p_dense = 1 ⇒ every S→T edge exists ⇒ density = √48.
        let d = p.pair.density(&p.graph);
        assert_eq!(d.edges, 48);
        // S and T are disjoint.
        let overlap = p.pair.s().iter().filter(|u| p.pair.t().contains(u)).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn fixtures_have_known_shape() {
        let kb = complete_bipartite(2, 3);
        assert_eq!((kb.n(), kb.m()), (5, 6));
        let star = out_star(4);
        assert_eq!((star.n(), star.m()), (5, 4));
        assert_eq!(star.out_degree(0), 4);
        let c = cycle(6);
        assert_eq!((c.n(), c.m()), (6, 6));
        assert!(c.has_edge(5, 0));
        let p = path(4);
        assert_eq!((p.n(), p.m()), (4, 3));
    }
}
