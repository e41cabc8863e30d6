//! Cascading peel for a fixed `[x, y]` threshold pair.

use dds_graph::{DiGraph, StMask, VertexId};

/// Computes the `[x, y]`-core of `g` (starting from all vertices on both
/// sides). See the crate docs for the definition.
///
/// Under the full mask the masked counts [`xy_core_within`] takes are
/// `g`'s own degrees, so the peel starts from the CSR's row lengths in
/// `O(n)` instead of recounting every edge. The cascade is still
/// `O(n + m)` at worst; when `x, y ≤ 1` it only removes vertex-sides of
/// degree 0, which touch no edge, so the whole core costs `O(n)` (the
/// `--core 1,1` a server recomputes every epoch).
#[must_use]
pub fn xy_core(g: &DiGraph, x: u64, y: u64) -> StMask {
    let n = g.n();
    let mask = StMask::full(n);
    let deg_out = (0..n).map(|u| g.out_degree(u as VertexId) as u64).collect();
    let deg_in = (0..n).map(|v| g.in_degree(v as VertexId) as u64).collect();
    peel(g, mask, deg_out, deg_in, x, y)
}

/// Computes the `[x, y]`-core of the subgraph selected by `base`.
///
/// Because cores nest (larger thresholds ⇒ smaller cores, and the core of a
/// sub-mask is contained in the core of the full graph), the exact search
/// calls this with its current working mask to tighten it as the density
/// lower bound grows.
///
/// Runs in `O(n + m)`: counting the degrees under `base` reads every edge
/// once, every vertex-side is removed at most once, and each removal
/// touches its incident edges once.
#[must_use]
pub fn xy_core_within(g: &DiGraph, base: &StMask, x: u64, y: u64) -> StMask {
    let n = g.n();
    debug_assert_eq!(base.in_s.len(), n);
    let mask = base.clone();

    // Current S→T out-degrees and S→T in-degrees under the mask.
    let mut deg_out = vec![0u64; n];
    let mut deg_in = vec![0u64; n];
    for u in (0..n).filter(|&u| mask.in_s[u]) {
        let row = g.out_neighbors(u as VertexId);
        deg_out[u] = row.iter().filter(|&&v| mask.in_t[v as usize]).count() as u64;
        for &v in row {
            if mask.in_t[v as usize] {
                deg_in[v as usize] += 1;
            }
        }
    }
    peel(g, mask, deg_out, deg_in, x, y)
}

/// The cascade shared by both entry points: removes every vertex-side of
/// `mask` whose degree (`deg_out` on the S side, `deg_in` on the T side,
/// both counted under `mask`) is below its threshold, until none is left.
#[allow(clippy::needless_range_loop)] // parallel-array indexing
fn peel(
    g: &DiGraph,
    mut mask: StMask,
    mut deg_out: Vec<u64>,
    mut deg_in: Vec<u64>,
    x: u64,
    y: u64,
) -> StMask {
    let n = g.n();

    // Worklist of violating (vertex, side) entries; side false = S-side.
    // A vertex-side enters it once: here if it starts below its
    // threshold, or in the cascade when its degree drops from the
    // threshold to one below it (`deg + 1 == x` cannot underflow at 0).
    let mut queue: Vec<(VertexId, bool)> = Vec::new();
    for v in 0..n {
        if mask.in_s[v] && deg_out[v] < x {
            queue.push((v as VertexId, false));
        }
        if mask.in_t[v] && deg_in[v] < y {
            queue.push((v as VertexId, true));
        }
    }

    while let Some((v, t_side)) = queue.pop() {
        let v_us = v as usize;
        if t_side {
            if !mask.in_t[v_us] || deg_in[v_us] >= y {
                continue; // stale entry
            }
            mask.in_t[v_us] = false;
            for &u in g.in_neighbors(v) {
                let u_us = u as usize;
                if mask.in_s[u_us] {
                    deg_out[u_us] -= 1;
                    if deg_out[u_us] + 1 == x {
                        queue.push((u, false));
                    }
                }
            }
        } else {
            if !mask.in_s[v_us] || deg_out[v_us] >= x {
                continue; // stale entry
            }
            mask.in_s[v_us] = false;
            for &w in g.out_neighbors(v) {
                let w_us = w as usize;
                if mask.in_t[w_us] {
                    deg_in[w_us] -= 1;
                    if deg_in[w_us] + 1 == y {
                        queue.push((w, true));
                    }
                }
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_graph::gen;

    /// Definition check: `mask` is a fixpoint of the `[x, y]` constraints.
    fn assert_is_fixpoint(g: &DiGraph, mask: &StMask, x: u64, y: u64) {
        for u in 0..g.n() {
            if mask.in_s[u] {
                let d = g
                    .out_neighbors(u as VertexId)
                    .iter()
                    .filter(|&&v| mask.in_t[v as usize])
                    .count() as u64;
                assert!(d >= x, "S vertex {u} has out-degree {d} < {x}");
            }
            if mask.in_t[u] {
                let d = g
                    .in_neighbors(u as VertexId)
                    .iter()
                    .filter(|&&w| mask.in_s[w as usize])
                    .count() as u64;
                assert!(d >= y, "T vertex {u} has in-degree {d} < {y}");
            }
        }
    }

    /// Maximality check by brute force: no larger fixpoint exists (checked
    /// by verifying the peel result contains every fixpoint pair found by
    /// exhaustive enumeration). Exponential — tiny graphs only.
    fn brute_core(g: &DiGraph, x: u64, y: u64) -> StMask {
        let n = g.n();
        let mut best = StMask::empty(n);
        let mut best_size = 0usize;
        for s_bits in 0u32..(1 << n) {
            for t_bits in 0u32..(1 << n) {
                let mask = StMask {
                    in_s: (0..n).map(|v| s_bits >> v & 1 == 1).collect(),
                    in_t: (0..n).map(|v| t_bits >> v & 1 == 1).collect(),
                };
                let ok = (0..n).all(|u| {
                    let s_ok = !mask.in_s[u] || {
                        g.out_neighbors(u as VertexId)
                            .iter()
                            .filter(|&&v| mask.in_t[v as usize])
                            .count() as u64
                            >= x
                    };
                    let t_ok = !mask.in_t[u] || {
                        g.in_neighbors(u as VertexId)
                            .iter()
                            .filter(|&&w| mask.in_s[w as usize])
                            .count() as u64
                            >= y
                    };
                    s_ok && t_ok
                });
                if ok {
                    let size = mask.s_count() + mask.t_count();
                    if size > best_size {
                        best_size = size;
                        best = mask;
                    }
                }
            }
        }
        best
    }

    #[test]
    fn complete_bipartite_core() {
        let g = gen::complete_bipartite(2, 3);
        // Every S vertex has 3 out-edges, every T vertex 2 in-edges.
        let core = xy_core(&g, 3, 2);
        assert_eq!(core.s_count(), 2);
        assert_eq!(core.t_count(), 3);
        assert_is_fixpoint(&g, &core, 3, 2);
        // Raising either threshold empties it.
        assert!(xy_core(&g, 4, 2).is_empty());
        assert!(xy_core(&g, 3, 3).is_empty());
    }

    #[test]
    fn cascade_removals() {
        // Path 0→1→2→3: [1,1]-core must be empty (the tail T vertex dies,
        // cascading everything).
        let g = gen::path(4);
        let core = xy_core(&g, 1, 1);
        // S = {0,1,2} survives only if T = {1,2,3} survives; it does:
        // every S vertex has an out-edge into T, every T vertex an in-edge
        // from S. The [1,1]-core is exactly that.
        assert_eq!(core.s_count(), 3);
        assert_eq!(core.t_count(), 3);
        assert_is_fixpoint(&g, &core, 1, 1);
        // [2,1] forces out-degree 2, which no vertex has ⇒ empty.
        assert!(xy_core(&g, 2, 1).is_empty());
    }

    #[test]
    fn zero_thresholds_keep_everything() {
        let g = gen::cycle(5);
        let core = xy_core(&g, 0, 0);
        assert_eq!(core.s_count(), 5);
        assert_eq!(core.t_count(), 5);
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        for seed in 0..6 {
            let g = gen::gnm(6, 14, seed);
            for x in 0..4u64 {
                for y in 0..4u64 {
                    let fast = xy_core(&g, x, y);
                    let brute = brute_core(&g, x, y);
                    assert_eq!(
                        (fast.s_count(), fast.t_count()),
                        (brute.s_count(), brute.t_count()),
                        "seed={seed} x={x} y={y}"
                    );
                    assert_eq!(fast, brute, "seed={seed} x={x} y={y}");
                }
            }
        }
    }

    #[test]
    fn cores_are_nested() {
        let g = gen::power_law(80, 500, 2.2, 3);
        let base = xy_core(&g, 1, 1);
        let tighter = xy_core(&g, 2, 2);
        for v in 0..g.n() {
            assert!(!tighter.in_s[v] || base.in_s[v], "S nesting at {v}");
            assert!(!tighter.in_t[v] || base.in_t[v], "T nesting at {v}");
        }
    }

    #[test]
    fn within_base_mask_restricts() {
        let g = gen::complete_bipartite(3, 3);
        let mut base = StMask::full(g.n());
        base.in_s[0] = false; // S candidates limited to {1, 2}
        let core = xy_core_within(&g, &base, 1, 2);
        assert!(!core.in_s[0]);
        assert_is_fixpoint(&g, &core, 1, 2);
        assert_eq!(core.s_count(), 2);
        assert_eq!(core.t_count(), 3);
        // Within an empty base nothing survives.
        let empty = xy_core_within(&g, &StMask::empty(g.n()), 0, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::empty(4);
        assert!(xy_core(&g, 1, 1).is_empty());
        let all = xy_core(&g, 0, 0);
        assert_eq!(all.s_count(), 4);
    }
}
