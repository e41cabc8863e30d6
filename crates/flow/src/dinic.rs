//! Dinic's maximum-flow algorithm over `u128` capacities.
//!
//! The exact DDS search scales its rational capacities to integers; with
//! ratios up to `n` and guess denominators up to `n(a+b)` the products need
//! far more than 64 bits, so the arithmetic is `u128` throughout (checked:
//! overflow panics loudly instead of corrupting a decision).
//!
//! Besides the flow value, the DDS search needs **both** canonical min
//! cuts:
//!
//! * the *minimal* source side (BFS from `s` in the residual graph) — the
//!   smallest maximizer of the cut objective;
//! * the *maximal* source side (complement of the set that reaches `t` in
//!   the residual graph) — required to recover an optimal pair when the
//!   guess hits the optimum exactly and the minimal cut degenerates to
//!   `{s}`.

/// Identifier of an edge added to a [`FlowNetwork`]; stable across the
/// flow computation.
pub type EdgeId = usize;

/// A mutable flow network. Create, [`add_edge`](FlowNetwork::add_edge),
/// then call [`max_flow`](FlowNetwork::max_flow) once; afterwards the cut
/// accessors are valid.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    /// Active node count (`0..n`); `adj` may hold more (recycled) slots.
    n: usize,
    /// `to[e]` — head of edge `e`; edges `e` and `e ^ 1` are a
    /// forward/backward pair.
    to: Vec<u32>,
    /// Residual capacities (mutated by the flow computation).
    cap: Vec<u128>,
    /// Initial capacities (kept to report per-edge flow).
    initial_cap: Vec<u128>,
    /// `adj[v]` — indices of edges leaving `v` (forward or residual).
    adj: Vec<Vec<u32>>,
    /// Scratch: BFS levels.
    level: Vec<u32>,
    /// Scratch: per-node DFS cursor.
    iter: Vec<usize>,
}

/// Summary of a computed minimum cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinCut {
    /// The max-flow value (= cut capacity).
    pub value: u128,
    /// `source_side[v]` — is node `v` on the source side of the cut?
    pub source_side: Vec<bool>,
}

const UNVISITED: u32 = u32::MAX;

impl FlowNetwork {
    /// An empty network on `n` nodes (`0..n`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            n,
            to: Vec::new(),
            cap: Vec::new(),
            initial_cap: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![UNVISITED; n],
            iter: vec![0; n],
        }
    }

    /// Resets to an empty network on `n` nodes **without deallocating**:
    /// edge arrays, per-node adjacency lists, and scratch buffers keep
    /// their capacity. This is what makes a [`FlowArena`]-backed decision
    /// loop allocation-free after the first call.
    ///
    /// [`FlowArena`]: crate::FlowArena
    pub fn reset_for(&mut self, n: usize) {
        self.to.clear();
        self.cap.clear();
        self.initial_cap.clear();
        // Clear every previously used list (entries beyond the new `n`
        // may be recycled by a later, larger reset).
        for list in &mut self.adj {
            list.clear();
        }
        if self.adj.len() < n {
            self.adj.resize_with(n, Vec::new);
        }
        self.level.clear();
        self.level.resize(n, UNVISITED);
        self.iter.clear();
        self.iter.resize(n, 0);
        self.n = n;
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges added (excluding the implicit residual
    /// twins).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.to.len() / 2
    }

    /// Adds a directed edge `u → v` with the given capacity and returns its
    /// id.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: u128) -> EdgeId {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        let id = self.to.len();
        self.to.push(v as u32);
        self.cap.push(cap);
        self.initial_cap.push(cap);
        self.adj[u].push(id as u32);
        self.to.push(u as u32);
        self.cap.push(0);
        self.initial_cap.push(0);
        self.adj[v].push(id as u32 + 1);
        id
    }

    /// Flow currently routed through edge `id` (valid after
    /// [`max_flow`](FlowNetwork::max_flow)).
    #[must_use]
    pub fn edge_flow(&self, id: EdgeId) -> u128 {
        self.initial_cap[id] - self.cap[id]
    }

    /// Computes the maximum `s → t` flow (Dinic: repeated BFS level graphs
    /// plus blocking flows). `O(V²E)` worst case, far faster on the
    /// unit-ish networks the DDS search builds. The blocking-flow phase is
    /// iterative (explicit path stack), so arbitrarily long augmenting
    /// paths cannot overflow the call stack.
    ///
    /// # Panics
    /// Panics if `s == t`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u128 {
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0u128;
        while self.bfs_levels(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            flow = flow
                .checked_add(self.blocking_flow(s, t))
                .expect("flow value overflowed u128");
        }
        flow
    }

    fn bfs_levels(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = UNVISITED);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s as u32);
        while let Some(u) = queue.pop_front() {
            for &e in &self.adj[u as usize] {
                let v = self.to[e as usize];
                if self.cap[e as usize] > 0 && self.level[v as usize] == UNVISITED {
                    self.level[v as usize] = self.level[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        self.level[t] != UNVISITED
    }

    /// One blocking flow in the current level graph: repeated
    /// advance/retreat along an explicit edge-path stack.
    fn blocking_flow(&mut self, s: usize, t: usize) -> u128 {
        let mut total = 0u128;
        let mut path: Vec<usize> = Vec::new();
        loop {
            let u = path.last().map_or(s, |&e| self.to[e] as usize);
            if u == t {
                // Augment by the bottleneck, then retreat to just before
                // the first saturated edge.
                let bottleneck = path
                    .iter()
                    .map(|&e| self.cap[e])
                    .min()
                    .expect("non-empty path");
                total += bottleneck;
                for &e in &path {
                    self.cap[e] -= bottleneck;
                    self.cap[e ^ 1] += bottleneck;
                }
                let cut = path
                    .iter()
                    .position(|&e| self.cap[e] == 0)
                    .expect("some edge saturates at the bottleneck");
                path.truncate(cut);
                continue;
            }
            // Advance along the next admissible edge, if any.
            let mut advanced = false;
            while self.iter[u] < self.adj[u].len() {
                let e = self.adj[u][self.iter[u]] as usize;
                let v = self.to[e] as usize;
                if self.cap[e] > 0 && self.level[v] == self.level[u] + 1 {
                    path.push(e);
                    advanced = true;
                    break;
                }
                self.iter[u] += 1;
            }
            if advanced {
                continue;
            }
            if u == s {
                return total;
            }
            // Dead end: remove u from the level graph and step back.
            self.level[u] = UNVISITED;
            let e = path.pop().expect("non-source dead end has a path edge");
            let tail = self.to[e ^ 1] as usize;
            self.iter[tail] += 1;
        }
    }

    /// The **minimal** min-cut source side: nodes reachable from `s` in the
    /// residual graph. Call after [`max_flow`](FlowNetwork::max_flow).
    #[must_use]
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for &e in &self.adj[u] {
                let v = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// The **maximal** min-cut source side: the complement of the nodes
    /// that can reach `t` in the residual graph. Call after
    /// [`max_flow`](FlowNetwork::max_flow).
    #[must_use]
    pub fn max_cut_source_side(&self, t: usize) -> Vec<bool> {
        // v reaches t iff some residual edge v → w leads to a reaching w.
        // Walk backwards from t: the residual edge v → w corresponds to the
        // stored pair (e at w points to v, with cap[e ^ 1] > 0).
        let mut reaches_t = vec![false; self.n];
        let mut stack = vec![t];
        reaches_t[t] = true;
        while let Some(w) = stack.pop() {
            for &e in &self.adj[w] {
                let v = self.to[e as usize] as usize;
                if self.cap[(e ^ 1) as usize] > 0 && !reaches_t[v] {
                    reaches_t[v] = true;
                    stack.push(v);
                }
            }
        }
        reaches_t.iter().map(|&r| !r).collect()
    }

    /// Convenience: max flow plus the minimal source side.
    pub fn min_cut(&mut self, s: usize, t: usize) -> MinCut {
        let value = self.max_flow(s, t);
        MinCut {
            value,
            source_side: self.min_cut_source_side(s),
        }
    }

    /// Capacity of the cut induced by `source_side` (for verification:
    /// equals the max flow iff the side is a min cut).
    #[must_use]
    pub fn cut_capacity(&self, source_side: &[bool]) -> u128 {
        let mut total = 0u128;
        for u in 0..self.n {
            if !source_side[u] {
                continue;
            }
            for &e in &self.adj[u] {
                let e = e as usize;
                // Only original forward edges (even index) carry capacity
                // out of the cut.
                if e.is_multiple_of(2) && !source_side[self.to[e] as usize] {
                    total += self.initial_cap[e];
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic CLRS example network (max flow 23).
    fn clrs() -> FlowNetwork {
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16);
        net.add_edge(0, 2, 13);
        net.add_edge(1, 2, 10);
        net.add_edge(2, 1, 4);
        net.add_edge(1, 3, 12);
        net.add_edge(3, 2, 9);
        net.add_edge(2, 4, 14);
        net.add_edge(4, 3, 7);
        net.add_edge(3, 5, 20);
        net.add_edge(4, 5, 4);
        net
    }

    #[test]
    fn clrs_max_flow() {
        let mut net = clrs();
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn min_cut_value_matches_flow() {
        let mut net = clrs();
        let cut = net.min_cut(0, 5);
        assert_eq!(cut.value, 23);
        assert_eq!(net.cut_capacity(&cut.source_side), 23);
        assert!(cut.source_side[0]);
        assert!(!cut.source_side[5]);
    }

    #[test]
    fn maximal_cut_is_a_min_cut_and_contains_minimal() {
        let mut net = clrs();
        let flow = net.max_flow(0, 5);
        let min_side = net.min_cut_source_side(0);
        let max_side = net.max_cut_source_side(5);
        assert_eq!(net.cut_capacity(&max_side), flow);
        for v in 0..6 {
            assert!(!min_side[v] || max_side[v], "minimal ⊆ maximal at node {v}");
        }
    }

    #[test]
    fn disconnected_sink_gives_zero_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 5);
        net.add_edge(2, 3, 5);
        assert_eq!(net.max_flow(0, 3), 0);
        let side = net.min_cut_source_side(0);
        assert_eq!(side, vec![true, true, false, false]);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 1, 4);
        assert_eq!(net.max_flow(0, 1), 7);
    }

    #[test]
    fn capacities_beyond_u64() {
        let big = u128::from(u64::MAX) * 8;
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, big);
        net.add_edge(1, 2, big / 2);
        assert_eq!(net.max_flow(0, 2), big / 2);
    }

    #[test]
    fn edge_flow_reporting() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_edge(0, 1, 10);
        let b = net.add_edge(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
        assert_eq!(net.edge_flow(a), 4);
        assert_eq!(net.edge_flow(b), 4);
    }

    #[test]
    fn zero_capacity_edges_are_inert() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 0);
        net.add_edge(1, 2, 9);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn boundary_recovery_shape() {
        // Two disjoint augmenting paths; at saturation, both the minimal
        // and maximal cuts are valid min cuts.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(2, 3, 1);
        let flow = net.max_flow(0, 3);
        assert_eq!(flow, 2);
        let min_side = net.min_cut_source_side(0);
        let max_side = net.max_cut_source_side(3);
        assert_eq!(net.cut_capacity(&min_side), 2);
        assert_eq!(net.cut_capacity(&max_side), 2);
    }

    #[test]
    fn reset_for_recycles_buffers_and_matches_fresh() {
        // Run CLRS, reset to a smaller network, then to a bigger one: every
        // answer must match a freshly allocated network.
        let mut net = clrs();
        assert_eq!(net.max_flow(0, 5), 23);

        net.reset_for(3);
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.num_edges(), 0);
        net.add_edge(0, 1, 10);
        net.add_edge(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
        assert_eq!(net.min_cut_source_side(0), vec![true, true, false]);

        net.reset_for(6);
        let mut fresh = clrs();
        // Rebuild CLRS into the recycled buffers.
        for (u, v, c) in [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ] {
            net.add_edge(u, v, c);
        }
        assert_eq!(net.max_flow(0, 5), fresh.max_flow(0, 5));
        assert_eq!(net.min_cut_source_side(0), fresh.min_cut_source_side(0));
        assert_eq!(net.max_cut_source_side(5), fresh.max_cut_source_side(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reset_shrinks_the_valid_node_range() {
        let mut net = FlowNetwork::new(6);
        net.reset_for(2);
        let _ = net.add_edge(0, 4, 1); // 4 was valid before the reset
    }

    #[test]
    #[should_panic(expected = "source and sink must differ")]
    fn same_source_sink_rejected() {
        let mut net = FlowNetwork::new(2);
        let _ = net.max_flow(1, 1);
    }

    #[test]
    fn very_long_path_does_not_overflow_the_stack() {
        // A 200k-node chain: the recursive formulation would blow the call
        // stack here; the iterative blocking flow must handle it.
        let n = 200_000;
        let mut net = FlowNetwork::new(n);
        for v in 0..n - 1 {
            net.add_edge(v, v + 1, 3);
        }
        assert_eq!(net.max_flow(0, n - 1), 3);
        let side = net.min_cut_source_side(0);
        assert!(side[0]);
        assert!(!side[n - 1]);
    }

    #[test]
    fn multiple_augmenting_paths_within_one_level_graph() {
        // Diamond with shared middle: blocking flow must find both paths
        // without a new BFS.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 5);
        net.add_edge(0, 2, 5);
        net.add_edge(1, 3, 5);
        net.add_edge(2, 3, 5);
        net.add_edge(3, 4, 7);
        net.add_edge(4, 5, 7);
        assert_eq!(net.max_flow(0, 5), 7);
    }
}
