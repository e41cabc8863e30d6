//! The writer side: turning one sealed epoch into a published snapshot.
//!
//! [`Publisher`] lives with the ingestion loop. After every
//! `engine.apply(batch)` the loop hands it the epoch's facts (bracket,
//! witness, counters) plus a lazy `materialize` closure; the publisher
//! builds an [`EpochSnapshot`] and swaps it into the shared cell. The
//! graph is materialized **only** when a query type actually needs it:
//!
//! * `--core X,Y` recomputes the `[x, y]`-core every epoch (a core is a
//!   property of the current graph, not of the last solve). That costs
//!   one `O(n + m)` copy of the engine's sorted adjacency rows into a CSR
//!   plus the peel, which starts from the CSR's degrees: `O(n)` when
//!   `X, Y ≤ 1`, and up to `O(n + m)` when larger thresholds cascade;
//! * `--topk K` re-runs [`dds_core::top_k_dense_pairs`] only on epochs
//!   whose certificate was re-established by a solve — between solves the
//!   list cannot have been re-certified either, so the previous list is
//!   carried forward unchanged (it stays consistent with the served
//!   bracket, which is also witness-anchored between solves).
//!
//! With neither enabled, publishing is allocation-light: two witness
//! bitsets and an `Arc` swap.

use std::sync::Arc;
use std::time::Instant;

use dds_core::{top_k_dense_pairs, TopKSolver};
use dds_graph::{DiGraph, Pair};
use dds_xycore::xy_core;

use crate::server::ServeMetrics;
use crate::snapshot::{EpochSnapshot, SnapshotCell, TopKEntry};

/// What the publisher derives beyond the engine's own report.
#[derive(Clone, Copy, Debug, Default)]
pub struct PublishOptions {
    /// Maintain and serve the `[x, y]`-core.
    pub core: Option<(u64, u64)>,
    /// Maintain and serve the top-k dense-pair list (0 disables).
    pub top_k: usize,
}

/// One sealed epoch's facts, as reported by the ingesting engine.
#[derive(Clone, Copy, Debug)]
pub struct EpochFacts<'a> {
    /// 1-based epoch id (must advance on every publish).
    pub epoch: u64,
    /// Vertex-id space size.
    pub n: usize,
    /// Live edge count.
    pub m: u64,
    /// Reported density.
    pub density: f64,
    /// Certified lower bound.
    pub lower: f64,
    /// Certified upper bound.
    pub upper: f64,
    /// The certified witness pair, if any.
    pub witness: Option<&'a Pair>,
    /// Whether this epoch re-established its certificate with a solve
    /// (gates the top-k recompute).
    pub resolved: bool,
}

/// Builds and publishes snapshots; owned by the ingestion loop.
#[derive(Debug)]
pub struct Publisher {
    cell: Arc<SnapshotCell>,
    opts: PublishOptions,
    metrics: Arc<ServeMetrics>,
    last_top_k: Vec<TopKEntry>,
    top_k_fresh: bool,
}

impl Publisher {
    /// A publisher writing into `cell` with the given derived-query
    /// options.
    #[must_use]
    pub fn new(cell: Arc<SnapshotCell>, opts: PublishOptions, metrics: Arc<ServeMetrics>) -> Self {
        Publisher {
            cell,
            opts,
            metrics,
            last_top_k: Vec::new(),
            top_k_fresh: false,
        }
    }

    /// Seals one epoch: builds the snapshot and swaps it in.
    /// `materialize` is called at most once, and only when `--core` /
    /// `--topk` serving needs the graph this epoch.
    pub fn publish(&mut self, facts: EpochFacts<'_>, materialize: impl FnOnce() -> DiGraph) {
        let t0 = Instant::now();
        let needs_top_k = self.opts.top_k > 0 && (facts.resolved || !self.top_k_fresh);
        let mut graph: Option<DiGraph> = None;
        if self.opts.core.is_some() || needs_top_k {
            graph = Some(materialize());
        }
        let core = self.opts.core.map(|(x, y)| {
            let g = graph.as_ref().expect("graph materialized for core");
            EpochSnapshot::core_from_mask(x, y, &xy_core(g, x, y))
        });
        if needs_top_k {
            let g = graph.as_ref().expect("graph materialized for top-k");
            self.last_top_k = top_k_dense_pairs(g, self.opts.top_k, TopKSolver::CoreApprox)
                .iter()
                .map(|sol| TopKEntry {
                    density: sol.density.to_f64(),
                    s_size: sol.pair.s().len(),
                    t_size: sol.pair.t().len(),
                })
                .collect();
            self.top_k_fresh = true;
        }
        let (witness_s, witness_t) = EpochSnapshot::witness_sets(facts.n, facts.witness);
        self.cell.publish(EpochSnapshot {
            epoch: facts.epoch,
            n: facts.n,
            m: facts.m,
            density: facts.density,
            lower: facts.lower,
            upper: facts.upper,
            witness_s,
            witness_t,
            core,
            top_k: self.last_top_k.clone(),
        });
        self.metrics.publishes.inc();
        self.metrics.publish_latency.observe(t0.elapsed());
    }

    /// The shared cell this publisher writes into.
    #[must_use]
    pub fn cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_graph::DiGraph;

    fn tiny() -> DiGraph {
        // 0 -> {2, 3}, 1 -> {2, 3}: the densest pair is ({0,1}, {2,3}).
        DiGraph::from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap()
    }

    fn facts(epoch: u64, witness: Option<&Pair>, resolved: bool) -> EpochFacts<'_> {
        EpochFacts {
            epoch,
            n: 4,
            m: 4,
            density: 2.0,
            lower: 2.0,
            upper: 2.0,
            witness,
            resolved,
        }
    }

    #[test]
    fn publish_builds_core_and_topk() {
        let cell = Arc::new(SnapshotCell::new());
        let metrics = Arc::new(ServeMetrics::new());
        let mut publisher = Publisher::new(
            Arc::clone(&cell),
            PublishOptions {
                core: Some((2, 2)),
                top_k: 2,
            },
            Arc::clone(&metrics),
        );
        let witness = Pair::new(vec![0, 1], vec![2, 3]);
        publisher.publish(facts(1, Some(&witness), true), tiny);
        let snap = cell.load();
        assert_eq!(snap.epoch, 1);
        assert!(snap.witness_s.contains(0) && snap.witness_t.contains(3));
        let core = snap.core.as_ref().expect("core enabled");
        assert_eq!((core.x, core.y), (2, 2));
        assert!(core.s.contains(0) && core.s.contains(1));
        assert!(core.t.contains(2) && core.t.contains(3));
        assert!(!core.s.contains(2));
        assert!(!snap.top_k.is_empty());
        assert!((snap.top_k[0].density - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unresolved_epochs_carry_the_topk_list_without_materializing() {
        let cell = Arc::new(SnapshotCell::new());
        let metrics = Arc::new(ServeMetrics::new());
        let mut publisher = Publisher::new(
            Arc::clone(&cell),
            PublishOptions {
                core: None,
                top_k: 2,
            },
            metrics,
        );
        let witness = Pair::new(vec![0, 1], vec![2, 3]);
        publisher.publish(facts(1, Some(&witness), true), tiny);
        let first = cell.load().top_k.clone();
        assert!(!first.is_empty());
        publisher.publish(facts(2, Some(&witness), false), || {
            panic!("unresolved epoch with a fresh list must not materialize")
        });
        let snap2 = cell.load();
        assert_eq!(snap2.epoch, 2);
        assert_eq!(snap2.top_k, first, "list is carried forward verbatim");
    }

    #[test]
    fn publish_skips_materialize_when_nothing_needs_the_graph() {
        let cell = Arc::new(SnapshotCell::new());
        let metrics = Arc::new(ServeMetrics::new());
        let mut publisher = Publisher::new(Arc::clone(&cell), PublishOptions::default(), metrics);
        publisher.publish(
            EpochFacts {
                epoch: 1,
                n: 3,
                m: 1,
                density: 1.0,
                lower: 1.0,
                upper: 1.0,
                witness: None,
                resolved: true,
            },
            || panic!("no derived query types: materialize must not run"),
        );
        assert_eq!(cell.load().epoch, 1);
        assert!(cell.load().core.is_none());
        assert!(cell.load().top_k.is_empty());
    }
}
