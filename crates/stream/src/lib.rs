//! Incremental DDS maintenance over edge streams, with a **certified lazy
//! re-solve** policy.
//!
//! The static solvers in [`dds_core`] answer "what is the densest `(S, T)`
//! pair of this graph?" once. Production graphs are not static: edges
//! arrive and expire continuously (fraud rings forming, social edges
//! churning). Re-running even the fastest static solver on every update is
//! wasteful — and usually pointless, because most updates barely move the
//! optimum.
//!
//! This crate keeps a DDS answer *continuously certified* over a stream of
//! batched insertions/deletions:
//!
//! * [`StreamEngine::apply`] ingests one [`Batch`] in `O(batch)` time,
//!   maintaining a **lower bound** (the exact density of the last solve's
//!   witness pair, updated per event) and a **certified upper bound** on
//!   the current optimum (see [`CertifiedBounds`]);
//! * a full solver ([`dds_core::DcExact`] or [`dds_core::core_approx`])
//!   runs **only** when the certificate degrades past the configured
//!   tolerance — so most batches cost microseconds while every reported
//!   density stays inside a proven approximation bracket.
//!
//! # The certificate
//!
//! Let `ρ₁` be a certified upper bound on the optimum at the last solve
//! (the exact optimum for [`SolverKind::Exact`]) and let `Δ` be the
//! **delta graph**: the `k` edges inserted since then and still present,
//! with degree maxima `aΔ` (out) and `bΔ` (in). Every edge of the current
//! graph is an edge of the solved graph or of `Δ`, so for any pair
//! `(S, T)` with `q = sqrt(|S||T|)`:
//!
//! ```text
//! E_now(S,T) ≤ E_then(S,T) + E_Δ(S,T)
//! E_then(S,T) ≤ ρ₁·q                             (deletions only remove edges)
//! E_Δ(S,T)   ≤ min(k, |S|·aΔ, |T|·bΔ)
//!
//! ⇒ ρ_now(S,T) ≤ min((ρ₁ + sqrt(ρ₁² + 4k)) / 2,   via E_Δ ≤ k and ρ ≤ q
//!                    ρ₁ + sqrt(aΔ·bΔ))            via AM–GM on |S|·aΔ, |T|·bΔ
//! ```
//!
//! The second form is the workhorse: under scattered churn `aΔ·bΔ` stays
//! tiny no matter how many edges have moved, so the certificate survives
//! thousands of updates. Two structural bounds hold unconditionally on
//! the current graph — `ρ ≤ sqrt(m)` and `ρ ≤ sqrt(d⁺_max · d⁻_max)`,
//! with the degree maxima maintained exactly in `O(1)` per update — and
//! the reported upper bound is the minimum of all four, inflated by a
//! relative `1e-9` so floating-point rounding can never flip a
//! certificate (pruning-style conservatism, same discipline as
//! `dds-core`'s γ bounds).
//!
//! The lower bound is exact: the witness pair is a real pair of the
//! current graph, and its edge count is maintained per event, so its
//! [`dds_num::Density`] never rounds.
//!
//! # Sliding windows
//!
//! [`StreamEngine`]'s certificate leans on a *persistent* witness, which a
//! sliding window (every edge expires `W` ticks after arrival) destroys by
//! construction. [`WindowEngine`] is the window-native counterpart: it
//! owns the expiry ring, keeps the last certification's max-product
//! `[x, y]`-core alive **decrementally** ([`dds_xycore::DecrementalCore`]
//! repairs it locally as edges expire, so `ρ_opt ≥ ρ(core) ≥ sqrt(x·y)`
//! keeps holding), re-certifies with a cheap core sweep when the band
//! breaks, and escalates to one exact solve only when the sweep bracket
//! cannot satisfy the configured tolerance. Both engines hold the same
//! certificate, re-anchor it by one rule and fire on one trigger. A core
//! refresh keeps the sweep's pair as the witness, and the window's live
//! core is a floor under its lower bound. See [`WindowEngine`].
//!
//! # The sketch tier
//!
//! Both engines assume one full pass over the edge set (an exact solve or
//! a core sweep) is affordable when the band breaks. Past some `m` it is
//! not. The [`SketchTier`] knob gives either engine a third gear: a
//! sublinear [`dds_sketch::SketchEngine`] maintained alongside the full
//! edge set, whose **exact-on-sketch** refresh (a full solve of the
//! retained subgraph, bounded by the sketch's state bound) replaces the
//! full-graph solver whenever `m ≥ min_m`. The sketched witness is a
//! genuine pair of the full graph, so the engines keep their exact,
//! per-event lower bound; the upper bound re-anchors to the structural
//! `min(√m, √(d⁺·d⁻))` and certification proceeds gap-relative, as with
//! [`SolverKind::CoreApprox`]. Experiment E15 measures the trade.
//!
//! # Example
//!
//! ```
//! use dds_stream::{Batch, StreamConfig, StreamEngine};
//!
//! let mut engine = StreamEngine::new(StreamConfig::default());
//!
//! // K_{2,2} arrives in one batch: the optimum is ρ = 4/√4 = 2.
//! let mut batch = Batch::new();
//! for (u, v) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
//!     batch.insert(u, v);
//! }
//! let report = engine.apply(&batch);
//! assert!(report.resolved); // first batch always pays for a solve
//! assert_eq!(report.density.to_f64(), 2.0);
//!
//! // A stray edge elsewhere: absorbed incrementally, bounds stay tight.
//! let mut batch = Batch::new();
//! batch.insert(7, 8);
//! let report = engine.apply(&batch);
//! assert!(!report.resolved);
//! assert!(report.lower <= report.upper);
//! ```

//! # Persistence and serving
//!
//! [`StreamEngine::snapshot`]/[`StreamEngine::restore`] freeze and revive
//! the whole maintenance state — edge set, certificate anchors, witness,
//! sketch level — in the versioned binary format of [`snapshot`], and
//! [`follow_events`] tails a growing event file with checkpoint-friendly
//! byte cursors, turning a replay into a restartable serving loop (`dds
//! stream --follow`). The `dds-shard` crate builds its edge-partitioned
//! parallel engine on the same primitives, and `dds-cluster` workers
//! checkpoint their partitions as the same full `DDSS` snapshots, written
//! atomically by [`snapshot::write_snapshot_file`] — it is the one
//! checkpoint format.

#![warn(missing_docs)]

mod bounds;
mod engine;
mod events;
mod follow;
pub mod snapshot;
mod state;
mod window;
mod witness;

pub use dds_sketch::certify::CertifiedBounds;
pub use engine::{
    batch_slices, replay, BatchBy, EpochReport, SketchTier, SolverKind, StreamConfig, StreamEngine,
};
pub use events::{
    load_events, read_events, save_events, write_events, Batch, Event, StreamError, TimedEvent,
};
pub use follow::{follow_events, FollowConfig, FollowOutcome};
pub use snapshot::SnapshotError;
pub use state::DynamicGraph;
pub use window::{replay_window, WindowConfig, WindowEngine, WindowMode, WindowReport};
pub use witness::denser_pair;
