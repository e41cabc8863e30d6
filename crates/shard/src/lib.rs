//! Edge-partitioned DDS ingestion: hash-routed partitions with their own
//! counters and sketches, and globally certified density brackets
//! recovered by **merging** the partition state — plus snapshot/restore,
//! so the whole thing runs as a restartable serving loop (`dds shard`,
//! `dds stream --follow`).
//!
//! # Why sharding works here
//!
//! A [`ShardedEngine`] routes every edge to one of `K` shards by a
//! deterministic hash of the edge alone ([`route_edge`]), so the same
//! edge always lands on the same shard and each shard owns a *disjoint
//! partition* of the live edge set. A [`Partition`] holds it: the
//! authoritative edge set (for turnstile dedup and sample rebuilds), and
//! the [`dds_sketch::SketchEngine`] over it with exact `O(1)` counters
//! (live `m`, count-of-counts degree maxima) and the subsampled retained
//! set at the partition's own level. A batch apply routes each event to
//! its partition and applies the partitions in one serial pass; each
//! slice ends with one undersample check. The `dds-cluster` worker
//! processes are built on the same [`Partition`], so an out-of-process
//! shard applies exactly the slice rule of an in-process one.
//!
//! Global certification then needs two merges, both exact, and runs
//! through the shared rule of [`dds_sketch::certify`]:
//!
//! * **counters sum** — the partition is disjoint, so a vertex's global
//!   degree is the sum of its per-shard degrees
//!   ([`dds_sketch::MaxTracker::merge`]), and the structural upper bound
//!   `min(√m, √(d⁺_max·d⁻_max))` computed from the summed counters is the
//!   true full-graph bound, not an approximation of it;
//! * **sketches union** — every shard admits edges with the *same* seeded
//!   hash, and admission is nested across levels, so filtering the union
//!   of retained sets at `L = max(shard levels)` yields precisely the
//!   retained set a single engine at level `L` would hold over the whole
//!   graph ([`dds_sketch::SketchEngine::merged`]; property-tested against
//!   a single engine in `tests/tests/shard_oracle.rs`). The merged sample
//!   is refreshed by [`dds_sketch::certify::MergedCertifier`] with the
//!   same two-tier solve the sketch tier runs everywhere else — core
//!   sweep of the sample, escalated to exact-on-sketch when the sweep's
//!   own bracket is loose — and the winning pair is adopted only if it
//!   beats the incumbent witness *measured on the full graph*
//!   ([`dds_stream::denser_pair`]).
//!
//! The certified bracket per epoch is therefore the familiar one: lower =
//! the witness pair's exact density on the full graph (maintained per
//! event, across shards), upper = the structural bound from the summed
//! counters. Refreshes are drift-triggered
//! ([`dds_sketch::certify::refresh_due`] over the shards' pooled
//! retained-set churn), the same rule the cluster coordinator runs.
//!
//! # Restartability
//!
//! [`ShardedEngine::snapshot`] serializes the restart-relevant state —
//! the global edge set (canonical order), per-shard subsampling levels
//! and drift counters, the incumbent witness, and the armed-escalation
//! bit — in the versioned format of [`dds_stream::snapshot`]. Everything
//! else is recomputed on restore: the router re-partitions the edges,
//! deterministic admission rebuilds every retained set, and the witness
//! is recounted. Because merged refreshes run on a *fresh* solver context
//! each time (the sample is small; warmth buys little and
//! history-independence buys exact resumability), a restored engine
//! replays the remaining stream **bit-identically** to the engine that
//! wrote the snapshot — asserted per epoch by the oracle tests and
//! experiment E16's kill/restore check.

#![warn(missing_docs)]

mod engine;
mod partition;

pub use engine::{replay_sharded, route_edge, ShardConfig, ShardReport, ShardStats, ShardedEngine};
pub use partition::{Partition, SliceTallies};
