//! Cross-process sharded DDS ingestion: `K` worker processes ingest
//! disjoint edge partitions and ship compact per-epoch **digests** over
//! TCP to a coordinator that merges them into a globally certified
//! density bracket — the multi-host form of the single-process
//! [`dds_shard::ShardedEngine`].
//!
//! # Why digests suffice
//!
//! The single-process engine certifies from two merges, both exact:
//! counters **sum** (the edge partition is disjoint) and retained
//! samples **union** at the maximum level (shared-seed nested
//! admission). Neither merge needs the partitions themselves — only the
//! counter summaries and the retained-set *changes*. So a worker ships,
//! per epoch, a [`ShardDigest`]: live `m`, degree maxima with their
//! count-of-counts multiplicity, subsampling level, drift counter, lag
//! health, and the few edges its retained sample admitted or dropped
//! since the last shipped epoch. The coordinator replays those deltas
//! into per-slot replicas and certifies with the same machinery —
//! typically a few percent of the raw event bytes (experiment E20 and
//! the `cluster-smoke` CI gate measure it).
//!
//! # The moving parts
//!
//! * [`wire`] — DDSC v1: versioned preamble, length-prefixed frames,
//!   canonical varint digest encoding.
//! * [`worker`] — [`WorkerState`] (one partition's edge set + sketch,
//!   mirroring the in-process shard semantics exactly) and
//!   [`run_worker`] (tail the event file, ship digests, checkpoint
//!   the partition as one full `DDSS` snapshot).
//! * [`coord`] — [`ClusterCore`], the deterministic merge: fold
//!   digests, seal epochs (fresh or straggler-degraded with sound
//!   inflated bounds), run merged refreshes over the replicas.
//! * [`net`] — the coordinator's TCP runtime and `dds_cluster_*`
//!   metrics.
//!
//! # Failure model
//!
//! Workers checkpoint the way `dds stream`, `dds shard` and `dds serve`
//! do: one full `DDSS` snapshot ([`WorkerState::snapshot`]) rewritten
//! atomically every `checkpoint_every` epochs and when the tail loop
//! ends. A worker's edge partition and a few counters determine its
//! retained sample, so that file is all a restart needs. Workers
//! re-admit through a digest-cursor handshake: `Hello` carries the
//! checkpoint epoch, the ack carries the epoch the coordinator holds
//! digests through, and the worker either replays silently up to it or
//! ships one **rebase** digest replacing its replica wholesale. Epochs sealed during the outage carry a
//! certified-but-wider bracket with the stale shard named; the
//! kill/restore drill (`dds-bench cluster-smoke`, experiment E20)
//! asserts every epoch stays certified and the restored run's merged
//! state is bit-identical to an uninterrupted one.

#![warn(missing_docs)]

pub mod coord;
pub mod net;
pub mod wire;
pub mod worker;

pub use coord::{ClusterConfig, ClusterCore, ClusterEpoch, SlotStatus};
pub use net::{run_coordinator, ClusterMetrics, CoordinatorOptions, CoordinatorReport};
pub use wire::{Frame, Hello, ShardDigest, WireError, WIRE_MAGIC, WIRE_VERSION};
pub use worker::{
    run_worker, SliceTallies, WorkerConfig, WorkerOptions, WorkerState, WorkerSummary,
};
