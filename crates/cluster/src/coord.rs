//! The coordinator's deterministic merge core: digest folding, epoch
//! sealing, straggler degradation, and merged certification.
//!
//! [`ClusterCore`] is a pure state machine — no sockets, no clock. The
//! TCP runtime ([`crate::net::run_coordinator`]) feeds it frames and
//! decides *when* to force a degraded seal; everything the core computes
//! is a deterministic function of the digest sequence, which is what
//! lets the cluster oracle replay the same digests into an in-process
//! core and demand byte-identical sealed epochs.
//!
//! # Folding and sealing
//!
//! Per slot the core keeps a **replica** of the worker's retained
//! sample (reconstructed from the digest deltas), the worker's absolute
//! counters, and `folded` — the epoch the replica corresponds to.
//! Digests queue per slot and fold under one discipline:
//!
//! * at **seal** `e`, every slot with `folded == e − 1` and a queued
//!   digest for `e` folds it — those slots are *fresh* for the epoch;
//! * a digest for an epoch `≤ sealed` arriving late (a shard catching
//!   up after an outage) folds immediately — the epoch it belongs to
//!   was already sealed degraded, and folding now un-stales the slot
//!   for future seals;
//! * a **rebase** digest first drains the slot's queue (those deltas
//!   apply to the pre-rebase replica), then replaces the replica
//!   wholesale.
//!
//! A seal is **certified** either way: fresh slots contribute exact
//! counters; a stale slot whose replica sits at epoch `f ≠ e`
//! contributes its counters inflated by `|e − f| · B` (B = the global
//! batch size) on `m` and on each degree maximum — sound in both
//! directions because an epoch changes any shard's live edge count and
//! any vertex degree by at most `B`. The lower bound only counts
//! witness edges on **fresh** replicas (a stale replica may still hold
//! edges deleted from the graph), so degraded epochs report a wider but
//! still certified bracket, with the stale slots named.
//!
//! # Merged refreshes
//!
//! The trigger, the structural bound and the merged refresh are the
//! shared ones of [`dds_sketch::certify`] ([`refresh_due`] over the
//! digest-reported mutation counters, [`structural_upper`],
//! [`MergedCertifier`]), exactly as [`dds_shard::ShardedEngine`] runs
//! them. A refresh rebuilds one [`SketchEngine`] per fresh replica
//! ([`SketchEngine::restore_at`] — deterministic admission makes the
//! replica self-describing) and hands them to the certifier, which
//! unions them at the max level and runs the usual two-tier solve. Two
//! documented deviations from the single-process engine: the fresh
//! witness replaces the incumbent whenever the solve produces one (the
//! coordinator has no full graph to run `denser_pair` on), and the lower
//! bound is the witness's density on the merged **sample**, counted per
//! slot over fresh replicas only — both keep the bracket sound, just
//! wider.

use std::collections::{BTreeMap, HashSet};
use std::mem;

use dds_graph::{Pair, VertexId};
use dds_num::Density;
use dds_sketch::certify::{
    refresh_due, structural_upper, CertifiedBounds, MergedCertifier, WitnessTracker,
};
use dds_sketch::{SketchConfig, SketchEngine};

use crate::wire::{put_varint, Hello, ShardDigest, WireError};

/// Configuration of a [`ClusterCore`] (and, via identity checks, of
/// every worker allowed to join it).
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of shard slots `K`.
    pub shards: usize,
    /// Global events-per-epoch batch size `B` — the straggler
    /// inflation unit.
    pub batch: usize,
    /// Fraction of the pooled replica set that must churn before a
    /// merged refresh fires.
    pub refresh_drift: f64,
    /// Sketch configuration shared with the workers (`seed` and
    /// `state_bound` are handshake identity).
    pub sketch: SketchConfig,
}

impl Default for ClusterConfig {
    /// 4 shards, 400-event epochs, the standard drift (0.25), default
    /// sketch.
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            batch: 400,
            refresh_drift: 0.25,
            sketch: SketchConfig::default(),
        }
    }
}

/// One shard slot's merged view.
#[derive(Debug)]
struct Slot {
    /// Replica of the worker's retained sample at epoch `folded`.
    replica: HashSet<(VertexId, VertexId)>,
    /// Epoch the replica and counters correspond to.
    folded: u64,
    /// Digests queued for epochs beyond the sealed frontier.
    pending: BTreeMap<u64, ShardDigest>,
    /// Live witness edges inside the replica.
    hits: u64,
    /// Mutation counter at the last merged refresh.
    baseline: u64,
    // Absolute counters from the last folded digest.
    n: u64,
    m: u64,
    out_max: u64,
    out_mult: u64,
    in_max: u64,
    in_mult: u64,
    level: u32,
    mutations: u64,
    cursor: u64,
    tail_bytes: u64,
    connected: bool,
    byed: bool,
}

impl Slot {
    fn new() -> Self {
        Slot {
            replica: HashSet::new(),
            folded: 0,
            pending: BTreeMap::new(),
            hits: 0,
            baseline: 0,
            n: 0,
            m: 0,
            out_max: 0,
            out_mult: 0,
            in_max: 0,
            in_mult: 0,
            level: 0,
            mutations: 0,
            cursor: 0,
            tail_bytes: 0,
            connected: false,
            byed: false,
        }
    }

    /// Highest epoch this slot has digests through: `folded`, extended
    /// by the (consecutive) pending queue.
    fn acked(&self) -> u64 {
        self.pending
            .last_key_value()
            .map_or(self.folded, |(&e, _)| e.max(self.folded))
    }
}

/// One slot's externally visible status (admin plane, lag gauges).
#[derive(Clone, Copy, Debug)]
pub struct SlotStatus {
    /// Epoch the slot's folded state corresponds to.
    pub folded: u64,
    /// Highest epoch the slot has shipped digests through.
    pub acked: u64,
    /// Event-file byte offset of the last folded digest.
    pub cursor: u64,
    /// The worker's reported ingestion lag in bytes.
    pub tail_bytes: u64,
    /// Replica size (retained edges mirrored here).
    pub retained: usize,
    /// Whether a connection currently claims this slot.
    pub connected: bool,
    /// Whether the worker signed off cleanly.
    pub byed: bool,
}

/// One sealed, certified cluster epoch.
#[derive(Clone, Debug)]
pub struct ClusterEpoch {
    /// 1-based global epoch.
    pub epoch: u64,
    /// Vertex-id space size (max over slots).
    pub n: u64,
    /// The live-edge count the upper bound used: the exact sum over
    /// fresh slots, plus the straggler inflation of stale ones.
    pub m: u64,
    /// Events folded at this seal (fresh slots only).
    pub events: u64,
    /// How many slots were fresh.
    pub fresh: u32,
    /// Slots that contributed inflated (stale) counters.
    pub stale: Vec<u32>,
    /// Whether the seal was forced by the straggler policy.
    pub degraded: bool,
    /// Whether this epoch ran a merged refresh.
    pub refreshed: bool,
    /// Merged sample level at the last refresh.
    pub merged_level: u32,
    /// Replica edges mirrored across all slots.
    pub retained: u64,
    /// The certified lower bound as exact arithmetic.
    pub density: Density,
    /// `density` as `f64`.
    pub lower: f64,
    /// Certified upper bound from the (possibly inflated) summed
    /// counters.
    pub upper: f64,
    /// The incumbent witness pair.
    pub witness: Option<Pair>,
}

impl ClusterEpoch {
    /// Proven approximation factor (`∞` when the lower bound is zero
    /// and the upper is not).
    #[must_use]
    pub fn certified_factor(&self) -> f64 {
        CertifiedBounds {
            lower: self.density,
            upper: self.upper,
        }
        .certified_factor()
    }

    /// Canonical byte encoding of everything this epoch certifies —
    /// what the cluster oracle compares between a TCP coordinator and
    /// an in-process one.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, self.epoch);
        put_varint(&mut out, self.n);
        put_varint(&mut out, self.m);
        put_varint(&mut out, self.events);
        put_varint(&mut out, u64::from(self.fresh));
        put_varint(&mut out, self.stale.len() as u64);
        for &k in &self.stale {
            put_varint(&mut out, u64::from(k));
        }
        out.push(u8::from(self.degraded));
        out.push(u8::from(self.refreshed));
        put_varint(&mut out, u64::from(self.merged_level));
        put_varint(&mut out, self.retained);
        put_varint(&mut out, self.lower.to_bits());
        put_varint(&mut out, self.upper.to_bits());
        match &self.witness {
            None => out.push(0),
            Some(pair) => {
                out.push(1);
                for side in [pair.s(), pair.t()] {
                    put_varint(&mut out, side.len() as u64);
                    for &v in side {
                        put_varint(&mut out, u64::from(v));
                    }
                }
            }
        }
        out
    }
}

fn protocol(msg: impl Into<String>) -> WireError {
    WireError::Protocol(msg.into())
}

/// The deterministic digest-merging state machine. See the module docs
/// for the folding/sealing discipline.
#[derive(Debug)]
pub struct ClusterCore {
    config: ClusterConfig,
    slots: Vec<Slot>,
    sealed: u64,
    /// The incumbent witness. Its lower bound counts only fresh replicas,
    /// so the per-slot `hits` carry the counts and the tracker holds the
    /// pair and its membership.
    witness: WitnessTracker,
    certifier: MergedCertifier,
    refreshes: u64,
    escalations: u64,
    digest_bytes: u64,
    degraded_seals: u64,
}

impl ClusterCore {
    /// A fresh core with `config.shards` empty slots.
    ///
    /// # Panics
    /// Panics unless `shards` and `batch` are positive.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard slot");
        assert!(config.batch > 0, "batch size must be positive");
        ClusterCore {
            config,
            slots: (0..config.shards).map(|_| Slot::new()).collect(),
            sealed: 0,
            witness: WitnessTracker::default(),
            certifier: MergedCertifier::default(),
            refreshes: 0,
            escalations: 0,
            digest_bytes: 0,
            degraded_seals: 0,
        }
    }

    /// Admits (or re-admits) a worker: every identity field must match
    /// the cluster's, and the answer is the epoch the slot already has
    /// digests through — the worker resumes shipping *after* it.
    ///
    /// # Errors
    /// Names every mismatched identity field (the cluster-side twin of
    /// the checkpoint resume check).
    pub fn hello(&mut self, hello: &Hello) -> Result<u64, WireError> {
        let mut wrong = Vec::new();
        if hello.shards as usize != self.config.shards {
            wrong.push(format!(
                "shard count (cluster {}, worker {})",
                self.config.shards, hello.shards
            ));
        }
        if hello.seed != self.config.sketch.seed {
            wrong.push(format!(
                "admission seed (cluster {:#x}, worker {:#x})",
                self.config.sketch.seed, hello.seed
            ));
        }
        if hello.state_bound as usize != self.config.sketch.state_bound {
            wrong.push(format!(
                "state bound (cluster {}, worker {})",
                self.config.sketch.state_bound, hello.state_bound
            ));
        }
        if hello.batch as usize != self.config.batch {
            wrong.push(format!(
                "batch size (cluster {}, worker {})",
                self.config.batch, hello.batch
            ));
        }
        if hello.shard >= hello.shards {
            wrong.push(format!(
                "shard slot {} out of range 0..{}",
                hello.shard, hello.shards
            ));
        }
        if !wrong.is_empty() {
            return Err(protocol(format!(
                "worker identity mismatch: {} — digests from a differently-keyed worker would \
                 merge unsoundly, refusing the connection",
                wrong.join(", ")
            )));
        }
        let slot = &mut self.slots[hello.shard as usize];
        slot.connected = true;
        slot.byed = false;
        Ok(slot.acked())
    }

    /// Accepts one digest (`payload_bytes` feeds the traffic counter):
    /// rebases fold immediately (draining the queue first), late
    /// catch-up digests fold immediately, in-order future digests
    /// queue for their seal.
    ///
    /// # Errors
    /// Rejects out-of-order epochs and deltas that desync the replica.
    pub fn offer(&mut self, digest: ShardDigest, payload_bytes: u64) -> Result<(), WireError> {
        let k = digest.shard as usize;
        if k >= self.slots.len() {
            return Err(protocol(format!("digest from unknown shard {k}")));
        }
        self.digest_bytes += payload_bytes;
        if digest.rebase {
            // Queued deltas apply to the pre-rebase replica; fold them
            // (ahead of the seal frontier — sound, the slot just reads
            // as stale-ahead with inflated counters until seals catch
            // up), then replace wholesale.
            let queued: Vec<ShardDigest> = mem::take(&mut self.slots[k].pending)
                .into_values()
                .collect();
            for d in queued {
                self.fold(k, &d)?;
            }
            if digest.epoch <= self.slots[k].folded {
                return Err(protocol(format!(
                    "rebase for epoch {} at or behind the folded epoch {}",
                    digest.epoch, self.slots[k].folded
                )));
            }
            return self.fold(k, &digest);
        }
        let slot = &mut self.slots[k];
        let expected = slot.acked() + 1;
        if digest.epoch != expected {
            return Err(protocol(format!(
                "shard {k} digest for epoch {} out of order (expected {expected})",
                digest.epoch
            )));
        }
        if digest.epoch <= self.sealed && slot.pending.is_empty() {
            // Late catch-up after a degraded window.
            self.fold(k, &digest)
        } else {
            slot.pending.insert(digest.epoch, digest);
            Ok(())
        }
    }

    /// Applies one digest to its slot: replays the sample delta onto
    /// the replica (validating it), overwrites the absolute counters,
    /// and maintains the witness hit count incrementally.
    fn fold(&mut self, k: usize, d: &ShardDigest) -> Result<(), WireError> {
        let witness = &self.witness;
        let slot = &mut self.slots[k];
        if d.rebase {
            if !d.dropped.is_empty() {
                return Err(protocol("rebase digest with a non-empty dropped list"));
            }
            slot.replica.clear();
            slot.hits = 0;
        }
        for &(u, v) in &d.dropped {
            if !slot.replica.remove(&(u, v)) {
                return Err(protocol(format!(
                    "shard {k} epoch {} drops edge ({u}, {v}) the replica does not hold — \
                     sample desync",
                    d.epoch
                )));
            }
            if witness.contains(u, v) {
                slot.hits -= 1;
            }
        }
        for &(u, v) in &d.added {
            if !slot.replica.insert((u, v)) {
                return Err(protocol(format!(
                    "shard {k} epoch {} adds edge ({u}, {v}) the replica already holds — \
                     sample desync",
                    d.epoch
                )));
            }
            if witness.contains(u, v) {
                slot.hits += 1;
            }
        }
        slot.n = d.n;
        slot.m = d.m;
        slot.out_max = d.out_max;
        slot.out_mult = d.out_mult;
        slot.in_max = d.in_max;
        slot.in_mult = d.in_mult;
        slot.level = d.level;
        slot.mutations = d.mutations;
        slot.cursor = d.cursor;
        slot.tail_bytes = d.tail_bytes;
        slot.folded = d.epoch;
        Ok(())
    }

    /// Seals epoch `sealed + 1` if possible: always when every slot is
    /// fresh for it, and under `force` (the straggler policy) as soon
    /// as *any* slot has digests past the frontier — stale slots then
    /// contribute inflated counters. Returns `None` when there is
    /// nothing to seal.
    ///
    /// # Errors
    /// Propagates replica desync detected while folding.
    pub fn seal_next(&mut self, force: bool) -> Result<Option<ClusterEpoch>, WireError> {
        let e = self.sealed + 1;
        // A slot covers epoch `e` when it queued a digest for it, or
        // already folded to (or past) it — a rebase can land a slot
        // ahead of the frontier, where it reads as stale with inflated
        // counters until the seals catch up.
        let ready = self.slots.iter().all(|s| s.acked() >= e);
        if !ready && (!force || self.head_epoch() < e) {
            return Ok(None);
        }
        let mut events = 0u64;
        for k in 0..self.slots.len() {
            if self.slots[k].folded == e - 1 {
                if let Some(d) = self.slots[k].pending.remove(&e) {
                    events += d.events;
                    self.fold(k, &d)?;
                }
            }
        }
        let batch = self.config.batch as u64;
        let (mut m, mut out, mut inc, mut n) = (0u64, 0u64, 0u64, 0u64);
        let mut stale = Vec::new();
        for (k, slot) in self.slots.iter().enumerate() {
            let gap = slot.folded.abs_diff(e);
            if gap > 0 {
                stale.push(k as u32);
            }
            // One epoch moves a shard's edge count and any vertex
            // degree by at most B events, in either direction.
            let inflation = gap.saturating_mul(batch);
            m += slot.m + inflation;
            out += slot.out_max + inflation;
            inc += slot.in_max + inflation;
            n = n.max(slot.n);
        }
        let refreshed = self.maybe_refresh(e);
        let density = self.fresh_density(e);
        let upper = structural_upper(m, out, inc);
        let degraded = !stale.is_empty();
        if degraded {
            self.degraded_seals += 1;
        }
        self.sealed = e;
        Ok(Some(ClusterEpoch {
            epoch: e,
            n,
            m,
            events,
            fresh: (self.slots.len() - stale.len()) as u32,
            stale,
            degraded,
            refreshed,
            merged_level: self.certifier.level(),
            retained: self.slots.iter().map(|s| s.replica.len() as u64).sum(),
            density,
            lower: density.to_f64(),
            upper,
            witness: self.witness.pair().cloned(),
        }))
    }

    /// The witness's density over the replicas fresh at epoch `e`.
    fn fresh_density(&self, e: u64) -> Density {
        let hits = self.slots.iter().filter(|s| s.folded == e).map(|s| s.hits);
        self.witness.density_with(hits.sum())
    }

    /// The shared drift trigger over digest-reported mutation counters,
    /// then a merged refresh of the fresh replicas when it fires.
    fn maybe_refresh(&mut self, e: u64) -> bool {
        let retained = self.slots.iter().map(|s| s.replica.len()).sum();
        let dead = self.fresh_density(e).is_zero();
        // Workers report cumulative mutations; a restart resets them,
        // which the saturating diff reads as "no drift yet".
        let drift = self
            .slots
            .iter()
            .map(|s| s.mutations.saturating_sub(s.baseline));
        if !refresh_due(retained, dead, drift.sum(), self.config.refresh_drift) {
            return false;
        }
        let engines: Vec<SketchEngine> = self
            .slots
            .iter()
            .filter(|s| s.folded == e && !s.replica.is_empty())
            .map(|s| {
                SketchEngine::restore_at(self.config.sketch, s.level, s.replica.iter().copied())
            })
            .collect();
        if engines.is_empty() {
            return false;
        }
        self.refreshes += 1;
        let refs: Vec<&SketchEngine> = engines.iter().collect();
        let refresh = self
            .certifier
            .refresh(self.config.sketch, &refs, dead, None);
        if refresh.stats.is_some() {
            self.escalations += 1;
        }
        if let Some(pair) = refresh.fresh {
            self.adopt_witness(pair);
        }
        for slot in &mut self.slots {
            slot.baseline = slot.mutations;
        }
        true
    }

    /// Adopts a fresh witness and recounts every slot's replica against
    /// it.
    fn adopt_witness(&mut self, pair: Pair) {
        let n = self.slots.iter().map(|s| s.n).max().unwrap_or(0) as usize;
        self.witness.reset(n, Some(pair), std::iter::empty());
        for slot in &mut self.slots {
            let hits = slot
                .replica
                .iter()
                .filter(|&&(u, v)| self.witness.contains(u, v));
            slot.hits = hits.count() as u64;
        }
    }

    /// A worker signed off cleanly.
    pub fn bye(&mut self, shard: u32) {
        if let Some(slot) = self.slots.get_mut(shard as usize) {
            slot.byed = true;
            slot.connected = false;
        }
    }

    /// A worker's connection dropped without a `Bye` (it may be back —
    /// the failure drill's kill/restore path re-admits through
    /// [`ClusterCore::hello`]).
    pub fn disconnect(&mut self, shard: u32) {
        if let Some(slot) = self.slots.get_mut(shard as usize) {
            slot.connected = false;
        }
    }

    /// Highest epoch any slot has digests through.
    #[must_use]
    pub fn head_epoch(&self) -> u64 {
        self.slots.iter().map(Slot::acked).max().unwrap_or(0)
    }

    /// Epochs sealed so far.
    #[must_use]
    pub fn sealed(&self) -> u64 {
        self.sealed
    }

    /// Whether every worker signed off and every shipped epoch sealed.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.slots.iter().all(|s| s.byed) && self.head_epoch() == self.sealed
    }

    /// Digest payload bytes accepted so far.
    #[must_use]
    pub fn digest_bytes(&self) -> u64 {
        self.digest_bytes
    }

    /// Merged refreshes run so far.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Refreshes that escalated to an exact-on-sketch solve.
    #[must_use]
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Seals forced by the straggler policy.
    #[must_use]
    pub fn degraded_seals(&self) -> u64 {
        self.degraded_seals
    }

    /// Highest event-file byte offset any digest reported — the raw
    /// event bytes the cluster has collectively ingested, and the
    /// denominator of the digest-traffic budget.
    #[must_use]
    pub fn max_cursor(&self) -> u64 {
        self.slots.iter().map(|s| s.cursor).max().unwrap_or(0)
    }

    /// Per-slot status in slot order (admin plane, gauges).
    #[must_use]
    pub fn slot_status(&self) -> Vec<SlotStatus> {
        self.slots
            .iter()
            .map(|s| SlotStatus {
                folded: s.folded,
                acked: s.acked(),
                cursor: s.cursor,
                tail_bytes: s.tail_bytes,
                retained: s.replica.len(),
                connected: s.connected,
                byed: s.byed,
            })
            .collect()
    }

    /// The cluster configuration.
    #[must_use]
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Canonical bytes of the **worker-determined merged state**: per
    /// slot the folded epoch, absolute counters, and the sorted
    /// replica. This is what the failure drill demands be bit-identical
    /// between an interrupted-and-restored run and an uninterrupted one
    /// (the witness and drift baselines are coordinator-side solve
    /// artifacts and may legitimately differ through a degraded
    /// window, so they are excluded).
    #[must_use]
    pub fn state_digest(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, self.slots.len() as u64);
        for slot in &self.slots {
            put_varint(&mut out, slot.folded);
            put_varint(&mut out, slot.n);
            put_varint(&mut out, slot.m);
            put_varint(&mut out, slot.out_max);
            put_varint(&mut out, slot.out_mult);
            put_varint(&mut out, slot.in_max);
            put_varint(&mut out, slot.in_mult);
            put_varint(&mut out, u64::from(slot.level));
            put_varint(&mut out, slot.mutations);
            let mut edges: Vec<_> = slot.replica.iter().copied().collect();
            edges.sort_unstable();
            put_varint(&mut out, edges.len() as u64);
            for (u, v) in edges {
                put_varint(&mut out, u64::from(u));
                put_varint(&mut out, u64::from(v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Frame;
    use crate::worker::{WorkerConfig, WorkerState};
    use dds_stream::{Batch, Event, TimedEvent};

    fn cluster_config(shards: usize, batch: usize) -> ClusterConfig {
        ClusterConfig {
            shards,
            batch,
            refresh_drift: 0.25,
            sketch: SketchConfig {
                state_bound: 128,
                ..SketchConfig::default()
            },
        }
    }

    fn workers(config: ClusterConfig) -> Vec<WorkerState> {
        (0..config.shards)
            .map(|shard| {
                WorkerState::new(WorkerConfig {
                    shard,
                    shards: config.shards,
                    batch: config.batch,
                    sketch: config.sketch,
                })
            })
            .collect()
    }

    fn batch_at(step: u32, batch: usize) -> Batch {
        Batch::from_events(
            (0..batch as u32)
                .map(|i| {
                    let x = step * batch as u32 + i;
                    TimedEvent {
                        time: u64::from(x),
                        event: if x % 7 == 3 {
                            Event::Delete(x.wrapping_mul(31) % 50, (x.wrapping_mul(17) + 1) % 50)
                        } else {
                            Event::Insert(x % 50, (x * 13 + 1) % 50)
                        },
                    }
                })
                .collect(),
        )
    }

    fn digest_of(w: &mut WorkerState, batch: &Batch) -> (ShardDigest, u64) {
        let t = w.apply_batch(batch);
        let d = w.digest(t, w.epoch() * 100, 0, false);
        let bytes = Frame::Digest(d.clone()).encode().len() as u64;
        (d, bytes)
    }

    #[test]
    fn fresh_seals_reconcile_counters_with_the_workers() {
        let cfg = cluster_config(3, 32);
        let mut core = ClusterCore::new(cfg);
        let mut ws = workers(cfg);
        for step in 0..20 {
            let batch = batch_at(step, cfg.batch);
            let mut m_sum = 0;
            for w in ws.iter_mut() {
                let (d, bytes) = digest_of(w, &batch);
                m_sum += d.m;
                core.offer(d, bytes).expect("in-order digest");
            }
            let epoch = core
                .seal_next(false)
                .expect("no desync")
                .expect("all slots fresh");
            assert_eq!(epoch.epoch, u64::from(step) + 1);
            assert!(!epoch.degraded);
            assert_eq!(epoch.stale, Vec::<u32>::new());
            assert_eq!(epoch.m, m_sum, "fresh seal sums exact counters");
            assert!(epoch.lower <= epoch.upper * (1.0 + 1e-9));
            assert!(core.seal_next(true).unwrap().is_none(), "nothing queued");
        }
        assert!(core.refreshes() > 0, "drift policy fired at least once");
        assert!(core.sealed() == 20 && core.head_epoch() == 20);
    }

    #[test]
    fn straggler_seals_degrade_soundly_and_catch_up() {
        let cfg = cluster_config(2, 16);
        let mut core = ClusterCore::new(cfg);
        let mut ws = workers(cfg);
        let b = cfg.batch as u64;
        // Both shards ship epoch 1; only shard 0 ships epochs 2 and 3.
        let mut held = Vec::new();
        let mut m_at = [Vec::new(), Vec::new()];
        for step in 0..3 {
            let batch = batch_at(step, cfg.batch);
            for (k, w) in ws.iter_mut().enumerate() {
                let (d, bytes) = digest_of(w, &batch);
                m_at[k].push(d.m);
                if step >= 1 && k == 1 {
                    held.push((d, bytes));
                } else {
                    core.offer(d, bytes).unwrap();
                }
            }
        }
        assert!(core.seal_next(false).unwrap().is_some(), "epoch 1 fresh");
        assert!(core.seal_next(false).unwrap().is_none(), "epoch 2 waits");
        let e2 = core.seal_next(true).unwrap().expect("forced");
        assert!(e2.degraded && e2.stale == vec![1]);
        // Stale inflation: shard 1 contributes its epoch-1 m plus 1·B.
        assert_eq!(e2.m, m_at[0][1] + m_at[1][0] + b);
        let e3 = core.seal_next(true).unwrap().expect("forced");
        assert!(e3.degraded && e3.stale == vec![1]);
        assert_eq!(e3.m, m_at[0][2] + m_at[1][0] + 2 * b);
        // Late digests fold immediately and un-stale the slot.
        for (d, bytes) in held {
            core.offer(d, bytes).unwrap();
        }
        let status = core.slot_status();
        assert_eq!(status[1].folded, 3, "catch-up folded to the frontier");
        let batch = batch_at(3, cfg.batch);
        for w in ws.iter_mut() {
            let (d, bytes) = digest_of(w, &batch);
            core.offer(d, bytes).unwrap();
        }
        let e4 = core.seal_next(false).unwrap().expect("fresh again");
        assert!(!e4.degraded);
        let m_now: u64 = ws.iter().map(WorkerState::m).sum();
        assert_eq!(e4.m, m_now, "exact counters after recovery");
    }

    #[test]
    fn rebase_replaces_the_replica_and_reads_stale_ahead() {
        let cfg = cluster_config(2, 16);
        let mut core = ClusterCore::new(cfg);
        let mut ws = workers(cfg);
        for step in 0..2 {
            let batch = batch_at(step, cfg.batch);
            for w in ws.iter_mut() {
                let (d, bytes) = digest_of(w, &batch);
                core.offer(d, bytes).unwrap();
            }
            core.seal_next(false).unwrap().expect("fresh");
        }
        // Shard 1 runs ahead offline to epoch 5, then rebases.
        for step in 2..5 {
            ws[1].apply_batch(&batch_at(step, cfg.batch));
        }
        let rebase = ws[1].digest(Default::default(), 500, 0, true);
        assert!(rebase.rebase);
        core.offer(rebase, 0).unwrap();
        assert_eq!(core.slot_status()[1].folded, 5);
        // Seals 3..5 are degraded (slot 1 stale-ahead), 0 still fresh.
        for _ in 0..2 {
            let (d, bytes) = digest_of(&mut ws[0], &batch_at(core.sealed() as u32, cfg.batch));
            core.offer(d, bytes).unwrap();
            let e = core.seal_next(true).unwrap().expect("forced");
            assert!(e.degraded && e.stale == vec![1]);
        }
        assert_eq!(core.sealed(), 4);
    }

    #[test]
    fn hello_checks_identity_and_offers_resume_points() {
        let cfg = cluster_config(2, 16);
        let mut core = ClusterCore::new(cfg);
        let good = Hello {
            shard: 0,
            shards: 2,
            seed: cfg.sketch.seed,
            state_bound: cfg.sketch.state_bound as u64,
            batch: 16,
            last_epoch: 0,
        };
        assert_eq!(core.hello(&good).unwrap(), 0);
        let err = core
            .hello(&Hello {
                seed: 1,
                batch: 99,
                ..good
            })
            .unwrap_err()
            .to_string();
        assert!(err.contains("admission seed"), "{err}");
        assert!(err.contains("batch size (cluster 16, worker 99)"), "{err}");
        // After two shipped epochs the resume point moves.
        let mut w = workers(cfg).remove(0);
        for step in 0..2 {
            let (d, bytes) = digest_of(&mut w, &batch_at(step, cfg.batch));
            core.offer(d, bytes).unwrap();
        }
        assert_eq!(core.hello(&good).unwrap(), 2, "folded + queued digests");
    }

    #[test]
    fn desynced_deltas_are_rejected() {
        let cfg = cluster_config(1, 8);
        let mut core = ClusterCore::new(cfg);
        let bogus = ShardDigest {
            shard: 0,
            epoch: 1,
            dropped: vec![(1, 2)],
            ..Default::default()
        };
        core.offer(bogus, 0).unwrap();
        let err = core.seal_next(false).unwrap_err().to_string();
        assert!(err.contains("sample desync"), "{err}");
        // Out-of-order epochs are refused at offer time.
        let mut core = ClusterCore::new(cfg);
        let err = core
            .offer(
                ShardDigest {
                    shard: 0,
                    epoch: 3,
                    ..Default::default()
                },
                0,
            )
            .unwrap_err()
            .to_string();
        assert!(err.contains("out of order"), "{err}");
    }
}
