//! The worker side of `dds-cluster`: one process, one edge partition.
//!
//! A worker tails the shared event file with
//! [`dds_stream::follow_events`] using the **global** batch size, so
//! every worker sees the same epoch boundaries, but applies only the
//! events [`dds_shard::route_edge`] assigns to its slot — exactly the
//! slice a shard inside a single-process
//! [`dds_shard::ShardedEngine`] would own, applied by the same
//! [`dds_shard::Partition`]. Per epoch it ships a [`ShardDigest`]
//! to the coordinator — absolute counters plus the retained-set *delta*
//! since the last shipped epoch — and every `checkpoint_every` epochs
//! (and once more when the tail loop ends) it rewrites one full `DDSS`
//! checkpoint ([`WorkerState::snapshot`]), the format `dds stream`,
//! `dds shard` and `dds serve` checkpoint in.
//!
//! # Restart and re-admission
//!
//! On `--resume` the worker restores that checkpoint (rejecting
//! identity mismatches the same way `dds shard --resume` does), then
//! handshakes: its `Hello` carries the checkpoint's epoch `C`, the
//! coordinator answers with the epoch `Y` it holds digests through for
//! this slot, and the worker
//!
//! * **replays silently** to `Y` when `C ≤ Y` (the coordinator already
//!   has those epochs; deterministic replay reproduces the exact
//!   retained set, which becomes the diff baseline at `Y`), or
//! * **rebases** when `C > Y` (the coordinator lost epochs the
//!   checkpoint has — it restarted, or never folded them): one digest
//!   with `rebase = true` carrying the entire retained set replaces the
//!   coordinator's replica wholesale, and shipping continues from
//!   `C + 1`.
//!
//! Either way the worker never re-sends an epoch the coordinator
//! already folded, and the coordinator never sees a delta whose
//! baseline it does not hold — so a checkpoint may lag the worker by up
//! to `checkpoint_every - 1` epochs at no cost but a short silent replay.

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io;
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dds_graph::VertexId;
pub use dds_shard::SliceTallies;
use dds_shard::{route_edge, Partition};
use dds_sketch::SketchConfig;
use dds_stream::snapshot::{
    read_snapshot_file, write_snapshot_file, SnapshotError, SnapshotKind, SnapshotReader,
    SnapshotWriter,
};
use dds_stream::{follow_events, Batch, Event, FollowConfig, StreamError};

use crate::wire::{read_frame, write_frame, write_preamble, Frame, Hello, ShardDigest, WireError};

impl From<SnapshotError> for WireError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(e) => WireError::Io(e),
            other => WireError::Protocol(format!("checkpoint: {other}")),
        }
    }
}

fn stream_err(e: StreamError) -> WireError {
    WireError::Protocol(format!("event stream: {e}"))
}

/// Identity of one cluster worker — every field participates in edge
/// routing, sample admission, or epoch numbering, so all of them are
/// checkpoint identity and handshake identity.
#[derive(Clone, Copy, Debug)]
pub struct WorkerConfig {
    /// This worker's shard slot, `0..shards`.
    pub shard: usize,
    /// Total shard count `K`.
    pub shards: usize,
    /// Events per epoch (global batch size — shared by every worker and
    /// the coordinator, or epoch boundaries would disagree).
    pub batch: usize,
    /// Sketch configuration; `seed` doubles as the routing seed and
    /// `state_bound` bounds the retained set.
    pub sketch: SketchConfig,
}

/// Runtime options of [`run_worker`] that are not identity.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Poll interval while tailing the event file.
    pub poll: Duration,
    /// Exit after this long with no new events (`None` tails forever).
    pub idle_exit: Option<Duration>,
    /// Checkpoint file (`None` disables checkpoints).
    pub checkpoint: Option<PathBuf>,
    /// Epochs between checkpoints; the tail loop's end writes one more.
    pub checkpoint_every: u64,
    /// Restore from the checkpoint, when it exists, before connecting.
    pub resume: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            poll: Duration::from_millis(20),
            idle_exit: Some(Duration::from_secs(2)),
            checkpoint: None,
            checkpoint_every: 50,
            resume: false,
        }
    }
}

/// What one worker run did.
#[derive(Clone, Copy, Debug)]
pub struct WorkerSummary {
    /// Shard slot.
    pub shard: usize,
    /// Final epoch reached.
    pub epoch: u64,
    /// Events routed to this shard over the whole run (replay included).
    pub events: u64,
    /// Digest frames shipped.
    pub digests: u64,
    /// Digest payload bytes shipped.
    pub digest_bytes: u64,
    /// Whether the run opened with a rebase digest.
    pub rebased: bool,
    /// Final event-file byte offset.
    pub cursor: u64,
}

/// One shard partition's in-process state: the [`Partition`] a
/// [`dds_shard::ShardedEngine`] shard is built on, the epoch, and the
/// digest diff baseline.
#[derive(Debug)]
pub struct WorkerState {
    config: WorkerConfig,
    part: Partition,
    epoch: u64,
    last_sent: Option<HashSet<(VertexId, VertexId)>>,
}

/// A decoded worker checkpoint payload, identity not yet checked.
struct WorkerSnapshotParts {
    shard: usize,
    shards: usize,
    seed: u64,
    state_bound: usize,
    batch: usize,
    n: usize,
    epoch: u64,
    level: u32,
    mutations: u64,
    edges: Vec<(VertexId, VertexId)>,
}

impl WorkerSnapshotParts {
    /// Same contract as the sharded engine's resume check: name every
    /// mismatched identity field, never silently re-hash.
    fn check_identity(&self, config: &WorkerConfig) -> Result<(), SnapshotError> {
        let mut wrong = Vec::new();
        if self.shard != config.shard {
            wrong.push(format!(
                "shard slot (checkpoint {}, requested {})",
                self.shard, config.shard
            ));
        }
        if self.shards != config.shards {
            wrong.push(format!(
                "shard count (checkpoint {}, requested {})",
                self.shards, config.shards
            ));
        }
        if self.seed != config.sketch.seed {
            wrong.push(format!(
                "admission seed (checkpoint {:#x}, requested {:#x})",
                self.seed, config.sketch.seed
            ));
        }
        if self.state_bound != config.sketch.state_bound {
            wrong.push(format!(
                "state bound (checkpoint {}, requested {})",
                self.state_bound, config.sketch.state_bound
            ));
        }
        if self.batch != config.batch {
            wrong.push(format!(
                "batch size (checkpoint {}, requested {})",
                self.batch, config.batch
            ));
        }
        if wrong.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Format(format!(
                "checkpoint identity mismatch: {} — edge routing, sample admission, and epoch \
                 numbering are derived from these, so resuming would silently re-hash edges onto \
                 different shards; rerun with the checkpoint's flags or start fresh without \
                 --resume",
                wrong.join(", ")
            )))
        }
    }
}

impl WorkerState {
    /// A fresh worker at epoch 0.
    ///
    /// # Panics
    /// Panics unless `0 < shards`, `shard < shards`, and `batch > 0`.
    #[must_use]
    pub fn new(config: WorkerConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.shard < config.shards, "shard slot out of range");
        assert!(config.batch > 0, "batch size must be positive");
        WorkerState {
            config,
            part: Partition::new(config.sketch),
            epoch: 0,
            last_sent: None,
        }
    }

    /// Applies one **global** batch: filters to this shard's slice with
    /// the routing hash, applies it to the partition, and advances the
    /// epoch.
    pub fn apply_batch(&mut self, batch: &Batch) -> SliceTallies {
        let (seed, shards, me) = (
            self.config.sketch.seed,
            self.config.shards,
            self.config.shard,
        );
        let slice = batch.events.iter().map(|ev| &ev.event).filter(|ev| {
            let (Event::Insert(u, v) | Event::Delete(u, v)) = **ev;
            route_edge(seed, u, v, shards) == me
        });
        let t = self.part.apply(slice, |_| {});
        self.epoch += 1;
        t
    }

    /// Makes the current retained set the digest diff baseline without
    /// shipping anything — called when silent replay reaches the epoch
    /// the coordinator already holds.
    pub fn sync_baseline(&mut self) {
        self.last_sent = Some(self.part.sketch().retained_edges().collect());
    }

    /// Builds this epoch's digest: absolute counters plus the retained
    /// set's delta against the last shipped epoch. With `rebase` (or
    /// with no baseline yet) the digest carries the whole retained set
    /// and the rebase flag. Advances the baseline.
    pub fn digest(
        &mut self,
        t: SliceTallies,
        cursor: u64,
        tail_bytes: u64,
        rebase: bool,
    ) -> ShardDigest {
        let sketch = self.part.sketch();
        let now: HashSet<(VertexId, VertexId)> = sketch.retained_edges().collect();
        let (rebase, added, dropped) = match (&self.last_sent, rebase) {
            (Some(last), false) => (
                false,
                now.difference(last).copied().collect(),
                last.difference(&now).copied().collect(),
            ),
            _ => (true, now.iter().copied().collect(), Vec::new()),
        };
        let (out, inc) = sketch.degree_trackers();
        let digest = ShardDigest {
            shard: self.config.shard as u32,
            epoch: self.epoch,
            rebase,
            events: t.events,
            inserts: t.inserts,
            deletes: t.deletes,
            ignored: t.ignored,
            n: self.part.n() as u64,
            m: sketch.m(),
            out_max: out.max(),
            out_mult: out.max_multiplicity(),
            in_max: inc.max(),
            in_mult: inc.max_multiplicity(),
            level: sketch.level(),
            mutations: sketch.sample_mutations(),
            cursor,
            tail_bytes,
            added,
            dropped,
        };
        self.last_sent = Some(now);
        digest
    }

    /// Current epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live edge count of this partition.
    #[must_use]
    pub fn m(&self) -> u64 {
        self.part.m()
    }

    /// Serializes the worker to a full checkpoint (kind
    /// [`SnapshotKind::ClusterWorker`]): identity, epoch, the partition
    /// edge set in canonical order, and the sketch's level and drift
    /// counter. The retained set is never stored — deterministic
    /// admission rebuilds it. The digest baseline is not stored either:
    /// the handshake reconstructs it (silent replay or rebase).
    #[must_use]
    pub fn snapshot(&self, cursor: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SnapshotKind::ClusterWorker, cursor);
        w.put_u32(self.config.shard as u32);
        w.put_u32(self.config.shards as u32);
        w.put_u64(self.config.sketch.seed);
        w.put_u64(self.config.sketch.state_bound as u64);
        w.put_u64(self.config.batch as u64);
        w.put_u64(self.part.n() as u64);
        w.put_u64(self.epoch);
        w.put_u32(self.part.sketch().level());
        w.put_u64(self.part.sketch().sample_mutations());
        let mut edges: Vec<(VertexId, VertexId)> = self.part.edges().collect();
        w.put_edges(&mut edges);
        w.finish()
    }

    /// Reconstructs a worker from checkpoint bytes under `config`
    /// (identity checked). Returns the worker and the stored cursor.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] on malformed bytes or an
    /// identity mismatch.
    pub fn restore(config: WorkerConfig, bytes: &[u8]) -> Result<(Self, u64), SnapshotError> {
        let (mut r, cursor) = SnapshotReader::open(bytes, SnapshotKind::ClusterWorker)?;
        let parts = WorkerSnapshotParts {
            shard: r.take_u32()? as usize,
            shards: r.take_u32()? as usize,
            seed: r.take_u64()?,
            state_bound: r.take_u64()? as usize,
            batch: r.take_u64()? as usize,
            n: r.take_u64()? as usize,
            epoch: r.take_u64()?,
            level: r.take_u32()?,
            mutations: r.take_u64()?,
            edges: r.take_edges()?,
        };
        r.finish()?;
        parts.check_identity(&config)?;
        let routed_away = |&&(u, v): &&(VertexId, VertexId)| {
            route_edge(config.sketch.seed, u, v, config.shards) != config.shard
        };
        if let Some(&(u, v)) = parts.edges.iter().find(routed_away) {
            return Err(SnapshotError::Format(format!(
                "edge ({u}, {v}) does not route to shard {}",
                config.shard
            )));
        }
        let part = Partition::restore(
            config.sketch,
            parts.n,
            parts.level,
            parts.mutations,
            parts.edges,
        )?;
        let state = WorkerState {
            config,
            part,
            epoch: parts.epoch,
            last_sent: None,
        };
        Ok((state, cursor))
    }
}

impl fmt::Display for WorkerSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} epoch {} events {} digests {} ({} B{})",
            self.shard,
            self.epoch,
            self.events,
            self.digests,
            self.digest_bytes,
            if self.rebased { ", rebased" } else { "" }
        )
    }
}

fn tail_bytes(path: &Path, cursor: u64) -> u64 {
    fs::metadata(path)
        .map(|m| m.len().saturating_sub(cursor))
        .unwrap_or(0)
}

/// Runs one worker to completion: optional checkpoint restore,
/// handshake, follow-and-ship loop with periodic checkpoints, a closing
/// checkpoint, `Bye`. Returns when the event stream goes idle past
/// `opts.idle_exit`.
///
/// # Errors
/// Returns [`WireError`] on connection loss, a handshake rejection
/// (identity mismatch at the coordinator), or checkpoint I/O failure.
pub fn run_worker(
    config: WorkerConfig,
    events_path: &Path,
    connect: &str,
    opts: &WorkerOptions,
) -> Result<WorkerSummary, WireError> {
    let checkpoint = opts.checkpoint.as_deref();
    let (mut state, start_cursor) = match checkpoint {
        Some(ck) if opts.resume && ck.exists() => {
            WorkerState::restore(config, &read_snapshot_file(ck)?)?
        }
        _ => (WorkerState::new(config), 0),
    };

    let mut stream = TcpStream::connect(connect)?;
    stream.set_nodelay(true).ok();
    write_preamble(&mut stream)?;
    write_frame(
        &mut stream,
        Frame::Hello(Hello {
            shard: config.shard as u32,
            shards: config.shards as u32,
            seed: config.sketch.seed,
            state_bound: config.sketch.state_bound as u64,
            batch: config.batch as u64,
            last_epoch: state.epoch(),
        }),
    )?;
    let resume_from = match read_frame(&mut stream)? {
        Some((Frame::HelloAck { resume_from }, _)) => resume_from,
        Some((other, _)) => {
            return Err(WireError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            )))
        }
        None => {
            return Err(WireError::Protocol(
                "coordinator closed the connection during the handshake \
                 (identity mismatch with the cluster?)"
                    .to_string(),
            ))
        }
    };

    let mut summary = WorkerSummary {
        shard: config.shard,
        epoch: state.epoch(),
        events: 0,
        digests: 0,
        digest_bytes: 0,
        rebased: false,
        cursor: start_cursor,
    };
    if state.epoch() > resume_from {
        // The coordinator lost (or never folded) epochs our checkpoint
        // holds: replace its replica wholesale and ship onward.
        let tail = tail_bytes(events_path, start_cursor);
        let digest = state.digest(SliceTallies::default(), start_cursor, tail, true);
        summary.digest_bytes += write_frame(&mut stream, Frame::Digest(digest))?;
        summary.digests += 1;
        summary.rebased = true;
    } else if state.epoch() == resume_from {
        state.sync_baseline();
    }
    // When state.epoch() < resume_from the epochs up to resume_from
    // replay silently below — the coordinator already folded them.

    let mut failure: Option<WireError> = None;
    let outcome = follow_events(
        events_path,
        FollowConfig {
            batch: config.batch,
            poll: opts.poll,
            idle_exit: opts.idle_exit,
            cursor: start_cursor,
        },
        |batch, cursor| {
            let tallies = state.apply_batch(&batch);
            summary.events += tallies.events;
            let result = (|| -> Result<(), WireError> {
                if state.epoch() == resume_from {
                    state.sync_baseline();
                } else if state.epoch() > resume_from {
                    let tail = tail_bytes(events_path, cursor);
                    let digest = state.digest(tallies, cursor, tail, false);
                    summary.digest_bytes += write_frame(&mut stream, Frame::Digest(digest))?;
                    summary.digests += 1;
                }
                if let Some(ck) = checkpoint {
                    if state.epoch().is_multiple_of(opts.checkpoint_every) {
                        write_snapshot_file(&state.snapshot(cursor), ck)?;
                    }
                }
                Ok(())
            })();
            match result {
                Ok(()) => ControlFlow::Continue(()),
                Err(e) => {
                    failure = Some(e);
                    ControlFlow::Break(())
                }
            }
        },
    )
    .map_err(stream_err)?;
    if let Some(e) = failure {
        return Err(e);
    }
    if let Some(ck) = checkpoint {
        write_snapshot_file(&state.snapshot(outcome.cursor), ck)?;
    }
    summary.epoch = state.epoch();
    summary.cursor = outcome.cursor;
    write_frame(
        &mut stream,
        Frame::Bye {
            shard: config.shard as u32,
        },
    )?;
    // Give the coordinator a chance to drain before the socket drops.
    stream.shutdown(std::net::Shutdown::Write).or_else(|e| {
        if e.kind() == io::ErrorKind::NotConnected {
            Ok(())
        } else {
            Err(e)
        }
    })?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_stream::TimedEvent;

    fn config() -> WorkerConfig {
        WorkerConfig {
            shard: 1,
            shards: 3,
            batch: 8,
            sketch: SketchConfig {
                state_bound: 64,
                ..SketchConfig::default()
            },
        }
    }

    fn batch_of(range: std::ops::Range<u32>) -> Batch {
        Batch::from_events(
            range
                .map(|i| TimedEvent {
                    time: u64::from(i),
                    event: Event::Insert(i % 40, (i * 7 + 1) % 40),
                })
                .collect(),
        )
    }

    #[test]
    fn apply_filters_to_the_routed_slice() {
        let cfg = config();
        let mut w = WorkerState::new(cfg);
        let batch = batch_of(0..200);
        let t = w.apply_batch(&batch);
        let expect: u64 = batch
            .events
            .iter()
            .map(|ev| match ev.event {
                Event::Insert(u, v) | Event::Delete(u, v) => {
                    u64::from(route_edge(cfg.sketch.seed, u, v, cfg.shards) == cfg.shard)
                }
            })
            .sum();
        assert_eq!(t.events, expect);
        assert_eq!(t.inserts + t.ignored, t.events);
        assert_eq!(w.epoch(), 1);
        assert!(w.part.edges().all(|(u, v)| {
            route_edge(cfg.sketch.seed, u, v, cfg.shards) == cfg.shard && u != v
        }));
    }

    #[test]
    fn digests_delta_against_the_last_shipped_epoch() {
        let mut w = WorkerState::new(config());
        let t = w.apply_batch(&batch_of(0..100));
        let first = w.digest(t, 10, 0, false);
        assert!(first.rebase, "no baseline yet: full set with rebase flag");
        assert!(first.dropped.is_empty());
        let t = w.apply_batch(&batch_of(100..140));
        let second = w.digest(t, 20, 0, false);
        assert!(!second.rebase);
        // Replaying the deltas over the first set yields the current set.
        let mut replica: HashSet<(VertexId, VertexId)> = first.added.iter().copied().collect();
        for e in &second.dropped {
            assert!(replica.remove(e));
        }
        for e in &second.added {
            assert!(replica.insert(*e));
        }
        let now: HashSet<(VertexId, VertexId)> = w.part.sketch().retained_edges().collect();
        assert_eq!(replica, now);
        assert_eq!(second.m, w.m());
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_identity_mismatch() {
        let cfg = config();
        let mut w = WorkerState::new(cfg);
        w.apply_batch(&batch_of(0..300));
        let snap = w.snapshot(77);
        let (restored, cursor) = WorkerState::restore(cfg, &snap).expect("restore");
        assert_eq!(cursor, 77);
        assert_eq!(restored.snapshot(77), snap, "round trip is bit-identical");
        let mut wrong = cfg;
        wrong.batch = 16;
        let err = WorkerState::restore(wrong, &snap).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("batch size (checkpoint 8, requested 16)"),
            "{msg}"
        );
        assert!(msg.contains("re-hash"), "{msg}");
    }
}
