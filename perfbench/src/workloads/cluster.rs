//! The sharded cluster path, measured standalone in churn-serve's traced
//! iterations on the churn-serve stream itself: the E20 operating point
//! in-process — K = 4 shard workers whose per-epoch digests cross the DDSC
//! wire (encode, decode) into the merging coordinator. It is the only
//! code that exercises dds-sketch, the dds-cluster merge and the wire.
//! Its epochs are dominated by exact-on-sketch escalations whose cost is
//! heavy-tailed across inputs, so it reports layer metrics only and gates
//! no end-to-end metric.

use dds_cluster::{
    ClusterConfig, ClusterCore, ClusterEpoch, Frame, ShardDigest, WorkerConfig, WorkerState,
};
use dds_core::DcExact;
use dds_sketch::SketchConfig;
use dds_stream::{Batch, DynamicGraph, Event, TimedEvent};

use super::{share, within, Checks, Stopwatch};
use crate::metrics::{self, MetricSet};
use crate::trace::Spans;

const SHARDS: usize = 4;
/// Global events per epoch.
const BATCH: usize = 1_000;
/// Retained sample edges per shard.
const STATE_BOUND: usize = 250;
/// Epochs measured after the warm-up prefix.
const EPOCHS: usize = 60;
/// Measured epochs whose bracket is checked against a fresh exact solve
/// of a mirror graph (the last one always is).
const EXACT_SAMPLES: usize = 2;

/// Bytes of the event's line in the event file (the raw traffic digests
/// are compared against).
fn raw_bytes(ev: &TimedEvent) -> u64 {
    let (sign, u, v) = match ev.event {
        Event::Insert(u, v) => ('+', u, v),
        Event::Delete(u, v) => ('-', u, v),
    };
    format!("{} {sign} {u} {v}\n", ev.time).len() as u64
}

fn canonical(mut d: ShardDigest) -> ShardDigest {
    d.added.sort_unstable();
    d.dropped.sort_unstable();
    d
}

struct Cluster {
    core: ClusterCore,
    workers: Vec<WorkerState>,
}

impl Cluster {
    fn new() -> Self {
        let sketch = SketchConfig {
            state_bound: STATE_BOUND,
            ..SketchConfig::default()
        };
        let core = ClusterCore::new(ClusterConfig {
            shards: SHARDS,
            batch: BATCH,
            refresh_drift: 0.25,
            sketch,
        });
        let workers = (0..SHARDS)
            .map(|shard| {
                let mut w = WorkerState::new(WorkerConfig {
                    shard,
                    shards: SHARDS,
                    batch: BATCH,
                    sketch,
                });
                w.sync_baseline();
                w
            })
            .collect();
        Cluster { core, workers }
    }

    /// One global epoch: every worker applies its slice and digests it,
    /// each digest is encoded, decoded and offered, then the coordinator
    /// seals. `clock` runs only around library calls; each decoded frame
    /// is checked (untimed) against the digest that was encoded.
    fn epoch(
        &mut self,
        b: &Batch,
        spans: &mut Spans,
        clock: &mut Stopwatch,
        checks: &mut Checks,
    ) -> ClusterEpoch {
        for w in &mut self.workers {
            clock.start();
            let s = spans.enter("cluster.worker");
            let tallies = w.apply_batch(b);
            let digest = w.digest(tallies, 0, 0, false);
            spans.exit(s);
            clock.stop();
            let sent = canonical(digest.clone());

            clock.start();
            let s = spans.enter("cluster.encode");
            let bytes = Frame::Digest(digest).encode();
            spans.exit(s);
            let s = spans.enter("cluster.decode");
            let frame = Frame::decode(&bytes).expect("a frame this process encoded decodes");
            spans.exit(s);
            clock.stop();
            let Frame::Digest(d) = frame else {
                unreachable!("a digest frame decodes to a digest")
            };
            checks.op(d == sent, || {
                format!(
                    "shard {} epoch {}: frame decodes to another digest",
                    sent.shard, sent.epoch
                )
            });

            clock.start();
            let s = spans.enter("cluster.coord");
            self.core
                .offer(d, bytes.len() as u64)
                .expect("the coordinator takes in-order digests");
            spans.exit(s);
            clock.stop();
        }
        clock.start();
        let s = spans.enter("cluster.coord");
        let sealed = self
            .core
            .seal_next(false)
            .expect("folding a fresh digest never desyncs")
            .expect("every slot is fresh, so the epoch seals");
        spans.exit(s);
        clock.stop();
        sealed
    }
}

fn apply_to(mirror: &mut DynamicGraph, b: &Batch) {
    for ev in &b.events {
        match ev.event {
            Event::Insert(u, v) => mirror.insert(u, v),
            Event::Delete(u, v) => mirror.delete(u, v),
        };
    }
}

/// Replays the warm-up prefix (`prefix` events, whole epochs) and then
/// [`EPOCHS`] epochs of `events` through the cluster path, recording
/// `cluster.*` spans for the measured epochs and checking every frame,
/// every seal, and sampled brackets against a mirror graph.
pub fn measure(
    events: &[TimedEvent],
    prefix: usize,
    spans: &mut Spans,
    checks: &mut Checks,
) -> MetricSet {
    let batches: Vec<(Batch, u64)> = events
        .chunks(BATCH)
        .map(|c| {
            (
                Batch::from_events(c.to_vec()),
                c.iter().map(raw_bytes).sum(),
            )
        })
        .collect();
    let warm = prefix.div_ceil(BATCH).min(batches.len());
    let (warm, rest) = batches.split_at(warm);
    let rest = &rest[..EPOCHS.min(rest.len())];
    let mut cluster = Cluster::new();
    let mut mirror = DynamicGraph::new();
    let mut idle = Stopwatch::default();
    for (b, _) in warm {
        cluster.epoch(b, &mut Spans::new(false), &mut idle, checks);
        apply_to(&mut mirror, b);
    }

    let samples: Vec<usize> = (1..=EXACT_SAMPLES)
        .map(|k| k * rest.len() / (EXACT_SAMPLES + 1))
        .chain([rest.len().saturating_sub(1)])
        .collect();
    let (bytes0, refreshes0, escalations0) = (
        cluster.core.digest_bytes(),
        cluster.core.refreshes(),
        cluster.core.escalations(),
    );
    let mut clock = Stopwatch::default();
    let mut epoch_us = Vec::with_capacity(rest.len());
    let (mut worst, mut raw) = (1.0f64, 0u64);
    let mut last = None;
    for (k, (b, b_raw)) in rest.iter().enumerate() {
        let before = clock.total_s();
        let e = cluster.epoch(b, spans, &mut clock, checks);
        epoch_us.push((clock.total_s() - before) * 1e6);
        raw += b_raw;
        worst = worst.max(e.certified_factor());
        checks.op(!e.degraded && e.lower <= e.upper, || {
            format!(
                "cluster epoch {}: degraded seal or inverted bracket",
                e.epoch
            )
        });
        apply_to(&mut mirror, b);
        if samples.contains(&k) {
            let rho = DcExact::new()
                .solve(&mirror.materialize())
                .solution
                .density
                .to_f64();
            checks.op(within(rho, e.lower, e.upper), || {
                format!(
                    "cluster epoch {}: exact density {rho} outside [{}, {}]",
                    e.epoch, e.lower, e.upper
                )
            });
        }
        last = Some(e);
    }

    let core = &cluster.core;
    let digest_bytes = core.digest_bytes() - bytes0;
    let refreshes = core.refreshes() - refreshes0;
    let escalations = core.escalations() - escalations0;
    let n = epoch_us.len();
    let lat = metrics::sorted(epoch_us);
    let mut m = MetricSet::default();
    m.put("cluster.digest_bytes", digest_bytes as f64, "bytes", "");
    m.put(
        "cluster.digest_ratio",
        share(digest_bytes as f64, raw as f64),
        "ratio",
        format!("of {raw} raw event bytes"),
    );
    m.put("cluster.refreshes", refreshes as f64, "count", "");
    m.put("cluster.escalations", escalations as f64, "count", "");
    m.put(
        "cluster.escalation_share",
        share(escalations as f64, refreshes as f64),
        "ratio",
        "escalations per merged refresh",
    );
    m.put(
        "cluster.bracket_max",
        worst,
        "x",
        "worst certified upper/lower",
    );
    m.put("cluster.epoch_samples", n as f64, "count", "");
    m.put_pct("cluster.epoch_p50_us", metrics::percentile(&lat, 50.0), n);
    m.put_pct("cluster.epoch_tail_us", metrics::tail(&lat), n);
    if let Some(last) = last {
        m.put(
            "sketch.retained",
            last.retained as f64,
            "count",
            "replica edges at the last epoch",
        );
        m.put(
            "sketch.merged_level",
            f64::from(last.merged_level),
            "count",
            "",
        );
    }
    m
}
