//! Zero-dependency observability for the DDS engines: a metrics registry
//! (counters, gauges, log2-bucket latency histograms) with lock-cheap
//! handles, a Prometheus-style text exposition writer, a JSONL snapshot
//! writer, and lightweight structured tracing ([`Tracer`] / [`Span`]).
//!
//! # Design
//!
//! The engines own their counters whether or not anyone is scraping them:
//! a [`Counter`] or [`Gauge`] is a single relaxed atomic the stats structs
//! (`SolveStats`, `SketchStats`, `ShardStats`) read as *views*, so the
//! always-on cost is one `fetch_add` at epoch-level fold points — never in
//! a flow inner loop. Everything beyond that — latency histograms, span
//! emission, file exposition — is **off by default** with an exact no-op
//! fast path: a detached [`Histogram`] is a `None` and observes nothing,
//! a detached [`Tracer`] hands out inert spans, and neither ever calls
//! `Instant::now`. Attaching a [`Registry`] (the `--metrics` flag) swaps
//! the handles for registered ones, transferring the values accumulated
//! so far, so a scrape always sees lifetime totals.
//!
//! # Naming
//!
//! Metrics follow `dds_<tier>_<name>` with Prometheus-style suffixes:
//! `_total` for counters, `_us` for microsecond histograms, bare names
//! for gauges. See the README's Observability section for the full
//! taxonomy.

mod http;
mod profile;
mod slow;
mod trace;

pub use http::{http_get, AdminRig, AdminServer, StatusBoard};
pub use profile::{render_folded, render_table, TraceProfile};
pub use slow::{SlowOp, SlowRing};
pub use trace::{Span, Tracer};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Histogram bucket count: bucket `i ≥ 1` covers `[2^(i-1), 2^i)` µs and
/// bucket 0 covers exactly 0 µs; the last bucket saturates (it absorbs
/// everything at or above `2^(BUCKETS-2)` µs ≈ 18 minutes).
pub const BUCKETS: usize = 32;

/// A monotonically increasing counter (one relaxed atomic).
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Default for Counter {
    fn default() -> Self {
        Counter::standalone()
    }
}

impl Counter {
    /// A counter not registered anywhere — the engines' default state.
    /// [`Registry::counter`] hands out registered ones.
    #[must_use]
    pub fn standalone() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Overwrites the value. **Restore-only**: snapshot restores put a
    /// saved counter back so a resumed process reports lifetime totals;
    /// live code paths must only ever [`add`](Counter::add).
    pub fn store(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Re-homes this handle into `registry` under `name`: the value
    /// counted so far is added to the registered counter (which other
    /// handles may share, so per-shard counts sum), and the handle then
    /// points at it.
    pub fn rehome(&mut self, registry: &Registry, name: &str) {
        let registered = registry.counter(name);
        registered.add(self.get());
        *self = registered;
    }
}

/// A point-in-time value (one relaxed atomic, set at fold points).
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::standalone()
    }
}

impl Gauge {
    /// A gauge not registered anywhere.
    #[must_use]
    pub fn standalone() -> Self {
        Gauge {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Sets the value.
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Adds 1 (occupancy gauges: a reader going busy).
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts 1, saturating at 0. Must pair with [`Gauge::inc`]; the
    /// saturation only guards against a missed increment turning the
    /// gauge into a u64 wraparound.
    pub fn dec(&self) {
        let _ = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Re-homes this handle into `registry` under `name`, carrying the
    /// current value over.
    pub fn rehome(&mut self, registry: &Registry, name: &str) {
        let registered = registry.gauge(name);
        registered.set(self.get());
        *self = registered;
    }
}

/// The staleness/lag gauge family (`dds_lag_*`): how far a serving
/// process trails its input and its readers. Starts as standalone cells
/// (engine pattern); [`LagGauges::attach_obs`] re-homes the handles into
/// a registry so scrapes and the serve `STATS` verb see live values.
#[derive(Clone, Debug, Default)]
pub struct LagGauges {
    /// Epochs between the last sealed epoch and the last published
    /// query snapshot (serve mode; 0 when publish keeps up).
    pub snapshot_age_epochs: Gauge,
    /// Bytes of the event file trailing the ingest cursor (follow mode).
    pub tail_bytes: Gauge,
    /// Last seal→publish latency in µs (serve mode).
    pub seal_publish_us: Gauge,
    /// Cumulative follow-loop idle time (waiting for new events), ms.
    pub follow_idle_ms: Gauge,
}

impl LagGauges {
    /// Fresh standalone gauges.
    #[must_use]
    pub fn standalone() -> Self {
        LagGauges::default()
    }

    /// Re-homes the handles into `registry` under the `dds_lag_*` names,
    /// carrying the current values over.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.snapshot_age_epochs
            .rehome(registry, "dds_lag_snapshot_age_epochs");
        self.tail_bytes.rehome(registry, "dds_lag_tail_bytes");
        self.seal_publish_us
            .rehome(registry, "dds_lag_seal_publish_us");
        self.follow_idle_ms
            .rehome(registry, "dds_lag_follow_idle_ms");
    }
}

#[derive(Debug, Default)]
struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

/// A fixed-bucket latency histogram: log2 buckets at µs resolution.
///
/// The default handle is **detached** (an exact no-op — observing costs a
/// branch, [`Histogram::timer`] never reads the clock); a handle from
/// [`Registry::histogram`] is live. Bucket layout: see [`BUCKETS`].
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

/// Which bucket a µs value lands in: 0 for 0, else `1 + floor(log2 v)`,
/// saturating at the last bucket.
#[must_use]
pub fn bucket_of(us: u64) -> usize {
    ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// The detached no-op handle (also [`Default`]).
    #[must_use]
    pub fn detached() -> Self {
        Histogram { cell: None }
    }

    /// Whether observations actually record (false for the no-op handle).
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.cell.is_some()
    }

    /// Records one µs observation.
    pub fn observe_us(&self, us: u64) {
        if let Some(cell) = &self.cell {
            cell.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum_us.fetch_add(us, Ordering::Relaxed);
        }
    }

    /// Records a duration (truncated to whole µs, saturating).
    pub fn observe(&self, d: Duration) {
        if self.cell.is_some() {
            self.observe_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        }
    }

    /// Starts a timer that observes on [`HistTimer::stop`]. The detached
    /// handle's timer never reads the clock — the no-op fast path for
    /// code that has no `Instant` of its own.
    #[must_use]
    pub fn timer(&self) -> HistTimer {
        HistTimer {
            histogram: self.clone(),
            start: self.cell.as_ref().map(|_| Instant::now()),
        }
    }

    /// Folds another histogram's observations into this one (used when
    /// per-worker histograms collapse into one). No-op unless both are
    /// live.
    pub fn merge(&self, other: &Histogram) {
        if let (Some(a), Some(b)) = (&self.cell, &other.cell) {
            for (dst, src) in a.buckets.iter().zip(&b.buckets) {
                dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            a.count
                .fetch_add(b.count.load(Ordering::Relaxed), Ordering::Relaxed);
            a.sum_us
                .fetch_add(b.sum_us.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of observed µs.
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.sum_us.load(Ordering::Relaxed))
    }

    /// Per-bucket counts (all zeros for the detached handle).
    #[must_use]
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        if let Some(cell) = &self.cell {
            for (dst, src) in out.iter_mut().zip(&cell.buckets) {
                *dst = src.load(Ordering::Relaxed);
            }
        }
        out
    }
}

/// An in-flight histogram observation (see [`Histogram::timer`]).
#[derive(Debug)]
pub struct HistTimer {
    histogram: Histogram,
    start: Option<Instant>,
}

impl HistTimer {
    /// Stops the timer and records the elapsed time (no-op when the
    /// histogram is detached).
    pub fn stop(self) {
        if let Some(start) = self.start {
            self.histogram.observe(start.elapsed());
        }
    }
}

#[derive(Clone, Debug)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics, shared by handle ([`Clone`] is cheap).
///
/// `counter`/`gauge`/`histogram` get-or-create by name: asking twice for
/// the same name yields handles over the same cell, which is how several
/// engines (e.g. per-shard sketches) sum into one series.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    slots: Arc<Mutex<BTreeMap<String, Slot>>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Slot {
        let mut slots = self.slots.lock().expect("registry poisoned");
        slots.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// A registered counter handle (get-or-create).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Counter::standalone())) {
            Slot::Counter(c) => c,
            other => panic!("{name} is registered as a {}", other.kind()),
        }
    }

    /// A registered gauge handle (get-or-create).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Gauge::standalone())) {
            Slot::Gauge(g) => g,
            other => panic!("{name} is registered as a {}", other.kind()),
        }
    }

    /// A registered (live) histogram handle (get-or-create).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let live = || {
            Slot::Histogram(Histogram {
                cell: Some(Arc::new(HistogramCell::default())),
            })
        };
        match self.slot(name, live) {
            Slot::Histogram(h) => h,
            other => panic!("{name} is registered as a {}", other.kind()),
        }
    }

    /// The value of a registered counter, if any (tests, reconciliation).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.slots.lock().expect("registry poisoned").get(name) {
            Some(Slot::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// The value of a registered gauge, if any.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        match self.slots.lock().expect("registry poisoned").get(name) {
            Some(Slot::Gauge(g)) => Some(g.get()),
            _ => None,
        }
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (`# TYPE` comments, `_bucket{le="..."}`/`_sum`/`_count` series for
    /// histograms, with `le` the exclusive power-of-two upper edge).
    #[must_use]
    pub fn exposition(&self) -> String {
        let slots = self.slots.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, slot) in slots.iter() {
            let _ = writeln!(out, "# TYPE {name} {}", slot.kind());
            match slot {
                Slot::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Slot::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Slot::Histogram(h) => {
                    let buckets = h.buckets();
                    let mut cumulative = 0u64;
                    for (i, n) in buckets.iter().enumerate() {
                        cumulative += n;
                        if i + 1 < BUCKETS {
                            let _ =
                                writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", 1u64 << i);
                        }
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    let _ = writeln!(out, "{name}_sum {}", h.sum_us());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// Renders every metric as one JSON object per line (the snapshot
    /// format appended to trace/summary files).
    #[must_use]
    pub fn jsonl_snapshot(&self) -> String {
        let slots = self.slots.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    let _ = writeln!(
                        out,
                        "{{\"metric\":\"{name}\",\"type\":\"counter\",\"value\":{}}}",
                        c.get()
                    );
                }
                Slot::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{{\"metric\":\"{name}\",\"type\":\"gauge\",\"value\":{}}}",
                        g.get()
                    );
                }
                Slot::Histogram(h) => {
                    let buckets = h.buckets();
                    let rendered: Vec<String> = buckets.iter().map(|n| n.to_string()).collect();
                    let _ = writeln!(
                        out,
                        "{{\"metric\":\"{name}\",\"type\":\"histogram\",\"count\":{},\"sum_us\":{},\"buckets\":[{}]}}",
                        h.count(),
                        h.sum_us(),
                        rendered.join(",")
                    );
                }
            }
        }
        out
    }

    /// Writes [`Registry::exposition`] to `path` atomically (temp file in
    /// the same directory, then rename), so a scraper never reads a torn
    /// file.
    ///
    /// # Errors
    /// Returns the underlying IO error.
    pub fn write_exposition_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), self.exposition().as_bytes())
    }

    /// Writes [`Registry::jsonl_snapshot`] to `path` atomically.
    ///
    /// # Errors
    /// Returns the underlying IO error.
    pub fn write_jsonl_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), self.jsonl_snapshot().as_bytes())
    }
}

/// Writes `bytes` to `path` atomically: a `.tmp` sibling is written,
/// flushed, and renamed over the target.
///
/// # Errors
/// Returns the underlying IO error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// One parsed exposition sample: counters, gauges, and histogram series
/// are rendered as unsigned integers and parse back **exactly** (an `f64`
/// round-trip would silently corrupt counters past 2^53); only genuinely
/// non-integer samples fall back to `Float`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// An exactly-parsed non-negative integer sample.
    Int(u64),
    /// A non-integer (or out-of-`u64`-range) sample.
    Float(f64),
}

impl MetricValue {
    /// The sample as an `f64` (lossy past 2^53 for `Int`).
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        match *self {
            MetricValue::Int(v) => v as f64,
            MetricValue::Float(v) => v,
        }
    }

    /// The exact integer sample, if this is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            MetricValue::Int(v) => Some(v),
            MetricValue::Float(_) => None,
        }
    }
}

impl PartialEq<u64> for MetricValue {
    fn eq(&self, other: &u64) -> bool {
        matches!(*self, MetricValue::Int(v) if v == *other)
    }
}

impl PartialEq<f64> for MetricValue {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == *other
    }
}

impl std::fmt::Display for MetricValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MetricValue::Int(v) => write!(f, "{v}"),
            MetricValue::Float(v) => write!(f, "{v}"),
        }
    }
}

/// Parses a text exposition back into `name → value` samples (histogram
/// series appear under their full sample names, e.g. `foo_count`).
/// This is the smoke-test side of [`Registry::exposition`]: it validates
/// the format strictly enough that a torn or malformed file fails.
/// Integer samples parse exactly ([`MetricValue::Int`]); `f64` is only
/// the fallback for non-integer fields.
///
/// # Errors
/// Returns a description of the first malformed line.
pub fn parse_exposition(text: &str) -> Result<BTreeMap<String, MetricValue>, String> {
    let mut out = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut fields = rest.split_whitespace();
            let (name, kind) = (fields.next(), fields.next());
            if name.is_none() || !matches!(kind, Some("counter" | "gauge" | "histogram")) {
                return Err(format!("line {}: malformed TYPE comment", idx + 1));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no sample value", idx + 1))?;
        let value = match value_part.parse::<u64>() {
            Ok(v) => MetricValue::Int(v),
            Err(_) => MetricValue::Float(
                value_part
                    .parse::<f64>()
                    .map_err(|_| format!("line {}: bad sample value {value_part:?}", idx + 1))?,
            ),
        };
        let name = match name_part.split_once('{') {
            Some((base, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated label set", idx + 1))?;
                format!("{base}{{{labels}}}")
            }
            None => name_part.to_string(),
        };
        if name.is_empty() {
            return Err(format!("line {}: empty metric name", idx + 1));
        }
        out.insert(name, value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_by_name() {
        let reg = Registry::new();
        let a = reg.counter("dds_test_total");
        let b = reg.counter("dds_test_total");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.counter_value("dds_test_total"), Some(4));
        let g = reg.gauge("dds_test_level");
        g.set(7);
        assert_eq!(reg.gauge_value("dds_test_level"), Some(7));
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn name_collisions_across_types_panic() {
        let reg = Registry::new();
        let _ = reg.counter("dds_test_total");
        let _ = reg.gauge("dds_test_total");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 holds exactly 0; bucket i ≥ 1 holds [2^(i-1), 2^i).
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of((1 << 30) - 1), 30);
    }

    #[test]
    fn histogram_saturates_at_the_last_bucket() {
        assert_eq!(bucket_of(1 << 30), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        let reg = Registry::new();
        let h = reg.histogram("dds_test_us");
        h.observe_us(u64::MAX);
        h.observe_us(1 << 40);
        assert_eq!(h.buckets()[BUCKETS - 1], 2);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_merge_adds_buckets_counts_and_sums() {
        let reg = Registry::new();
        let a = reg.histogram("dds_test_a_us");
        let b = reg.histogram("dds_test_b_us");
        a.observe_us(0);
        a.observe_us(5);
        b.observe_us(5);
        b.observe_us(100);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum_us(), 110);
        assert_eq!(a.buckets()[bucket_of(5)], 2);
        assert_eq!(a.buckets()[bucket_of(100)], 1);
        assert_eq!(a.buckets()[0], 1);
        // Merging into a detached histogram is an exact no-op.
        let noop = Histogram::detached();
        noop.merge(&a);
        assert_eq!(noop.count(), 0);
    }

    #[test]
    fn detached_histogram_is_an_exact_noop() {
        let h = Histogram::detached();
        assert!(!h.is_live());
        h.observe_us(10);
        h.observe(Duration::from_millis(1));
        let t = h.timer();
        t.stop();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_us(), 0);
        assert_eq!(h.buckets(), [0u64; BUCKETS]);
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let reg = Registry::new();
        reg.counter("dds_stream_epochs_total").add(42);
        reg.gauge("dds_sketch_level").set(3);
        let h = reg.histogram("dds_stream_apply_latency_us");
        h.observe_us(7);
        h.observe_us(900);
        let text = reg.exposition();
        let samples = parse_exposition(&text).expect("own exposition must parse");
        assert_eq!(samples["dds_stream_epochs_total"], 42u64);
        assert_eq!(samples["dds_sketch_level"], 3u64);
        assert_eq!(samples["dds_stream_apply_latency_us_count"], 2u64);
        assert_eq!(samples["dds_stream_apply_latency_us_sum"], 907u64);
        assert_eq!(
            samples["dds_stream_apply_latency_us_bucket{le=\"+Inf\"}"],
            2u64
        );
        // Cumulative buckets: everything ≤ 1024 covers both samples.
        assert_eq!(
            samples["dds_stream_apply_latency_us_bucket{le=\"1024\"}"],
            2u64
        );
        assert_eq!(
            samples["dds_stream_apply_latency_us_bucket{le=\"8\"}"],
            1u64
        );
    }

    #[test]
    fn parser_keeps_counters_past_f64_precision_exact() {
        // 2^53 + 1 is the first integer an f64 cannot represent: the old
        // f64 round-trip silently mapped it to 2^53. The parser must hand
        // the exact integer back.
        let big = (1u64 << 53) + 1;
        let reg = Registry::new();
        reg.counter("dds_test_big_total").add(big);
        let samples = parse_exposition(&reg.exposition()).expect("parse");
        assert_eq!(samples["dds_test_big_total"], MetricValue::Int(big));
        assert_eq!(samples["dds_test_big_total"].as_u64(), Some(big));
        assert_ne!(
            samples["dds_test_big_total"],
            MetricValue::Int(1u64 << 53),
            "the exact value must survive, not the f64 rounding"
        );
        // Non-integer samples still parse, as the f64 fallback.
        let parsed = parse_exposition("name 1.5\n").expect("float sample");
        assert_eq!(parsed["name"], MetricValue::Float(1.5));
        assert_eq!(parsed["name"].as_u64(), None);
    }

    #[test]
    fn parser_rejects_malformed_expositions() {
        assert!(parse_exposition("# TYPE broken\n").is_err());
        assert!(parse_exposition("name_without_value\n").is_err());
        assert!(parse_exposition("name not_a_number\n").is_err());
        assert!(parse_exposition("name{le=\"1\" 3\n").is_err());
    }

    #[test]
    fn jsonl_snapshot_has_one_object_per_metric() {
        let reg = Registry::new();
        reg.counter("dds_a_total").add(1);
        reg.histogram("dds_b_us").observe_us(3);
        let text = reg.jsonl_snapshot();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"metric\":\"dds_a_total\""));
        assert!(text.contains("\"type\":\"histogram\""));
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn atomic_write_replaces_the_target() {
        let path = std::env::temp_dir().join(format!(
            "dds_obs_atomic_{}_{:?}.prom",
            std::process::id(),
            std::thread::current().id()
        ));
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("prom.tmp").exists());
        std::fs::remove_file(&path).ok();
    }
}
