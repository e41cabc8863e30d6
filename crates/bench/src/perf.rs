//! Machine-readable perf trajectory for the streaming experiments.
//!
//! `dds-bench full [--quick] [--dir D]` measures the perf-tracked
//! experiments (the streaming suite E12–E16, the worker-pool exact
//! kernel E17, the query-serving tier E18, the admin introspection
//! plane E19, and the cross-process cluster tier E20) and writes one
//! `BENCH_<EXP>.json` per
//! experiment; `dds-bench compare [--dir D]` re-measures each experiment
//! in the mode its committed baseline records and diffs the counters,
//! failing on regressions past tolerance. The JSON is deliberately flat
//! — one `"key": value` pair per line — so [`parse_record`] needs no
//! JSON library and doubles as the schema validator CI runs.
//!
//! Each measurement is also its workload's CI gate. It asserts the
//! experiment's contracts outside the timed region: the planted block is
//! reached (E13, E17), every window epoch stays in band (E14), the
//! sampled tiers' brackets contain fresh exact solves of an independent
//! mirror (E15, E16), and the serving contracts hold (E18, E19). The
//! committed records are full mode, so `compare` runs the gates at their
//! full sizes, and its counter rule bounds the work each one does.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use dds_core::{parallel, DcExact, ExactOptions, SolveContext, SolveStats};
use dds_num::Density;
use dds_shard::{Partition, ShardConfig, ShardedEngine};
use dds_sketch::SketchConfig;
use dds_stream::{
    replay, replay_window, Batch, BatchBy, DynamicGraph, Event, StreamConfig, StreamEngine,
    TimedEvent, WindowConfig, WindowEngine, WindowMode,
};

use crate::report::time;
use crate::{stream_workloads, workloads};

/// The experiments `full`/`compare` cover, in order.
pub const EXPERIMENTS: [&str; 9] = [
    "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "e20",
];

/// Relative tolerance on deterministic counters when comparing runs.
/// The streams are seeded and the engines deterministic, so counters
/// should match exactly; the slack absorbs deliberate small tunings
/// without letting a policy regression (2x refresh storm) through.
pub const COUNTER_TOLERANCE: f64 = 0.10;
/// Absolute slack on tiny counters (|new - old| ≤ this always passes).
pub const COUNTER_SLACK: u64 = 2;
/// Relative tolerance on realized factors (bracket quality).
pub const FACTOR_TOLERANCE: f64 = 0.10;
/// Wall-clock tolerance: `new ≤ old * WALL_FACTOR + WALL_SLACK_MS`.
/// Generous on purpose — baselines travel between machines; the wall
/// check only catches order-of-magnitude cost regressions.
pub const WALL_FACTOR: f64 = 5.0;
/// Absolute wall slack in milliseconds.
pub const WALL_SLACK_MS: u64 = 1_000;

/// One experiment's measured perf record.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Experiment id (`e12`…`e20`).
    pub exp: String,
    /// Workload mode: `quick` or `full`.
    pub mode: String,
    /// Wall-clock of the measured replay, in milliseconds.
    pub wall_ms: u64,
    /// Deterministic work counters (epochs, re-solves, flow decisions…).
    pub counters: BTreeMap<String, u64>,
    /// Realized quality factors (certified bracket ratios and the like).
    pub factors: BTreeMap<String, f64>,
}

impl BenchRecord {
    /// Renders the flat JSON document [`parse_record`] accepts.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut entries = vec![
            format!("  \"exp\": \"{}\"", self.exp),
            format!("  \"mode\": \"{}\"", self.mode),
            format!("  \"wall_ms\": {}", self.wall_ms),
        ];
        for (k, v) in &self.counters {
            entries.push(format!("  \"counter.{k}\": {v}"));
        }
        for (k, v) in &self.factors {
            entries.push(format!("  \"factor.{k}\": {v:.6}"));
        }
        let mut s = String::from("{\n");
        let _ = write!(s, "{}", entries.join(",\n"));
        s.push_str("\n}\n");
        s
    }

    /// The file name a record lands under: `BENCH_E12.json` etc.
    #[must_use]
    pub fn file_name(exp: &str) -> String {
        format!("BENCH_{}.json", exp.to_uppercase())
    }
}

/// Parses (and thereby schema-validates) a [`BenchRecord`] JSON document:
/// a flat object, one pair per line, with required `exp`/`mode`/`wall_ms`
/// keys and only `counter.*` (non-negative integer) / `factor.*` (finite
/// number) keys besides.
///
/// # Errors
/// Returns a description of the first schema violation.
pub fn parse_record(text: &str) -> Result<BenchRecord, String> {
    let mut exp = None;
    let mut mode = None;
    let mut wall_ms = None;
    let mut counters = BTreeMap::new();
    let mut factors = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim().trim_end_matches(',');
        if trimmed.is_empty() || trimmed == "{" || trimmed == "}" {
            continue;
        }
        let (key, value) = trimmed
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected \"key\": value", i + 1))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("line {}: key must be double-quoted", i + 1))?;
        let value = value.trim();
        match key {
            "exp" => exp = Some(parse_json_string(value, i + 1)?),
            "mode" => mode = Some(parse_json_string(value, i + 1)?),
            "wall_ms" => {
                wall_ms = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("line {}: wall_ms must be an integer", i + 1))?,
                );
            }
            _ => {
                if let Some(name) = key.strip_prefix("counter.") {
                    let v = value.parse::<u64>().map_err(|_| {
                        format!("line {}: counter {name:?} must be an integer", i + 1)
                    })?;
                    counters.insert(name.to_string(), v);
                } else if let Some(name) = key.strip_prefix("factor.") {
                    let v = value
                        .parse::<f64>()
                        .map_err(|_| format!("line {}: factor {name:?} must be a number", i + 1))?;
                    if !v.is_finite() {
                        return Err(format!("line {}: factor {name:?} must be finite", i + 1));
                    }
                    factors.insert(name.to_string(), v);
                } else {
                    return Err(format!("line {}: unknown key {key:?}", i + 1));
                }
            }
        }
    }
    let exp = exp.ok_or("missing \"exp\"")?;
    if !EXPERIMENTS.contains(&exp.as_str()) {
        return Err(format!("unknown experiment {exp:?}"));
    }
    let mode = mode.ok_or("missing \"mode\"")?;
    if mode != "quick" && mode != "full" {
        return Err(format!("mode must be \"quick\" or \"full\", got {mode:?}"));
    }
    Ok(BenchRecord {
        exp,
        mode,
        wall_ms: wall_ms.ok_or("missing \"wall_ms\"")?,
        counters,
        factors,
    })
}

fn parse_json_string(value: &str, line: usize) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("line {line}: expected a double-quoted string"))
}

/// Measures one experiment's perf record. Streams are seeded and the
/// engines deterministic, so everything but `wall_ms` is reproducible.
///
/// # Panics
/// Panics on an unknown experiment id.
#[must_use]
pub fn measure(exp: &str, quick: bool) -> BenchRecord {
    let mode = if quick { "quick" } else { "full" };
    let (wall, counters, factors) = match exp {
        "e12" => measure_e12(quick),
        "e13" => measure_e13(quick),
        "e14" => measure_e14(quick),
        "e15" => measure_e15(quick),
        "e16" => measure_e16(quick),
        "e17" => measure_e17(quick),
        "e18" => measure_e18(quick),
        "e19" => measure_e19(quick),
        "e20" => measure_e20(quick),
        other => panic!("unknown experiment {other:?} (expected e12..e20)"),
    };
    BenchRecord {
        exp: exp.to_string(),
        mode: mode.to_string(),
        wall_ms: wall,
        counters,
        factors,
    }
}

type Measurement = (u64, BTreeMap<String, u64>, BTreeMap<String, f64>);

fn counter_map<const N: usize>(pairs: [(&str, u64); N]) -> BTreeMap<String, u64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

fn factor_map<const N: usize>(pairs: [(&str, f64); N]) -> BTreeMap<String, f64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

fn fold_solve_stats(stats: impl Iterator<Item = Option<SolveStats>>) -> SolveStats {
    stats.flatten().fold(SolveStats::default(), |mut acc, s| {
        acc.merge(s);
        acc
    })
}

/// E12 — streaming lazy re-solve on the churn workload.
fn measure_e12(quick: bool) -> Measurement {
    let events = stream_workloads::churn(
        400,
        2_500,
        (32, 32),
        if quick { 20_000 } else { 100_000 },
        0xDD5,
    );
    let mut engine = StreamEngine::new(StreamConfig::default());
    let (reports, wall) = time(|| replay(&mut engine, &events, BatchBy::Count(100)));
    let solve = fold_solve_stats(reports.iter().map(|r| r.solve_stats));
    let max_factor = reports
        .iter()
        .map(|r| r.certified_factor)
        .fold(1.0f64, f64::max);
    (
        wall.as_millis() as u64,
        counter_map([
            ("epochs", reports.len() as u64),
            ("resolves", engine.resolves()),
            ("ratios_solved", solve.ratios_solved as u64),
            ("flow_decisions", solve.flow_decisions as u64),
        ]),
        factor_map([("max_certified", max_factor)]),
    )
}

/// E13 — the `SolveContext` exact pipeline on the planted block. The
/// solve must reach the planted block's density; the flow-decision
/// counter pins the pruning (a per-ratio search that bisects β, or a
/// reverted tie pruning, multiplies it).
fn measure_e13(quick: bool) -> Measurement {
    let p = workloads::planted_block(if quick { 200 } else { 500 });
    let (report, wall) = time(|| DcExact::new().solve(&p.graph));
    let s = report.stats();
    let planted = p.pair.density(&p.graph);
    assert!(
        report.solution.density >= planted,
        "e13: the solver missed the planted block"
    );
    (
        wall.as_millis() as u64,
        counter_map([
            ("ratios_solved", s.ratios_solved as u64),
            ("flow_decisions", s.flow_decisions as u64),
            ("arena_reuse_hits", s.arena_reuse_hits as u64),
            ("core_cache_hits", s.core_cache_hits as u64),
        ]),
        factor_map([(
            "density_vs_planted",
            report.solution.density.to_f64() / planted.to_f64().max(f64::MIN_POSITIVE),
        )]),
    )
}

/// E14 — sliding-window maintenance through the window-native engine.
/// Every epoch must end inside its certified band; a broken decremental
/// repair or drift certificate shows as a refresh and exact-solve storm
/// in the counters.
fn measure_e14(quick: bool) -> Measurement {
    let events = stream_workloads::arrivals(400, if quick { 10_000 } else { 20_000 }, 0xDD5);
    let mut engine = WindowEngine::new(WindowConfig {
        tolerance: 0.25,
        slack: 2.0,
        exact_escalation: true,
        ..WindowConfig::new(4_000)
    });
    let (reports, wall) = time(|| replay_window(&mut engine, &events, BatchBy::Count(25)));
    let uncertified = reports.iter().filter(|r| !r.within_band).count();
    assert_eq!(
        uncertified, 0,
        "e14: {uncertified} epochs ended outside their certified band"
    );
    let exact = reports
        .iter()
        .filter(|r| r.mode == WindowMode::ExactResolve)
        .count() as u64;
    let max_factor = reports
        .iter()
        .map(|r| r.certified_factor)
        .fold(1.0f64, f64::max);
    (
        wall.as_millis() as u64,
        counter_map([
            ("epochs", reports.len() as u64),
            ("refreshes", engine.refreshes()),
            ("exact_solves", exact),
            ("expired", engine.expired()),
            ("repairs", engine.repairs()),
        ]),
        factor_map([("max_certified", max_factor)]),
    )
}

/// E15 — the sublinear sketch tier behind a canonicalising partition.
/// The sample must never peak past the state bound (checked after every
/// admitted insert, not only at epoch ends), the subsampler must engage,
/// and the epochs must pass [`check_sampled_epochs`].
fn measure_e15(quick: bool) -> Measurement {
    const BOUND: usize = 500;
    let events = stream_workloads::churn(
        400,
        4_000,
        (32, 32),
        if quick { 20_000 } else { 100_000 },
        0xDD5,
    );
    let mut part = Partition::new(SketchConfig {
        state_bound: BOUND,
        ..SketchConfig::default()
    });
    let mut max_ratio = 1.0f64;
    let (epochs, wall) = time(|| {
        let mut epochs = Vec::new();
        for chunk in events.chunks(SAMPLED_BATCH) {
            part.apply(chunk.iter().map(|ev| &ev.event), |_| {});
            let r = part.seal_epoch();
            if r.lower > 0.0 {
                max_ratio = max_ratio.max(r.upper / r.lower);
            }
            epochs.push(SampledEpoch {
                m: r.m,
                retained: r.retained,
                density: r.density,
                upper: r.upper,
            });
        }
        epochs
    });
    let stats = part.sketch().stats();
    assert!(stats.level >= 1, "e15: the subsampler never engaged");
    assert!(
        stats.peak_retained <= BOUND,
        "e15: the sample peaked at {} edges, past the state bound {BOUND}",
        stats.peak_retained
    );
    check_sampled_epochs("e15", &events, &epochs, BOUND);
    (
        wall.as_millis() as u64,
        counter_map([
            ("epochs", epochs.len() as u64),
            ("refreshes", stats.refreshes),
            ("escalations", stats.escalations),
            ("subsamples", stats.subsamples),
            ("peak_retained", stats.peak_retained as u64),
        ]),
        factor_map([("max_bracket_ratio", max_ratio)]),
    )
}

/// E16 — shard scaling: the E15 churn workload through K = 4 shards,
/// whose pooled sample must stay inside K state bounds and whose merged
/// brackets must pass [`check_sampled_epochs`].
fn measure_e16(quick: bool) -> Measurement {
    const SHARDS: usize = 4;
    const BOUND: usize = 500;
    let events = stream_workloads::churn(
        400,
        4_000,
        (32, 32),
        if quick { 20_000 } else { 100_000 },
        0xDD5,
    );
    let mut engine = ShardedEngine::new(ShardConfig {
        shards: SHARDS,
        sketch: SketchConfig {
            state_bound: BOUND,
            ..SketchConfig::default()
        },
        ..ShardConfig::default()
    });
    let mut max_factor = 1.0f64;
    let (epochs, wall) = time(|| {
        let mut epochs = Vec::new();
        for chunk in events.chunks(SAMPLED_BATCH) {
            let r = engine.apply(&Batch::from_events(chunk.to_vec()));
            max_factor = max_factor.max(r.certified_factor);
            epochs.push(SampledEpoch {
                m: r.m,
                retained: r.retained,
                density: r.density,
                upper: r.upper,
            });
        }
        epochs
    });
    check_sampled_epochs("e16", &events, &epochs, SHARDS * BOUND);
    let stats = engine.stats();
    (
        wall.as_millis() as u64,
        counter_map([
            ("epochs", epochs.len() as u64),
            ("refreshes", stats.refreshes),
            ("escalations", stats.escalations),
            ("retained", stats.retained as u64),
        ]),
        factor_map([("max_certified", max_factor)]),
    )
}

/// Events per epoch of the sampled tiers' replays (E15, E16).
const SAMPLED_BATCH: usize = 100;

/// What one epoch of a sampled tier certified, kept for
/// [`check_sampled_epochs`] after the timed replay.
struct SampledEpoch {
    m: u64,
    retained: usize,
    density: Density,
    upper: f64,
}

/// Checks a sampled tier's epochs against an independent `DynamicGraph`
/// mirror of the raw events, replayed in the same epochs. Every epoch
/// must count the mirror's live edges, keep a bracket that does not
/// invert, and retain at most `bound` edges; at every 250th epoch and at
/// the last, the bracket must contain a fresh exact solve of the mirror.
fn check_sampled_epochs(exp: &str, events: &[TimedEvent], epochs: &[SampledEpoch], bound: usize) {
    let mut mirror = DynamicGraph::new();
    let chunks = events.chunks(SAMPLED_BATCH);
    assert_eq!(chunks.len(), epochs.len(), "{exp}: one epoch per batch");
    for (i, (chunk, e)) in chunks.zip(epochs).enumerate() {
        let epoch = i + 1;
        for ev in chunk {
            match ev.event {
                Event::Insert(u, v) => mirror.insert(u, v),
                Event::Delete(u, v) => mirror.delete(u, v),
            };
        }
        assert_eq!(
            e.m,
            mirror.m() as u64,
            "{exp} epoch {epoch}: the live edge count diverged from the mirror"
        );
        assert!(
            e.density.to_f64() <= e.upper * (1.0 + 1e-9),
            "{exp} epoch {epoch}: inverted bracket [{}, {}]",
            e.density,
            e.upper
        );
        assert!(
            e.retained <= bound,
            "{exp} epoch {epoch}: retained {} broke the state bound {bound}",
            e.retained
        );
        if epoch % 250 == 0 || epoch == epochs.len() {
            let exact = DcExact::new().solve(&mirror.materialize()).solution.density;
            assert!(
                e.density <= exact && exact.to_f64() <= e.upper * (1.0 + 1e-9),
                "{exp} epoch {epoch}: bracket [{}, {}] misses exact {exact}",
                e.density,
                e.upper
            );
        }
    }
}

/// E17 — the worker pool's exact kernel: the serial engine's
/// deterministic counters plus the pool-backed (interval queue, one
/// worker per core) wall clock on the planted single-dominant-ratio
/// instance. The pool-backed solve must land on the serial density bit
/// for bit, with a witness that certifies it, and the serial solve must
/// reach the planted block.
fn measure_e17(quick: bool) -> Measurement {
    let p = workloads::planted_block(if quick { 250 } else { 2_500 });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let serial = DcExact::new().solve(&p.graph);
    let s = serial.stats();
    let mut ctx = SolveContext::new();
    let (par, wall) = time(|| {
        parallel::dc_exact_parallel_with(&mut ctx, &p.graph, ExactOptions::default(), cores)
    });
    assert_eq!(
        par.solution.density, serial.solution.density,
        "e17: the pool-backed solve diverged from serial"
    );
    assert_eq!(
        par.solution.pair.density(&p.graph),
        serial.solution.density,
        "e17: the parallel witness must certify the serial density"
    );
    assert!(
        serial.solution.density >= p.pair.density(&p.graph),
        "e17: the solver missed the planted block"
    );
    (
        wall.as_millis() as u64,
        counter_map([
            ("ratios_solved", s.ratios_solved as u64),
            ("flow_decisions", s.flow_decisions as u64),
        ]),
        factor_map([(
            "parallel_vs_serial_density",
            par.solution.density.to_f64() / serial.solution.density.to_f64().max(f64::MIN_POSITIVE),
        )]),
    )
}

/// E18 — the query-serving tier: a churn replay publishing one snapshot
/// per epoch while fixed-count client threads hammer the TCP front end.
/// Every counter is deterministic: the stream is seeded (epochs,
/// publishes, engine re-solves) and each client issues *exactly* its
/// budgeted query count before exiting, so the total served query count
/// is a constant regardless of how ingestion and serving interleave.
/// Wall-clock-sensitive numbers (latency percentiles, qps) belong to the
/// E18 table, not this record. The serving contracts are asserted: one
/// publish per epoch, and no client ever saw an epoch id go backwards, an
/// inverted `DENSITY` bracket or an `ERR` once publication started.
fn measure_e18(quick: bool) -> Measurement {
    use crate::serve_load::{run_clients, ClientPlan, ClientReport};
    use dds_serve::{EpochFacts, PublishOptions, Publisher, ServeMetrics, Server, SnapshotCell};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let events = stream_workloads::churn(
        400,
        4_000,
        (32, 32),
        if quick { 20_000 } else { 100_000 },
        0xDD5,
    );
    let clients = 2usize;
    let per_client = if quick { 200u64 } else { 1_000u64 };
    let mut engine = StreamEngine::new(StreamConfig {
        solver: dds_stream::SolverKind::CoreApprox,
        ..StreamConfig::default()
    });
    let cell = Arc::new(SnapshotCell::new());
    let metrics = Arc::new(ServeMetrics::new());
    let mut publisher = Publisher::new(
        Arc::clone(&cell),
        PublishOptions {
            core: Some((1, 1)),
            top_k: 2,
        },
        Arc::clone(&metrics),
    );
    let server = Server::start("127.0.0.1:0", Arc::clone(&cell), 2, Arc::clone(&metrics))
        .expect("bind ephemeral port");
    let plan = ClientPlan {
        addr: server.addr(),
        queries: Some(per_client),
        stop: Arc::new(AtomicBool::new(false)),
        core: Some((1, 1)),
        top_k: 2,
    };
    let mut max_factor = 1.0f64;
    let (reports, wall) = time(|| {
        let load = {
            let plan = plan.clone();
            std::thread::spawn(move || run_clients(clients, &plan))
        };
        let mut epoch_reports = Vec::new();
        for chunk in events.chunks(100) {
            let r = engine.apply(&Batch::from_events(chunk.to_vec()));
            publisher.publish(
                EpochFacts {
                    epoch: r.epoch,
                    n: r.n,
                    m: r.m as u64,
                    density: r.density.to_f64(),
                    lower: r.lower,
                    upper: r.upper,
                    witness: engine.witness(),
                    resolved: r.resolved,
                },
                || engine.materialize(),
            );
            epoch_reports.push(r);
        }
        let client_reports = load.join().expect("load clients");
        (epoch_reports, client_reports)
    });
    let (epoch_reports, client_reports) = reports;
    drop(server);
    for r in &epoch_reports {
        max_factor = max_factor.max(r.certified_factor);
    }
    let mut seen = ClientReport::default();
    for r in &client_reports {
        seen.merge(r);
    }
    assert_eq!(
        metrics.publishes.get(),
        epoch_reports.len() as u64,
        "e18: one publish per sealed epoch"
    );
    assert_eq!(
        seen.stale_violations, 0,
        "e18: epoch ids went backwards on a connection"
    );
    assert_eq!(seen.bracket_violations, 0, "e18: a served bracket inverted");
    assert_eq!(
        seen.errors_after_epoch0, 0,
        "e18: valid queries errored after publication started"
    );
    assert!(
        seen.max_epoch > 0,
        "e18: the clients never saw a published epoch"
    );
    (
        wall.as_millis() as u64,
        counter_map([
            ("epochs", epoch_reports.len() as u64),
            ("publishes", metrics.publishes.get()),
            ("resolves", engine.resolves()),
            ("client_queries", seen.queries),
        ]),
        factor_map([("max_certified", max_factor)]),
    )
}

/// E19 — the admin introspection plane: a churn replay seals the status
/// board per epoch and feeds the slow-op ring while scraper threads hit
/// `/metrics`, `/status`, and `/readyz`. Every counter is deterministic:
/// the stream is seeded (epochs, engine re-solves), each scraper issues
/// *exactly* its budgeted scrape count before exiting, every scrape must
/// succeed and parse (failures panic, so the record pins them at zero),
/// and readiness flips exactly once. The slow-op ring is fed one seal
/// per epoch to exercise the plane, but ring acceptance keeps the N
/// slowest by real duration, so — like scrape latencies — it belongs to
/// the E19 table, not this record.
fn measure_e19(quick: bool) -> Measurement {
    use crate::serve_load::scrape_admin;
    use dds_obs::{http_get, parse_exposition, AdminServer, Registry, SlowRing, StatusBoard};
    use std::sync::Arc;

    let events = stream_workloads::churn(
        400,
        4_000,
        (32, 32),
        if quick { 20_000 } else { 100_000 },
        0xDD5,
    );
    let scrapers = 2u64;
    let per_scraper = if quick { 100u64 } else { 500u64 };
    let registry = Registry::new();
    let board = Arc::new(StatusBoard::new("stream"));
    let ring = Arc::new(SlowRing::new(16, 0));
    let admin = AdminServer::start(
        "127.0.0.1:0",
        registry.clone(),
        Arc::clone(&board),
        Arc::clone(&ring),
    )
    .expect("bind ephemeral admin port");
    let addr = admin.addr();
    let mut engine = StreamEngine::new(StreamConfig::default());
    engine.attach_obs(&registry);

    let mut epochs = 0u64;
    let mut events_total = 0u64;
    let mut max_factor = 1.0f64;
    let (_, wall) = time(|| {
        let load: Vec<_> = (0..scrapers)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut ready_seen = false;
                    for _ in 0..per_scraper {
                        scrape_admin(addr, &mut ready_seen);
                    }
                })
            })
            .collect();
        for chunk in events.chunks(100) {
            events_total += chunk.len() as u64;
            let t0 = std::time::Instant::now();
            let r = engine.apply(&Batch::from_events(chunk.to_vec()));
            epochs = r.epoch;
            max_factor = max_factor.max(r.certified_factor);
            ring.record(
                "epoch.seal",
                t0.elapsed().as_micros() as u64,
                &format!("epoch={}", r.epoch),
            );
            board.seal_epoch(
                r.epoch,
                events_total,
                events_total,
                r.density.to_f64(),
                r.lower,
                r.upper,
            );
            board.set_ready();
        }
        for t in load {
            t.join().expect("scraper thread");
        }
    });
    assert_eq!(board.ready_flips(), 1, "readiness flips exactly once");
    let (code, body) = http_get(addr, "/metrics").expect("final scrape");
    assert_eq!(code, 200, "final scrape failed");
    let parsed = parse_exposition(&body).expect("final exposition parses");
    assert!(
        parsed
            .get("dds_stream_epochs_total")
            .is_some_and(|v| v.as_u64() == Some(epochs)),
        "final scrape must reconcile with {epochs} sealed epochs"
    );
    drop(admin);
    (
        wall.as_millis() as u64,
        counter_map([
            ("epochs", epochs),
            ("scrapes", scrapers * per_scraper),
            ("scrape_failures", 0),
            ("ready_flips", board.ready_flips()),
            ("resolves", engine.resolves()),
        ]),
        factor_map([("max_certified", max_factor)]),
    )
}

/// E20 — the cross-process cluster tier, measured through its
/// deterministic merge core: K = 4 worker state machines digest the E16
/// churn workload batch by batch and the coordinator core folds, seals,
/// and certifies every epoch exactly as the TCP runtime does (the
/// `cluster_oracle` integration test pins the two byte-identical). Every
/// counter is deterministic — seeded stream, canonical digest encoding —
/// including `digest_bytes`, the cluster's wire-cost claim:
/// `factor.digest_ratio` is per-epoch digest payload over raw
/// event-file bytes, the number the ISSUE budgets at 5%.
fn measure_e20(quick: bool) -> Measurement {
    use dds_cluster::{ClusterConfig, ClusterCore, Frame, WorkerConfig, WorkerState};

    const SHARDS: usize = 4;
    // The cluster's operating point: 1 000-event epochs amortise the
    // fixed per-digest counter block under the 5% wire budget.
    const BATCH: usize = 1_000;
    let events = stream_workloads::churn(
        400,
        4_000,
        (32, 32),
        if quick { 20_000 } else { 100_000 },
        0xDD5,
    );
    // The raw-byte denominator: what each event costs in the on-disk
    // format workers tail (`{time} + {u} {v}\n`).
    let line_bytes = |ev: &dds_stream::TimedEvent| -> u64 {
        let (sign, u, v) = match ev.event {
            Event::Insert(u, v) => ('+', u, v),
            Event::Delete(u, v) => ('-', u, v),
        };
        format!("{} {sign} {u} {v}\n", ev.time).len() as u64
    };
    let config = ClusterConfig {
        shards: SHARDS,
        batch: BATCH,
        refresh_drift: 0.25,
        sketch: SketchConfig {
            state_bound: 250,
            ..SketchConfig::default()
        },
    };
    let mut core = ClusterCore::new(config);
    let mut workers: Vec<WorkerState> = (0..SHARDS)
        .map(|shard| {
            let mut w = WorkerState::new(WorkerConfig {
                shard,
                shards: SHARDS,
                batch: BATCH,
                sketch: config.sketch,
            });
            w.sync_baseline(); // mirror the fresh handshake: digests are deltas
            w
        })
        .collect();
    let mut max_factor = 1.0f64;
    let mut cursor = 0u64;
    let (epochs, wall) = time(|| {
        let mut epochs = 0u64;
        for chunk in events.chunks(BATCH) {
            let batch = Batch::from_events(chunk.to_vec());
            cursor += chunk.iter().map(line_bytes).sum::<u64>();
            for worker in &mut workers {
                let tallies = worker.apply_batch(&batch);
                let digest = worker.digest(tallies, cursor, 0, false);
                let payload = Frame::Digest(digest.clone()).encode().len() as u64;
                core.offer(digest, payload).expect("offer digest");
            }
            let epoch = core
                .seal_next(false)
                .expect("seal")
                .expect("the frontier is complete, the epoch must seal");
            max_factor = max_factor.max(epoch.certified_factor());
            epochs += 1;
        }
        epochs
    });
    assert_eq!(core.degraded_seals(), 0, "strict in-process merge degraded");
    (
        wall.as_millis() as u64,
        counter_map([
            ("epochs", epochs),
            ("refreshes", core.refreshes()),
            ("escalations", core.escalations()),
            ("digest_bytes", core.digest_bytes()),
        ]),
        factor_map([
            ("max_certified", max_factor),
            (
                "digest_ratio",
                core.digest_bytes() as f64 / core.max_cursor() as f64,
            ),
        ]),
    )
}

/// Runs every experiment and writes the `BENCH_*.json` files into `dir`,
/// re-reading each file through [`parse_record`] so an emission that
/// fails the schema check (or drops a counter) dies here, not in CI's
/// later `compare`.
///
/// # Errors
/// Returns the first IO failure; an emitted file that fails its own
/// schema check surfaces as [`std::io::ErrorKind::InvalidData`].
pub fn run_full(dir: &Path, quick: bool) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for exp in EXPERIMENTS {
        let record = measure(exp, quick);
        let path = dir.join(BenchRecord::file_name(exp));
        std::fs::write(&path, record.to_json())?;
        let reread = parse_record(&std::fs::read_to_string(&path)?)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        // Factors round-trip through a fixed-precision rendering, so only
        // the exact fields take part in the identity check.
        if (&reread.exp, &reread.mode, reread.wall_ms, &reread.counters)
            != (&record.exp, &record.mode, record.wall_ms, &record.counters)
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: emitted record did not round-trip", path.display()),
            ));
        }
        println!(
            "{exp}: {} ms, {} counters, {} factors -> {}",
            record.wall_ms,
            record.counters.len(),
            record.factors.len(),
            path.display(),
        );
    }
    Ok(())
}

/// One counter/factor/wall deviation found by [`compare`].
#[derive(Clone, Debug)]
pub struct Regression {
    /// Experiment id.
    pub exp: String,
    /// What regressed (counter/factor name or `wall_ms`).
    pub what: String,
    /// Baseline value (formatted).
    pub old: String,
    /// Fresh value (formatted).
    pub new: String,
}

/// Re-measures each committed baseline in its recorded mode and diffs.
/// Returns the list of regressions (empty = pass).
///
/// # Errors
/// Returns a description if a baseline is missing or fails the schema.
pub fn compare(dir: &Path) -> Result<Vec<Regression>, String> {
    let mut regressions = Vec::new();
    for exp in EXPERIMENTS {
        let path = dir.join(BenchRecord::file_name(exp));
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "reading {}: {e} (run `dds-bench full` first)",
                path.display()
            )
        })?;
        let old = parse_record(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if old.exp != exp {
            return Err(format!(
                "{}: records {:?}, expected {exp:?}",
                path.display(),
                old.exp
            ));
        }
        let new = measure(exp, old.mode == "quick");
        for (name, &old_v) in &old.counters {
            let new_v = new.counters.get(name).copied().unwrap_or(0);
            if counter_regressed(old_v, new_v) {
                regressions.push(Regression {
                    exp: exp.to_string(),
                    what: format!("counter.{name}"),
                    old: old_v.to_string(),
                    new: new_v.to_string(),
                });
            }
        }
        for (name, &old_v) in &old.factors {
            let new_v = new.factors.get(name).copied().unwrap_or(f64::INFINITY);
            if (new_v - old_v).abs() > old_v.abs() * FACTOR_TOLERANCE {
                regressions.push(Regression {
                    exp: exp.to_string(),
                    what: format!("factor.{name}"),
                    old: format!("{old_v:.4}"),
                    new: format!("{new_v:.4}"),
                });
            }
        }
        let wall_cap = (old.wall_ms as f64 * WALL_FACTOR) as u64 + WALL_SLACK_MS;
        if new.wall_ms > wall_cap {
            regressions.push(Regression {
                exp: exp.to_string(),
                what: "wall_ms".to_string(),
                old: format!("{} (cap {wall_cap})", old.wall_ms),
                new: new.wall_ms.to_string(),
            });
        }
        println!(
            "{exp} ({}): wall {} -> {} ms, {} counters checked",
            old.mode,
            old.wall_ms,
            new.wall_ms,
            old.counters.len(),
        );
    }
    Ok(regressions)
}

/// Counter comparison: both directions matter (fewer refreshes than the
/// baseline can mean a broken certificate just as more can mean a storm).
fn counter_regressed(old: u64, new: u64) -> bool {
    let diff = old.abs_diff(new);
    diff > COUNTER_SLACK && diff as f64 > old as f64 * COUNTER_TOLERANCE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let record = BenchRecord {
            exp: "e12".into(),
            mode: "quick".into(),
            wall_ms: 42,
            counters: counter_map([("epochs", 7), ("resolves", 2)]),
            factors: factor_map([("max_certified", 1.25)]),
        };
        let parsed = parse_record(&record.to_json()).unwrap();
        assert_eq!(parsed, record);
    }

    #[test]
    fn schema_violations_are_rejected() {
        for (text, why) in [
            ("{\n}\n", "missing exp"),
            ("{\n  \"exp\": \"e12\",\n  \"mode\": \"quick\"\n}\n", "missing wall_ms"),
            (
                "{\n  \"exp\": \"e99\",\n  \"mode\": \"quick\",\n  \"wall_ms\": 1\n}\n",
                "unknown experiment",
            ),
            (
                "{\n  \"exp\": \"e12\",\n  \"mode\": \"slow\",\n  \"wall_ms\": 1\n}\n",
                "bad mode",
            ),
            (
                "{\n  \"exp\": \"e12\",\n  \"mode\": \"quick\",\n  \"wall_ms\": 1,\n  \"bogus\": 3\n}\n",
                "unknown key",
            ),
            (
                "{\n  \"exp\": \"e12\",\n  \"mode\": \"quick\",\n  \"wall_ms\": 1,\n  \"counter.x\": 1.5\n}\n",
                "non-integer counter",
            ),
        ] {
            assert!(parse_record(text).is_err(), "{why} must fail schema");
        }
    }

    #[test]
    fn counter_tolerance_passes_small_and_catches_big_drift() {
        assert!(!counter_regressed(100, 100));
        assert!(!counter_regressed(100, 109));
        assert!(counter_regressed(100, 120));
        assert!(counter_regressed(100, 80));
        // Tiny counters ride the absolute slack.
        assert!(!counter_regressed(1, 3));
        assert!(counter_regressed(1, 4));
    }

    /// `compare` re-measures in each record's mode, so a quick record
    /// would shrink the gate its experiment runs in CI.
    #[test]
    fn committed_records_are_full_mode() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for exp in EXPERIMENTS {
            let path = root.join(BenchRecord::file_name(exp));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            let record = parse_record(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                record.exp,
                exp,
                "{} names another experiment",
                path.display()
            );
            assert_eq!(
                record.mode,
                "full",
                "{} is not a full-mode record",
                path.display()
            );
        }
    }

    #[test]
    fn measure_is_deterministic_on_counters() {
        let a = measure("e12", true);
        let b = measure("e12", true);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.factors, b.factors);
    }
}
