//! Command implementations and argument parsing for the `dds` binary.
//!
//! The ingest commands — `dds stream` (replay, `--window`, `--follow`),
//! `dds sketch`, `dds shard` and `dds serve` — share one loop, [`ingest`],
//! over the CLI-private [`Tier`] trait that the stream, window and sharded
//! engines implement. Replay and follow differ only in their batch [`Source`]:
//! the per-epoch rows, checkpoints, metrics, admin plane and closing
//! summary are the same code in every mode. `ingest` owns the checkpoint
//! files; the engines only encode and decode the bytes.
//!
//! Every long-running command, `dds cluster-coordinator` included, seals
//! its certified epochs through one [`Sealer`]: the query-tier publish,
//! the admin plane, the `--log-every` rows, the metrics exposition, and
//! the closing finishers.

use std::fmt;
use std::io::Write;

use dds_core::{
    core_approx, parallel, top_k_dense_pairs, DcExact, DdsSolution, ExactOptions, ExhaustivePeel,
    FlowExact, GridPeel, SolveStats, TopKSolver,
};
use dds_graph::io::{load_edge_list, save_edge_list, ParseOptions};
use dds_graph::{gen, DiGraph, GraphStats, Pair};
use dds_obs::{AdminRig, Registry, TraceProfile, Tracer};
use dds_serve::{EpochFacts, PublishOptions, Publisher, ServeMetrics, Server, SnapshotCell};
use dds_shard::{ShardConfig, ShardedEngine};
use dds_sketch::{SketchConfig, SketchStats};
use dds_stream::snapshot::{read_snapshot_file, write_snapshot_file};
use dds_stream::{
    batch_slices, follow_events, Batch, BatchBy, CertifiedBounds, FollowConfig, SketchTier,
    SnapshotError, SolverKind, StreamConfig, StreamEngine, WindowConfig, WindowEngine, WindowMode,
};
use dds_xycore::{max_product_core, skyline, xy_core};

/// Errors surfaced to the user with exit code 1.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (unknown command/flag, missing value…).
    Usage(String),
    /// Failure loading/saving a graph.
    Graph(dds_graph::GraphError),
    /// Failure loading/parsing an event stream.
    Stream(dds_stream::StreamError),
    /// Failure reading/writing an engine snapshot.
    Snapshot(dds_stream::SnapshotError),
    /// Cluster wire-protocol or digest-merge failure.
    Cluster(dds_cluster::WireError),
    /// Output stream failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Graph(e) => write!(f, "{e}"),
            CliError::Stream(e) => write!(f, "{e}"),
            CliError::Snapshot(e) => write!(f, "{e}"),
            CliError::Cluster(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl From<dds_stream::StreamError> for CliError {
    fn from(e: dds_stream::StreamError) -> Self {
        CliError::Stream(e)
    }
}

impl From<dds_stream::SnapshotError> for CliError {
    fn from(e: dds_stream::SnapshotError) -> Self {
        CliError::Snapshot(e)
    }
}

impl From<dds_graph::GraphError> for CliError {
    fn from(e: dds_graph::GraphError) -> Self {
        CliError::Graph(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<dds_cluster::WireError> for CliError {
    fn from(e: dds_cluster::WireError) -> Self {
        CliError::Cluster(e)
    }
}

const USAGE: &str = "usage:
  dds stats   <edge-list>
  dds exact   <edge-list> [--baseline] [--no-core] [--no-gamma] [--no-tie] [--no-warm] [--no-dc] [--threads N] [--verbose]
              [--metrics FILE] (write a Prometheus-style exposition of the dds_exact_* solve counters at exit)
  dds approx  <edge-list> [--algo core|grid|exhaustive] [--epsilon E] [--threads N]
  dds core    <edge-list> (--xy X,Y | --max-product | --skyline)
  dds peel    <edge-list> --ratio A/B
  dds topk    <edge-list> --k K [--algo exact|core|grid]
  dds dot     <edge-list> [--highlight]
  dds gen     (gnm|powerlaw|planted) --n N --m M [--seed S] [--alpha A] [--plant S,T,P] --out <file>
  dds stream  <event-file> [--batch N | --time-window T] [--tolerance T] [--slack S] [--solver exact|approx] [--log-every K]
              [--threads N] [--window W [--no-escalate]] [--sketch [--sketch-min-m M] [--sketch-bound B]]
              [--follow [--poll-ms P] [--idle-ms T]] [--checkpoint FILE [--checkpoint-every E]] [--resume]
              [--metrics FILE [--metrics-every E]] [--trace FILE] [--admin ADDR] [--slow-us N]
              (--window: expire edges W ticks after arrival; --sketch: re-certify via exact-on-sketch past M live edges;
               --follow: tail the growing event file, sealing epochs every N events and checkpointing to FILE
               (composes with --window, except --checkpoint: the window engine has no snapshot), and exit once a
               read finds nothing new T ms after the last growth was sealed (--idle-ms; time spent sealing is not
               idle); replay and --follow print the same rows and one closing summary;
               --metrics: keep a Prometheus-style exposition file fresh every E epochs, plus FILE.jsonl at exit;
               --trace: stream deterministic span JSONL — identical replays diff byte-for-byte;
               --admin: live HTTP introspection on ADDR (/metrics /healthz /readyz /status /slow), replay or follow;
               --slow-us: record epoch seals slower than N µs in the slow-op ring, drained at exit and by /slow)
  dds sketch  <event-file> [--batch N | --time-window T] [--bound B] [--threads N] [--seed S] [--log-every K]
              (replay with every re-solve on a sublinear sketch of at most B edges: the rows and summary of
               dds stream --sketch --sketch-min-m 0 --sketch-bound B)
  dds shard   <event-file> [--shards K] [--batch N] [--bound B] [--seed S] [--drift F] [--log-every K]
              [--follow [--poll-ms P] [--idle-ms T]] [--checkpoint FILE [--checkpoint-every E]] [--resume]
              [--metrics FILE [--metrics-every E]] [--trace FILE] [--admin ADDR] [--slow-us N]
              (edge-partitioned ingestion over K shards with merged certification; --resume restarts
               from the checkpoint and replays nothing twice; replay and --follow print one summary)
  dds serve   <event-file> --listen ADDR [--readers R] [--core X,Y] [--topk K] [--shards K] [--batch N]
              [--tolerance T] [--slack S] [--solver exact|approx] [--threads N] [--log-every K]
              [--poll-ms P] [--idle-ms T] [--checkpoint FILE [--checkpoint-every E]] [--resume]
              [--metrics FILE [--metrics-every E]] [--trace FILE] [--admin ADDR] [--slow-us N]
              (follow the event file AND answer DENSITY / MEMBER v / CORE x y v / TOPK k / STATS queries over
               TCP, one line each, from an immutable snapshot published once per sealed epoch — readers never
               block on ingestion; --shards K ingests through the sharded engine, --core/--topk enable
               the derived query types; --listen 127.0.0.1:0 picks a free port and prints it)
  dds cluster-shard <event-file> --connect ADDR --shard-id I/K [--batch N] [--bound B] [--seed S]
              [--poll-ms P] [--idle-ms T] [--checkpoint FILE [--checkpoint-every E]] [--resume]
              (one cluster worker process: ingest the I-th edge partition of the shared event file and ship
               per-epoch digests to the coordinator at ADDR; --checkpoint rewrites FILE every E epochs (default
               50) and at exit, and --resume restores from it, re-admitting through the digest-cursor handshake)
  dds cluster-coordinator --listen ADDR --shards K [--batch N] [--bound B] [--seed S] [--drift F]
              [--straggler-ms T] [--log-every K] [--serve ADDR [--readers R]]
              [--metrics FILE [--metrics-every E]] [--trace FILE] [--admin ADDR] [--slow-us N]
              (merge K workers' digests into globally certified epochs; --straggler-ms forces sound but wider
               degraded seals when a shard lags past T ms; --serve publishes each sealed epoch to the query
               tier (DENSITY/MEMBER/STATS); --log-every and the observability flags mean what they mean on
               dds stream, --trace adding one cluster.merge span per merged refresh and --admin a per-shard
               shards[] array to /status; --listen 127.0.0.1:0 picks a free port and prints it)
  dds trace-report <trace-jsonl> [--folded FILE]
              (aggregate a --trace file into a per-span count/total/self-time table; --folded also writes
               flamegraph-ready folded stacks — weights are self-µs for timed traces, span counts otherwise)
  dds help
(--threads 0 or omitted on exact/stream/serve auto-detects the host parallelism; the resolved
 count is printed in each command's stats footer, marked \"(auto)\" when detected; dds serve
 --shards takes no --threads, as the sharded engine applies its partitions in one serial pass)";

/// Entry point shared by `main` and the tests.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help" | "--help" | "-h") => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Some("stats") => cmd_stats(&mut it, out),
        Some("exact") => cmd_exact(&mut it, out),
        Some("approx") => cmd_approx(&mut it, out),
        Some("core") => cmd_core(&mut it, out),
        Some("peel") => cmd_peel(&mut it, out),
        Some("topk") => cmd_topk(&mut it, out),
        Some("dot") => cmd_dot(&mut it, out),
        Some("gen") => cmd_gen(&mut it, out),
        Some("stream") => cmd_stream(&mut it, out),
        Some("sketch") => cmd_sketch(&mut it, out),
        Some("shard") => cmd_shard(&mut it, out),
        Some("serve") => cmd_serve(&mut it, out),
        Some("cluster-shard") => cmd_cluster_shard(&mut it, out),
        Some("cluster-coordinator") => cmd_cluster_coordinator(&mut it, out),
        Some("trace-report") => cmd_trace_report(&mut it, out),
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn load(path: Option<&str>) -> Result<DiGraph, CliError> {
    let path = path.ok_or_else(|| CliError::Usage("missing <edge-list> path".into()))?;
    Ok(load_edge_list(path, &ParseOptions::default())?)
}

fn parse_flag_value<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> Result<T, CliError> {
    let v = value.ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| CliError::Usage(format!("invalid value {v:?} for {flag}")))
}

/// Parses a flag value that must be positive (NaN is rejected too).
fn positive<T>(flag: &str, value: Option<&str>) -> Result<T, CliError>
where
    T: std::str::FromStr + PartialOrd + Default,
{
    let v: T = parse_flag_value(flag, value)?;
    if v > T::default() {
        Ok(v)
    } else {
        Err(CliError::Usage(format!("{flag} must be positive")))
    }
}

/// Parses a flag value that must be ≥ 0 (NaN is rejected too).
fn non_negative(flag: &str, value: Option<&str>) -> Result<f64, CliError> {
    let v: f64 = parse_flag_value(flag, value)?;
    if v >= 0.0 {
        Ok(v)
    } else {
        Err(CliError::Usage(format!("{flag} must be ≥ 0")))
    }
}

/// Parses an `X,Y` pair of core thresholds (`--xy`, `--core`).
fn xy_pair(flag: &str, value: Option<&str>) -> Result<(u64, u64), CliError> {
    let v: String = parse_flag_value(flag, value)?;
    let (x, y) = v
        .split_once(',')
        .ok_or_else(|| CliError::Usage(format!("{flag} expects X,Y")))?;
    Ok((
        x.parse()
            .map_err(|_| CliError::Usage(format!("bad x {x:?}")))?,
        y.parse()
            .map_err(|_| CliError::Usage(format!("bad y {y:?}")))?,
    ))
}

/// Parses a `--solver` value.
fn solver(value: Option<&str>) -> Result<SolverKind, CliError> {
    match parse_flag_value::<String>("--solver", value)?.as_str() {
        "exact" => Ok(SolverKind::Exact),
        "approx" => Ok(SolverKind::CoreApprox),
        other => Err(CliError::Usage(format!(
            "unknown --solver {other:?} (expected exact|approx)"
        ))),
    }
}

/// Resolve a `--threads` flag for the commands that auto-detect: an
/// explicit positive count is taken as given; `0` or an omitted flag
/// picks the host parallelism ([`dds_core::auto_threads`]). The second
/// element is a footer suffix so auto-picked counts are visible in the
/// stats output.
fn resolve_threads(flag: Option<usize>) -> (usize, &'static str) {
    match flag {
        Some(t) if t > 0 => (t, ""),
        _ => (dds_core::auto_threads(), " (auto)"),
    }
}

fn write_solution(out: &mut dyn Write, sol: &DdsSolution) -> Result<(), CliError> {
    writeln!(out, "density     {}", sol.density)?;
    writeln!(
        out,
        "|S| = {}, |T| = {}",
        sol.pair.s().len(),
        sol.pair.t().len()
    )?;
    writeln!(out, "S = {:?}", sol.pair.s())?;
    writeln!(out, "T = {:?}", sol.pair.t())?;
    Ok(())
}

/// The one formatter for accumulated [`SolveStats`] — every command that
/// reports exact-solve instrumentation (`dds exact`, the ingest summaries)
/// goes through here, so the counters and their order cannot drift
/// between commands again.
fn write_solve_totals(out: &mut dyn Write, label: &str, s: &SolveStats) -> Result<(), CliError> {
    writeln!(
        out,
        "{label}: {} ratios, {} flow decisions, {} arena reuse hits, {} core cache hits",
        s.ratios_solved, s.flow_decisions, s.arena_reuse_hits, s.core_cache_hits,
    )?;
    Ok(())
}

/// The one formatter for the sketch-tier summary line shared by the
/// stream and window engines (`what` names their re-certification unit:
/// "re-solves" vs "refreshes").
fn write_sketch_tier(
    out: &mut dyn Write,
    sketched: impl fmt::Display,
    total: impl fmt::Display,
    what: &str,
    stats: &SketchStats,
) -> Result<(), CliError> {
    writeln!(
        out,
        "sketch tier: {sketched} of {total} {what} sketched; retained {} (peak {}), level {}, {} subsamples, {} refreshes",
        stats.retained, stats.peak_retained, stats.level, stats.subsamples, stats.refreshes,
    )?;
    Ok(())
}

/// The summary's witness line, when there is a witness pair.
fn write_witness(out: &mut dyn Write, pair: Option<&Pair>) -> Result<(), CliError> {
    if let Some(pair) = pair {
        writeln!(
            out,
            "witness |S| = {}, |T| = {}",
            pair.s().len(),
            pair.t().len()
        )?;
    }
    Ok(())
}

/// Per-epoch mode label for an exact re-certification (`verb` is the
/// command's word for it: RESOLVE, EXACT, …).
fn solve_mode_label(verb: &str, s: Option<SolveStats>) -> String {
    match s {
        Some(s) => format!(
            "{verb} ({} ratios, {} flows, {} arena hits)",
            s.ratios_solved, s.flow_decisions, s.arena_reuse_hits
        ),
        None => verb.to_string(),
    }
}

/// Per-epoch mode label for a sketch-backed re-certification.
fn sketch_mode_label(
    verb: &str,
    retained: impl fmt::Display,
    level: impl fmt::Display,
    flows: impl fmt::Display,
) -> String {
    format!("{verb} (retained {retained}, level {level}, {flows} flows)")
}

fn cmd_stats<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let g = load(it.next())?;
    let s = GraphStats::compute(&g);
    writeln!(out, "vertices        {}", s.n)?;
    writeln!(out, "edges           {}", s.m)?;
    writeln!(out, "max out-degree  {}", s.max_out_degree)?;
    writeln!(out, "max in-degree   {}", s.max_in_degree)?;
    writeln!(out, "avg degree      {:.4}", s.avg_degree)?;
    writeln!(out, "isolated        {}", s.isolated)?;
    writeln!(out, "reciprocity     {:.4}", s.reciprocity)?;
    Ok(())
}

fn cmd_exact<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let g = load(it.next())?;
    let mut opts = ExactOptions::default();
    let mut baseline = false;
    let mut verbose = false;
    let mut threads: Option<usize> = None;
    let mut metrics: Option<String> = None;
    while let Some(flag) = it.next() {
        match flag {
            "--baseline" => baseline = true,
            "--no-core" => opts.core_pruning = false,
            "--no-gamma" => opts.gamma_pruning = false,
            "--no-tie" => opts.tie_pruning = false,
            "--no-warm" => opts.warm_start = false,
            "--no-dc" => opts.divide_and_conquer = false,
            "--threads" => threads = Some(parse_flag_value("--threads", it.next())?),
            "--verbose" => verbose = true,
            "--metrics" => metrics = Some(parse_flag_value("--metrics", it.next())?),
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    if baseline && metrics.is_some() {
        return Err(CliError::Usage(
            "--metrics does not apply with --baseline (no dds_exact_* counters)".into(),
        ));
    }
    let (threads, threads_auto) = resolve_threads(threads);
    let registry = metrics.as_ref().map(|_| Registry::new());
    let report = if baseline {
        FlowExact.solve(&g)
    } else {
        let mut ctx = dds_core::SolveContext::new();
        if let Some(reg) = &registry {
            ctx.attach_obs(reg);
            dds_core::WorkerPool::global().attach_obs(reg);
        }
        parallel::dc_exact_parallel_with(&mut ctx, &g, opts, threads)
    };
    write_solution(out, &report.solution)?;
    write_solve_totals(out, "solve totals", &report.stats())?;
    writeln!(out, "threads              {threads}{threads_auto}")?;
    writeln!(
        out,
        "pruned (structural)  {}",
        report.ratios_pruned_structural
    )?;
    writeln!(out, "pruned (gamma)       {}", report.ratios_pruned_gamma)?;
    writeln!(out, "pruned (exact tie)   {}", report.ratios_pruned_tie)?;
    if let Some(w) = report.warm_start_density {
        writeln!(out, "warm start density   {w:.6}")?;
    }
    if verbose {
        writeln!(
            out,
            "network nodes per decision: {:?}",
            report.network_nodes
        )?;
    }
    if let (Some(reg), Some(path)) = (&registry, &metrics) {
        reg.write_exposition_file(path)?;
        writeln!(out, "metrics exposition at {path}")?;
    }
    Ok(())
}

/// `dds trace-report`: aggregate a `--trace` JSONL file into a per-span
/// count/total/self-time table, optionally emitting flamegraph-ready
/// folded stacks. Works on both timed and deterministic traces (the
/// latter fall back to span counts as weights).
fn cmd_trace_report<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = it
        .next()
        .ok_or_else(|| CliError::Usage("missing <trace-jsonl> path".into()))?;
    let mut folded: Option<String> = None;
    while let Some(flag) = it.next() {
        match flag {
            "--folded" => folded = Some(parse_flag_value("--folded", it.next())?),
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let text = std::fs::read_to_string(path)?;
    let profile = TraceProfile::from_jsonl(&text)
        .map_err(|e| CliError::Usage(format!("bad trace {path}: {e}")))?;
    write!(out, "{}", dds_obs::render_table(&profile))?;
    if let Some(folded_path) = &folded {
        std::fs::write(folded_path, dds_obs::render_folded(&profile))?;
        writeln!(out, "folded stacks at {folded_path}")?;
    }
    Ok(())
}

fn cmd_approx<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let g = load(it.next())?;
    let mut algo = "core".to_string();
    let mut epsilon = 0.1f64;
    let mut threads = 1usize;
    while let Some(flag) = it.next() {
        match flag {
            "--algo" => algo = parse_flag_value("--algo", it.next())?,
            "--epsilon" => {
                epsilon = positive("--epsilon", it.next())?;
                if epsilon.is_infinite() {
                    return Err(CliError::Usage("--epsilon must be finite".into()));
                }
            }
            "--threads" => threads = parse_flag_value("--threads", it.next())?,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    match algo.as_str() {
        "core" => {
            let r = core_approx(&g);
            write_solution(out, &r.solution)?;
            writeln!(out, "core            [{}, {}]", r.x, r.y)?;
            writeln!(
                out,
                "certified range [{:.6}, {:.6}]",
                r.lower_bound, r.upper_bound
            )?;
            writeln!(out, "guarantee       2-approximation")?;
        }
        "grid" => {
            check_grid_size(g.n(), epsilon)?;
            let r = if threads > 1 {
                parallel::grid_peel_parallel(&g, epsilon, threads)
            } else {
                GridPeel::new(epsilon).solve(&g)
            };
            write_solution(out, &r.solution)?;
            writeln!(out, "ratios tried    {}", r.ratios_tried)?;
            writeln!(out, "guarantee       2(1+ε)-approximation, ε = {epsilon}")?;
        }
        "exhaustive" => {
            let r = ExhaustivePeel.solve(&g);
            write_solution(out, &r.solution)?;
            writeln!(out, "ratios tried    {}", r.ratios_tried)?;
            writeln!(out, "guarantee       2-approximation")?;
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --algo {other:?} (expected core|grid|exhaustive)"
            )))
        }
    }
    Ok(())
}

/// Rejects, before it is allocated, a `--algo grid` sweep finer than the
/// default with more points than there are reduced ratios `a/b` with
/// `a, b ≤ n`. A peel's side test is `s ≥ c·t` with `s, t ≤ n`, so a peel
/// at any grid point equals a peel at one of those ratios (the ones
/// `--algo exhaustive` tries), and a finer grid cannot do better. The
/// default grid always runs: on 2 to 8 vertices it too has more points
/// than ratios.
fn check_grid_size(n: usize, epsilon: f64) -> Result<(), CliError> {
    // `GridPeel::grid`'s point count: 2·⌈ln n / ln(1+ε)⌉ + 1.
    let points = 2.0 * ((n as f64).ln() / (1.0 + epsilon).ln()).ceil() + 1.0;
    // Every `a/1` and `1/b` is a ratio, so a grid of at most 2n − 1 points
    // needs no exact count.
    if epsilon >= GridPeel::default().epsilon || points <= (2 * n).saturating_sub(1) as f64 {
        return Ok(());
    }
    let ratios = ratio_count(n);
    // NaN points (n = 1 with ln(1 + ε) = 0) compare false: that grid is
    // one point.
    if points > ratios as f64 {
        return Err(CliError::Usage(format!(
            "--epsilon {epsilon} asks for a grid of {points} ratios on n = {n}, more than \
             the {ratios} distinct ratios a peel can tell apart; use a larger --epsilon"
        )));
    }
    Ok(())
}

/// The number of reduced ratios `a/b` with `1 ≤ a, b ≤ n`: `2·Σ φ(k) − 1`
/// over `k ≤ n`, with Euler's totient `φ` sieved in `O(n log log n)`.
fn ratio_count(n: usize) -> u64 {
    let mut phi: Vec<u64> = (0..=n as u64).collect();
    for p in 2..=n {
        if phi[p] == p as u64 {
            for k in (p..=n).step_by(p) {
                phi[k] -= phi[k] / p as u64;
            }
        }
    }
    (2 * phi[1..].iter().sum::<u64>()).saturating_sub(1)
}

fn cmd_core<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let g = load(it.next())?;
    let mut xy: Option<(u64, u64)> = None;
    let mut max_product = false;
    let mut want_skyline = false;
    while let Some(flag) = it.next() {
        match flag {
            "--xy" => xy = Some(xy_pair("--xy", it.next())?),
            "--max-product" => max_product = true,
            "--skyline" => want_skyline = true,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    if let Some((x, y)) = xy {
        let core = xy_core(&g, x, y);
        writeln!(
            out,
            "[{x},{y}]-core: |S| = {}, |T| = {}",
            core.s_count(),
            core.t_count()
        )?;
        if !core.is_empty() {
            writeln!(out, "density {}", core.density(&g))?;
        }
    } else if max_product {
        match max_product_core(&g) {
            Some(best) => {
                writeln!(
                    out,
                    "max product core [{},{}], x·y = {}",
                    best.x,
                    best.y,
                    best.product()
                )?;
                writeln!(
                    out,
                    "|S| = {}, |T| = {}, density {}",
                    best.mask.s_count(),
                    best.mask.t_count(),
                    best.mask.density(&g)
                )?;
            }
            None => writeln!(out, "graph has no edges; no core exists")?,
        }
    } else if want_skyline {
        writeln!(out, "x\ty_max")?;
        for p in skyline(&g) {
            writeln!(out, "{}\t{}", p.x, p.y)?;
        }
    } else {
        return Err(CliError::Usage(
            "core needs one of --xy X,Y | --max-product | --skyline".into(),
        ));
    }
    Ok(())
}

fn cmd_peel<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let g = load(it.next())?;
    let mut ratio: Option<(u64, u64)> = None;
    while let Some(flag) = it.next() {
        match flag {
            "--ratio" => {
                let v: String = parse_flag_value("--ratio", it.next())?;
                let (a, b) = v
                    .split_once('/')
                    .ok_or_else(|| CliError::Usage("--ratio expects A/B".into()))?;
                ratio = Some((
                    a.parse()
                        .map_err(|_| CliError::Usage(format!("bad numerator {a:?}")))?,
                    b.parse()
                        .map_err(|_| CliError::Usage(format!("bad denominator {b:?}")))?,
                ));
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let (a, b) = ratio.ok_or_else(|| CliError::Usage("peel needs --ratio A/B".into()))?;
    if a == 0 || b == 0 {
        return Err(CliError::Usage("ratio components must be positive".into()));
    }
    let sol = dds_core::peel_at_rational_ratio(&g, a, b);
    write_solution(out, &sol)?;
    Ok(())
}

fn cmd_topk<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let g = load(it.next())?;
    let mut k = 3usize;
    let mut algo = "exact".to_string();
    while let Some(flag) = it.next() {
        match flag {
            "--k" => k = parse_flag_value("--k", it.next())?,
            "--algo" => algo = parse_flag_value("--algo", it.next())?,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let solver = match algo.as_str() {
        "exact" => TopKSolver::Exact,
        "core" => TopKSolver::CoreApprox,
        "grid" => TopKSolver::GridPeel(0.1),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --algo {other:?} (expected exact|core|grid)"
            )))
        }
    };
    let found = top_k_dense_pairs(&g, k, solver);
    writeln!(out, "found {} vertex-disjoint dense pairs", found.len())?;
    for (i, sol) in found.iter().enumerate() {
        writeln!(
            out,
            "
#{} density {}",
            i + 1,
            sol.density
        )?;
        writeln!(out, "  S = {:?}", sol.pair.s())?;
        writeln!(out, "  T = {:?}", sol.pair.t())?;
    }
    Ok(())
}

fn cmd_dot<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let g = load(it.next())?;
    let mut highlight = false;
    for flag in it {
        match flag {
            "--highlight" => highlight = true,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let pair = if highlight {
        Some(DcExact::new().solve(&g).solution.pair)
    } else {
        None
    };
    write!(out, "{}", dds_graph::to_dot(&g, pair.as_ref()))?;
    Ok(())
}

fn cmd_gen<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let family = it
        .next()
        .ok_or_else(|| CliError::Usage("gen needs a family: gnm|powerlaw|planted".into()))?
        .to_string();
    let mut n: Option<usize> = None;
    let mut m: Option<usize> = None;
    let mut seed = 42u64;
    let mut alpha = 2.2f64;
    let mut plant: Option<(usize, usize, f64)> = None;
    let mut out_path: Option<String> = None;
    while let Some(flag) = it.next() {
        match flag {
            "--n" => n = Some(parse_flag_value("--n", it.next())?),
            "--m" => m = Some(parse_flag_value("--m", it.next())?),
            "--seed" => seed = parse_flag_value("--seed", it.next())?,
            "--alpha" => alpha = parse_flag_value("--alpha", it.next())?,
            "--plant" => {
                let v: String = parse_flag_value("--plant", it.next())?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 3 {
                    return Err(CliError::Usage("--plant expects S,T,P".into()));
                }
                let (s, t, p): (usize, usize, f64) = (
                    parts[0]
                        .parse()
                        .map_err(|_| CliError::Usage("bad plant S".into()))?,
                    parts[1]
                        .parse()
                        .map_err(|_| CliError::Usage("bad plant T".into()))?,
                    parts[2]
                        .parse()
                        .map_err(|_| CliError::Usage("bad plant P".into()))?,
                );
                if s == 0 || t == 0 {
                    return Err(CliError::Usage("--plant sides must be non-empty".into()));
                }
                if !(0.0..=1.0).contains(&p) {
                    return Err(CliError::Usage("--plant P must be in [0, 1]".into()));
                }
                plant = Some((s, t, p));
            }
            "--out" => out_path = Some(parse_flag_value("--out", it.next())?),
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let n = n.ok_or_else(|| CliError::Usage("gen needs --n".into()))?;
    let m = m.ok_or_else(|| CliError::Usage("gen needs --m".into()))?;
    let graph = match family.as_str() {
        "gnm" => {
            check_edge_count(n, m)?;
            gen::gnm(n, m, seed)
        }
        "powerlaw" => {
            if n == 0 {
                return Err(CliError::Usage("powerlaw needs --n > 0".into()));
            }
            if alpha.is_nan() || alpha <= 1.0 {
                return Err(CliError::Usage("powerlaw needs --alpha > 1".into()));
            }
            gen::power_law(n, m, alpha, seed)
        }
        "planted" => {
            let (s, t, p) = plant
                .ok_or_else(|| CliError::Usage("planted family needs --plant S,T,P".into()))?;
            if s.saturating_add(t) > n {
                return Err(CliError::Usage(format!(
                    "--plant sides {s} + {t} exceed --n {n}"
                )));
            }
            check_edge_count(n, m)?;
            let planted = gen::planted(n, m, s, t, p, seed);
            writeln!(out, "# planted S = {:?}", planted.pair.s())?;
            writeln!(out, "# planted T = {:?}", planted.pair.t())?;
            planted.graph
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown family {other:?} (expected gnm|powerlaw|planted)"
            )))
        }
    };
    let path = out_path.ok_or_else(|| CliError::Usage("gen needs --out <file>".into()))?;
    save_edge_list(&graph, &path)?;
    writeln!(
        out,
        "wrote {} vertices, {} edges to {path}",
        graph.n(),
        graph.m()
    )?;
    Ok(())
}

/// `gnm` and the planted background draw `m` distinct non-loop edges.
fn check_edge_count(n: usize, m: usize) -> Result<(), CliError> {
    let max = n.saturating_mul(n.saturating_sub(1));
    if m > max {
        return Err(CliError::Usage(format!(
            "--m {m} exceeds the {max} edges a simple digraph on {n} vertices holds"
        )));
    }
    Ok(())
}

fn cmd_stream<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = it
        .next()
        .ok_or_else(|| CliError::Usage("missing <event-file> path".into()))?;
    let mut batch_by = BatchBy::Count(25);
    let mut tolerance = 0.25f64;
    let mut slack = 2.0f64;
    let mut solver_kind: Option<SolverKind> = None;
    let mut log_every = 0u64;
    let mut window: Option<u64> = None;
    let mut escalate = true;
    let mut threads: Option<usize> = None;
    let mut sketch = false;
    let mut sketch_min_m: Option<usize> = None;
    let mut sketch_bound: Option<usize> = None;
    let mut follow = false;
    let mut serving = ServingFlags::default();
    let mut obs = ObsFlags::default();
    while let Some(flag) = it.next() {
        if serving.parse(flag, it)? || obs.parse(flag, it)? {
            continue;
        }
        match flag {
            "--follow" => follow = true,
            "--threads" => threads = Some(parse_flag_value("--threads", it.next())?),
            "--sketch" => sketch = true,
            "--sketch-min-m" => sketch_min_m = Some(parse_flag_value("--sketch-min-m", it.next())?),
            "--sketch-bound" => sketch_bound = Some(positive("--sketch-bound", it.next())?),
            "--window" => window = Some(positive("--window", it.next())?),
            "--no-escalate" => escalate = false,
            "--batch" => batch_by = BatchBy::Count(positive("--batch", it.next())?),
            "--time-window" => {
                batch_by = BatchBy::TimeWindow(positive("--time-window", it.next())?);
            }
            "--tolerance" => tolerance = non_negative("--tolerance", it.next())?,
            "--slack" => slack = non_negative("--slack", it.next())?,
            "--solver" => solver_kind = Some(solver(it.next())?),
            "--log-every" => log_every = parse_flag_value("--log-every", it.next())?,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }

    if !sketch && (sketch_min_m.is_some() || sketch_bound.is_some()) {
        return Err(CliError::Usage(
            "--sketch-min-m/--sketch-bound require --sketch".into(),
        ));
    }
    let (threads, threads_auto) = resolve_threads(threads);
    serving.validate(follow)?;
    obs.validate()?;
    if serving.checkpoint.is_some() && !follow {
        return Err(CliError::Usage(
            "--checkpoint requires --follow for dds stream (replay mode loads the whole file; \
             there is no cursor to resume from)"
                .into(),
        ));
    }
    // Only `--checkpoint` actually needs an engine snapshot; plain
    // `--follow --window` (tail the file, expire edges, no restart story)
    // is a perfectly serviceable combination.
    if window.is_some() && serving.checkpoint.is_some() {
        return Err(CliError::Usage(
            "--checkpoint does not support --window (the window engine has no snapshot)".into(),
        ));
    }
    if window.is_some() && solver_kind.is_some() {
        return Err(CliError::Usage(
            "--solver does not apply with --window (the window engine picks its own escalation; see --no-escalate)".into(),
        ));
    }
    if window.is_none() && !escalate {
        return Err(CliError::Usage("--no-escalate requires --window".into()));
    }
    let source = match (follow, batch_by) {
        (false, by) => Source::Whole(by),
        (true, BatchBy::Count(batch)) => Source::Tail { batch, follow },
        (true, BatchBy::TimeWindow(_)) => {
            return Err(CliError::Usage(
                "--follow seals epochs by event count; use --batch, not --time-window".into(),
            ))
        }
    };
    let tier = sketch.then(|| SketchTier {
        min_m: sketch_min_m.unwrap_or(50_000),
        config: SketchConfig {
            state_bound: sketch_bound.unwrap_or(SketchConfig::default().state_bound),
            threads,
            ..SketchConfig::default()
        },
    });
    let run = Ingest {
        path,
        role: "stream",
        source,
        log_every,
        threads: Some((threads, threads_auto)),
        serving,
        obs,
        serve: None,
    };
    match window {
        Some(w) => ingest::<WindowEngine>(
            out,
            &run,
            WindowConfig {
                tolerance,
                slack,
                exact_escalation: escalate,
                threads,
                sketch: tier,
                ..WindowConfig::new(w)
            },
        ),
        None => ingest::<StreamEngine>(
            out,
            &run,
            StreamConfig {
                tolerance,
                slack,
                solver: solver_kind.unwrap_or(SolverKind::Exact),
                threads,
                sketch: tier,
            },
        ),
    }
}

/// `dds shard`: edge-partitioned ingestion over K shards with merged
/// certification — replay mode drains the file and exits; with
/// `--follow` it keeps tailing. Both modes tail from the engine's byte
/// cursor, so `--checkpoint`/`--resume` behave identically in each.
fn cmd_shard<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = it
        .next()
        .ok_or_else(|| CliError::Usage("missing <event-file> path".into()))?;
    let mut config = ShardConfig::default();
    let mut batch = 100usize;
    let mut log_every = 0u64;
    let mut follow = false;
    let mut serving = ServingFlags::default();
    let mut obs = ObsFlags::default();
    while let Some(flag) = it.next() {
        if serving.parse(flag, it)? || obs.parse(flag, it)? {
            continue;
        }
        match flag {
            "--shards" => config.shards = positive("--shards", it.next())?,
            "--batch" => batch = positive("--batch", it.next())?,
            "--bound" => config.sketch.state_bound = positive("--bound", it.next())?,
            "--seed" => config.sketch.seed = parse_flag_value("--seed", it.next())?,
            "--drift" => config.refresh_drift = positive("--drift", it.next())?,
            "--log-every" => log_every = parse_flag_value("--log-every", it.next())?,
            "--follow" => follow = true,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    serving.validate(follow)?;
    obs.validate()?;
    let run = Ingest {
        path,
        role: "shard",
        source: Source::Tail { batch, follow },
        log_every,
        threads: None,
        serving,
        obs,
        serve: None,
    };
    ingest::<ShardedEngine>(out, &run, config)
}

/// Options specific to `dds serve`, beyond the shared serving/obs flags.
struct ServeOpts {
    listen: String,
    readers: usize,
    core: Option<(u64, u64)>,
    top_k: usize,
}

/// `dds serve`: the query-serving front end. Follows the event file like
/// `dds stream --follow` (or `dds shard --follow` with `--shards`),
/// publishing an immutable [`EpochSnapshot`](dds_serve::EpochSnapshot)
/// once per sealed epoch, while a TCP reader pool answers
/// `DENSITY`/`MEMBER`/`CORE`/`TOPK` queries from the published snapshot —
/// readers never touch the engine, so no query ever waits on a refresh.
fn cmd_serve<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = it
        .next()
        .ok_or_else(|| CliError::Usage("missing <event-file> path".into()))?;
    let mut listen: Option<String> = None;
    let mut readers = 4usize;
    let mut core: Option<(u64, u64)> = None;
    let mut top_k = 0usize;
    let mut shards = 0usize;
    let mut batch = 100usize;
    let mut tolerance: Option<f64> = None;
    let mut slack: Option<f64> = None;
    let mut solver_kind: Option<SolverKind> = None;
    let mut log_every = 0u64;
    let mut threads: Option<usize> = None;
    let mut serving = ServingFlags::default();
    let mut obs = ObsFlags::default();
    while let Some(flag) = it.next() {
        if serving.parse(flag, it)? || obs.parse(flag, it)? {
            continue;
        }
        match flag {
            "--listen" => listen = Some(parse_flag_value("--listen", it.next())?),
            "--readers" => readers = positive("--readers", it.next())?,
            "--core" => core = Some(xy_pair("--core", it.next())?),
            "--topk" => top_k = parse_flag_value("--topk", it.next())?,
            "--shards" => shards = parse_flag_value("--shards", it.next())?,
            "--batch" => batch = positive("--batch", it.next())?,
            "--tolerance" => tolerance = Some(non_negative("--tolerance", it.next())?),
            "--slack" => slack = Some(non_negative("--slack", it.next())?),
            "--solver" => solver_kind = Some(solver(it.next())?),
            "--threads" => threads = Some(parse_flag_value("--threads", it.next())?),
            "--log-every" => log_every = parse_flag_value("--log-every", it.next())?,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let listen =
        listen.ok_or_else(|| CliError::Usage("dds serve requires --listen ADDR".into()))?;
    let stream_only = [
        ("--solver", solver_kind.is_some()),
        ("--tolerance", tolerance.is_some()),
        ("--slack", slack.is_some()),
        ("--threads", threads.is_some()),
    ];
    if let Some((flag, _)) = stream_only.iter().find(|&&(_, set)| shards > 0 && set) {
        return Err(CliError::Usage(format!(
            "{flag} does not apply with --shards (the sharded engine certifies by merge and \
             applies its partitions in one serial pass)"
        )));
    }
    serving.validate(true)?;
    obs.validate()?;
    let (threads, threads_auto) = resolve_threads(threads);
    let run = Ingest {
        path,
        role: "serve",
        source: Source::Tail {
            batch,
            follow: true,
        },
        log_every,
        threads: Some((threads, threads_auto)),
        serving,
        obs,
        serve: Some(ServeOpts {
            listen,
            readers,
            core,
            top_k,
        }),
    };
    if shards > 0 {
        let config = ShardConfig {
            shards,
            ..ShardConfig::default()
        };
        return ingest::<ShardedEngine>(out, &run, config);
    }
    let config = StreamConfig {
        tolerance: tolerance.unwrap_or(0.25),
        slack: slack.unwrap_or(2.0),
        solver: solver_kind.unwrap_or(SolverKind::Exact),
        threads,
        sketch: None,
    };
    ingest::<StreamEngine>(out, &run, config)
}

/// Epochs between checkpoints when `--checkpoint-every` is not given.
const DEFAULT_CHECKPOINT_EVERY: u64 = 50;

/// The tail-loop and checkpoint flags shared by `dds stream`, `dds shard`,
/// `dds serve` and `dds cluster-shard`: poll/idle cadence of the tail
/// loop plus checkpoint/resume plumbing.
#[derive(Debug, Default)]
struct ServingFlags {
    poll_ms: Option<u64>,
    idle_ms: Option<u64>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    resume: bool,
}

impl ServingFlags {
    /// Tries to consume `flag`; returns whether it was one of ours.
    fn parse<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a str>,
    ) -> Result<bool, CliError> {
        match flag {
            "--poll-ms" => self.poll_ms = Some(positive("--poll-ms", it.next())?),
            "--idle-ms" => self.idle_ms = Some(positive("--idle-ms", it.next())?),
            "--checkpoint" => self.checkpoint = Some(parse_flag_value("--checkpoint", it.next())?),
            "--checkpoint-every" => {
                self.checkpoint_every = Some(positive("--checkpoint-every", it.next())?);
            }
            "--resume" => self.resume = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self, follow: bool) -> Result<(), CliError> {
        if !follow && (self.poll_ms.is_some() || self.idle_ms.is_some()) {
            return Err(CliError::Usage(
                "--poll-ms/--idle-ms require --follow".into(),
            ));
        }
        if self.checkpoint.is_none() && (self.checkpoint_every.is_some() || self.resume) {
            return Err(CliError::Usage(
                "--checkpoint-every/--resume require --checkpoint".into(),
            ));
        }
        Ok(())
    }

    /// The tail-loop configuration: follow mode polls and idles out after
    /// the configured silence; replay mode (`follow == false`, `dds shard`
    /// only) drains to EOF and exits immediately.
    fn follow_config(&self, follow: bool, batch: usize, cursor: u64) -> FollowConfig {
        use std::time::Duration;
        FollowConfig {
            batch,
            poll: Duration::from_millis(self.poll_ms.unwrap_or(200)),
            idle_exit: Some(if follow {
                Duration::from_millis(self.idle_ms.unwrap_or(2000))
            } else {
                Duration::ZERO
            }),
            cursor,
        }
    }
}

/// The observability flags shared by `dds stream`, `dds shard`,
/// `dds serve` and `dds cluster-coordinator`: `--metrics FILE` keeps a
/// Prometheus-style exposition file fresh (rewritten atomically every
/// `--metrics-every` epochs, plus a final `FILE.jsonl` snapshot at exit);
/// `--trace FILE` streams span JSONL in deterministic mode — no
/// wall-clock in the output, so two identical replays produce
/// byte-identical traces.
#[derive(Debug, Default)]
struct ObsFlags {
    metrics: Option<String>,
    metrics_every: Option<u64>,
    trace: Option<String>,
    admin: Option<String>,
    slow_us: Option<u64>,
}

/// Default slow-op threshold when `--admin` is on but `--slow-us` unset.
const DEFAULT_SLOW_US: u64 = 1_000;

impl ObsFlags {
    /// Tries to consume `flag`; returns whether it was one of ours.
    fn parse<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a str>,
    ) -> Result<bool, CliError> {
        match flag {
            "--metrics" => self.metrics = Some(parse_flag_value("--metrics", it.next())?),
            "--metrics-every" => {
                self.metrics_every = Some(positive("--metrics-every", it.next())?);
            }
            "--trace" => self.trace = Some(parse_flag_value("--trace", it.next())?),
            "--admin" => self.admin = Some(parse_flag_value("--admin", it.next())?),
            "--slow-us" => self.slow_us = Some(parse_flag_value("--slow-us", it.next())?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self) -> Result<(), CliError> {
        if self.metrics.is_none() && self.metrics_every.is_some() {
            return Err(CliError::Usage("--metrics-every requires --metrics".into()));
        }
        Ok(())
    }

    /// The live introspection plane, when `--admin`/`--slow-us` asked for
    /// one. Everything clock-shaped in the ingest loop is gated on this
    /// returning `Some` — without it a replay never reads the wall clock,
    /// so `--trace` output stays byte-identical across runs.
    fn admin_rig(
        &self,
        out: &mut dyn Write,
        role: &'static str,
        registry: Option<&Registry>,
    ) -> Result<Option<AdminRig>, CliError> {
        if self.admin.is_none() && self.slow_us.is_none() {
            return Ok(None);
        }
        let rig = AdminRig::start(
            role,
            self.slow_us.unwrap_or(DEFAULT_SLOW_US),
            registry,
            self.admin.as_deref(),
        )?;
        if let Some(addr) = rig.addr() {
            writeln!(out, "admin endpoint on {addr}")?;
        }
        Ok(Some(rig))
    }
}

/// One epoch's loggable facts, engine-agnostic — the row the ingest
/// loop and the cluster coordinator print, and what the summary tallies.
struct EpochRow {
    epoch: u64,
    m: u64,
    density: f64,
    lower: f64,
    upper: f64,
    factor: f64,
    /// `Some(label)` when this epoch re-certified (always logged); `None`
    /// for incremental epochs (logged on the `--log-every` cadence only).
    mode: Option<String>,
    /// Whether the epoch ended inside its certification band (only the
    /// window engine reports a verdict that can be false).
    within_band: bool,
    /// Instrumentation of the epoch's exact solve, if one ran.
    solve: Option<SolveStats>,
}

impl EpochRow {
    const HEADER: &'static str = "epoch      m    density      [lower, upper]      factor  mode";

    fn write(&self, out: &mut dyn Write) -> std::io::Result<()> {
        writeln!(
            out,
            "{:>5} {:>6}   {:>8.4}   [{:>8.4}, {:>8.4}]   {:>6.3}  {}",
            self.epoch,
            self.m,
            self.density,
            self.lower,
            self.upper,
            self.factor,
            self.mode.as_deref().unwrap_or("incremental"),
        )
    }
}

/// What the shared seal path tallies over a run's epochs for the summary.
#[derive(Default)]
struct Totals {
    events: u64,
    epochs: u64,
    /// Epochs that re-certified (their row carries a mode label).
    recertified: u64,
    /// Epochs that ended inside their certification band.
    in_band: u64,
    max_factor: f64,
    /// Summed instrumentation of the run's exact solves.
    solve: SolveStats,
}

impl Totals {
    fn add(&mut self, row: &EpochRow, events: u64) {
        self.events += events;
        self.epochs += 1;
        self.recertified += u64::from(row.mode.is_some());
        self.in_band += u64::from(row.within_band);
        self.max_factor = self.max_factor.max(row.factor);
        if let Some(s) = row.solve {
            self.solve.merge(s);
        }
    }
}

/// Where an ingest run's batches come from.
enum Source {
    /// `dds stream` replay: the whole file, loaded up front and cut by
    /// event count or stream time.
    Whole(BatchBy),
    /// The file tailed from the engine's byte cursor in `batch`-event
    /// epochs: drained to EOF (`dds shard` replay) or followed until idle.
    Tail { batch: usize, follow: bool },
}

/// One run of `dds stream`, `dds sketch`, `dds shard` or `dds serve`, as
/// its flags asked for it.
struct Ingest<'a> {
    path: &'a str,
    /// The role the admin plane reports on `/status`.
    role: &'static str,
    source: Source,
    log_every: u64,
    /// The resolved `--threads` count and its footer suffix (`None` for
    /// `dds shard`, which has no solver threads).
    threads: Option<(usize, &'static str)>,
    serving: ServingFlags,
    obs: ObsFlags,
    /// The query tier, for `dds serve`.
    serve: Option<ServeOpts>,
}

/// What the ingest loop needs from an engine. Implemented directly on
/// the three ingest engines; it stays in the CLI because [`ingest`] is
/// its only generic caller.
trait Tier: Sized {
    type Config;
    fn new(config: Self::Config) -> Self;
    /// Restores a checkpoint's bytes: the engine and the byte cursor to
    /// resume tailing from.
    fn restore(config: Self::Config, bytes: &[u8]) -> Result<(Self, u64), SnapshotError>;
    /// The checkpoint bytes of this engine at input byte `cursor`.
    fn snapshot(&self, cursor: u64) -> Vec<u8>;
    /// The certification knobs the opening line reports.
    fn describe(config: &Self::Config) -> String;
    fn attach(&mut self, registry: Option<&Registry>, tracer: Tracer);
    /// Applies one sealed batch.
    fn apply_row(&mut self, batch: &Batch) -> EpochRow;
    fn epoch(&self) -> u64;
    fn n(&self) -> usize;
    fn m(&self) -> u64;
    fn bounds(&self) -> CertifiedBounds;
    fn witness(&self) -> Option<&Pair>;
    fn materialize(&self) -> DiGraph;
    /// The re-certification counts in the summary's headline.
    fn counts(&self) -> String;
    /// The engine's own summary lines.
    fn summary(&self, out: &mut dyn Write, totals: &Totals) -> Result<(), CliError>;
}

impl Tier for StreamEngine {
    type Config = StreamConfig;

    fn new(config: StreamConfig) -> Self {
        StreamEngine::new(config)
    }

    fn restore(config: StreamConfig, bytes: &[u8]) -> Result<(Self, u64), SnapshotError> {
        StreamEngine::restore(config, bytes)
    }

    fn snapshot(&self, cursor: u64) -> Vec<u8> {
        StreamEngine::snapshot(self, cursor)
    }

    fn describe(config: &StreamConfig) -> String {
        format!("tolerance {}, slack {}", config.tolerance, config.slack)
    }

    fn attach(&mut self, registry: Option<&Registry>, tracer: Tracer) {
        if let Some(reg) = registry {
            self.attach_obs(reg);
        }
        self.attach_tracer(tracer);
    }

    fn apply_row(&mut self, batch: &Batch) -> EpochRow {
        let r = self.apply(batch);
        EpochRow {
            epoch: r.epoch,
            m: r.m as u64,
            density: r.density.to_f64(),
            lower: r.lower,
            upper: r.upper,
            factor: r.certified_factor,
            mode: r.resolved.then(|| match &r.sketch {
                Some(sk) => sketch_mode_label(
                    "SKETCH RESOLVE",
                    sk.retained,
                    sk.level,
                    r.solve_stats.map_or(0, |s| s.flow_decisions),
                ),
                None => solve_mode_label("RESOLVE", r.solve_stats),
            }),
            within_band: true,
            solve: r.solve_stats,
        }
    }

    fn epoch(&self) -> u64 {
        StreamEngine::epoch(self)
    }

    fn n(&self) -> usize {
        StreamEngine::n(self)
    }

    fn m(&self) -> u64 {
        StreamEngine::m(self) as u64
    }

    fn bounds(&self) -> CertifiedBounds {
        StreamEngine::bounds(self)
    }

    fn witness(&self) -> Option<&Pair> {
        StreamEngine::witness(self)
    }

    fn materialize(&self) -> DiGraph {
        StreamEngine::materialize(self)
    }

    fn counts(&self) -> String {
        format!("{} re-solves", self.resolves())
    }

    fn summary(&self, out: &mut dyn Write, totals: &Totals) -> Result<(), CliError> {
        if totals.solve.ratios_solved > 0 {
            write_solve_totals(out, "re-solve totals", &totals.solve)?;
        }
        if let Some(stats) = self.sketch_stats() {
            write_sketch_tier(
                out,
                self.sketch_resolves(),
                self.resolves(),
                "re-solves",
                &stats,
            )?;
        }
        Ok(())
    }
}

impl Tier for WindowEngine {
    type Config = WindowConfig;

    fn new(config: WindowConfig) -> Self {
        WindowEngine::new(config)
    }

    fn restore(_: WindowConfig, _: &[u8]) -> Result<(Self, u64), SnapshotError> {
        unreachable!("--checkpoint is rejected with --window before ingest starts")
    }

    fn snapshot(&self, _: u64) -> Vec<u8> {
        unreachable!("--checkpoint is rejected with --window before ingest starts")
    }

    fn describe(config: &WindowConfig) -> String {
        format!(
            "window {}, tolerance {}, slack {}, escalation {}",
            config.window,
            config.tolerance,
            config.slack,
            if config.exact_escalation { "on" } else { "off" },
        )
    }

    fn attach(&mut self, registry: Option<&Registry>, tracer: Tracer) {
        if let Some(reg) = registry {
            self.attach_obs(reg);
        }
        self.attach_tracer(tracer);
    }

    fn apply_row(&mut self, batch: &Batch) -> EpochRow {
        let r = self.apply(batch);
        let mode = match (r.mode, &r.sketch) {
            (WindowMode::Incremental, _) => None,
            (WindowMode::CoreRefresh, _) => {
                let (x, y) = r.core.unwrap_or((0, 0));
                Some(format!("CORE REFRESH [{x},{y}]"))
            }
            (WindowMode::ExactResolve, _) => Some(solve_mode_label("EXACT", r.solve_stats)),
            (WindowMode::SketchRefresh, Some(sk)) => Some(sketch_mode_label(
                "SKETCH REFRESH",
                sk.retained,
                sk.level,
                r.solve_stats.map_or(0, |s| s.flow_decisions),
            )),
            (WindowMode::SketchRefresh, None) => Some("SKETCH REFRESH".into()),
        };
        EpochRow {
            epoch: r.epoch,
            m: r.m as u64,
            density: r.density.to_f64(),
            lower: r.lower,
            upper: r.upper,
            factor: r.certified_factor,
            mode,
            within_band: r.within_band,
            solve: r.solve_stats,
        }
    }

    fn epoch(&self) -> u64 {
        WindowEngine::epoch(self)
    }

    fn n(&self) -> usize {
        WindowEngine::n(self)
    }

    fn m(&self) -> u64 {
        WindowEngine::m(self) as u64
    }

    fn bounds(&self) -> CertifiedBounds {
        WindowEngine::bounds(self)
    }

    fn witness(&self) -> Option<&Pair> {
        WindowEngine::witness(self)
    }

    fn materialize(&self) -> DiGraph {
        WindowEngine::materialize(self)
    }

    fn counts(&self) -> String {
        format!(
            "{} core refreshes ({} escalated to exact)",
            self.refreshes(),
            self.exact_solves()
        )
    }

    fn summary(&self, out: &mut dyn Write, totals: &Totals) -> Result<(), CliError> {
        writeln!(
            out,
            "window {}: {} edges expired, {} core-repair peels, {}/{} epochs within band, stream time {}",
            self.window(),
            self.expired(),
            self.repairs(),
            totals.in_band,
            totals.epochs,
            self.now(),
        )?;
        if let Some(stats) = self.sketch_stats() {
            write_sketch_tier(
                out,
                self.sketch_refreshes(),
                self.refreshes(),
                "refreshes",
                &stats,
            )?;
        }
        if let Some((x, y)) = self.core_thresholds() {
            writeln!(out, "maintained core [{x},{y}]")?;
        }
        Ok(())
    }
}

impl Tier for ShardedEngine {
    type Config = ShardConfig;

    fn new(config: ShardConfig) -> Self {
        ShardedEngine::new(config)
    }

    fn restore(config: ShardConfig, bytes: &[u8]) -> Result<(Self, u64), SnapshotError> {
        ShardedEngine::restore(config, bytes)
    }

    fn snapshot(&self, cursor: u64) -> Vec<u8> {
        ShardedEngine::snapshot(self, cursor)
    }

    fn describe(config: &ShardConfig) -> String {
        format!(
            "across {} shards, bound {}/shard, drift {}",
            config.shards, config.sketch.state_bound, config.refresh_drift
        )
    }

    fn attach(&mut self, registry: Option<&Registry>, tracer: Tracer) {
        if let Some(reg) = registry {
            self.attach_obs(reg);
        }
        self.attach_tracer(tracer);
    }

    fn apply_row(&mut self, batch: &Batch) -> EpochRow {
        let r = self.apply(batch);
        EpochRow {
            epoch: r.epoch,
            m: r.m,
            density: r.density.to_f64(),
            lower: r.lower,
            upper: r.upper,
            factor: r.certified_factor,
            mode: r.refreshed.then(|| {
                sketch_mode_label(
                    "MERGED REFRESH",
                    r.retained,
                    r.merged_level.unwrap_or(0),
                    r.solve_stats.map_or(0, |s| s.flow_decisions),
                )
            }),
            within_band: true,
            solve: r.solve_stats,
        }
    }

    fn epoch(&self) -> u64 {
        ShardedEngine::epoch(self)
    }

    fn n(&self) -> usize {
        ShardedEngine::n(self)
    }

    fn m(&self) -> u64 {
        ShardedEngine::m(self)
    }

    fn bounds(&self) -> CertifiedBounds {
        ShardedEngine::bounds(self)
    }

    fn witness(&self) -> Option<&Pair> {
        ShardedEngine::witness(self)
    }

    fn materialize(&self) -> DiGraph {
        ShardedEngine::materialize(self)
    }

    fn counts(&self) -> String {
        let stats = self.stats();
        format!(
            "{} merged refreshes ({} escalated, {} cold-start)",
            stats.refreshes, stats.escalations, stats.cold_escalations
        )
    }

    fn summary(&self, out: &mut dyn Write, _: &Totals) -> Result<(), CliError> {
        let stats = self.stats();
        writeln!(
            out,
            "shards: levels {:?}, retained {} of {} live edges, apply {:.2?}, certify {:.2?}",
            stats.levels,
            stats.retained,
            ShardedEngine::m(self),
            stats.apply,
            stats.certify,
        )?;
        if stats.solve.ratios_solved > 0 {
            write_solve_totals(out, "escalated solve totals", &stats.solve)?;
        }
        Ok(())
    }
}

/// One certified epoch as the shared seal path takes it: the row, plus
/// what the query tier and the admin plane need beside it.
struct Sealed<'a> {
    row: EpochRow,
    /// Events the epoch folded.
    events: u64,
    n: usize,
    witness: Option<&'a Pair>,
    /// The input byte cursor, and how many input bytes run ahead of it.
    cursor: u64,
    behind: u64,
    /// When sealing began (`None` when no admin plane reads the clock).
    began: Option<std::time::Instant>,
}

/// What every long-running command does with a certified epoch, and how
/// it closes: the query-tier publish, the admin plane, the run's
/// [`Totals`], the `--log-every` row cadence, and the metrics exposition,
/// then the closing finishers. [`ingest`] and `dds cluster-coordinator`
/// both seal through it.
struct Sealer {
    log_every: u64,
    registry: Option<Registry>,
    /// The `--metrics` file and its `--metrics-every` cadence.
    metrics: Option<(String, u64)>,
    tracer: Tracer,
    admin: Option<AdminRig>,
    query: Option<ServeRig>,
    totals: Totals,
    /// The latest row when it went unlogged: [`Sealer::end_table`]
    /// prints it, so every run ends its table on the final epoch.
    unlogged: Option<EpochRow>,
}

impl Sealer {
    /// Opens the planes `obs` and `serve` ask for: a registry for
    /// `--metrics` or `--admin` (whose `/metrics` scrapes it live), with
    /// the worker pool's series; the tracer; the admin rig; the query tier.
    fn open(
        out: &mut dyn Write,
        role: &'static str,
        obs: &ObsFlags,
        serve: Option<&ServeOpts>,
        log_every: u64,
    ) -> Result<Sealer, CliError> {
        let registry = (obs.metrics.is_some() || obs.admin.is_some()).then(Registry::new);
        if let Some(reg) = &registry {
            dds_core::WorkerPool::global().attach_obs(reg);
        }
        let tracer = match &obs.trace {
            Some(path) => Tracer::to_file(path, false)?,
            None => Tracer::detached(),
        };
        let admin = obs.admin_rig(out, role, registry.as_ref())?;
        let query = match serve {
            Some(opts) => Some(ServeRig::start(
                out,
                opts,
                registry.as_ref(),
                admin.as_ref(),
            )?),
            None => None,
        };
        Ok(Sealer {
            log_every,
            registry,
            metrics: obs
                .metrics
                .clone()
                .map(|path| (path, obs.metrics_every.unwrap_or(50))),
            tracer,
            admin,
            query,
            totals: Totals {
                max_factor: 1.0,
                ..Totals::default()
            },
            unlogged: None,
        })
    }

    /// Publishes `facts` to the query tier, if there is one.
    fn publish(&mut self, facts: EpochFacts<'_>, materialize: impl FnOnce() -> DiGraph) {
        let Some(rig) = self.query.as_mut() else {
            return;
        };
        let epoch = facts.epoch;
        let published_at = self.admin.as_ref().map(|_| std::time::Instant::now());
        rig.publisher.publish(facts, materialize);
        if let (Some(admin), Some(t0)) = (&self.admin, published_at) {
            let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            admin.lag.seal_publish_us.set(us);
            admin.on_snapshot(epoch);
            admin.board.set_ready();
        }
    }

    /// Seals one epoch: the publish, the totals, the admin plane, the row
    /// (printed now or held for [`Sealer::end_table`]), and the
    /// exposition on its `--metrics-every` cadence.
    fn seal(
        &mut self,
        out: &mut dyn Write,
        sealed: Sealed<'_>,
        materialize: impl FnOnce() -> DiGraph,
    ) -> Result<(), CliError> {
        let row = &sealed.row;
        let epoch = row.epoch;
        self.publish(
            EpochFacts {
                epoch,
                n: sealed.n,
                m: row.m,
                density: row.density,
                lower: row.lower,
                upper: row.upper,
                witness: sealed.witness,
                resolved: row.mode.is_some(),
            },
            materialize,
        );
        self.totals.add(row, sealed.events);
        if let (Some(admin), Some(t0)) = (&mut self.admin, sealed.began) {
            admin.on_seal(
                epoch,
                self.totals.events,
                sealed.cursor,
                sealed.behind,
                (row.density, row.lower, row.upper),
                t0,
            );
        }
        if row.mode.is_some() || (self.log_every > 0 && epoch.is_multiple_of(self.log_every)) {
            row.write(out)?;
            self.unlogged = None;
        } else {
            self.unlogged = Some(sealed.row);
        }
        if let (Some(registry), Some((path, every))) = (&self.registry, &self.metrics) {
            if epoch.is_multiple_of(*every) {
                registry.write_exposition_file(path)?;
            }
        }
        Ok(())
    }

    /// Ends the row table on the final epoch.
    fn end_table(&mut self, out: &mut dyn Write) -> Result<(), CliError> {
        if let Some(row) = self.unlogged.take() {
            row.write(out)?;
        }
        Ok(())
    }

    /// The closing finishers, after the summary: the exposition and its
    /// JSONL snapshot, the query tier's shutdown, the slow-op table, and
    /// the trace flush.
    fn finish(self, out: &mut dyn Write) -> Result<(), CliError> {
        if let (Some(registry), Some((path, _))) = (&self.registry, &self.metrics) {
            registry.write_exposition_file(path)?;
            registry.write_jsonl_file(format!("{path}.jsonl"))?;
            writeln!(out, "metrics exposition at {path} (snapshot {path}.jsonl)")?;
        }
        if let Some(rig) = self.query {
            rig.finish(out)?;
        }
        if let Some(admin) = &self.admin {
            write!(out, "{}", admin.ring.render_table())?;
        }
        self.tracer.flush()?;
        Ok(())
    }
}

/// The one ingest loop behind `dds stream`, `dds sketch`, `dds shard` and
/// `dds serve`, in replay and follow alike: open (or resume) the engine,
/// then for each sealed batch apply → checkpoint → [`Sealer::seal`], and
/// close with one summary.
fn ingest<T: Tier>(
    out: &mut dyn Write,
    run: &Ingest<'_>,
    config: T::Config,
) -> Result<(), CliError> {
    // A whole-file replay loads first, so a bad file fails before
    // anything starts.
    let events = match run.source {
        Source::Whole(_) => dds_stream::load_events(run.path)?,
        Source::Tail { .. } => Vec::new(),
    };
    let about = T::describe(&config);
    let (mut engine, cursor) = match &run.serving.checkpoint {
        Some(ck) if run.serving.resume && std::path::Path::new(ck).exists() => {
            let (engine, cursor) = T::restore(config, &read_snapshot_file(ck)?)?;
            writeln!(
                out,
                "resumed from {ck}: epoch {}, m = {}, byte offset {cursor}",
                engine.epoch(),
                engine.m()
            )?;
            (engine, cursor)
        }
        _ => (T::new(config), 0),
    };
    let mut sealer = Sealer::open(out, run.role, &run.obs, run.serve.as_ref(), run.log_every)?;
    engine.attach(sealer.registry.as_ref(), sealer.tracer.clone());
    // A resumed engine has answers before the first new batch arrives:
    // publish them immediately rather than serving the empty epoch 0.
    if engine.epoch() > 0 {
        let bounds = engine.bounds();
        sealer.publish(
            EpochFacts {
                epoch: engine.epoch(),
                n: engine.n(),
                m: engine.m(),
                density: bounds.lower.to_f64(),
                lower: bounds.lower.to_f64(),
                upper: bounds.upper,
                witness: engine.witness(),
                resolved: true,
            },
            || engine.materialize(),
        );
    }
    let follow = matches!(run.source, Source::Tail { follow: true, .. });
    let cut = match run.source {
        Source::Whole(BatchBy::TimeWindow(t)) => format!("time window {t}"),
        Source::Whole(BatchBy::Count(n)) | Source::Tail { batch: n, .. } => format!("batch {n}"),
    };
    writeln!(
        out,
        "{} {} from byte {cursor} ({cut}, {about})",
        if follow { "following" } else { "replaying" },
        run.path,
    )?;
    writeln!(out, "{}", EpochRow::HEADER)?;

    let mut checkpoints = 0u64;
    let started = std::time::Instant::now();
    let mut seal = |batch: Batch, cur: u64| -> Result<(), CliError> {
        let began = sealer.admin.as_ref().map(|_| std::time::Instant::now());
        let row = engine.apply_row(&batch);
        let epoch = row.epoch;
        if let Some(ck) = &run.serving.checkpoint {
            if epoch.is_multiple_of(
                run.serving
                    .checkpoint_every
                    .unwrap_or(DEFAULT_CHECKPOINT_EVERY),
            ) {
                write_snapshot_file(&engine.snapshot(cur), ck)?;
                checkpoints += 1;
                // Without a query tier, the checkpoint is the durable
                // snapshot staleness is measured from.
                if let Some(admin) = &sealer.admin {
                    if admin.board.snapshot_epoch() < epoch {
                        admin.on_snapshot(epoch);
                    }
                }
            }
        }
        let behind = match began {
            Some(_) => std::fs::metadata(run.path).map_or(0, |m| m.len().saturating_sub(cur)),
            None => 0,
        };
        let sealed = Sealed {
            row,
            events: batch.events.len() as u64,
            n: engine.n(),
            witness: engine.witness(),
            cursor: cur,
            behind,
            began,
        };
        sealer.seal(out, sealed, || engine.materialize())
    };
    let mut deferred: Option<CliError> = None;
    let mut on_batch = |batch: Batch, cur: u64| match seal(batch, cur) {
        Ok(()) => std::ops::ControlFlow::Continue(()),
        Err(e) => {
            deferred = Some(e);
            std::ops::ControlFlow::Break(())
        }
    };
    let cursor = match run.source {
        Source::Whole(batch_by) => {
            // The whole file was read up front, so every epoch's cursor
            // is the end of the file.
            let end = std::fs::metadata(run.path)?.len();
            for chunk in batch_slices(&events, batch_by) {
                if on_batch(Batch::from_events(chunk.to_vec()), end).is_break() {
                    break;
                }
            }
            end
        }
        Source::Tail { batch, follow } => {
            let config = run.serving.follow_config(follow, batch, cursor);
            follow_events(run.path, config, &mut on_batch)?.cursor
        }
    };
    if let Some(e) = deferred {
        return Err(e);
    }
    sealer.end_table(out)?;
    if let Some(ck) = &run.serving.checkpoint {
        write_snapshot_file(&engine.snapshot(cursor), ck)?;
        checkpoints += 1;
    }
    let wall = started.elapsed();

    let totals = &sealer.totals;
    writeln!(out)?;
    writeln!(
        out,
        "{} {} events in {} epochs ({wall:.2?}): {}, {:.1}% incremental, cursor {cursor}",
        if follow { "followed" } else { "replayed" },
        totals.events,
        totals.epochs,
        engine.counts(),
        100.0 * (totals.epochs - totals.recertified) as f64 / totals.epochs.max(1) as f64,
    )?;
    if let Some((threads, auto)) = run.threads {
        writeln!(out, "threads {threads}{auto}")?;
    }
    writeln!(out, "max certified factor {:.4}", totals.max_factor)?;
    engine.summary(out, totals)?;
    let bounds = engine.bounds();
    writeln!(
        out,
        "final density {} over n = {}, m = {}, bracket [{:.4}, {:.4}]",
        bounds.lower,
        engine.n(),
        engine.m(),
        bounds.lower.to_f64(),
        bounds.upper,
    )?;
    write_witness(out, engine.witness())?;
    if let Some(ck) = &run.serving.checkpoint {
        writeln!(out, "checkpointed {checkpoints} times to {ck}")?;
    }
    sealer.finish(out)
}

/// The query tier `dds serve` and `dds cluster-coordinator --serve` set
/// up the same way: the TCP front end, its metrics, and the publisher
/// that swaps each sealed epoch's snapshot in.
struct ServeRig {
    publisher: Publisher,
    metrics: std::sync::Arc<ServeMetrics>,
    server: Server,
}

impl ServeRig {
    fn start(
        out: &mut dyn Write,
        opts: &ServeOpts,
        registry: Option<&Registry>,
        admin: Option<&AdminRig>,
    ) -> Result<ServeRig, CliError> {
        let cell = std::sync::Arc::new(SnapshotCell::new());
        let mut metrics = ServeMetrics::new();
        if let Some(reg) = registry {
            metrics.attach_obs(reg);
        }
        if let Some(rig) = admin {
            // Share the staleness gauges with the admin plane so `STATS`
            // answers from the same atomics `/metrics` exports.
            metrics.lag = rig.lag.clone();
        }
        let metrics = std::sync::Arc::new(metrics);
        if let Some(rig) = admin {
            metrics.attach_slow_ring(std::sync::Arc::clone(&rig.ring));
        }
        let server = Server::start(
            &opts.listen,
            std::sync::Arc::clone(&cell),
            opts.readers,
            std::sync::Arc::clone(&metrics),
        )
        .map_err(CliError::Io)?;
        writeln!(
            out,
            "serving on {} ({} readers{}{})",
            server.addr(),
            opts.readers,
            opts.core
                .map(|(x, y)| format!(", core [{x},{y}]"))
                .unwrap_or_default(),
            if opts.top_k > 0 {
                format!(", top-{}", opts.top_k)
            } else {
                String::new()
            },
        )?;
        let publisher = Publisher::new(
            cell,
            PublishOptions {
                core: opts.core,
                top_k: opts.top_k,
            },
            std::sync::Arc::clone(&metrics),
        );
        Ok(ServeRig {
            publisher,
            metrics,
            server,
        })
    }

    /// Final summary + orderly shutdown (stop accepting, join readers).
    fn finish(mut self, out: &mut dyn Write) -> Result<(), CliError> {
        self.server.shutdown();
        writeln!(
            out,
            "served {} queries ({} errors) over {} connections, {} snapshots published",
            self.metrics.queries.get(),
            self.metrics.query_errors.get(),
            self.metrics.connections.get(),
            self.metrics.publishes.get(),
        )?;
        Ok(())
    }
}

/// `dds cluster-shard`: one worker process of the cross-process sharded
/// tier. Ingests its routed partition of the shared event file, ships
/// per-epoch digests to the coordinator over the DDSC wire protocol,
/// and (with `--checkpoint`) rewrites one full `DDSS` checkpoint every
/// `--checkpoint-every` epochs and at exit, as `dds stream`/`shard`/
/// `serve` do. It can `--resume` from that file after a crash —
/// re-admission goes through the digest-cursor handshake, so nothing is
/// double-counted.
fn cmd_cluster_shard<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = it
        .next()
        .ok_or_else(|| CliError::Usage("missing <event-file> path".into()))?;
    let mut connect: Option<String> = None;
    let mut shard_id: Option<(usize, usize)> = None;
    let mut batch = 100usize;
    let mut bound = SketchConfig::default().state_bound;
    let mut seed = SketchConfig::default().seed;
    let mut serving = ServingFlags::default();
    while let Some(flag) = it.next() {
        if serving.parse(flag, it)? {
            continue;
        }
        match flag {
            "--connect" => connect = Some(parse_flag_value("--connect", it.next())?),
            "--shard-id" => {
                let v: String = parse_flag_value("--shard-id", it.next())?;
                let (i, k) = v
                    .split_once('/')
                    .ok_or_else(|| CliError::Usage("--shard-id expects I/K".into()))?;
                let i: usize = i
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad shard index {i:?}")))?;
                let k: usize = k
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad shard count {k:?}")))?;
                if k == 0 || i >= k {
                    return Err(CliError::Usage(format!(
                        "--shard-id {i}/{k} is out of range (need I < K)"
                    )));
                }
                shard_id = Some((i, k));
            }
            "--batch" => batch = positive("--batch", it.next())?,
            "--bound" => bound = positive("--bound", it.next())?,
            "--seed" => seed = parse_flag_value("--seed", it.next())?,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let connect = connect
        .ok_or_else(|| CliError::Usage("dds cluster-shard requires --connect ADDR".into()))?;
    let (shard, shards) = shard_id
        .ok_or_else(|| CliError::Usage("dds cluster-shard requires --shard-id I/K".into()))?;
    serving.validate(true)?;
    let config = dds_cluster::WorkerConfig {
        shard,
        shards,
        batch,
        sketch: SketchConfig {
            state_bound: bound,
            seed,
            ..SketchConfig::default()
        },
    };
    let opts = dds_cluster::WorkerOptions {
        poll: std::time::Duration::from_millis(serving.poll_ms.unwrap_or(20)),
        idle_exit: Some(std::time::Duration::from_millis(
            serving.idle_ms.unwrap_or(2000),
        )),
        checkpoint: serving.checkpoint.map(std::path::PathBuf::from),
        checkpoint_every: serving.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
        resume: serving.resume,
    };
    writeln!(
        out,
        "shard {shard}/{shards} ingesting {path} for {connect} (batch {batch}, bound {bound})"
    )?;
    let summary = dds_cluster::run_worker(config, std::path::Path::new(path), &connect, &opts)?;
    writeln!(out, "{summary}")?;
    Ok(())
}

/// `dds cluster-coordinator`: the merge side of the cross-process tier.
/// Accepts K worker connections, folds their digests into per-slot
/// replicas, and seals one certified epoch per global batch — degrading
/// soundly (wider bracket, stale shard named) when `--straggler-ms`
/// expires on a laggard. Each seal goes through the [`Sealer`] the
/// ingest commands use, so `--serve`, `--admin`, `--log-every`,
/// `--metrics`, `--trace` and `--slow-us` behave as on `dds stream`;
/// `--admin` adds the per-shard lag on `/status` and the
/// `dds_cluster_shard_lag_epochs` gauges.
fn cmd_cluster_coordinator<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let mut listen: Option<String> = None;
    let mut shards = 0usize;
    let mut batch = 100usize;
    let mut bound = SketchConfig::default().state_bound;
    let mut seed = SketchConfig::default().seed;
    let mut drift = 0.25f64;
    let mut straggler_ms: Option<u64> = None;
    let mut log_every = 0u64;
    let mut serve_addr: Option<String> = None;
    let mut readers: Option<usize> = None;
    let mut obs = ObsFlags::default();
    while let Some(flag) = it.next() {
        if obs.parse(flag, it)? {
            continue;
        }
        match flag {
            "--listen" => listen = Some(parse_flag_value("--listen", it.next())?),
            "--shards" => shards = positive("--shards", it.next())?,
            "--batch" => batch = positive("--batch", it.next())?,
            "--bound" => bound = positive("--bound", it.next())?,
            "--seed" => seed = parse_flag_value("--seed", it.next())?,
            "--drift" => drift = positive("--drift", it.next())?,
            "--straggler-ms" => straggler_ms = Some(positive("--straggler-ms", it.next())?),
            "--log-every" => log_every = parse_flag_value("--log-every", it.next())?,
            "--serve" => serve_addr = Some(parse_flag_value("--serve", it.next())?),
            "--readers" => readers = Some(positive("--readers", it.next())?),
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let listen = listen
        .ok_or_else(|| CliError::Usage("dds cluster-coordinator requires --listen ADDR".into()))?;
    if shards == 0 {
        return Err(CliError::Usage(
            "dds cluster-coordinator requires --shards K".into(),
        ));
    }
    if serve_addr.is_none() && readers.is_some() {
        return Err(CliError::Usage("--readers requires --serve".into()));
    }
    obs.validate()?;
    let config = dds_cluster::ClusterConfig {
        shards,
        batch,
        refresh_drift: drift,
        sketch: SketchConfig {
            state_bound: bound,
            seed,
            ..SketchConfig::default()
        },
    };
    // The coordinator holds sample replicas, not the full graph, so the
    // query tier serves the snapshot-backed types only (DENSITY / MEMBER
    // / STATS) — no --core/--topk, and the publisher therefore never
    // asks us to materialize.
    let serve = serve_addr.map(|listen| ServeOpts {
        listen,
        readers: readers.unwrap_or(4),
        core: None,
        top_k: 0,
    });
    let mut sealer = Sealer::open(out, "cluster", &obs, serve.as_ref(), log_every)?;
    let listener = std::net::TcpListener::bind(&listen).map_err(|e| {
        CliError::Io(std::io::Error::new(
            e.kind(),
            format!("binding coordinator listener on {listen}: {e}"),
        ))
    })?;
    writeln!(
        out,
        "coordinating {shards} shards on {} (batch {batch}, bound {bound}{})",
        listener.local_addr()?,
        straggler_ms.map_or_else(
            || ", strict seals".to_string(),
            |ms| format!(", straggler limit {ms} ms")
        ),
    )?;
    writeln!(out, "{}", EpochRow::HEADER)?;
    let opts = dds_cluster::CoordinatorOptions {
        straggler: straggler_ms.map(std::time::Duration::from_millis),
        registry: sealer.registry.clone(),
        tracer: sealer.tracer.clone(),
        status: sealer
            .admin
            .as_ref()
            .map(|rig| std::sync::Arc::clone(&rig.board)),
    };
    let mut deferred: Option<CliError> = None;
    let started = std::time::Instant::now();
    let report = dds_cluster::run_coordinator(config, listener, &opts, |epoch, core, began| {
        if deferred.is_some() {
            return;
        }
        let mode = if epoch.degraded {
            Some(format!(
                "DEGRADED ({} fresh, stale {:?})",
                epoch.fresh, epoch.stale
            ))
        } else if epoch.refreshed {
            Some(format!(
                "MERGED REFRESH (retained {}, level {})",
                epoch.retained, epoch.merged_level
            ))
        } else {
            None
        };
        let row = EpochRow {
            epoch: epoch.epoch,
            m: epoch.m,
            density: epoch.lower,
            lower: epoch.lower,
            upper: epoch.upper,
            factor: epoch.certified_factor(),
            mode,
            within_band: true,
            solve: None,
        };
        let behind = core.slot_status().iter().map(|s| s.tail_bytes).max();
        let sealed = Sealed {
            row,
            events: epoch.events,
            n: epoch.n as usize,
            witness: epoch.witness.as_ref(),
            cursor: core.max_cursor(),
            behind: behind.unwrap_or(0),
            began: Some(began),
        };
        if let Err(e) = sealer.seal(out, sealed, || {
            unreachable!("no derived query types are configured")
        }) {
            deferred = Some(e);
        }
    })?;
    if let Some(e) = deferred {
        return Err(e);
    }
    sealer.end_table(out)?;
    let elapsed = started.elapsed();
    writeln!(out)?;
    writeln!(
        out,
        "sealed {} epochs ({elapsed:.2?}): {} degraded, {} merged refreshes ({} escalated)",
        report.epochs, report.degraded, report.refreshes, report.escalations,
    )?;
    writeln!(out, "max certified factor {:.4}", sealer.totals.max_factor)?;
    let pct = if report.raw_bytes > 0 {
        100.0 * report.digest_bytes as f64 / report.raw_bytes as f64
    } else {
        0.0
    };
    writeln!(
        out,
        "digest traffic {} B over {} raw event bytes ({pct:.2}%)",
        report.digest_bytes, report.raw_bytes,
    )?;
    if let Some(last) = &report.last {
        writeln!(
            out,
            "final bracket [{:.4}, {:.4}] over n = {}, m = {}, retained {}",
            last.lower, last.upper, last.n, last.m, last.retained,
        )?;
        write_witness(out, last.witness.as_ref())?;
    }
    sealer.finish(out)
}

/// `dds sketch`: a whole-file replay through the stream engine with every
/// re-solve on the sketch tier (`min_m` 0) — `dds stream --sketch
/// --sketch-min-m 0` with the sketch's own flag names, the same rows and
/// the same summary.
fn cmd_sketch<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let path = it
        .next()
        .ok_or_else(|| CliError::Usage("missing <event-file> path".into()))?;
    let mut batch_by = BatchBy::Count(25);
    let mut config = SketchConfig::default();
    let mut log_every = 0u64;
    while let Some(flag) = it.next() {
        match flag {
            "--batch" => batch_by = BatchBy::Count(positive("--batch", it.next())?),
            "--time-window" => {
                batch_by = BatchBy::TimeWindow(positive("--time-window", it.next())?);
            }
            "--bound" => config.state_bound = positive("--bound", it.next())?,
            "--threads" => config.threads = positive("--threads", it.next())?,
            "--seed" => config.seed = parse_flag_value("--seed", it.next())?,
            "--log-every" => log_every = parse_flag_value("--log-every", it.next())?,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let run = Ingest {
        path,
        role: "sketch",
        source: Source::Whole(batch_by),
        log_every,
        threads: Some((config.threads, "")),
        serving: ServingFlags::default(),
        obs: ObsFlags::default(),
        serve: None,
    };
    let stream = StreamConfig {
        threads: config.threads,
        sketch: Some(SketchTier { min_m: 0, config }),
        ..StreamConfig::default()
    };
    ingest::<StreamEngine>(out, &run, stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).expect("command should succeed");
        String::from_utf8(buf).unwrap()
    }

    fn run_err(args: &[&str]) -> CliError {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).expect_err("command should fail")
    }

    fn temp_graph() -> String {
        let path = std::env::temp_dir().join(format!(
            "dds_cli_test_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        let g = dds_graph::gen::complete_bipartite(2, 3);
        save_edge_list(&g, &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["help"]).contains("usage:"));
        assert!(run_ok(&[]).contains("usage:"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(matches!(run_err(&["frobnicate"]), CliError::Usage(_)));
    }

    #[test]
    fn stats_reports_counts() {
        let path = temp_graph();
        let out = run_ok(&["stats", &path]);
        assert!(out.contains("vertices        5"), "{out}");
        assert!(out.contains("edges           6"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exact_finds_the_optimum() {
        let path = temp_graph();
        let out = run_ok(&["exact", &path]);
        assert!(out.contains("6/√(2·3)"), "{out}");
        assert!(out.contains("arena reuse hits"), "{out}");
        let base = run_ok(&["exact", &path, "--baseline"]);
        assert!(base.contains("6/√(2·3)"), "{base}");
        let ablated = run_ok(&[
            "exact",
            &path,
            "--no-core",
            "--no-gamma",
            "--no-tie",
            "--verbose",
        ]);
        assert!(ablated.contains("network nodes"), "{ablated}");
        let par = run_ok(&["exact", &path, "--threads", "2"]);
        assert!(par.contains("6/√(2·3)"), "{par}");
        assert!(par.contains("threads              2\n"), "{par}");
        // --threads 0 (and an omitted flag) auto-detect the host; the
        // footer marks the resolved count so runs stay reproducible.
        let auto = run_ok(&["exact", &path, "--threads", "0"]);
        assert!(auto.contains("6/√(2·3)"), "{auto}");
        assert!(auto.contains("(auto)"), "{auto}");
        assert!(
            out.contains("(auto)"),
            "omitted --threads is auto too: {out}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn approx_variants_run() {
        let path = temp_graph();
        for algo in ["core", "grid", "exhaustive"] {
            let out = run_ok(&["approx", &path, "--algo", algo]);
            assert!(out.contains("density"), "{algo}: {out}");
        }
        let par = run_ok(&["approx", &path, "--algo", "grid", "--threads", "2"]);
        assert!(par.contains("ratios tried"), "{par}");
        assert!(matches!(
            run_err(&["approx", &path, "--algo", "magic"]),
            CliError::Usage(_)
        ));
        for epsilon in ["0", "-1", "nan", "inf"] {
            assert!(
                matches!(
                    run_err(&["approx", &path, "--algo", "grid", "--epsilon", epsilon]),
                    CliError::Usage(_)
                ),
                "--epsilon {epsilon}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_grid_is_a_usage_error() {
        let path = std::env::temp_dir().join(format!(
            "dds_cli_grid_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        save_edge_list(&dds_graph::gen::gnm(20, 60, 1), &path).unwrap();
        let path = path.to_string_lossy().into_owned();
        let err = run_err(&["approx", &path, "--algo", "grid", "--epsilon", "1e-12"]);
        let CliError::Usage(msg) = err else {
            panic!("expected a usage error, got {err:?}")
        };
        assert!(msg.contains("5990931949773 ratios on n = 20"), "{msg}");
        assert!(msg.contains("the 255 distinct ratios"), "{msg}");
        // A fine grid inside the ratio set (205 points) still runs, on
        // either path.
        for threads in ["1", "2"] {
            let args = ["approx", &path, "--algo", "grid", "--epsilon", "0.03"];
            let out = run_ok(&[&args[..], &["--threads", threads]].concat());
            assert!(out.contains("ratios tried"), "{out}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ratio_count_matches_the_candidate_ratios() {
        for n in 0..=40usize {
            let expected = dds_num::candidate_ratios(n as u64).len() as u64;
            assert_eq!(ratio_count(n), expected, "n = {n}");
        }
    }

    #[test]
    fn core_subcommands() {
        let path = temp_graph();
        let out = run_ok(&["core", &path, "--xy", "3,2"]);
        assert!(out.contains("|S| = 2, |T| = 3"), "{out}");
        let out = run_ok(&["core", &path, "--max-product"]);
        assert!(out.contains("x·y = 6"), "{out}");
        let out = run_ok(&["core", &path, "--skyline"]);
        assert!(out.lines().count() >= 3, "{out}");
        assert!(matches!(run_err(&["core", &path]), CliError::Usage(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn peel_requires_ratio() {
        let path = temp_graph();
        let out = run_ok(&["peel", &path, "--ratio", "2/3"]);
        assert!(out.contains("density"), "{out}");
        assert!(matches!(run_err(&["peel", &path]), CliError::Usage(_)));
        assert!(matches!(
            run_err(&["peel", &path, "--ratio", "0/3"]),
            CliError::Usage(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn topk_lists_disjoint_pairs() {
        let path = temp_graph();
        let out = run_ok(&["topk", &path, "--k", "2", "--algo", "exact"]);
        assert!(out.contains("#1 density"), "{out}");
        assert!(matches!(
            run_err(&["topk", &path, "--algo", "nope"]),
            CliError::Usage(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dot_emits_graphviz() {
        let path = temp_graph();
        let out = run_ok(&["dot", &path]);
        assert!(out.starts_with("digraph dds {"), "{out}");
        let hi = run_ok(&["dot", &path, "--highlight"]);
        assert!(hi.contains("crimson"), "{hi}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gen_writes_a_loadable_graph() {
        let out_path = std::env::temp_dir().join(format!(
            "dds_cli_gen_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        let out_str = out_path.to_string_lossy().into_owned();
        let msg = run_ok(&[
            "gen", "gnm", "--n", "20", "--m", "50", "--seed", "7", "--out", &out_str,
        ]);
        assert!(msg.contains("wrote 20 vertices, 50 edges"), "{msg}");
        let g = load_edge_list(&out_path, &ParseOptions::default()).unwrap();
        assert_eq!((g.n(), g.m()), (20, 50));
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn gen_planted_emits_block_location() {
        let out_path = std::env::temp_dir().join(format!(
            "dds_cli_plant_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        let out_str = out_path.to_string_lossy().into_owned();
        let msg = run_ok(&[
            "gen", "planted", "--n", "30", "--m", "60", "--plant", "3,4,1.0", "--out", &out_str,
        ]);
        assert!(msg.contains("# planted S"), "{msg}");
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn gen_usage_errors() {
        let out_path = std::env::temp_dir().join(format!(
            "dds_cli_gen_err_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        let out_str = out_path.to_string_lossy().into_owned();
        for args in [
            &["gnm", "--n", "3", "--m", "100"][..],
            &["powerlaw", "--n", "10", "--m", "20", "--alpha", "1"],
            &["powerlaw", "--n", "0", "--m", "20"],
            &["planted", "--n", "10", "--m", "20", "--plant", "20,20,0.5"],
            &["planted", "--n", "10", "--m", "20", "--plant", "0,3,0.5"],
            &["planted", "--n", "10", "--m", "20", "--plant", "3,3,1.5"],
            &["planted", "--n", "10", "--m", "200", "--plant", "3,3,0.5"],
        ] {
            let mut argv = vec!["gen"];
            argv.extend_from_slice(args);
            argv.extend_from_slice(&["--out", &out_str]);
            assert!(
                matches!(run_err(&argv), CliError::Usage(_)),
                "{argv:?} must be a usage error"
            );
        }
        assert!(!out_path.exists(), "a rejected gen must write nothing");
    }

    #[test]
    fn missing_file_propagates_graph_error() {
        assert!(matches!(
            run_err(&["stats", "/definitely/not/here.txt"]),
            CliError::Graph(_)
        ));
    }

    fn temp_events() -> String {
        let path = std::env::temp_dir().join(format!(
            "dds_cli_stream_{}_{:?}.events",
            std::process::id(),
            std::thread::current().id()
        ));
        // K_{2,2} assembles, a noise edge arrives, then one K edge leaves.
        let text = "# test stream\n\
                    0 + 0 2\n1 + 0 3\n2 + 1 2\n3 + 1 3\n\
                    4 + 7 8\n\
                    5 - 1 3\n";
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn stream_replays_a_trajectory() {
        let path = temp_events();
        let out = run_ok(&["stream", &path, "--batch", "4"]);
        assert!(out.contains("RESOLVE"), "first batch must solve: {out}");
        assert!(out.contains("epochs"), "{out}");
        assert!(out.contains("final density"), "{out}");
        assert!(out.contains("witness |S|"), "{out}");
        assert!(
            out.contains("re-solve totals:"),
            "exact re-solves must report instrumentation: {out}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_accepts_time_windows_and_solver() {
        let path = temp_events();
        let out = run_ok(&[
            "stream",
            &path,
            "--time-window",
            "2",
            "--solver",
            "approx",
            "--tolerance",
            "0.5",
            "--log-every",
            "1",
        ]);
        assert!(
            out.contains("incremental") || out.contains("RESOLVE"),
            "{out}"
        );
        assert!(out.contains("tolerance 0.5"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_window_replays_with_expiry() {
        let path = temp_events();
        let out = run_ok(&["stream", &path, "--window", "3", "--batch", "2"]);
        assert!(
            out.contains("CORE REFRESH") || out.contains("EXACT"),
            "first batch must certify: {out}"
        );
        assert!(out.contains("edges expired"), "{out}");
        assert!(out.contains("within band"), "{out}");
        // Window 3 over the 6-tick stream: the early K-edges expire.
        assert!(out.contains("window 3:"), "{out}");
        let quiet = run_ok(&["stream", &path, "--window", "100", "--no-escalate"]);
        assert!(quiet.contains("escalation off"), "{quiet}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_window_usage_errors() {
        let path = temp_events();
        assert!(matches!(
            run_err(&["stream", &path, "--window", "0"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["stream", &path, "--no-escalate"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["stream", &path, "--window", "5", "--solver", "exact"]),
            CliError::Usage(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_usage_errors() {
        let path = temp_events();
        assert!(matches!(run_err(&["stream"]), CliError::Usage(_)));
        assert!(matches!(
            run_err(&["stream", &path, "--batch", "0"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["stream", &path, "--batch", "x"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["stream", &path, "--time-window", "0"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["stream", &path, "--solver", "magic"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["stream", &path, "--tolerance", "-1"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["stream", &path, "--frobnicate"]),
            CliError::Usage(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_accepts_threads_and_sketch_tier() {
        let path = temp_events();
        let out = run_ok(&["stream", &path, "--threads", "2", "--batch", "3"]);
        assert!(out.contains("RESOLVE"), "{out}");
        // min_m 0: every re-solve goes through the sketch tier.
        let out = run_ok(&[
            "stream",
            &path,
            "--sketch",
            "--sketch-min-m",
            "0",
            "--batch",
            "3",
        ]);
        assert!(out.contains("SKETCH RESOLVE"), "{out}");
        assert!(out.contains("sketch tier:"), "{out}");
        // The tier also rides the window engine.
        let windowed = run_ok(&[
            "stream",
            &path,
            "--window",
            "4",
            "--sketch",
            "--sketch-min-m",
            "0",
        ]);
        assert!(windowed.contains("SKETCH REFRESH"), "{windowed}");
        assert!(windowed.contains("sketch tier:"), "{windowed}");
        assert!(matches!(
            run_err(&["stream", &path, "--sketch-min-m", "0"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["stream", &path, "--sketch", "--sketch-bound", "0"]),
            CliError::Usage(_)
        ));
        // --threads 0 auto-detects rather than erroring.
        let auto = run_ok(&["stream", &path, "--threads", "0", "--batch", "3"]);
        assert!(auto.contains("(auto)"), "{auto}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sketch_replays_with_bracket_and_stats() {
        let path = temp_events();
        let out = run_ok(&["sketch", &path, "--batch", "2", "--log-every", "1"]);
        assert!(out.contains(EpochRow::HEADER), "{out}");
        assert!(out.contains("SKETCH RESOLVE"), "{out}");
        assert!(out.contains("re-solve totals:"), "{out}");
        assert!(
            out.contains("sketch tier: 1 of 1 re-solves sketched"),
            "{out}"
        );
        assert!(out.contains("threads 1\n"), "{out}");
        assert!(out.contains("final density"), "{out}");
        assert!(out.contains("witness |S|"), "{out}");
        // A tiny bound forces subsampling even on the toy stream.
        let tiny = run_ok(&["sketch", &path, "--bound", "2", "--batch", "2"]);
        let tier = line_of(&tiny, "sketch tier:").unwrap_or_default();
        assert!(tier.contains("(peak 2)"), "{tiny}");
        assert!(!tier.contains("level 0,"), "{tiny}");
        std::fs::remove_file(&path).ok();
    }

    /// The first line of `out` that starts with `prefix`.
    fn line_of<'a>(out: &'a str, prefix: &str) -> Option<&'a str> {
        out.lines().find(|l| l.starts_with(prefix))
    }

    /// `dds sketch` is `dds stream --sketch --sketch-min-m 0` under the
    /// sketch's flag names: one engine, so one final bracket and witness.
    #[test]
    fn sketch_matches_the_stream_sketch_tier() {
        let path = temp_path("sketch_vs_stream.events");
        // A 6×6 block among scattered noise, then a third of the noise
        // leaves; bound 24 subsamples the stream.
        let noise = |i: u32| (12 + i % 37, 12 + (i * 11 + 5) % 41);
        let mut text = String::new();
        let mut t = 0;
        let mut push = |op: char, (u, v): (u32, u32)| {
            text.push_str(&format!("{t} {op} {u} {v}\n"));
            t += 1;
        };
        for i in 0..200u32 {
            push('+', noise(i));
            if i < 36 {
                push('+', (i / 6, 6 + i % 6));
            }
        }
        for i in (0..200u32).step_by(3) {
            push('-', noise(i));
        }
        std::fs::write(&path, text).unwrap();
        let sketch = run_ok(&["sketch", &path, "--batch", "10", "--bound", "24"]);
        let stream = run_ok(&[
            "stream",
            &path,
            "--batch",
            "10",
            "--sketch",
            "--sketch-min-m",
            "0",
            "--sketch-bound",
            "24",
            "--threads",
            "1",
        ]);
        for prefix in ["final density", "witness |S|"] {
            assert!(line_of(&sketch, prefix).is_some(), "{prefix}: {sketch}");
            assert_eq!(line_of(&sketch, prefix), line_of(&stream, prefix));
        }
        let tier = line_of(&sketch, "sketch tier:").unwrap_or_default();
        assert!(
            !tier.contains("level 0,"),
            "bound 24 must subsample: {sketch}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sketch_usage_errors() {
        let path = temp_events();
        assert!(matches!(run_err(&["sketch"]), CliError::Usage(_)));
        for bad in [
            ["sketch", &path, "--bound", "0"],
            ["sketch", &path, "--drift", "0.5"],
            ["sketch", &path, "--threads", "0"],
            ["sketch", &path, "--batch", "0"],
            ["sketch", &path, "--frobnicate", "1"],
        ] {
            assert!(matches!(run_err(&bad), CliError::Usage(_)), "{bad:?}");
        }
        assert!(matches!(
            run_err(&["sketch", "/definitely/not/here.events"]),
            CliError::Stream(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_replays_with_merged_certification() {
        let path = temp_events();
        let out = run_ok(&["shard", &path, "--shards", "3", "--batch", "2"]);
        assert!(out.contains("across 3 shards"), "{out}");
        assert!(out.contains("MERGED REFRESH"), "{out}");
        assert!(out.contains("merged refreshes"), "{out}");
        assert!(out.contains("final density"), "{out}");
        assert!(out.contains("witness |S|"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_checkpoint_then_resume_replays_nothing_twice() {
        let path = temp_events();
        let ck = std::env::temp_dir().join(format!(
            "dds_cli_shard_ck_{}_{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        let ck_str = ck.to_string_lossy().into_owned();
        let first = run_ok(&[
            "shard",
            &path,
            "--shards",
            "2",
            "--batch",
            "2",
            "--checkpoint",
            &ck_str,
        ]);
        assert!(first.contains("checkpointed"), "{first}");
        assert!(ck.exists());
        // Resume from the checkpoint: the cursor sits at EOF, so nothing
        // replays and the engine state carries over.
        let second = run_ok(&[
            "shard",
            &path,
            "--shards",
            "2",
            "--batch",
            "2",
            "--checkpoint",
            &ck_str,
            "--resume",
        ]);
        assert!(second.contains("resumed from"), "{second}");
        assert!(second.contains("replayed 0 events"), "{second}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ck).ok();
    }

    #[test]
    fn shard_usage_errors() {
        let path = temp_events();
        assert!(matches!(run_err(&["shard"]), CliError::Usage(_)));
        for bad in [
            vec!["shard", &path, "--shards", "0"],
            vec!["shard", &path, "--batch", "0"],
            vec!["shard", &path, "--bound", "0"],
            vec!["shard", &path, "--drift", "0"],
            vec!["shard", &path, "--resume"],
            vec!["shard", &path, "--poll-ms", "50"],
            // The partitions apply in one serial pass: no solver threads.
            vec!["shard", &path, "--threads", "2"],
            vec!["shard", &path, "--frobnicate"],
        ] {
            assert!(matches!(run_err(&bad), CliError::Usage(_)), "{bad:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_resume_rejects_mismatched_identity() {
        let path = temp_events();
        let ck = std::env::temp_dir().join(format!(
            "dds_cli_shard_idck_{}_{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        let ck_str = ck.to_string_lossy().into_owned();
        run_ok(&[
            "shard",
            &path,
            "--shards",
            "2",
            "--batch",
            "2",
            "--checkpoint",
            &ck_str,
        ]);
        // Resuming under a different shard count must fail loudly: edge
        // routing is derived from it, so a silent resume would re-hash
        // edges onto different shards.
        let err = run_err(&[
            "shard",
            &path,
            "--shards",
            "3",
            "--batch",
            "2",
            "--checkpoint",
            &ck_str,
            "--resume",
        ]);
        let msg = err.to_string();
        assert!(msg.contains("checkpoint identity mismatch"), "{msg}");
        assert!(msg.contains("shard count"), "{msg}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ck).ok();
    }

    /// An output sink the test can inspect while the command still runs
    /// — how the cluster tests learn the coordinator's bound port.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
        }
    }

    #[test]
    fn cluster_round_trip_certifies_over_tcp() {
        let path = temp_events();
        let ckdir = std::env::temp_dir().join(format!(
            "dds_cli_cluster_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&ckdir).unwrap();
        let ck = ckdir.join("shard0.snap").to_string_lossy().into_owned();

        let coord_out = SharedBuf::default();
        let coordinator = {
            let mut sink = coord_out.clone();
            std::thread::spawn(move || {
                let args: Vec<String> = [
                    "cluster-coordinator",
                    "--listen",
                    "127.0.0.1:0",
                    "--shards",
                    "2",
                    "--batch",
                    "2",
                    "--straggler-ms",
                    "5000",
                    "--log-every",
                    "1",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect();
                run(&args, &mut sink).expect("coordinator should succeed");
            })
        };
        // The coordinator prints its resolved address before accepting.
        let addr = loop {
            let text = coord_out.contents();
            if let Some(line) = text.lines().find(|l| l.starts_with("coordinating")) {
                let addr = line
                    .split(" on ")
                    .nth(1)
                    .and_then(|rest| rest.split(' ').next())
                    .expect("address in the banner");
                break addr.to_string();
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let workers: Vec<_> = (0..2)
            .map(|k| {
                let path = path.clone();
                let addr = addr.clone();
                let ck = ck.clone();
                std::thread::spawn(move || {
                    let mut args = vec![
                        "cluster-shard".to_string(),
                        path,
                        "--connect".to_string(),
                        addr,
                        "--shard-id".to_string(),
                        format!("{k}/2"),
                        "--batch".to_string(),
                        "2".to_string(),
                        "--idle-ms".to_string(),
                        "300".to_string(),
                    ];
                    if k == 0 {
                        args.push("--checkpoint".to_string());
                        args.push(ck);
                    }
                    let mut buf = Vec::new();
                    run(&args, &mut buf).expect("worker should succeed");
                    String::from_utf8(buf).unwrap()
                })
            })
            .collect();
        for (k, worker) in workers.into_iter().enumerate() {
            let out = worker.join().unwrap();
            assert!(out.contains(&format!("shard {k} epoch 3")), "{out}");
        }
        coordinator.join().unwrap();
        let out = coord_out.contents();
        assert!(out.contains("sealed 3 epochs"), "{out}");
        assert!(out.contains("0 degraded"), "{out}");
        assert!(out.contains("MERGED REFRESH"), "{out}");
        assert!(out.contains("digest traffic"), "{out}");

        // Satellite: resuming the worker checkpoint under different
        // identity flags fails before it ever dials the coordinator.
        let err = run_err(&[
            "cluster-shard",
            &path,
            "--connect",
            "127.0.0.1:9",
            "--shard-id",
            "0/2",
            "--batch",
            "7",
            "--checkpoint",
            &ck,
            "--resume",
        ]);
        let msg = err.to_string();
        assert!(msg.contains("checkpoint identity mismatch"), "{msg}");
        assert!(
            msg.contains("batch size (checkpoint 2, requested 7)"),
            "{msg}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&ckdir).ok();
    }

    #[test]
    fn cluster_usage_errors() {
        let path = temp_events();
        for bad in [
            vec!["cluster-shard"],
            vec!["cluster-shard", &path],
            vec!["cluster-shard", &path, "--connect", "x:1"],
            vec![
                "cluster-shard",
                &path,
                "--connect",
                "x:1",
                "--shard-id",
                "3",
            ],
            vec![
                "cluster-shard",
                &path,
                "--connect",
                "x:1",
                "--shard-id",
                "2/2",
            ],
            vec![
                "cluster-shard",
                &path,
                "--connect",
                "x:1",
                "--shard-id",
                "0/0",
            ],
            vec![
                "cluster-shard",
                &path,
                "--connect",
                "x:1",
                "--shard-id",
                "0/2",
                "--resume",
            ],
            vec![
                "cluster-shard",
                &path,
                "--connect",
                "x:1",
                "--shard-id",
                "0/2",
                "--checkpoint",
                "ck.snap",
                "--checkpoint-every",
                "0",
            ],
            vec![
                "cluster-shard",
                &path,
                "--connect",
                "x:1",
                "--shard-id",
                "0/2",
                "--checkpoint-every",
                "4",
            ],
            vec![
                "cluster-shard",
                &path,
                "--connect",
                "x:1",
                "--shard-id",
                "0/2",
                "--batch",
                "0",
            ],
            vec!["cluster-coordinator", "--shards", "2"],
            vec!["cluster-coordinator", "--listen", "127.0.0.1:0"],
            vec![
                "cluster-coordinator",
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "0",
            ],
            vec![
                "cluster-coordinator",
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--straggler-ms",
                "0",
            ],
            vec![
                "cluster-coordinator",
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--readers",
                "4",
            ],
            vec![
                "cluster-coordinator",
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--nope",
            ],
        ] {
            assert!(matches!(run_err(&bad), CliError::Usage(_)), "{bad:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_follow_drains_a_static_file_and_checkpoints() {
        let path = temp_events();
        let ck = std::env::temp_dir().join(format!(
            "dds_cli_follow_ck_{}_{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        let ck_str = ck.to_string_lossy().into_owned();
        let out = run_ok(&[
            "stream",
            &path,
            "--follow",
            "--batch",
            "3",
            "--idle-ms",
            "80",
            "--poll-ms",
            "10",
            "--checkpoint",
            &ck_str,
        ]);
        assert!(out.contains("following"), "{out}");
        assert!(out.contains("RESOLVE"), "{out}");
        assert!(out.contains("followed 6 events"), "{out}");
        assert!(ck.exists(), "final checkpoint must land");
        // Resume: cursor at EOF, nothing to do.
        let resumed = run_ok(&[
            "stream",
            &path,
            "--follow",
            "--batch",
            "3",
            "--idle-ms",
            "80",
            "--poll-ms",
            "10",
            "--checkpoint",
            &ck_str,
            "--resume",
        ]);
        assert!(resumed.contains("resumed from"), "{resumed}");
        assert!(resumed.contains("followed 0 events"), "{resumed}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ck).ok();
    }

    /// The full serving-flag validation matrix: every flag combination
    /// that must be rejected, in one place — each with the reason the
    /// combination is unserviceable.
    #[test]
    fn stream_follow_usage_errors() {
        let path = temp_events();
        for bad in [
            // --checkpoint needs a cursor to resume from: follow mode only.
            vec!["stream", &path, "--checkpoint", "/tmp/x.snap"],
            // --checkpoint needs an engine snapshot; the window engine has none.
            vec![
                "stream",
                &path,
                "--follow",
                "--window",
                "5",
                "--checkpoint",
                "/tmp/x.snap",
            ],
            // Follow seals epochs by event count, not stream time.
            vec!["stream", &path, "--follow", "--time-window", "2"],
            vec![
                "stream",
                &path,
                "--follow",
                "--window",
                "5",
                "--time-window",
                "2",
            ],
            // Tail-loop pacing flags are follow-only, and must be positive.
            vec!["stream", &path, "--idle-ms", "100"],
            vec!["stream", &path, "--poll-ms", "100"],
            vec!["stream", &path, "--follow", "--idle-ms", "0"],
            vec!["stream", &path, "--follow", "--poll-ms", "0"],
            // --resume/--checkpoint-every ride on --checkpoint.
            vec!["stream", &path, "--follow", "--resume"],
            vec!["stream", &path, "--follow", "--checkpoint-every", "5"],
            // The window engine picks its own escalation; --solver is the
            // stream engine's knob, with or without --follow.
            vec![
                "stream", &path, "--follow", "--window", "5", "--solver", "exact",
            ],
            // --no-escalate is a window knob.
            vec!["stream", &path, "--follow", "--no-escalate"],
        ] {
            assert!(matches!(run_err(&bad), CliError::Usage(_)), "{bad:?}");
        }
        // The --checkpoint rejection must name the flag that needs the
        // snapshot, not blame --follow --window as a pair.
        match run_err(&[
            "stream",
            &path,
            "--follow",
            "--window",
            "5",
            "--checkpoint",
            "/tmp/x.snap",
        ]) {
            CliError::Usage(msg) => assert!(msg.contains("--checkpoint"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// `--follow --window` without a checkpoint is a serviceable
    /// combination (the over-broad rejection was the bug): the tail loop
    /// runs the window engine and reports expiry like the replay path.
    #[test]
    fn stream_follow_window_tails_with_expiry() {
        let path = temp_events();
        let out = run_ok(&[
            "stream",
            &path,
            "--follow",
            "--window",
            "3",
            "--batch",
            "2",
            "--idle-ms",
            "80",
            "--poll-ms",
            "10",
        ]);
        assert!(out.contains("following"), "{out}");
        assert!(out.contains("window 3"), "{out}");
        assert!(
            out.contains("CORE REFRESH") || out.contains("EXACT"),
            "first batch must certify: {out}"
        );
        assert!(out.contains("followed 6 events"), "{out}");
        assert!(out.contains("edges expired"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    /// Replay and `--follow` run one loop, so on a file that does not
    /// grow they end on the same final row and print the same summary.
    #[test]
    fn replay_and_follow_print_the_same_summary() {
        let path = temp_events();
        let line = |out: &str, prefix: &str| {
            out.lines()
                .find(|l| l.starts_with(prefix))
                .map(str::to_string)
        };
        // The row table ends at the first blank line.
        let final_row = |out: &str| {
            out.lines()
                .take_while(|l| !l.is_empty())
                .last()
                .map(str::to_string)
        };
        for (cmd, flags, has_witness) in [
            ("stream", &["--batch", "2"][..], true),
            ("stream", &["--batch", "2", "--window", "3"][..], true),
            ("shard", &["--batch", "2", "--shards", "2"][..], true),
        ] {
            let mut replay = vec![cmd, path.as_str()];
            replay.extend_from_slice(flags);
            let mut follow = replay.clone();
            follow.extend_from_slice(&["--follow", "--idle-ms", "80", "--poll-ms", "10"]);
            let (a, b) = (run_ok(&replay), run_ok(&follow));
            let row = final_row(&a);
            assert!(
                row.as_deref().is_some_and(|r| r.starts_with("    3 ")),
                "6 events at batch 2 end on epoch 3: {a}"
            );
            assert_eq!(row, final_row(&b), "{a}\n{b}");
            assert!(line(&a, "final density").is_some(), "{a}");
            assert_eq!(line(&a, "witness |S|").is_some(), has_witness, "{a}");
            for prefix in ["final density", "witness |S|"] {
                assert_eq!(line(&a, prefix), line(&b, prefix), "{a}\n{b}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_usage_errors() {
        let path = temp_events();
        for bad in [
            vec!["serve", &path],
            vec!["serve", &path, "--listen", "127.0.0.1:0", "--readers", "0"],
            vec!["serve", &path, "--listen", "127.0.0.1:0", "--core", "5"],
            vec!["serve", &path, "--listen", "127.0.0.1:0", "--topk"],
            vec!["serve", &path, "--listen", "127.0.0.1:0", "--batch", "0"],
            vec!["serve", &path, "--listen", "127.0.0.1:0", "--resume"],
            vec![
                "serve",
                &path,
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--solver",
                "exact",
            ],
            // The sharded engine certifies by merge: the stream engine's
            // certification knobs do not reach it.
            vec![
                "serve",
                &path,
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--tolerance",
                "0.5",
            ],
            vec![
                "serve",
                &path,
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--slack",
                "1",
            ],
            vec![
                "serve",
                &path,
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--threads",
                "2",
            ],
            vec!["serve", &path, "--listen", "127.0.0.1:0", "--bogus"],
        ] {
            assert!(matches!(run_err(&bad), CliError::Usage(_)), "{bad:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// End-to-end `dds serve`: real TCP queries answered while the follow
    /// loop is live, for both engine back ends.
    #[test]
    fn serve_answers_queries_while_following() {
        use std::io::{BufRead, BufReader, Write as IoWrite};
        for extra in [&[][..], &["--shards", "2"][..]] {
            let path = temp_events();
            // Reserve a port: bind :0, note the address, release it. A
            // tiny race with other processes, but private enough for CI.
            let addr = {
                let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                probe.local_addr().unwrap().to_string()
            };
            let serve_args: Vec<String> = [
                "serve",
                &path,
                "--listen",
                &addr,
                "--batch",
                "2",
                "--idle-ms",
                "2000",
                "--poll-ms",
                "10",
                "--core",
                "1,1",
                "--topk",
                "2",
            ]
            .iter()
            .map(|s| s.to_string())
            .chain(extra.iter().map(|s| s.to_string()))
            .collect();
            let server = std::thread::spawn(move || {
                let mut buf = Vec::new();
                run(&serve_args, &mut buf).expect("serve should succeed");
                String::from_utf8(buf).unwrap()
            });
            // The listener comes up before the follow loop starts; retry
            // briefly while the serve thread boots.
            let mut stream = None;
            for _ in 0..200 {
                match std::net::TcpStream::connect(&addr) {
                    Ok(s) => {
                        stream = Some(s);
                        break;
                    }
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
                }
            }
            let mut stream = stream.expect("server must come up");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut query = |q: &str| {
                stream.write_all(format!("{q}\n").as_bytes()).unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line.trim_end().to_string()
            };
            // Wait for the first publish (epoch >= 1) so the answers
            // below come from real ingested state.
            let mut density = String::new();
            for _ in 0..200 {
                density = query("DENSITY");
                if !density.contains("epoch=0") {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert!(density.starts_with("OK DENSITY epoch="), "{density}");
            assert!(!density.contains("epoch=0"), "publish must land: {density}");
            let member = query("MEMBER 0");
            assert!(member.starts_with("OK MEMBER"), "{member}");
            let core = query("CORE 1 1 0");
            assert!(core.starts_with("OK CORE epoch="), "{core}");
            let topk = query("TOPK 2");
            assert!(topk.starts_with("OK TOPK"), "{topk}");
            let err = query("CORE 9 9 0");
            assert!(err.starts_with("ERR epoch="), "{err}");
            stream.write_all(b"QUIT\n").unwrap();
            drop(stream);
            let out = server.join().unwrap();
            assert!(out.contains("serving on"), "{out}");
            assert!(out.contains("followed 6 events"), "{out}");
            assert!(out.contains("served"), "{out}");
            assert!(out.contains("snapshots published"), "{out}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn serve_checkpoints_and_resumes_like_follow() {
        let path = temp_events();
        let ck = temp_path("serve_ck.snap");
        let out = run_ok(&[
            "serve",
            &path,
            "--listen",
            "127.0.0.1:0",
            "--batch",
            "3",
            "--idle-ms",
            "80",
            "--poll-ms",
            "10",
            "--checkpoint",
            &ck,
        ]);
        assert!(out.contains("followed 6 events"), "{out}");
        assert!(std::path::Path::new(&ck).exists(), "checkpoint must land");
        let resumed = run_ok(&[
            "serve",
            &path,
            "--listen",
            "127.0.0.1:0",
            "--batch",
            "3",
            "--idle-ms",
            "80",
            "--poll-ms",
            "10",
            "--checkpoint",
            &ck,
            "--resume",
        ]);
        assert!(resumed.contains("resumed from"), "{resumed}");
        assert!(resumed.contains("followed 0 events"), "{resumed}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ck).ok();
    }

    #[test]
    fn help_mentions_serve() {
        let out = run_ok(&["help"]);
        assert!(out.contains("dds serve"), "{out}");
        assert!(out.contains("DENSITY / MEMBER"), "{out}");
    }

    #[test]
    fn stream_parse_and_io_errors_propagate() {
        assert!(matches!(
            run_err(&["stream", "/definitely/not/here.events"]),
            CliError::Stream(_)
        ));
        let path = std::env::temp_dir().join(format!(
            "dds_cli_badstream_{}_{:?}.events",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, "0 + 1 2\n1 * 3 4\n").unwrap();
        let err = run_err(&["stream", &path.to_string_lossy(), "--batch", "2"]);
        match err {
            CliError::Stream(e) => assert!(e.to_string().contains("line 2"), "{e}"),
            other => panic!("expected stream error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn help_mentions_stream() {
        assert!(run_ok(&["help"]).contains("dds stream"));
    }

    fn temp_path(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!(
                "dds_cli_{tag}_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn stream_metrics_and_trace_files_emit() {
        let path = temp_events();
        let metrics = temp_path("metrics.prom");
        let trace = temp_path("trace.jsonl");
        let out = run_ok(&[
            "stream",
            &path,
            "--batch",
            "2",
            "--metrics",
            &metrics,
            "--trace",
            &trace,
        ]);
        assert!(out.contains("metrics exposition at"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        let parsed = dds_obs::parse_exposition(&text).unwrap();
        // 6 events at batch 2 seal exactly 3 epochs; the counter must
        // reconcile with the replay's own epoch count.
        assert!(
            parsed
                .get("dds_stream_epochs_total")
                .is_some_and(|v| *v == 3u64),
            "{text}"
        );
        assert!(
            parsed
                .get("dds_stream_inserts_total")
                .is_some_and(|v| v.as_u64() >= Some(4)),
            "{text}"
        );
        assert!(
            parsed.contains_key("dds_pool_tasks_total"),
            "worker-pool counters ride the same exposition: {text}"
        );
        assert!(
            std::fs::metadata(format!("{metrics}.jsonl")).unwrap().len() > 0,
            "jsonl snapshot must land"
        );
        let spans = std::fs::read_to_string(&trace).unwrap();
        assert!(spans.contains("\"span\":\"stream.apply\""), "{spans}");
        assert!(
            !spans.contains("dur_us"),
            "CLI traces are deterministic (no wall-clock): {spans}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(format!("{metrics}.jsonl")).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn stream_follow_keeps_exposition_fresh() {
        let path = temp_events();
        let metrics = temp_path("follow_metrics.prom");
        let out = run_ok(&[
            "stream",
            &path,
            "--follow",
            "--batch",
            "3",
            "--idle-ms",
            "80",
            "--poll-ms",
            "10",
            "--metrics",
            &metrics,
            "--metrics-every",
            "1",
        ]);
        assert!(out.contains("followed 6 events"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        let parsed = dds_obs::parse_exposition(&text).unwrap();
        assert!(
            parsed
                .get("dds_stream_epochs_total")
                .is_some_and(|v| *v == 2u64),
            "{text}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(format!("{metrics}.jsonl")).ok();
    }

    #[test]
    fn shard_metrics_and_trace_emit() {
        let path = temp_events();
        let metrics = temp_path("shard_metrics.prom");
        let trace = temp_path("shard_trace.jsonl");
        let out = run_ok(&[
            "shard",
            &path,
            "--shards",
            "2",
            "--batch",
            "2",
            "--metrics",
            &metrics,
            "--trace",
            &trace,
        ]);
        assert!(out.contains("metrics exposition at"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        let parsed = dds_obs::parse_exposition(&text).unwrap();
        assert!(
            parsed
                .get("dds_shard_epochs_total")
                .is_some_and(|v| *v == 3u64),
            "{text}"
        );
        assert!(
            parsed.contains_key("dds_sketch_refreshes_total"),
            "merged sketch refreshes must sum into the shared registry: {text}"
        );
        let spans = std::fs::read_to_string(&trace).unwrap();
        assert!(spans.contains("\"span\":\"shard.apply\""), "{spans}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(format!("{metrics}.jsonl")).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn obs_usage_errors() {
        let path = temp_events();
        for bad in [
            vec!["stream", &path, "--metrics-every", "5"],
            vec![
                "stream",
                &path,
                "--metrics",
                "/tmp/m.prom",
                "--metrics-every",
                "0",
            ],
            vec!["shard", &path, "--metrics-every", "5"],
        ] {
            assert!(matches!(run_err(&bad), CliError::Usage(_)), "{bad:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exact_metrics_exports_solve_counters() {
        let path = temp_graph();
        let metrics = temp_path("exact_metrics.prom");
        let out = run_ok(&["exact", &path, "--metrics", &metrics]);
        assert!(out.contains("metrics exposition at"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        let parsed = dds_obs::parse_exposition(&text).unwrap();
        assert!(
            parsed
                .get("dds_exact_ratios_solved_total")
                .is_some_and(|v| v.as_u64() > Some(0)),
            "{text}"
        );
        assert!(
            matches!(
                run_err(&["exact", &path, "--baseline", "--metrics", &metrics]),
                CliError::Usage(_)
            ),
            "--baseline has no context counters to export"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn trace_report_reproduces_the_committed_golden() {
        let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
        let fixture = format!("{fixtures}/trace_fixture.jsonl");
        let folded_out = temp_path("trace_report.folded");
        let out = run_ok(&["trace-report", &fixture, "--folded", &folded_out]);
        let golden_table =
            std::fs::read_to_string(format!("{fixtures}/trace_report_table.golden")).unwrap();
        assert_eq!(
            out,
            format!("{golden_table}folded stacks at {folded_out}\n"),
            "trace-report table must reproduce the golden byte-for-byte"
        );
        let golden_folded =
            std::fs::read_to_string(format!("{fixtures}/trace_report_folded.golden")).unwrap();
        assert_eq!(std::fs::read_to_string(&folded_out).unwrap(), golden_folded);
        assert!(matches!(
            run_err(&["trace-report", "/definitely/not/here.jsonl"]),
            CliError::Io(_)
        ));
        std::fs::remove_file(&folded_out).ok();
    }

    #[test]
    fn replays_stay_byte_identical_without_admin() {
        // The determinism pin for this PR: with `--admin` unset the trace
        // path never reads the wall clock, so identical replays produce
        // byte-identical trace files (stdout still reports elapsed time).
        let path = temp_events();
        let trace_a = temp_path("det_a.jsonl");
        let trace_b = temp_path("det_b.jsonl");
        run_ok(&["stream", &path, "--batch", "2", "--trace", &trace_a]);
        run_ok(&["stream", &path, "--batch", "2", "--trace", &trace_b]);
        assert_eq!(
            std::fs::read(&trace_a).unwrap(),
            std::fs::read(&trace_b).unwrap(),
            "deterministic traces must be byte-identical"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&trace_a).ok();
        std::fs::remove_file(&trace_b).ok();
    }

    /// A stdout sink the test can inspect while `run` is still inside the
    /// follow loop — how the admin tests learn the ephemeral port.
    #[derive(Clone, Default)]
    struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Polls the shared buffer until `prefix` appears, returning the rest
    /// of that line (e.g. the bound address it announces).
    fn wait_for_line(buf: &SharedOut, prefix: &str) -> String {
        for _ in 0..400 {
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            if let Some(line) = text.lines().find(|l| l.starts_with(prefix)) {
                return line[prefix.len()..].trim().to_string();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("never saw {prefix:?} in the output");
    }

    #[test]
    fn serve_admin_answers_all_routes_and_stats() {
        use std::io::{BufRead, BufReader};
        let path = temp_events();
        let buf = SharedOut::default();
        let handle = {
            let args: Vec<String> = [
                "serve",
                &path,
                "--listen",
                "127.0.0.1:0",
                "--batch",
                "2",
                "--idle-ms",
                "1500",
                "--poll-ms",
                "10",
                "--admin",
                "127.0.0.1:0",
                "--slow-us",
                "0",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let mut out = buf.clone();
            std::thread::spawn(move || run(&args, &mut out))
        };
        let admin_addr = wait_for_line(&buf, "admin endpoint on ");
        let serve_addr = wait_for_line(&buf, "serving on ");
        let serve_addr = serve_addr.split_whitespace().next().unwrap().to_string();

        // Readiness flips once the first snapshot publishes.
        for _ in 0..400 {
            let (code, _) = dds_obs::http_get(&admin_addr, "/readyz").unwrap();
            if code == 200 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let (code, body) = dds_obs::http_get(&admin_addr, "/healthz").unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        let (code, metrics) = dds_obs::http_get(&admin_addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        let parsed = dds_obs::parse_exposition(&metrics).unwrap();
        assert!(parsed.contains_key("dds_serve_readers"), "{metrics}");
        let (code, status) = dds_obs::http_get(&admin_addr, "/status").unwrap();
        assert_eq!(code, 200);
        assert!(status.contains("\"role\":\"serve\""), "{status}");
        assert!(status.contains("\"readers\":4"), "{status}");
        let (code, _) = dds_obs::http_get(&admin_addr, "/slow").unwrap();
        assert_eq!(code, 200);
        let (code, _) = dds_obs::http_get(&admin_addr, "/nope").unwrap();
        assert_eq!(code, 404);

        // The STATS verb answers from the same live counters over TCP.
        let mut stream = std::net::TcpStream::connect(&serve_addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(b"STATS\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK STATS epoch="), "{line}");
        assert!(line.contains("readers=4"), "{line}");
        stream.write_all(b"QUIT\n").unwrap();
        drop(stream);

        handle.join().unwrap().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(
            text.contains("slow ops (threshold 0 us"),
            "a zero-threshold ring must drain at exit: {text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_follow_admin_tracks_readiness_and_staleness() {
        let path = temp_events();
        let buf = SharedOut::default();
        let handle = {
            let args: Vec<String> = [
                "stream",
                &path,
                "--follow",
                "--batch",
                "2",
                "--idle-ms",
                "1500",
                "--poll-ms",
                "10",
                "--admin",
                "127.0.0.1:0",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let mut out = buf.clone();
            std::thread::spawn(move || run(&args, &mut out))
        };
        let admin_addr = wait_for_line(&buf, "admin endpoint on ");
        let mut ready_body = String::new();
        for _ in 0..400 {
            let (code, body) = dds_obs::http_get(&admin_addr, "/readyz").unwrap();
            if code == 200 {
                ready_body = body;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(ready_body.starts_with("ready"), "{ready_body}");
        let (code, status) = dds_obs::http_get(&admin_addr, "/status").unwrap();
        assert_eq!(code, 200);
        assert!(status.contains("\"role\":\"stream\""), "{status}");
        assert!(status.contains("\"ready\":true"), "{status}");
        let (_, metrics) = dds_obs::http_get(&admin_addr, "/metrics").unwrap();
        let parsed = dds_obs::parse_exposition(&metrics).unwrap();
        assert!(
            parsed.contains_key("dds_lag_tail_bytes"),
            "staleness gauges must ride the live exposition: {metrics}"
        );
        assert!(
            parsed
                .get("dds_stream_epochs_total")
                .is_some_and(|v| v.as_u64() >= Some(1)),
            "{metrics}"
        );
        handle.join().unwrap().unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// Replays build the admin plane like follow does: `--slow-us 0`
    /// drains the slow-op ring at exit and `--admin` starts the endpoint,
    /// for both stream engines.
    #[test]
    fn stream_replay_runs_the_admin_plane() {
        let path = temp_events();
        for extra in [&[][..], &["--window", "3"][..]] {
            let mut args = vec!["stream", path.as_str(), "--batch", "2", "--slow-us", "0"];
            args.extend_from_slice(extra);
            let out = run_ok(&args);
            assert!(out.contains("slow ops (threshold 0 us"), "{out}");
            args.extend_from_slice(&["--admin", "127.0.0.1:0"]);
            let out = run_ok(&args);
            assert!(out.contains("admin endpoint on"), "{out}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// The shared seal path keeps the admin plane whole for every command
    /// that seals through it: `events` cumulative, `snapshot_epoch` at the
    /// sealed epoch once the query tier published it, and the
    /// `dds_lag_tail_bytes` gauge equal to the board's `tail_bytes`.
    #[test]
    fn sealer_keeps_the_admin_plane_current() {
        let obs = ObsFlags {
            admin: Some("127.0.0.1:0".into()),
            slow_us: Some(0),
            ..ObsFlags::default()
        };
        let serve = ServeOpts {
            listen: "127.0.0.1:0".into(),
            readers: 1,
            core: None,
            top_k: 0,
        };
        let mut out = Vec::new();
        let mut sealer = Sealer::open(&mut out, "cluster", &obs, Some(&serve), 0).unwrap();
        for epoch in 1..=3 {
            let row = EpochRow {
                epoch,
                m: 10,
                density: 1.0,
                lower: 1.0,
                upper: 2.0,
                factor: 2.0,
                mode: None,
                within_band: true,
                solve: None,
            };
            let sealed = Sealed {
                row,
                events: 100,
                n: 8,
                witness: None,
                cursor: epoch * 1_000,
                behind: 994,
                began: Some(std::time::Instant::now()),
            };
            sealer
                .seal(&mut out, sealed, || unreachable!("no derived query types"))
                .unwrap();
        }
        let registry = sealer.registry.clone().unwrap();
        let status = sealer.admin.as_ref().unwrap().board.status_json(&registry);
        for field in [
            "\"ready\":true",
            "\"epoch\":3",
            "\"events\":300",
            "\"cursor\":3000",
            "\"tail_bytes\":994",
            "\"snapshot_epoch\":3",
            "\"snapshot_age_epochs\":0",
        ] {
            assert!(status.contains(field), "{field} missing: {status}");
        }
        assert_eq!(registry.gauge_value("dds_lag_tail_bytes"), Some(994));
        sealer.end_table(&mut out).unwrap();
        sealer.finish(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("    3     10"),
            "the table ends on epoch 3: {text}"
        );
        assert!(text.contains("3 snapshots published"), "{text}");
        assert!(
            text.contains("epoch.seal"),
            "every seal reaches the ring: {text}"
        );
    }

    /// `dds cluster-coordinator` seals through the shared path: its table
    /// ends on the final epoch although `--log-every` never fires, the
    /// summary reports the max certified factor, `--slow-us 0` drains
    /// `epoch.seal` records, and `--trace`/`--metrics` see every merged
    /// refresh.
    #[test]
    fn cluster_coordinator_seals_through_the_shared_path() {
        let path = temp_path("cluster_seal.events");
        let trace = temp_path("cluster_seal.trace");
        let metrics = temp_path("cluster_seal.prom");
        // A 3x3 block, then 21 distinct noise edges: 15 epochs of 2.
        let events: String = (0..30u32)
            .map(|i| {
                let (u, v) = if i < 9 {
                    (i / 3, 3 + i % 3)
                } else {
                    (6 + i % 7, 13 + i % 4)
                };
                format!("{i} + {u} {v}\n")
            })
            .collect();
        std::fs::write(&path, events).unwrap();
        let buf = SharedOut::default();
        let coordinator = {
            let args: Vec<String> = [
                "cluster-coordinator",
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--batch",
                "2",
                "--log-every",
                "1000",
                "--slow-us",
                "0",
                "--trace",
                &trace,
                "--metrics",
                &metrics,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let mut out = buf.clone();
            std::thread::spawn(move || run(&args, &mut out))
        };
        let banner = wait_for_line(&buf, "coordinating 2 shards on ");
        let addr = banner.split(' ').next().unwrap().to_string();
        let workers: Vec<_> = (0..2)
            .map(|k| {
                let args: Vec<String> = [
                    "cluster-shard",
                    &path,
                    "--connect",
                    &addr,
                    "--shard-id",
                    &format!("{k}/2"),
                    "--batch",
                    "2",
                    "--idle-ms",
                    "300",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect();
                std::thread::spawn(move || run(&args, &mut Vec::new()))
            })
            .collect();
        for worker in workers {
            worker.join().unwrap().expect("worker should succeed");
        }
        coordinator
            .join()
            .unwrap()
            .expect("coordinator should succeed");
        let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();

        let (table, summary) = out.split_once("\n\n").expect("a summary follows the table");
        let sealed = line_of(summary, "sealed ").expect("sealed line");
        assert!(sealed.starts_with("sealed 15 epochs"), "{out}");
        let last = table.lines().last().unwrap();
        assert!(
            last.starts_with("   15 "),
            "the table ends on epoch 15: {out}"
        );
        assert!(summary.contains("max certified factor"), "{out}");
        assert!(summary.contains("epoch.seal  epoch="), "{out}");
        let refreshes: usize = sealed
            .split(" merged refreshes")
            .next()
            .and_then(|head| head.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("refresh count");
        assert!(refreshes > 0, "{out}");
        let spans = std::fs::read_to_string(&trace).unwrap();
        let merges = spans.matches("\"span\":\"cluster.merge\"").count();
        assert_eq!(merges, refreshes, "one span per merged refresh: {spans}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        let parsed = dds_obs::parse_exposition(&text).unwrap();
        assert!(
            parsed
                .get("dds_sketch_refreshes_total")
                .is_some_and(|v| v.as_u64() == Some(refreshes as u64)),
            "{text}"
        );
        for file in [&path, &trace, &metrics, &format!("{metrics}.jsonl")] {
            std::fs::remove_file(file).ok();
        }
    }
}
