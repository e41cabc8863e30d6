//! The repository benchmark. One invocation runs one workload for one
//! seed:
//!
//! ```text
//! dds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! It generates the workload's input into files (untimed, in a child
//! process), then repeats set-up (parse the file, build engines and
//! server, replay the warm-up prefix) and a timed pass until the time
//! budget is spent, checking outputs against oracles outside the timed
//! regions. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced iterations and prints the
//! per-layer metrics (span self times around calls into the library
//! crates, counts from their public reports) plus the tracing overhead.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. Results, the run header and the span trace are
//! also written under `work/`.

mod inputs;
mod metrics;
mod trace;
mod workloads;

use std::process::ExitCode;

use inputs::{Input, Spec, Workload};
use metrics::{json_string, median, MetricSet};
use trace::Spans;
use workloads::{Checks, Ctx, Outcome};

/// The end-to-end metrics every untraced run reports, with units.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")];

/// Layers timed from outside: span name → `<name>_s` metric.
const TIMED_LAYERS: [&str; 13] = [
    "graph.load",
    "stream.load",
    "stream.warmup",
    "core.exact",
    "xycore.sweep",
    "stream.window_sweep",
    "stream.window_apply",
    "stream.apply",
    "serve.publish",
    "cluster.worker",
    "cluster.encode",
    "cluster.decode",
    "cluster.coord",
];

/// The per-layer metrics every traced run reports, with units. A metric a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("trace.overhead", "ratio"),
    ("bracket_max", "x"),
    ("graph.load_s", "s"),
    ("stream.load_s", "s"),
    ("stream.warmup_s", "s"),
    ("core.exact_s", "s"),
    ("core.exact_solves", "count"),
    ("core.ratios_solved", "count"),
    ("core.prune_share", "ratio"),
    ("core.speculative_solves", "count"),
    ("core.speculative_win_share", "ratio"),
    ("core.pool_tasks", "count"),
    ("core.pool_steals", "count"),
    ("core.pool_parks", "count"),
    ("flow.decisions", "count"),
    ("flow.network_edges", "count"),
    ("flow.arena_reuse_hits", "count"),
    ("xycore.core_cache_hits", "count"),
    ("xycore.sweep_s", "s"),
    ("xycore.repairs", "count"),
    ("stream.window_sweep_s", "s"),
    ("stream.window_apply_s", "s"),
    ("stream.window_sweeps", "count"),
    ("stream.window_incremental_share", "ratio"),
    ("stream.window_epoch_samples", "count"),
    ("stream.window_epoch_p50_us", "us"),
    ("stream.window_epoch_tail_us", "us"),
    ("stream.apply_s", "s"),
    ("stream.resolves", "count"),
    ("serve.publish_s", "s"),
    ("serve.publishes", "count"),
    ("serve.queries", "count"),
    ("serve.query_errors", "count"),
    ("serve.query_samples", "count"),
    ("serve.query_p99_us", "us"),
    ("serve.client_late_us", "us"),
    ("cluster.worker_s", "s"),
    ("cluster.encode_s", "s"),
    ("cluster.decode_s", "s"),
    ("cluster.coord_s", "s"),
    ("cluster.digest_bytes", "bytes"),
    ("cluster.digest_ratio", "ratio"),
    ("cluster.refreshes", "count"),
    ("cluster.escalations", "count"),
    ("cluster.escalation_share", "ratio"),
    ("cluster.bracket_max", "x"),
    ("cluster.epoch_samples", "count"),
    ("cluster.epoch_p50_us", "us"),
    ("cluster.epoch_tail_us", "us"),
    ("sketch.retained", "count"),
    ("sketch.merged_level", "count"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    generate: bool,
}

const USAGE: &str = "usage: dds-perfbench --workload <static-exact|window-arrivals|churn-serve> \
     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut tiny, mut generate) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" | "--generate" => {
                generate |= flag == "--generate";
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    Ok(Args {
        workload,
        seed,
        seconds: if generate {
            0.0
        } else {
            seconds.ok_or("missing --seconds")?
        },
        trace: if generate {
            false
        } else {
            trace.ok_or("missing --trace")?
        },
        tiny,
        generate,
    })
}

/// Facts printed with every run and stored with its results.
struct Header {
    workload: Workload,
    seed: u64,
    tiny: bool,
    trace: bool,
    seconds: f64,
    n: usize,
    m: usize,
    events: usize,
    epochs: usize,
    nproc: usize,
    threads: usize,
    cpu: String,
    commit: String,
}

impl Header {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workload", json_string(self.workload.name())),
            ("seed", self.seed.to_string()),
            ("tiny", self.tiny.to_string()),
            ("trace", self.trace.to_string()),
            ("seconds", metrics::json_number(self.seconds)),
            ("n", self.n.to_string()),
            ("m", self.m.to_string()),
            ("events", self.events.to_string()),
            ("epochs", self.epochs.to_string()),
            ("nproc", self.nproc.to_string()),
            ("threads", self.threads.to_string()),
            ("cpu", json_string(&self.cpu)),
            ("commit", json_string(&self.commit)),
        ]
    }

    fn line(&self) -> String {
        let body: Vec<String> = self
            .fields()
            .into_iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("run {}", body.join(" "))
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .fields()
            .into_iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` beside this package (the
/// benchmark may run from a plain file tree, where it is unknown).
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// The end-to-end metrics of an untraced run, plus the workload's own
/// figures (printed, not part of the result line).
fn end_to_end(out: &Outcome, checks: &Checks) -> MetricSet {
    let mut m = MetricSet::default();
    let setups: Vec<f64> = out.iters.iter().map(|i| i.setup_s).collect();
    let passes: Vec<f64> = out.iters.iter().filter_map(|i| i.pass_s).collect();
    m.put(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    m.put(
        "pass_s",
        median(&passes),
        "s",
        format!("median of {} passes", passes.len()),
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of this process");
    for x in out.e2e.iter() {
        m.put(&x.name, x.value, x.unit, x.note.clone());
    }
    m.put(
        "fail_ratio",
        workloads::share(checks.failed as f64, checks.attempted as f64),
        "ratio",
        format!(
            "{} of {} checked operations failed",
            checks.failed, checks.attempted
        ),
    );
    m
}

/// The per-layer metrics of a traced run: median span self time per
/// layer over the traced iterations, the workload's counts, and the
/// tracing overhead. Metrics the workload does not exercise read 0.
fn per_layer(out: &Outcome, spans: &Spans) -> MetricSet {
    let mut m = MetricSet::default();
    let passes = |traced: bool| -> Vec<f64> {
        out.iters
            .iter()
            .filter(|i| i.traced == traced)
            .filter_map(|i| i.pass_s)
            .collect()
    };
    let (traced, untraced) = (passes(true), passes(false));
    m.put(
        "trace.overhead",
        workloads::share(median(&traced), median(&untraced)),
        "ratio",
        "median traced pass_s / median untraced pass_s",
    );
    m.put("trace.spans", spans.len() as f64, "count", "");
    m.put("trace.traced_iterations", traced.len() as f64, "count", "");
    m.put(
        "trace.untraced_iterations",
        untraced.len() as f64,
        "count",
        "",
    );
    let by_run = spans.self_time_by_run();
    for layer in TIMED_LAYERS {
        let per_iter: Vec<f64> = out
            .iters
            .iter()
            .enumerate()
            .filter(|(_, it)| it.traced)
            .map(|(i, _)| {
                by_run
                    .get(&(i as u32))
                    .and_then(|r| r.get(layer))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        m.put(
            &format!("{layer}_s"),
            median(&per_iter),
            "s",
            "median self time per traced iteration",
        );
    }
    for x in out.layers.iter().chain(out.e2e.iter()) {
        if PER_LAYER.iter().any(|(name, _)| *name == x.name) {
            m.put(&x.name, x.value, x.unit, x.note.clone());
        }
    }
    for (name, unit) in PER_LAYER {
        if m.get(name).is_none() {
            m.put(name, 0.0, unit, "not exercised by this workload");
        }
    }
    m
}

fn print_metrics(set: &MetricSet) {
    for x in set.iter() {
        let note = if x.note.is_empty() {
            String::new()
        } else {
            format!("  # {}", x.note)
        };
        println!("metric {} {} {}{note}", x.name, x.value, x.unit);
    }
}

/// Runs the workload on a generated input; returns whether every oracle
/// held and the result line.
fn execute(args: &Args, input: &Input) -> Result<(bool, String), String> {
    let spec = inputs::spec(args.workload, args.tiny);
    let threads = dds_core::auto_threads();
    let mut ctx = Ctx {
        input,
        spec,
        threads,
        seconds: args.seconds,
        trace: args.trace,
        spans: Spans::new(false),
        checks: Checks::default(),
    };
    let mut header = Header {
        workload: args.workload,
        seed: args.seed,
        tiny: args.tiny,
        trace: args.trace,
        seconds: args.seconds,
        n: input.n,
        m: input.m,
        events: input.events,
        epochs: match spec {
            Spec::Planted { .. } => 0,
            Spec::Arrivals { events, batch, .. } => events.div_ceil(batch),
            Spec::Churn { batch, .. } => input.events.div_ceil(batch),
        },
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        threads,
        cpu: cpu_model(),
        commit: git_commit(),
    };
    let out = match args.workload {
        Workload::StaticExact => workloads::static_exact::run(&mut ctx),
        Workload::WindowArrivals => workloads::window_arrivals::run(&mut ctx),
        Workload::ChurnServe => workloads::churn_serve::run(&mut ctx),
    };
    if header.m == 0 {
        header.m = out.live_m;
    }
    println!("{}", header.line());
    println!(
        "pass covers {} epochs after set-up; {} live edges after set-up; {} iterations",
        out.epochs,
        out.live_m,
        out.iters.len()
    );

    let all = if args.trace {
        per_layer(&out, &ctx.spans)
    } else {
        end_to_end(&out, &ctx.checks)
    };
    print_metrics(&all);
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let reported = all.select(&names);

    let checks = &ctx.checks;
    for f in &checks.failures {
        eprintln!("oracle failure: {f}");
    }
    let correct = checks.failed == 0;
    let dir = inputs::work_dir();
    let stem = format!(
        "{}{}-seed{}-trace{}",
        args.workload,
        if args.tiny { "-tiny" } else { "" },
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        ctx.spans
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let failures: Vec<String> = checks.failures.iter().map(|f| json_string(f)).collect();
    let results = format!(
        "{{\"header\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {}, \"setup_s\": {:?}, \"pass_s\": {:?}}}\n",
        header.json(),
        checks.attempted,
        checks.failed,
        failures.join(", "),
        all.to_json(),
        out.iters.iter().map(|i| i.setup_s).collect::<Vec<_>>(),
        out.iters.iter().filter_map(|i| i.pass_s).collect::<Vec<_>>(),
    );
    let path = dir.join(format!("{stem}.results.json"));
    std::fs::write(&path, results).map_err(|e| format!("write {}: {e}", path.display()))?;
    let line = metrics::result_line(correct, checks.attempted.max(1), checks.failed, &reported);
    Ok((correct, line))
}

fn run(args: &Args) -> Result<bool, String> {
    let input = inputs::generate_in_child(args.workload, args.seed, args.tiny)?;
    let result = execute(args, &input);
    input.remove();
    let (correct, line) = result?;
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.generate {
        return match inputs::generate(args.workload, args.seed, args.tiny) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: an output oracle failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload churn-serve --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.tiny),
            (Workload::ChurnServe, 7, 10.0, true, false)
        );
        assert!(args("--workload churn-serve --seed 7 --seconds 10").is_err());
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload churn-serve --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload churn-serve --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload churn-serve --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--generate static-exact --seed 3").unwrap().generate);
    }

    #[test]
    fn metric_lists_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(metrics::valid_name(name), "{name}");
            assert!(metrics::valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for layer in TIMED_LAYERS {
            let name = format!("{layer}_s");
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == name),
                "{name} not in PER_LAYER"
            );
        }
    }

    /// BENCHMARK.json at the repository root must list exactly these
    /// metrics with these units, in this order.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        // (name, unit) of each entry of a section; workloads have no unit.
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let get = |key: &str| {
                        entry
                            .find(&format!("\"{key}\": \""))
                            .map_or(String::new(), |at| {
                                let at = at + key.len() + 5;
                                entry[at..at + entry[at..].find('"').expect("value closes")]
                                    .to_string()
                            })
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), want(&END_TO_END));
        assert_eq!(listed("per_layer"), want(&PER_LAYER));
        let workloads: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), "")).collect();
        assert_eq!(listed("workloads"), want(&workloads));
    }

    /// The value of `name` in a result line.
    fn value(line: &str, name: &str) -> f64 {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {line}"))
            + key.len();
        let end = at + line[at..].find(',').expect("value ends");
        line[at..end].parse().expect("a number")
    }

    /// Tiny-size mode of a workload, end to end with its oracles, in both
    /// run kinds; returns the traced run's result line.
    fn tiny(workload: Workload, seed: u64) -> String {
        let mut traced = String::new();
        for trace in [false, true] {
            let args = Args {
                workload,
                seed,
                seconds: 0.2,
                trace,
                tiny: true,
                generate: false,
            };
            let input = inputs::generate(workload, seed, true).expect("generate");
            let result = execute(&args, &input);
            input.remove();
            let (correct, line) = result.expect("the run completes");
            assert!(correct, "{line}");
            let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, _) in list {
                value(&line, name);
            }
            if trace {
                traced = line;
            } else {
                for (name, _) in END_TO_END {
                    assert!(value(&line, name) > 0.0, "{name} reads 0: {line}");
                }
            }
        }
        traced
    }

    #[test]
    fn tiny_static_exact_runs_end_to_end() {
        let line = tiny(Workload::StaticExact, 9001);
        assert!(value(&line, "core.ratios_solved") > 0.0);
        assert!(value(&line, "flow.decisions") > 0.0);
    }

    #[test]
    fn tiny_window_arrivals_runs_end_to_end() {
        let line = tiny(Workload::WindowArrivals, 9002);
        assert!(value(&line, "stream.window_sweeps") > 0.0);
        assert!(value(&line, "core.exact_solves") > 0.0);
    }

    #[test]
    fn tiny_churn_serve_runs_end_to_end() {
        let line = tiny(Workload::ChurnServe, 9003);
        // The worker pool is process-global and other tests use it
        // concurrently, so its counters are checked in real runs only.
        let exact_work = |n: &str| {
            (n.starts_with("core.") || n.starts_with("flow.")) && !n.starts_with("core.pool_")
        };
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| exact_work(n)) {
            assert_eq!(value(&line, name), 0.0, "{name} must read 0 on churn-serve");
        }
        assert!(value(&line, "serve.publishes") > 0.0);
        assert!(value(&line, "cluster.refreshes") > 0.0);
    }
}
