//! churn-serve: `dds serve --solver approx --core 1,1 --topk 2` over a
//! churn stream with one closed-loop client. Why it exists (as in
//! BENCHMARK.json): Serving control with no exact work (core.*, flow.*
//! read 0): stream.apply_s and serve.publish_s move pass_s; cluster.* and
//! sketch.* are measured on its stream.
//!
//! It is the only workload with reads beside writes: serve.query_* move
//! the printed query_p50_us, and its traced iterations also run the
//! cluster path (`super::cluster`) on the same stream. `--seed` relabels
//! the E18 stream (see `Workload::base_seed`).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dds_core::WorkerPool;
use dds_serve::{EpochFacts, PublishOptions, Publisher, ServeMetrics, Server, SnapshotCell};
use dds_stream::{load_events, Batch, SolverKind, StreamConfig, StreamEngine};

use super::{cluster, iterate, pool_delta, put_pool, within, Ctx, Outcome, SLACK, TOLERANCE};
use crate::inputs::Spec;
use crate::metrics::{self, MetricSet};

const CORE: (u64, u64) = (1, 1);
const TOP_K: usize = 2;
/// Reader threads: one, for the one client connection.
const READERS: usize = 1;
/// The client's pause between a reply and its next query (closed loop,
/// about 2k queries/s with the round trip).
const THINK: Duration = Duration::from_micros(400);

/// What the client saw.
#[derive(Debug, Default)]
struct ClientLog {
    latency_us: Vec<f64>,
    /// How late each query went out against its due time (reply + think).
    late_us: Vec<f64>,
    errors: u64,
    stale: u64,
    out_of_bracket: u64,
    no_epoch: u64,
    first_bad: Option<String>,
}

impl ClientLog {
    fn bad(&mut self, line: &str) {
        self.first_bad.get_or_insert_with(|| line.to_string());
    }

    fn failed(&self) -> u64 {
        self.errors + self.stale + self.out_of_bracket + self.no_epoch
    }
}

fn field<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .and_then(|v| v.parse().ok())
}

/// One closed-loop client cycling DENSITY/MEMBER/CORE/TOPK until `stop`.
/// Signals `ready` after its first reply, so the timed pass starts with
/// the client connected. Every reply is checked as it arrives: it
/// carries a non-decreasing `epoch=`, a DENSITY lies inside its bracket,
/// and nothing is an ERR (the warm-up has published before the client
/// connects).
fn client(addr: SocketAddr, n: usize, stop: &AtomicBool, ready: mpsc::Sender<()>) -> ClientLog {
    let stream = TcpStream::connect(addr).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
    let mut writer = stream;
    let mut log = ClientLog::default();
    let mut last_epoch = 0u64;
    let mut line = String::new();
    let mut due = Instant::now();
    for i in 0u64.. {
        if i > 0 && stop.load(Ordering::Relaxed) {
            break;
        }
        let v = (i * 7) % n as u64;
        let query = match i % 4 {
            0 => "DENSITY\n".to_string(),
            1 => format!("MEMBER {v}\n"),
            2 => format!("CORE {} {} {v}\n", CORE.0, CORE.1),
            _ => format!("TOPK {TOP_K}\n"),
        };
        let sent = Instant::now();
        writer.write_all(query.as_bytes()).expect("send a query");
        line.clear();
        let read = reader.read_line(&mut line).expect("read a reply");
        let reply = Instant::now();
        assert!(read > 0, "the server closed the connection mid-pass");
        if i == 0 {
            ready.send(()).expect("signal readiness");
        } else {
            log.latency_us.push((reply - sent).as_secs_f64() * 1e6);
            log.late_us
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
        }
        let text = line.trim_end();
        match field::<u64>(text, "epoch=") {
            None => {
                log.no_epoch += 1;
                log.bad(text);
            }
            Some(e) => {
                if e < last_epoch {
                    log.stale += 1;
                    log.bad(text);
                }
                last_epoch = last_epoch.max(e);
            }
        }
        if text.starts_with("ERR") {
            log.errors += 1;
            log.bad(text);
        }
        if text.starts_with("OK DENSITY") {
            let (d, lo, hi): (Option<f64>, Option<f64>, Option<f64>) = (
                field(text, "density="),
                field(text, "lower="),
                field(text, "upper="),
            );
            // Fields print with 6 decimals.
            let ok = matches!((d, lo, hi), (Some(d), Some(lo), Some(hi)) if d >= lo - 1e-6 && d <= hi + 1e-6);
            if !ok {
                log.out_of_bracket += 1;
                log.bad(text);
            }
        }
        due = reply + THINK;
        std::thread::sleep(THINK);
    }
    writer.write_all(b"QUIT\n").ok();
    log
}

pub fn run(ctx: &mut Ctx<'_>) -> Outcome {
    let Spec::Churn { stream, batch } = ctx.spec else {
        unreachable!("churn-serve runs on a churn stream")
    };
    let config = StreamConfig {
        tolerance: TOLERANCE,
        slack: SLACK,
        solver: SolverKind::CoreApprox,
        threads: ctx.threads,
        sketch: None,
    };
    let warm_batches = stream.prefix().div_ceil(batch);
    let mut first: Option<(f64, f64, f64)> = None;
    let mut layers = MetricSet::default();
    let (mut epoch_us, mut query_us) = (Vec::new(), Vec::new());
    let mut worst = 1.0f64;
    let (mut live_m, mut epochs) = (0, 0);
    let iters = iterate(ctx, |ctx, i, with_pass| {
        // Set-up: parse, build the engine, publisher and server, then
        // replay and publish the warm-up prefix.
        let t0 = Instant::now();
        let setup = ctx.spans.enter("setup");
        let load = ctx.spans.enter("stream.load");
        let events = load_events(&ctx.input.path).expect("the generated event file parses");
        ctx.spans.exit(load);
        let batches: Vec<Batch> = events
            .chunks(batch)
            .map(|c| Batch::from_events(c.to_vec()))
            .collect();
        let mut engine = StreamEngine::new(config);
        let cell = Arc::new(SnapshotCell::new());
        let serve_metrics = Arc::new(ServeMetrics::new());
        let mut publisher = Publisher::new(
            Arc::clone(&cell),
            PublishOptions {
                core: Some(CORE),
                top_k: TOP_K,
            },
            Arc::clone(&serve_metrics),
        );
        let mut server = Server::start("127.0.0.1:0", cell, READERS, Arc::clone(&serve_metrics))
            .expect("bind a local port");
        let (warm, rest) = batches.split_at(warm_batches.min(batches.len()));
        let warmup = ctx.spans.enter("stream.warmup");
        for b in warm {
            let r = engine.apply(b);
            publisher.publish(facts(&r, &engine), || engine.materialize());
        }
        ctx.spans.exit(warmup);
        ctx.spans.exit(setup);
        let setup_s = t0.elapsed().as_secs_f64();
        live_m = engine.m();
        epochs = rest.len();
        if !with_pass {
            server.shutdown();
            return (setup_s, None);
        }

        // Pass: ingest and publish every remaining epoch while the client
        // queries.
        let stop = AtomicBool::new(false);
        let addr = server.addr();
        let n = stream.n;
        let (pass_s, iter_epoch_us, last, log, pool, resolves, pass_worst) =
            std::thread::scope(|scope| {
                let (ready_tx, ready_rx) = mpsc::channel();
                let stop = &stop;
                let handle = scope.spawn(move || client(addr, n, stop, ready_tx));
                ready_rx.recv().expect("the client connects");
                let pool = WorkerPool::global().stats();
                let resolves = engine.resolves();
                let mut lat = Vec::with_capacity(rest.len());
                let mut last = None;
                let mut pass_worst = 1.0f64;
                let t1 = Instant::now();
                let pass = ctx.spans.enter("pass");
                for b in rest {
                    let te = Instant::now();
                    let apply = ctx.spans.enter("stream.apply");
                    let r = engine.apply(b);
                    ctx.spans.exit(apply);
                    let publish = ctx.spans.enter("serve.publish");
                    publisher.publish(facts(&r, &engine), || engine.materialize());
                    ctx.spans.exit(publish);
                    lat.push(te.elapsed().as_secs_f64() * 1e6);
                    pass_worst = pass_worst.max(r.certified_factor);
                    last = Some(r);
                }
                ctx.spans.exit(pass);
                let pass_s = t1.elapsed().as_secs_f64();
                let pool = pool_delta(pool);
                let resolves = engine.resolves() - resolves;
                stop.store(true, Ordering::Relaxed);
                let log = handle.join().expect("the client thread panicked");
                (pass_s, lat, last, log, pool, resolves, pass_worst)
            });
        server.shutdown();

        // Oracles, untimed.
        ctx.checks.attempted += log.latency_us.len() as u64 + 1;
        ctx.checks.failed += log.failed();
        if let Some(bad) = &log.first_bad {
            ctx.checks.failures.push(format!(
                "iteration {i}: {} bad replies ({} ERR, {} stale, {} out of bracket, {} without epoch), first: {bad}",
                log.failed(),
                log.errors,
                log.stale,
                log.out_of_bracket,
                log.no_epoch
            ));
        }
        ctx.checks
            .op(serve_metrics.publishes.get() == engine.epoch(), || {
                format!(
                    "iteration {i}: {} publishes for {} epochs",
                    serve_metrics.publishes.get(),
                    engine.epoch()
                )
            });
        let last = last.expect("the pass has epochs");
        ctx.checks.op(
            within(last.density.to_f64(), last.lower, last.upper),
            || format!("iteration {i}: final density outside its bracket"),
        );
        let fin = (last.density.to_f64(), last.lower, last.upper);
        match first {
            None => first = Some(fin),
            Some(f0) => ctx.checks.op(f0 == fin, || {
                format!("iteration {i}: final epoch {fin:?} differs from the first pass's {f0:?}")
            }),
        }
        worst = worst.max(pass_worst);

        if !ctx.spans.enabled() {
            epoch_us.extend_from_slice(&iter_epoch_us);
            query_us.extend_from_slice(&log.latency_us);
        } else {
            let q = metrics::sorted(log.latency_us.clone());
            let late = metrics::sorted(log.late_us.clone());
            layers = MetricSet::default();
            layers.put("core.exact_solves", 0.0, "count", "approx solver");
            layers.put("core.ratios_solved", 0.0, "count", "approx solver");
            put_pool(&mut layers, pool);
            layers.put(
                "stream.resolves",
                resolves as f64,
                "count",
                "CoreApprox re-solves",
            );
            layers.put(
                "serve.publishes",
                (serve_metrics.publishes.get() - warm.len() as u64) as f64,
                "count",
                "during the pass",
            );
            layers.put(
                "serve.queries",
                q.len() as f64,
                "count",
                "answered during the pass",
            );
            layers.put("serve.query_errors", log.errors as f64, "count", "");
            layers.put("serve.query_samples", q.len() as f64, "count", "");
            layers.put_pct("serve.query_p99_us", metrics::percentile(&q, 99.0), q.len());
            layers.put_pct(
                "serve.client_late_us",
                metrics::percentile(&late, 50.0),
                late.len(),
            );
            let cluster =
                cluster::measure(&events, stream.prefix(), &mut ctx.spans, &mut ctx.checks);
            for m in cluster.iter() {
                layers.put(&m.name, m.value, m.unit, m.note.clone());
            }
        }
        (setup_s, Some(pass_s))
    });

    // The serving latencies this workload exists for, pooled over the
    // untraced iterations.
    let mut e2e = MetricSet::default();
    e2e.put(
        "bracket_max",
        worst,
        "x",
        "worst certified upper/lower over the pass",
    );
    let ep = metrics::sorted(epoch_us);
    let q = metrics::sorted(query_us);
    e2e.put_pct("epoch_p50_us", metrics::percentile(&ep, 50.0), ep.len());
    e2e.put_pct("epoch_p99_us", metrics::percentile(&ep, 99.0), ep.len());
    e2e.put_pct("query_p50_us", metrics::percentile(&q, 50.0), q.len());
    Outcome {
        iters,
        e2e,
        layers,
        live_m,
        epochs,
    }
}

fn facts<'a>(r: &dds_stream::EpochReport, engine: &'a StreamEngine) -> EpochFacts<'a> {
    EpochFacts {
        epoch: r.epoch,
        n: r.n,
        m: r.m as u64,
        density: r.density.to_f64(),
        lower: r.lower,
        upper: r.upper,
        witness: engine.witness(),
        resolved: r.resolved,
    }
}
