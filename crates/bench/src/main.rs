//! Experiment harness entry point.
//!
//! ```sh
//! cargo run -p dds-bench --release -- all          # every experiment
//! cargo run -p dds-bench --release -- e2 e5        # a subset
//! cargo run -p dds-bench --release -- all --quick  # smoke-test sizes
//!
//! # The perf trajectory: run E12..E20 (printing their tables) and
//! # rewrite the committed BENCH_E12..E20.json records, or re-run them
//! # and diff against the records (the CI gate; each experiment asserts
//! # its contracts as it runs):
//! cargo run -p dds-bench --release -- full
//! cargo run -p dds-bench --release -- compare
//!
//! # Write a stream-workload event file for `dds stream`:
//! cargo run -p dds-bench --release -- stream-gen churn --events 100000 --out churn.events
//! ```

use dds_bench::{experiments, perf, stream_workloads};

const USAGE: &str = "usage:
  dds-bench (all | e1..e20)... [--quick]
  dds-bench full [--quick] [--dir D]     write BENCH_E12..E20.json perf records
  dds-bench compare [--dir D]            diff a fresh run against the committed records
  dds-bench obs-smoke
  dds-bench admin-smoke
  dds-bench cluster-smoke
  dds-bench stream-gen (churn|window|emerge|arrivals|recurring) --out <file>
            [--events N] [--n N] [--m M] [--block S,T] [--period P] [--seed S]";

/// Set in the environment of re-exec'd `cluster-smoke` worker processes
/// (value `k/K`); dispatched before argument parsing so the bench binary
/// can double as its own worker fleet.
const SMOKE_ROLE: &str = "DDS_CLUSTER_SMOKE_ROLE";

fn main() {
    if std::env::var(SMOKE_ROLE).is_ok() {
        cluster_smoke_worker();
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stream-gen") => {
            if let Err(msg) = stream_gen(&args[1..]) {
                eprintln!("dds-bench: {msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
        Some("obs-smoke") => smoke_obs(),
        Some("admin-smoke") => smoke_admin(),
        Some("cluster-smoke") => smoke_cluster(),
        Some("full") => {
            let quick = args.iter().any(|a| a == "--quick");
            let dir = flag_value(&args, "--dir").unwrap_or_else(|| ".".into());
            if let Err(e) = perf::run_full(std::path::Path::new(&dir), quick) {
                eprintln!("dds-bench full: {e}");
                std::process::exit(1);
            }
        }
        Some("compare") => {
            let dir = flag_value(&args, "--dir").unwrap_or_else(|| ".".into());
            match perf::compare(std::path::Path::new(&dir)) {
                Ok(regressions) if regressions.is_empty() => println!("compare: OK"),
                Ok(regressions) => {
                    for r in &regressions {
                        eprintln!(
                            "REGRESSION {} {}: baseline {} vs fresh {}",
                            r.exp, r.what, r.old, r.new
                        );
                    }
                    eprintln!("compare: {} regression(s)", regressions.len());
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("dds-bench compare: {e}");
                    std::process::exit(2);
                }
            }
        }
        _ => run_experiments(&args),
    }
}

/// `(all | e1..e20)... [--quick]` — runs the named experiments in order.
fn run_experiments(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if ids.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let t0 = std::time::Instant::now();
    for id in ids {
        if id == "all" {
            for e in experiments::ALL {
                experiments::run(e, quick);
            }
        } else {
            experiments::run(id, quick);
        }
    }
    println!("\ntotal harness time: {:?}", t0.elapsed());
}

/// `stream-gen <scenario> --out <file> [--events N] [--n N] [--m M]
/// [--block S,T] [--seed S]` — writes a seeded event stream in the format
/// `dds stream` replays.
fn stream_gen(args: &[String]) -> Result<(), String> {
    let mut it = args.iter().map(String::as_str);
    let scenario = it
        .next()
        .ok_or("stream-gen needs a scenario: churn|window|emerge")?;
    let mut events = 100_000usize;
    let mut n = 500usize;
    let mut m = 2_500usize;
    let mut block = (32usize, 32usize);
    let mut period = 2_000usize;
    let mut seed = 0xDD5u64;
    let mut out: Option<String> = None;
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match flag {
            "--events" => events = parse(value("--events")?, "--events")?,
            "--n" => n = parse(value("--n")?, "--n")?,
            "--m" => m = parse(value("--m")?, "--m")?,
            "--seed" => seed = parse(value("--seed")?, "--seed")?,
            "--block" => {
                let v = value("--block")?;
                let (s, t) = v.split_once(',').ok_or("--block expects S,T")?;
                block = (parse(s, "--block S")?, parse(t, "--block T")?);
            }
            "--period" => period = parse(value("--period")?, "--period")?,
            "--out" => out = Some(value("--out")?.to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let out = out.ok_or("stream-gen needs --out <file>")?;
    let stream = match scenario {
        "churn" => stream_workloads::churn(n, m, block, events, seed),
        "window" => stream_workloads::sliding_window(n, m, events, seed),
        "emerge" => stream_workloads::planted_emerge(n, m, block, events, seed),
        "arrivals" => stream_workloads::arrivals(n, events, seed),
        "recurring" => stream_workloads::recurring_block(n, block, period, events, seed),
        other => {
            return Err(format!(
                "unknown scenario {other:?} (expected churn|window|emerge|arrivals|recurring)"
            ))
        }
    };
    dds_stream::save_events(&stream, &out).map_err(|e| format!("writing {out:?}: {e}"))?;
    println!("wrote {} events ({scenario}) to {out}", stream.len());
    Ok(())
}

fn parse<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("invalid value {raw:?} for {flag}"))
}

/// The value following `flag` in `args`, if any.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// CI obs smoke: a 100k-event follow replay through the real tail loop
/// with a metrics registry attached, asserting (1) the exposition text
/// parses and its counters reconcile exactly with the driver's own epoch
/// and event counts, and (2) attaching metrics costs at most 2% of the
/// apply time over the detached default. The timing gate is the minimum
/// over 5 adjacent disabled/enabled pairs of the pairwise ratio: pairing
/// cancels slow-machine drift between rounds, and a real overhead
/// regression lifts every round's ratio while scheduler noise cannot
/// push all five above the budget. Only the `engine.apply` calls are
/// timed — that is the instrumented path; the tail loop's polling and
/// file IO would just add variance.
/// Counters are always-live cells behind the engine's stats accessors,
/// histograms and gauges only activate on attach — this is the check
/// that the fast path stays fast.
fn smoke_obs() {
    use dds_obs::{parse_exposition, Registry};
    use dds_stream::{follow_events, FollowConfig, StreamConfig, StreamEngine};
    use std::time::Duration;

    const EVENTS: usize = 100_000;
    const ROUNDS: usize = 5;
    const OVERHEAD_FACTOR: f64 = 1.02;
    let events = dds_bench::stream_workloads::churn(400, 4_000, (32, 32), EVENTS, 0xDD5);
    let path = std::env::temp_dir().join(format!("dds_obs_smoke_{}.events", std::process::id()));
    dds_stream::save_events(&events, &path).expect("write event file");

    let run = |registry: Option<&Registry>| {
        let mut engine = StreamEngine::new(StreamConfig::default());
        if let Some(reg) = registry {
            engine.attach_obs(reg);
        }
        let mut epochs = 0u64;
        let mut apply_wall = Duration::ZERO;
        let outcome = follow_events(
            &path,
            FollowConfig {
                batch: 100,
                poll: Duration::from_millis(1),
                idle_exit: Some(Duration::ZERO),
                cursor: 0,
            },
            |batch, _| {
                let t0 = std::time::Instant::now();
                engine.apply(&batch);
                apply_wall += t0.elapsed();
                epochs += 1;
                std::ops::ControlFlow::Continue(())
            },
        )
        .expect("follow");
        (outcome, epochs, apply_wall)
    };

    let mut disabled_wall = f64::INFINITY;
    let mut enabled_wall = f64::INFINITY;
    let mut best_ratio = f64::INFINITY;
    let mut reconciled = None;
    for round in 0..ROUNDS {
        let (_, _, wall) = run(None);
        let disabled = wall.as_secs_f64();
        disabled_wall = disabled_wall.min(disabled);
        let registry = Registry::new();
        let (outcome, epochs, wall) = run(Some(&registry));
        let enabled = wall.as_secs_f64();
        enabled_wall = enabled_wall.min(enabled);
        best_ratio = best_ratio.min(enabled / disabled);
        if round == ROUNDS - 1 {
            reconciled = Some((registry, outcome, epochs));
        }
    }
    let (registry, outcome, epochs) = reconciled.expect("the rounds ran");

    // Exposition parses, and its counters reconcile with the driver.
    let parsed = parse_exposition(&registry.exposition()).expect("exposition must parse");
    assert!(
        parsed
            .get("dds_stream_epochs_total")
            .is_some_and(|v| *v == epochs),
        "epoch counter must match the driver's count"
    );
    assert_eq!(outcome.epochs, epochs, "tail outcome disagrees with driver");
    // The workload is EVENTS churn events plus the generator's warm-up
    // prefix — reconcile against what was actually written.
    let total = events.len() as u64;
    assert_eq!(outcome.events, total, "the tail must replay every event");
    let applied = ["inserts", "deletes", "ignored"]
        .iter()
        .map(|k| {
            registry
                .counter_value(&format!("dds_stream_{k}_total"))
                .unwrap_or(0)
        })
        .sum::<u64>();
    assert_eq!(
        applied, total,
        "inserts + deletes + ignored must cover every event"
    );
    let resolves = registry
        .counter_value("dds_stream_resolves_total")
        .unwrap_or(0);
    assert!(
        resolves >= 1,
        "a 100k churn replay must re-solve at least once"
    );
    println!(
        "obs-smoke: {total} events, {epochs} epochs, {resolves} re-solves; \
         exposition {} series, wall enabled {enabled_wall:.3}s vs disabled {disabled_wall:.3}s",
        parsed.len(),
    );

    // The atomic exposition writer round-trips through a file too.
    let prom = std::env::temp_dir().join(format!("dds_obs_smoke_{}.prom", std::process::id()));
    registry
        .write_exposition_file(&prom)
        .expect("atomic exposition write");
    let reread = parse_exposition(&std::fs::read_to_string(&prom).expect("read exposition"))
        .expect("written exposition must parse");
    assert_eq!(reread, parsed, "file round-trip must preserve every series");

    assert!(
        best_ratio <= OVERHEAD_FACTOR,
        "metrics overhead budget exceeded: every one of {ROUNDS} paired rounds ran the \
         attached replay more than {OVERHEAD_FACTOR}x its adjacent detached replay \
         (best ratio {best_ratio:.3})"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&prom).ok();
    println!(
        "obs-smoke: OK (best paired overhead ratio {best_ratio:.3}, budget {OVERHEAD_FACTOR}x)"
    );
}

/// CI admin smoke: the live introspection plane must be free under load.
/// A follow replay runs with the admin endpoint attached while a scraper
/// hits `/metrics`, `/status`, and `/readyz` every 50 ms. Gates:
/// zero failed scrapes (every response 200/503-with-body and parseable),
/// `/readyz` flips to ready exactly once and never flips back, and the
/// same paired 2% overhead budget as obs-smoke — minimum over rounds of
/// (replay with admin plane + scraper) / (replay with bare metrics).
fn smoke_admin() {
    use dds_bench::serve_load::scrape_admin;
    use dds_obs::{AdminServer, Registry, SlowRing, StatusBoard};
    use dds_stream::{follow_events, FollowConfig, StreamConfig, StreamEngine};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const EVENTS: usize = 100_000;
    const ROUNDS: usize = 5;
    const OVERHEAD_FACTOR: f64 = 1.02;
    const SCRAPE_EVERY: Duration = Duration::from_millis(50);
    let events = dds_bench::stream_workloads::churn(400, 4_000, (32, 32), EVENTS, 0xDD5);
    let path = std::env::temp_dir().join(format!("dds_admin_smoke_{}.events", std::process::id()));
    dds_stream::save_events(&events, &path).expect("write event file");

    // One follow replay with metrics attached; when `board` is given the
    // admin plane is live and the loop seals it per epoch (the wiring
    // `dds stream --admin` uses).
    let run = |registry: &Registry, board: Option<&StatusBoard>| {
        let mut engine = StreamEngine::new(StreamConfig::default());
        engine.attach_obs(registry);
        let mut epochs = 0u64;
        let mut events_total = 0u64;
        let mut apply_wall = Duration::ZERO;
        follow_events(
            &path,
            FollowConfig {
                batch: 100,
                poll: Duration::from_millis(1),
                idle_exit: Some(Duration::ZERO),
                cursor: 0,
            },
            |batch, cur| {
                events_total += batch.events.len() as u64;
                let t0 = std::time::Instant::now();
                let r = engine.apply(&batch);
                apply_wall += t0.elapsed();
                epochs = r.epoch;
                if let Some(board) = board {
                    board.record_seal(
                        r.epoch,
                        events_total,
                        cur,
                        r.density.to_f64(),
                        r.lower,
                        r.upper,
                    );
                    board.set_ready();
                }
                std::ops::ControlFlow::Continue(())
            },
        )
        .expect("follow");
        (epochs, apply_wall)
    };

    let mut best_ratio = f64::INFINITY;
    let mut scrapes_total = 0u64;
    let mut last = None;
    for _ in 0..ROUNDS {
        // Baseline: metrics attached, no admin plane.
        let (_, bare_wall) = run(&Registry::new(), None);

        // Attached: admin endpoint live, scraper hammering on a 50 ms
        // cadence for the whole replay.
        let registry = Registry::new();
        let board = Arc::new(StatusBoard::new("stream"));
        let ring = Arc::new(SlowRing::new(16, 1_000));
        let admin = AdminServer::start(
            "127.0.0.1:0",
            registry.clone(),
            Arc::clone(&board),
            Arc::clone(&ring),
        )
        .expect("bind admin endpoint");
        let addr = admin.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let scraper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                let mut ready_seen = false;
                loop {
                    scrape_admin(addr, &mut ready_seen);
                    scrapes += 1;
                    if stop.load(Ordering::Relaxed) {
                        return scrapes;
                    }
                    std::thread::sleep(SCRAPE_EVERY);
                }
            })
        };
        let (epochs, admin_wall) = run(&registry, Some(&board));
        stop.store(true, Ordering::Relaxed);
        scrapes_total += scraper.join().expect("scraper thread");
        assert_eq!(board.ready_flips(), 1, "/readyz must flip exactly once");
        best_ratio = best_ratio.min(admin_wall.as_secs_f64() / bare_wall.as_secs_f64());
        last = Some((registry, board, epochs));
        drop(admin);
    }
    let (registry, board, epochs) = last.expect("the rounds ran");
    assert_eq!(board.epoch(), epochs, "board must carry the sealed epoch");
    assert!(
        registry.counter_value("dds_stream_epochs_total") == Some(epochs),
        "live registry must reconcile with the driver"
    );
    assert!(
        best_ratio <= OVERHEAD_FACTOR,
        "admin-plane overhead budget exceeded: every one of {ROUNDS} paired rounds ran \
         the admin-attached replay more than {OVERHEAD_FACTOR}x its bare-metrics \
         adjacent replay (best ratio {best_ratio:.3})"
    );
    std::fs::remove_file(&path).ok();
    println!(
        "admin-smoke: OK ({scrapes_total} scrapes over {ROUNDS} rounds, zero failed; \
         best paired overhead ratio {best_ratio:.3}, budget {OVERHEAD_FACTOR}x)"
    );
}

/// The worker half of the `cluster-smoke` re-exec harness: one real OS
/// process running the same loop `dds cluster-shard` runs, configured
/// entirely through `DDS_CLUSTER_SMOKE_*` environment variables.
fn cluster_smoke_worker() {
    use dds_cluster::{run_worker, WorkerConfig, WorkerOptions};
    use dds_sketch::SketchConfig;
    use std::time::Duration;

    let env = |name: &str| {
        std::env::var(name).unwrap_or_else(|_| panic!("{name} must be set in the worker role"))
    };
    let role = env(SMOKE_ROLE);
    let (shard, shards) = role.split_once('/').expect("role is k/K");
    let config = WorkerConfig {
        shard: shard.parse().expect("shard index"),
        shards: shards.parse().expect("shard count"),
        batch: env("DDS_CLUSTER_SMOKE_BATCH").parse().expect("batch"),
        sketch: SketchConfig {
            state_bound: env("DDS_CLUSTER_SMOKE_BOUND").parse().expect("bound"),
            seed: env("DDS_CLUSTER_SMOKE_SEED").parse().expect("seed"),
            ..SketchConfig::default()
        },
    };
    let events = env("DDS_CLUSTER_SMOKE_EVENTS");
    let connect = env("DDS_CLUSTER_SMOKE_CONNECT");
    let opts = WorkerOptions {
        poll: Duration::from_millis(5),
        idle_exit: Some(Duration::from_millis(1_500)),
        checkpoint: Some(env("DDS_CLUSTER_SMOKE_CHECKPOINT").into()),
        checkpoint_every: 8,
        resume: std::env::var("DDS_CLUSTER_SMOKE_RESUME").is_ok(),
    };
    let summary =
        run_worker(config, std::path::Path::new(&events), &connect, &opts).expect("worker run");
    println!("cluster-smoke worker: {summary}");
}

/// CI cluster smoke — the kill/restore failure drill.
/// A churn stream is fed *incrementally* into a real event file while
/// K = 4 worker **processes** (re-exec'd copies of this binary) tail it
/// and ship digests to a TCP coordinator running with a straggler
/// timeout. Each worker rewrites one full `DDSS` checkpoint every 8
/// epochs. Mid-replay one worker is SIGKILLed; after more than one
/// straggler window it restarts with `--resume` semantics from that
/// checkpoint (up to 7 epochs old), replays the epochs the coordinator
/// already folded silently, and re-admits through the digest-cursor
/// handshake. Gates:
///
/// * **zero uncertified epochs** — every sealed epoch (degraded ones
///   included) carries a finite, non-inverted bracket, and the drill
///   really exercised degradation (≥ 1 degraded seal) and recovery
///   (≥ 1 fully-fresh seal after the restart);
/// * **re-admission within one straggler window** — the first
///   non-degraded seal after the restart lands within the straggler
///   window plus a fixed allowance for process spawn + silent replay;
/// * **digest budget** — total digest payload ≤ 5% of the raw event
///   bytes the workers tailed;
/// * **bit-identical restore** — the coordinator's final merged state
///   equals an uninterrupted in-process twin run byte for byte
///   ([`dds_cluster::ClusterCore::state_digest`] — the drill's whole point), with
///   bracket-contains-exact spot checks along the twin.
fn smoke_cluster() {
    use dds_bench::experiments::cluster_twin;
    use dds_cluster::{run_coordinator, ClusterConfig, CoordinatorOptions};
    use dds_core::DcExact;
    use dds_sketch::SketchConfig;
    use dds_stream::{DynamicGraph, Event};
    use std::io::Write as _;
    use std::time::{Duration, Instant};

    const SHARDS: usize = 4;
    const BATCH: usize = 1_000;
    // Per-shard sample bound: 250 × 4 shards keeps the fleet's retained
    // state comparable to the single-process tiers while holding the
    // per-epoch sample deltas inside the 5% digest budget.
    const BOUND: usize = 250;
    const SEED: u64 = 0xDD5;
    const EVENTS: usize = 100_000;
    const STRAGGLER: Duration = Duration::from_millis(400);
    /// Process spawn + checkpoint restore + silent replay headroom on top of
    /// the straggler window for the re-admission gate (~0.3 s measured
    /// on a loaded release runner; 2 s keeps CI honest without flakes).
    const READMIT_ALLOWANCE: Duration = Duration::from_millis(2_000);
    const DIGEST_BUDGET_PCT: f64 = 5.0;
    const WALL_BUDGET_S: f64 = 120.0;

    let t0 = Instant::now();
    let events = dds_bench::stream_workloads::churn(400, 4_000, (32, 32), EVENTS, 0xDD5);
    let dir = std::env::temp_dir().join(format!("dds_cluster_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let events_path = dir.join("stream.events");

    // Feed plan: a 40%-of-stream head so every worker has real replay
    // state to checkpoint, then live 1 000-event appends on a cadence
    // well inside the straggler window, so the stream outlasts the
    // outage and fresh seals exist on both sides of the drill.
    let head = (events.len() * 2 / 5) / BATCH * BATCH;
    dds_stream::save_events(&events[..head], &events_path).expect("write event head");

    let config = ClusterConfig {
        shards: SHARDS,
        batch: BATCH,
        refresh_drift: 0.25,
        sketch: SketchConfig {
            state_bound: BOUND,
            seed: SEED,
            ..SketchConfig::default()
        },
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    // The seal stream is shared with the drill driver: the outage is
    // held open until a degraded seal actually lands, so the drill
    // engages by construction instead of by timing luck.
    let sealed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let coordinator = {
        let sealed = std::sync::Arc::clone(&sealed);
        std::thread::spawn(move || {
            let opts = CoordinatorOptions {
                straggler: Some(STRAGGLER),
                ..CoordinatorOptions::default()
            };
            run_coordinator(config, listener, &opts, |epoch, _, _| {
                sealed
                    .lock()
                    .expect("seal log")
                    .push((Instant::now(), epoch.clone()));
            })
            .expect("coordinator run")
        })
    };

    let exe = std::env::current_exe().expect("own binary path");
    let spawn_worker = |shard: usize, resume: bool| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.env(SMOKE_ROLE, format!("{shard}/{SHARDS}"))
            .env("DDS_CLUSTER_SMOKE_EVENTS", &events_path)
            .env("DDS_CLUSTER_SMOKE_CONNECT", addr.to_string())
            .env("DDS_CLUSTER_SMOKE_BATCH", BATCH.to_string())
            .env("DDS_CLUSTER_SMOKE_BOUND", BOUND.to_string())
            .env("DDS_CLUSTER_SMOKE_SEED", SEED.to_string())
            .env(
                "DDS_CLUSTER_SMOKE_CHECKPOINT",
                dir.join(format!("shard{shard}.snap")),
            );
        if resume {
            cmd.env("DDS_CLUSTER_SMOKE_RESUME", "1");
        }
        cmd.spawn().expect("spawn worker process")
    };
    let mut children: Vec<_> = (0..SHARDS).map(|k| spawn_worker(k, false)).collect();

    let feeder = {
        let events_path = events_path.clone();
        let tail: Vec<_> = events[head..].to_vec();
        std::thread::spawn(move || {
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&events_path)
                .expect("open event file for append");
            for slice in tail.chunks(BATCH) {
                dds_stream::write_events(slice, &mut file).expect("append events");
                file.flush().expect("flush events");
                std::thread::sleep(Duration::from_millis(40));
            }
        })
    };

    // Kill shard 1 once it has digested and checkpointed real state.
    const VICTIM: usize = 1;
    let victim_checkpoint = dir.join(format!("shard{VICTIM}.snap"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !victim_checkpoint.exists() {
        assert!(
            Instant::now() < deadline,
            "the victim never wrote its checkpoint"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(150));
    children[VICTIM].kill().expect("kill victim");
    children[VICTIM].wait().expect("reap victim");
    println!(
        "cluster-smoke: killed shard {VICTIM} at {:?}, outage > 1 straggler window ({STRAGGLER:?})",
        t0.elapsed()
    );

    // Hold the outage until the straggler policy really engages: the
    // victim ships digests ahead of the (refresh-paced) seal pipeline,
    // so a fixed sleep can be absorbed entirely by its pre-shipped
    // buffer. Waiting for a degraded seal naming the victim makes the
    // drill deterministic — only then does the restore begin.
    let outage_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let engaged = sealed.lock().expect("seal log").iter().any(
            |(_, e): &(Instant, dds_cluster::ClusterEpoch)| {
                e.degraded && e.stale.contains(&(VICTIM as u32))
            },
        );
        if engaged {
            break;
        }
        assert!(
            Instant::now() < outage_deadline,
            "the straggler policy never degraded a seal during the outage"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let t_restart = Instant::now();
    children[VICTIM] = spawn_worker(VICTIM, true);
    println!(
        "cluster-smoke: degradation engaged, restoring shard {VICTIM} from its checkpoint at {:?}",
        t0.elapsed()
    );

    feeder.join().expect("feeder thread");
    for (k, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait for worker");
        assert!(status.success(), "worker {k} failed: {status}");
    }
    let report = coordinator.join().expect("coordinator thread");
    let sealed = std::mem::take(&mut *sealed.lock().expect("seal log"));
    let wall = t0.elapsed();

    // Gate 1: zero uncertified epochs, real degradation, real recovery.
    for (_, e) in &sealed {
        assert!(
            e.upper.is_finite() && e.lower <= e.upper * (1.0 + 1e-9),
            "epoch {}: uncertified bracket [{}, {}]",
            e.epoch,
            e.lower,
            e.upper
        );
    }
    assert!(
        report.degraded >= 1,
        "the outage never forced a degraded seal — the drill did not engage"
    );
    let readmit = sealed
        .iter()
        .find(|(at, e)| *at >= t_restart && !e.degraded)
        .map(|(at, e)| (at.duration_since(t_restart), e.epoch))
        .expect("no fresh seal after the restart — the shard was never re-admitted");
    assert!(
        sealed
            .iter()
            .any(|(at, e)| *at >= t_restart && !e.degraded && e.fresh == SHARDS as u32),
        "no fully-fresh seal after the restart"
    );

    // Gate 2: re-admission within one straggler window (+ replay
    // allowance).
    assert!(
        readmit.0 <= STRAGGLER + READMIT_ALLOWANCE,
        "re-admission took {:?} (epoch {}), budget {:?} + {:?}",
        readmit.0,
        readmit.1,
        STRAGGLER,
        READMIT_ALLOWANCE
    );

    // Gate 3: the digest budget.
    let ratio_pct = report.digest_bytes as f64 * 100.0 / report.raw_bytes as f64;
    assert!(
        ratio_pct <= DIGEST_BUDGET_PCT,
        "digest traffic {} B is {ratio_pct:.2}% of {} raw B (budget {DIGEST_BUDGET_PCT}%)",
        report.digest_bytes,
        report.raw_bytes
    );

    // Gate 4: the restored run's merged state is bit-identical to an
    // uninterrupted in-process twin, with exact spot checks riding along.
    let mut mirror = DynamicGraph::new();
    let mut twin_epochs = 0u64;
    let mut checks = 0u32;
    let core = cluster_twin(config, &events, |epoch, chunk| {
        twin_epochs += 1;
        for ev in chunk {
            match ev.event {
                Event::Insert(u, v) => mirror.insert(u, v),
                Event::Delete(u, v) => mirror.delete(u, v),
            };
        }
        if twin_epochs.is_multiple_of(32) {
            let exact = DcExact::new().solve(&mirror.materialize()).solution.density;
            assert!(
                epoch.density <= exact && exact.to_f64() <= epoch.upper * (1.0 + 1e-9),
                "epoch {twin_epochs}: bracket [{}, {}] misses exact {exact}",
                epoch.lower,
                epoch.upper
            );
            checks += 1;
        }
    });
    assert_eq!(
        report.epochs, twin_epochs,
        "the drill and the twin sealed different epoch counts"
    );
    assert_eq!(
        report.state_digest,
        core.state_digest(),
        "post-restore merged state diverged from the uninterrupted twin"
    );

    std::fs::remove_dir_all(&dir).ok();
    println!(
        "cluster-smoke: {} events, {} epochs in {wall:?}: {} degraded, {} merged refreshes \
         ({} escalated), digest {} B / raw {} B = {ratio_pct:.2}%, re-admitted in {:?} \
         (epoch {}), {checks} exact spot-checks, state digest {} B bit-identical",
        events.len(),
        report.epochs,
        report.degraded,
        report.refreshes,
        report.escalations,
        report.digest_bytes,
        report.raw_bytes,
        readmit.0,
        readmit.1,
        report.state_digest.len(),
    );
    assert!(
        wall.as_secs_f64() < WALL_BUDGET_S,
        "wall budget exceeded: {wall:?} > {WALL_BUDGET_S}s"
    );
    println!(
        "cluster-smoke: OK (budgets: {DIGEST_BUDGET_PCT}% digest, {:?} re-admission, \
         {WALL_BUDGET_S}s wall)",
        STRAGGLER + READMIT_ALLOWANCE
    );
}
