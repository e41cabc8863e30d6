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
