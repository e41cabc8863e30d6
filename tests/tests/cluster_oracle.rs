//! The differential oracle for the cross-process cluster tier.
//! Runs without the libtest harness (`harness = false`) because the test
//! binary doubles as its own worker fleet: re-invoked with
//! `DDS_CLUSTER_ORACLE_ROLE=k/K` it becomes one real worker *process*
//! that dials the coordinator over TCP, exactly like `dds cluster-shard`.
//!
//! Two claims are checked:
//!
//! * **wire transparency** — a TCP coordinator fed by `K` real worker
//!   processes seals epochs **byte-identical**
//!   ([`ClusterEpoch::to_bytes`]) to an in-process [`ClusterCore`] fed
//!   the digests the same worker state machine produces locally, and
//!   both end in the same merged state ([`ClusterCore::state_digest`]).
//!   The network adds nothing and loses nothing;
//! * **bracket validity and reconciliation** — every sealed epoch's
//!   certified bracket contains a fresh [`DcExact`] solve of the full
//!   graph, and the merged counters (`m`, `n`) agree with a
//!   single-process [`ShardedEngine`] fed the same batches.

use std::net::TcpListener;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use dds_cluster::{
    run_coordinator, run_worker, ClusterConfig, ClusterCore, CoordinatorOptions, WorkerConfig,
    WorkerOptions, WorkerState,
};
use dds_core::DcExact;
use dds_shard::{ShardConfig, ShardedEngine};
use dds_sketch::SketchConfig;
use dds_stream::{save_events, Batch, DynamicGraph, Event};

const ROLE: &str = "DDS_CLUSTER_ORACLE_ROLE";

fn main() {
    if std::env::var(ROLE).is_ok() {
        worker_process();
        return;
    }
    tcp_coordinator_matches_the_in_process_core();
    println!("cluster_oracle: tcp_coordinator_matches_the_in_process_core ... ok");
}

fn env(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| panic!("{name} must be set in the worker role"))
}

/// The worker half of the re-exec harness: one real OS process running
/// the same loop `dds cluster-shard` runs.
fn worker_process() {
    let role = env(ROLE);
    let (shard, shards) = role.split_once('/').expect("role is k/K");
    let config = WorkerConfig {
        shard: shard.parse().expect("shard index"),
        shards: shards.parse().expect("shard count"),
        batch: env("DDS_CLUSTER_ORACLE_BATCH").parse().expect("batch"),
        sketch: SketchConfig {
            state_bound: env("DDS_CLUSTER_ORACLE_BOUND").parse().expect("bound"),
            seed: env("DDS_CLUSTER_ORACLE_SEED").parse().expect("seed"),
            ..SketchConfig::default()
        },
    };
    let events = env("DDS_CLUSTER_ORACLE_EVENTS");
    let connect = env("DDS_CLUSTER_ORACLE_CONNECT");
    let opts = WorkerOptions {
        poll: std::time::Duration::from_millis(10),
        idle_exit: Some(std::time::Duration::from_millis(400)),
        ..WorkerOptions::default()
    };
    run_worker(config, Path::new(&events), &connect, &opts).expect("worker run");
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dds_cluster_oracle_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Wire transparency + bracket validity: real worker processes over TCP
/// against the in-process twin, epoch bytes compared one by one.
fn tcp_coordinator_matches_the_in_process_core() {
    const SHARDS: usize = 3;
    const BATCH: usize = 100;
    const BOUND: usize = 64;
    const SEED: u64 = 0xC1A5;
    let events = dds_bench::churn(100, 600, (8, 8), 2_000, 0x0AC1E);
    let dir = unique_dir("tcp");
    let events_path = dir.join("stream.events");
    save_events(&events, &events_path).expect("write events");

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
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let coordinator = std::thread::spawn(move || {
        let mut sealed = Vec::new();
        let report = run_coordinator(
            config,
            listener,
            &CoordinatorOptions::default(),
            |epoch, _, _| sealed.push(epoch.clone()),
        )
        .expect("coordinator run");
        (report, sealed)
    });

    let exe = std::env::current_exe().expect("own binary path");
    let children: Vec<_> = (0..SHARDS)
        .map(|k| {
            Command::new(&exe)
                .env(ROLE, format!("{k}/{SHARDS}"))
                .env("DDS_CLUSTER_ORACLE_EVENTS", &events_path)
                .env("DDS_CLUSTER_ORACLE_CONNECT", addr.to_string())
                .env("DDS_CLUSTER_ORACLE_BATCH", BATCH.to_string())
                .env("DDS_CLUSTER_ORACLE_BOUND", BOUND.to_string())
                .env("DDS_CLUSTER_ORACLE_SEED", SEED.to_string())
                .spawn()
                .expect("spawn worker process")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("wait for worker");
        assert!(status.success(), "worker process failed: {status}");
    }
    let (report, sealed) = coordinator.join().expect("coordinator thread");
    assert!(report.epochs > 0, "the stream must seal real epochs");
    assert_eq!(report.epochs as usize, sealed.len());
    assert!(
        sealed.iter().all(|e| !e.degraded),
        "strict mode never degrades"
    );
    assert!(
        report.digest_bytes > 0 && report.digest_bytes < report.raw_bytes,
        "digests must cost less than the raw stream ({} vs {})",
        report.digest_bytes,
        report.raw_bytes
    );

    // The in-process twin: the same worker state machine feeding the
    // same core directly, no sockets. `sync_baseline` mirrors the fresh
    // handshake (epoch 0 == resume_from 0), so every digest is a delta.
    let mut core = ClusterCore::new(config);
    let mut workers: Vec<WorkerState> = (0..SHARDS)
        .map(|shard| {
            let mut w = WorkerState::new(WorkerConfig {
                shard,
                shards: SHARDS,
                batch: BATCH,
                sketch: config.sketch,
            });
            w.sync_baseline();
            w
        })
        .collect();
    let mut sharded = ShardedEngine::new(ShardConfig {
        shards: SHARDS,
        refresh_drift: 0.25,
        sketch: config.sketch,
    });
    let mut mirror = DynamicGraph::new();
    let mut twin_sealed = Vec::new();
    for chunk in events.chunks(BATCH) {
        let batch = Batch::from_events(chunk.to_vec());
        for worker in &mut workers {
            let tallies = worker.apply_batch(&batch);
            let digest = worker.digest(tallies, 0, 0, false);
            core.offer(digest, 0).expect("offer digest");
        }
        let epoch = core
            .seal_next(false)
            .expect("seal")
            .expect("all digests present, the epoch must seal");

        for ev in chunk {
            match ev.event {
                Event::Insert(u, v) => {
                    mirror.insert(u, v);
                }
                Event::Delete(u, v) => {
                    mirror.delete(u, v);
                }
            }
        }
        let r = sharded.apply(&batch);
        assert_eq!(epoch.m, r.m, "epoch {}: m must reconcile", epoch.epoch);
        assert_eq!(
            epoch.n as usize, r.n,
            "epoch {}: n must reconcile",
            epoch.epoch
        );
        let exact = DcExact::new().solve(&mirror.materialize()).solution.density;
        assert!(
            epoch.density <= exact,
            "epoch {}: lower {} exceeds exact {exact}",
            epoch.epoch,
            epoch.density
        );
        assert!(
            exact.to_f64() <= epoch.upper * (1.0 + 1e-9),
            "epoch {}: upper {} below exact {exact}",
            epoch.epoch,
            epoch.upper
        );
        twin_sealed.push(epoch);
    }

    assert_eq!(
        sealed.len(),
        twin_sealed.len(),
        "TCP and in-process seal counts"
    );
    for (tcp, twin) in sealed.iter().zip(&twin_sealed) {
        assert_eq!(
            tcp.to_bytes(),
            twin.to_bytes(),
            "epoch {}: TCP seal diverges from the in-process twin",
            twin.epoch
        );
    }
    assert_eq!(
        report.state_digest,
        core.state_digest(),
        "final merged state must be byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}
