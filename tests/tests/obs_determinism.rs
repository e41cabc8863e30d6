//! Observability determinism: the deterministic trace mode must make two
//! identical follow replays byte-identical, and metric counters must
//! survive snapshot → restore → replay with the same values an
//! uninterrupted run accumulates.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dds_obs::{Registry, Tracer};
use dds_shard::{replay_sharded, ShardConfig, ShardedEngine};
use dds_sketch::SketchConfig;
use dds_stream::{follow_events, FollowConfig, StreamConfig, StreamEngine};

/// A `Write` sink whose bytes the test can read back after the tracer
/// (which owns its writer) is dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn temp_events(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "dds_obs_determinism_{tag}_{}_{:?}.events",
        std::process::id(),
        std::thread::current().id()
    ));
    let events = dds_bench::stream_workloads::churn(120, 900, (12, 12), 6_000, 0xDD5);
    dds_stream::save_events(&events, &path).expect("write events");
    path
}

/// One follow replay to EOF with a deterministic (timing-free) tracer;
/// returns the trace bytes.
fn traced_follow(path: &std::path::Path) -> Vec<u8> {
    let buf = SharedBuf::default();
    let tracer = Tracer::to_writer(Box::new(buf.clone()), false);
    let mut engine = StreamEngine::new(StreamConfig::default());
    engine.attach_tracer(tracer.clone());
    follow_events(
        path,
        FollowConfig {
            batch: 50,
            poll: Duration::from_millis(1),
            idle_exit: Some(Duration::ZERO),
            cursor: 0,
        },
        |batch, _| {
            engine.apply(&batch);
            std::ops::ControlFlow::Continue(())
        },
    )
    .expect("follow");
    tracer.flush().expect("flush trace");
    buf.bytes()
}

#[test]
fn identical_follow_replays_trace_byte_identically() {
    let path = temp_events("trace");
    let first = traced_follow(&path);
    let second = traced_follow(&path);
    assert!(!first.is_empty(), "the replay must emit spans");
    let text = String::from_utf8(first.clone()).expect("trace is utf-8");
    assert!(
        text.contains("\"span\":\"stream.apply\""),
        "apply spans must appear: {text}"
    );
    assert!(
        !text.contains("dur_us"),
        "deterministic mode must not record wall-clock: {text}"
    );
    assert_eq!(first, second, "identical replays must diff clean");
    std::fs::remove_file(&path).ok();
}

/// The shard counters a snapshot must carry (the sharded engine is the
/// bit-identical one by contract — see `dds-bench snapshot-smoke`).
const SHARD_COUNTERS: [&str; 7] = [
    "dds_shard_epochs_total",
    "dds_shard_refreshes_total",
    "dds_shard_escalations_total",
    "dds_shard_cold_escalations_total",
    "dds_shard_inserts_total",
    "dds_shard_deletes_total",
    "dds_shard_ignored_total",
];

#[test]
fn snapshot_restore_replay_keeps_counter_values() {
    let events = dds_bench::stream_workloads::churn(150, 1_200, (16, 16), 10_000, 0xDD5);
    // Cut on a batch boundary so both runs see identical epoch batching
    // (a mid-batch cut would insert an extra, shorter epoch).
    let half = (events.len() / 2) / 100 * 100;
    let config = ShardConfig {
        shards: 3,
        sketch: SketchConfig {
            state_bound: 300,
            ..SketchConfig::default()
        },
        ..ShardConfig::default()
    };

    // Uninterrupted run, metrics attached from the start.
    let full_registry = Registry::new();
    let mut full = ShardedEngine::new(config);
    full.attach_obs(&full_registry);
    replay_sharded(&mut full, &events, 100);

    // Interrupted run: half, snapshot, restore, attach fresh metrics
    // (the attach transfers the restored counter values), finish.
    let mut first = ShardedEngine::new(config);
    replay_sharded(&mut first, &events[..half], 100);
    let snap = first.snapshot(0);
    let (mut resumed, _) = ShardedEngine::restore(config, &snap).expect("restore");
    let resumed_registry = Registry::new();
    resumed.attach_obs(&resumed_registry);
    replay_sharded(&mut resumed, &events[half..], 100);

    for name in SHARD_COUNTERS {
        assert_eq!(
            resumed_registry.counter_value(name),
            full_registry.counter_value(name),
            "{name} diverged across snapshot/restore"
        );
    }
    assert_eq!(
        resumed_registry.counter_value("dds_shard_epochs_total"),
        Some(resumed.epoch()),
        "the epochs counter is the engine's own epoch source"
    );
}
