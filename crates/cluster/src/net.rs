//! The coordinator's TCP runtime: accept loop, per-connection readers,
//! and the single-threaded merge loop that owns the [`ClusterCore`].
//!
//! All protocol work funnels through one mpsc channel into the thread
//! that owns the core, so the merge itself stays single-threaded and
//! deterministic; sockets and the straggler clock live out here. The
//! accept thread shuts down the same way [`dds_obs::AdminServer`] does:
//! a stop flag plus one dummy connection to unblock `accept`.
//!
//! # Straggler policy
//!
//! With `--straggler-ms T`, an epoch that *could* seal degraded (some
//! slot has shipped past the frontier while another lags) waits up to
//! `T` for the laggard, then the runtime force-seals every overdue
//! epoch with the sound inflated bounds of
//! [`ClusterCore::seal_next`]`(true)`. Without it the coordinator is
//! strict: epochs seal only fully fresh, and an outage stalls the
//! frontier until the shard returns (the kill/restore drill runs with
//! a straggler window for exactly this reason).

use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dds_obs::{Counter, Gauge, Registry, StatusBoard, Tracer};

use crate::coord::{ClusterConfig, ClusterCore, ClusterEpoch};
use crate::wire::{read_frame, read_preamble, write_frame, Frame, ShardDigest, WireError};

/// Cluster-tier metrics, registered under `dds_cluster_*`. Standalone
/// until [`ClusterMetrics::attach_obs`] rebinds every cell into a
/// registry, carrying current values over — the same alias machinery as
/// [`dds_obs::LagGauges`].
#[derive(Debug)]
pub struct ClusterMetrics {
    /// Epochs sealed (`dds_cluster_epochs_total`).
    pub epochs: Counter,
    /// Seals forced by the straggler policy
    /// (`dds_cluster_degraded_total`).
    pub degraded: Counter,
    /// Digest payload bytes accepted
    /// (`dds_cluster_digest_bytes_total`).
    pub digest_bytes: Counter,
    /// Merged refreshes (`dds_cluster_refreshes_total`).
    pub refreshes: Counter,
    /// Escalated merged solves (`dds_cluster_escalations_total`).
    pub escalations: Counter,
    /// Per-slot seal lag in epochs
    /// (`dds_cluster_shard_lag_epochs_{k}`).
    pub shard_lag: Vec<Gauge>,
}

impl ClusterMetrics {
    /// Unregistered cells for `shards` slots.
    #[must_use]
    pub fn standalone(shards: usize) -> Self {
        ClusterMetrics {
            epochs: Counter::standalone(),
            degraded: Counter::standalone(),
            digest_bytes: Counter::standalone(),
            refreshes: Counter::standalone(),
            escalations: Counter::standalone(),
            shard_lag: (0..shards).map(|_| Gauge::standalone()).collect(),
        }
    }

    /// Rebinds every cell into `registry`, carrying values over.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.epochs.rehome(registry, "dds_cluster_epochs_total");
        self.degraded.rehome(registry, "dds_cluster_degraded_total");
        self.digest_bytes
            .rehome(registry, "dds_cluster_digest_bytes_total");
        self.refreshes
            .rehome(registry, "dds_cluster_refreshes_total");
        self.escalations
            .rehome(registry, "dds_cluster_escalations_total");
        for (k, lag) in self.shard_lag.iter_mut().enumerate() {
            lag.rehome(registry, &format!("dds_cluster_shard_lag_epochs_{k}"));
        }
    }
}

/// Runtime options of [`run_coordinator`].
#[derive(Debug, Default)]
pub struct CoordinatorOptions {
    /// Force degraded seals after a laggard holds the frontier this
    /// long (`None` = strict, wait forever).
    pub straggler: Option<Duration>,
    /// Register `dds_cluster_*` metrics here, and sum every merged
    /// refresh's `dds_sketch_*`/`dds_exact_*` series into it.
    pub registry: Option<Registry>,
    /// Where the merge's `cluster.merge` spans go (detached by default).
    pub tracer: Tracer,
    /// Admin-plane status board whose `shards[]` array the runtime keeps
    /// current. Sealed epochs reach the board through the caller's
    /// `on_seal`, not from here.
    pub status: Option<Arc<StatusBoard>>,
}

/// What one coordinator run merged and certified.
#[derive(Clone, Debug)]
pub struct CoordinatorReport {
    /// Epochs sealed.
    pub epochs: u64,
    /// Seals forced degraded.
    pub degraded: u64,
    /// Merged refreshes.
    pub refreshes: u64,
    /// Escalated merged solves.
    pub escalations: u64,
    /// Digest payload bytes accepted.
    pub digest_bytes: u64,
    /// Highest event-file offset any digest reported (the raw-byte
    /// denominator of the digest-traffic budget).
    pub raw_bytes: u64,
    /// Canonical bytes of the final worker-determined merged state
    /// ([`ClusterCore::state_digest`]).
    pub state_digest: Vec<u8>,
    /// The last sealed epoch.
    pub last: Option<ClusterEpoch>,
}

enum Ctrl {
    Hello {
        hello: crate::wire::Hello,
        reply: Sender<Result<u64, String>>,
    },
    Digest {
        digest: ShardDigest,
        bytes: u64,
    },
    Bye {
        shard: u32,
    },
    Gone {
        shard: u32,
    },
}

/// Reads one worker connection, forwarding frames to the merge loop.
/// The `HelloAck` is written back from here once the core has vetted
/// the identity; a rejected worker sees its connection close.
fn serve_connection(stream: TcpStream, tx: &Sender<Ctrl>) {
    let mut shard: Option<u32> = None;
    let result = (|| -> Result<(), WireError> {
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        read_preamble(&mut reader)?;
        loop {
            match read_frame(&mut reader)? {
                None => return Ok(()),
                Some((Frame::Hello(hello), _)) => {
                    let (reply, answer) = mpsc::channel();
                    if tx.send(Ctrl::Hello { hello, reply }).is_err() {
                        return Ok(());
                    }
                    match answer.recv() {
                        Ok(Ok(resume_from)) => {
                            shard = Some(hello.shard);
                            write_frame(&mut writer, Frame::HelloAck { resume_from })?;
                        }
                        Ok(Err(msg)) => return Err(WireError::Protocol(msg)),
                        Err(_) => return Ok(()),
                    }
                }
                Some((Frame::Digest(digest), bytes)) => {
                    if tx.send(Ctrl::Digest { digest, bytes }).is_err() {
                        return Ok(());
                    }
                }
                Some((Frame::Bye { shard: s }, _)) => {
                    shard = None;
                    let _ = tx.send(Ctrl::Bye { shard: s });
                    return Ok(());
                }
                Some((Frame::HelloAck { .. }, _)) => {
                    return Err(WireError::Protocol(
                        "unexpected HelloAck from a worker".to_string(),
                    ))
                }
            }
        }
    })();
    drop(result);
    // EOF or error before a clean Bye: the slot may reconnect (the
    // kill/restore path), so this only marks it disconnected.
    if let Some(shard) = shard {
        let _ = tx.send(Ctrl::Gone { shard });
    }
}

/// Runs the coordinator over an already-bound listener until every
/// slot has signed off and every shipped epoch is sealed. `on_seal`
/// fires once per sealed epoch, in order, with the core that sealed it
/// (for [`ClusterCore::max_cursor`] and the per-slot
/// [`ClusterCore::slot_status`]) and the moment that seal began, so the
/// caller can time the seal itself — merged refresh included — apart
/// from its own publish and print work.
///
/// # Errors
/// Returns [`WireError`] on listener failure or a digest that desyncs
/// the merge (a protocol violation; certification cannot continue).
pub fn run_coordinator(
    config: ClusterConfig,
    listener: TcpListener,
    opts: &CoordinatorOptions,
    mut on_seal: impl FnMut(&ClusterEpoch, &ClusterCore, Instant),
) -> Result<CoordinatorReport, WireError> {
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Ctrl>();
    let accept = {
        let stop = Arc::clone(&stop);
        let tx = tx.clone();
        thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        let tx = tx.clone();
                        thread::spawn(move || serve_connection(stream, &tx));
                    }
                    Err(_) => break,
                }
            }
        })
    };
    drop(tx);

    let mut metrics = ClusterMetrics::standalone(config.shards);
    if let Some(registry) = &opts.registry {
        metrics.attach_obs(registry);
    }
    if let Some(status) = &opts.status {
        status.init_shards(config.shards);
    }
    let mut core = ClusterCore::new(config);
    if let Some(registry) = &opts.registry {
        core.attach_obs(registry);
    }
    core.attach_tracer(opts.tracer.clone());
    let mut pending_since: Option<Instant> = None;
    let mut last: Option<ClusterEpoch> = None;

    let result = (|| -> Result<(), WireError> {
        loop {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(Ctrl::Hello { hello, reply }) => {
                    let answer = core.hello(&hello).map_err(|e| e.to_string());
                    let _ = reply.send(answer);
                }
                Ok(Ctrl::Digest { digest, bytes }) => {
                    let (shard, epoch, tail) = (digest.shard, digest.epoch, digest.tail_bytes);
                    core.offer(digest, bytes)?;
                    metrics.digest_bytes.add(bytes);
                    if let Some(status) = &opts.status {
                        status.shard_seen(shard as usize, epoch, tail, StatusBoard::unix_ms());
                    }
                }
                Ok(Ctrl::Bye { shard }) => core.bye(shard),
                Ok(Ctrl::Gone { shard }) => core.disconnect(shard),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
            }
            if seal_all(&mut core, false, &metrics, &mut on_seal, &mut last)? {
                pending_since = None;
            }
            if core.head_epoch() > core.sealed() {
                match (opts.straggler, pending_since) {
                    (Some(limit), Some(since)) if since.elapsed() >= limit => {
                        seal_all(&mut core, true, &metrics, &mut on_seal, &mut last)?;
                        pending_since = None;
                    }
                    (Some(_), None) => pending_since = Some(Instant::now()),
                    _ => {}
                }
            } else {
                pending_since = None;
            }
            if core.finished() {
                return Ok(());
            }
        }
    })();

    stop.store(true, Ordering::Relaxed);
    TcpStream::connect(local).ok();
    accept.join().ok();
    result?;
    Ok(CoordinatorReport {
        epochs: core.sealed(),
        degraded: core.degraded_seals(),
        refreshes: core.refreshes(),
        escalations: core.escalations(),
        digest_bytes: core.digest_bytes(),
        raw_bytes: core.max_cursor(),
        state_digest: core.state_digest(),
        last,
    })
}

/// Seals every epoch [`ClusterCore::seal_next`]`(force)` will, updating
/// the cluster metrics and calling `on_seal` for each. Returns whether
/// anything sealed.
fn seal_all(
    core: &mut ClusterCore,
    force: bool,
    metrics: &ClusterMetrics,
    on_seal: &mut impl FnMut(&ClusterEpoch, &ClusterCore, Instant),
    last: &mut Option<ClusterEpoch>,
) -> Result<bool, WireError> {
    let mut sealed = false;
    loop {
        let began = Instant::now();
        let Some(epoch) = core.seal_next(force)? else {
            return Ok(sealed);
        };
        metrics.epochs.inc();
        if epoch.degraded {
            metrics.degraded.inc();
        }
        metrics.refreshes.store(core.refreshes());
        metrics.escalations.store(core.escalations());
        let status = core.slot_status();
        for (k, gauge) in metrics.shard_lag.iter().enumerate() {
            let folded = status.get(k).map_or(0, |s| s.folded);
            gauge.set(core.sealed().saturating_sub(folded));
        }
        on_seal(&epoch, core, began);
        *last = Some(epoch);
        sealed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{run_worker, WorkerConfig, WorkerOptions, WorkerState, WorkerSummary};
    use dds_sketch::SketchConfig;
    use dds_stream::snapshot::{read_snapshot_file, write_snapshot_file};
    use dds_stream::{save_events, write_events, Batch, Event, TimedEvent};
    use std::path::Path;
    use std::sync::Mutex;

    fn events(n: u32) -> Vec<TimedEvent> {
        (0..n)
            .map(|i| TimedEvent {
                time: u64::from(i),
                event: if i % 9 == 7 {
                    Event::Delete(i.wrapping_mul(31) % 60, (i.wrapping_mul(13) + 1) % 60)
                } else {
                    Event::Insert(i % 60, (i * 11 + 1) % 60)
                },
            })
            .collect()
    }

    /// End-to-end over real sockets, workers as threads: every epoch
    /// seals fresh, counters reconcile, and the report's byte budget
    /// holds.
    #[test]
    fn coordinator_and_threaded_workers_certify_every_epoch() {
        let dir = std::env::temp_dir().join(format!("dds-cluster-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.log");
        save_events(&events(2_000), &path).unwrap();

        let config = ClusterConfig {
            shards: 3,
            batch: 100,
            refresh_drift: 0.25,
            sketch: SketchConfig {
                state_bound: 256,
                ..SketchConfig::default()
            },
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handles: Vec<_> = (0..config.shards)
            .map(|shard| {
                let path = path.clone();
                let addr = addr.clone();
                thread::spawn(move || {
                    run_worker(
                        WorkerConfig {
                            shard,
                            shards: config.shards,
                            batch: config.batch,
                            sketch: config.sketch,
                        },
                        &path,
                        &addr,
                        &WorkerOptions {
                            poll: Duration::from_millis(5),
                            idle_exit: Some(Duration::from_millis(300)),
                            ..WorkerOptions::default()
                        },
                    )
                })
            })
            .collect();

        let mut sealed = Vec::new();
        let report = run_coordinator(
            config,
            listener,
            &CoordinatorOptions {
                straggler: Some(Duration::from_secs(5)),
                ..CoordinatorOptions::default()
            },
            |e, _, _| sealed.push((e.epoch, e.degraded, e.lower, e.upper)),
        )
        .expect("coordinator");
        for handle in handles {
            handle.join().unwrap().expect("worker");
        }

        assert_eq!(report.epochs, 20, "2000 events / 100 per epoch");
        assert_eq!(sealed.len(), 20);
        assert!(sealed.iter().all(|&(_, degraded, _, _)| !degraded));
        assert!(sealed
            .iter()
            .all(|&(_, _, lower, upper)| lower <= upper * (1.0 + 1e-9)));
        assert!(report.degraded == 0);
        assert!(report.raw_bytes > 0);
        assert!(
            report.digest_bytes < report.raw_bytes,
            "digests ({} B) must undercut raw events ({} B)",
            report.digest_bytes,
            report.raw_bytes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An identity-mismatched worker is refused at the handshake.
    #[test]
    fn mismatched_worker_is_refused() {
        let dir = std::env::temp_dir().join(format!("dds-cluster-refuse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.log");
        save_events(&events(50), &path).unwrap();

        let config = ClusterConfig {
            shards: 1,
            batch: 25,
            ..ClusterConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let wrong = thread::spawn({
            let (path, addr) = (path.clone(), addr.clone());
            move || {
                run_worker(
                    WorkerConfig {
                        shard: 0,
                        shards: 1,
                        batch: 99,
                        sketch: config.sketch,
                    },
                    &path,
                    &addr,
                    &WorkerOptions {
                        idle_exit: Some(Duration::from_millis(200)),
                        ..WorkerOptions::default()
                    },
                )
            }
        });
        let right = thread::spawn({
            let (path, addr) = (path.clone(), addr.clone());
            move || {
                // Give the mismatched worker the first slot at the door.
                thread::sleep(Duration::from_millis(150));
                run_worker(
                    WorkerConfig {
                        shard: 0,
                        shards: 1,
                        batch: 25,
                        sketch: config.sketch,
                    },
                    &path,
                    &addr,
                    &WorkerOptions {
                        idle_exit: Some(Duration::from_millis(200)),
                        ..WorkerOptions::default()
                    },
                )
            }
        });
        let report = run_coordinator(
            config,
            listener,
            &CoordinatorOptions::default(),
            |_, _, _| {},
        )
        .expect("coordinator survives the refusal");
        assert!(wrong.join().unwrap().is_err(), "mismatch must surface");
        right.join().unwrap().expect("matching worker runs");
        assert_eq!(report.epochs, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn resume_cluster() -> ClusterConfig {
        ClusterConfig {
            shards: 2,
            batch: 100,
            refresh_drift: 0.25,
            sketch: SketchConfig {
                state_bound: 256,
                ..SketchConfig::default()
            },
        }
    }

    fn worker_config(config: ClusterConfig, shard: usize) -> WorkerConfig {
        WorkerConfig {
            shard,
            shards: config.shards,
            batch: config.batch,
            sketch: config.sketch,
        }
    }

    fn quick() -> WorkerOptions {
        WorkerOptions {
            poll: Duration::from_millis(5),
            idle_exit: Some(Duration::from_millis(300)),
            ..WorkerOptions::default()
        }
    }

    fn spawn_worker(
        config: ClusterConfig,
        shard: usize,
        path: &Path,
        addr: &str,
        opts: WorkerOptions,
    ) -> thread::JoinHandle<Result<WorkerSummary, WireError>> {
        let (path, addr) = (path.to_path_buf(), addr.to_string());
        thread::spawn(move || run_worker(worker_config(config, shard), &path, &addr, &opts))
    }

    /// Every sealed epoch's `(epoch, lower, upper)`, in seal order.
    type SealLog = Arc<Mutex<Vec<(u64, f64, f64)>>>;

    /// A strict coordinator on a free port, logging each seal as it
    /// lands.
    fn start_coordinator(
        config: ClusterConfig,
    ) -> (String, SealLog, thread::JoinHandle<CoordinatorReport>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let sealed = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&sealed);
        let handle = thread::spawn(move || {
            run_coordinator(
                config,
                listener,
                &CoordinatorOptions::default(),
                |e, _, _| {
                    log.lock().unwrap().push((e.epoch, e.lower, e.upper));
                },
            )
            .expect("coordinator")
        });
        (addr, sealed, handle)
    }

    /// Shard `shard`'s checkpoint after the first `epochs` batches, with
    /// the event-file cursor just past them.
    fn checkpoint_at(
        config: ClusterConfig,
        shard: usize,
        evs: &[TimedEvent],
        epochs: usize,
    ) -> Vec<u8> {
        let head = &evs[..epochs * config.batch];
        let mut state = WorkerState::new(worker_config(config, shard));
        for chunk in head.chunks(config.batch) {
            state.apply_batch(&Batch::from_events(chunk.to_vec()));
        }
        let mut bytes = Vec::new();
        write_events(head, &mut bytes).unwrap();
        state.snapshot(bytes.len() as u64)
    }

    /// The merged state an uninterrupted in-process run ends in.
    fn twin_state_digest(config: ClusterConfig, evs: &[TimedEvent]) -> Vec<u8> {
        let mut core = ClusterCore::new(config);
        let mut workers: Vec<WorkerState> = (0..config.shards)
            .map(|shard| {
                let mut w = WorkerState::new(worker_config(config, shard));
                w.sync_baseline();
                w
            })
            .collect();
        for chunk in evs.chunks(config.batch) {
            let batch = Batch::from_events(chunk.to_vec());
            for w in &mut workers {
                let tallies = w.apply_batch(&batch);
                core.offer(w.digest(tallies, 0, 0, false), 0).unwrap();
            }
            core.seal_next(false)
                .unwrap()
                .expect("a full frontier seals");
        }
        core.state_digest()
    }

    fn assert_certified(sealed: &[(u64, f64, f64)]) {
        for &(epoch, lower, upper) in sealed {
            assert!(
                upper.is_finite() && lower <= upper * (1.0 + 1e-9),
                "epoch {epoch}: uncertified bracket [{lower}, {upper}]"
            );
        }
    }

    /// A worker whose checkpoint (epoch 4) is older than the epochs the
    /// coordinator already folded for its slot (10) replays 5..=10
    /// silently, then ships 11..=20; the checkpoint it leaves is one full
    /// snapshot of its last epoch.
    #[test]
    fn worker_resumed_behind_the_coordinator_replays_silently_then_ships() {
        let dir = std::env::temp_dir().join(format!("dds-cluster-behind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, head, ck) = (
            dir.join("events.log"),
            dir.join("head.log"),
            dir.join("shard1.snap"),
        );
        let evs = events(2_000);
        save_events(&evs, &path).unwrap();
        save_events(&evs[..1_000], &head).unwrap();
        let config = resume_cluster();
        let (addr, sealed, coordinator) = start_coordinator(config);

        let steady = spawn_worker(config, 0, &path, &addr, quick());
        // Shard 1's first life sees only the first ten epochs.
        let first = spawn_worker(config, 1, &head, &addr, quick())
            .join()
            .unwrap()
            .expect("first life");
        assert_eq!((first.epoch, first.digests), (10, 10));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while sealed.lock().unwrap().len() < 10 {
            assert!(
                std::time::Instant::now() < deadline,
                "epochs 1..=10 never sealed"
            );
            thread::sleep(Duration::from_millis(5));
        }

        write_snapshot_file(&checkpoint_at(config, 1, &evs, 4), &ck).unwrap();
        let resumed = WorkerOptions {
            checkpoint: Some(ck.clone()),
            checkpoint_every: 4,
            resume: true,
            ..quick()
        };
        let resumed = spawn_worker(config, 1, &path, &addr, resumed)
            .join()
            .unwrap()
            .expect("resumed worker");
        assert!(!resumed.rebased);
        assert_eq!(
            (resumed.epoch, resumed.digests),
            (20, 10),
            "epochs 5..=10 replay without a digest"
        );
        assert_eq!(steady.join().unwrap().expect("steady worker").digests, 20);

        let report = coordinator.join().unwrap();
        assert_eq!((report.epochs, report.degraded), (20, 0));
        assert_certified(&sealed.lock().unwrap());
        assert_eq!(report.state_digest, twin_state_digest(config, &evs));
        let (last, cursor) =
            WorkerState::restore(worker_config(config, 1), &read_snapshot_file(&ck).unwrap())
                .unwrap();
        assert_eq!((last.epoch(), cursor), (20, resumed.cursor));
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["events.log", "head.log", "shard1.snap"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker whose checkpoint (epoch 8) is ahead of a fresh
    /// coordinator ships one rebase digest, then 9..=20; seals 1..=7
    /// read its slot as stale-ahead and degrade soundly.
    #[test]
    fn worker_resumed_ahead_of_a_fresh_coordinator_rebases_once() {
        let dir = std::env::temp_dir().join(format!("dds-cluster-ahead-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, ck) = (dir.join("events.log"), dir.join("shard1.snap"));
        let evs = events(2_000);
        save_events(&evs, &path).unwrap();
        let config = resume_cluster();
        write_snapshot_file(&checkpoint_at(config, 1, &evs, 8), &ck).unwrap();
        let (addr, sealed, coordinator) = start_coordinator(config);

        let fresh = spawn_worker(config, 0, &path, &addr, quick());
        let resumed = WorkerOptions {
            checkpoint: Some(ck),
            resume: true,
            ..quick()
        };
        let resumed = spawn_worker(config, 1, &path, &addr, resumed)
            .join()
            .unwrap()
            .expect("resumed worker");
        assert!(resumed.rebased);
        assert_eq!((resumed.epoch, resumed.digests), (20, 1 + 12));
        assert_eq!(fresh.join().unwrap().expect("fresh worker").digests, 20);

        let report = coordinator.join().unwrap();
        assert_eq!((report.epochs, report.degraded), (20, 7));
        assert_certified(&sealed.lock().unwrap());
        assert_eq!(report.state_digest, twin_state_digest(config, &evs));
        std::fs::remove_dir_all(&dir).ok();
    }
}
