//! The TCP front end: accept loop + dedicated reader thread pool.
//!
//! Connections are fanned out over a channel to `readers` threads, each
//! running a blocking per-connection loop. A connection occupies its
//! reader until the client disconnects (or sends `QUIT`), so the pool
//! size bounds the number of *concurrent connections*, not just in-flight
//! queries — size `readers` to the expected concurrent client count
//! (excess connections queue until a reader frees up). The readers are
//! long-lived threads of their own, unlike the solvers' fork-join lanes
//! (`dds_core::pool`), which live for one solve and never block on I/O:
//! these threads exist precisely to block on sockets, so a stalled client
//! holds a reader, never a solver lane.
//!
//! Reads use a short poll timeout so every reader re-checks the shutdown
//! flag a few times a second; [`Server::shutdown`] therefore returns even
//! if clients are still connected. A query line longer than
//! [`MAX_LINE_BYTES`] is answered with one `ERR` and the connection is
//! closed, so a client that never sends `\n` cannot grow a reader's
//! buffer without bound.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dds_obs::{Counter, Gauge, Histogram, LagGauges, Registry, SlowRing};

use crate::protocol::respond_with;
use crate::snapshot::SnapshotCell;

/// How often a blocked reader wakes to re-check the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Longest query line a reader accepts, in bytes without the `\n` (the
/// same cap as the admin plane's HTTP requests).
const MAX_LINE_BYTES: usize = 8 * 1024;

/// How long a reader keeps discarding input after rejecting an over-long
/// line, before it drops the connection.
const REJECT_LINGER: Duration = Duration::from_secs(1);

/// Serving-side metrics, exported through `dds-obs` when attached.
///
/// Counters start standalone (engine pattern): [`ServeMetrics::attach_obs`]
/// re-homes them into a registry, transferring any counts already
/// accumulated. The latency histograms are no-ops until attached.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Queries answered (including error responses).
    pub queries: Counter,
    /// Queries answered with an `ERR` response.
    pub query_errors: Counter,
    /// Connections accepted.
    pub connections: Counter,
    /// Snapshots published.
    pub publishes: Counter,
    /// Reader-pool size (the concurrent-connection capacity).
    pub readers: Gauge,
    /// Readers currently serving a connection (saturation signal).
    pub readers_busy: Gauge,
    /// Staleness gauges (`dds_lag_*`), fed by the serving loop.
    pub lag: LagGauges,
    /// Per-query latency (parse + answer + write), µs.
    pub query_latency: Histogram,
    /// Per-publish latency (snapshot build + swap), µs.
    pub publish_latency: Histogram,
    /// Slow-query sink: over-threshold queries are recorded with their
    /// query line as detail. Set once via [`ServeMetrics::attach_slow_ring`].
    slow: std::sync::OnceLock<Arc<SlowRing>>,
}

impl ServeMetrics {
    /// Fresh standalone metrics.
    #[must_use]
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Re-homes the counters into `registry` (transferring accumulated
    /// counts) and arms the latency histograms.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.queries.rehome(registry, "dds_serve_queries_total");
        self.query_errors
            .rehome(registry, "dds_serve_query_errors_total");
        self.connections
            .rehome(registry, "dds_serve_connections_total");
        self.publishes.rehome(registry, "dds_serve_publish_total");
        self.readers.rehome(registry, "dds_serve_readers");
        self.readers_busy.rehome(registry, "dds_serve_readers_busy");
        self.lag.attach_obs(registry);
        self.query_latency = registry.histogram("dds_serve_query_latency_us");
        self.publish_latency = registry.histogram("dds_serve_publish_latency_us");
    }

    /// Records over-threshold queries into `ring` (first ring wins).
    pub fn attach_slow_ring(&self, ring: Arc<SlowRing>) {
        let _ = self.slow.set(ring);
    }
}

/// A running query server. Dropping it without [`Server::shutdown`]
/// leaks the listener thread for the rest of the process — always shut
/// down explicitly.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    readers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop plus `readers` query threads answering from
    /// `cell`'s published snapshot. Each connection holds one reader
    /// until it closes, so `readers` caps concurrent connections.
    ///
    /// # Errors
    /// Propagates the bind failure.
    ///
    /// # Panics
    /// Panics if `readers == 0`.
    pub fn start(
        addr: &str,
        cell: Arc<SnapshotCell>,
        readers: usize,
        metrics: Arc<ServeMetrics>,
    ) -> std::io::Result<Server> {
        assert!(readers > 0, "a server needs at least one reader thread");
        metrics.readers.set(readers as u64);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let reader_threads = (0..readers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("dds-serve-reader-{i}"))
                    .spawn(move || reader_loop(&rx, &cell, &stop, &metrics))
                    .expect("spawn reader thread")
            })
            .collect();
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("dds-serve-accept".into())
                .spawn(move || accept_loop(&listener, &tx, &stop, &metrics))
                .expect("spawn accept thread")
        };
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            readers: reader_threads,
        })
    }

    /// The bound address (resolves the port when started on `:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes every reader, and joins all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `accept()`; a throwaway local
        // connection unblocks it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.readers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &Sender<TcpStream>,
    stop: &AtomicBool,
    metrics: &ServeMetrics,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                metrics.connections.inc();
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    // Dropping `tx` here lets idle readers fall out of `recv()`.
}

fn reader_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    cell: &SnapshotCell,
    stop: &AtomicBool,
    metrics: &ServeMetrics,
) {
    loop {
        // Poll rather than block forever: the accept thread only drops the
        // sender after its own loop exits, and shutdown must not depend on
        // thread join order.
        let conn = {
            let guard = rx.lock().expect("reader channel poisoned");
            guard.recv_timeout(READ_POLL)
        };
        match conn {
            Ok(stream) => {
                metrics.readers_busy.inc();
                serve_connection(stream, cell, stop, metrics);
                metrics.readers_busy.dec();
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Runs one connection to completion: reads `\n`-terminated query lines,
/// answers each from the *currently published* snapshot (one `load()` per
/// query — a query spanning a publish answers entirely from one epoch,
/// never a torn mix).
fn serve_connection(
    mut stream: TcpStream,
    cell: &SnapshotCell,
    stop: &AtomicBool,
    metrics: &ServeMetrics,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut carry: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return, // client closed
            Ok(k) => {
                // Earlier bytes were already scanned: a `\n` can only be
                // among the new ones.
                let mut scan = carry.len();
                carry.extend_from_slice(&buf[..k]);
                let mut start = 0usize;
                while let Some(nl) = carry[scan..].iter().position(|&b| b == b'\n') {
                    let end = scan + nl;
                    if end - start > MAX_LINE_BYTES {
                        return reject_overlong(stream, cell, stop, metrics);
                    }
                    let line = String::from_utf8_lossy(&carry[start..end]).into_owned();
                    start = end + 1;
                    scan = start;
                    let t0 = Instant::now();
                    let snap = cell.load();
                    let Some((response, is_err)) = respond_with(&snap, Some(metrics), &line) else {
                        return; // QUIT
                    };
                    metrics.queries.inc();
                    if is_err {
                        metrics.query_errors.inc();
                    }
                    if stream
                        .write_all(format!("{response}\n").as_bytes())
                        .is_err()
                    {
                        return;
                    }
                    let elapsed = t0.elapsed();
                    metrics.query_latency.observe(elapsed);
                    if let Some(ring) = metrics.slow.get() {
                        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
                        ring.record("serve.query", us, line.trim());
                    }
                }
                carry.drain(..start);
                if carry.len() > MAX_LINE_BYTES {
                    return reject_overlong(stream, cell, stop, metrics);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Answers an over-long query line with one `ERR` and closes gracefully:
/// the write half is shut down (the client reads the `ERR`, then EOF) and
/// input is discarded for up to [`REJECT_LINGER`] — closing with unread
/// input would reset the connection and could destroy the `ERR` in flight.
fn reject_overlong(
    mut stream: TcpStream,
    cell: &SnapshotCell,
    stop: &AtomicBool,
    metrics: &ServeMetrics,
) {
    metrics.queries.inc();
    metrics.query_errors.inc();
    let response = format!("ERR epoch={} line too long\n", cell.load().epoch);
    if stream.write_all(response.as_bytes()).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + REJECT_LINGER;
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::EpochSnapshot;
    use std::io::BufRead;

    fn query(
        stream: &mut TcpStream,
        reader: &mut std::io::BufReader<TcpStream>,
        q: &str,
    ) -> String {
        stream.write_all(format!("{q}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn serves_published_snapshots_over_tcp() {
        let cell = Arc::new(SnapshotCell::new());
        let metrics = Arc::new(ServeMetrics::new());
        let mut server =
            Server::start("127.0.0.1:0", Arc::clone(&cell), 2, Arc::clone(&metrics)).unwrap();
        let addr = server.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        assert!(query(&mut stream, &mut reader, "DENSITY").contains("epoch=0"));

        let mut snap = EpochSnapshot::empty();
        snap.epoch = 1;
        snap.n = 4;
        snap.m = 3;
        snap.density = 1.5;
        snap.lower = 1.5;
        snap.upper = 2.0;
        snap.witness_s = crate::snapshot::Bitset::from_ids(4, &[0]);
        snap.witness_t = crate::snapshot::Bitset::from_ids(4, &[1]);
        cell.publish(snap);

        // The same connection sees the new epoch without reconnecting.
        let density = query(&mut stream, &mut reader, "DENSITY");
        assert!(
            density.contains("epoch=1") && density.contains("m=3"),
            "{density}"
        );
        assert!(query(&mut stream, &mut reader, "MEMBER 0").ends_with("side=S"));
        let err = query(&mut stream, &mut reader, "CORE 1 1 0");
        assert!(err.starts_with("ERR epoch=1"), "{err}");

        // Pipelined queries in one write still get one response each.
        stream.write_all(b"DENSITY\nMEMBER 1\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK DENSITY"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("side=T"), "{line}");

        stream.write_all(b"QUIT\n").unwrap();
        let mut end = String::new();
        assert_eq!(reader.read_line(&mut end).unwrap(), 0, "QUIT closes");

        assert_eq!(metrics.connections.get(), 1);
        assert_eq!(metrics.queries.get(), 6);
        assert_eq!(metrics.query_errors.get(), 1);
        server.shutdown();
    }

    #[test]
    fn stats_answers_live_counters_and_saturation() {
        let cell = Arc::new(SnapshotCell::new());
        let metrics = Arc::new(ServeMetrics::new());
        let ring = Arc::new(dds_obs::SlowRing::new(4, 0));
        metrics.attach_slow_ring(Arc::clone(&ring));
        let mut server =
            Server::start("127.0.0.1:0", Arc::clone(&cell), 2, Arc::clone(&metrics)).unwrap();

        let mut snap = EpochSnapshot::empty();
        snap.epoch = 3;
        cell.publish(snap);
        metrics.publishes.inc();
        metrics.lag.snapshot_age_epochs.set(1);
        metrics.lag.tail_bytes.set(640);

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let first = query(&mut stream, &mut reader, "DENSITY");
        assert!(first.contains("epoch=3"), "{first}");
        let stats = query(&mut stream, &mut reader, "STATS");
        // `queries` counts queries answered before this one (the DENSITY).
        assert_eq!(
            stats,
            "OK STATS epoch=3 queries=1 errors=0 connections=1 publishes=1 \
             readers=2 busy=1 age_epochs=1 tail_bytes=640 seal_publish_us=0 idle_ms=0"
        );
        // A zero-threshold ring sees every answered query.
        server.shutdown();
        let slow: Vec<String> = ring.snapshot().into_iter().map(|op| op.detail).collect();
        assert!(slow.contains(&"DENSITY".to_string()), "{slow:?}");
        assert!(slow.contains(&"STATS".to_string()), "{slow:?}");
    }

    #[test]
    fn overlong_line_gets_one_err_then_eof() {
        let cell = Arc::new(SnapshotCell::new());
        let metrics = Arc::new(ServeMetrics::new());
        // One reader: the fresh connection below is only served once the
        // rejected one released it.
        let mut server =
            Server::start("127.0.0.1:0", Arc::clone(&cell), 1, Arc::clone(&metrics)).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Fail rather than hang if the server keeps buffering.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&vec![b'x'; 1 << 20]).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "ERR epoch=0 line too long\n");
        assert_eq!(metrics.query_errors.get(), 1);
        drop(stream);

        let mut fresh = TcpStream::connect(server.addr()).unwrap();
        let mut reader = std::io::BufReader::new(fresh.try_clone().unwrap());
        let density = query(&mut fresh, &mut reader, "DENSITY");
        assert!(density.starts_with("OK DENSITY epoch=0"), "{density}");
        server.shutdown();
    }

    #[test]
    fn shutdown_returns_with_a_client_still_connected() {
        let cell = Arc::new(SnapshotCell::new());
        let metrics = Arc::new(ServeMetrics::new());
        let mut server = Server::start("127.0.0.1:0", cell, 1, metrics).unwrap();
        let _lingering = TcpStream::connect(server.addr()).unwrap();
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown must not wait for clients"
        );
    }
}
