//! The admin HTTP endpoint: a minimal hand-rolled HTTP/1.1 listener
//! serving live introspection for a running serving process.
//!
//! Routes:
//!
//! * `GET /metrics` — the Prometheus exposition rendered straight from
//!   the live [`Registry`] (no file round-trip).
//! * `GET /healthz` — liveness: `200 ok` while the process runs.
//! * `GET /readyz` — readiness: `503` until the owner marks the
//!   [`StatusBoard`] ready (first sealed epoch / first published
//!   snapshot), `200` after; the body surfaces reader saturation when
//!   the serve tier exports it.
//! * `GET /status` — a JSON summary: epoch, event/byte cursors, the
//!   certified bracket, snapshot age.
//! * `GET /slow` — the slow-op ring as JSON, slowest first.
//!
//! The scrape path is lock-free with respect to ingest: every datum it
//! renders is either a relaxed atomic ([`StatusBoard`], counter and
//! gauge cells), a `try_lock` slot claim ([`crate::SlowRing`]), or the
//! registry's name-map mutex — which ingest hot paths never take (they
//! hold pre-resolved handles; the map is only locked at attach time and
//! by scrapes). An admin request can therefore never stall an apply or
//! a query, the same discipline as the serve tier's snapshot cell.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::slow::escape_json;
use crate::{Registry, SlowRing};

/// How long the listener waits on a request before dropping the
/// connection (a stuck scraper must not pin the admin thread).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request head (request line + headers) we accept.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Live serving-process facts behind the admin plane, all relaxed
/// atomics: the ingest loop stores at epoch fold points, admin requests
/// (and the serve `STATS` verb) load — no locks in either direction.
#[derive(Debug)]
pub struct StatusBoard {
    role: &'static str,
    ready: AtomicBool,
    ready_flips: AtomicU64,
    epoch: AtomicU64,
    events: AtomicU64,
    cursor: AtomicU64,
    tail_bytes: AtomicU64,
    density_bits: AtomicU64,
    lower_bits: AtomicU64,
    upper_bits: AtomicU64,
    snapshot_epoch: AtomicU64,
    /// Per-shard digest facts, present only on a cluster coordinator
    /// ([`StatusBoard::init_shards`]); sized once, cells updated with
    /// relaxed stores like everything else on the board.
    shards: OnceLock<Vec<ShardCell>>,
}

/// One remote shard's live digest facts on a coordinator's board.
#[derive(Debug, Default)]
struct ShardCell {
    epoch: AtomicU64,
    bytes_behind: AtomicU64,
    last_digest_unix_ms: AtomicU64,
}

impl StatusBoard {
    /// A board for a serving process of the given role (`"stream"`,
    /// `"shard"`, `"serve"`, …), not yet ready.
    #[must_use]
    pub fn new(role: &'static str) -> Self {
        StatusBoard {
            role,
            ready: AtomicBool::new(false),
            ready_flips: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            events: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            tail_bytes: AtomicU64::new(0),
            density_bits: AtomicU64::new(0f64.to_bits()),
            lower_bits: AtomicU64::new(0f64.to_bits()),
            upper_bits: AtomicU64::new(0f64.to_bits()),
            snapshot_epoch: AtomicU64::new(0),
            shards: OnceLock::new(),
        }
    }

    /// Declares this board a cluster coordinator over `count` shards:
    /// `/status` grows a `shards[]` array. Idempotent; only the first
    /// call sizes the cells.
    pub fn init_shards(&self, count: usize) {
        let _ = self
            .shards
            .set((0..count).map(|_| ShardCell::default()).collect());
    }

    /// Records one shard's latest digest facts: its acked epoch, how many
    /// event bytes it trails the stream head, and the wall-clock moment
    /// (ms since the UNIX epoch) the digest arrived. Out-of-range shard
    /// ids and boards without [`StatusBoard::init_shards`] are no-ops.
    pub fn shard_seen(&self, shard: usize, epoch: u64, bytes_behind: u64, at_unix_ms: u64) {
        let Some(cell) = self.shards.get().and_then(|cells| cells.get(shard)) else {
            return;
        };
        cell.epoch.store(epoch, Ordering::Relaxed);
        cell.bytes_behind.store(bytes_behind, Ordering::Relaxed);
        cell.last_digest_unix_ms
            .store(at_unix_ms, Ordering::Relaxed);
    }

    /// Milliseconds since the UNIX epoch right now — the timestamp feed
    /// for [`StatusBoard::shard_seen`].
    #[must_use]
    pub fn unix_ms() -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    /// Records a sealed epoch: id, cumulative applied events, the byte
    /// cursor into the event file, and the certified bracket.
    pub fn record_seal(
        &self,
        epoch: u64,
        events: u64,
        cursor: u64,
        density: f64,
        lower: f64,
        upper: f64,
    ) {
        self.epoch.store(epoch, Ordering::Relaxed);
        self.events.store(events, Ordering::Relaxed);
        self.cursor.store(cursor, Ordering::Relaxed);
        self.density_bits
            .store(density.to_bits(), Ordering::Relaxed);
        self.lower_bits.store(lower.to_bits(), Ordering::Relaxed);
        self.upper_bits.store(upper.to_bits(), Ordering::Relaxed);
    }

    /// Records how many bytes of the event file trail the ingest cursor.
    pub fn set_tail_bytes(&self, bytes: u64) {
        self.tail_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Records the epoch of the last published query snapshot.
    pub fn publish_snapshot(&self, epoch: u64) {
        self.snapshot_epoch.store(epoch, Ordering::Relaxed);
    }

    /// Flips the board to ready. Idempotent in effect; every *flip* (a
    /// false→true transition) is counted so tests can pin "exactly one".
    pub fn set_ready(&self) {
        if !self.ready.swap(true, Ordering::Relaxed) {
            self.ready_flips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the process reached readiness.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.ready.load(Ordering::Relaxed)
    }

    /// Number of false→true readiness transitions (must end up 1).
    #[must_use]
    pub fn ready_flips(&self) -> u64 {
        self.ready_flips.load(Ordering::Relaxed)
    }

    /// The last sealed epoch id.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Epoch of the last published snapshot (0 = none yet).
    #[must_use]
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot_epoch.load(Ordering::Relaxed)
    }

    /// How many epochs the published snapshot trails the sealed epoch.
    #[must_use]
    pub fn snapshot_age_epochs(&self) -> u64 {
        self.epoch().saturating_sub(self.snapshot_epoch())
    }

    /// Renders the `/status` JSON body. `registry` contributes the serve
    /// tier's reader-saturation gauges when they exist.
    #[must_use]
    pub fn status_json(&self, registry: &Registry) -> String {
        let density = f64::from_bits(self.density_bits.load(Ordering::Relaxed));
        let lower = f64::from_bits(self.lower_bits.load(Ordering::Relaxed));
        let upper = f64::from_bits(self.upper_bits.load(Ordering::Relaxed));
        let mut out = format!(
            "{{\"role\":\"{}\",\"ready\":{},\"epoch\":{},\"events\":{},\"cursor\":{},\
             \"tail_bytes\":{},\"density\":{density},\"lower\":{lower},\"upper\":{upper},\
             \"snapshot_epoch\":{},\"snapshot_age_epochs\":{}",
            escape_json(self.role),
            self.ready(),
            self.epoch(),
            self.events.load(Ordering::Relaxed),
            self.cursor.load(Ordering::Relaxed),
            self.tail_bytes.load(Ordering::Relaxed),
            self.snapshot_epoch(),
            self.snapshot_age_epochs(),
        );
        if let (Some(readers), Some(busy)) = (
            registry.gauge_value("dds_serve_readers"),
            registry.gauge_value("dds_serve_readers_busy"),
        ) {
            out.push_str(&format!(",\"readers\":{readers},\"readers_busy\":{busy}"));
        }
        if let Some(cells) = self.shards.get() {
            let now = Self::unix_ms();
            out.push_str(",\"shards\":[");
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let at = cell.last_digest_unix_ms.load(Ordering::Relaxed);
                let age = if at == 0 {
                    "null".to_string()
                } else {
                    now.saturating_sub(at).to_string()
                };
                out.push_str(&format!(
                    "{{\"shard\":{i},\"epoch\":{},\"bytes_behind\":{},\
                     \"last_digest_age_ms\":{age}}}",
                    cell.epoch.load(Ordering::Relaxed),
                    cell.bytes_behind.load(Ordering::Relaxed),
                ));
            }
            out.push(']');
        }
        out.push_str("}\n");
        out
    }
}

/// The admin HTTP listener. One accept thread answers requests
/// sequentially (admin traffic is a scraper or an operator, not user
/// load); dropping the handle shuts the listener down.
#[derive(Debug)]
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (e.g. `127.0.0.1:9100`, port 0 for ephemeral) and
    /// starts answering admin requests against the given live state.
    ///
    /// # Errors
    /// Returns the bind error.
    pub fn start(
        addr: &str,
        registry: Registry,
        status: Arc<StatusBoard>,
        slow: Arc<SlowRing>,
    ) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("dds-admin".into())
                .spawn(move || accept_loop(&listener, &stop, &registry, &status, &slow))?
        };
        Ok(AdminServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn shutdown_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    registry: &Registry,
    status: &StatusBoard,
    slow: &SlowRing,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        // A misbehaving client costs at most the request timeout; the
        // serving loops never wait on this thread, so that's acceptable.
        let _ = handle_request(stream, registry, status, slow);
    }
}

fn handle_request(
    stream: TcpStream,
    registry: &Registry,
    status: &StatusBoard,
    slow: &SlowRing,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader
        .by_ref()
        .take(MAX_REQUEST_BYTES as u64)
        .read_line(&mut request_line)?;
    // Drain the headers (we need none of them).
    let mut header = String::new();
    let mut total = request_line.len();
    loop {
        header.clear();
        let n = reader
            .by_ref()
            .take(MAX_REQUEST_BYTES as u64)
            .read_line(&mut header)?;
        total += n;
        if n == 0 || header == "\r\n" || header == "\n" || total > MAX_REQUEST_BYTES {
            break;
        }
    }
    let mut stream = reader.into_inner();
    let mut parts = request_line.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "method not allowed\n",
        );
    }
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/metrics" => {
            let body = registry.exposition();
            respond(&mut stream, 200, "OK", "text/plain; version=0.0.4", &body)
        }
        "/healthz" => respond(&mut stream, 200, "OK", "text/plain", "ok\n"),
        "/readyz" => {
            let busy = registry
                .gauge_value("dds_serve_readers_busy")
                .zip(registry.gauge_value("dds_serve_readers"))
                .map(|(busy, total)| format!(" readers_busy={busy}/{total}"))
                .unwrap_or_default();
            if status.ready() {
                respond(
                    &mut stream,
                    200,
                    "OK",
                    "text/plain",
                    &format!("ready{busy}\n"),
                )
            } else {
                respond(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    &format!("not ready{busy}\n"),
                )
            }
        }
        "/status" => respond(
            &mut stream,
            200,
            "OK",
            "application/json",
            &status.status_json(registry),
        ),
        "/slow" => respond(
            &mut stream,
            200,
            "OK",
            "application/json",
            &slow.render_json(),
        ),
        _ => respond(&mut stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// A minimal HTTP/1.1 GET client for the admin plane (tests, smokes, and
/// quick operator checks): returns `(status_code, body)`.
///
/// # Errors
/// Returns connection/IO errors and malformed status lines as
/// [`std::io::Error`].
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<(u16, String)> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status_line = head.lines().next().unwrap_or("");
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    Ok((code, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rig() -> (AdminServer, Registry, Arc<StatusBoard>, Arc<SlowRing>) {
        let registry = Registry::new();
        let status = Arc::new(StatusBoard::new("test"));
        let slow = Arc::new(SlowRing::new(4, 100));
        let server = AdminServer::start(
            "127.0.0.1:0",
            registry.clone(),
            Arc::clone(&status),
            Arc::clone(&slow),
        )
        .expect("bind admin");
        (server, registry, status, slow)
    }

    #[test]
    fn routes_answer_and_readiness_flips_once() {
        let (server, registry, status, slow) = rig();
        let addr = server.addr();

        let (code, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        let (code, body) = http_get(addr, "/readyz").unwrap();
        assert_eq!(code, 503);
        assert_eq!(body, "not ready\n");

        registry.counter("dds_stream_epochs_total").add(3);
        status.record_seal(3, 300, 9000, 2.5, 2.0, 3.0);
        status.set_ready();
        status.set_ready(); // idempotent: still one flip
        let (code, body) = http_get(addr, "/readyz").unwrap();
        assert_eq!((code, body.as_str()), (200, "ready\n"));
        assert_eq!(status.ready_flips(), 1);

        let (code, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        let samples = crate::parse_exposition(&body).expect("exposition parses");
        assert_eq!(samples["dds_stream_epochs_total"], 3u64);

        let (code, body) = http_get(addr, "/status").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("\"role\":\"test\""), "{body}");
        assert!(body.contains("\"epoch\":3"), "{body}");
        assert!(body.contains("\"density\":2.5"), "{body}");
        assert!(body.contains("\"snapshot_age_epochs\":3"), "{body}");
        assert!(!body.contains("readers"), "no serve gauges registered");

        slow.record("stream.apply", 5_000, "batch=100");
        let (code, body) = http_get(addr, "/slow").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("\"name\":\"stream.apply\""), "{body}");

        let (code, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(code, 404);
    }

    #[test]
    fn status_surfaces_reader_saturation_when_exported() {
        let (server, registry, status, _slow) = rig();
        registry.gauge("dds_serve_readers").set(4);
        registry.gauge("dds_serve_readers_busy").set(2);
        status.publish_snapshot(1);
        status.set_ready();
        let (code, body) = http_get(server.addr(), "/readyz").unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "ready readers_busy=2/4\n");
        let (_, body) = http_get(server.addr(), "/status").unwrap();
        assert!(body.contains("\"readers\":4,\"readers_busy\":2"), "{body}");
    }

    #[test]
    fn status_renders_shard_array_for_coordinators() {
        let (server, _registry, status, _slow) = rig();
        // Plain boards have no shards key at all.
        let (_, body) = http_get(server.addr(), "/status").unwrap();
        assert!(!body.contains("\"shards\""), "{body}");
        status.init_shards(2);
        status.shard_seen(0, 7, 1234, StatusBoard::unix_ms());
        status.shard_seen(9, 1, 1, 1); // out of range: ignored
        let (_, body) = http_get(server.addr(), "/status").unwrap();
        assert!(
            body.contains("{\"shard\":0,\"epoch\":7,\"bytes_behind\":1234,"),
            "{body}"
        );
        // Shard 1 never reported: age is null.
        assert!(
            body.contains(
                "{\"shard\":1,\"epoch\":0,\"bytes_behind\":0,\"last_digest_age_ms\":null}"
            ),
            "{body}"
        );
        // Re-init is a no-op, not a resize.
        status.init_shards(5);
        let (_, body) = http_get(server.addr(), "/status").unwrap();
        assert!(!body.contains("\"shard\":2"), "{body}");
    }

    #[test]
    fn board_tracks_snapshot_age() {
        let b = StatusBoard::new("serve");
        b.record_seal(10, 1_000, 40_000, 1.0, 1.0, 1.0);
        b.publish_snapshot(8);
        assert_eq!(b.snapshot_age_epochs(), 2);
        b.publish_snapshot(10);
        assert_eq!(b.snapshot_age_epochs(), 0);
    }
}
