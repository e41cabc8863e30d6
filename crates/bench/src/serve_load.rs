//! Shared load generators for the serving experiments.
//!
//! For the query-serving tier (E18), client threads
//! hammer a `dds-serve` front end with a mixed
//! `DENSITY`/`MEMBER`/`CORE`/`TOPK` rotation and validate every response
//! as it streams back — epoch ids must never go backwards on a
//! connection (the arc-swap publication contract), `DENSITY` brackets
//! must stay internally consistent, and `ERR` responses are only
//! tolerated while the served epoch is still 0 (nothing published yet:
//! `CORE` legitimately answers "no core maintained" then).
//!
//! For the admin plane (E19), [`scrape_admin`] is one checked scrape of
//! `/metrics`, `/status` and `/readyz`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dds_obs::{http_get, parse_exposition};

/// One client's marching orders.
#[derive(Clone, Debug)]
pub struct ClientPlan {
    /// The serve front end to hammer.
    pub addr: SocketAddr,
    /// Cooperative stop flag, checked between queries: the client runs
    /// until it is raised (or the server hangs up).
    pub stop: Arc<AtomicBool>,
    /// The `[x,y]` core the server maintains; enables `CORE` queries.
    pub core: Option<(u64, u64)>,
    /// K for `TOPK` queries (0 disables them).
    pub top_k: usize,
}

/// What one client observed. Every violation counter should be zero on a
/// healthy server; they are counters rather than panics so a concurrent
/// failure reports *how often* it happened, not just that it did.
#[derive(Clone, Debug, Default)]
pub struct ClientReport {
    /// Responses received.
    pub queries: u64,
    /// `ERR` responses served at an epoch > 0 (always a bug: the load mix
    /// only issues queries the published snapshot can answer).
    pub errors_after_epoch0: u64,
    /// Responses whose epoch id went backwards on this connection.
    pub stale_violations: u64,
    /// `DENSITY` responses violating `lower ≤ density ≤ upper`.
    pub bracket_violations: u64,
    /// Highest epoch id observed.
    pub max_epoch: u64,
    /// Per-query round-trip latencies in microseconds (unsorted).
    pub latencies_us: Vec<u64>,
}

impl ClientReport {
    /// Folds another client's observations into this one.
    pub fn merge(&mut self, other: &ClientReport) {
        self.queries += other.queries;
        self.errors_after_epoch0 += other.errors_after_epoch0;
        self.stale_violations += other.stale_violations;
        self.bracket_violations += other.bracket_violations;
        self.max_epoch = self.max_epoch.max(other.max_epoch);
        self.latencies_us.extend_from_slice(&other.latencies_us);
    }
}

/// Runs one client against `plan.addr` until its stop flag is raised.
///
/// # Panics
/// Panics if the connection cannot be established or a response line is
/// malformed (no epoch id) — those are setup/protocol failures, not the
/// server-health violations the report counts.
#[must_use]
pub fn run_client(plan: &ClientPlan) -> ClientReport {
    let stream = TcpStream::connect(plan.addr).expect("connect to serve front end");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut stream = stream;
    let mut report = ClientReport::default();
    let mut last_epoch = 0u64;
    let mut i = 0u64;
    while !plan.stop.load(Ordering::Relaxed) {
        let query = match i % 4 {
            0 => "DENSITY".to_string(),
            1 => format!("MEMBER {}", (i * 7) % 512),
            2 => match plan.core {
                Some((x, y)) => format!("CORE {x} {y} {}", (i * 11) % 512),
                None => "DENSITY".to_string(),
            },
            _ => {
                if plan.top_k > 0 {
                    format!("TOPK {}", plan.top_k)
                } else {
                    "DENSITY".to_string()
                }
            }
        };
        i += 1;
        let t0 = Instant::now();
        stream
            .write_all(format!("{query}\n").as_bytes())
            .expect("send query");
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read response") == 0 {
            break; // server shut down mid-run
        }
        report
            .latencies_us
            .push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        report.queries += 1;
        let response = line.trim_end();
        let epoch = field(response, "epoch=")
            .unwrap_or_else(|| panic!("response carries no epoch: {response}"));
        if epoch < last_epoch {
            report.stale_violations += 1;
        }
        last_epoch = last_epoch.max(epoch);
        report.max_epoch = report.max_epoch.max(epoch);
        if response.starts_with("ERR") && epoch > 0 {
            report.errors_after_epoch0 += 1;
        }
        if response.starts_with("OK DENSITY") {
            let density: f64 = field(response, "density=").expect("density field");
            let lower: f64 = field(response, "lower=").expect("lower field");
            let upper: f64 = field(response, "upper=").expect("upper field");
            // Fields render at 6 decimals, so allow rounding slack.
            if density < lower - 1e-4 || density > upper + 1e-4 {
                report.bracket_violations += 1;
            }
        }
    }
    stream.write_all(b"QUIT\n").ok();
    report
}

/// Spawns `clients` threads running [`run_client`] with the same plan and
/// joins them all.
///
/// # Panics
/// Panics if a client thread panics (propagating its failure).
#[must_use]
pub fn run_clients(clients: usize, plan: &ClientPlan) -> Vec<ClientReport> {
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let plan = plan.clone();
            std::thread::Builder::new()
                .name(format!("dds-load-client-{i}"))
                .spawn(move || run_client(&plan))
                .expect("spawn load client")
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("load client panicked"))
        .collect()
}

/// The `p`-th percentile (0–100) of `values`, 0 when empty. Sorts a copy;
/// fine at load-generator scales.
#[must_use]
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One scrape of the admin plane at `addr`: `/metrics` must answer 200
/// with an exposition that parses, `/status` 200, and `/readyz` 200 once
/// ready or 503 before. `ready_seen` carries readiness across a
/// scraper's calls, so a flip back to 503 fails. Returns the `/metrics`
/// round trip in microseconds.
///
/// # Panics
/// Panics on a failed request, an unexpected status, an exposition that
/// does not parse, or `/readyz` going back to not-ready.
pub fn scrape_admin(addr: SocketAddr, ready_seen: &mut bool) -> u64 {
    let t0 = Instant::now();
    let (code, body) = http_get(addr, "/metrics").expect("scrape /metrics");
    let metrics_us = t0.elapsed().as_micros() as u64;
    assert_eq!(code, 200, "failed /metrics scrape");
    parse_exposition(&body).expect("every scrape must parse");
    let (code, _) = http_get(addr, "/status").expect("scrape /status");
    assert_eq!(code, 200, "failed /status scrape");
    let (code, _) = http_get(addr, "/readyz").expect("scrape /readyz");
    match code {
        200 => *ready_seen = true,
        503 => assert!(!*ready_seen, "/readyz went back to not-ready"),
        other => panic!("failed /readyz scrape: {other}"),
    }
    metrics_us
}

/// Extracts `key<value>` from a space-separated response line.
fn field<T: std::str::FromStr>(response: &str, key: &str) -> Option<T> {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_sorted_ranks() {
        let v = [50, 10, 40, 20, 30];
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&v, 50.0), 30);
        assert_eq!(percentile(&v, 100.0), 50);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn fixed_count_client_validates_a_live_server() {
        use dds_serve::{EpochSnapshot, ServeMetrics, Server, SnapshotCell};
        use std::time::Duration;

        let cell = Arc::new(SnapshotCell::new());
        let mut snap = EpochSnapshot::empty();
        snap.epoch = 3;
        snap.n = 2;
        snap.m = 1;
        snap.density = 1.0;
        snap.lower = 1.0;
        snap.upper = 1.0;
        cell.publish(snap);
        let metrics = Arc::new(ServeMetrics::new());
        let server =
            Server::start("127.0.0.1:0", Arc::clone(&cell), 1, Arc::clone(&metrics)).expect("bind");
        let plan = ClientPlan {
            addr: server.addr(),
            stop: Arc::new(AtomicBool::new(false)),
            core: None,
            top_k: 1,
        };
        let load = {
            let plan = plan.clone();
            std::thread::spawn(move || run_clients(2, &plan))
        };
        // Raise the stop flag once the server has answered 16 queries.
        while metrics.queries.get() < 16 {
            std::thread::sleep(Duration::from_millis(1));
        }
        plan.stop.store(true, Ordering::Relaxed);
        let mut total = ClientReport::default();
        for r in &load.join().expect("load clients") {
            total.merge(r);
        }
        assert!(total.queries >= 16, "{} queries", total.queries);
        assert_eq!(total.errors_after_epoch0, 0);
        assert_eq!(total.stale_violations, 0);
        assert_eq!(total.bracket_violations, 0);
        assert_eq!(total.max_epoch, 3);
        assert_eq!(total.latencies_us.len() as u64, total.queries);
    }
}
