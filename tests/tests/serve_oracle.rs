//! The differential oracle for `EpochSnapshot` publication (ISSUE-8): a
//! random churn stream replays through a [`StreamEngine`] in lockstep
//! with a live [`dds_serve::Server`]; after **every** publish, real TCP
//! queries (`DENSITY`, `MEMBER`, `CORE`, `TOPK`) are checked against the
//! engine's own report for that epoch:
//!
//! * every `DENSITY` answer reproduces the epoch's bracket and counters
//!   exactly (same `format!` the server uses — not an epsilon match);
//! * every `MEMBER` answer agrees with the engine's witness pair;
//! * every `CORE` answer agrees with an independent reference: a
//!   `BTreeSet` mirror of the raw events, built by [`DiGraph::from_edges`]
//!   and peeled by [`xy_core_within`] from the full mask — neither the
//!   engine's `materialize` nor the publisher's [`dds_xycore::xy_core`];
//! * answers are internally consistent (no torn reads: one response
//!   never mixes fields from two epochs, pinned by the epoch id each
//!   response carries) and epoch ids are strictly monotone across
//!   publishes.
//!
//! The body runs twice: serving the `[1, 1]`-core `dds serve --core 1,1`
//! serves, and the `[3, 2]`-core, whose peel cascades.
//!
//! Concurrency (readers hammering *during* ingestion) is E18's job; this
//! oracle is deliberately lockstep so every served answer has exactly one
//! correct value to compare against.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use dds_graph::{DiGraph, StMask, VertexId};
use dds_serve::{EpochFacts, PublishOptions, Publisher, ServeMetrics, Server, SnapshotCell};
use dds_stream::{Batch, Event, SolverKind, StreamConfig, StreamEngine, TimedEvent};
use dds_xycore::xy_core_within;

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to serve front end");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn query(&mut self, q: &str) -> String {
        self.stream
            .write_all(format!("{q}\n").as_bytes())
            .expect("send query");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(
            line.ends_with('\n'),
            "response must be a full line: {line:?}"
        );
        line.trim_end().to_string()
    }
}

/// Pulls `epoch=N` out of a response line.
fn epoch_of(response: &str) -> u64 {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("epoch="))
        .unwrap_or_else(|| panic!("response carries no epoch: {response}"))
        .parse()
        .expect("epoch id parses")
}

/// The raw events folded into an edge set and a vertex count, by the
/// stream's rules: inserts register both ids, self-loops and duplicates
/// add no edge, and deleting an absent edge does nothing.
#[derive(Default)]
struct Mirror {
    edges: BTreeSet<(VertexId, VertexId)>,
    n: usize,
}

impl Mirror {
    fn apply(&mut self, events: &[TimedEvent]) {
        for ev in events {
            match ev.event {
                Event::Insert(u, v) => {
                    self.n = self.n.max(u as usize + 1).max(v as usize + 1);
                    if u != v {
                        self.edges.insert((u, v));
                    }
                }
                Event::Delete(u, v) => {
                    self.edges.remove(&(u, v));
                }
            }
        }
    }

    /// The mirror's `[x, y]`-core, peeled from the full mask.
    fn core(&self, x: u64, y: u64) -> StMask {
        let edges: Vec<_> = self.edges.iter().copied().collect();
        let graph = DiGraph::from_edges(self.n, &edges).expect("mirror ids are below n");
        xy_core_within(&graph, &StMask::full(self.n), x, y)
    }
}

#[test]
fn served_answers_match_the_engine_report_for_every_epoch() {
    serve_and_check((1, 1));
}

#[test]
fn served_cascading_core_matches_the_reference_for_every_epoch() {
    serve_and_check((3, 2));
}

/// Replays the oracle's churn stream in lockstep with a server that
/// serves the `(core_x, core_y)`-core and checks every answer.
fn serve_and_check((core_x, core_y): (u64, u64)) {
    let events = dds_bench::churn(100, 600, (8, 8), 3_000, 0x5EED);

    let mut engine = StreamEngine::new(StreamConfig {
        tolerance: 0.25,
        slack: 2.0,
        solver: SolverKind::Exact,
        threads: 1,
        sketch: None,
    });
    let cell = Arc::new(SnapshotCell::new());
    let metrics = Arc::new(ServeMetrics::new());
    let mut publisher = Publisher::new(
        Arc::clone(&cell),
        PublishOptions {
            core: Some((core_x, core_y)),
            top_k: 2,
        },
        Arc::clone(&metrics),
    );
    let server = Server::start("127.0.0.1:0", Arc::clone(&cell), 2, Arc::clone(&metrics))
        .expect("bind ephemeral port");
    let mut client = Client::connect(server.addr());

    // Epoch 0: the pre-ingestion snapshot answers (emptily) too.
    let blank = client.query("DENSITY");
    assert_eq!(
        blank,
        "OK DENSITY epoch=0 n=0 m=0 density=0.000000 lower=0.000000 upper=0.000000"
    );

    let mut mirror = Mirror::default();
    let (mut last_epoch, mut core_epochs) = (0u64, 0u64);
    for chunk in events.chunks(50) {
        let r = engine.apply(&Batch::from_events(chunk.to_vec()));
        mirror.apply(chunk);
        publisher.publish(
            EpochFacts {
                epoch: r.epoch,
                n: r.n,
                m: r.m as u64,
                density: r.density.to_f64(),
                lower: r.lower,
                upper: r.upper,
                witness: engine.witness(),
                resolved: r.resolved,
            },
            || engine.materialize(),
        );

        // Monotone epoch ids across publishes.
        assert!(
            r.epoch > last_epoch,
            "epoch must advance: {} -> {}",
            last_epoch,
            r.epoch
        );
        last_epoch = r.epoch;

        // DENSITY: byte-for-byte the engine's numbers for this epoch.
        let density = client.query("DENSITY");
        assert_eq!(
            density,
            format!(
                "OK DENSITY epoch={} n={} m={} density={:.6} lower={:.6} upper={:.6}",
                r.epoch,
                r.n,
                r.m,
                r.density.to_f64(),
                r.lower,
                r.upper
            ),
            "epoch {}",
            r.epoch
        );

        // MEMBER: sampled vertices agree with the engine's witness pair.
        let witness = engine.witness().cloned();
        for v in (0..r.n as u32).step_by((r.n / 7).max(1)) {
            let response = client.query(&format!("MEMBER {v}"));
            assert_eq!(epoch_of(&response), r.epoch, "torn read: {response}");
            let in_s = witness.as_ref().is_some_and(|p| p.s().contains(&v));
            let in_t = witness.as_ref().is_some_and(|p| p.t().contains(&v));
            let want = match (in_s, in_t) {
                (true, true) => "BOTH",
                (true, false) => "S",
                (false, true) => "T",
                (false, false) => "NONE",
            };
            assert_eq!(
                response,
                format!("OK MEMBER epoch={} v={v} side={want}", r.epoch),
                "epoch {}",
                r.epoch
            );
        }

        // CORE: every vertex agrees with the mirror's core.
        assert_eq!(mirror.n, r.n, "epoch {}: vertex count", r.epoch);
        assert_eq!(mirror.edges.len(), r.m, "epoch {}: edge count", r.epoch);
        let mask = mirror.core(core_x, core_y);
        core_epochs += u64::from(!mask.is_empty());
        for v in 0..r.n {
            let response = client.query(&format!("CORE {core_x} {core_y} {v}"));
            assert_eq!(epoch_of(&response), r.epoch, "torn read: {response}");
            let want = match (mask.in_s[v], mask.in_t[v]) {
                (true, true) => "BOTH",
                (true, false) => "S",
                (false, true) => "T",
                (false, false) => "NONE",
            };
            assert_eq!(
                response,
                format!(
                    "OK CORE epoch={} x={core_x} y={core_y} v={v} side={want}",
                    r.epoch
                ),
                "epoch {}",
                r.epoch
            );
        }

        // TOPK: the served list is non-increasing and epoch-consistent.
        let topk = client.query("TOPK 2");
        assert_eq!(epoch_of(&topk), r.epoch, "torn read: {topk}");
        assert!(topk.starts_with("OK TOPK "), "{topk}");
        let densities: Vec<f64> = topk
            .split_whitespace()
            .skip(4)
            .map(|entry| {
                entry
                    .split(':')
                    .next()
                    .unwrap()
                    .parse()
                    .expect("top-k density parses")
            })
            .collect();
        assert!(densities.len() <= 2, "{topk}");
        assert!(
            densities.windows(2).all(|w| w[0] >= w[1]),
            "top-k densities must be non-increasing: {topk}"
        );

        // A core the publisher does not maintain is an ERR naming the
        // served one — never a silent wrong answer.
        let mismatch = client.query(&format!("CORE {} {} 0", core_x + 7, core_y));
        assert!(
            mismatch.starts_with(&format!("ERR epoch={}", r.epoch)),
            "{mismatch}"
        );
        assert!(
            mismatch.contains(&format!("serving [{core_x},{core_y}]")),
            "{mismatch}"
        );
    }

    assert!(last_epoch >= 10, "the stream must produce real epochs");
    assert!(
        core_epochs > 0,
        "an empty [{core_x}, {core_y}]-core at every epoch checks nothing"
    );
    assert_eq!(
        metrics.publishes.get(),
        last_epoch,
        "one publish per sealed epoch"
    );
    assert_eq!(
        metrics.query_errors.get(),
        last_epoch,
        "exactly the one deliberate core-mismatch ERR per epoch"
    );
    drop(client);
    drop(server); // shuts down on drop
}
