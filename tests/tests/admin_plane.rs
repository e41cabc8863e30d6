//! The live introspection plane under concurrent load: scraper threads
//! hammer `/metrics` and `/status` while a follow replay ingests, and
//! every response must parse cleanly and reconcile with the driver's own
//! epoch accounting — scrapes never block ingest and never tear.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dds_obs::{http_get, AdminServer, Registry, SlowRing, StatusBoard};
use dds_stream::{follow_events, FollowConfig, StreamConfig, StreamEngine};

fn temp_events(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "dds_admin_plane_{tag}_{}_{:?}.events",
        std::process::id(),
        std::thread::current().id()
    ));
    let events = dds_bench::stream_workloads::churn(150, 1_000, (14, 14), 8_000, 0xAD01);
    dds_stream::save_events(&events, &path).expect("write events");
    path
}

#[test]
fn concurrent_scrapes_parse_and_reconcile_with_ingest() {
    let path = temp_events("scrape");
    let registry = Registry::new();
    let board = Arc::new(StatusBoard::new("stream"));
    let ring = Arc::new(SlowRing::new(16, 0));
    let admin = AdminServer::start(
        "127.0.0.1:0",
        registry.clone(),
        Arc::clone(&board),
        Arc::clone(&ring),
    )
    .expect("bind admin");
    let addr = admin.addr();

    let mut engine = StreamEngine::new(StreamConfig::default());
    engine.attach_obs(&registry);

    // Scraper threads hammer the plane for the whole replay. Every
    // response must be complete and parseable; the epoch counter must
    // never exceed what the driver has sealed so far.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..3)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let board = Arc::clone(&board);
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (code, body) = http_get(addr, "/metrics").expect("scrape /metrics");
                    assert_eq!(code, 200, "scraper {i}");
                    let parsed = dds_obs::parse_exposition(&body).expect("exposition parses");
                    // The driver seals the board AFTER attaching counters,
                    // so a torn read can only under-report, never over.
                    if let Some(epochs) = parsed.get("dds_stream_epochs_total") {
                        let sealed = board.epoch();
                        assert!(
                            epochs.as_u64() <= Some(sealed + 1),
                            "scraped {epochs} epochs but the driver sealed {sealed}"
                        );
                    }
                    let (code, status) = http_get(addr, "/status").expect("scrape /status");
                    assert_eq!(code, 200, "scraper {i}");
                    assert!(
                        status.starts_with('{') && status.ends_with("}\n"),
                        "status must never tear: {status:?}"
                    );
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    let mut epochs = 0u64;
    let mut events_total = 0u64;
    let outcome = follow_events(
        &path,
        FollowConfig {
            batch: 50,
            poll: Duration::from_millis(1),
            idle_exit: Some(Duration::ZERO),
            cursor: 0,
        },
        |batch, cur| {
            events_total += batch.events.len() as u64;
            let r = engine.apply(&batch);
            epochs = r.epoch;
            board.record_seal(
                r.epoch,
                events_total,
                cur,
                r.density.to_f64(),
                r.lower,
                r.upper,
            );
            board.set_ready();
            std::ops::ControlFlow::Continue(())
        },
    )
    .expect("follow");
    stop.store(true, Ordering::Relaxed);
    let scrapes: u64 = scrapers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(scrapes > 0, "the scrapers must have gotten through");

    // Final reconciliation: the last scrape agrees with the driver.
    assert_eq!(outcome.epochs, epochs);
    assert_eq!(board.ready_flips(), 1, "readiness flips exactly once");
    let (code, body) = http_get(addr, "/metrics").expect("final scrape");
    assert_eq!(code, 200);
    let parsed = dds_obs::parse_exposition(&body).expect("final exposition parses");
    assert!(
        parsed
            .get("dds_stream_epochs_total")
            .is_some_and(|v| v.as_u64() == Some(epochs)),
        "final scrape must reconcile with {epochs} sealed epochs: {body}"
    );
    let (code, status) = http_get(addr, "/status").expect("final status");
    assert_eq!(code, 200);
    assert!(status.contains(&format!("\"epoch\":{epochs}")), "{status}");
    assert!(
        status.contains(&format!("\"events\":{events_total}")),
        "{status}"
    );
    drop(admin);
    std::fs::remove_file(&path).ok();
}
