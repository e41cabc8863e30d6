//! The slow-op ring: a fixed-capacity, non-blocking record of the
//! slowest operations seen so far.
//!
//! The ring keeps the N slowest over-threshold operations (epoch seals,
//! serve queries) by duration. Recording never blocks and never waits:
//! a slot is *claimed* with a single `try_lock` compare-and-swap and
//! overwritten in place; if the claim races with another writer or a
//! drain, the record is dropped and counted — an ingest or reader thread
//! can never be stalled by the ring, and a drain can never be stalled by
//! ingest. The per-slot duration lives in a plain atomic so the
//! find-the-minimum scan touches no slot claims at all.
//!
//! Feeding is behind a threshold knob: an op shorter than `threshold_us`
//! costs one compare and returns. Only an [`crate::AdminRig`] and the
//! query tier sharing its ring feed it, so a replay without the admin
//! plane times nothing and stays byte-identical.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One recorded slow operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowOp {
    /// Operation name (`epoch.seal`, `serve.query`, …).
    pub name: String,
    /// Free-form context (the query line, batch size, …); may be empty.
    pub detail: String,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Global record sequence (later records have larger seq).
    pub seq: u64,
}

#[derive(Debug, Default)]
struct SlotData {
    name: String,
    detail: String,
    dur_us: u64,
    seq: u64,
}

#[derive(Debug, Default)]
struct Slot {
    /// Scan-side copy of the duration (`u64::MAX` = empty). Updated under
    /// the claim, read lock-free by the victim scan.
    dur_us: AtomicU64,
    /// The claim: held only for the handful of stores of an overwrite or
    /// the clone of a drain, and only ever `try_lock`ed — no blocking.
    data: Mutex<SlotData>,
}

const EMPTY: u64 = u64::MAX;

/// The fixed-capacity slow-op ring. See the module docs for the claim
/// discipline; construction picks the capacity and the threshold knob.
#[derive(Debug)]
pub struct SlowRing {
    threshold_us: u64,
    slots: Box<[Slot]>,
    seq: AtomicU64,
    recorded: AtomicU64,
    contended: AtomicU64,
}

impl SlowRing {
    /// A ring keeping the `capacity` slowest ops at or above
    /// `threshold_us` microseconds.
    ///
    /// # Panics
    /// Panics on zero capacity.
    #[must_use]
    pub fn new(capacity: usize, threshold_us: u64) -> Self {
        assert!(capacity > 0, "slow ring needs at least one slot");
        let slots: Vec<Slot> = (0..capacity)
            .map(|_| {
                let s = Slot::default();
                s.dur_us.store(EMPTY, Ordering::Relaxed);
                s
            })
            .collect();
        SlowRing {
            threshold_us,
            slots: slots.into_boxed_slice(),
            seq: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// The threshold knob: ops shorter than this are not recorded.
    #[must_use]
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Slot count.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Ops accepted into a slot (lifetime total).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Ops dropped because a claim raced (lifetime total). Drops are the
    /// price of never blocking; under any realistic scrape cadence this
    /// stays 0.
    #[must_use]
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Records one operation. Below-threshold ops cost one compare; an op
    /// slower than the current minimum overwrites that slot; claim races
    /// drop the record (counted) rather than wait.
    pub fn record(&self, name: &str, dur_us: u64, detail: &str) {
        if dur_us < self.threshold_us {
            return;
        }
        // Find the victim: an empty slot, else the stable minimum
        // strictly below the new duration.
        let mut victim = None;
        let mut victim_dur = dur_us;
        for (i, slot) in self.slots.iter().enumerate() {
            let d = slot.dur_us.load(Ordering::Relaxed);
            if d == EMPTY {
                victim = Some(i);
                break;
            }
            if d < victim_dur {
                victim = Some(i);
                victim_dur = d;
            }
        }
        let Some(i) = victim else {
            // Not among the slowest: correct rejection, not contention.
            return;
        };
        let Ok(mut data) = self.slots[i].data.try_lock() else {
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        };
        data.name.clear();
        data.name.push_str(name);
        data.detail.clear();
        data.detail.push_str(detail);
        data.dur_us = dur_us;
        data.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.slots[i].dur_us.store(dur_us, Ordering::Relaxed);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the ring, slowest first (ties broken by
    /// recency, later first). Slots claimed by an in-flight write are
    /// skipped — the drain never waits on a writer.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SlowOp> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            if slot.dur_us.load(Ordering::Relaxed) == EMPTY {
                continue;
            }
            let Ok(data) = slot.data.try_lock() else {
                continue;
            };
            if data.name.is_empty() {
                continue;
            }
            out.push(SlowOp {
                name: data.name.clone(),
                detail: data.detail.clone(),
                dur_us: data.dur_us,
                seq: data.seq,
            });
        }
        out.sort_by(|a, b| b.dur_us.cmp(&a.dur_us).then(b.seq.cmp(&a.seq)));
        out
    }

    /// Renders [`SlowRing::snapshot`] as a JSON array (the `/slow` body).
    #[must_use]
    pub fn render_json(&self) -> String {
        let ops = self.snapshot();
        let mut out = String::from("[");
        for (i, op) in ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"dur_us\":{},\"detail\":\"{}\",\"seq\":{}}}",
                escape_json(&op.name),
                op.dur_us,
                escape_json(&op.detail),
                op.seq
            );
        }
        out.push_str("]\n");
        out
    }

    /// Renders the ring as a human-readable table (the exit drain);
    /// empty string when nothing was recorded.
    #[must_use]
    pub fn render_table(&self) -> String {
        let ops = self.snapshot();
        if ops.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "slow ops (threshold {} us, {} recorded, {} contended):\n",
            self.threshold_us,
            self.recorded(),
            self.contended()
        );
        for op in &ops {
            let _ = writeln!(
                out,
                "  {:>10} us  {}{}{}",
                op.dur_us,
                op.name,
                if op.detail.is_empty() { "" } else { "  " },
                op.detail
            );
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn keeps_the_slowest_and_respects_the_threshold() {
        let ring = SlowRing::new(3, 100);
        ring.record("fast", 50, ""); // below threshold
        ring.record("a", 100, "");
        ring.record("b", 300, "q1");
        ring.record("c", 200, "");
        ring.record("d", 150, "");
        // Ring is full with {300, 200, 150}; 120 must not displace.
        ring.record("e", 120, "");
        let ops = ring.snapshot();
        assert_eq!(
            ops.iter().map(|o| o.name.as_str()).collect::<Vec<_>>(),
            ["b", "c", "d"],
            "slowest first"
        );
        assert_eq!(ops[0].dur_us, 300);
        assert_eq!(ops[0].detail, "q1");
        assert_eq!(ring.recorded(), 4, "a was displaced but still recorded");
        assert_eq!(ring.contended(), 0);
        // A genuinely slower op displaces the minimum.
        ring.record("f", 500, "");
        let ops = ring.snapshot();
        assert_eq!(ops[0].name, "f");
        assert_eq!(ops.len(), 3);
        assert!(ops.iter().all(|o| o.name != "d"));
    }

    #[test]
    fn json_rendering_escapes_details() {
        let ring = SlowRing::new(2, 0);
        ring.record("serve.query", 42, "DENSITY \"x\"\n");
        let json = ring.render_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"dur_us\":42"));
        assert!(json.contains("DENSITY \\\"x\\\"\\n"));
        assert_eq!(SlowRing::new(1, 0).render_json(), "[]\n");
        assert_eq!(SlowRing::new(1, 0).render_table(), "");
    }

    #[test]
    fn concurrent_recording_and_draining_never_blocks_or_tears() {
        let ring = Arc::new(SlowRing::new(8, 10));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        ring.record("op", 10 + (i % 97) + w * 1000, "detail");
                    }
                })
            })
            .collect();
        let drainer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for op in ring.snapshot() {
                        // A torn read would mix fields from two records.
                        assert_eq!(op.name, "op");
                        assert_eq!(op.detail, "detail");
                        assert!(op.dur_us >= 10);
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        drainer.join().unwrap();
        let ops = ring.snapshot();
        assert!(!ops.is_empty());
        assert!(ops.len() <= 8);
        assert!(
            ops.windows(2).all(|w| w[0].dur_us >= w[1].dur_us),
            "snapshot must come back slowest first"
        );
        // Every record either landed or was counted as contended — none
        // vanished silently (drops by displacement don't count: those
        // never claimed a slot).
        assert!(ring.recorded() + ring.contended() <= 8_000);
        assert!(ring.recorded() >= 8, "the ring must have filled");
    }
}
