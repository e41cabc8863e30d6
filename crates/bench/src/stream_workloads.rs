//! Seeded edge-stream workload generators for the `dds-stream` subsystem.
//!
//! The generators cover the regimes that matter for incremental DDS
//! maintenance, mirroring how [`crate::workloads`] covers the static
//! solvers. The experiments pick their sizes inline:
//!
//! * [`churn`] — a persistent planted dense block (the "fraud ring") under
//!   heavy background edge churn: the optimum barely moves, so a lazy
//!   engine should absorb almost every batch incrementally;
//! * [`sliding_window`] — every edge expires `window` ticks after it
//!   arrives (the classic streaming model): steady insert/delete pressure
//!   with no stable optimum;
//! * [`planted_emerge`] — a dense block materialises edge-by-edge in the
//!   middle of an otherwise quiet background stream: the optimum shifts
//!   mid-stream and the engine must chase it;
//! * [`arrivals`] and [`recurring_block`] — arrival-only streams whose
//!   expiry the window-native engine owns.
//!
//! All generators take an explicit seed and produce identical streams for
//! identical arguments, like every other workload in this crate.

use std::collections::{HashMap, HashSet};

use dds_graph::VertexId;
use dds_stream::{Event, TimedEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A pool of currently-present edges supporting O(1) random removal.
#[derive(Default)]
struct EdgePool {
    list: Vec<(VertexId, VertexId)>,
    index: HashMap<(VertexId, VertexId), usize>,
}

impl EdgePool {
    fn contains(&self, e: (VertexId, VertexId)) -> bool {
        self.index.contains_key(&e)
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn insert(&mut self, e: (VertexId, VertexId)) -> bool {
        if e.0 == e.1 || self.contains(e) {
            return false;
        }
        self.index.insert(e, self.list.len());
        self.list.push(e);
        true
    }

    fn remove_random(&mut self, rng: &mut SmallRng) -> Option<(VertexId, VertexId)> {
        if self.list.is_empty() {
            return None;
        }
        let i = rng.gen_range(0..self.list.len());
        let e = self.list.swap_remove(i);
        self.index.remove(&e);
        if let Some(moved) = self.list.get(i) {
            self.index.insert(*moved, i);
        }
        Some(e)
    }
}

/// Rejection sampling needs head-room: cap the background at half the
/// vertex pairs outside the `s × t` block (same discipline as
/// `gen::gnm`, which switches strategy past 50% fill).
fn assert_background_fits(n: usize, s: usize, t: usize, background_m: usize) {
    let capacity = n.saturating_mul(n.saturating_sub(1)).saturating_sub(s * t);
    assert!(
        background_m.saturating_mul(2) <= capacity,
        "background_m = {background_m} exceeds half the {capacity} non-block vertex pairs; \
         raise n or shrink the background"
    );
}

fn random_background_edge(
    n: usize,
    block_s: usize,
    block_t: usize,
    rng: &mut SmallRng,
) -> (VertexId, VertexId) {
    // Rejection-samples an edge that is NOT inside the planted S×T block
    // (vertices 0..block_s and block_s..block_s+block_t), so background
    // churn never edits the planted optimum.
    loop {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u == v {
            continue;
        }
        let in_block =
            (u as usize) < block_s && (v as usize) >= block_s && (v as usize) < block_s + block_t;
        if !in_block {
            return (u, v);
        }
    }
}

/// Churn scenario: plant a complete `s × t` block on vertices
/// `0..s` → `s..s+t`, warm up a `G(n, background_m)`-style background,
/// then emit `events` further ticks of balanced background insert/delete
/// churn. The planted block is never touched, so the densest subgraph is
/// stable while everything around it moves — the best case for lazy
/// re-solving, and the acceptance workload for `dds stream`.
///
/// # Panics
/// Panics if the block does not fit in `n` vertices, or if `background_m`
/// exceeds half the vertex pairs outside the block (rejection sampling
/// would stall, as in [`dds_graph::gen::gnm`]'s bound).
#[must_use]
pub fn churn(
    n: usize,
    background_m: usize,
    block: (usize, usize),
    events: usize,
    seed: u64,
) -> Vec<TimedEvent> {
    let (s, t) = block;
    assert!(s >= 1 && t >= 1 && s + t <= n, "planted block must fit");
    assert_background_fits(n, s, t, background_m);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4u64.rotate_left(17));
    let mut out = Vec::with_capacity(events + background_m + s * t);
    let mut time = 0u64;
    let emit = |out: &mut Vec<TimedEvent>, time: &mut u64, event: Event| {
        out.push(TimedEvent { time: *time, event });
        *time += 1;
    };

    // Warm-up: the dense block first, then the background.
    for u in 0..s {
        for v in 0..t {
            emit(
                &mut out,
                &mut time,
                Event::Insert(u as VertexId, (s + v) as VertexId),
            );
        }
    }
    let mut pool = EdgePool::default();
    while pool.len() < background_m {
        let e = random_background_edge(n, s, t, &mut rng);
        if pool.insert(e) {
            emit(&mut out, &mut time, Event::Insert(e.0, e.1));
        }
    }

    // Churn: balanced random background inserts/deletes.
    for _ in 0..events {
        let do_insert = pool.len() < background_m / 2 || rng.gen_bool(0.5);
        if do_insert {
            let e = random_background_edge(n, s, t, &mut rng);
            if pool.insert(e) {
                emit(&mut out, &mut time, Event::Insert(e.0, e.1));
            }
        } else if let Some(e) = pool.remove_random(&mut rng) {
            emit(&mut out, &mut time, Event::Delete(e.0, e.1));
        }
    }
    out
}

/// Sliding-window scenario: random edges arrive continuously and each one
/// is deleted exactly `window` insertions later, so roughly `window` edges
/// are live at any moment and the stream is a steady 1:1 insert/delete
/// mix with no persistent structure.
///
/// # Panics
/// Panics if `window` exceeds half the vertex pairs (sampling a fresh
/// live edge would stall).
#[must_use]
pub fn sliding_window(n: usize, window: usize, events: usize, seed: u64) -> Vec<TimedEvent> {
    assert!(n >= 2, "need at least 2 vertices");
    assert!(window >= 1, "window must be positive");
    assert!(
        window.saturating_mul(2) <= n.saturating_mul(n - 1),
        "window = {window} exceeds half the {} vertex pairs; raise n or shrink the window",
        n * (n - 1)
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51u64.rotate_left(29));
    let mut live: HashSet<(VertexId, VertexId)> = HashSet::new();
    let mut arrivals: std::collections::VecDeque<(VertexId, VertexId)> =
        std::collections::VecDeque::new();
    let mut out = Vec::with_capacity(events);
    let mut time = 0u64;
    while out.len() < events {
        if arrivals.len() >= window {
            let e = arrivals.pop_front().expect("non-empty window");
            live.remove(&e);
            out.push(TimedEvent {
                time,
                event: Event::Delete(e.0, e.1),
            });
            time += 1;
            continue;
        }
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u == v || !live.insert((u, v)) {
            continue;
        }
        arrivals.push_back((u, v));
        out.push(TimedEvent {
            time,
            event: Event::Insert(u, v),
        });
        time += 1;
    }
    out
}

/// Planted-emerge scenario: a quiet churning background for the first
/// third of the stream, then a complete `s × t` block drips in edge by
/// edge (shuffled order) across the middle third, then background churn
/// again. The densest subgraph changes identity mid-stream; the epoch
/// trajectory should show the density ramp.
///
/// # Panics
/// Panics if the block does not fit in `n` vertices, if the background
/// exceeds half the non-block vertex pairs, or if the middle third is too
/// short to deliver every block edge (`events < 3·s·t`) — silently
/// dropping part of the block would falsify the scenario's contract.
#[must_use]
pub fn planted_emerge(
    n: usize,
    background_m: usize,
    block: (usize, usize),
    events: usize,
    seed: u64,
) -> Vec<TimedEvent> {
    let (s, t) = block;
    assert!(s >= 1 && t >= 1 && s + t <= n, "planted block must fit");
    assert_background_fits(n, s, t, background_m);
    assert!(
        events / 3 >= s * t,
        "events = {events} gives a middle third of {} ticks, too short for the {} block edges; \
         raise events or shrink the block",
        events / 3,
        s * t
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xE3u64.rotate_left(41));
    let mut out = Vec::with_capacity(events + background_m);
    let mut time = 0u64;

    // Quiet background warm-up.
    let mut pool = EdgePool::default();
    while pool.len() < background_m {
        let e = random_background_edge(n, s, t, &mut rng);
        if pool.insert(e) {
            out.push(TimedEvent {
                time,
                event: Event::Insert(e.0, e.1),
            });
            time += 1;
        }
    }

    // Shuffled block edges, dripped across the middle third.
    let mut block_edges: Vec<(VertexId, VertexId)> = (0..s)
        .flat_map(|u| (0..t).map(move |v| (u as VertexId, (s + v) as VertexId)))
        .collect();
    for i in (1..block_edges.len()).rev() {
        let j = rng.gen_range(0..=i);
        block_edges.swap(i, j);
    }
    let mut block_iter = block_edges.into_iter();

    for step in 0..events {
        let in_middle_third = step >= events / 3 && step < 2 * events / 3;
        if in_middle_third {
            if let Some(e) = block_iter.next() {
                out.push(TimedEvent {
                    time,
                    event: Event::Insert(e.0, e.1),
                });
                time += 1;
                continue;
            }
        }
        // Background churn tick.
        if pool.len() < background_m / 2 || rng.gen_bool(0.5) {
            let e = random_background_edge(n, s, t, &mut rng);
            if pool.insert(e) {
                out.push(TimedEvent {
                    time,
                    event: Event::Insert(e.0, e.1),
                });
                time += 1;
            }
        } else if let Some(e) = pool.remove_random(&mut rng) {
            out.push(TimedEvent {
                time,
                event: Event::Delete(e.0, e.1),
            });
            time += 1;
        }
    }
    out
}

/// Pure arrival stream for window-native engines: one uniformly random
/// edge per tick, no explicit deletions — expiry is the *engine's* job
/// (`dds-stream`'s `WindowEngine` owns the expiry ring), which is the
/// natural event-file shape for `dds stream --window W`. Occasional
/// re-arrivals of a live edge are intentional: they exercise the
/// last-occurrence renewal semantics.
#[must_use]
pub fn arrivals(n: usize, events: usize, seed: u64) -> Vec<TimedEvent> {
    assert!(n >= 2, "need at least 2 vertices");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA11u64.rotate_left(23));
    let mut out = Vec::with_capacity(events);
    for time in 0..events as u64 {
        let (u, v) = loop {
            let u = rng.gen_range(0..n) as VertexId;
            let v = rng.gen_range(0..n) as VertexId;
            if u != v {
                break (u, v);
            }
        };
        out.push(TimedEvent {
            time,
            event: Event::Insert(u, v),
        });
    }
    out
}

/// Arrival stream with a *recurring* dense block: every `period` ticks the
/// complete `s × t` block (vertices `0..s` → `s..s+t`) re-arrives edge by
/// edge, the remaining ticks are uniform background arrivals outside the
/// block. With an engine window longer than `period`, the re-arrivals
/// renew the block's expiry so the densest subgraph *persists* even though
/// every individual background edge slides out — the workload a
/// window-native engine should absorb with core repairs instead of exact
/// re-solves.
///
/// # Panics
/// Panics if the block does not fit in `n` vertices or `period < s·t`
/// (the block could not be delivered inside one period).
#[must_use]
pub fn recurring_block(
    n: usize,
    block: (usize, usize),
    period: usize,
    events: usize,
    seed: u64,
) -> Vec<TimedEvent> {
    let (s, t) = block;
    assert!(s >= 1 && t >= 1 && s + t <= n, "planted block must fit");
    assert!(
        period >= s * t,
        "period = {period} shorter than the {} block edges",
        s * t
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB10Cu64.rotate_left(31));
    let mut out = Vec::with_capacity(events);
    for time in 0..events as u64 {
        let phase = time as usize % period;
        let event = if phase < s * t {
            Event::Insert((phase / t) as VertexId, (s + phase % t) as VertexId)
        } else {
            let (u, v) = random_background_edge(n, s, t, &mut rng);
            Event::Insert(u, v)
        };
        out.push(TimedEvent { time, event });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(events: &[TimedEvent]) -> HashSet<(VertexId, VertexId)> {
        let mut live = HashSet::new();
        for ev in events {
            match ev.event {
                Event::Insert(u, v) => {
                    assert_ne!(u, v, "no self-loops");
                    assert!(live.insert((u, v)), "double insert of {u}->{v}");
                }
                Event::Delete(u, v) => {
                    assert!(live.remove(&(u, v)), "delete of absent {u}->{v}");
                }
            }
        }
        live
    }

    #[test]
    fn churn_is_deterministic_and_consistent() {
        let a = churn(100, 300, (8, 9), 1_000, 7);
        let b = churn(100, 300, (8, 9), 1_000, 7);
        assert_eq!(a, b);
        let live = fold(&a);
        // The block survives untouched.
        for u in 0..8u32 {
            for v in 8..17u32 {
                assert!(live.contains(&(u, v)), "block edge {u}->{v} missing");
            }
        }
        // Timestamps strictly increase.
        assert!(a.windows(2).all(|w| w[0].time < w[1].time));
    }

    #[test]
    fn sliding_window_bounds_live_edges() {
        let events = sliding_window(50, 120, 2_000, 3);
        let mut live = 0usize;
        let mut max_live = 0usize;
        for ev in &events {
            match ev.event {
                Event::Insert(..) => live += 1,
                Event::Delete(..) => live -= 1,
            }
            max_live = max_live.max(live);
        }
        assert!(max_live <= 120, "window overflow: {max_live}");
        fold(&events); // consistency: no double inserts / phantom deletes
        assert_eq!(events, sliding_window(50, 120, 2_000, 3));
    }

    #[test]
    fn emerge_delivers_the_full_block() {
        let events = planted_emerge(80, 150, (6, 7), 1_500, 11);
        let live = fold(&events);
        for u in 0..6u32 {
            for v in 6..13u32 {
                assert!(live.contains(&(u, v)), "block edge {u}->{v} missing");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-block vertex pairs")]
    fn churn_rejects_infeasible_background() {
        let _ = churn(70, 100_000, (32, 32), 10, 0);
    }

    #[test]
    #[should_panic(expected = "vertex pairs")]
    fn window_rejects_infeasible_window() {
        let _ = sliding_window(10, 2_500, 10, 0);
    }

    #[test]
    #[should_panic(expected = "too short for the")]
    fn emerge_rejects_short_middle_third() {
        let _ = planted_emerge(500, 100, (32, 32), 1_000, 0);
    }

    #[test]
    fn arrivals_are_deterministic_inserts_with_unit_ticks() {
        let a = arrivals(40, 500, 9);
        assert_eq!(a, arrivals(40, 500, 9));
        assert_eq!(a.len(), 500);
        for (i, ev) in a.iter().enumerate() {
            assert_eq!(ev.time, i as u64, "one tick per event");
            match ev.event {
                Event::Insert(u, v) => assert_ne!(u, v),
                Event::Delete(..) => panic!("arrival streams carry no deletes"),
            }
        }
    }

    #[test]
    fn recurring_block_redelivers_every_period() {
        let (s, t, period) = (3usize, 4usize, 50usize);
        let events = recurring_block(30, (s, t), period, 160, 2);
        assert_eq!(events.len(), 160);
        // Each full period starts with the complete block, in order.
        for start in [0usize, 50, 100] {
            for k in 0..s * t {
                let Event::Insert(u, v) = events[start + k].event else {
                    panic!("block tick must be an insert");
                };
                assert_eq!((u as usize, v as usize), (k / t, s + k % t));
            }
        }
        // Background ticks never touch the block.
        for ev in &events {
            let Event::Insert(u, v) = ev.event else {
                continue;
            };
            if ev.time as usize % period >= s * t {
                let in_block = (u as usize) < s && (v as usize) >= s && (v as usize) < s + t;
                assert!(!in_block, "background tick {} hit the block", ev.time);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shorter than the")]
    fn recurring_block_rejects_short_periods() {
        let _ = recurring_block(30, (5, 5), 10, 100, 0);
    }
}
