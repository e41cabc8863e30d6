//! The differential oracle harness for the sketch tier: replay random
//! insert/delete streams on small graphs — canonicalised through a full
//! [`DynamicGraph`] mirror, exactly how the engines feed their embedded
//! sketches, and refreshed under the shared [`refresh_due`] drift rule the
//! pooled tiers run — and check at **every** epoch that
//!
//! * the sketch's certified bracket contains a fresh [`DcExact`] solve of
//!   the full graph: `lower ≤ ρ_opt ≤ upper`;
//! * the retained edge count never exceeds the configured state bound;
//! * the retained subgraph really is a subgraph of the full graph, and
//!   the sketch's exact `m`/`n` counters agree with the mirror;
//! * at subsampling level 0 a refreshed epoch is *exact* (the sketch IS
//!   the graph, so exact-on-sketch must land on the optimum).
//!
//! Small state bounds are part of the strategy space, so the subsampler
//! engages even on these tiny graphs — the oracle exercises level bumps,
//! witness decay, and refunds, not just the trivial level-0 regime.

use dds_core::DcExact;
use dds_sketch::certify::refresh_due;
use dds_sketch::{SketchConfig, SketchEngine};
use dds_stream::{DynamicGraph, Event, TimedEvent};
use proptest::prelude::*;

/// Random event streams over ≤ `max_n` vertices: mostly inserts, some
/// deletes, duplicates and absent-deletes included (the mirror dedupes —
/// that is the point of the canonicalisation contract).
fn events(max_n: u32, len: usize) -> impl Strategy<Value = Vec<TimedEvent>> {
    prop::collection::vec((0u32..4, 0u32..max_n, 0u32..max_n), 1..len).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (op, u, v))| TimedEvent {
                time: i as u64,
                event: if op < 3 {
                    Event::Insert(u, v)
                } else {
                    Event::Delete(u, v)
                },
            })
            .collect()
    })
}

/// The refresh drift of the subsampled case (the pooled tiers' default).
const DRIFT: f64 = 0.25;
/// The roomy case refreshes after 5% of its sample churns.
const ROOMY_DRIFT: f64 = 0.05;

fn check_epochs(
    stream: &[TimedEvent],
    batch_size: usize,
    config: SketchConfig,
    drift: f64,
) -> Result<(), TestCaseError> {
    let mut mirror = DynamicGraph::new();
    let mut sketch = SketchEngine::new(config);
    for (i, chunk) in stream.chunks(batch_size).enumerate() {
        let epoch = i + 1;
        for ev in chunk {
            match ev.event {
                Event::Insert(u, v) => {
                    if mirror.insert(u, v) {
                        sketch.insert(u, v);
                    }
                }
                Event::Delete(u, v) => {
                    if mirror.delete(u, v) {
                        sketch.delete(u, v);
                    }
                }
            }
        }
        let refreshed = refresh_due(
            sketch.retained(),
            sketch.witness_density().is_zero(),
            sketch.sample_mutations(),
            drift,
        );
        let solve_stats = if refreshed {
            sketch.force_refresh()
        } else {
            None
        };
        let (retained, level) = (sketch.retained(), sketch.level());
        let density = sketch.witness_density();
        let (lower, upper) = (density.to_f64(), sketch.certified_upper());

        // 1. State bound compliance, every epoch.
        prop_assert!(
            retained <= config.state_bound,
            "epoch {}: retained {} > bound {}",
            epoch,
            retained,
            config.state_bound
        );

        // 2. Counters agree with the mirror; the retained subgraph is a
        //    genuine subgraph.
        let full = mirror.materialize();
        prop_assert_eq!(sketch.m() as usize, mirror.m(), "m counter drifted");
        let h = sketch.materialize();
        prop_assert_eq!(h.m(), retained);
        for (u, v) in h.edges() {
            prop_assert!(
                full.has_edge(u, v),
                "epoch {}: retained edge {} -> {} not in the graph",
                epoch,
                u,
                v
            );
        }

        // 3. The certified bracket contains the true optimum.
        let exact = DcExact::new().solve(&full).solution.density;
        prop_assert!(
            density <= exact,
            "epoch {}: lower {} exceeds exact {}",
            epoch,
            density,
            exact
        );
        prop_assert!(
            exact.to_f64() <= upper * (1.0 + 1e-9),
            "epoch {}: upper {} below exact {}",
            epoch,
            upper,
            exact
        );

        // 4. An unsampled sketch whose refresh escalated to exact-on-sketch
        //    must land exactly on the optimum (H = G at level 0). A
        //    core-sweep-only refresh only owes its ½-guarantee.
        if refreshed && level == 0 {
            prop_assert!(
                2.0 * lower * (1.0 + 1e-9) >= exact.to_f64(),
                "epoch {}: level-0 refresh broke the sweep guarantee",
                epoch
            );
            if solve_stats.is_some() {
                prop_assert_eq!(
                    density,
                    exact,
                    "epoch {}: escalated level-0 refresh missed the optimum",
                    epoch
                );
            }
        }

        // 5. The bracket is internally consistent.
        prop_assert!(lower <= upper * (1.0 + 1e-9));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tight state bounds: the subsampler engages on tiny graphs, and the
    /// bracket must survive level bumps and witness decay.
    #[test]
    fn sketch_bracket_contains_exact_under_subsampling(
        stream in events(8, 48),
        batch_size in 1usize..6,
        bound in 3usize..16,
        seed in 0u64..64,
    ) {
        check_epochs(&stream, batch_size, SketchConfig {
            state_bound: bound,
            seed,
            ..SketchConfig::default()
        }, DRIFT)?;
    }

    /// Roomy bounds: the sketch should stay at level 0 and behave as an
    /// exact (if lazily refreshed) engine.
    #[test]
    fn roomy_sketches_stay_exact(
        stream in events(7, 40),
        batch_size in 1usize..5,
    ) {
        check_epochs(&stream, batch_size, SketchConfig {
            state_bound: 10_000,
            ..SketchConfig::default()
        }, ROOMY_DRIFT)?;
    }

    /// The embedded form: a `StreamEngine` whose every re-solve goes
    /// through the sketch tier must still bracket a fresh exact solve at
    /// every epoch (its lower bound is the sketched witness recounted on
    /// the full graph).
    #[test]
    fn sketch_tier_stream_engine_brackets_exact(
        stream in events(8, 40),
        batch_size in 1usize..5,
        bound in 4usize..16,
    ) {
        use dds_stream::{Batch, SketchTier, StreamConfig, StreamEngine};
        let mut engine = StreamEngine::new(StreamConfig {
            tolerance: 0.25,
            slack: 1.0,
            sketch: Some(SketchTier {
                min_m: 0,
                config: SketchConfig { state_bound: bound, ..SketchConfig::default() },
            }),
            ..Default::default()
        });
        for chunk in stream.chunks(batch_size) {
            let report = engine.apply(&Batch::from_events(chunk.to_vec()));
            let exact = DcExact::new().solve(&engine.materialize()).solution.density;
            prop_assert!(report.density <= exact, "epoch {}: lower above exact", report.epoch);
            prop_assert!(
                exact.to_f64() <= report.upper * (1.0 + 1e-9),
                "epoch {}: upper {} below exact {}",
                report.epoch,
                report.upper,
                exact
            );
            if let Some(stats) = report.sketch {
                prop_assert!(stats.retained <= bound);
            }
        }
        prop_assert_eq!(engine.sketch_resolves(), engine.resolves());
    }
}
