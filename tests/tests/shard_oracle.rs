//! The differential oracle harness for the sharded engine (the ISSUE-5
//! headline tests): replay random dirty insert/delete streams — dups,
//! self-loops, absent deletes included — through a K-sharded engine and
//! check, at every epoch, the two claims the whole subsystem rests on:
//!
//! * **union soundness** — the merge of the shard sketches (union of
//!   retained sets, bumped to a common level) is *identical* to a single
//!   [`SketchEngine`] fed the same applied mutations at the same seed,
//!   once both sit at the same level: same retained set, same exact
//!   counters, same degree maxima. Deterministic nested admission is what
//!   makes this an equality, not an approximation;
//! * **certified bracket validity** — the sharded engine's merged bracket
//!   contains a fresh [`DcExact`] solve of the full graph, and its edge
//!   set never drifts from a canonical [`DynamicGraph`] mirror.
//!
//! Plus the restart claim: snapshot → restore → replay is **equivalent**
//! — bit-identical, epoch by epoch, for the sharded engine (whose merged
//! refreshes are history-independent by design), and edge-set/bracket
//! equivalent for the stream engine (strict for `CoreApprox` re-solves,
//! which use no warm state; soundness-only for `Exact`, whose warm
//! context is a perf cache that may pick a different optimal pair).

use dds_core::DcExact;
use dds_shard::{ShardConfig, ShardedEngine};
use dds_sketch::{SketchConfig, SketchEngine};
use dds_stream::{Batch, DynamicGraph, Event, SolverKind, StreamConfig, StreamEngine, TimedEvent};
use proptest::prelude::*;

/// Random dirty event streams over ≤ `max_n` vertices: mostly inserts,
/// some deletes, duplicates, self-loops, and absent-deletes included (the
/// sharded engine dedupes per shard — that is the contract under test).
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

/// Drives a sharded engine and a single-sketch-behind-a-mirror twin
/// through the same stream, checking union soundness and bracket
/// validity at every epoch.
fn check_sharded_epochs(
    stream: &[TimedEvent],
    batch_size: usize,
    shards: usize,
    bound: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let sketch_config = SketchConfig {
        state_bound: bound,
        seed,
        ..SketchConfig::default()
    };
    let mut engine = ShardedEngine::new(ShardConfig {
        shards,
        sketch: sketch_config,
        ..ShardConfig::default()
    });
    let mut mirror = DynamicGraph::new();
    let mut single = SketchEngine::new(sketch_config);
    for chunk in stream.chunks(batch_size) {
        for ev in chunk {
            match ev.event {
                Event::Insert(u, v) => {
                    if mirror.insert(u, v) {
                        single.insert(u, v);
                    }
                }
                Event::Delete(u, v) => {
                    if mirror.delete(u, v) {
                        single.delete(u, v);
                    }
                }
            }
        }
        let report = engine.apply(&Batch::from_events(chunk.to_vec()));

        // Edge set and counters agree with the canonical mirror.
        prop_assert_eq!(report.m as usize, mirror.m(), "m drifted from mirror");
        prop_assert_eq!(report.n, mirror.n(), "n drifted from mirror");
        let full = mirror.materialize();
        let mut ours: Vec<_> = engine.edges().collect();
        let mut theirs: Vec<_> = mirror.edges().collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        prop_assert_eq!(ours, theirs, "edge partition lost or invented edges");

        // Union soundness: merge the shard sketches, bring the single
        // engine to the same level (admission is nested, so raising is the
        // only sound direction), and demand identity.
        let parts = engine.shard_sketches();
        let mut merged = SketchEngine::merged(sketch_config, &parts);
        let level = merged.level().max(single.level());
        merged.raise_to_level(level);
        // The single engine is the *live* twin — raise a clone, not it,
        // so its own level trajectory stays undisturbed across epochs.
        let single_at = SketchEngine::restore_at(sketch_config, level, mirror.edges());
        prop_assert_eq!(merged.m(), single_at.m(), "merged m must sum");
        let (mo, mi) = merged.degree_trackers();
        let (so, si) = single_at.degree_trackers();
        prop_assert_eq!((mo.max(), mi.max()), (so.max(), si.max()), "degree maxima");
        let mut a: Vec<_> = merged.retained_edges().collect();
        let mut b: Vec<_> = single_at.retained_edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "merged retained set diverged at level {}", level);
        // Sanity of the comparison itself: the *live* single engine must
        // equal its own pure-function twin at its own level — i.e. the
        // retained set really is a function of (seed, level, edges).
        let twin = SketchEngine::restore_at(sketch_config, single.level(), mirror.edges());
        let mut live: Vec<_> = single.retained_edges().collect();
        let mut pure: Vec<_> = twin.retained_edges().collect();
        live.sort_unstable();
        pure.sort_unstable();
        prop_assert_eq!(live, pure, "live single vs restore_at twin");

        // Certified bracket contains the true optimum, every epoch.
        let exact = DcExact::new().solve(&full).solution.density;
        prop_assert!(
            report.density <= exact,
            "epoch {}: lower {} exceeds exact {}",
            report.epoch,
            report.density,
            exact
        );
        prop_assert!(
            exact.to_f64() <= report.upper * (1.0 + 1e-9),
            "epoch {}: upper {} below exact {}",
            report.epoch,
            report.upper,
            exact
        );
        prop_assert!(report.lower <= report.upper * (1.0 + 1e-9));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline differential: K-sharded = single-engine, at every
    /// epoch, under dirty streams and tight bounds (levels engage).
    #[test]
    fn merged_shards_equal_the_single_engine_and_bracket_exact(
        stream in events(8, 44),
        batch_size in 1usize..6,
        shards in 2usize..5,
        bound in 3usize..16,
        seed in 0u64..64,
    ) {
        check_sharded_epochs(&stream, batch_size, shards, bound, seed)?;
    }

    /// Roomy bounds: no subsampling, the merged sample IS the graph, and
    /// the merged refresh must behave like an exact engine.
    #[test]
    fn roomy_sharded_engines_stay_exact(
        stream in events(7, 36),
        batch_size in 1usize..5,
        shards in 2usize..4,
    ) {
        check_sharded_epochs(&stream, batch_size, shards, 10_000, 0xDD5)?;
    }

    /// Kill/restore equivalence for the sharded engine: snapshot at a
    /// random batch boundary, restore, and the two trajectories must be
    /// bit-identical to the end of the stream.
    #[test]
    fn sharded_snapshot_restore_replay_is_bit_identical(
        stream in events(8, 40),
        batch_size in 1usize..6,
        shards in 1usize..4,
        split in 0usize..8,
    ) {
        let config = ShardConfig {
            shards,
            sketch: SketchConfig { state_bound: 12, ..SketchConfig::default() },
            ..ShardConfig::default()
        };
        let batches: Vec<&[TimedEvent]> = stream.chunks(batch_size).collect();
        let cut = split.min(batches.len());
        let mut original = ShardedEngine::new(config);
        for chunk in &batches[..cut] {
            original.apply(&Batch::from_events(chunk.to_vec()));
        }
        let snap = original.snapshot(42);
        let (mut restored, cursor) = ShardedEngine::restore(config, &snap)
            .expect("restore must succeed");
        prop_assert_eq!(cursor, 42);
        prop_assert_eq!(restored.snapshot(42), snap, "round-trip identity");
        for chunk in &batches[cut..] {
            let a = original.apply(&Batch::from_events(chunk.to_vec()));
            let b = restored.apply(&Batch::from_events(chunk.to_vec()));
            prop_assert_eq!(a.m, b.m, "epoch {}", a.epoch);
            prop_assert_eq!(a.refreshed, b.refreshed, "epoch {}", a.epoch);
            prop_assert_eq!(a.density, b.density, "epoch {}", a.epoch);
            prop_assert_eq!(a.lower.to_bits(), b.lower.to_bits(), "epoch {}", a.epoch);
            prop_assert_eq!(a.upper.to_bits(), b.upper.to_bits(), "epoch {}", a.epoch);
        }
        prop_assert_eq!(original.snapshot(0), restored.snapshot(0), "end states");
    }

    /// Kill/restore equivalence for the stream engine with `CoreApprox`
    /// re-solves (no warm-context state): strictly identical trajectories.
    #[test]
    fn stream_snapshot_restore_replay_matches_with_core_approx(
        stream in events(8, 40),
        batch_size in 1usize..6,
        split in 0usize..8,
    ) {
        let config = StreamConfig {
            tolerance: 0.25,
            slack: 1.0,
            solver: SolverKind::CoreApprox,
            ..Default::default()
        };
        let batches: Vec<&[TimedEvent]> = stream.chunks(batch_size).collect();
        let cut = split.min(batches.len());
        let mut original = StreamEngine::new(config);
        for chunk in &batches[..cut] {
            original.apply(&Batch::from_events(chunk.to_vec()));
        }
        let snap = original.snapshot(0);
        let (mut restored, _) = StreamEngine::restore(config, &snap)
            .expect("restore must succeed");
        prop_assert_eq!(restored.snapshot(0), snap, "round-trip identity");
        for chunk in &batches[cut..] {
            let a = original.apply(&Batch::from_events(chunk.to_vec()));
            let b = restored.apply(&Batch::from_events(chunk.to_vec()));
            prop_assert_eq!(a.m, b.m, "epoch {}", a.epoch);
            prop_assert_eq!(a.resolved, b.resolved, "epoch {}", a.epoch);
            prop_assert_eq!(a.density, b.density, "epoch {}", a.epoch);
            prop_assert_eq!(a.lower.to_bits(), b.lower.to_bits(), "epoch {}", a.epoch);
            prop_assert_eq!(a.upper.to_bits(), b.upper.to_bits(), "epoch {}", a.epoch);
        }
        prop_assert_eq!(original.snapshot(0), restored.snapshot(0), "end states");
    }

    /// Kill/restore for the exact stream engine: the warm context is perf
    /// state, so the restored engine may pick a different optimal pair at
    /// a later re-solve — but the edge set must match exactly and both
    /// brackets must keep containing the true optimum.
    #[test]
    fn stream_snapshot_restore_replay_stays_sound_with_exact(
        stream in events(7, 32),
        batch_size in 1usize..5,
        split in 0usize..6,
    ) {
        let config = StreamConfig::default();
        let batches: Vec<&[TimedEvent]> = stream.chunks(batch_size).collect();
        let cut = split.min(batches.len());
        let mut original = StreamEngine::new(config);
        for chunk in &batches[..cut] {
            original.apply(&Batch::from_events(chunk.to_vec()));
        }
        let snap = original.snapshot(0);
        let (mut restored, _) = StreamEngine::restore(config, &snap)
            .expect("restore must succeed");
        prop_assert_eq!(restored.snapshot(0), snap, "round-trip identity");
        for chunk in &batches[cut..] {
            let a = original.apply(&Batch::from_events(chunk.to_vec()));
            let b = restored.apply(&Batch::from_events(chunk.to_vec()));
            prop_assert_eq!(a.m, b.m, "epoch {}", a.epoch);
            let exact = DcExact::new().solve(&restored.materialize()).solution.density;
            for (tag, r) in [("original", &a), ("restored", &b)] {
                prop_assert!(
                    r.density <= exact,
                    "{} epoch {}: lower above exact",
                    tag,
                    r.epoch
                );
                prop_assert!(
                    exact.to_f64() <= r.upper * (1.0 + 1e-9),
                    "{} epoch {}: upper {} below exact {}",
                    tag,
                    r.epoch,
                    r.upper,
                    exact
                );
            }
        }
        let mut ea: Vec<_> = original.materialize().edges().collect();
        let mut eb: Vec<_> = restored.materialize().edges().collect();
        ea.sort_unstable();
        eb.sort_unstable();
        prop_assert_eq!(ea, eb, "final edge sets must match");
    }
}
