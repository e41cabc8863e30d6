//! One edge partition: the slice rule shared by [`crate::ShardedEngine`]'s
//! in-process shards and the `dds-cluster` worker processes.

use std::collections::HashSet;

use dds_graph::VertexId;
use dds_obs::Registry;
use dds_sketch::{SketchConfig, SketchEngine};
use dds_stream::snapshot::SnapshotError;
use dds_stream::Event;

/// Per-batch tallies of one partition's slice.
#[derive(Clone, Copy, Debug, Default)]
pub struct SliceTallies {
    /// Events routed to the partition, including no-ops.
    pub events: u64,
    /// Applied insertions.
    pub inserts: u64,
    /// Applied deletions.
    pub deletes: u64,
    /// No-ops (self-loops, duplicate inserts, absent deletes).
    pub ignored: u64,
}

/// One edge partition: the authoritative edge set (turnstile dedup, the
/// sample's rebuild source, snapshot payload), the sketch over it, and
/// the vertex count of the ids its events mentioned.
#[derive(Debug)]
pub struct Partition {
    edges: HashSet<(VertexId, VertexId)>,
    sketch: SketchEngine,
    n: usize,
}

impl Partition {
    /// An empty partition.
    #[must_use]
    pub fn new(config: SketchConfig) -> Self {
        Partition {
            edges: HashSet::new(),
            sketch: SketchEngine::new(config),
            n: 0,
        }
    }

    /// Applies one batch's slice with the stream semantics: ids register
    /// even for no-op inserts (like `DynamicGraph`), self-loops, duplicate
    /// inserts and absent deletes are ignored, and each applied mutation
    /// reaches the sketch and then `applied`. A partition that shrank far
    /// below its peak leaves its sample over-thinned, so the slice ends
    /// with one undersample check, rebuilding the sketch from the
    /// partition it owns.
    pub fn apply<'a, I, F>(&mut self, events: I, mut applied: F) -> SliceTallies
    where
        I: IntoIterator<Item = &'a Event>,
        F: FnMut(&Event),
    {
        let mut t = SliceTallies::default();
        for ev in events {
            t.events += 1;
            let done = match *ev {
                Event::Insert(u, v) => {
                    self.n = self.n.max(u as usize + 1).max(v as usize + 1);
                    let fresh = u != v && self.edges.insert((u, v));
                    if fresh {
                        self.sketch.insert(u, v);
                        t.inserts += 1;
                    }
                    fresh
                }
                Event::Delete(u, v) => {
                    let gone = self.edges.remove(&(u, v));
                    if gone {
                        self.sketch.delete(u, v);
                        t.deletes += 1;
                    }
                    gone
                }
            };
            if done {
                applied(ev);
            } else {
                t.ignored += 1;
            }
        }
        if self.sketch.is_undersampled() {
            self.sketch.rebuild(self.edges.iter().copied());
        }
        t
    }

    /// Rebuilds a partition from checkpoint state: its edges, the stored
    /// vertex count, the sketch level and drift counter. The retained
    /// sample is a pure function of `(seed, level, edges)`.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] for an edge beyond `n`, a
    /// self-loop, or a duplicate edge.
    pub fn restore(
        config: SketchConfig,
        n: usize,
        level: u32,
        mutations: u64,
        edges: Vec<(VertexId, VertexId)>,
    ) -> Result<Self, SnapshotError> {
        let bad = |msg: String| Err(SnapshotError::Format(msg));
        let mut set = HashSet::with_capacity(edges.len());
        for &(u, v) in &edges {
            if u.max(v) as usize >= n {
                return bad(format!(
                    "edge ({u}, {v}) is beyond the stored vertex count {n}"
                ));
            }
            if u == v {
                return bad(format!("self-loop ({u}, {v})"));
            }
            if !set.insert((u, v)) {
                return bad(format!("duplicate edge ({u}, {v})"));
            }
        }
        let mut sketch = SketchEngine::restore_at(config, level, edges);
        sketch.set_sample_mutations(mutations);
        Ok(Partition {
            edges: set,
            sketch,
            n,
        })
    }

    /// Re-homes the sketch's counters in `registry`.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.sketch.attach_obs(registry);
    }

    /// Zeroes the sketch's drift counter after a merged refresh.
    pub fn reset_drift(&mut self) {
        self.sketch.set_sample_mutations(0);
    }

    /// The sketch over this partition.
    #[must_use]
    pub fn sketch(&self) -> &SketchEngine {
        &self.sketch
    }

    /// Iterates the partition's live edges (arbitrary order).
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.edges.iter().copied()
    }

    /// Live edge count.
    #[must_use]
    pub fn m(&self) -> u64 {
        self.edges.len() as u64
    }

    /// One past the largest vertex id the partition's events mentioned.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_dedups_and_reports_each_applied_mutation() {
        let mut part = Partition::new(SketchConfig::default());
        let events = [
            Event::Insert(0, 1),
            Event::Insert(0, 1),
            Event::Insert(2, 2),
            Event::Delete(5, 6),
            Event::Insert(1, 3),
            Event::Delete(0, 1),
        ];
        let mut applied = Vec::new();
        let t = part.apply(&events, |ev| applied.push(*ev));
        assert_eq!((t.events, t.inserts, t.deletes, t.ignored), (6, 2, 1, 3));
        assert_eq!(
            applied,
            [
                Event::Insert(0, 1),
                Event::Insert(1, 3),
                Event::Delete(0, 1)
            ]
        );
        assert_eq!(part.edges().collect::<Vec<_>>(), [(1, 3)]);
        assert_eq!((part.m(), part.sketch().m()), (1, 1));
        assert_eq!(part.n(), 4, "no-op inserts register ids, deletes do not");
    }

    #[test]
    fn restore_rebuilds_and_rejects_corrupt_edges() {
        let config = SketchConfig::default();
        let part = Partition::restore(config, 5, 0, 7, vec![(0, 1), (2, 4)]).unwrap();
        assert_eq!((part.m(), part.n(), part.sketch().retained()), (2, 5, 2));
        assert_eq!(part.sketch().sample_mutations(), 7);
        for (edges, msg) in [
            (vec![(0, 5)], "beyond the stored vertex count 5"),
            (vec![(3, 3)], "self-loop"),
            (vec![(0, 1), (0, 1)], "duplicate edge"),
        ] {
            let err = Partition::restore(config, 5, 0, 0, edges).unwrap_err();
            assert!(err.to_string().contains(msg), "{err}");
        }
    }
}
