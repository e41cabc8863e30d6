//! Sublinear-state sketching for directed densest-subgraph maintenance —
//! the **approximation-first tier** between the exact pipeline
//! (`dds-core`) and the stream engines (`dds-stream`).
//!
//! # Why a third tier
//!
//! The lazy re-solve engine certifies with exact solves; the window-native
//! engine certifies with `O(√m·(n+m))` max-product core sweeps. Both
//! assume one full pass over the edge set is affordable whenever the band
//! breaks. Past some `m` it is not — and that is the regime this crate
//! targets, in the style of Mitrović–Pan (*Faster Streaming and Scalable
//! Algorithms for Finding Directed Dense Subgraphs in Large Graphs*): keep
//! a **uniformly subsampled** summary of the edge set whose size never
//! exceeds a configured bound, and answer density queries from the summary
//! alone.
//!
//! # The sketch
//!
//! [`SketchEngine`] retains the edges admitted by a deterministic seeded
//! hash at the current **subsampling level** `ℓ` (admission probability
//! `2⁻ℓ`). When the retained set outgrows [`SketchConfig::state_bound`],
//! the level increments — doubling the sampling rate's inverse, the
//! McGregor-style L0-sampling discipline — and the retained set is
//! re-filtered in place (admission sets are nested across levels, so a
//! level bump only ever *drops* edges). Alongside the sample the engine
//! keeps `O(n)` exact counters: the live edge count and the exact degree
//! maxima (count-of-counts [`MaxTracker`]s), which cost `O(1)` per event
//! and power the unconditional upper bound.
//!
//! Total state: `O(n + state_bound)` — sublinear in `m` whenever it
//! matters.
//!
//! The certification rule itself — witness tracker, structural bound,
//! factor rule, drift trigger, merged refresh — lives in [`certify`], the
//! one copy every tier above this crate calls.
//!
//! # The certified bracket
//!
//! Let `H ⊆ G` be the retained subgraph. Two bounds hold **always**,
//! deterministically:
//!
//! * **lower** — the sketched witness: a refresh runs the max-product core
//!   sweep **of `H`** (`O(√m_H·(n+m_H))`, bounded by the state bound — the
//!   cheap tier this crate exists for) and escalates to a full
//!   [`dds_core`] **exact-on-sketch** solve when the sweep's own bracket
//!   on `ρ_opt(H)` is wider than [`SketchConfig::escalate_factor`]. Either
//!   way the winning pair's `H`-density is maintained per event
//!   afterwards, and every retained edge is a real edge of `G`, so
//!   `ρ_H(S,T) ≤ ρ_G(S,T) ≤ ρ_opt(G)`.
//! * **upper** — `min(√m, √(d⁺_max · d⁻_max))` over the *exact* counters.
//!
//! The sketch reports this bracket and no estimate. The embedding
//! engines recount the witness pair on the full graph, so the lower bound
//! they report is the pair's true density, at least its `H`-density.
//!
//! # Who refreshes
//!
//! The sketch has no refresh policy of its own. Its embedding engine
//! calls [`SketchEngine::force_refresh`] when *its* rule fires: the
//! certification band of `dds-stream`'s engines (the `SketchTier` knob,
//! which `dds stream --sketch` and `dds sketch` drive), or the pooled
//! [`certify::refresh_due`] drift rule of `dds-shard` and `dds-cluster`
//! over the summed [`SketchEngine::sample_mutations`].
//!
//! # Ingestion contract
//!
//! [`SketchEngine::insert`]/[`SketchEngine::delete`] expect **applied**
//! mutations (strict turnstile): no duplicate insert of a live edge, no
//! delete of an absent one. A sublinear sketch cannot dedupe — edge
//! identity is the upstream engine's job (`dds-stream`'s `DynamicGraph`
//! and `dds-shard`'s `Partition` forward exactly the applied mutations).
//! Violations that drive a counter below zero panic in the degree
//! trackers; others (a duplicate insert, a delete of the wrong live edge)
//! skew the exact counters — and thereby the certified upper bound —
//! undetectably, which is why the contract is on the caller and not on
//! runtime checks a sublinear sketch cannot afford.
//!
//! # Example
//!
//! ```
//! use dds_sketch::{SketchConfig, SketchEngine};
//!
//! let mut sketch = SketchEngine::new(SketchConfig::default());
//! for (u, v) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
//!     sketch.insert(u, v);
//! }
//! sketch.force_refresh();
//! // Nothing has been subsampled yet, so the sketch is exact: the
//! // certified bracket collapses onto K_{2,2}'s optimum ρ = 2.
//! assert_eq!(sketch.level(), 0);
//! assert_eq!(sketch.witness_density().to_f64(), 2.0);
//! assert!(sketch.certified_upper() >= 2.0);
//! ```

#![warn(missing_docs)]

pub mod certify;
mod engine;
mod maxtrack;
mod sample;

pub use engine::{SketchConfig, SketchEngine, SketchStats};
pub use maxtrack::MaxTracker;
