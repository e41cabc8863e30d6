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
//! # The certified bracket, and what is only estimated
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
//! Between them sits the **estimate** `ρ̂ = ρ_H(S,T) · 2^ℓ`, which carries
//! a Chernoff-style loss factor `(1 + ε)` with
//! `ε = √(3·ln(2/δ) / k)` (`k` = the witness's retained edge count): each
//! of the pair's `G`-edges was retained independently with probability
//! `2⁻ℓ`, so the scaled count concentrates within `1 ± ε` of
//! `E_G(S,T)` with probability `≥ 1 − δ` (`δ = 0.01`, a constant of the
//! engine). The estimate is what you report on dashboards; the bracket is
//! what you certify.
//!
//! # Ingestion contract
//!
//! [`SketchEngine::insert`]/[`SketchEngine::delete`] expect **applied**
//! mutations (strict turnstile): no duplicate insert of a live edge, no
//! delete of an absent one. A sublinear sketch cannot dedupe — edge
//! identity is the upstream engine's job (`dds-stream`'s `DynamicGraph`
//! forwards exactly the applied mutations; the `dds sketch` CLI mirrors
//! the stream for the same reason). Violations that drive a counter below
//! zero panic in the degree trackers; others (a duplicate insert, a
//! delete of the wrong live edge) skew the exact counters — and thereby
//! the certified upper bound — undetectably, which is why the contract is
//! on the caller and not on runtime checks a sublinear sketch cannot
//! afford.
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
//! let report = sketch.seal_epoch();
//! // Nothing has been subsampled yet, so the sketch is exact: the
//! // certified bracket collapses onto K_{2,2}'s optimum ρ = 2.
//! assert_eq!(report.level, 0);
//! assert_eq!(report.lower, 2.0);
//! assert!(report.upper >= 2.0);
//! assert_eq!(report.estimate, 2.0);
//! ```

#![warn(missing_docs)]

pub mod certify;
mod engine;
mod maxtrack;
mod sample;

pub use engine::{SketchConfig, SketchEngine, SketchReport, SketchStats};
pub use maxtrack::MaxTracker;
