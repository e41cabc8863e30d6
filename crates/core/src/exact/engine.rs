//! The exact-search driver: ratio-space traversal with pruning.
//!
//! Both exact solvers share one engine differing only in options:
//!
//! * [`FlowExact`] — the Khuller–Saha/Charikar-style baseline: solve
//!   **every** reduced ratio `a/b` (`a, b ≤ n`, `Θ(n²)` of them) by the
//!   flow-based per-ratio search. Correct because any optimum has such a
//!   ratio, and the per-ratio optimum at the true ratio *is* `ρ_opt`.
//! * [`DcExact`] — the paper's contribution: walk the Stern–Brocot tree of
//!   ratios (mediant-first), and prune whole subtrees with three devices:
//!
//!   1. **structural band** — a pair with ratio `c'` has
//!      `ρ ≤ min(d⁺max·√c', d⁻max/√c')` (each side's edges are bounded by
//!      its size times the opposite max degree), so no ratio outside
//!      `[ρ̃²/d⁺max², d⁻max²/ρ̃²]` can beat the best density ρ̃; intervals
//!      entirely outside are discarded with an exact rational comparison;
//!   2. **γ transfer certificates** — a per-ratio certificate
//!      "`β*(c₀) ≤ u`" implies, for every pair of ratio `c'`,
//!      `ρ ≤ (u/√(a₀b₀))·γ(c₀, c')` with
//!      `γ(c, c') = (√(c'/c) + √(c/c'))/2`, a bound that stays below ρ̃ on
//!      a closed range of ratios around `c₀`. The band's two sides and
//!      every certificate's range act as one union of **dead zones**
//!      ([`DeadZones`], `f64` with safety margins): an interval the union
//!      covers is pruned even when no single zone covers it, and an
//!      interval it leaves open is split at a live ratio. A certificate
//!      that *ties* the incumbent adds no zone; an **exact integer
//!      comparison** decides it instead, so intervals that cannot
//!      *strictly* beat the incumbent are discarded too (see
//!      [`ExactOptions::tie_pruning`]; without it, the tree spine adjacent
//!      to the optimum's own ratio ties forever and `Θ(n)` hopeless ratios
//!      get solved);
//!   3. **seeds and cores** — each per-ratio search is Newton's iteration
//!      from the best β-value over the incumbent and the maximisers of the
//!      interval's two solved endpoints, carried on the queued interval,
//!      and runs its flows on `[⌈β/2a⌉, ⌈β/2b⌉]`-cores (see `per_ratio`).
//!      Neighbouring ratios usually share a maximiser, so most solved
//!      ratios cost the single min cut that certifies the seed.
//!
//!   A warm start from [`core_approx`] seeds the best density at
//!   `≥ ρ_opt/2` before any flow runs; a reused [`SolveContext`] seeds it
//!   at the previous solve's witness, which on a lightly mutated graph is
//!   usually the optimum itself.
//!
//! # The work queue and the incumbent
//!
//! The traversal is organised as a queue of ratio intervals consumed by
//! `threads` workers (one worker = the serial engine; the queue order then
//! matches the classic breadth-first walk). All workers share:
//!
//! * the **incumbent** — best pair + exact density, under a mutex, with its
//!   `f64` image additionally published through an atomic, so the dead
//!   zones follow a sibling's improvement at once;
//! * the **certificate list** — one entry per solved ratio (RwLock); the
//!   maximisers that seed the per-ratio searches ride on the queued
//!   intervals instead, so they are dropped with the subtree that needs
//!   them;
//! * per-worker [`FlowArena`]s and the context's memoised core table, so
//!   flow networks and `[x, y]`-core peels are recycled rather than
//!   rebuilt.
//!
//! Subtree pruning is lossless for enumeration: every reduced ratio
//! strictly inside an interval is a Stern–Brocot descendant of the
//! *simplest* ratio inside it, and descent only grows both components, so
//! "simplest exceeds `n`" certifies the interval holds no candidate. The
//! solved ratio itself may be chosen anywhere inside the interval, because
//! the two child intervals still cover everything else. By default it is
//! the simplest, jumped into the structural density band when that clips
//! the interval (see [`choose_test_ratio`]); with γ-pruning on, a choice
//! that a dead zone holds moves to the simplest ratio of the first live
//! gap, so the search never pays a flow for a ratio its certificates
//! already rule out.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use dds_flow::FlowArena;
use dds_graph::{DiGraph, Pair};
use dds_num::{candidate_ratios, cmp_prod3, simplest_between, Density, Frac, Ratio};
use dds_xycore::CoreCache;

use crate::approx::core_approx;
use crate::exact::context::SolveContext;
use crate::exact::per_ratio::{solve_ratio, RatioResources};
use crate::pool::WorkerPool;
use crate::result::SolveStats;
use crate::DdsSolution;

/// Toggles for the exact engine (the ablation axes of experiment E4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactOptions {
    /// Stern–Brocot divide-and-conquer instead of scanning all `Θ(n²)`
    /// ratios.
    pub divide_and_conquer: bool,
    /// Run each flow decision on the guess-derived `[x, y]`-core.
    pub core_pruning: bool,
    /// Prune ratio intervals with γ transfer certificates, united with the
    /// structural band into dead zones, and solve only ratios they leave
    /// open.
    pub gamma_pruning: bool,
    /// Seed the best density with `core_approx` before any flow.
    pub warm_start: bool,
    /// Resolve γ comparisons that land inside the float safety margin with
    /// an exact integer test, discarding intervals whose certified bound
    /// merely *ties* the incumbent (a tie cannot strictly improve the
    /// answer). Fixes the `Θ(n)` tie-spine around the optimum's own ratio
    /// on planted-block-style graphs.
    pub tie_pruning: bool,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            divide_and_conquer: true,
            core_pruning: true,
            gamma_pruning: true,
            warm_start: true,
            tie_pruning: true,
        }
    }
}

/// Full outcome of an exact run: the optimum plus instrumentation for the
/// efficiency experiments (E2–E4, E13).
#[derive(Clone, Debug)]
pub struct ExactReport {
    /// The optimal pair and its exact density.
    pub solution: DdsSolution,
    /// Ratio intervals examined (divide-and-conquer) or ratios listed
    /// (baseline).
    pub ratios_considered: usize,
    /// Ratios for which a per-ratio search actually ran.
    pub ratios_solved: usize,
    /// Intervals discarded by the structural density band.
    pub ratios_pruned_structural: usize,
    /// Intervals discarded by the union of dead zones, which the γ
    /// certificates and the band's two sides form together (includes the
    /// exact tie prunes counted separately in `ratios_pruned_tie`).
    pub ratios_pruned_gamma: usize,
    /// Subset of the γ prunes that only the exact tie comparison could
    /// discard (the dead zones left the interval open).
    pub ratios_pruned_tie: usize,
    /// Total flow decisions executed.
    pub flow_decisions: usize,
    /// Flow decisions that recycled arena buffers instead of allocating.
    pub arena_reuse_hits: usize,
    /// `[x, y]`-core lookups served from the context memo table.
    pub core_cache_hits: usize,
    /// Flow-network node counts, one per decision (execution order is
    /// deterministic for the serial engine, arbitrary across workers;
    /// experiment E3 plots the shrinkage).
    pub network_nodes: Vec<usize>,
    /// Flow-network edge counts, aligned with `network_nodes`.
    pub network_edges: Vec<usize>,
    /// Density of the warm-start solution, when one was used.
    pub warm_start_density: Option<f64>,
    /// Density of the context's revalidated previous witness, when the
    /// solve ran on a warm [`SolveContext`].
    pub context_seed_density: Option<f64>,
    /// Always 0: speculative ratio racing was removed because it lost to
    /// the plain interval queue on measured hosts. The field stays so
    /// report readers that export it keep compiling.
    pub speculative_solves: usize,
    /// Always 0, like `speculative_solves`.
    pub speculative_wins: usize,
}

impl ExactReport {
    fn new() -> Self {
        ExactReport {
            solution: DdsSolution::empty(),
            ratios_considered: 0,
            ratios_solved: 0,
            ratios_pruned_structural: 0,
            ratios_pruned_gamma: 0,
            ratios_pruned_tie: 0,
            flow_decisions: 0,
            arena_reuse_hits: 0,
            core_cache_hits: 0,
            network_nodes: Vec::new(),
            network_edges: Vec::new(),
            warm_start_density: None,
            context_seed_density: None,
            speculative_solves: 0,
            speculative_wins: 0,
        }
    }

    /// The per-solve instrumentation summary (what `dds-stream` forwards
    /// into its epoch reports).
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        SolveStats {
            ratios_solved: self.ratios_solved,
            flow_decisions: self.flow_decisions,
            arena_reuse_hits: self.arena_reuse_hits,
            core_cache_hits: self.core_cache_hits,
        }
    }
}

/// A certificate `β*(c₀) ≤ bound` for ratio `c₀ = a₀/b₀`: the exact
/// rational bound for the tie test, plus pre-divided `f64` images for the
/// dead zones.
#[derive(Clone, Copy, Debug)]
struct Certificate {
    a0: u64,
    b0: u64,
    /// Exact inclusive bound on `β*(c₀)`: `β*(c₀)` itself, which the
    /// certify-mode per-ratio search always pins and which is what makes
    /// exact ties detectable.
    bound: Frac,
    /// `c₀` as `f64`.
    c0: f64,
    /// `bound/√(a₀b₀)`, inflated by the safety margin.
    g0: f64,
}

impl Certificate {
    fn new(c: Ratio, bound: Frac) -> Self {
        let ab = (c.a() as f64) * (c.b() as f64);
        Certificate {
            a0: c.a(),
            b0: c.b(),
            bound,
            c0: c.to_f64(),
            g0: (bound.to_f64() / ab.sqrt()) * (1.0 + PRUNE_MARGIN),
        }
    }
}

/// `γ(c, c') = (√(c'/c) + √(c/c'))/2`; `∞` at the virtual endpoints.
fn gamma(c0: f64, c_prime: f64) -> f64 {
    if c_prime <= 0.0 || c_prime.is_infinite() {
        return f64::INFINITY;
    }
    0.5 * ((c_prime / c0).sqrt() + (c0 / c_prime).sqrt())
}

/// Relative margin applied to every f64 pruning comparison; densities and
/// γ values carry ~1e-15 relative error, so 1e-9 is vastly conservative.
const PRUNE_MARGIN: f64 = 1e-9;

/// Relative amount by which each dead-zone end is pulled inward, so the
/// rounding of `r²` and of the band edges cannot push a zone past the
/// ratios it provably rules out.
const ZONE_SHRINK: f64 = 1e-12;

/// Width of the ambiguous band around the incumbent in which the `f64`
/// comparison abstains and the exact integer tie test decides. Only a
/// conservative trigger — the exact test alone is correctness-bearing.
const TIE_BAND: f64 = 1e-6;

/// The ratios `c'` at which no pair can strictly beat the incumbent
/// density `ρ̃`, as sorted, disjoint, closed `f64` intervals:
///
/// * the structural band's two sides, `c' ≤ ρ̃²/d⁺max²` and
///   `c' ≥ d⁻max²/ρ̃²` (see [`structurally_pruned`]);
/// * per certificate `(c₀, g₀)`, the range where its transfer bound
///   `g₀·γ(c₀, c')` stays below `ρ̃`. With `x = √(c'/c₀)` that is
///   `x + 1/x < 2t` for `t = ρ̃/g₀`, i.e. `c' ∈ [c₀/r², c₀·r²]` with
///   `r = t + √(t² − 1)`, non-empty only when `t > 1`. `t` carries
///   [`PRUNE_MARGIN`] on both `ρ̃` and `g₀`, so a certificate that ties
///   the incumbent in `f64` contributes no zone and is left to the exact
///   tie test.
///
/// Every zone end is pulled inward by [`ZONE_SHRINK`]. An interval the
/// union covers holds no ratio that can beat `ρ̃`, though no single zone
/// may cover it; γ is infinite at the virtual endpoints `0` and `∞`, so
/// only the band zones reach them.
struct DeadZones(Vec<(f64, f64)>);

impl DeadZones {
    /// The merged zones of the band and of every certificate against the
    /// incumbent density `rho` (none when there is no incumbent yet).
    fn new(certs: &[Certificate], rho: f64, d_out_max: u64, d_in_max: u64) -> Self {
        let mut zones = Vec::with_capacity(certs.len() + 2);
        if rho > 0.0 {
            let (d_out, d_in) = (d_out_max as f64, d_in_max as f64);
            let rho2 = rho * rho;
            zones.push((0.0, rho2 / (d_out * d_out) * (1.0 - ZONE_SHRINK)));
            zones.push((d_in * d_in / rho2 * (1.0 + ZONE_SHRINK), f64::INFINITY));
            let target = rho * (1.0 - PRUNE_MARGIN) / (1.0 + PRUNE_MARGIN);
            zones.extend(certs.iter().filter_map(|cert| cert_zone(cert, target)));
        }
        zones.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(zones.len());
        for (lo, hi) in zones {
            match merged.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        DeadZones(merged)
    }

    /// `true` when one merged zone holds the whole open interval
    /// `(cl, cr)`.
    fn cover(&self, cl: Ratio, cr: Ratio) -> bool {
        let (lo, hi) = (cl.to_f64(), cr.to_f64());
        self.0.iter().any(|&(zl, zh)| zl <= lo && hi <= zh)
    }

    /// The ratio to solve inside `(cl, cr)`: `choice` when no zone holds
    /// it, else the simplest ratio with components `≤ n` in the first
    /// live gap that has one. Any ratio strictly inside the interval is a
    /// valid split, so this only steers the search; `choice` stays when
    /// every gap is too narrow to hold a candidate.
    fn live_ratio(&self, cl: Ratio, cr: Ratio, choice: Ratio, n: u64) -> Ratio {
        let c = choice.to_f64();
        if !self.0.iter().any(|&(zl, zh)| zl <= c && c <= zh) {
            return choice;
        }
        self.gaps(cl.to_f64(), cr.to_f64())
            .find_map(|(lo, hi)| simplest_in(lo, hi, n))
            .filter(|&c| cl < c && c < cr)
            .unwrap_or(choice)
    }

    /// The open sub-intervals of `(lo, hi)` that no zone touches, in
    /// order.
    fn gaps(&self, lo: f64, hi: f64) -> impl Iterator<Item = (f64, f64)> + '_ {
        let mut from = lo;
        self.0
            .iter()
            .copied()
            .chain([(hi, hi)])
            .filter_map(move |(zl, zh)| {
                let gap = (from, zl.min(hi));
                from = from.max(zh);
                (gap.0 < gap.1).then_some(gap)
            })
    }
}

/// The zone `[c₀/r², c₀·r²]` where `cert`'s transfer bound stays below
/// `target` (see [`DeadZones`]), shrunk by [`ZONE_SHRINK`].
fn cert_zone(cert: &Certificate, target: f64) -> Option<(f64, f64)> {
    let t = target / cert.g0;
    if t <= 1.0 {
        return None;
    }
    let r = t + (t * t - 1.0).sqrt();
    let r2 = r * r;
    Some((
        cert.c0 / r2 * (1.0 + ZONE_SHRINK),
        cert.c0 * r2 * (1.0 - ZONE_SHRINK),
    ))
}

/// The simplest ratio (smallest components) whose `f64` value lies
/// strictly inside `(lo, hi)`, or `None` when it needs a component above
/// `n`: a Stern–Brocot descent, at most `2n` steps, which rounding cannot
/// misorder because it is monotone.
fn simplest_in(lo: f64, hi: f64, n: u64) -> Option<Ratio> {
    let (mut left, mut right) = ((0, 1), (1, 0));
    loop {
        let (a, b) = (left.0 + right.0, left.1 + right.1);
        if a > n || b > n {
            return None;
        }
        let m = a as f64 / b as f64;
        if m <= lo {
            left = (a, b);
        } else if m >= hi {
            right = (a, b);
        } else {
            return Some(Ratio::new(a, b));
        }
    }
}

/// What the γ rules concluded about an interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PruneVerdict {
    /// No rule covers the interval; solve this ratio.
    Keep(Ratio),
    /// The dead-zone union covers it.
    Gamma,
    /// Only the exact tie comparison could prune it (bound ties the
    /// incumbent, or sits within float noise of it).
    Tie,
}

/// Exact test that `cert`'s transfer bound at ratio `c'` cannot *strictly*
/// exceed the incumbent density `B = E/√(s·t)`:
///
/// ```text
/// U(c') = (u/√(a₀b₀)) · γ(a₀/b₀, c')
///       = u·(p·b₀ + q·a₀) / (2·a₀·b₀·√(p·q))        for c' = p/q
/// U ≤ B ⟺ un²·(p·b₀ + q·a₀)²·s·t ≤ (2·E·a₀·b₀·ud)²·p·q
/// ```
///
/// with `u = un/ud`. Both sides are compared through 384-bit products
/// ([`cmp_prod3`]); any `u128` overflow on the way falls back to "cannot
/// prune", so the test is conservative.
fn transfer_cannot_beat(cert: &Certificate, c: Ratio, best: Density) -> bool {
    if c.is_zero() || c.is_infinite() || best.edges == 0 {
        return false; // γ → ∞ at virtual endpoints; no incumbent to tie
    }
    if cert.bound.is_negative() {
        return true;
    }
    let (p, q) = (u128::from(c.a()), u128::from(c.b()));
    let (a0, b0) = (u128::from(cert.a0), u128::from(cert.b0));
    let un = cert.bound.num().unsigned_abs();
    let ud = cert.bound.den().unsigned_abs();
    let Some(lhs) = p
        .checked_mul(b0)
        .and_then(|pb| q.checked_mul(a0).and_then(|qa| pb.checked_add(qa)))
        .and_then(|sum| un.checked_mul(sum))
    else {
        return false;
    };
    let Some(rhs) = 2u128
        .checked_mul(u128::from(best.edges))
        .and_then(|x| x.checked_mul(a0))
        .and_then(|x| x.checked_mul(b0))
        .and_then(|x| x.checked_mul(ud))
    else {
        return false;
    };
    let st = u128::from(best.s) * u128::from(best.t);
    let pq = p * q;
    cmp_prod3(lhs, lhs, st, rhs, rhs, pq) != std::cmp::Ordering::Greater
}

/// Judges interval `(cl, cr)` by the band and the certificate list, and
/// picks the ratio to solve when neither rules it out.
///
/// `best` is the worker's exact incumbent snapshot; `best_floor` is the
/// freshest published `f64` lower bound (the atomic incumbent floor — in
/// the parallel engine it may already exceed the snapshot). `choice` is
/// [`choose_test_ratio`]'s pick, kept unless a zone holds it.
#[allow(clippy::too_many_arguments)] // the interval, the incumbent and the band
fn gamma_prunes(
    certs: &[Certificate],
    (cl, cr): (Ratio, Ratio),
    best: Density,
    best_floor: f64,
    (d_out_max, d_in_max): (u64, u64),
    choice: Ratio,
    n: u64,
    tie_pruning: bool,
) -> PruneVerdict {
    let best_f = best_floor.max(best.to_f64());
    let zones = DeadZones::new(certs, best_f, d_out_max, d_in_max);
    if zones.cover(cl, cr) {
        return PruneVerdict::Gamma;
    }
    // Inside the float-noise band around the incumbent the zones cannot
    // distinguish "ties" (prunable — a tie can never *strictly* improve
    // the answer) from "a hair above" (must solve). The exact integer
    // comparison against the snapshot density decides; γ is quasi-convex
    // in c', so checking both endpoints covers the whole interval.
    let (cl_f, cr_f) = (cl.to_f64(), cr.to_f64());
    let tied = |cert: &Certificate| {
        let ub = cert.g0 * gamma(cert.c0, cl_f).max(gamma(cert.c0, cr_f));
        ub <= best_f * (1.0 + TIE_BAND)
            && transfer_cannot_beat(cert, cl, best)
            && transfer_cannot_beat(cert, cr, best)
    };
    if tie_pruning && certs.iter().any(tied) {
        return PruneVerdict::Tie;
    }
    PruneVerdict::Keep(zones.live_ratio(cl, cr, choice, n))
}

/// The simplest ratio (componentwise-minimal) strictly inside `(cl, cr)`;
/// endpoints may be the virtual `0` / `∞`. Every rational strictly inside
/// the interval is a Stern–Brocot descendant of this one, so its components
/// lower-bound all candidates inside — which makes "simplest exceeds `n`"
/// a sound emptiness certificate for the whole interval.
fn simplest_ratio_between(cl: Ratio, cr: Ratio) -> Ratio {
    if cr.is_infinite() {
        // Smallest integer strictly above cl.
        let next = if cl.is_zero() {
            1
        } else {
            u64::try_from(cl.as_frac().floor()).expect("ratio fits u64") + 1
        };
        return Ratio::new(next, 1);
    }
    let lo = if cl.is_zero() {
        Frac::ZERO
    } else {
        cl.as_frac()
    };
    let f = simplest_between(lo, cr.as_frac());
    Ratio::new(
        u64::try_from(f.num()).expect("positive numerator"),
        u64::try_from(f.den()).expect("positive denominator"),
    )
}

/// Picks the ratio to solve inside the open interval `(cl, cr)`, or `None`
/// when the interval provably holds no viable candidate ratio.
///
/// Default choice: the simplest ratio inside (for Stern–Brocot-neighbour
/// intervals this is the mediant). When the structural density band
/// `[ρ̃²/d⁺max², d⁻max²/ρ̃²]` clips the interval, the choice jumps straight
/// into the band — without this, a graph whose optimum sits at an extreme
/// ratio (e.g. a star, c* = 1/k) forces a linear walk down the tree spine
/// with one full ratio-solve per rung.
fn choose_test_ratio(
    cl: Ratio,
    cr: Ratio,
    best: &DdsSolution,
    d_out_max: u64,
    d_in_max: u64,
    n: u64,
) -> Option<Ratio> {
    let simplest = simplest_ratio_between(cl, cr);
    if simplest.a() > n || simplest.b() > n {
        return None; // no achievable ratio inside
    }
    if best.density.is_zero() {
        return Some(simplest);
    }
    // Clamp to the band (exact rationals; band endpoints are closed).
    let rho2 = best.density.squared();
    let band_lo = rho2 / Frac::new(i128::from(d_out_max) * i128::from(d_out_max), 1);
    let band_hi = Frac::new(i128::from(d_in_max) * i128::from(d_in_max), 1) / rho2;
    let lo = if cl.is_zero() {
        band_lo
    } else {
        band_lo.max(cl.as_frac())
    };
    let hi = if cr.is_infinite() {
        band_hi
    } else {
        band_hi.min(cr.as_frac())
    };
    let jump = if lo < hi {
        simplest_between(lo, hi)
    } else if lo == hi {
        lo // the band ∩ interval is a single (rational) point
    } else {
        return Some(simplest); // structurally dead; the caller's band check decides
    };
    let (num, den) = match (u64::try_from(jump.num()), u64::try_from(jump.den())) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return Some(simplest),
    };
    if num == 0 || num > n || den > n {
        return Some(simplest);
    }
    let c = Ratio::new(num, den);
    if cl < c && c < cr {
        Some(c)
    } else {
        Some(simplest)
    }
}

/// Exact structural band check: no ratio strictly inside `(cl, cr)` can
/// reach the best density ρ̃.
///
/// A pair with ratio `c' = |S|/|T|` has `|E| ≤ |S|·d⁺max`, so
/// `ρ ≤ d⁺max·√c'` — prune when `(d⁺max)²·cr ≤ ρ̃²`. Symmetrically
/// `|E| ≤ |T|·d⁻max` gives `ρ ≤ d⁻max/√c'` — prune when
/// `(d⁻max)² ≤ ρ̃²·cl`. Both comparisons are exact rationals.
fn structurally_pruned(
    cl: Ratio,
    cr: Ratio,
    best: &DdsSolution,
    d_out_max: u64,
    d_in_max: u64,
) -> bool {
    if best.density.is_zero() {
        return false;
    }
    let rho2 = best.density.squared();
    let sq = |d: u64| Frac::new(i128::from(d) * i128::from(d), 1);
    if !cl.is_zero() && !cl.is_infinite() && sq(d_in_max) <= rho2 * cl.as_frac() {
        return true;
    }
    if !cr.is_infinite() && !cr.is_zero() && sq(d_out_max) * cr.as_frac() <= rho2 {
        return true;
    }
    false
}

/// A pending open ratio interval `(cl, cr)` with the maximisers of its
/// solved endpoints (`None` at the virtual endpoints `0` and `∞`, and for
/// a floor-fast search that exited at the floor).
type Interval = (Ratio, Ratio, [Option<Arc<Pair>>; 2]);

/// Queue of pending ratio intervals plus the in-flight count that decides
/// termination (empty queue alone is not enough — a busy worker may still
/// push children).
struct QueueState {
    deque: VecDeque<Interval>,
    in_flight: usize,
}

/// Counters and per-decision traces accumulated across workers.
#[derive(Default)]
struct Metrics {
    ratios_considered: usize,
    ratios_solved: usize,
    pruned_structural: usize,
    pruned_gamma: usize,
    pruned_tie: usize,
    flow_decisions: usize,
    network_nodes: Vec<usize>,
    network_edges: Vec<usize>,
}

/// Everything the interval workers share; see the module docs.
struct Search<'g> {
    g: &'g DiGraph,
    opts: ExactOptions,
    n: u64,
    d_out_max: u64,
    d_in_max: u64,
    queue: Mutex<QueueState>,
    ready: Condvar,
    /// Exact incumbent: best pair + density (achieved, hence a sound prune
    /// reference at all times).
    incumbent: Mutex<DdsSolution>,
    /// `f64` image of the incumbent density, published lock-free so the
    /// dead zones of sibling workers see improvements immediately.
    floor_bits: AtomicU64,
    certs: RwLock<Vec<Certificate>>,
    metrics: Mutex<Metrics>,
}

impl<'g> Search<'g> {
    fn new(g: &'g DiGraph, opts: ExactOptions, seed: DdsSolution) -> Self {
        let mut deque = VecDeque::new();
        deque.push_back((Ratio::ZERO, Ratio::INFINITY, [None, None]));
        let floor = seed.density.to_f64();
        Search {
            g,
            opts,
            n: g.n() as u64,
            d_out_max: g.max_out_degree() as u64,
            d_in_max: g.max_in_degree() as u64,
            queue: Mutex::new(QueueState {
                deque,
                in_flight: 0,
            }),
            ready: Condvar::new(),
            incumbent: Mutex::new(seed),
            floor_bits: AtomicU64::new(floor.to_bits()),
            certs: RwLock::new(Vec::new()),
            metrics: Mutex::new(Metrics::default()),
        }
    }

    /// The next interval for a worker, or `None` once the queue is
    /// drained and no worker is busy. While the queue is empty but
    /// siblings still hold intervals (which may yet push children), the
    /// worker sleeps on the queue condvar; [`IntervalGuard`] wakes it.
    fn next_work(&self) -> Option<Interval> {
        let mut q = self.queue.lock().expect("queue poisoned");
        loop {
            if let Some(interval) = q.deque.pop_front() {
                q.in_flight += 1;
                return Some(interval);
            }
            if q.in_flight == 0 {
                return None;
            }
            q = self.ready.wait(q).expect("queue poisoned");
        }
    }

    /// Runs the per-ratio search at `c`, seeded with the incumbent and the
    /// interval's endpoint maximisers, records its flow decisions,
    /// publishes its certificate, merges an improving maximiser into the
    /// incumbent, and returns the maximiser for the child intervals.
    fn solve_at(
        &self,
        c: Ratio,
        best: &DdsSolution,
        ends: &[Option<Arc<Pair>>; 2],
        arena: &mut FlowArena,
        cores: &Mutex<&mut CoreCache>,
    ) -> Option<Arc<Pair>> {
        // Exact certificates are only worth the extra flows of a ratio that
        // cannot beat the floor when γ-pruning consumes them.
        let tighten = self.opts.gamma_pruning;
        let floor_beta = if best.density.is_zero() {
            Frac::ZERO
        } else {
            best.density.beta_lower_bound(c.a(), c.b())
        };
        let mut seeds = vec![&best.pair];
        seeds.extend(ends.iter().flatten().map(|p| &**p));
        let outcome = {
            let mut core_of =
                |x: u64, y: u64| cores.lock().expect("cores poisoned").core(self.g, x, y);
            let mut res = RatioResources {
                arena,
                core_of: &mut core_of,
            };
            solve_ratio(
                self.g,
                c.a(),
                c.b(),
                floor_beta,
                self.opts.core_pruning,
                tighten,
                &seeds,
                &mut res,
            )
        };
        {
            let mut m = self.metrics.lock().expect("metrics poisoned");
            m.flow_decisions += outcome.decisions.len();
            for d in &outcome.decisions {
                m.network_nodes.push(d.nodes);
                m.network_edges.push(d.edges);
            }
        }
        if tighten {
            self.certs
                .write()
                .expect("certs poisoned")
                .push(Certificate::new(c, outcome.certified_upper));
        }
        let maximizer = outcome.maximizer.map(Arc::new);
        if let Some(pair) = maximizer
            .as_ref()
            .filter(|_| outcome.certified_upper > floor_beta)
        {
            self.improve(DdsSolution::from_pair(self.g, Pair::clone(pair)));
        }
        maximizer
    }

    /// Lock-free read of the freshest published incumbent density.
    fn floor(&self) -> f64 {
        f64::from_bits(self.floor_bits.load(AtomicOrdering::Relaxed))
    }

    /// Merges a candidate into the incumbent and raises the atomic floor.
    fn improve(&self, candidate: DdsSolution) {
        let mut inc = self.incumbent.lock().expect("incumbent poisoned");
        if inc.improve_to(candidate) {
            let bits = inc.density.to_f64().to_bits();
            // Monotone max: competing stores are all achieved densities, so
            // keep the largest (non-negative f64 order == bit order).
            self.floor_bits.fetch_max(bits, AtomicOrdering::Relaxed);
        }
    }

    /// Processes one interval: prune or solve, then return the children to
    /// publish (`None` when the subtree is discarded).
    fn process(
        &self,
        (cl, cr, ends): Interval,
        arena: &mut FlowArena,
        cores: &Mutex<&mut CoreCache>,
    ) -> Option<[Interval; 2]> {
        let best = self.incumbent.lock().expect("incumbent poisoned").clone();
        let mut c = choose_test_ratio(cl, cr, &best, self.d_out_max, self.d_in_max, self.n)?;
        {
            self.metrics
                .lock()
                .expect("metrics poisoned")
                .ratios_considered += 1;
        }
        if structurally_pruned(cl, cr, &best, self.d_out_max, self.d_in_max) {
            self.metrics
                .lock()
                .expect("metrics poisoned")
                .pruned_structural += 1;
            return None;
        }
        if self.opts.gamma_pruning {
            let verdict = {
                let certs = self.certs.read().expect("certs poisoned");
                gamma_prunes(
                    &certs,
                    (cl, cr),
                    best.density,
                    self.floor(),
                    (self.d_out_max, self.d_in_max),
                    c,
                    self.n,
                    self.opts.tie_pruning,
                )
            };
            if let PruneVerdict::Keep(live) = verdict {
                c = live;
            } else {
                let mut m = self.metrics.lock().expect("metrics poisoned");
                m.pruned_gamma += 1;
                if verdict == PruneVerdict::Tie {
                    m.pruned_tie += 1;
                }
                return None;
            }
        }

        self.metrics.lock().expect("metrics poisoned").ratios_solved += 1;
        let mc = self.solve_at(c, &best, &ends, arena, cores);
        let [ml, mr] = ends;
        Some([(cl, c, [ml, mc.clone()]), (c, cr, [mc, mr])])
    }

    /// A worker's whole life: drain the queue until global quiescence.
    fn worker(&self, arena: &mut FlowArena, cores: &Mutex<&mut CoreCache>) {
        while let Some(interval) = self.next_work() {
            let mut guard = IntervalGuard {
                search: self,
                children: None,
            };
            guard.children = self.process(interval, arena, cores);
            // `guard` drops here: children published, in_flight retired.
        }
    }
}

/// Retires one popped interval on drop — *including during a panic
/// unwind*, so a crashing worker decrements `in_flight` and wakes its
/// siblings instead of stranding them in the condvar wait forever. The
/// siblings then drain and exit, the pool scope joins, and the original
/// panic propagates normally.
struct IntervalGuard<'a, 'g> {
    search: &'a Search<'g>,
    children: Option<[Interval; 2]>,
}

impl Drop for IntervalGuard<'_, '_> {
    fn drop(&mut self) {
        // Take the queue even if poisoned: its state is plain data that the
        // updates below keep consistent, and panicking inside a drop during
        // an unwind would abort the whole process.
        let mut q = self
            .search
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(pair) = self.children.take() {
            q.deque.extend(pair);
        }
        q.in_flight -= 1;
        drop(q);
        // Wake both idle workers (new children) and would-be terminators
        // (in_flight may have hit zero).
        self.search.ready.notify_all();
    }
}

pub(crate) fn run_with_context(
    g: &DiGraph,
    opts: ExactOptions,
    ctx: &mut SolveContext,
    threads: usize,
) -> ExactReport {
    let workers = threads.max(1);
    let mut report = ExactReport::new();
    if g.m() == 0 {
        return report;
    }
    ctx.prepare(g, workers);
    let arena_hits_before = ctx.arena_reuse_hits();
    let core_hits_before = ctx.core_cache_hits();

    // Seed the incumbent: previous witness (warm context), then the
    // core_approx 2-approximation. Both are real pairs of `g`.
    let mut seed = DdsSolution::empty();
    if let Some(prev) = ctx.seed_solution(g) {
        report.context_seed_density = Some(prev.density.to_f64());
        seed.improve_to(prev);
    }
    if opts.warm_start {
        let warm = core_approx(g);
        report.warm_start_density = Some(warm.solution.density.to_f64());
        seed.improve_to(warm.solution);
    }

    if opts.divide_and_conquer {
        let search = Search::new(g, opts, seed);
        let SolveContext { arenas, cores, .. } = ctx;
        let cores_mx = Mutex::new(cores);
        if workers == 1 {
            search.worker(&mut arenas[0], &cores_mx);
        } else {
            let search_ref = &search;
            let cores_ref = &cores_mx;
            WorkerPool::global().scope(|s| {
                let mut lanes = arenas.iter_mut().take(workers);
                let own = lanes.next().expect("at least one arena");
                for arena in lanes {
                    s.spawn(move || search_ref.worker(arena, cores_ref));
                }
                // The calling thread is always one of the lanes, so the
                // search progresses even on a saturated (or zero-background)
                // pool.
                search_ref.worker(own, cores_ref);
            });
        }
        let metrics = search.metrics.into_inner().expect("metrics poisoned");
        report.solution = search.incumbent.into_inner().expect("incumbent poisoned");
        report.ratios_considered = metrics.ratios_considered;
        report.ratios_solved = metrics.ratios_solved;
        report.ratios_pruned_structural = metrics.pruned_structural;
        report.ratios_pruned_gamma = metrics.pruned_gamma;
        report.ratios_pruned_tie = metrics.pruned_tie;
        report.flow_decisions = metrics.flow_decisions;
        report.network_nodes = metrics.network_nodes;
        report.network_edges = metrics.network_edges;
    } else {
        assert!(
            g.n() <= 4096,
            "the all-ratios baseline enumerates Θ(n²) ratios; n = {} is too large — enable divide_and_conquer",
            g.n()
        );
        report.solution = seed;
        let n = g.n() as u64;
        let SolveContext { arenas, cores, .. } = ctx;
        let arena = &mut arenas[0];
        for r in candidate_ratios(n) {
            report.ratios_considered += 1;
            let (a, b) = (r.a(), r.b());
            let floor = if report.solution.density.is_zero() {
                Frac::ZERO
            } else {
                report.solution.density.beta_lower_bound(a, b)
            };
            let outcome = {
                let mut core_of = |x: u64, y: u64| cores.core(g, x, y);
                let mut res = RatioResources {
                    arena,
                    core_of: &mut core_of,
                };
                solve_ratio(
                    g,
                    a,
                    b,
                    floor,
                    opts.core_pruning,
                    false,
                    &[&report.solution.pair],
                    &mut res,
                )
            };
            report.ratios_solved += 1;
            report.flow_decisions += outcome.decisions.len();
            for d in &outcome.decisions {
                report.network_nodes.push(d.nodes);
                report.network_edges.push(d.edges);
            }
            if let Some(pair) = outcome
                .maximizer
                .filter(|_| outcome.certified_upper > floor)
            {
                report.solution.improve_to(DdsSolution::from_pair(g, pair));
            }
        }
    }

    report.arena_reuse_hits = ctx.arena_reuse_hits() - arena_hits_before;
    report.core_cache_hits = ctx.core_cache_hits() - core_hits_before;
    ctx.metrics.record(&report);
    ctx.store_incumbent(&report.solution);
    report
}

/// The `Θ(n²)`-ratio exact baseline (the per-ratio flow search at every
/// candidate ratio, no pruning devices). This is the algorithm the paper's exact
/// solver is benchmarked against; expect it to be orders of magnitude
/// slower than [`DcExact`] beyond toy sizes.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowExact;

impl FlowExact {
    /// Solves exactly. See [`ExactReport`].
    #[must_use]
    pub fn solve(&self, g: &DiGraph) -> ExactReport {
        run_with_context(
            g,
            ExactOptions {
                divide_and_conquer: false,
                core_pruning: false,
                gamma_pruning: false,
                warm_start: false,
                tie_pruning: false,
            },
            &mut SolveContext::new(),
            1,
        )
    }
}

/// The paper's exact solver: divide-and-conquer over the ratio space with
/// core-shrunk flow networks, γ certificates (with exact tie pruning), and
/// a `core_approx` warm start. All devices can be toggled via
/// [`ExactOptions`] for ablation.
#[derive(Clone, Copy, Debug, Default)]
pub struct DcExact {
    /// Engine toggles (all enabled by [`Default`]).
    pub options: ExactOptions,
}

impl DcExact {
    /// Solver with all optimisations enabled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Solver with explicit toggles (ablation studies).
    #[must_use]
    pub fn with_options(options: ExactOptions) -> Self {
        DcExact { options }
    }

    /// Solves exactly with throwaway state. See [`ExactReport`].
    #[must_use]
    pub fn solve(&self, g: &DiGraph) -> ExactReport {
        self.solve_with(&mut SolveContext::new(), g)
    }

    /// Solves exactly on a reusable [`SolveContext`]: flow arenas and
    /// memoised cores are recycled, and the previous solve's witness seeds
    /// the incumbent (after revalidation on `g`). Results are identical to
    /// [`solve`](DcExact::solve) — only the work profile changes.
    #[must_use]
    pub fn solve_with(&self, ctx: &mut SolveContext, g: &DiGraph) -> ExactReport {
        run_with_context(g, self.options, ctx, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::brute_force_dds;
    use dds_graph::gen;
    use dds_num::Density;

    fn all_option_combos() -> Vec<ExactOptions> {
        let mut out = Vec::new();
        for dc in [false, true] {
            for core in [false, true] {
                for gamma in [false, true] {
                    for warm in [false, true] {
                        for tie in [false, true] {
                            out.push(ExactOptions {
                                divide_and_conquer: dc,
                                core_pruning: core,
                                gamma_pruning: gamma,
                                warm_start: warm,
                                tie_pruning: tie,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn fixtures_have_known_optima() {
        let cases: Vec<(DiGraph, Density)> = vec![
            (gen::complete_bipartite(2, 3), Density::new(6, 2, 3)),
            (gen::out_star(4), Density::new(4, 1, 4)),
            (gen::cycle(5), Density::new(1, 1, 1)),
            (gen::path(4), Density::new(1, 1, 1)),
            (gen::complete_bipartite(3, 3), Density::new(9, 3, 3)),
        ];
        for (g, want) in cases {
            let got = DcExact::new().solve(&g);
            assert_eq!(got.solution.density, want);
            let base = FlowExact.solve(&g);
            assert_eq!(base.solution.density, want);
        }
    }

    #[test]
    fn every_option_combo_matches_brute_force() {
        for seed in 0..6 {
            let g = gen::gnm(7, 18, seed);
            let want = brute_force_dds(&g).density;
            for opts in all_option_combos() {
                let got = DcExact::with_options(opts).solve(&g);
                assert_eq!(got.solution.density, want, "seed={seed} opts={opts:?}");
                // The reported pair really has the reported density.
                assert_eq!(got.solution.pair.density(&g), got.solution.density);
            }
        }
    }

    #[test]
    fn dc_matches_baseline_on_medium_graphs() {
        for seed in 0..3 {
            let g = gen::gnm(22, 90, seed);
            let dc = DcExact::new().solve(&g);
            let base = FlowExact.solve(&g);
            assert_eq!(dc.solution.density, base.solution.density, "seed={seed}");
        }
        let g = gen::power_law(25, 110, 2.2, 1);
        assert_eq!(
            DcExact::new().solve(&g).solution.density,
            FlowExact.solve(&g).solution.density
        );
    }

    #[test]
    fn planted_block_recovered_exactly() {
        let p = gen::planted(60, 90, 4, 6, 1.0, 11);
        let got = DcExact::new().solve(&p.graph);
        // The planted complete block has density √24 ≈ 4.9; the sparse
        // background cannot beat it, and the solver must return at least
        // the planted density.
        assert!(got.solution.density >= p.pair.density(&p.graph));
        assert!(crate::validate::is_locally_maximal(
            &p.graph,
            &got.solution.pair
        ));
    }

    #[test]
    fn tie_pruning_collapses_the_spine_on_planted_blocks() {
        // The regression named in ROADMAP.md: certificates from ratios whose
        // β* maximiser is the planted block transfer to a bound that *ties*
        // the incumbent exactly at the block's own ratio, so without the
        // exact tie test the Stern–Brocot spine next to the optimum is
        // re-solved rung by rung (~2n hopeless ratio solves).
        let p = gen::planted(60, 90, 4, 6, 1.0, 11);
        let with = DcExact::new().solve(&p.graph);
        let without = DcExact::with_options(ExactOptions {
            tie_pruning: false,
            ..ExactOptions::default()
        })
        .solve(&p.graph);
        assert_eq!(with.solution.density, without.solution.density);
        assert!(with.ratios_pruned_tie > 0, "exact tie prunes must fire");
        assert!(
            with.ratios_solved * 2 <= without.ratios_solved,
            "tie pruning should at least halve the solved ratios: {} vs {}",
            with.ratios_solved,
            without.ratios_solved
        );
        assert!(with.flow_decisions < without.flow_decisions);
    }

    #[test]
    fn dc_solves_far_fewer_ratios_than_baseline() {
        // Uniform graphs are the flat-envelope worst case for γ-pruning;
        // expect a moderate factor there and a larger one on skewed
        // graphs (matching the paper's dataset-dependent gains).
        let g = gen::gnm(30, 160, 4);
        let dc = DcExact::new().solve(&g);
        let base = FlowExact.solve(&g);
        assert_eq!(dc.solution.density, base.solution.density);
        assert!(
            dc.ratios_solved * 4 < base.ratios_solved,
            "DC solved {} ratios vs baseline {}",
            dc.ratios_solved,
            base.ratios_solved
        );
        assert!(dc.flow_decisions < base.flow_decisions);

        let g = gen::power_law(60, 400, 2.2, 4);
        let dc = DcExact::new().solve(&g);
        let base = FlowExact.solve(&g);
        assert_eq!(dc.solution.density, base.solution.density);
        assert!(
            dc.ratios_solved * 10 < base.ratios_solved,
            "power-law: DC solved {} ratios vs baseline {}",
            dc.ratios_solved,
            base.ratios_solved
        );
        assert!(dc.flow_decisions * 5 < base.flow_decisions);
    }

    #[test]
    fn newton_search_takes_about_one_flow_per_ratio() {
        // Seeded from neighbouring maximisers (DC) or certified at the
        // floor (the baseline), most ratios close with a single min cut.
        for seed in 0..4 {
            let g = gen::gnm(40, 300, seed);
            let dc = DcExact::new().solve(&g);
            let base = FlowExact.solve(&g);
            assert_eq!(dc.solution.density, base.solution.density, "seed={seed}");
            for (name, r) in [("DcExact", &dc), ("FlowExact", &base)] {
                assert!(
                    r.flow_decisions <= 2 * r.ratios_solved,
                    "{name} seed={seed}: {} flows for {} ratios",
                    r.flow_decisions,
                    r.ratios_solved
                );
            }
        }
    }

    #[test]
    fn core_pruning_shrinks_networks_in_the_report() {
        let p = gen::planted(50, 120, 4, 5, 1.0, 9);
        let with = DcExact::new().solve(&p.graph);
        let without = DcExact::with_options(ExactOptions {
            core_pruning: false,
            ..ExactOptions::default()
        })
        .solve(&p.graph);
        assert_eq!(with.solution.density, without.solution.density);
        let max_with = with.network_nodes.iter().max().copied().unwrap_or(0);
        let max_without = without.network_nodes.iter().max().copied().unwrap_or(0);
        assert!(
            max_with <= max_without,
            "core pruning must not grow networks ({max_with} vs {max_without})"
        );
    }

    #[test]
    fn structural_band_prunes_extreme_ratios_on_stars() {
        // out_star(64): ρ_opt = 8 with c* = 1/64; d⁻max = 1 means any ratio
        // above (d⁻max/ρ̃)² = 1/64 is structurally hopeless, so almost the
        // whole Stern–Brocot tree dies without a single flow.
        let g = gen::out_star(64);
        let r = DcExact::new().solve(&g);
        assert_eq!(r.solution.density, Density::new(64, 1, 64));
        assert!(r.ratios_pruned_structural > 0, "band should fire");
        assert!(
            r.ratios_solved <= 8,
            "star should need only a handful of ratio solves, got {}",
            r.ratios_solved
        );
    }

    #[test]
    fn gamma_pruning_fires_and_preserves_the_answer() {
        let g = gen::power_law(60, 360, 2.2, 12);
        let with = DcExact::new().solve(&g);
        assert!(
            with.ratios_pruned_gamma > 0,
            "γ certificates should prune intervals"
        );
        let without = DcExact::with_options(ExactOptions {
            gamma_pruning: false,
            ..ExactOptions::default()
        })
        .solve(&g);
        assert_eq!(with.solution.density, without.solution.density);
        assert!(with.ratios_solved < without.ratios_solved);
    }

    #[test]
    fn warm_start_density_is_recorded_and_bounded() {
        let g = gen::power_law(40, 220, 2.3, 8);
        let r = DcExact::new().solve(&g);
        let warm = r.warm_start_density.expect("warm start enabled");
        assert!(warm <= r.solution.density.to_f64() + 1e-9);
        assert!(
            2.0 * warm >= r.solution.density.to_f64() - 1e-9,
            "2-approx warm start"
        );
    }

    #[test]
    fn arena_reuse_is_counted() {
        let g = gen::power_law(40, 220, 2.3, 8);
        let r = DcExact::new().solve(&g);
        // Every decision that actually built a network recycled the single
        // arena except the very first; decisions that certified on an empty
        // alive-mask never touch it, so the bound is strict but close.
        assert!(
            r.arena_reuse_hits > 0,
            "a multi-decision solve must recycle buffers"
        );
        assert!(r.arena_reuse_hits < r.flow_decisions);
        assert_eq!(r.stats().flow_decisions, r.flow_decisions);
        assert_eq!(r.stats().arena_reuse_hits, r.arena_reuse_hits);
    }

    #[test]
    fn warm_context_reuses_state_and_matches_cold_solves() {
        let g = gen::power_law(40, 220, 2.3, 8);
        let mut ctx = SolveContext::new();
        let first = DcExact::new().solve_with(&mut ctx, &g);
        let second = DcExact::new().solve_with(&mut ctx, &g);
        let cold = DcExact::new().solve(&g);
        assert_eq!(first.solution.density, cold.solution.density);
        assert_eq!(second.solution.density, cold.solution.density);
        assert_eq!(
            second.context_seed_density,
            Some(first.solution.density.to_f64()),
            "second solve must seed from the first solve's witness"
        );
        assert!(
            second.flow_decisions <= first.flow_decisions,
            "warm start cannot cost more flows: {} vs {}",
            second.flow_decisions,
            first.flow_decisions
        );
        assert_eq!(ctx.solves(), 2);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        assert_eq!(
            DcExact::new().solve(&DiGraph::empty(0)).solution,
            DdsSolution::empty()
        );
        assert_eq!(
            DcExact::new().solve(&DiGraph::empty(7)).solution,
            DdsSolution::empty()
        );
        assert_eq!(
            FlowExact.solve(&DiGraph::empty(7)).solution,
            DdsSolution::empty()
        );
    }

    #[test]
    fn single_edge_graph() {
        let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let r = DcExact::new().solve(&g);
        assert_eq!(r.solution.density, Density::new(1, 1, 1));
        assert_eq!(r.solution.pair.s(), &[0]);
        assert_eq!(r.solution.pair.t(), &[1]);
    }

    /// A certificate at `a/b` whose transfer factor is `g₀ = g` exactly
    /// (`a·b` a perfect square keeps the bound rational).
    fn cert(a: u64, b: u64, g: i128) -> Certificate {
        let root = (a * b).isqrt();
        assert_eq!(root * root, a * b, "a·b must be a perfect square");
        Certificate::new(Ratio::new(a, b), Frac::from(g * i128::from(root)))
    }

    fn r(a: u64, b: u64) -> Ratio {
        Ratio::new(a, b)
    }

    /// ρ̃ = 10; with `g₀ = 9`, `t = 10/9` and `r² ≈ 2.545`, so each zone is
    /// about `[c₀/2.545, 2.545·c₀]`.
    const RHO: Density = Density {
        edges: 10,
        s: 1,
        t: 1,
    };

    /// A band wide enough (`[10⁻⁴, 10⁴]`) to stay out of the way.
    const WIDE: (u64, u64) = (1_000, 1_000);

    fn verdict(certs: &[Certificate], cl: Ratio, cr: Ratio, band: (u64, u64)) -> PruneVerdict {
        let choice = simplest_ratio_between(cl, cr);
        gamma_prunes(certs, (cl, cr), RHO, 0.0, band, choice, 100, true)
    }

    #[test]
    fn zones_that_tile_an_interval_prune_it() {
        let (a, b) = (cert(1, 1, 9), cert(4, 1, 9)); // [0.39, 2.55] and [1.57, 10.2]
        let (cl, cr) = (r(1, 2), r(8, 1));
        let zones = |certs: &[Certificate]| DeadZones::new(certs, 10.0, WIDE.0, WIDE.1);
        assert!(!zones(&[a]).cover(cl, cr));
        assert!(!zones(&[b]).cover(cl, cr));
        assert!(zones(&[a, b]).cover(cl, cr));
        assert_eq!(verdict(&[a, b], cl, cr, WIDE), PruneVerdict::Gamma);
        assert_eq!(verdict(&[a], cl, cr, WIDE), PruneVerdict::Keep(r(3, 1)));
    }

    #[test]
    fn a_gap_between_zones_keeps_the_interval_and_gets_the_test_ratio() {
        // [0.39, 2.55] and [6.29, 40.7]: the gap between them is live, and
        // the default choice 1 sits inside the first zone.
        let certs = [cert(1, 1, 9), cert(16, 1, 9)];
        let (cl, cr) = (r(1, 2), r(20, 1));
        assert_eq!(simplest_ratio_between(cl, cr), Ratio::ONE);
        assert_eq!(verdict(&certs, cl, cr, WIDE), PruneVerdict::Keep(r(3, 1)));
        // A live choice stays.
        let zones = DeadZones::new(&certs, 10.0, WIDE.0, WIDE.1);
        assert_eq!(zones.live_ratio(cl, cr, r(9, 2), 100), r(9, 2));
        // A gap that holds no ratio with components ≤ n keeps the choice:
        // with `n = 2` the candidates are 1/2, 1 and 2.
        assert_eq!(zones.live_ratio(cl, cr, Ratio::ONE, 2), Ratio::ONE);
    }

    #[test]
    fn intervals_touching_the_virtual_ends_die_by_the_band() {
        // Band [1/16, 16] at ρ̃ = 10 with d⁺max = d⁻max = 40; γ is infinite
        // at 0 and ∞, so no certificate zone reaches them.
        let band = (40, 40);
        let certs = [
            cert(1, 9, 9), // [0.044, 0.28]
            cert(1, 4, 9), // [0.098, 0.64]
            cert(4, 1, 9), // [1.57, 10.2]
            cert(9, 1, 9), // [3.54, 22.9]
        ];
        for (cl, cr) in [(Ratio::ZERO, r(1, 2)), (r(2, 1), Ratio::INFINITY)] {
            assert!(!structurally_pruned(
                cl,
                cr,
                &DdsSolution {
                    pair: Pair::new(vec![0], vec![1]),
                    density: RHO,
                },
                band.0,
                band.1
            ));
            assert_eq!(verdict(&certs, cl, cr, band), PruneVerdict::Gamma);
            assert!(matches!(
                verdict(&certs, cl, cr, WIDE),
                PruneVerdict::Keep(_)
            ));
        }
        // With no incumbent there are no zones at all.
        assert!(DeadZones::new(&certs, 0.0, band.0, band.1).0.is_empty());
    }

    #[test]
    fn a_tied_certificate_adds_no_zone_and_the_exact_test_decides() {
        // Incumbent: a 2×2 block, ρ̃ = 2 at ratio 1. A certificate
        // β*(1) = 2 ties ρ̃: no zone. A certificate β*(1/2) = 8/3 (the
        // block's β there) has a transfer bound that reaches ρ̃ exactly at
        // 1, so its zone stops short of 1 and only the exact test prunes
        // (1/2, 1).
        let best = Density::new(4, 2, 2);
        let target = 2.0 * (1.0 - PRUNE_MARGIN) / (1.0 + PRUNE_MARGIN);
        let tied = Certificate::new(Ratio::ONE, Frac::from(2u64));
        assert_eq!(cert_zone(&tied, target), None);
        assert_eq!(DeadZones::new(&[tied], 2.0, WIDE.0, WIDE.1).0.len(), 2);
        let half = Certificate::new(r(1, 2), Frac::new(8, 3));
        let (cl, cr) = (r(1, 2), Ratio::ONE);
        assert!(!DeadZones::new(&[half], 2.0, WIDE.0, WIDE.1).cover(cl, cr));
        let choice = simplest_ratio_between(cl, cr);
        let judge = |tie| gamma_prunes(&[half], (cl, cr), best, 0.0, WIDE, choice, 100, tie);
        assert_eq!(judge(true), PruneVerdict::Tie);
        assert!(matches!(judge(false), PruneVerdict::Keep(_)));
    }

    #[test]
    fn simplest_in_matches_the_exact_search() {
        let pairs = [
            (r(0, 1), r(1, 1)),
            (r(1, 3), r(1, 2)),
            (r(5, 7), r(3, 4)),
            (r(3, 11), r(4, 15)),
            (r(9, 10), r(10, 11)),
            (r(43, 12), r(25, 7)),
            (r(5, 2), r(40, 1)),
        ];
        for (x, y) in pairs {
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            let want = simplest_ratio_between(lo, hi);
            assert_eq!(simplest_in(lo.to_f64(), hi.to_f64(), 1_000), Some(want));
            let cap = want.a().max(want.b()) - 1;
            assert_eq!(simplest_in(lo.to_f64(), hi.to_f64(), cap), None);
        }
        assert_eq!(simplest_in(5.3, f64::INFINITY, 10), Some(r(6, 1)));
        assert_eq!(simplest_in(0.0, 0.01, 1_000), Some(r(1, 101)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every ratio inside a certificate's zone has a transfer bound
        /// strictly below the incumbent (in `f64`), and every rational
        /// there passes the exact "cannot beat" test.
        #[test]
        fn zone_ratios_cannot_beat_the_incumbent(
            (a0, b0) in (1u64..40, 1u64..40),
            (edges, s, t) in (1u64..400, 1u64..30, 1u64..30),
            permille in 200u32..=1_000,
            steps in proptest::collection::vec(0u32..=1_000, 8),
        ) {
            let best = Density::new(edges, s, t);
            let rho = best.to_f64();
            let c0 = Ratio::new(a0, b0);
            let root_ab = ((c0.a() * c0.b()) as f64).sqrt();
            // β*(c₀) = permille‰ of ρ̃·√(a₀b₀), rounded down to a rational.
            let beta = rho * root_ab * f64::from(permille) / 1_000.0;
            let bound = Frac::new((beta * 1e6).floor() as i128, 1_000_000);
            let certificate = Certificate::new(c0, bound);
            let target = rho * (1.0 - PRUNE_MARGIN) / (1.0 + PRUNE_MARGIN);
            let Some((lo, hi)) = cert_zone(&certificate, target) else {
                return Ok(());
            };
            proptest::prop_assert!(0.0 < lo && lo <= hi);
            let g0 = bound.to_f64() / root_ab;
            for step in steps.into_iter().chain([0, 1_000]) {
                let c = lo * (hi / lo).powf(f64::from(step) / 1_000.0);
                let c = c.clamp(lo, hi);
                proptest::prop_assert!(
                    g0 * gamma(c0.to_f64(), c) < rho,
                    "c'={c} in [{lo}, {hi}] reaches ρ̃={rho}"
                );
            }
            for p in 1..=40 {
                for q in 1..=40 {
                    let c = Ratio::new(p, q);
                    if (lo..=hi).contains(&c.to_f64()) {
                        proptest::prop_assert!(transfer_cannot_beat(&certificate, c, best));
                    }
                }
            }
        }
    }

    use dds_graph::DiGraph;
}
