//! Exact numeric kernels used by the directed densest-subgraph (DDS)
//! algorithms.
//!
//! The exact algorithms in this workspace ([`dds-core`]) never trust floating
//! point for a *decision*: every comparison that affects correctness is done
//! in integer/rational arithmetic. This crate provides the pieces:
//!
//! * [`Frac`] — a reduced `i128` rational with exact, overflow-free ordering
//!   (comparisons go through 256-bit intermediate products);
//! * [`Density`] — the value `|E(S,T)| / sqrt(|S|·|T|)` kept in its exact
//!   `(edges, s, t)` form, with a total order that never rounds;
//! * [`Ratio`] — a reduced non-negative fraction `a/b` (with `b = 0` meaning
//!   `+∞`) used to index the `|S|/|T|` ratio space, plus Stern–Brocot
//!   mediants;
//! * [`simplest_between`] — the unique minimum-denominator fraction strictly
//!   inside an open interval, used to pick the test ratio inside a ratio
//!   interval and to certify that the interval holds no candidate ratio;
//! * [`isqrt`] — floor integer square root on `u128`, used to build rational
//!   under-approximations of irrational density bounds.
//!
//! [`dds-core`]: ../dds_core/index.html
//!
//! # Example
//!
//! ```
//! use dds_num::{Density, Frac, simplest_between};
//!
//! // Densities compare exactly even when irrational and nearly tied:
//! // 7/√6 ≈ 2.857738 vs 20/7 ≈ 2.857143.
//! assert!(Density::new(7, 2, 3) > Density::new(20, 7, 7));
//! // …and equality is mathematical: 5/√25 = 1/√1.
//! assert_eq!(Density::new(5, 5, 5), Density::new(1, 1, 1));
//!
//! // The simplest rational strictly between two bounds (the ratio
//! // search's test ratio): between 5/7 and 3/4 it is 8/11.
//! let g = simplest_between(Frac::new(5, 7), Frac::new(3, 4));
//! assert_eq!(g, Frac::new(8, 11));
//! ```

#![warn(missing_docs)]

mod density;
mod frac;
mod isqrt;
mod ratio;
mod stern_brocot;
mod wide;

pub use density::Density;
pub use frac::Frac;
pub use isqrt::isqrt;
pub use ratio::{candidate_ratios, Ratio};
pub use stern_brocot::simplest_between;
pub use wide::{cmp_prod, cmp_prod3, mul3_wide, mul_wide};

/// Greatest common divisor on `u128` (binary-free Euclid; inputs may be 0).
#[must_use]
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Greatest common divisor on `u64`.
#[must_use]
pub fn gcd64(a: u64, b: u64) -> u64 {
    gcd(u128::from(a), u128::from(b)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(u128::MAX, u128::MAX), u128::MAX);
    }

    #[test]
    fn gcd64_matches_gcd() {
        for a in [0u64, 1, 2, 6, 35, 1024, u64::MAX] {
            for b in [0u64, 1, 3, 14, 1024, u64::MAX] {
                assert_eq!(u128::from(gcd64(a, b)), gcd(a.into(), b.into()));
            }
        }
    }
}
