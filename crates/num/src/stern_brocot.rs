//! Minimum-denominator fraction search inside an open interval.

use crate::Frac;

/// Returns the unique fraction with the smallest denominator (ties broken by
/// smallest numerator) strictly inside the open interval `(lo, hi)`.
///
/// The exact DDS search uses it on the `|S|/|T|` ratio space: the
/// divide-and-conquer engine solves the simplest ratio inside each open
/// ratio interval (for Stern–Brocot neighbours, their mediant), and since
/// every rational strictly inside the interval is a Stern–Brocot
/// descendant of that one, a simplest ratio with a component above `n`
/// certifies that the interval holds no candidate ratio.
///
/// Implementation: the classic continued-fraction walk. When the interval
/// contains an integer, the smallest one wins; otherwise both endpoints
/// share their integer part `k` and the problem recurses on the reciprocal
/// interval (order flips), with `x = k + 1/y`. The recursion depth is the
/// length of the continued-fraction expansion, i.e. `O(log den)`.
///
/// # Panics
/// Panics unless `0 ≤ lo < hi`.
#[must_use]
pub fn simplest_between(lo: Frac, hi: Frac) -> Frac {
    assert!(!lo.is_negative(), "simplest_between requires lo ≥ 0");
    assert!(lo < hi, "simplest_between requires lo < hi");
    simplest_rec(lo, hi)
}

fn simplest_rec(lo: Frac, hi: Frac) -> Frac {
    let next_int = lo.floor() + 1; // smallest integer strictly above lo
    if Frac::from(next_int) < hi {
        return Frac::from(next_int);
    }
    // No integer inside: every candidate is fl + 1/y with
    // y ∈ (1/(hi − fl), 1/(lo − fl)); lo == fl makes the upper end +∞.
    let fl = Frac::from(lo.floor());
    let lo_frac = lo - fl;
    let hi_frac = hi - fl;
    let new_lo = hi_frac.recip();
    let y = if lo_frac.is_zero() {
        Frac::from(new_lo.floor() + 1) // simplest in (new_lo, +∞)
    } else {
        simplest_rec(new_lo, lo_frac.recip())
    };
    fl + y.recip()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(n: i128, d: i128) -> Frac {
        Frac::new(n, d)
    }

    #[test]
    fn picks_integers_when_available() {
        assert_eq!(simplest_between(f(5, 2), f(7, 2)), f(3, 1));
        assert_eq!(simplest_between(f(0, 1), f(3, 1)), f(1, 1));
        // Smallest integer wins, not the midpoint.
        assert_eq!(simplest_between(f(3, 2), f(100, 1)), f(2, 1));
    }

    #[test]
    fn unit_interval() {
        assert_eq!(simplest_between(f(0, 1), f(1, 1)), f(1, 2));
        assert_eq!(simplest_between(f(1, 1), f(2, 1)), f(3, 2));
    }

    #[test]
    fn classic_cases() {
        assert_eq!(simplest_between(f(1, 3), f(1, 2)), f(2, 5));
        assert_eq!(simplest_between(f(5, 7), f(3, 4)), f(8, 11));
        // Interval around an excluded simple value: (1/2, 1/2 + tiny).
        let lo = f(1, 2);
        let hi = f(1, 2) + f(1, 1_000);
        let got = simplest_between(lo, hi);
        assert!(lo < got && got < hi);
    }

    #[test]
    fn endpoints_are_excluded() {
        let got = simplest_between(f(2, 5), f(3, 5));
        assert_eq!(got, f(1, 2));
        assert_ne!(got, f(2, 5));
        assert_ne!(got, f(3, 5));
    }

    /// Brute-force check of minimality: no fraction with a smaller
    /// denominator — nor the same denominator and a smaller numerator —
    /// lies strictly inside the interval.
    fn assert_simplest(lo: Frac, hi: Frac) {
        let got = simplest_between(lo, hi);
        assert!(lo < got && got < hi, "{got:?} ∉ ({lo:?}, {hi:?})");
        let d_got = got.den();
        let n_got = got.num();
        for d in 1..=d_got {
            // Candidate numerators in (lo·d, hi·d).
            let n_min = (lo * Frac::from(d)).floor();
            let n_max = (hi * Frac::from(d)).ceil();
            for n in n_min..=n_max {
                let cand = Frac::new(n, d);
                if lo < cand && cand < hi {
                    assert!(
                        d > got.den() || (d == d_got && n >= n_got),
                        "{cand:?} is simpler than {got:?} in ({lo:?},{hi:?})"
                    );
                    // The first in-interval fraction at the minimal
                    // denominator must be the answer itself.
                    if d < d_got {
                        panic!("{cand:?} has smaller denominator than {got:?}");
                    }
                    return;
                }
            }
        }
        panic!("no fraction found up to denominator {d_got}");
    }

    #[test]
    fn exhaustive_minimality_on_a_grid() {
        // All ordered pairs of fractions with denominators ≤ 9 in [0, 3).
        let mut fracs = Vec::new();
        for d in 1..=9i128 {
            for n in 0..(3 * d) {
                fracs.push(Frac::new(n, d));
            }
        }
        fracs.sort();
        fracs.dedup();
        for i in 0..fracs.len() {
            for j in (i + 1)..fracs.len().min(i + 40) {
                assert_simplest(fracs[i], fracs[j]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn rejects_empty_interval() {
        let _ = simplest_between(f(1, 2), f(1, 2));
    }

    #[test]
    #[should_panic(expected = "lo ≥ 0")]
    fn rejects_negative_lo() {
        let _ = simplest_between(f(-1, 2), f(1, 2));
    }
}
