//! Metric bookkeeping: name/unit validation, the percentile rule, and the
//! one-line JSON result the run ends with.

use std::fmt::Write as _;

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// then at most 64 characters of `[A-Za-z0-9_.-]` in total.
pub fn valid_name(name: &str) -> bool {
    let starts_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile levels a tail is picked from, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// One reported percentile and the samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// Percentile level, 0–100.
    pub level: f64,
    /// The sample at that level (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples lie strictly after it in rank order.
    pub beyond: usize,
}

impl Pct {
    /// `p99.5 of 4000 samples, 20 beyond` — printed beside every
    /// percentile.
    pub fn describe(&self) -> String {
        format!(
            "p{} of {} samples, {} beyond",
            self.level, self.samples, self.beyond
        )
    }
}

/// The `level` percentile (nearest rank) of `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], level: f64) -> Option<Pct> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps float error (0.999 * 10000 = 9990.000000000002)
    // from pushing the rank one past the exact value.
    let rank = ((level / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    let beyond = n - rank.min(n);
    (beyond >= MIN_BEYOND).then(|| Pct {
        level,
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// The highest percentile of the ladder that still has [`MIN_BEYOND`]
/// samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<Pct> {
    TAIL_LADDER.iter().find_map(|&p| percentile(sorted, p))
}

/// Sorts samples for [`percentile`] and [`tail`].
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median of `values` (mean of the middle pair when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// One named, united value plus an optional note (sample counts, what a
/// zero means) printed beside it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// An ordered set of metrics with unique, validated names.
#[derive(Clone, Debug, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// Adds a metric.
    ///
    /// # Panics
    /// Panics on an invalid or repeated name or unit, or a non-finite
    /// value: all three are bugs in the benchmark itself.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds a percentile metric; an unreportable percentile (too few
    /// samples beyond it) reads 0 and says why.
    pub fn put_pct(&mut self, name: &str, pct: Option<Pct>, samples: usize) {
        match pct {
            Some(p) => self.put(name, p.value, "us", p.describe()),
            None => self.put(
                name,
                0.0,
                "us",
                format!("not reported: {samples} samples leave fewer than {MIN_BEYOND} beyond"),
            ),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// The subset named by `names`, in that order.
    ///
    /// # Panics
    /// Panics if one is missing.
    pub fn select(&self, names: &[&str]) -> MetricSet {
        MetricSet {
            metrics: names
                .iter()
                .map(|n| {
                    self.get(n)
                        .unwrap_or_else(|| panic!("metric {n} was not measured"))
                        .clone()
                })
                .collect(),
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` with every digit of each
    /// value.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("write to string");
        }
        out.push('}');
        out
    }
}

/// A finite f64 as a JSON number (Rust's shortest round-trip form).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "JSON has no non-finite numbers");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run's last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_pattern() {
        for ok in [
            "setup_s",
            "core.pool_tasks",
            "flow.network_edges",
            "a",
            "9x",
            "x-y.z_1",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "p99%",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn units_follow_the_pattern() {
        for ok in ["s", "ms", "us", "1/s", "%", "MB", "count", "x"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "two words", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 is rank 90: exactly 10 beyond, reportable.
        let p90 = percentile(&s, 90.0).expect("10 beyond");
        assert_eq!((p90.value, p90.beyond, p90.samples), (90.0, 10, 100));
        // p91 leaves 9 beyond: refused.
        assert_eq!(percentile(&s, 91.0), None);
        assert_eq!(percentile(&s, 99.0), None);
        // p99 needs 1000 samples.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&big, 99.0).expect("1000 samples");
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        // A median needs 20 samples.
        assert!(percentile(&s[..19], 50.0).is_none());
        assert_eq!(percentile(&s[..20], 50.0).map(|p| p.value), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_reportable_level() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s).map(|p| p.level), Some(99.0));
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&s).map(|p| p.level), Some(99.9));
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&s).map(|p| p.level), Some(75.0));
        assert_eq!(tail(&s[..15]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = MetricSet::default();
        m.put("pass_s", 1.25, "s", "");
        m.put("peak_rss_mb", 3.0, "MB", "");
        assert_eq!(
            result_line(true, 7, 0, &m),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"pass_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 3.0, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_refused_when_reported() {
        MetricSet::default().put("bad name", 1.0, "s", "");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn names_are_used_once() {
        let mut m = MetricSet::default();
        m.put("pass_s", 1.0, "s", "");
        m.put("pass_s", 2.0, "s", "");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
