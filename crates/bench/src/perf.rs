//! Machine-readable perf trajectory for the streaming experiments.
//!
//! `dds-bench full [--quick] [--dir D]` runs the perf-tracked experiments
//! (the streaming suite E12–E16, the worker-pool exact kernel E17, the
//! query-serving tier E18, the admin introspection plane E19, and the
//! cross-process cluster tier E20) and writes one `BENCH_<EXP>.json` per
//! experiment; `dds-bench compare [--dir D]` re-runs each experiment in
//! the mode its committed baseline records and diffs the counters,
//! failing on regressions past tolerance. The JSON is deliberately flat
//! — one `"key": value` pair per line — so [`parse_record`] needs no
//! JSON library and doubles as the schema validator CI runs.
//!
//! A record is read off the headline row of the table its experiment
//! function in [`crate::experiments`] prints, and that function asserts
//! the experiment's contracts as it runs. The committed records are full
//! mode, so `compare` runs every contract at its full size, and its
//! counter rule bounds the work each one does.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use crate::experiments;

/// The experiments `full`/`compare` cover, in order.
pub const EXPERIMENTS: [&str; 9] = [
    "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "e20",
];

/// Relative tolerance on deterministic counters when comparing runs.
/// The streams are seeded and the engines deterministic, so counters
/// should match exactly; the slack absorbs deliberate small tunings
/// without letting a policy regression (2x refresh storm) through.
pub const COUNTER_TOLERANCE: f64 = 0.10;
/// Absolute slack on tiny counters (|new - old| ≤ this always passes).
pub const COUNTER_SLACK: u64 = 2;
/// Relative tolerance on realized factors (bracket quality).
pub const FACTOR_TOLERANCE: f64 = 0.10;
/// Wall-clock tolerance: `new ≤ old * WALL_FACTOR + WALL_SLACK_MS`.
/// Generous on purpose — baselines travel between machines; the wall
/// check only catches order-of-magnitude cost regressions.
pub const WALL_FACTOR: f64 = 5.0;
/// Absolute wall slack in milliseconds.
pub const WALL_SLACK_MS: u64 = 1_000;

/// One experiment's measured perf record.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Experiment id (`e12`…`e20`).
    pub exp: String,
    /// Workload mode: `quick` or `full`.
    pub mode: String,
    /// Wall-clock of the measured replay, in milliseconds.
    pub wall_ms: u64,
    /// Deterministic work counters (epochs, re-solves, flow decisions…).
    pub counters: BTreeMap<String, u64>,
    /// Realized quality factors (certified bracket ratios and the like).
    pub factors: BTreeMap<String, f64>,
}

impl BenchRecord {
    /// Renders the flat JSON document [`parse_record`] accepts.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut entries = vec![
            format!("  \"exp\": \"{}\"", self.exp),
            format!("  \"mode\": \"{}\"", self.mode),
            format!("  \"wall_ms\": {}", self.wall_ms),
        ];
        for (k, v) in &self.counters {
            entries.push(format!("  \"counter.{k}\": {v}"));
        }
        for (k, v) in &self.factors {
            entries.push(format!("  \"factor.{k}\": {v:.6}"));
        }
        let mut s = String::from("{\n");
        let _ = write!(s, "{}", entries.join(",\n"));
        s.push_str("\n}\n");
        s
    }

    /// A record of `exp` in quick or full mode, from named counters and
    /// factors.
    #[must_use]
    pub fn new<const C: usize, const F: usize>(
        exp: &str,
        quick: bool,
        wall: Duration,
        counters: [(&str, u64); C],
        factors: [(&str, f64); F],
    ) -> Self {
        BenchRecord {
            exp: exp.to_string(),
            mode: if quick { "quick" } else { "full" }.to_string(),
            wall_ms: wall.as_millis() as u64,
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            factors: factors.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    /// The file name a record lands under: `BENCH_E12.json` etc.
    #[must_use]
    pub fn file_name(exp: &str) -> String {
        format!("BENCH_{}.json", exp.to_uppercase())
    }
}

/// Parses (and thereby schema-validates) a [`BenchRecord`] JSON document:
/// a flat object, one pair per line, with required `exp`/`mode`/`wall_ms`
/// keys and only `counter.*` (non-negative integer) / `factor.*` (finite
/// number) keys besides.
///
/// # Errors
/// Returns a description of the first schema violation.
pub fn parse_record(text: &str) -> Result<BenchRecord, String> {
    let mut exp = None;
    let mut mode = None;
    let mut wall_ms = None;
    let mut counters = BTreeMap::new();
    let mut factors = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim().trim_end_matches(',');
        if trimmed.is_empty() || trimmed == "{" || trimmed == "}" {
            continue;
        }
        let (key, value) = trimmed
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected \"key\": value", i + 1))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("line {}: key must be double-quoted", i + 1))?;
        let value = value.trim();
        match key {
            "exp" => exp = Some(parse_json_string(value, i + 1)?),
            "mode" => mode = Some(parse_json_string(value, i + 1)?),
            "wall_ms" => {
                wall_ms = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("line {}: wall_ms must be an integer", i + 1))?,
                );
            }
            _ => {
                if let Some(name) = key.strip_prefix("counter.") {
                    let v = value.parse::<u64>().map_err(|_| {
                        format!("line {}: counter {name:?} must be an integer", i + 1)
                    })?;
                    counters.insert(name.to_string(), v);
                } else if let Some(name) = key.strip_prefix("factor.") {
                    let v = value
                        .parse::<f64>()
                        .map_err(|_| format!("line {}: factor {name:?} must be a number", i + 1))?;
                    if !v.is_finite() {
                        return Err(format!("line {}: factor {name:?} must be finite", i + 1));
                    }
                    factors.insert(name.to_string(), v);
                } else {
                    return Err(format!("line {}: unknown key {key:?}", i + 1));
                }
            }
        }
    }
    let exp = exp.ok_or("missing \"exp\"")?;
    if !EXPERIMENTS.contains(&exp.as_str()) {
        return Err(format!("unknown experiment {exp:?}"));
    }
    let mode = mode.ok_or("missing \"mode\"")?;
    if mode != "quick" && mode != "full" {
        return Err(format!("mode must be \"quick\" or \"full\", got {mode:?}"));
    }
    Ok(BenchRecord {
        exp,
        mode,
        wall_ms: wall_ms.ok_or("missing \"wall_ms\"")?,
        counters,
        factors,
    })
}

fn parse_json_string(value: &str, line: usize) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("line {line}: expected a double-quoted string"))
}

/// Measures one experiment's perf record by running its experiment
/// function, which prints the experiment's table and asserts its
/// contracts. Streams are seeded and the engines deterministic, so
/// everything but `wall_ms` is reproducible.
///
/// # Panics
/// Panics on an unknown experiment id, or when a contract fails.
#[must_use]
pub fn measure(exp: &str, quick: bool) -> BenchRecord {
    assert!(
        EXPERIMENTS.contains(&exp),
        "unknown experiment {exp:?} (expected e12..e20)"
    );
    experiments::run(exp, quick).expect("a perf-tracked experiment returns its record")
}

/// Runs every experiment and writes the `BENCH_*.json` files into `dir`,
/// re-reading each file through [`parse_record`] so an emission that
/// fails the schema check (or drops a counter) dies here, not in CI's
/// later `compare`.
///
/// # Errors
/// Returns the first IO failure; an emitted file that fails its own
/// schema check surfaces as [`std::io::ErrorKind::InvalidData`].
pub fn run_full(dir: &Path, quick: bool) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for exp in EXPERIMENTS {
        let record = measure(exp, quick);
        let path = dir.join(BenchRecord::file_name(exp));
        std::fs::write(&path, record.to_json())?;
        let reread = parse_record(&std::fs::read_to_string(&path)?)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        // Factors round-trip through a fixed-precision rendering, so only
        // the exact fields take part in the identity check.
        if (&reread.exp, &reread.mode, reread.wall_ms, &reread.counters)
            != (&record.exp, &record.mode, record.wall_ms, &record.counters)
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: emitted record did not round-trip", path.display()),
            ));
        }
        println!(
            "{exp}: {} ms, {} counters, {} factors -> {}",
            record.wall_ms,
            record.counters.len(),
            record.factors.len(),
            path.display(),
        );
    }
    Ok(())
}

/// One counter/factor/wall deviation found by [`compare`].
#[derive(Clone, Debug)]
pub struct Regression {
    /// Experiment id.
    pub exp: String,
    /// What regressed (counter/factor name or `wall_ms`).
    pub what: String,
    /// Baseline value (formatted).
    pub old: String,
    /// Fresh value (formatted).
    pub new: String,
}

/// Re-measures each committed baseline in its recorded mode and diffs.
/// Returns the list of regressions (empty = pass).
///
/// # Errors
/// Returns a description if a baseline is missing or fails the schema.
pub fn compare(dir: &Path) -> Result<Vec<Regression>, String> {
    let mut regressions = Vec::new();
    for exp in EXPERIMENTS {
        let path = dir.join(BenchRecord::file_name(exp));
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "reading {}: {e} (run `dds-bench full` first)",
                path.display()
            )
        })?;
        let old = parse_record(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if old.exp != exp {
            return Err(format!(
                "{}: records {:?}, expected {exp:?}",
                path.display(),
                old.exp
            ));
        }
        let new = measure(exp, old.mode == "quick");
        for (name, &old_v) in &old.counters {
            let new_v = new.counters.get(name).copied().unwrap_or(0);
            if counter_regressed(old_v, new_v) {
                regressions.push(Regression {
                    exp: exp.to_string(),
                    what: format!("counter.{name}"),
                    old: old_v.to_string(),
                    new: new_v.to_string(),
                });
            }
        }
        for (name, &old_v) in &old.factors {
            let new_v = new.factors.get(name).copied().unwrap_or(f64::INFINITY);
            if (new_v - old_v).abs() > old_v.abs() * FACTOR_TOLERANCE {
                regressions.push(Regression {
                    exp: exp.to_string(),
                    what: format!("factor.{name}"),
                    old: format!("{old_v:.4}"),
                    new: format!("{new_v:.4}"),
                });
            }
        }
        let wall_cap = (old.wall_ms as f64 * WALL_FACTOR) as u64 + WALL_SLACK_MS;
        if new.wall_ms > wall_cap {
            regressions.push(Regression {
                exp: exp.to_string(),
                what: "wall_ms".to_string(),
                old: format!("{} (cap {wall_cap})", old.wall_ms),
                new: new.wall_ms.to_string(),
            });
        }
        println!(
            "{exp} ({}): wall {} -> {} ms, {} counters checked",
            old.mode,
            old.wall_ms,
            new.wall_ms,
            old.counters.len(),
        );
    }
    Ok(regressions)
}

/// Counter comparison: both directions matter (fewer refreshes than the
/// baseline can mean a broken certificate just as more can mean a storm).
fn counter_regressed(old: u64, new: u64) -> bool {
    let diff = old.abs_diff(new);
    diff > COUNTER_SLACK && diff as f64 > old as f64 * COUNTER_TOLERANCE
}

/// The committed record of `exp` at the repository root.
#[cfg(test)]
pub(crate) fn committed_record(exp: &str) -> BenchRecord {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(BenchRecord::file_name(exp));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    parse_record(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let record = BenchRecord::new(
            "e12",
            true,
            Duration::from_millis(42),
            [("epochs", 7), ("resolves", 2)],
            [("max_certified", 1.25)],
        );
        let parsed = parse_record(&record.to_json()).unwrap();
        assert_eq!(parsed, record);
    }

    #[test]
    fn schema_violations_are_rejected() {
        for (text, why) in [
            ("{\n}\n", "missing exp"),
            ("{\n  \"exp\": \"e12\",\n  \"mode\": \"quick\"\n}\n", "missing wall_ms"),
            (
                "{\n  \"exp\": \"e99\",\n  \"mode\": \"quick\",\n  \"wall_ms\": 1\n}\n",
                "unknown experiment",
            ),
            (
                "{\n  \"exp\": \"e12\",\n  \"mode\": \"slow\",\n  \"wall_ms\": 1\n}\n",
                "bad mode",
            ),
            (
                "{\n  \"exp\": \"e12\",\n  \"mode\": \"quick\",\n  \"wall_ms\": 1,\n  \"bogus\": 3\n}\n",
                "unknown key",
            ),
            (
                "{\n  \"exp\": \"e12\",\n  \"mode\": \"quick\",\n  \"wall_ms\": 1,\n  \"counter.x\": 1.5\n}\n",
                "non-integer counter",
            ),
        ] {
            assert!(parse_record(text).is_err(), "{why} must fail schema");
        }
    }

    #[test]
    fn counter_tolerance_passes_small_and_catches_big_drift() {
        assert!(!counter_regressed(100, 100));
        assert!(!counter_regressed(100, 109));
        assert!(counter_regressed(100, 120));
        assert!(counter_regressed(100, 80));
        // Tiny counters ride the absolute slack.
        assert!(!counter_regressed(1, 3));
        assert!(counter_regressed(1, 4));
    }

    /// `compare` re-measures in each record's mode, so a quick record
    /// would shrink the gate its experiment runs in CI.
    #[test]
    fn committed_records_are_full_mode() {
        for exp in EXPERIMENTS {
            let record = committed_record(exp);
            assert_eq!(record.exp, exp, "BENCH_{exp} names another experiment");
            assert_eq!(record.mode, "full", "BENCH_{exp} is not a full-mode record");
        }
    }

    #[test]
    fn measure_is_deterministic_on_counters() {
        let a = measure("e12", true);
        let b = measure("e12", true);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.factors, b.factors);
    }
}
