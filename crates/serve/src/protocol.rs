//! The line-oriented query protocol.
//!
//! One query per `\n`-terminated line, one response line per query. Every
//! response — including errors — carries `epoch=<id>` so clients can
//! assert that the epochs they observe never go backwards (the
//! stale-read check in the oracle test and E18).
//!
//! Grammar (tokens separated by ASCII whitespace, queries case-insensitive):
//!
//! ```text
//! DENSITY            -> OK DENSITY epoch=E n=N m=M density=D lower=L upper=U
//! MEMBER v           -> OK MEMBER epoch=E v=V side=S|T|BOTH|NONE
//! CORE x y v         -> OK CORE epoch=E x=X y=Y v=V side=S|T|BOTH|NONE
//! TOPK k             -> OK TOPK epoch=E k=K [d:|S|:|T| ...]
//! STATS              -> OK STATS epoch=E queries=Q errors=R connections=C
//!                       publishes=P readers=N busy=B age_epochs=A
//!                       tail_bytes=T seal_publish_us=S idle_ms=I
//! QUIT               -> (connection closes, no response)
//! anything else      -> ERR epoch=E <message>
//! line over 8 KiB    -> ERR epoch=E line too long (connection closes)
//! ```
//!
//! `MEMBER` answers against the certified witness pair (`S` and `T` may
//! overlap, hence `BOTH`). `CORE x y v` is answered only when the
//! publisher maintains exactly the `[x, y]`-core; asking for a different
//! core is an `ERR` naming the one being served, not a silent wrong
//! answer. `TOPK k` serves the publish-time top-k list truncated to `k`.
//! `STATS` reports the serving-side counters plus the `dds_lag_*` gauges
//! (see [`ServeMetrics`]); `queries` counts queries *answered before*
//! this one.

use crate::server::ServeMetrics;
use crate::snapshot::{Bitset, EpochSnapshot};

/// A parsed query line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// `DENSITY`: the certified bracket of the current epoch.
    Density,
    /// `MEMBER v`: which witness side(s) contain vertex `v`.
    Member(u32),
    /// `CORE x y v`: is `v` in the maintained `[x, y]`-core.
    Core(u64, u64, u32),
    /// `TOPK k`: the best `k` published dense pairs.
    TopK(usize),
    /// `STATS`: serving-side counters and lag gauges.
    Stats,
    /// `QUIT`: close the connection.
    Quit,
}

/// Parses one query line. `Err` is the human-readable message to ship
/// back inside an `ERR` response.
pub fn parse_query(line: &str) -> Result<Query, String> {
    let mut it = line.split_ascii_whitespace();
    let Some(verb) = it.next() else {
        return Err("empty query".into());
    };
    let query = match verb.to_ascii_uppercase().as_str() {
        "DENSITY" => Query::Density,
        "MEMBER" => Query::Member(field(it.next(), "MEMBER needs a vertex id")?),
        "CORE" => {
            let x = field(it.next(), "CORE needs x y v")?;
            let y = field(it.next(), "CORE needs x y v")?;
            let v = field(it.next(), "CORE needs x y v")?;
            Query::Core(x, y, v)
        }
        "TOPK" => Query::TopK(field(it.next(), "TOPK needs k")?),
        "STATS" => Query::Stats,
        "QUIT" => Query::Quit,
        other => return Err(format!("unknown query {other:?}")),
    };
    if it.next().is_some() {
        return Err(format!("trailing tokens after {verb}"));
    }
    Ok(query)
}

fn field<T: std::str::FromStr>(tok: Option<&str>, msg: &str) -> Result<T, String> {
    let tok = tok.ok_or_else(|| msg.to_string())?;
    tok.parse()
        .map_err(|_| format!("bad argument {tok:?}: {msg}"))
}

/// Which side(s) of a two-sided vertex set contain `v`.
fn side(s: &Bitset, t: &Bitset, v: u32) -> &'static str {
    match (s.contains(v), t.contains(v)) {
        (true, true) => "BOTH",
        (true, false) => "S",
        (false, true) => "T",
        (false, false) => "NONE",
    }
}

/// Answers a parsed query against one immutable snapshot.
///
/// `Ok` is the full `OK ...` line; `Err` is the message body of an
/// `ERR epoch=<e> ...` line. [`Query::Quit`] never reaches this function.
pub fn answer(snap: &EpochSnapshot, query: Query) -> Result<String, String> {
    match query {
        Query::Density => Ok(format!(
            "OK DENSITY epoch={} n={} m={} density={:.6} lower={:.6} upper={:.6}",
            snap.epoch, snap.n, snap.m, snap.density, snap.lower, snap.upper
        )),
        Query::Member(v) => Ok(format!(
            "OK MEMBER epoch={} v={} side={}",
            snap.epoch,
            v,
            side(&snap.witness_s, &snap.witness_t, v)
        )),
        Query::Core(x, y, v) => {
            let Some(core) = snap.core.as_ref() else {
                return Err("no core maintained (enable with --core X,Y)".into());
            };
            if (core.x, core.y) != (x, y) {
                return Err(format!(
                    "core [{x},{y}] not maintained (serving [{},{}])",
                    core.x, core.y
                ));
            }
            Ok(format!(
                "OK CORE epoch={} x={x} y={y} v={v} side={}",
                snap.epoch,
                side(&core.s, &core.t, v)
            ))
        }
        Query::TopK(k) => {
            let served = snap.top_k.len().min(k);
            let mut line = format!("OK TOPK epoch={} k={served}", snap.epoch);
            for entry in &snap.top_k[..served] {
                use std::fmt::Write as _;
                let _ = write!(
                    line,
                    " {:.6}:{}:{}",
                    entry.density, entry.s_size, entry.t_size
                );
            }
            Ok(line)
        }
        Query::Stats => Err("stats are not served on this endpoint".into()),
        Query::Quit => unreachable!("QUIT is handled by the connection loop"),
    }
}

/// Answers `STATS` from the live serving metrics (relaxed atomic loads
/// only — the same lock-free read discipline as the admin plane).
#[must_use]
pub fn answer_stats(snap: &EpochSnapshot, metrics: &ServeMetrics) -> String {
    format!(
        "OK STATS epoch={} queries={} errors={} connections={} publishes={} \
         readers={} busy={} age_epochs={} tail_bytes={} seal_publish_us={} idle_ms={}",
        snap.epoch,
        metrics.queries.get(),
        metrics.query_errors.get(),
        metrics.connections.get(),
        metrics.publishes.get(),
        metrics.readers.get(),
        metrics.readers_busy.get(),
        metrics.lag.snapshot_age_epochs.get(),
        metrics.lag.tail_bytes.get(),
        metrics.lag.seal_publish_us.get(),
        metrics.lag.follow_idle_ms.get(),
    )
}

/// Parses and answers one raw line. Returns the response text and whether
/// it is an error response; `None` means the client asked to `QUIT`.
/// `STATS` answers from `metrics` when given and is an `ERR` otherwise
/// (endpoints that only have a snapshot to serve).
pub fn respond_with(
    snap: &EpochSnapshot,
    metrics: Option<&ServeMetrics>,
    line: &str,
) -> Option<(String, bool)> {
    match parse_query(line) {
        Ok(Query::Quit) => None,
        Ok(Query::Stats) => Some(match metrics {
            Some(m) => (answer_stats(snap, m), false),
            None => (
                format!(
                    "ERR epoch={} stats are not served on this endpoint",
                    snap.epoch
                ),
                true,
            ),
        }),
        Ok(query) => Some(match answer(snap, query) {
            Ok(ok) => (ok, false),
            Err(msg) => (format!("ERR epoch={} {msg}", snap.epoch), true),
        }),
        Err(msg) => Some((format!("ERR epoch={} {msg}", snap.epoch), true)),
    }
}

/// [`respond_with`] without a metrics source.
pub fn respond(snap: &EpochSnapshot, line: &str) -> Option<(String, bool)> {
    respond_with(snap, None, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CoreSnapshot, TopKEntry};

    fn snap() -> EpochSnapshot {
        let mut s = EpochSnapshot::empty();
        s.epoch = 7;
        s.n = 10;
        s.m = 12;
        s.density = 2.5;
        s.lower = 2.5;
        s.upper = 3.0;
        s.witness_s = Bitset::from_ids(10, &[1, 2]);
        s.witness_t = Bitset::from_ids(10, &[2, 3]);
        s.core = Some(CoreSnapshot {
            x: 2,
            y: 1,
            s: Bitset::from_ids(10, &[4]),
            t: Bitset::from_ids(10, &[5]),
        });
        s.top_k = vec![
            TopKEntry {
                density: 2.5,
                s_size: 2,
                t_size: 2,
            },
            TopKEntry {
                density: 1.0,
                s_size: 1,
                t_size: 1,
            },
        ];
        s
    }

    #[test]
    fn parse_accepts_the_grammar() {
        assert_eq!(parse_query("DENSITY"), Ok(Query::Density));
        assert_eq!(parse_query("  member 3 "), Ok(Query::Member(3)));
        assert_eq!(parse_query("CORE 2 1 9"), Ok(Query::Core(2, 1, 9)));
        assert_eq!(parse_query("topk 4"), Ok(Query::TopK(4)));
        assert_eq!(parse_query("QUIT"), Ok(Query::Quit));
        assert!(parse_query("").is_err());
        assert!(parse_query("MEMBER").is_err());
        assert!(parse_query("MEMBER x").is_err());
        assert!(parse_query("CORE 1 2").is_err());
        assert!(parse_query("DENSITY now").is_err());
        assert!(parse_query("EXPLODE").is_err());
    }

    #[test]
    fn answers_carry_the_epoch_and_sides() {
        let snap = snap();
        let density = answer(&snap, Query::Density).unwrap();
        assert_eq!(
            density,
            "OK DENSITY epoch=7 n=10 m=12 density=2.500000 lower=2.500000 upper=3.000000"
        );
        assert!(answer(&snap, Query::Member(1)).unwrap().ends_with("side=S"));
        assert!(answer(&snap, Query::Member(2))
            .unwrap()
            .ends_with("side=BOTH"));
        assert!(answer(&snap, Query::Member(3)).unwrap().ends_with("side=T"));
        assert!(answer(&snap, Query::Member(99))
            .unwrap()
            .ends_with("side=NONE"));
        assert!(answer(&snap, Query::Core(2, 1, 4))
            .unwrap()
            .ends_with("side=S"));
        assert!(answer(&snap, Query::Core(2, 1, 6))
            .unwrap()
            .ends_with("side=NONE"));
        let mismatch = answer(&snap, Query::Core(3, 3, 4)).unwrap_err();
        assert!(mismatch.contains("serving [2,1]"), "{mismatch}");
        assert_eq!(
            answer(&snap, Query::TopK(5)).unwrap(),
            "OK TOPK epoch=7 k=2 2.500000:2:2 1.000000:1:1"
        );
        assert_eq!(
            answer(&snap, Query::TopK(1)).unwrap().matches(':').count(),
            2
        );
    }

    #[test]
    fn respond_wraps_errors_and_quit() {
        let snap = snap();
        assert!(respond(&snap, "QUIT").is_none());
        let (text, err) = respond(&snap, "BOGUS").unwrap();
        assert!(err && text.starts_with("ERR epoch=7 "), "{text}");
        let (text, err) = respond(&snap, "DENSITY").unwrap();
        assert!(!err && text.starts_with("OK DENSITY "), "{text}");
    }
}
