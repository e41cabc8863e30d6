//! Edge-stream event model and timestamped event-file IO.
//!
//! The on-disk format is line-oriented, in the same whitespace-tolerant
//! spirit as the SNAP/KONECT edge lists `dds-graph::io` reads:
//!
//! ```text
//! # comments with '#' or '%'
//! <time> + <u> <v>      insert edge u → v
//! <time> - <u> <v>      delete edge u → v
//! ```
//!
//! Timestamps are non-negative integers in arbitrary units; replay only
//! requires them to be non-decreasing when batching by time window.
//!
//! Both readers, [`read_events`] and [`crate::follow_events`], scan the
//! file's bytes through [`dds_graph::io::LineScanner`] and read each line
//! by the rule of [`dds_graph::io`]: fields split on ASCII whitespace;
//! the timestamp and the vertices are ASCII decimal with an optional
//! leading `+`; a comment line may hold any bytes; and a non-ASCII byte in
//! a data line is a parse error that names its line.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use dds_graph::io::{fields, for_each_line, parse_u32, parse_u64, show, NumberError};
use dds_graph::VertexId;

/// One edge mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Add the edge `u → v` (a no-op if already present or a self-loop).
    Insert(VertexId, VertexId),
    /// Remove the edge `u → v` (a no-op if absent).
    Delete(VertexId, VertexId),
}

/// An [`Event`] with its stream timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Stream time in arbitrary units (must be non-decreasing for
    /// time-window batching).
    pub time: u64,
    /// The mutation itself.
    pub event: Event,
}

/// A group of events applied atomically by [`crate::StreamEngine::apply`]:
/// bounds are updated per event, but the re-solve decision is made once
/// per batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Batch {
    /// Events in application order.
    pub events: Vec<TimedEvent>,
}

impl Batch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Batch::default()
    }

    /// Builds a batch from timestamped events.
    #[must_use]
    pub fn from_events(events: Vec<TimedEvent>) -> Self {
        Batch { events }
    }

    /// Appends an insertion (timestamp 0 — convenience for tests/examples).
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.insert_at(0, u, v)
    }

    /// Appends a deletion (timestamp 0 — convenience for tests/examples).
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.delete_at(0, u, v)
    }

    /// Appends a timestamped insertion. Timestamps drive the expiry ring
    /// of [`crate::WindowEngine`], which expects them non-decreasing.
    pub fn insert_at(&mut self, time: u64, u: VertexId, v: VertexId) -> &mut Self {
        self.events.push(TimedEvent {
            time,
            event: Event::Insert(u, v),
        });
        self
    }

    /// Appends a timestamped deletion.
    pub fn delete_at(&mut self, time: u64, u: VertexId, v: VertexId) -> &mut Self {
        self.events.push(TimedEvent {
            time,
            event: Event::Delete(u, v),
        });
        self
    }

    /// Number of events in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Errors from event-file IO.
#[derive(Debug)]
pub enum StreamError {
    /// A line failed to parse; carries the 1-based line number and reason.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong on that line.
        msg: String,
    },
    /// A line failed to parse mid-tail ([`crate::follow_events`]); beyond
    /// the line number it pins the exact stream position, so an operator
    /// can fix the producer and resume from a cursor before the damage.
    Tail {
        /// 1-based line number counted from the follow start cursor.
        line: usize,
        /// Byte offset where the offending line begins.
        byte: u64,
        /// Index of the next event (events successfully decoded before
        /// the offending line, counted from the follow start cursor).
        event: u64,
        /// What went wrong on that line.
        msg: String,
    },
    /// An underlying IO failure.
    Io(std::io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            StreamError::Tail {
                line,
                byte,
                event,
                msg,
            } => write!(f, "line {line} (byte {byte}, event {event}): {msg}"),
            StreamError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// Parses a timestamped event stream from a reader (see the module docs
/// for the bytes it accepts).
///
/// # Errors
/// Returns [`StreamError::Parse`] with the offending line number on
/// malformed input, [`StreamError::Io`] on read failure.
pub fn read_events(reader: impl Read) -> Result<Vec<TimedEvent>, StreamError> {
    let mut out = Vec::new();
    for_each_line(reader, |lineno, line| -> Result<(), StreamError> {
        out.extend(parse_event_line(line, lineno)?);
        Ok(())
    })?;
    Ok(out)
}

/// Parses one line of the event format: `Ok(None)` for blanks and
/// comments, `Ok(Some(event))` for a mutation. Shared by [`read_events`]
/// and the incremental tail loop in [`crate::follow_events`], so a
/// followed file and a batch-loaded file can never parse differently.
pub(crate) fn parse_event_line(
    line: &[u8],
    lineno: usize,
) -> Result<Option<TimedEvent>, StreamError> {
    let mut fields = fields(line);
    let Some(first) = fields.next() else {
        return Ok(None);
    };
    if first[0] == b'#' || first[0] == b'%' {
        return Ok(None);
    }
    let time = parse_field(Some(first), "timestamp", lineno, parse_u64)?;
    let op = fields
        .next()
        .ok_or_else(|| parse_error(lineno, format_args!("missing op (+ or -)")))?;
    let u = parse_field(fields.next(), "source vertex", lineno, parse_u32)?;
    let v = parse_field(fields.next(), "target vertex", lineno, parse_u32)?;
    if let Some(extra) = fields.next() {
        return Err(parse_error(
            lineno,
            format_args!("unexpected trailing field {}", show(extra)),
        ));
    }
    let event = match op {
        b"+" => Event::Insert(u, v),
        b"-" => Event::Delete(u, v),
        other => {
            return Err(parse_error(
                lineno,
                format_args!("unknown op {} (expected + or -)", show(other)),
            ))
        }
    };
    Ok(Some(TimedEvent { time, event }))
}

#[inline]
fn parse_field<T>(
    field: Option<&[u8]>,
    what: &str,
    line: usize,
    parse: impl Fn(&[u8]) -> Result<T, NumberError>,
) -> Result<T, StreamError> {
    let raw = field.ok_or_else(|| parse_error(line, format_args!("missing {what}")))?;
    parse(raw).map_err(|_| parse_error(line, format_args!("invalid {what} {}", show(raw))))
}

/// A [`StreamError::Parse`], built off the hot path.
#[cold]
fn parse_error(line: usize, msg: fmt::Arguments<'_>) -> StreamError {
    StreamError::Parse {
        line,
        msg: msg.to_string(),
    }
}

/// Reads an event file from `path` (see module docs for the format).
///
/// # Errors
/// Propagates [`read_events`] errors and file-open failures.
pub fn load_events(path: impl AsRef<Path>) -> Result<Vec<TimedEvent>, StreamError> {
    read_events(File::open(path)?)
}

/// Writes events in the textual format [`read_events`] parses.
///
/// # Errors
/// Returns [`StreamError::Io`] on write failure.
pub fn write_events(events: &[TimedEvent], writer: impl Write) -> Result<(), StreamError> {
    let mut w = BufWriter::new(writer);
    for ev in events {
        match ev.event {
            Event::Insert(u, v) => writeln!(w, "{} + {} {}", ev.time, u, v)?,
            Event::Delete(u, v) => writeln!(w, "{} - {} {}", ev.time, u, v)?,
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes an event file to `path` (see module docs for the format).
///
/// # Errors
/// Propagates [`write_events`] errors and file-create failures.
pub fn save_events(events: &[TimedEvent], path: impl AsRef<Path>) -> Result<(), StreamError> {
    write_events(events, File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::{BufRead, BufReader};

    /// A reader that returns 1–7 bytes per `read`, so lines straddle the
    /// scanner's refills.
    struct Trickle<'a> {
        rest: &'a [u8],
        state: u64,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let n = (1 + (self.state >> 33) as usize % 7)
                .min(self.rest.len())
                .min(buf.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    /// The `str` decoder the byte decoder replaced, kept as its oracle:
    /// `BufRead::lines`, `str::trim`, `split_whitespace` and `str::parse`.
    fn oracle(reader: impl Read) -> Result<Vec<TimedEvent>, StreamError> {
        let mut out = Vec::new();
        for (idx, line) in BufReader::new(reader).lines().enumerate() {
            if let Some(ev) = oracle_line(&line?, idx + 1)? {
                out.push(ev);
            }
        }
        Ok(out)
    }

    fn oracle_line(line: &str, lineno: usize) -> Result<Option<TimedEvent>, StreamError> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            return Ok(None);
        }
        let mut fields = trimmed.split_whitespace();
        let time: u64 = oracle_field(fields.next(), "timestamp", lineno)?;
        let op = fields.next().ok_or_else(|| StreamError::Parse {
            line: lineno,
            msg: "missing op (+ or -)".into(),
        })?;
        let u: VertexId = oracle_field(fields.next(), "source vertex", lineno)?;
        let v: VertexId = oracle_field(fields.next(), "target vertex", lineno)?;
        if let Some(extra) = fields.next() {
            return Err(StreamError::Parse {
                line: lineno,
                msg: format!("unexpected trailing field {extra:?}"),
            });
        }
        let event = match op {
            "+" => Event::Insert(u, v),
            "-" => Event::Delete(u, v),
            other => {
                return Err(StreamError::Parse {
                    line: lineno,
                    msg: format!("unknown op {other:?} (expected + or -)"),
                })
            }
        };
        Ok(Some(TimedEvent { time, event }))
    }

    fn oracle_field<T: std::str::FromStr>(
        field: Option<&str>,
        what: &str,
        line: usize,
    ) -> Result<T, StreamError> {
        let raw = field.ok_or_else(|| StreamError::Parse {
            line,
            msg: format!("missing {what}"),
        })?;
        raw.parse().map_err(|_| StreamError::Parse {
            line,
            msg: format!("invalid {what} {raw:?}"),
        })
    }

    /// A common set of fields and a rare one.
    type Sets = (&'static [&'static str], &'static [&'static str]);

    /// Numbers that parse, and ones at and just past `u32::MAX` and
    /// `u64::MAX`, signed, or not numbers.
    const NUMBERS: Sets = (
        &["0", "1", "2", "3", "17", "+4", "007", "4294967295"],
        &[
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "+",
            "-",
            "-1",
            "++1",
            "x",
            "1a",
            "99999999999x",
        ],
    );
    const OPS: Sets = (&["+", "-"], &["*", "++", "+-", "#", "x"]);
    /// The six whitespace bytes and runs of them, and separators that are
    /// not whitespace.
    const SPACES: Sets = (
        &[" ", "\t", "\x0B", "\x0C", "\r", "  ", " \t"],
        &["\n", "\x1C", ""],
    );
    const LEAD: Sets = (&["", "", " ", "\t\r"], &["\x0B", "\x0C "]);
    const TOKENS: [&str; 8] = ["#", "%", "*", "x", "+", "-", "5", "\x1C"];

    /// Draws from the second set once in `rare` draws, else from the first.
    fn draw((common, rarer): Sets, pick: usize, rare: usize) -> &'static str {
        if pick.is_multiple_of(rare) {
            rarer[pick / rare % rarer.len()]
        } else {
            common[pick / rare % common.len()]
        }
    }

    /// One generated line: a comment, an event (maybe with an extra
    /// field), or, once in `rare` lines, a run of tokens.
    fn event_line(p: &[usize], rare: usize) -> String {
        let draw = |sets: Sets, i: usize| draw(sets, p[i], rare);
        match p[0] % 16 {
            0 => format!(
                "{}{}{}",
                ["#", "%", " #", "\t%"][p[1] % 4],
                draw(SPACES, 2),
                TOKENS[p[3] % TOKENS.len()]
            ),
            _ if !p[0].is_multiple_of(rare) => {
                let mut line = format!(
                    "{}{}{}{}{}{}{}{}{}",
                    draw(LEAD, 1),
                    draw(NUMBERS, 2),
                    draw(SPACES, 3),
                    draw(OPS, 4),
                    draw(SPACES, 5),
                    draw(NUMBERS, 6),
                    draw(SPACES, 7),
                    draw(NUMBERS, 8),
                    draw(LEAD, 9),
                );
                if p[10].is_multiple_of(rare) {
                    line += draw(SPACES, 11);
                    line += draw(NUMBERS, 12);
                }
                line
            }
            _ => (0..p[1] % 6)
                .map(|i| {
                    let token = TOKENS[p[i + 2] % TOKENS.len()];
                    format!("{token}{}", draw(SPACES, i + 8))
                })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any file, fed 1–7 bytes per read, with `\n` or `\r\n` endings
        /// and with or without a final one, gives the oracle's events or
        /// its error line and message.
        #[test]
        fn byte_decoder_matches_the_str_oracle(
            lines in prop::collection::vec(prop::collection::vec(0usize..100_000, 14), 0..10),
            rare in 3usize..64,
            crlf in any::<bool>(),
            final_newline in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let lines: Vec<String> = lines.iter().map(|p| event_line(p, rare)).collect();
            let eol = if crlf { "\r\n" } else { "\n" };
            let mut text = lines.join(eol);
            if final_newline && !lines.is_empty() {
                text += eol;
            }
            let got = read_events(Trickle { rest: text.as_bytes(), state: seed });
            match (oracle(text.as_bytes()), got) {
                (Ok(want), Ok(got)) => prop_assert_eq!(got, want, "{:?}", text),
                (
                    Err(StreamError::Parse { line, msg }),
                    Err(StreamError::Parse { line: got_line, msg: got_msg }),
                ) => prop_assert_eq!((got_line, got_msg), (line, msg), "{:?}", text),
                (want, got) => prop_assert!(false, "{:?}: want {:?}, got {:?}", text, want, got),
            }
        }
    }

    /// The bytes rule of the module docs, on the cases the `str` decoder
    /// read differently.
    #[test]
    fn non_ascii_bytes_are_errors_in_data_lines_only() {
        // Invalid UTF-8 in a data line is an error that names the line.
        match read_events(&b"0 + 1 2\n1 + 2\xFF 3\n2 + 3 4\n"[..]) {
            Err(StreamError::Parse { line, msg }) => {
                assert_eq!(
                    (line, msg.as_str()),
                    (2, "invalid source vertex \"2\\xff\"")
                );
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        // A no-break space is not a field separator.
        match read_events("0 + 1\u{A0}2\n".as_bytes()) {
            Err(StreamError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected a parse error, got {other:?}"),
        }
        // Comments may hold any bytes, and a line may outgrow the buffer.
        let long = format!("7 +{}1 2", " ".repeat(70_000));
        let mut text = b"# \xFF\xFE\n%\xC2\xA0\n".to_vec();
        text.extend_from_slice(long.as_bytes());
        assert_eq!(
            read_events(text.as_slice()).unwrap(),
            vec![TimedEvent {
                time: 7,
                event: Event::Insert(1, 2)
            }]
        );
    }

    #[test]
    fn round_trip() {
        let events = vec![
            TimedEvent {
                time: 0,
                event: Event::Insert(0, 1),
            },
            TimedEvent {
                time: 3,
                event: Event::Insert(4, 2),
            },
            TimedEvent {
                time: 9,
                event: Event::Delete(0, 1),
            },
        ];
        let mut buf = Vec::new();
        write_events(&events, &mut buf).unwrap();
        assert_eq!(read_events(buf.as_slice()).unwrap(), events);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n% konect style\n5 + 1 2\n";
        let events = read_events(text.as_bytes()).unwrap();
        assert_eq!(
            events,
            vec![TimedEvent {
                time: 5,
                event: Event::Insert(1, 2)
            }]
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (text, line) in [
            ("1 + 2\n", 1),
            ("1 + 2 3\n0 * 1 2\n", 2),
            ("1 + 2 3\n2 - 4 five\n", 2),
            ("1 + 2 3 4\n", 1),
            ("x + 2 3\n", 1),
        ] {
            match read_events(text.as_bytes()) {
                Err(StreamError::Parse { line: l, .. }) => assert_eq!(l, line, "{text:?}"),
                other => panic!("expected parse error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn batch_builder() {
        let mut b = Batch::new();
        b.insert(1, 2).delete(1, 2);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.events[1].event, Event::Delete(1, 2));
    }
}
