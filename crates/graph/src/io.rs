//! Edge-list IO, and the byte-level line scanner every text decoder of
//! the workspace reads through.
//!
//! The interchange format is the de-facto standard for graph corpora
//! (SNAP/KONECT): one `source target` pair per line, whitespace separated,
//! with `#` or `%` comment lines.
//!
//! # Which bytes are accepted
//!
//! [`LineScanner`] walks one fixed 64 KiB read buffer and hands out each
//! line as bytes: nothing is allocated per line, only a line that
//! straddles a refill is joined (in one reused buffer), and no file is
//! read whole. The decoders built on it ([`read_edge_list`] here, the
//! event files of `dds-stream`) read those bytes by one rule:
//!
//! * fields split on ASCII whitespace ([`fields`]: space, `\t`, `\n`,
//!   `\x0B`, `\x0C` and `\r`, the bytes `str::split_whitespace` splits
//!   ASCII text on);
//! * numbers are ASCII decimal with one optional leading `+`, checked for
//!   overflow ([`parse_u32`], [`parse_u64`]), as `str::parse` reads them;
//! * a comment line may hold any bytes;
//! * a non-ASCII byte in a data line is a parse error that names its line
//!   (no field that holds one is a number), so invalid UTF-8 and non-ASCII
//!   whitespace such as U+00A0 are rejected where they occur.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{DiGraph, GraphBuilder, GraphError, VertexId};

/// Capacity of the read buffer [`LineScanner`] walks.
const SCAN_BUFFER: usize = 64 * 1024;

/// Streams the lines of a reader as byte slices, with their 1-based
/// numbers (see the module docs).
///
/// A line handed out borrows the scanner until the next call. Its `\n` is
/// cut off; a `\r` before it stays, as the whitespace it is.
#[derive(Debug)]
pub struct LineScanner<R> {
    reader: BufReader<R>,
    /// The line handed out last, when it straddled a refill; otherwise the
    /// bytes read after the last `\n` so far.
    joined: Vec<u8>,
    /// Where the line handed out last lives, for the next call to release.
    last: Last,
    line: usize,
    position: u64,
}

#[derive(Clone, Copy, Debug)]
enum Last {
    Nothing,
    /// The first `len` bytes of the read buffer, followed by its `\n`.
    Buffer(usize),
    /// `joined`.
    Joined,
}

impl<R: Read> LineScanner<R> {
    /// A scanner at the reader's current position, numbering its first
    /// line 1.
    pub fn new(reader: R) -> Self {
        LineScanner {
            reader: BufReader::with_capacity(SCAN_BUFFER, reader),
            joined: Vec::new(),
            last: Last::Nothing,
            line: 0,
            position: 0,
        }
    }

    /// The next line that ends in `\n`, or `None` once the reader returns
    /// no more bytes. Bytes after the last `\n` wait: a later call picks
    /// them up when the reader has grown (a tailed file), and
    /// [`LineScanner::finish`] hands them out as a last line.
    ///
    /// # Errors
    /// Propagates the reader's errors.
    pub fn next_line(&mut self) -> io::Result<Option<(usize, &[u8])>> {
        self.release();
        loop {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                return Ok(None);
            }
            let Some(len) = find_newline(buf) else {
                let n = buf.len();
                self.joined.extend_from_slice(buf);
                self.reader.consume(n);
                self.position += n as u64;
                continue;
            };
            self.line += 1;
            self.position += len as u64 + 1;
            if self.joined.is_empty() {
                self.last = Last::Buffer(len);
                return Ok(Some((self.line, &self.reader.buffer()[..len])));
            }
            self.joined.extend_from_slice(&buf[..len]);
            self.reader.consume(len + 1);
            self.last = Last::Joined;
            return Ok(Some((self.line, &self.joined)));
        }
    }

    /// The bytes after the last `\n` as a last line, if there are any.
    /// Call it once [`LineScanner::next_line`] has returned `None`.
    pub fn finish(&mut self) -> Option<(usize, &[u8])> {
        self.release();
        if self.joined.is_empty() {
            return None;
        }
        self.line += 1;
        self.last = Last::Joined;
        Some((self.line, &self.joined))
    }

    /// Bytes taken from the reader so far: every line handed out with its
    /// `\n`, and the bytes read after the last one.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.position
    }

    fn release(&mut self) {
        match std::mem::replace(&mut self.last, Last::Nothing) {
            Last::Buffer(len) => self.reader.consume(len + 1),
            Last::Joined => self.joined.clear(),
            Last::Nothing => {}
        }
    }
}

/// The index of the first `\n` in `bytes`, read eight bytes a word.
#[inline]
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let (words, rest) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        // A byte of `x` is zero where the word holds `\n`; the lowest flag
        // of the zero-byte test marks the first of them.
        let x = u64::from_le_bytes(*word) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(8 * i + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = rest.iter().position(|&b| b == b'\n')?;
    Some(8 * words.len() + tail)
}

/// Hands `f` every line of `reader` with its 1-based number, an
/// unterminated last line included, and stops at `f`'s first error.
///
/// # Errors
/// The reader's errors, converted, and `f`'s.
pub fn for_each_line<R, E>(
    reader: R,
    mut f: impl FnMut(usize, &[u8]) -> Result<(), E>,
) -> Result<(), E>
where
    R: Read,
    E: From<io::Error>,
{
    let mut lines = LineScanner::new(reader);
    while let Some((line_no, line)) = lines.next_line()? {
        f(line_no, line)?;
    }
    match lines.finish() {
        Some((line_no, line)) => f(line_no, line),
        None => Ok(()),
    }
}

/// Whether `b` separates fields: the six ASCII bytes `str::split_whitespace`
/// splits on (space, `\t`, `\n`, `\x0B`, `\x0C`, `\r`).
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// The fields of `line`: its runs of bytes other than the six ASCII
/// whitespace bytes (space, `\t`, `\n`, `\x0B`, `\x0C`, `\r`).
#[inline]
pub fn fields(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(|&b| is_space(b)).filter(|f| !f.is_empty())
}

/// `line` without its leading and trailing whitespace bytes.
fn trim(line: &[u8]) -> &[u8] {
    let start = line
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(line.len());
    let end = line
        .iter()
        .rposition(|&b| !is_space(b))
        .map_or(start, |i| i + 1);
    &line[start..end]
}

/// `bytes` quoted for a message: as `{:?}` shows a `str` when they are
/// ASCII, with each other byte as `\xNN`. It formats in place, so a message
/// holds one copy of a long field.
#[must_use]
pub fn show(bytes: &[u8]) -> impl fmt::Display + '_ {
    Shown(bytes)
}

struct Shown<'a>(&'a [u8]);

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(self.0) {
            Ok(text) if text.is_ascii() => write!(f, "{text:?}"),
            _ => write!(f, "\"{}\"", self.0.escape_ascii()),
        }
    }
}

/// Why a field is not a number. It displays as `ParseIntError` words the
/// same failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumberError {
    /// The field is empty.
    Empty,
    /// A byte is not a decimal digit (after one optional leading `+`).
    InvalidDigit,
    /// The value does not fit the target type.
    Overflow,
}

impl fmt::Display for NumberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NumberError::Empty => "cannot parse integer from empty string",
            NumberError::InvalidDigit => "invalid digit found in string",
            NumberError::Overflow => "number too large to fit in target type",
        })
    }
}

/// Parses ASCII decimal as `str::parse::<u64>` does.
///
/// # Errors
/// See [`NumberError`]; like `str::parse`, it reports the first failing
/// digit, left to right.
#[inline]
pub fn parse_u64(field: &[u8]) -> Result<u64, NumberError> {
    parse_decimal(field, u64::MAX)
}

/// Parses ASCII decimal as `str::parse::<u32>` does.
///
/// # Errors
/// See [`parse_u64`].
#[inline]
pub fn parse_u32(field: &[u8]) -> Result<u32, NumberError> {
    parse_decimal(field, u32::MAX.into()).map(|v| v as u32)
}

#[inline]
fn parse_decimal(field: &[u8], max: u64) -> Result<u64, NumberError> {
    let digits = match field {
        [] => return Err(NumberError::Empty),
        [b'+'] => return Err(NumberError::InvalidDigit),
        [b'+', rest @ ..] => rest,
        _ => field,
    };
    let mut value = 0u64;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return Err(NumberError::InvalidDigit);
        }
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(digit)))
            .filter(|&v| v <= max)
            .ok_or(NumberError::Overflow)?;
    }
    Ok(value)
}

/// Options controlling edge-list parsing.
#[derive(Clone, Debug)]
pub struct ParseOptions {
    /// Lines starting with any of these bytes are skipped.
    pub comment_prefixes: Vec<u8>,
    /// Keep self-loops instead of dropping them.
    pub keep_self_loops: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            comment_prefixes: vec![b'#', b'%'],
            keep_self_loops: false,
        }
    }
}

/// Reads a directed edge list from `reader` (see the module docs for the
/// bytes it accepts).
///
/// # Errors
/// [`GraphError::Parse`] with a 1-based line number on malformed lines
/// (missing fields, trailing junk, non-numeric ids, a non-ASCII byte) and
/// on a `write_edge_list` header that declares more vertices than `u32`
/// ids can name; [`GraphError::Io`] on read failures.
pub fn read_edge_list<R: Read>(reader: R, opts: &ParseOptions) -> Result<DiGraph, GraphError> {
    let mut builder = GraphBuilder::new().keep_self_loops(opts.keep_self_loops);
    for_each_line(reader, |line_no, line| -> Result<(), GraphError> {
        let mut fields = fields(line);
        let first = fields.next();
        if first.is_none_or(|f| opts.comment_prefixes.contains(&f[0])) {
            // Honour the vertex count written by `write_edge_list`, so
            // graphs with isolated vertices round-trip exactly.
            if let Some(n) = parse_vertex_count_header(line, line_no)? {
                builder.ensure_min_vertices(n);
            }
            return Ok(());
        }
        let u = parse_vertex(first, line_no, "source")?;
        let v = parse_vertex(fields.next(), line_no, "target")?;
        if fields.next().is_some() {
            return Err(parse_error(
                line_no,
                format_args!(
                    "expected exactly two fields, got extra data in {}",
                    show(trim(line))
                ),
            ));
        }
        builder.add_edge(u, v);
        Ok(())
    })?;
    Ok(builder.build())
}

/// Ids a [`VertexId`] can name, so the most vertices a header may declare.
const VERTEX_IDS: u64 = VertexId::MAX as u64 + 1;

/// Recognises the `write_edge_list` header (`# directed graph: N vertices,
/// M edges`) and returns `N`. A count past [`VERTEX_IDS`] is an error: the
/// builder would size its arrays by it.
fn parse_vertex_count_header(comment: &[u8], line: usize) -> Result<Option<usize>, GraphError> {
    let mut tokens = fields(comment).peekable();
    while let Some(tok) = tokens.next() {
        let Some(next) = tokens.peek() else {
            break;
        };
        let end = next.iter().rposition(|&b| b != b',').map_or(0, |i| i + 1);
        if &next[..end] != b"vertices" {
            continue;
        }
        let count = match parse_u64(tok) {
            Ok(n) => Some(n).filter(|&n| n <= VERTEX_IDS),
            Err(NumberError::Overflow) => None,
            Err(_) => return Ok(None),
        };
        return match count.and_then(|n| usize::try_from(n).ok()) {
            Some(n) => Ok(Some(n)),
            None => Err(parse_error(
                line,
                format_args!(
                    "header declares {} vertices, more than the {VERTEX_IDS} ids a vertex can have",
                    show(tok)
                ),
            )),
        };
    }
    Ok(None)
}

#[inline]
fn parse_vertex(field: Option<&[u8]>, line: usize, role: &str) -> Result<u32, GraphError> {
    let tok = field.ok_or_else(|| parse_error(line, format_args!("missing {role} vertex")))?;
    parse_u32(tok).map_err(|e| {
        parse_error(
            line,
            format_args!("invalid {role} vertex {}: {e}", show(tok)),
        )
    })
}

/// A [`GraphError::Parse`], built off the hot path.
#[cold]
fn parse_error(line: usize, message: fmt::Arguments<'_>) -> GraphError {
    GraphError::Parse {
        line,
        message: message.to_string(),
    }
}

/// Reads an edge list from a file path.
///
/// # Errors
/// See [`read_edge_list`].
pub fn load_edge_list<P: AsRef<Path>>(path: P, opts: &ParseOptions) -> Result<DiGraph, GraphError> {
    read_edge_list(File::open(path)?, opts)
}

/// Writes `g` as an edge list (one `u\tv` line per edge, preceded by a
/// header comment with the vertex/edge counts).
///
/// # Errors
/// Propagates IO failures.
pub fn write_edge_list<W: Write>(g: &DiGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# directed graph: {} vertices, {} edges", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes `g` to a file path via [`write_edge_list`].
///
/// # Errors
/// Propagates IO failures.
pub fn save_edge_list<P: AsRef<Path>>(g: &DiGraph, path: P) -> Result<(), GraphError> {
    write_edge_list(g, File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::num::IntErrorKind;

    fn parse(text: &str) -> Result<DiGraph, GraphError> {
        read_edge_list(text.as_bytes(), &ParseOptions::default())
    }

    /// A reader that returns 1–7 bytes per `read`, so lines straddle the
    /// scanner's refills.
    struct Trickle<'a> {
        rest: &'a [u8],
        state: u64,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
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
    /// `read_line` lines, `str::trim`, `split_whitespace` and `str::parse`.
    /// It returns the edges and the header's vertex count rather than a
    /// graph, so an id near `u32::MAX` allocates nothing. A header count
    /// past the `u32` id range is an error here as in the decoder: that is
    /// the one intended change (the old decoder sized arrays by it).
    fn oracle(text: &str, opts: &ParseOptions) -> Result<(Vec<(u32, u32)>, usize), GraphError> {
        let mut edges = Vec::new();
        let mut min_n = 0;
        for (idx, line) in text.split_inclusive('\n').enumerate() {
            let line_no = idx + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || opts.comment_prefixes.contains(&trimmed.as_bytes()[0]) {
                if let Some(n) = oracle_header(trimmed, line_no)? {
                    min_n = min_n.max(n);
                }
                continue;
            }
            let mut fields = trimmed.split_whitespace();
            let u = oracle_vertex(fields.next(), line_no, "source")?;
            let v = oracle_vertex(fields.next(), line_no, "target")?;
            if fields.next().is_some() {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: format!("expected exactly two fields, got extra data in {trimmed:?}"),
                });
            }
            edges.push((u, v));
        }
        Ok((edges, min_n))
    }

    fn oracle_header(comment: &str, line: usize) -> Result<Option<usize>, GraphError> {
        let mut tokens = comment.split_whitespace().peekable();
        while let Some(tok) = tokens.next() {
            if let Some(&next) = tokens.peek() {
                if next.trim_end_matches(',') == "vertices" {
                    return match tok.parse::<u64>() {
                        Ok(n) if n <= 1 << 32 => Ok(Some(n as usize)),
                        Err(e) if *e.kind() != IntErrorKind::PosOverflow => Ok(None),
                        _ => Err(GraphError::Parse {
                            line,
                            message: format!(
                                "header declares {tok:?} vertices, more than the \
                                 4294967296 ids a vertex can have"
                            ),
                        }),
                    };
                }
            }
        }
        Ok(None)
    }

    fn oracle_vertex(field: Option<&str>, line: usize, role: &str) -> Result<u32, GraphError> {
        let tok = field.ok_or_else(|| GraphError::Parse {
            line,
            message: format!("missing {role} vertex"),
        })?;
        tok.parse::<u32>().map_err(|e| GraphError::Parse {
            line,
            message: format!("invalid {role} vertex {tok:?}: {e}"),
        })
    }

    /// A common set of fields and a rare one.
    type Sets = (&'static [&'static str], &'static [&'static str]);

    /// Numbers that parse, and ones at and just past `u32::MAX` and
    /// `u64::MAX`, signed, or not numbers.
    const NUMBERS: Sets = (
        &["0", "1", "2", "3", "17", "+4", "007"],
        &[
            "4294967295",
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
    /// The six whitespace bytes and runs of them, and separators that are
    /// not whitespace.
    const SPACES: Sets = (
        &[" ", "\t", "\x0B", "\x0C", "\r", "  ", " \t"],
        &["\n", "\x1C", ""],
    );
    const LEAD: Sets = (&["", "", " ", "\t\r"], &["\x0B", "\x0C "]);
    const COUNTS: Sets = (
        &["0", "9", "+12"],
        &[
            "4294967297",
            "5000000000",
            "18446744073709551614",
            "18446744073709551615",
            "18446744073709551616",
            "n",
        ],
    );
    const TOKENS: [&str; 9] = [
        "#",
        "%",
        "*",
        "x",
        "vertices",
        "vertices,",
        "+",
        "-",
        "\x1C",
    ];

    /// Draws from the second set once in `rare` draws, else from the first.
    fn draw((common, rarer): Sets, pick: usize, rare: usize) -> &'static str {
        if pick.is_multiple_of(rare) {
            rarer[pick / rare % rarer.len()]
        } else {
            common[pick / rare % common.len()]
        }
    }

    /// One generated edge-list line: a comment, a header, an edge (maybe
    /// with an extra field), or, once in `rare` lines, a run of tokens.
    fn edge_line(p: &[usize], rare: usize) -> String {
        let draw = |sets: Sets, i: usize| draw(sets, p[i], rare);
        match p[0] % 16 {
            0 => format!(
                "{}{}{}",
                ["#", "%", " #", "\t%"][p[1] % 4],
                draw(SPACES, 2),
                TOKENS[p[3] % TOKENS.len()]
            ),
            1 => format!(
                "# directed graph: {} vertices, {} edges",
                draw(COUNTS, 1),
                draw(NUMBERS, 2)
            ),
            _ if !p[0].is_multiple_of(rare) => {
                let mut line = format!(
                    "{}{}{}{}{}",
                    draw(LEAD, 1),
                    draw(NUMBERS, 2),
                    draw(SPACES, 3),
                    draw(NUMBERS, 4),
                    draw(LEAD, 5)
                );
                if p[6].is_multiple_of(rare) {
                    line += draw(SPACES, 7);
                    line += draw(NUMBERS, 8);
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

    /// Joins generated lines with `\n` or `\r\n`, with or without a final
    /// line ending.
    fn file(lines: &[String], crlf: bool, final_newline: bool) -> String {
        let eol = if crlf { "\r\n" } else { "\n" };
        let mut text = lines.join(eol);
        if final_newline && !lines.is_empty() {
            text += eol;
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any file, fed 1–7 bytes per read, gives the oracle's graph or
        /// its error line and message.
        #[test]
        fn byte_decoder_matches_the_str_oracle(
            lines in prop::collection::vec(prop::collection::vec(0usize..100_000, 14), 0..10),
            rare in 3usize..64,
            crlf in any::<bool>(),
            final_newline in any::<bool>(),
            keep_self_loops in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let lines: Vec<String> = lines.iter().map(|p| edge_line(p, rare)).collect();
            let text = file(&lines, crlf, final_newline);
            let opts = ParseOptions { keep_self_loops, ..ParseOptions::default() };
            let want = oracle(&text, &opts);
            if let Ok((edges, n)) = &want {
                // Ids near u32::MAX are read the same, but a graph over
                // them is too large to build.
                if *n > 64 || edges.iter().any(|&(u, v)| u.max(v) > 64) {
                    return Ok(());
                }
            }
            let got = read_edge_list(Trickle { rest: text.as_bytes(), state: seed }, &opts);
            match (want, got) {
                (Ok((edges, n)), Ok(g)) => {
                    let mut b = GraphBuilder::with_min_vertices(n).keep_self_loops(keep_self_loops);
                    for (u, v) in edges {
                        b.add_edge(u, v);
                    }
                    prop_assert_eq!(g, b.build(), "{:?}", text);
                }
                (
                    Err(GraphError::Parse { line, message }),
                    Err(GraphError::Parse { line: got_line, message: got_message }),
                ) => {
                    prop_assert_eq!((got_line, got_message), (line, message), "{:?}", text);
                }
                (want, got) => prop_assert!(false, "{:?}: want {:?}, got {:?}", text, want, got),
            }
        }

        /// Decimal fields read as `str::parse` reads them.
        #[test]
        fn numbers_parse_as_str_parse_does(
            picks in prop::collection::vec(0usize..100_000, 1..4),
        ) {
            let field: String = picks.iter().map(|&p| draw(NUMBERS, p, 3)).collect();
            let kind = |e: std::num::ParseIntError| match e.kind() {
                IntErrorKind::Empty => NumberError::Empty,
                IntErrorKind::PosOverflow => NumberError::Overflow,
                _ => NumberError::InvalidDigit,
            };
            prop_assert_eq!(parse_u32(field.as_bytes()), field.parse::<u32>().map_err(kind));
            prop_assert_eq!(parse_u64(field.as_bytes()), field.parse::<u64>().map_err(kind));
        }
    }

    #[test]
    fn scanner_hands_out_numbered_lines_across_refills() {
        let text = b"ab\ncd\r\n\nef";
        let mut lines = LineScanner::new(Trickle {
            rest: text,
            state: 7,
        });
        let mut seen = Vec::new();
        while let Some((no, line)) = lines.next_line().unwrap() {
            seen.push((no, line.to_vec()));
        }
        assert_eq!(
            seen,
            vec![(1, b"ab".to_vec()), (2, b"cd\r".to_vec()), (3, Vec::new())]
        );
        assert_eq!(lines.position(), text.len() as u64, "the tail is taken");
        assert_eq!(lines.finish(), Some((4, &b"ef"[..])));
        assert_eq!(lines.finish(), None);
        assert_eq!(lines.next_line().unwrap(), None);
    }

    #[test]
    fn lines_longer_than_the_buffer_parse() {
        let pad = " ".repeat(SCAN_BUFFER + 100);
        let comment = "c\u{FF}".repeat(SCAN_BUFFER);
        let text = format!("0{pad}1\n#{comment}\n2 3{pad}\n{pad}4 5");
        let g = parse(&text).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (2, 3), (4, 5)]);
    }

    #[test]
    fn header_counts_past_the_id_range_are_parse_errors() {
        for n in ["18446744073709551615", "18446744073709551614", "5000000000"] {
            let text = format!("# directed graph: {n} vertices, 1 edges\n0\t1\n");
            match parse(&text) {
                Err(GraphError::Parse { line, message }) => {
                    assert_eq!(line, 1, "{message}");
                    assert!(message.contains(n), "{message}");
                }
                other => panic!("expected a parse error for {n}, got {other:?}"),
            }
        }
        let g = parse("# directed graph: 4 vertices, 1 edges\n0\t1\n").unwrap();
        assert_eq!((g.n(), g.m()), (4, 1));
    }

    #[test]
    fn non_ascii_bytes_are_errors_in_data_lines_only() {
        // Invalid UTF-8 in a data line is an error that names the line.
        match read_edge_list(&b"0 1\n1\xFF 2\n2 3\n"[..], &ParseOptions::default()) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert_eq!(
                    message,
                    "invalid source vertex \"1\\xff\": invalid digit found in string"
                );
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        // A no-break space is not a field separator.
        match parse("0 1\n2\u{A0}3\n") {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected a parse error, got {other:?}"),
        }
        // Comments may hold any bytes.
        let g = read_edge_list(
            &b"# \xFF\xFE\n% \xC2\xA0\n0 1\n"[..],
            &ParseOptions::default(),
        )
        .unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn parses_basic_edge_list() {
        let g = parse("0 1\n1 2\n2 0\n").unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let g = parse("# header\n% konect style\n\n  \n0\t1\n# trailing\n1 0\n").unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn handles_tabs_and_multiple_spaces() {
        let g = parse("0\t\t1\n2   3\n").unwrap();
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(2, 3));
    }

    #[test]
    fn rejects_missing_target() {
        let err = parse("0 1\n7\n").unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("target"), "{message}");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rejects_non_numeric() {
        let err = parse("a b\n").unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("source"), "{message}");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rejects_extra_fields() {
        let err = parse("0 1 5\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn self_loop_policy() {
        let g = parse("0 0\n0 1\n").unwrap();
        assert_eq!(g.m(), 1, "default drops self-loops");
        let opts = ParseOptions {
            keep_self_loops: true,
            ..Default::default()
        };
        let g = read_edge_list("0 0\n0 1\n".as_bytes(), &opts).unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn header_preserves_isolated_vertices() {
        let g = DiGraph::from_edges(6, &[(0, 1)]).unwrap(); // vertices 2..5 isolated
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice(), &ParseOptions::default()).unwrap();
        assert_eq!(g2.n(), 6);
        assert_eq!(g, g2);
        // Headers from other tools are ignored gracefully.
        let g3 = parse("# some unrelated comment\n0 1\n").unwrap();
        assert_eq!(g3.n(), 2);
    }

    #[test]
    fn round_trip_through_bytes() {
        let g = DiGraph::from_edges(5, &[(0, 4), (4, 0), (1, 2), (3, 1)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice(), &ParseOptions::default()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn round_trip_through_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("dds_io_test_{}.txt", std::process::id()));
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path, &ParseOptions::default()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g, g2);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_edge_list(
            "/nonexistent/definitely/missing.txt",
            &ParseOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }
}
