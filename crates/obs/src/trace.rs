//! Lightweight structured tracing: nested spans with sequence numbers, a
//! small k/v payload, and one JSONL line per closed span.
//!
//! A [`Tracer`] is either **detached** (the default — spans are inert and
//! nothing ever touches the clock or a file) or writing to a sink. Spans
//! take their sequence number at open (so nesting order is stable) and
//! emit at close, carrying their depth and parent sequence number.
//!
//! # Determinism
//!
//! In the deterministic mode (`timing: false`, the default for replay
//! paths) a span line carries **no wall-clock at all** — only sequence
//! numbers, names, depth, and payload — so two identical replays produce
//! byte-identical trace files that diff cleanly. Enabling `timing` adds a
//! `dur_us` field per span.

use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct TracerState {
    seq: u64,
    /// Open spans' sequence numbers, innermost last.
    stack: Vec<u64>,
    out: Box<dyn Write + Send>,
}

struct TracerInner {
    timing: bool,
    state: Mutex<TracerState>,
}

impl std::fmt::Debug for TracerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerInner")
            .field("timing", &self.timing)
            .finish_non_exhaustive()
    }
}

/// Hands out [`Span`] guards; see the module docs. Cloning shares the
/// sink and the sequence counter.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The detached tracer: spans are inert, nothing is written, the
    /// clock is never read (also [`Default`]).
    #[must_use]
    pub fn detached() -> Self {
        Tracer { inner: None }
    }

    /// A tracer writing JSONL span lines to `writer`. `timing: false` is
    /// the deterministic mode (no wall-clock in the output).
    #[must_use]
    pub fn to_writer(writer: Box<dyn Write + Send>, timing: bool) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                timing,
                state: Mutex::new(TracerState {
                    seq: 0,
                    stack: Vec::new(),
                    out: writer,
                }),
            })),
        }
    }

    /// A tracer writing JSONL span lines to the file at `path`
    /// (truncated).
    ///
    /// # Errors
    /// Returns the file-creation error.
    pub fn to_file(path: impl AsRef<Path>, timing: bool) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Tracer::to_writer(Box::new(BufWriter::new(file)), timing))
    }

    /// Whether spans actually record (false for the detached tracer).
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span. The guard emits one JSONL line when dropped (or
    /// [`Span::close`]d); nested spans opened before then record this
    /// span's sequence number as their parent.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                tracer: Tracer::detached(),
                name,
                seq: 0,
                parent: None,
                depth: 0,
                start: None,
                fields: String::new(),
            };
        };
        let mut state = inner.state.lock().expect("tracer poisoned");
        state.seq += 1;
        let seq = state.seq;
        let parent = state.stack.last().copied();
        let depth = state.stack.len() as u32;
        state.stack.push(seq);
        drop(state);
        Span {
            tracer: self.clone(),
            name,
            seq,
            parent,
            depth,
            start: inner.timing.then(Instant::now),
            fields: String::new(),
        }
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    /// Returns the flush error.
    pub fn flush(&self) -> io::Result<()> {
        if let Some(inner) = &self.inner {
            inner.state.lock().expect("tracer poisoned").out.flush()?;
        }
        Ok(())
    }

    fn close_span(&self, span: &Span) {
        let Some(inner) = &self.inner else { return };
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"seq\":{},\"span\":\"{}\",\"depth\":{}",
            span.seq, span.name, span.depth
        );
        if let Some(parent) = span.parent {
            let _ = write!(line, ",\"parent\":{parent}");
        }
        line.push_str(&span.fields);
        if let Some(start) = span.start {
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            let _ = write!(line, ",\"dur_us\":{us}");
        }
        line.push_str("}\n");
        let mut state = inner.state.lock().expect("tracer poisoned");
        // Spans close LIFO on one thread; tolerate out-of-order drops by
        // removing this seq wherever it sits.
        if state.stack.last() == Some(&span.seq) {
            state.stack.pop();
        } else if let Some(pos) = state.stack.iter().rposition(|&s| s == span.seq) {
            state.stack.remove(pos);
        }
        let _ = state.out.write_all(line.as_bytes());
    }
}

/// An open span; emits one JSONL line when it closes. Obtained from
/// [`Tracer::span`].
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    name: &'static str,
    seq: u64,
    parent: Option<u64>,
    depth: u32,
    start: Option<Instant>,
    fields: String,
}

impl Span {
    /// This span's sequence number (0 for inert spans).
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Attaches an integer payload field (no-op on an inert span).
    pub fn record(&mut self, key: &str, value: u64) {
        if self.tracer.is_live() {
            let _ = write!(self.fields, ",\"{key}\":{value}");
        }
    }

    /// Attaches a boolean payload field (no-op on an inert span).
    pub fn record_flag(&mut self, key: &str, value: bool) {
        if self.tracer.is_live() {
            let _ = write!(self.fields, ",\"{key}\":{value}");
        }
    }

    /// Attaches a string payload field (no-op on an inert span). The
    /// value must not contain `"` or `\` (metric-style tokens only).
    pub fn record_str(&mut self, key: &str, value: &str) {
        if self.tracer.is_live() {
            debug_assert!(!value.contains(['"', '\\']), "span strings are tokens");
            let _ = write!(self.fields, ",\"{key}\":\"{value}\"");
        }
    }

    /// Closes the span now (the guard's drop does the same).
    pub fn close(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.tracer.is_live() {
            let tracer = self.tracer.clone();
            tracer.close_span(self);
        }
    }
}

/// Opens a span on a tracer, optionally recording payload fields:
/// `span!(tracer, "stream.apply")` or
/// `span!(tracer, "stream.apply", epoch = 3, events = n)`.
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr) => {
        $tracer.span($name)
    };
    ($tracer:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut s = $tracer.span($name);
        $(s.record(stringify!($key), u64::from($value));)+
        s
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Vec<u8> sink shareable with the test after the tracer writes.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture(timing: bool, run: impl FnOnce(&Tracer)) -> String {
        let buf = SharedBuf::default();
        let tracer = Tracer::to_writer(Box::new(buf.clone()), timing);
        run(&tracer);
        tracer.flush().unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn spans_nest_with_sequence_numbers_and_parents() {
        let text = capture(false, |tracer| {
            let mut outer = span!(tracer, "stream.apply", epoch = 1u32);
            {
                let mut inner = tracer.span("stream.resolve");
                inner.record_flag("sketched", false);
            }
            outer.record("events", 25);
        });
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Inner closes first but opened second: seq 2, parent 1, depth 1.
        assert_eq!(
            lines[0],
            "{\"seq\":2,\"span\":\"stream.resolve\",\"depth\":1,\"parent\":1,\"sketched\":false}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"span\":\"stream.apply\",\"depth\":0,\"epoch\":1,\"events\":25}"
        );
    }

    #[test]
    fn deterministic_mode_has_no_wall_clock() {
        let run = || {
            capture(false, |tracer| {
                for i in 0..5u32 {
                    let mut s = tracer.span("epoch");
                    s.record("i", u64::from(i));
                    std::thread::sleep(std::time::Duration::from_micros(50 * u64::from(i)));
                }
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "deterministic traces must be byte-identical");
        assert!(!a.contains("dur_us"));
    }

    #[test]
    fn timing_mode_records_durations() {
        let text = capture(true, |tracer| {
            let s = tracer.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
            s.close();
        });
        assert!(text.contains("\"dur_us\":"), "{text}");
    }

    #[test]
    fn detached_tracer_spans_are_inert() {
        let tracer = Tracer::detached();
        assert!(!tracer.is_live());
        let mut s = tracer.span("noop");
        s.record("k", 1);
        s.record_str("s", "v");
        assert_eq!(s.seq(), 0);
        drop(s);
        tracer.flush().unwrap();
    }
}
