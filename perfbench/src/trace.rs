//! The benchmark's own span recorder. Spans wrap calls into the library
//! crates from outside (name, start, end, parent, run id), stay in memory,
//! and are written as JSONL when the run ends. A disabled recorder never
//! reads the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::metrics::json_string;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
}

/// An open span; close it with [`Spans::exit`].
#[must_use = "a span must be closed with Spans::exit"]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between iterations (the traced run
    /// alternates traced and untraced iterations).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Tags the spans that follow with iteration `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        self.close(open, None);
    }

    /// Closes a span under a name chosen after the call returned (a
    /// window epoch is a sweep or an exact solve only once it reports).
    pub fn exit_as(&mut self, open: Open, name: &'static str) {
        self.close(open, Some(name));
    }

    fn close(&mut self, open: Open, rename: Option<&'static str>) {
        let Some(id) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Self time (duration minus direct children) summed per span name,
    /// per run id.
    pub fn self_time_by_run(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.run).or_default().entry(s.name).or_default() += self_ns as f64 * 1e-9;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.run,
                json_string(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        s.set_run(3);
        let outer = s.enter("outer");
        spin(5);
        let inner = s.enter("inner");
        spin(20);
        s.exit_as(inner, "renamed");
        s.exit(outer);
        let by_run = s.self_time_by_run();
        let run = &by_run[&3];
        assert!(run["renamed"] >= 0.020, "{run:?}");
        assert!(run["outer"] >= 0.005 && run["outer"] < 0.020, "{run:?}");
        assert!(!run.contains_key("inner"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let o = s.enter("x");
        s.exit(o);
        assert_eq!(s.len(), 0);
        assert!(s.self_time_by_run().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_parents() {
        let mut s = Spans::new(true);
        let a = s.enter("a");
        let b = s.enter("b");
        s.exit(b);
        s.exit(a);
        let dir = crate::inputs::work_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-self-test.jsonl");
        s.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\": null") && lines[0].contains("\"name\": \"a\""));
        assert!(lines[1].contains("\"parent\": 0") && lines[1].contains("\"name\": \"b\""));
    }
}
