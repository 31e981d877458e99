//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into the layers, kept in memory, and written out as TSV once the run
//! ends. Every span names its parent (0 = root) and the request it
//! belongs to, so a layer's self time is its span's duration minus the
//! durations of its child spans.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Parent span id (0 = root).
    pub parent: u32,
    /// Request (or sweep call) the span belongs to.
    pub req: u64,
    /// Layer call or benchmark step.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// Span store; ids are 1-based positions in it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose timeline starts at `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        parent: u32,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() as u32
    }

    /// Opens a span now; [`Tracer::close`] ends it. Children recorded in
    /// between can name it as their parent.
    pub fn open(&mut self, parent: u32, req: u64, name: &'static str) -> u32 {
        let now = Instant::now();
        self.record(parent, req, name, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        parent: u32,
        req: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(parent, req, name, start, end);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Drops every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ns) of every span called `name`: its duration minus
    /// the durations of its direct children.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<u32, u64> = HashMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                *children.entry(span.parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let inner = children.get(&(i as u32 + 1)).copied().unwrap_or(0);
                (s.end_ns - s.start_ns).saturating_sub(inner) as f64
            })
            .collect()
    }

    /// Writes every span as one TSV line: id, parent, req, name, start, end.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t0 = Instant::now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let mut tracer = Tracer::new(t0);
        let root = tracer.record(0, 7, "replay", at(0), at(1000));
        let child = tracer.record(root, 7, "parse", at(100), at(400));
        tracer.record(child, 7, "inner", at(150), at(250));
        tracer.record(root, 7, "lookup", at(500), at(900));
        assert_eq!(tracer.self_ns("replay"), vec![300.0]);
        assert_eq!(tracer.self_ns("parse"), vec![200.0]);
        assert_eq!(tracer.self_ns("lookup"), vec![400.0]);
        assert!(tracer.spans().iter().all(|s| s.req == 7));
    }
}
