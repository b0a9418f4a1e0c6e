//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness around its own calls into each
//! crate's public functions (nothing inside the program is
//! instrumented). Each span carries a name, start, end, the span that
//! caused it and the query it belongs to. Spans stay in memory and are
//! written out once, when the run ends. A disabled recorder records
//! nothing, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Query id of spans that belong to no query (set-up, boot).
pub const NO_QUERY: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    qid: u64,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times: each duration minus the part its direct
    /// children cover (children never overlap, they run on one stack).
    pub self_ns: u64,
}

/// A span recorder. One per thread; merge them with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`; records nothing unless
    /// `enabled`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, qid: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            qid,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Appends another thread's spans (same clock origin).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Durations (ns) of the spans named `name`, by query id.
    pub fn durations(&self, name: &str) -> BTreeMap<u64, u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.qid, s.end_ns - s.start_ns))
            .collect()
    }

    /// Writes every span as tab-separated `id parent qid name start_ns
    /// end_ns` lines (parent and qid `-` when absent).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tqid\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let qid = if s.qid == NO_QUERY {
                "-".to_string()
            } else {
                s.qid.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{qid}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert!(inner.total_ns >= 5_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", 0, |_| 7), 7);
        assert_eq!(t.len(), 0);
    }
}
