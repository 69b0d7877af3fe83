//! The benchmark's own spans.
//!
//! A span is opened just before the benchmark calls into a layer's public
//! function and closed when the call returns, so it times that layer from
//! outside: name, start, end and the span that was open around it. Spans
//! stay in memory during the run and are written out once at the end as
//! Chrome trace-event JSON, which `chrome://tracing` and Perfetto read
//! without any of this repository's code.
//!
//! A disabled tracer records nothing: `begin` and `end` are one branch.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Parent id of a span opened while no other span was open.
pub const ROOT: u32 = 0;

/// One closed (or still open) span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within one tracer, starting at 1.
    pub id: u32,
    /// Id of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Layer-qualified call name, e.g. `gtm2.pump`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle for an open span; give it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_id: u32,
}

impl Tracer {
    /// A recording tracer (`on`) or a no-op one.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = self.open.last().map_or(ROOT, |&i| self.spans[i].id);
        let id = self.next_id;
        self.next_id += 1;
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
            self.spans[idx].end_ns = self.now_ns();
            self.open.pop();
        }
    }

    /// Position to pass to [`Tracer::totals_since`] or [`Tracer::truncate`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration (ns) and count of the spans recorded since `mark`,
    /// by name.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans[mark.min(self.spans.len())..] {
            let t = totals.entry(s.name).or_default();
            t.0 += s.dur_ns();
            t.1 += 1;
        }
        totals
    }

    /// Drop the spans recorded since `mark`. Only closed spans may be
    /// dropped; it keeps memory bounded when only one round is kept.
    pub fn truncate(&mut self, mark: usize) {
        assert!(
            self.open.iter().all(|&i| i < mark),
            "cannot drop an open span"
        );
        self.spans.truncate(mark);
    }

    /// Memory the span buffer holds: its largest size over the run, since
    /// dropping spans keeps the allocation.
    pub fn buffer_bytes(&self) -> usize {
        self.spans.capacity() * std::mem::size_of::<Span>()
            + self.open.capacity() * std::mem::size_of::<usize>()
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps) with the span and parent ids in
    /// `args`.
    pub fn write_chrome(&self, out: &mut impl Write, label: &str) -> io::Result<()> {
        writeln!(out, "{{\"otherData\":{{\"benchmark\":\"{label}\"}},")?;
        writeln!(out, "\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent,
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_totals() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        for _ in 0..3 {
            let inner = tr.begin("inner");
            tr.end(inner);
        }
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, ROOT);
        assert!(spans[1..].iter().all(|s| s.parent == spans[0].id));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let totals = tr.totals_since(0);
        assert_eq!(totals["inner"].1, 3);
        assert!(totals["outer"].0 >= totals["inner"].0);
        let mark = tr.mark();
        let again = tr.begin("again");
        tr.end(again);
        tr.truncate(mark);
        assert_eq!(tr.spans().len(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("x");
        tr.end(s);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_output_is_json() {
        let mut tr = Tracer::new(true);
        let s = tr.begin("gtm2.pump");
        tr.end(s);
        let mut buf = Vec::new();
        tr.write_chrome(&mut buf, "unit").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"name\":\"gtm2.pump\""));
        assert!(text.trim_end().ends_with("]}"));
    }
}
