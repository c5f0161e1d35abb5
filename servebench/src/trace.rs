//! Spans recorded by the benchmark around its calls into the engine.
//!
//! A span has a name, a start, an end and a parent; the spans of one
//! ticket share the ticket's id. Spans stay in memory while the run
//! measures and are written out as JSON lines when it ends.
//!
//! Open-loop collection polls a pending ticket thousands of times
//! between arrivals. Those pending `try_poll` calls are folded into one
//! `try_poll.pending` span per ticket, from the first poll's start to
//! the last pending poll's end, carrying the call count; the poll that
//! returns the output gets its own `try_poll` span.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use nova_serde::Value;

/// Nanoseconds since one origin: the time base every phase and span of
/// a run shares.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Self(Instant::now())
    }

    pub fn now_ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

/// A span's id: its 1-based position in the recorder.
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// The engine ticket the span belongs to; 0 outside any ticket.
    pub ticket: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into the span (1 unless aggregated).
    pub calls: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            spans: Vec::with_capacity(spans),
        }
    }

    /// Records a span and returns its id, for children to name as
    /// their parent.
    pub fn record(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans")
    }

    /// A placeholder parent, filled in by [`Self::close`] once the
    /// parent's end is known.
    pub fn open(&mut self, name: &'static str, ticket: u64, start_ns: u64) -> SpanId {
        self.record(Span {
            name,
            parent: None,
            ticket,
            start_ns,
            end_ns: start_ns,
            calls: 1,
        })
    }

    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Value::Null, |p| Value::U64(u64::from(p)));
            let line = Value::Map(vec![
                ("id".into(), Value::U64(i as u64 + 1)),
                ("parent".into(), parent),
                ("name".into(), Value::Str(s.name.into())),
                ("ticket".into(), Value::U64(s.ticket)),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("calls".into(), Value::U64(u64::from(s.calls))),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parents_close_after_their_children() {
        let mut t = Tracer::default();
        let root = t.open("request", 7, 10);
        t.record(Span {
            name: "submit",
            parent: Some(root),
            ticket: 7,
            start_ns: 10,
            end_ns: 14,
            calls: 1,
        });
        t.close(root, 30);
        assert_eq!(t.spans()[0].ns(), 20);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.total_ns("submit"), 4);
        assert_eq!(t.total_ns("wait"), 0);
    }
}
