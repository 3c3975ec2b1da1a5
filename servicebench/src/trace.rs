//! In-memory span recorder for the traced replay.
//!
//! A span records a name, start, end, the span that caused it (its
//! parent) and the id of the stream chunk it belongs to; spans are kept in
//! memory and written out as JSON lines after the run. A layer's *self
//! time* is its spans' durations minus the time covered by their child
//! spans. With recording disabled the same code runs with one branch per
//! span, which is what the untraced replay measures.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub chunk: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub self_ns: u64,
    /// Every span duration, for tail percentiles.
    pub durations_ns: Vec<u64>,
}

/// The recorder. Spans nest through [`Tracer::span`]'s closure.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    chunk: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            chunk: 0,
        }
    }

    /// Tags every span opened from now on with stream chunk `id`.
    pub fn set_chunk(&mut self, id: u64) {
        self.chunk = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            chunk: self.chunk,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and span durations per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.self_ns += span.duration_ns().saturating_sub(children);
            entry.durations_ns.push(span.duration_ns());
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Int(id as i64)),
                ("name", Json::Str(span.name.to_string())),
                ("start_ns", Json::Int(span.start_ns as i64)),
                ("end_ns", Json::Int(span.end_ns as i64)),
                (
                    "parent",
                    span.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                ),
                ("chunk", Json::Int(span.chunk as i64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.set_chunk(7);
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = tracer.totals();
        let outer = &totals["outer"];
        let inner = &totals["inner"];
        assert_eq!(outer.durations_ns[0], outer.self_ns + inner.durations_ns[0]);
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(tracer.spans().iter().all(|s| s.chunk == 7));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
