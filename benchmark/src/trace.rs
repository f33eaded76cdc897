//! Spans around the benchmark's own calls into each layer.
//!
//! Every span is `{name, start, end, parent, request}`; the spans of one
//! request share its id. They stay in memory until the run ends, then
//! [`Tracer::write_json`] dumps them. A layer's self time is its span minus
//! the part its children cover. With the tracer off nothing is recorded and
//! no extra clock is read — the end-to-end run pays for none of this.

use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;
/// Spans written to the JSON file; metrics use all of them.
const FILE_SPAN_CAP: usize = 60_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Handle to an open span (its index in the span list).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A clock reading, taken only when tracing.
    pub fn now(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting at `start`; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            request,
        });
        Some(SpanId(self.spans.len() as u32 - 1))
    }

    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(SpanId(i)) = id {
            self.spans[i as usize].end_ns = self.ns(end);
        }
    }

    /// Records a finished span. `start` may be a [`Tracer::now`] reading,
    /// which is `None` (and records nothing) with tracing off.
    pub fn child(
        &mut self,
        name: &'static str,
        start: impl Into<Option<Instant>>,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) {
        if let Some(start) = start.into() {
            let id = self.open(name, start, parent, request);
            self.close(id, end);
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Mean duration of the spans called `name`, µs (0 when there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (mut total, mut n) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            total += s.end_ns - s.start_ns;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans (the first [`FILE_SPAN_CAP`]) as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let kept = &self.spans[..self.spans.len().min(FILE_SPAN_CAP)];
        let mut doc = String::with_capacity(kept.len() * 96 + 128);
        let _ = write!(
            doc,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans_recorded\":{},\"spans\":[",
            self.spans.len()
        );
        for (i, s) in kept.iter().enumerate() {
            let parent = if s.parent == NO_PARENT || s.parent as usize >= kept.len() {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                doc,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            );
        }
        doc.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }
}
