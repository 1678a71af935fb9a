//! The benchmark's own span recorder.
//!
//! The traced replicas wrap every public call they make into a library
//! layer in a [`Tracer::span`]. Spans (name, start, end, parent) live in
//! memory and are written as one Chrome trace-event file at exit, so the
//! layer numbers come from outside the program and no library crate
//! carries timing code.

use std::fmt::Write as _;
use std::path::Path;

use crate::probe::Probe;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `decomp.rake_compress`.
    pub name: &'static str,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Probes at entry.
    pub start: Probe,
    /// Probes at exit.
    pub end: Probe,
}

impl Span {
    /// Wall seconds inside the span.
    pub fn wall_s(&self) -> f64 {
        self.end.wall_s - self.start.wall_s
    }

    /// CPU seconds (all threads) inside the span.
    pub fn cpu_s(&self) -> f64 {
        self.end.cpu_s - self.start.cpu_s
    }
}

/// Records spans and exact per-pass values; a disabled tracer only runs
/// the wrapped calls.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    values: Vec<(&'static str, f64)>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer { enabled: true, ..Tracer::default() }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Runs `f` as a span named `name`, nested in the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let now = Probe::now();
        self.spans.push(Span { name, parent: self.open.last().copied(), start: now, end: now });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = Probe::now();
        out
    }

    /// Records an exact value of this pass (a count, a size).
    pub fn value(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            self.values.push((name, v));
        }
    }

    /// The recorded spans, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The last value recorded under `name`, if any.
    pub fn get_value(&self, name: &str) -> Option<f64> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Total wall seconds of the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.named(name).map(Span::wall_s).fold(0.0, |sum, s| sum + s)
    }

    /// The spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The first span named `name`.
    pub fn first(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The direct children of span `idx`.
    pub fn children(&self, idx: usize) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(idx))
    }

    /// Index of the first span named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }
}

/// Every pass's spans, kept for the trace file written at exit.
#[derive(Debug, Default)]
pub struct TraceLog {
    passes: Vec<(String, Vec<Span>)>,
}

impl TraceLog {
    /// Keeps the spans of one pass under `label`.
    pub fn keep(&mut self, label: String, tracer: &Tracer) {
        self.passes.push((label, tracer.spans.clone()));
    }

    /// Writes the Chrome trace-event JSON (loadable in Perfetto or
    /// `chrome://tracing`): one complete event per span, the pass label
    /// as the thread name, and the run record as `otherData`.
    pub fn write(&self, path: &Path, record: &str) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (tid, (label, spans)) in self.passes.iter().enumerate() {
            let mut sep = |out: &mut String| {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
            };
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{label}\"}}}}"
            );
            for (i, s) in spans.iter().enumerate() {
                sep(&mut out);
                let parent =
                    s.parent.map_or("null".to_string(), |p| format!("\"{}\"", spans[p].name));
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"cpu_s\":{},\"node_steps\":{}}}}}",
                    s.name,
                    s.start.wall_s * 1e6,
                    s.wall_s() * 1e6,
                    s.cpu_s(),
                    s.end.node_steps - s.start.node_steps,
                );
            }
        }
        let _ = write!(out, "\n],\"otherData\":{record}}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracers_record_nothing() {
        let mut t = Tracer::enabled();
        let x = t.span("outer", |t| t.span("inner", |_| 2) + 1);
        assert_eq!(x, 3);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.children(0).count(), 1);
        assert!(t.seconds("outer") >= t.seconds("inner"));

        let mut off = Tracer::disabled();
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 5)), 5);
        off.value("v", 1.0);
        assert!(off.spans().is_empty() && off.get_value("v").is_none());
    }
}
