//! The benchmark's own tracing: a span around each call into a layer.
//!
//! Spans are kept in memory while the workload runs and written out once
//! at the end ([`Tracer::to_chrome_json`]), so recording costs two clock
//! reads and a vector push per call. With tracing off, [`Tracer::span`]
//! calls straight through without reading the clock.

use std::time::Instant;

/// One timed call: which layer, which operation (pass, evaluation or job)
/// it served, the span that caused it, and when it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `core.plan`.
    pub name: &'static str,
    /// Operation id shared by every span of one pass, evaluation or job.
    pub op: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off (between operations, never inside one).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span `name` of operation `op`, parented to the
    /// innermost open span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration (ms) of the direct children of span `id`.
    pub fn children_ms(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum()
    }

    /// For every span called `name`: how far the sum of its direct
    /// children falls short of (or exceeds) its own duration, as a share
    /// of that duration. 0 means the layer times add up exactly.
    pub fn reconcile_gaps(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.ms() > 0.0)
            .map(|(id, s)| (s.ms() - self.children_ms(id)).abs() / s.ms())
            .collect()
    }

    /// The spans as a Chrome/Perfetto trace (`X` events on one track; the
    /// parent index and operation id ride along as arguments).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.op
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_ops() {
        let mut tr = Tracer::new(true);
        let v = tr.span("pass", 7, |tr| {
            tr.span("core.plan", 7, |_| ());
            tr.span("analysis.lint", 7, |tr| tr.span("inner", 7, |_| 41)) + 1
        });
        assert_eq!(v, 42);
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("pass", None),
                ("core.plan", Some(0)),
                ("analysis.lint", Some(0)),
                ("inner", Some(2))
            ]
        );
        assert!(tr
            .spans()
            .iter()
            .all(|s| s.op == 7 && s.end_us >= s.start_us));
        assert!(tr.children_ms(0) <= tr.spans()[0].ms());
        assert!(tr.to_chrome_json().contains("\"parent\":2"));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("pass", 1, |_| 3), 3);
        assert!(tr.spans().is_empty());
        tr.set_on(true);
        tr.span("pass", 2, |_| ());
        assert_eq!(tr.spans().len(), 1);
    }
}
