//! The benchmark's own spans, recorded around its calls into each layer,
//! kept in memory and written as a Chrome trace-event file at exit.
//!
//! Spans are recorded only in the traced run; the untraced run measures
//! the end-to-end metrics with nothing but `Instant` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    layer: &'static str,
    start: f64,
    end: f64,
    lane: u64,
    parent: Option<usize>,
    /// Recorded during set-up rather than the measured phase.
    setup: bool,
}

#[derive(Debug, Clone)]
struct Mark {
    name: String,
    at: f64,
    lane: u64,
    args: String,
}

/// Span and instant-event recorder. Times are seconds since `t0`.
pub struct Tracer {
    on: bool,
    setup: bool,
    t0: Instant,
    spans: Vec<Span>,
    marks: Vec<Mark>,
}

/// Handle of a recorded span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            setup: false,
            t0: Instant::now(),
            spans: Vec::new(),
            marks: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Mark the spans recorded from now on as set-up (or measured) spans.
    pub fn set_setup(&mut self, setup: bool) {
        self.setup = setup;
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Seconds since the tracer started, for an instant taken earlier.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Record a finished span `[start, end]` under `parent`.
    pub fn span(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        (start, end): (f64, f64),
        lane: u64,
        parent: SpanId,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let setup = self.setup;
        self.spans.push(Span {
            name: name.into(),
            layer,
            start,
            end: end.max(start),
            lane,
            parent,
            setup,
        });
        Some(self.spans.len() - 1)
    }

    /// Record a span on lane 0 from `start` to now.
    pub fn span_since(&mut self, name: &str, layer: &'static str, start: Instant, parent: SpanId) {
        let (s, e) = (self.at(start), self.now());
        self.span(name, layer, (s, e), 0, parent);
    }

    /// End an open span (recorded with its start as its end) now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        if let Some(s) = id.and_then(|i| self.spans.get_mut(i)) {
            s.end = now;
        }
    }

    /// Record an instant event; `args` is a JSON object body.
    pub fn mark(&mut self, name: impl Into<String>, at: f64, lane: u64, args: String) {
        if self.on {
            self.marks.push(Mark {
                name: name.into(),
                at,
                lane,
                args,
            });
        }
    }

    /// Each layer's self time in seconds over the set-up spans (`setup`)
    /// or the measured ones: a span's duration minus the part of it its
    /// child spans cover, summed per layer.
    pub fn self_times(&self, setup: bool) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self
            .spans
            .iter()
            .zip(children.iter_mut())
            .filter(|(s, _)| s.setup == setup)
        {
            let covered = union_within(kids, s.start, s.end);
            *out.entry(s.layer).or_insert(0.0) += (s.end - s.start) - covered;
        }
        out
    }

    /// Self time of spans whose name starts with `prefix`, summed.
    pub fn self_time_of_prefix(&self, prefix: &str) -> f64 {
        let mut total = 0.0;
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name.starts_with(prefix))
        {
            let mut kids: Vec<(f64, f64)> = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start, c.end))
                .collect();
            total += (s.end - s.start) - union_within(&mut kids, s.start, s.end);
        }
        total
    }

    /// Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`).
    pub fn chrome_json(&self, header: &str) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for s in &self.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": {}}}",
                json_str(&s.name),
                s.layer,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.lane
            );
        }
        for m in &self.marks {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"scheduler\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{{}}}}}",
                json_str(&m.name),
                m.at * 1e6,
                m.lane,
                m.args
            );
        }
        let _ = write!(
            out,
            "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {header}}}\n"
        );
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
