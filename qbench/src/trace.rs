//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer: name (`<layer>.<call>`), start, end, parent span, and the request
//! id for served requests. They stay in memory and are written out once, at
//! the end of the run. A layer's self time is the time its spans cover minus
//! the part of each span that its child spans cover, summed over spans.
//! Spans on concurrent threads (served requests, shard workers) overlap, so
//! the sum can exceed wall time; it is reported as `<layer>.self_cpu_s`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span; times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub request: Option<u64>,
}

/// Span recorder; when off, every call is a no-op and ids are 0.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span that ran from `start` to `end` and returns its id (0
    /// when tracing is off). `parent` 0 means a root span.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span { id, parent, name, start_us: us(start), end_us: us(end), request });
        id
    }

    /// Reserves an id for a span whose children are recorded before it
    /// closes; finish it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: u64) -> OpenSpan {
        let start = Instant::now();
        let id = self.record(name, parent, start, start, None);
        OpenSpan { id, start }
    }

    /// Closes an opened span at the current time.
    pub fn close(&self, span: OpenSpan) {
        if span.id == 0 {
            return;
        }
        let end = self.origin.elapsed().as_secs_f64() * 1e6;
        let start = span.start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        let entry = &mut spans[span.id as usize - 1];
        entry.start_us = start;
        entry.end_us = end;
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span list lock poisoned").len()
    }

    /// Self seconds per layer (the span-name prefix before the first `.`),
    /// summed over spans, overlapping ones included.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push((s.start_us, s.end_us));
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let covered =
                children.get(&s.id).map_or(0.0, |c| union_within(c, s.start_us, s.end_us));
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(layer).or_insert(0.0) += (s.end_us - s.start_us - covered).max(0.0) / 1e6;
        }
        out
    }

    /// Spans and per-layer self times as one JSON document.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"request\":{}}}{}\n",
                s.id,
                s.parent,
                s.name,
                s.start_us,
                s.end_us,
                request,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        drop(spans);
        out.push_str("],\"self_cpu_s\":{");
        let layers: Vec<String> =
            self.self_seconds().iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        out.push_str(&layers.join(","));
        out.push_str("}}\n");
        out
    }
}

/// An opened span: its id and start time.
#[derive(Debug)]
pub struct OpenSpan {
    pub id: u64,
    start: Instant,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| b > a).collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

/// Nanoseconds one [`Tracer::record`] call costs, measured on a scratch
/// tracer; the traced run's overhead is this times the spans it recorded.
pub fn record_cost_ns() -> f64 {
    const CALLS: usize = 20_000;
    let scratch = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..CALLS {
        let t = Instant::now();
        std::hint::black_box(scratch.record("calibrate.probe", 0, t, Instant::now(), None));
    }
    start.elapsed().as_secs_f64() * 1e9 / CALLS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let u = union_within(&[(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0);
        assert!((u - 3.5).abs() < 1e-12);
    }
}
