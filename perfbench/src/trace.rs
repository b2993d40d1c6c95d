//! Span recording for the traced run, plus the small statistics helpers
//! both runs share.
//!
//! A span is one timed call into a layer: its name, start and end (ns since
//! the run's epoch), the span that caused it, and the run iteration or
//! request id it belongs to. Spans stay in memory and are written out once,
//! when the run ends. With tracing off, [`Tracer::span`] only reads the
//! clock, so the same code measures both runs.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Iteration (compress, VM, hybrid) or request id (serve).
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f`. When tracing is on (and `record` is true) the call is
    /// kept as a span nested under the innermost open span. Returns the
    /// result and the call's wall time in seconds either way.
    pub fn span_if<R>(
        &self,
        record: bool,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        if !(self.enabled && record) {
            let t = Instant::now();
            let r = f();
            return (r, t.elapsed().as_secs_f64());
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, start_ns: 0, end_ns: 0, parent, id });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        (r, (end - start) as f64 * 1e-9)
    }

    pub fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.span_if(true, name, id, f)
    }

    /// Records an already-measured interval (e.g. a served request, timed
    /// by the receiver thread) as a top-level span.
    pub fn record(&self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.borrow_mut().push(Span { name, start_ns, end_ns, parent: None, id });
        }
    }

    /// Self time of every span named `name`, in seconds: its duration
    /// minus the time its direct children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]) as f64 * 1e-9)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            );
        }
        out
    }
}

/// Median of `v` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1]; NaN if empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The nearest-rank percentile (`p` in (0, 100]) of `v`, where `None`
/// stands for a request that missed every limit (failed, refused or
/// mismatched) and sorts above every measured value.
pub fn percentile_with_misses(v: &[Option<f64>], p: f64) -> f64 {
    if v.is_empty() {
        return f64::INFINITY;
    }
    let mut s: Vec<f64> = v.iter().map(|x| x.unwrap_or(f64::INFINITY)).collect();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}
