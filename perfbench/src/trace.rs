//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end relative to the tracer's creation,
//! the span that caused it, and the operation it belongs to (spans of one
//! pipeline call or one churn repetition share it). Spans stay in memory and
//! are written once, when the run ends. A disabled tracer records
//! nothing, so the same code path serves traced and untraced operations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    op: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: usize,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` with recording switched to `on` (and back afterwards).
    pub fn with_enabled<T>(&mut self, on: bool, f: impl FnOnce(&mut Self) -> T) -> T {
        let saved = std::mem::replace(&mut self.enabled, on);
        let out = f(self);
        self.enabled = saved;
        out
    }

    /// Tags the spans recorded from now on with operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id (meaningless when disabled).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                parent,
                op: self.op,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self, usize) -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part its direct children cover, summed over spans of a name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans and their self times as one JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"op\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}",
                span.name,
                span.op,
                span.start_ns,
                span.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("],\n\"self_s\": {");
        let selfs: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, secs)| format!("\"{name}\": {secs}"))
            .collect();
        s.push_str(&selfs.join(", "));
        s.push_str("}}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let call = t.record("call", None, at(0), at(100));
        t.record("phase", Some(call), at(0), at(60));
        let p2 = t.record("phase", Some(call), at(60), at(90));
        t.record("inner", Some(p2), at(60), at(70));
        let selfs = t.self_times();
        assert!((selfs["call"] - 0.010).abs() < 1e-9);
        assert!((selfs["phase"] - 0.080).abs() < 1e-9);
        assert!((selfs["inner"] - 0.010).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("call", None, |t, id| t.open("child", Some(id)));
        assert!(t.spans.is_empty());
        t.with_enabled(true, |t| t.span("on", None, |_, _| ()));
        assert_eq!(t.spans.len(), 1);
        assert!(!t.enabled());
    }
}
