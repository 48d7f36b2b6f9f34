//! In-memory spans recorded around the benchmark's calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! call made from the benchmark's own loop. Spans stay in memory and are
//! written out once the run ends.

use prepare_metrics::json::{JsonError, JsonValue};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Repetition of the run the span belongs to.
    pub rep: usize,
    /// Layer boundary, e.g. `cloudsim.step` or `core.round`.
    pub name: &'static str,
    /// Control round the call belongs to.
    pub round: u64,
    /// Start, milliseconds since the run began.
    pub start_ms: f64,
    /// End, milliseconds since the run began.
    pub end_ms: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Round class of a `core.round` span.
    pub class: Option<&'static str>,
}

impl Span {
    /// The span's duration.
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Collects spans when enabled; a disabled tracer records nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    rep: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or drops every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            rep: 0,
            spans: Vec::new(),
        }
    }

    /// Stamps the spans recorded from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        round: u64,
        (start_ms, end_ms): (f64, f64),
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            rep: self.rep,
            name,
            round,
            start_ms,
            end_ms,
            parent,
            class: None,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is set later by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, round: u64, start_ms: f64) -> Option<usize> {
        self.record(name, round, (start_ms, start_ms), None)
    }

    /// Sets the end (and optionally the class) of an opened span.
    pub fn close(&mut self, id: Option<usize>, end_ms: f64, class: Option<&'static str>) {
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_ms = end_ms;
            span.class = class.or(span.class);
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its
    /// interval covered by its children (children of one span never
    /// overlap: the loop is sequential).
    pub fn self_times(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            let Some(slot) = s.parent.and_then(|p| covered.get_mut(p)) else {
                continue;
            };
            *slot += s.ms();
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.ms() - c).max(0.0))
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let num = |v: f64| JsonValue::Number(v);
            let text = |v: &str| JsonValue::String(v.to_string());
            let fields = [
                ("id", num(id as f64)),
                ("rep", num(s.rep as f64)),
                ("name", text(s.name)),
                ("round", num(s.round as f64)),
                ("start_ms", num(s.start_ms)),
                ("end_ms", num(s.end_ms)),
                (
                    "parent",
                    s.parent.map_or(JsonValue::Null, |p| num(p as f64)),
                ),
                ("class", s.class.map_or(JsonValue::Null, text)),
            ];
            let line = JsonValue::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            );
            out.push_str(&line.to_string()?);
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.open("loop.round", 0, 0.0);
        t.record("cloudsim.step", 0, (1.0, 3.0), root);
        t.record("core.round", 0, (4.0, 9.0), root);
        t.close(root, 10.0, None);
        let self_ms = t.self_times();
        assert_eq!(self_ms, vec![3.0, 2.0, 5.0]);
        assert_eq!(t.to_jsonl().unwrap().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("loop.round", 0, 0.0);
        assert_eq!(root, None);
        assert_eq!(t.record("core.round", 0, (0.0, 1.0), root), None);
        assert!(t.spans().is_empty());
    }
}
