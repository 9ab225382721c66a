//! The harness clock and the in-memory span recorder.
//!
//! Spans are recorded from the harness's side of each layer's public
//! boundary — nothing inside the crates under test is instrumented —
//! kept in memory, and written out once when the traced run ends.

use crate::json::{obj, Value};
use std::time::Instant;

/// The one place the harness reads the wall clock.
pub struct Clock;

impl Clock {
    pub fn now() -> Instant {
        // lint:allow(wall-clock): benchmark harness; wall clock is the measurement and never reaches the program under test
        Instant::now()
    }
}

/// One timed interval: a call into a layer, or a phase grouping calls.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records a tree of spans for one workload.
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            origin: Clock::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        Clock::now().duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns() as f64 * 1e-9
    }

    /// Times one call as a leaf span; returns its result and duration
    /// in seconds.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        let secs = self.exit(id);
        (out, secs)
    }

    /// A span's own time: its duration minus the part its direct
    /// children cover.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns() - children
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: every span with name, start, end, parent, and the
    /// workload it belongs to.
    pub fn to_json(&self) -> Value {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("id", Value::Num(id as f64)),
                    ("name", Value::Str(s.name.to_string())),
                    ("workload", Value::Str(self.workload.clone())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "self_ns",
                        Value::Num((s.duration_ns() - child_ns[id]) as f64),
                    ),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        obj([
            ("schema", Value::Str("fubar-benchmark-spans/1".to_string())),
            ("workload", Value::Str(self.workload.clone())),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new("w");
        // Hand-placed intervals: a root with two children, one of which
        // has a grandchild that must not be subtracted from the root.
        t.spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
            },
            Span {
                name: "b.inner",
                start_ns: 60,
                end_ns: 75,
                parent: Some(2),
            },
        ];
        assert_eq!(t.self_time_ns(0), 100 - 30 - 40);
        assert_eq!(t.self_time_ns(1), 30);
        assert_eq!(t.self_time_ns(2), 40 - 15);
        assert_eq!(t.self_time_ns(3), 15);
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let mut t = Tracer::new("w");
        let phase = t.enter("phase");
        let (v, secs) = t.call("leaf", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        t.exit(phase);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].duration_ns() >= t.spans()[1].duration_ns());
        let doc = t.to_json();
        assert_eq!(doc.get("spans").map(|s| s.as_array().len()), Some(2));
        assert_eq!(
            doc.get("spans").unwrap().as_array()[1]
                .get("workload")
                .and_then(Value::as_str),
            Some("w")
        );
    }
}
