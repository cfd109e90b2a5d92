//! Spans recorded by the benchmark around its calls into each layer's
//! public functions: name, start, end, parent span, and (on the served
//! workload) the id of the operation the span belongs to. Spans stay in
//! memory and are written once, when the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::report::json_str;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    end_ns: u64,
    op: Option<u64>,
}

/// An in-memory span recorder shared by every thread of a run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: impl Into<String>,
        parent: Option<u64>,
        op: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            op,
        });
        out
    }

    /// Records an interval the program measured itself (a phase time
    /// from its run report) as a span starting at `start_ns`; returns
    /// its end, where a following phase starts.
    pub fn record(
        &self,
        name: impl Into<String>,
        parent: Option<u64>,
        start_ns: u64,
        secs: f64,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let end_ns = start_ns + (secs.max(0.0) * 1e9) as u64;
        self.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            op: None,
        });
        end_ns
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking benchmark thread")
            .push(span);
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking benchmark thread")
            .len()
    }

    /// All spans as a JSON array, ordered by start time.
    pub fn to_json(&self) -> String {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock poisoned by a panicking benchmark thread")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"op\": {}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json_str(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.op.map_or("null".to_string(), |o| o.to_string()),
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
