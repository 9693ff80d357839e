//! Harness-owned spans: the trace run wraps every call into a crate's
//! public function in a span, keeps the spans in memory, and derives each
//! layer's busy time from them once the run is over.
//!
//! A layer is a crate (`cfront`, `ir`, `cladb`, ...). The harness's own work
//! inside the traced region (oracles, verification, waiting for children)
//! is the layer [`HARNESS`], so every nanosecond of the root span belongs
//! either to a layer or to the root's self time (`trace.unattributed_s`).

use std::collections::BTreeMap;
use std::time::Instant;

pub const HARNESS: &str = "bench";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// When off, [`Tracer::span`] only runs the closure: the untraced half
    /// of the tracing-overhead comparison.
    pub recording: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            recording: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.recording {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A span with no children of its own.
    pub fn leaf<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(layer, name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of self time, in seconds, of every span called `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        let own = self_times(&self.spans);
        let ns: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .sum();
        ns as f64 / 1e9
    }

    /// How many spans are called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per layer, in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let own = self_times(&self.spans);
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *out.entry(s.layer).or_insert(0) += t;
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events), loadable in Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Each span's duration minus the part of it its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        // root [0,100): a [10,40) holding a1 [15,25); b [40,70) adjacent to a.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 40, Some(0)),
            span("y", 15, 25, Some(1)),
            span("x", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30]);
        // Self times partition the root exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorded_spans_nest_and_partition_the_root() {
        let mut t = Tracer::new();
        t.span("root", "root", |t| {
            t.span("x", "outer", |t| {
                t.leaf("y", "inner", || std::hint::black_box(1))
            });
            t.leaf("x", "sibling", || std::hint::black_box(2));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let total: u64 = t.layer_self_ns().values().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        assert_eq!(t.count("inner"), 1);
        assert!(cla::serve::json::parse(t.chrome_json().trim()).is_ok());
    }

    #[test]
    fn not_recording_runs_the_closure_only() {
        let mut t = Tracer::new();
        t.recording = false;
        assert_eq!(t.leaf("x", "quiet", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
