//! In-memory span recorder for the traced pass.
//!
//! The benchmark records a span around each call into a layer's public
//! functions: name, start, end, the span that caused it, and the id of
//! the request or task set it served. Spans stay in memory while the
//! pass runs and are written out once at exit. A layer's *self time* is
//! its span's duration minus the part its children cover.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle to a recorded span (its index in the tracer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `workload.cache_delay`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<u32>,
    /// Request nonce or task-set index shared by the spans of one unit.
    pub id: u64,
}

/// Per-name totals over all spans.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LayerTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Span name → totals. (An alias because the vendored serde derive cannot
/// parse a comma inside a field's type.)
type Layers = BTreeMap<String, LayerTotal>;

/// What a trace file holds: the per-name aggregate over every span, and
/// the first `spans.len()` of `span_count` spans verbatim.
#[derive(Serialize)]
struct TraceFile {
    workload: String,
    span_count: u64,
    layers: Layers,
    spans: Vec<Span>,
}

/// A span as recorded: the name is an index into the tracer's name table.
#[derive(Clone, Copy)]
struct Raw {
    name: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    id: u64,
}

/// Records spans in memory.
pub struct Tracer {
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Raw>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn name_idx(&mut self, name: &str) -> u32 {
        // A handful of distinct names per workload: a linear scan beats
        // hashing.
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u32
            }
        }
    }

    /// Records a finished span with explicit times.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let name = self.name_idx(name);
        self.spans.push(Raw {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: parent.map(|p| p.0),
            id,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &str, parent: Option<SpanId>, id: u64) -> SpanId {
        let t = self.now();
        self.record(name, parent, id, t, t)
    }

    /// Closes a span opened by [`Tracer::start`].
    pub fn end(&mut self, span: SpanId) {
        let t = self.now();
        let s = &mut self.spans[span.0 as usize];
        s.end_ns = t.max(s.start_ns);
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.start(name, parent, id);
        let out = f();
        self.end(span);
        out
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover (children are clipped to the
    /// parent, and never push a self time below zero).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p as usize] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn by_name(&self) -> BTreeMap<String, LayerTotal> {
        let mut totals = vec![LayerTotal::default(); self.names.len()];
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = &mut totals[s.name as usize];
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        self.names.iter().cloned().zip(totals).collect()
    }

    /// Writes the trace file: the aggregate over every span plus the
    /// first `max_spans` spans verbatim.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        max_spans: usize,
    ) -> std::io::Result<()> {
        let file = TraceFile {
            workload: workload.to_string(),
            span_count: self.spans.len() as u64,
            layers: self.by_name(),
            spans: self
                .spans
                .iter()
                .take(max_spans)
                .map(|s| Span {
                    name: self.names[s.name as usize].clone(),
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                    parent: s.parent,
                    id: s.id,
                })
                .collect(),
        };
        let json = serde_json::to_string(&file)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let root = t.record("set", None, 7, 0, 1_000);
        let gen = t.record("taskgen", Some(root), 7, 100, 300);
        let _grandchild = t.record("rng", Some(gen), 7, 150, 200);
        let _pack = t.record("pack", Some(root), 7, 400, 900);
        assert_eq!(t.self_times(), vec![1_000 - 200 - 500, 200 - 50, 50, 500]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let mut t = Tracer::new();
        let root = t.record("request", None, 1, 100, 200);
        // Starts before and ends after the parent: only the overlap counts.
        t.record("wait", Some(root), 1, 50, 400);
        assert_eq!(t.self_times()[0], 0);
        let other = t.record("request", None, 2, 1_000, 1_100);
        t.record("wait", Some(other), 2, 1_090, 1_500);
        assert_eq!(t.self_times()[2], 90);
    }

    #[test]
    fn totals_group_by_name() {
        let mut t = Tracer::new();
        for id in 0..3u64 {
            let base = id * 100;
            let root = t.record("set", None, id, base, base + 50);
            t.record("inflate", Some(root), id, base + 10, base + 30);
        }
        let by = t.by_name();
        assert_eq!(
            by["set"],
            LayerTotal {
                count: 3,
                total_ns: 150,
                self_ns: 90
            }
        );
        assert_eq!(by["inflate"].self_ns, 60);
        assert!(!by.contains_key("absent"));
    }

    #[test]
    fn live_spans_nest_and_close() {
        let mut t = Tracer::new();
        let root = t.start("outer", None, 0);
        let x = t.time("inner", Some(root), 0, || 41 + 1);
        t.end(root);
        assert_eq!(x, 42);
        assert_eq!(t.span_count(), 2);
        let selfs = t.self_times();
        let by = t.by_name();
        assert_eq!(by["outer"].total_ns, selfs[0] + by["inner"].total_ns);
    }
}
