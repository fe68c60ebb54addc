//! In-memory spans recorded around the calls into each layer, and the
//! self-time breakdown computed from them.
//!
//! A span's self time is its duration minus the time its child spans cover,
//! minus any time marked as *excluded*: work inside the span that repeats
//! work measured elsewhere (the embedded path's decode drain re-evaluates the
//! query; a warm bare drain, timed outside any span, measures that
//! evaluation).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    excluded_ns: u64,
}

/// Spans of one thread. Spans nest by a stack: a span entered while another
/// is open becomes its child.
pub struct Tracer {
    origin: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(origin: Instant, thread: &'static str) -> Self {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start the next request: spans entered from here on share its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
            excluded_ns: 0,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let popped = self.stack.pop();
        assert_eq!(popped, Some(id), "spans must close in nesting order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Mark `ns` of span `id` as repeating work measured elsewhere.
    pub fn exclude(&mut self, id: usize, ns: u64) {
        self.spans[id].excluded_ns += ns;
    }

    /// Run `f` inside a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// Self time per span name, per request and in total.
#[derive(Default)]
pub struct Profile {
    /// (thread, request) → span name → self ns within that request.
    requests: BTreeMap<(&'static str, u64), BTreeMap<&'static str, u64>>,
    totals: BTreeMap<&'static str, u64>,
}

impl Profile {
    pub fn add(&mut self, tracer: &Tracer) {
        let spans = &tracer.spans;
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (s, covered) in spans.iter().zip(covered) {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(covered)
                .saturating_sub(s.excluded_ns);
            *self
                .requests
                .entry((tracer.thread, s.request))
                .or_default()
                .entry(s.name)
                .or_default() += own;
            *self.totals.entry(s.name).or_default() += own;
        }
    }

    /// Per-request self time of `name` in ms, over the requests of `thread`
    /// that recorded it.
    pub fn samples_ms(&self, thread: &str, name: &str) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|((t, _), _)| *t == thread)
            .filter_map(|(_, names)| names.get(name))
            .map(|&ns| ns as f64 / 1e6)
            .collect()
    }

    /// Per-request latency in ms as the trace sees it: the sum of every self
    /// time in the request (the excluded repeat work left out).
    pub fn request_ms(&self, thread: &str) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|((t, _), _)| *t == thread)
            .map(|(_, names)| names.values().sum::<u64>() as f64 / 1e6)
            .collect()
    }

    /// Share of all self time, in percent, spent in spans whose name starts
    /// with `prefix`.
    pub fn share_pct(&self, prefix: &str) -> f64 {
        let total: u64 = self.totals.values().sum();
        let part: u64 = self
            .totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ns)| ns)
            .sum();
        if total == 0 {
            0.0
        } else {
            100.0 * part as f64 / total as f64
        }
    }
}

/// Write every span, one JSON object per line, to
/// `framebench/traces/<workload>-seed<n>.jsonl`. A failed write is reported
/// but does not fail the run: the metrics come from the spans in memory.
pub fn write_spans(workload: &str, seed: u64, tracers: &[&Tracer]) {
    let dir = std::path::Path::new("framebench/traces");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let result =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, to_jsonl(tracers)));
    if let Err(e) = result {
        eprintln!("framebench: could not write {}: {e}", path.display());
    }
}

fn to_jsonl(tracers: &[&Tracer]) -> String {
    let mut out = String::new();
    for t in tracers {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\":\"{}\",\"request\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"excluded_ns\":{}}}",
                t.thread, s.request, s.name, s.start_ns, s.end_ns, s.excluded_ns
            );
        }
    }
    out
}
