//! Metric names, summary statistics, and the result line.

use std::collections::BTreeMap;

use crate::speed::HostClock;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("resident_mb", "MB"),
    ("frame_p50_ms", "ms"),
    ("frame_tail_ms", "ms"),
    ("frames_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A metric that does not
/// apply to a workload (no writes, no wire pages, ...) reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("model.generator.us", "us"),
    ("model.render.us", "us"),
    ("model.render.bytes", "bytes"),
    ("model.compile.us", "us"),
    ("engine.parser.us", "us"),
    ("engine.optimizer.us", "us"),
    ("client.plan_cache.hit_ratio", "ratio"),
    ("engine.eval.ms", "ms"),
    ("engine.eval.rows_scanned", "count"),
    ("engine.eval.scan_per_row", "ratio"),
    ("engine.eval.merge_joins", "count"),
    ("engine.eval.merge_left_joins", "count"),
    ("engine.eval.sorted_groups", "count"),
    ("engine.eval.sorted_distincts", "count"),
    ("engine.eval.peak_live_rows", "count"),
    ("engine.eval.peak_live_bytes", "bytes"),
    ("engine.eval.batches", "count"),
    ("client.convert.ms", "ms"),
    ("client.convert.ns_per_cell", "ns"),
    ("client.xml.encode_ms", "ms"),
    ("client.xml.decode_ms", "ms"),
    ("client.xml.bytes_per_row", "bytes"),
    ("exec.pages", "count"),
    ("exec.scan_amplification", "ratio"),
    ("serving.shed", "count"),
    ("serving.timed_out", "count"),
    ("serving.write_p50_ms", "ms"),
    ("serving.write_tail_ms", "ms"),
    ("persist.commit_ms", "ms"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoints", "count"),
    ("persist.wal_bytes_per_write", "bytes"),
    ("concurrent.publish_ms", "ms"),
    ("dataset.rank_rebuilds", "count"),
    ("model.self_pct", "%"),
    ("engine.parser.self_pct", "%"),
    ("engine.optimizer.self_pct", "%"),
    ("engine.eval.self_pct", "%"),
    ("client.convert.self_pct", "%"),
    ("client.xml.self_pct", "%"),
    ("persist.self_pct", "%"),
    ("concurrent.self_pct", "%"),
    ("bench.sched_lag_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run facts recorded alongside the metrics (seed, scale, threads, ...).
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Record a failed operation (its check or its call) and why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Frame latency metrics from per-frame latencies in ms, scaled to the
    /// reference host speed: p50, the tail, and the rate over the time spent
    /// inside the timed calls. The raw figures go on the facts line.
    pub fn frame_metrics(&mut self, raw: &[f64], clock: &HostClock) {
        let scaled = clock.scale(raw);
        let t = tail(&scaled);
        self.set("frame_p50_ms", median(&scaled));
        self.set("frame_tail_ms", t.value);
        self.set("frames_per_s", rate(&scaled));
        self.note("frames", raw.len());
        self.note("frame_tail_percentile", format!("{:.2}", t.percentile));
        self.note("frame_tail_samples_beyond", t.beyond);
        self.note("raw_frame_p50_ms", format!("{:.4}", median(raw)));
        self.note("raw_frame_tail_ms", format!("{:.4}", tail(raw).value));
        self.note("raw_frames_per_s", format!("{:.4}", rate(raw)));
        self.note("kernel_ms", format!("{:.4}", clock.kernel_ms()));
    }

    /// Print the facts line and, last, the result line.
    pub fn print(&self, trace: bool) {
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        };
        let mut facts = String::from("{");
        for (i, (k, v)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            facts.push_str(&format!("{sep}\"{k}\": \"{}\"", escape(v)));
        }
        facts.push('}');
        println!("{facts}");
        for p in &self.problems {
            eprintln!("check failed: {p}");
        }
        let mut metrics = String::from("{");
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            metrics.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        metrics.push('}');
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.is_correct(),
            self.attempted.max(1),
            self.failed
        );
    }

    pub fn is_correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Operations per second of time spent inside them.
fn rate(latencies_ms: &[f64]) -> f64 {
    let busy_s: f64 = latencies_ms.iter().sum::<f64>() / 1e3;
    if busy_s > 0.0 {
        latencies_ms.len() as f64 / busy_s
    } else {
        0.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of a latency sample: the value at the highest percentile with at
/// least ten samples beyond it (the maximum when there are ten or fewer).
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
        };
    }
    let idx = n.saturating_sub(11);
    let idx = if n <= 10 { n - 1 } else { idx };
    Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - idx - 1,
    }
}
