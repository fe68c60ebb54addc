//! Per-layer metrics of the traced window, from the span profile and the
//! per-frame observations.

use std::sync::Arc;

use crate::paths::ReadObs;
use crate::report::{mean, median, Outcome};
use crate::trace::Profile;

/// What the traced window saw per frame, besides spans.
#[derive(Default)]
pub struct LayerObs {
    /// Plan-cache lookups and hits, judged from outside by `Arc` identity.
    pub lookups: u64,
    pub hits: u64,
    /// Endpoint requests per real call.
    pub pages: Vec<f64>,
    pub obs: Vec<ReadObs>,
    pub rows: Vec<f64>,
    pub cells: Vec<f64>,
}

/// Reads one per-frame count from an observation.
type Counter = fn(&ReadObs) -> u64;

/// A plan-cache hit: the cache held a plan before the call and still holds
/// the very same one after it.
pub fn same_plan<T>(before: Option<Arc<T>>, after: Option<Arc<T>>) -> bool {
    matches!((before, after), (Some(a), Some(b)) if Arc::ptr_eq(&a, &b))
}

/// The read-path metrics, each layer's self-time share, and the trace
/// overhead against the untraced `frame_p50_ms`. `embedded_scanned` is the
/// embedded path's rows scanned for the same frame (0 when the workload runs
/// many frames).
pub fn read_metrics(
    out: &mut Outcome,
    p: &Profile,
    seen: &LayerObs,
    embedded_scanned: u64,
    untraced_p50: f64,
) {
    let ms = |name: &str| median(&p.samples_ms("read", name));
    let per_frame = |f: Counter| mean(&seen.obs.iter().map(|o| f(o) as f64).collect::<Vec<_>>());
    out.set("model.generator.us", ms("model.generator") * 1e3);
    out.set("model.render.us", ms("model.render") * 1e3);
    out.set("model.render.bytes", per_frame(|o| o.render_bytes as u64));
    out.set("model.compile.us", ms("model.compile") * 1e3);
    out.set("engine.parser.us", ms("engine.parser") * 1e3);
    out.set("engine.optimizer.us", ms("engine.optimizer") * 1e3);
    if seen.lookups > 0 {
        out.set(
            "client.plan_cache.hit_ratio",
            seen.hits as f64 / seen.lookups as f64,
        );
    }
    out.set("engine.eval.ms", ms("engine.eval"));
    let scanned = per_frame(|o| o.stats.rows_scanned);
    out.set("engine.eval.rows_scanned", scanned);
    let counters: [(&str, Counter); 7] = [
        ("engine.eval.merge_joins", |o| o.stats.merge_joins),
        ("engine.eval.merge_left_joins", |o| o.stats.merge_left_joins),
        ("engine.eval.sorted_groups", |o| o.stats.sorted_groups),
        ("engine.eval.sorted_distincts", |o| o.stats.sorted_distincts),
        ("engine.eval.peak_live_rows", |o| o.stats.peak_live_rows),
        ("engine.eval.peak_live_bytes", |o| o.stats.peak_live_bytes),
        ("engine.eval.batches", |o| o.stats.batches_emitted),
    ];
    for (name, f) in counters {
        out.set(name, per_frame(f));
    }
    let convert_ms = ms("client.convert");
    out.set("client.convert.ms", convert_ms);
    let cells = mean(&seen.cells);
    if cells > 0.0 {
        out.set("client.convert.ns_per_cell", convert_ms * 1e6 / cells);
    }
    out.set("client.xml.encode_ms", ms("client.xml.encode"));
    out.set("client.xml.decode_ms", ms("client.xml.decode"));
    let rows = mean(&seen.rows);
    if rows > 0.0 {
        out.set("engine.eval.scan_per_row", scanned / rows);
        out.set(
            "client.xml.bytes_per_row",
            per_frame(|o| o.xml_bytes as u64) / rows,
        );
    }
    out.set("exec.pages", mean(&seen.pages));
    if embedded_scanned > 0 {
        out.set("exec.scan_amplification", scanned / embedded_scanned as f64);
    }
    if untraced_p50 > 0.0 {
        out.set(
            "bench.trace_overhead",
            median(&p.request_ms("read")) / untraced_p50,
        );
    }
    self_shares(out, p);
}

/// Each layer's share of all self time in the traced window, and the layer
/// with the largest share.
fn self_shares(out: &mut Outcome, p: &Profile) {
    const LAYERS: [(&str, &str, &str); 8] = [
        ("model.self_pct", "model", "model."),
        ("engine.parser.self_pct", "engine.parser", "engine.parser"),
        (
            "engine.optimizer.self_pct",
            "engine.optimizer",
            "engine.optimizer",
        ),
        ("engine.eval.self_pct", "engine.eval", "engine.eval"),
        (
            "client.convert.self_pct",
            "client.convert",
            "client.convert",
        ),
        ("client.xml.self_pct", "client.xml", "client.xml"),
        ("persist.self_pct", "persist", "persist."),
        ("concurrent.self_pct", "concurrent", "concurrent."),
    ];
    let mut top = ("", 0.0);
    for (metric, layer, prefix) in LAYERS {
        let pct = p.share_pct(prefix);
        out.set(metric, pct);
        if pct > top.1 {
            top = (layer, pct);
        }
    }
    out.note("top_self_time_layer", top.0);
}
