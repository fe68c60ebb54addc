//! The repository's benchmark: RDFFrame pipeline to DataFrame, end to end
//! and split by layer, on four workloads (see `README.md` beside this
//! crate).
//!
//! ```text
//! cargo run --release --manifest-path framebench/Cargo.toml -- \
//!     --workload <cs1_features|cs3_bulk|cs3_wire_xml|serve_rw> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it prints the per-layer metrics from in-memory spans, and writes the spans
//! to `framebench/traces/`. The last line of standard output is the result
//! object; the line before it records the run's facts (seed, scale, thread
//! counts, tail percentile, ...).

mod alloc;
mod cs;
mod data;
mod layers;
mod paths;
mod report;
mod serve;
mod speed;
mod trace;

use std::time::Duration;

use report::{median, Outcome};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// Set-ups per run; `setup_s` is their median and the last one is measured.
pub const SETUP_REPEATS: usize = 5;

/// Set up [`SETUP_REPEATS`] times, dropping each set-up before the next, and
/// record `setup_s` (the median of their host-speed-scaled times) and
/// `resident_mb` (live heap after the last). Returns the last set-up, or
/// `None` after recording a failure.
pub fn set_up_repeatedly<S>(
    out: &mut Outcome,
    mut set_up: impl FnMut() -> Result<S, String>,
) -> Option<S> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut raw = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    let mut kernel = speed::Kernel::new();
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let (result, scaled, secs) = speed::scaled_secs(&mut kernel, &mut set_up);
        match result {
            Ok(s) => kept = Some(s),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up: {e}"));
                return None;
            }
        }
        times.push(scaled);
        raw.push(secs);
    }
    drop(kernel);
    out.set("setup_s", median(&times));
    out.note("raw_setup_s", format!("{:.4}", median(&raw)));
    out.set("resident_mb", ALLOC.live_bytes() as f64 / 1e6);
    kept
}

/// Run a timed window and record `peak_heap_mb`: the highest live heap
/// during it, above the level at its start.
pub fn with_peak_heap<T>(out: &mut Outcome, window: impl FnOnce(&mut Outcome) -> T) -> T {
    let base = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let result = window(out);
    out.set(
        "peak_heap_mb",
        ALLOC.peak_bytes().saturating_sub(base) as f64 / 1e6,
    );
    result
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        window: Duration::from_secs_f64(seconds.unwrap_or(10.0)),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // The engine and the embedded endpoint read these to change thread count
    // and batch size; the benchmark pins both itself. Removed before any
    // other thread exists.
    std::env::remove_var("RDFFRAMES_THREADS");
    std::env::remove_var("RDFFRAMES_BATCH_ROWS");

    let pinned_cpu = speed::pin_to_one_cpu();

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "framebench: {e}\nusage: framebench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "cs1_features" => cs::run(cs::Case::Cs1Features, &args),
        "cs3_bulk" => cs::run(cs::Case::Cs3Bulk, &args),
        "cs3_wire_xml" => cs::run(cs::Case::Cs3WireXml, &args),
        "serve_rw" => serve::run(&args),
        other => {
            eprintln!("framebench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    out.info.insert(0, ("workload", args.workload.clone()));
    out.info.insert(1, ("seed", args.seed.to_string()));
    out.info
        .insert(2, ("trace", u8::from(args.trace).to_string()));
    out.note("scale", data::SCALE);
    out.note(
        "hardware_threads",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    out.note(
        "pinned_cpu",
        pinned_cpu.map_or("none".to_string(), |c| c.to_string()),
    );
    out.note("engine_threads", data::ENGINE_THREADS);
    out.note("batch_rows", data::BATCH_ROWS);
    out.print(args.trace);
    if !out.is_correct() {
        std::process::exit(1);
    }
}
