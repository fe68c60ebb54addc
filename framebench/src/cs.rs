//! The case-study workloads: one client, closed loop, the same frame over
//! and over.
//!
//! - `cs1_features`: case study 1 (paper Listing 3) on `EmbeddedEndpoint`.
//! - `cs3_bulk`: case study 3 (Listing 7) on `EmbeddedEndpoint`.
//! - `cs3_wire_xml`: case study 3 through `Executor` on an
//!   `InProcessEndpoint` with XML results and a 10,000-row page cap
//!   (Virtuoso's stock `ResultSetMaxRows`).

use std::time::Instant;

use bench::casestudies::{self, CaseParams};
use dataframe::DataFrame;
use rdfframes_core::model::{generator, render};
use rdfframes_core::{EmbeddedEndpoint, InProcessEndpoint, RDFFrame, WireFormat};

use crate::data::{self, Fingerprint};
use crate::layers::{self, LayerObs};
use crate::paths;
use crate::report::{median, Outcome};
use crate::speed::HostClock;
use crate::trace::{self, Profile, Tracer};
use crate::{set_up_repeatedly, with_peak_heap, Args};

/// Virtuoso's stock `ResultSetMaxRows`.
const XML_PAGE_ROWS: usize = 10_000;

/// The reference endpoint's page cap: the endpoint default, above every
/// frame here, so the reference answers in one page.
pub const WIRE_NONE_PAGE_ROWS: usize = 100_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Case {
    Cs1Features,
    Cs3Bulk,
    Cs3WireXml,
}

struct Setup {
    frame: RDFFrame,
    embedded: EmbeddedEndpoint,
    xml: Option<InProcessEndpoint>,
    expected: Fingerprint,
    /// Rows the embedded path scans for one frame.
    embedded_scanned: u64,
    triples: usize,
}

impl Setup {
    /// One untraced frame on the workload's path.
    fn execute(&self) -> Result<DataFrame, String> {
        match &self.xml {
            Some(xml) => self.frame.execute(xml),
            None => self.frame.execute(&self.embedded),
        }
        .map_err(|e| e.to_string())
    }
}

/// Dataset build, endpoint open, and the differential warm-up: the embedded
/// frame must equal the `wire_none` frame and be non-empty; that frame's
/// fingerprint is what every later frame is checked against.
fn set_up(case: Case, seed: u64) -> Result<Setup, String> {
    let ds = data::build_dataset(seed);
    let frame = match case {
        Case::Cs1Features => {
            casestudies::movie_genre_classification(CaseParams::for_scale(data::SCALE).prolific)
        }
        Case::Cs3Bulk | Case::Cs3WireXml => casestudies::kg_embedding(),
    };
    let embedded = data::embedded(&ds);
    let df = frame.execute(&embedded).map_err(|e| e.to_string())?;
    let expected = data::fingerprint(&df);
    drop(df);
    let embedded_scanned = embedded.rows_scanned();
    let wire_none = data::wire(&ds, WireFormat::None, WIRE_NONE_PAGE_ROWS);
    let reference = data::fingerprint(&frame.execute(&wire_none).map_err(|e| e.to_string())?);
    if reference != expected {
        return Err(format!(
            "embedded {expected:?} disagrees with wire_none {reference:?}"
        ));
    }
    if expected.rows == 0 {
        return Err("case-study frame is empty on this seed".into());
    }
    let xml = (case == Case::Cs3WireXml).then(|| data::wire(&ds, WireFormat::Xml, XML_PAGE_ROWS));
    let setup = Setup {
        frame,
        embedded,
        xml,
        expected,
        embedded_scanned,
        triples: ds.total_triples(),
    };
    if setup.xml.is_some() {
        let got = data::fingerprint(&setup.execute()?);
        if got != expected {
            return Err(format!(
                "wire_xml {got:?} disagrees with embedded {expected:?}"
            ));
        }
    }
    Ok(setup)
}

pub fn run(case: Case, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some(s) = set_up_repeatedly(&mut out, || set_up(case, args.seed)) else {
        return out;
    };
    out.note("triples", s.triples);
    out.note("rows", s.expected.rows);
    out.note("client_threads", 1);
    out.note("loop", "closed, one client");
    if let Some(xml) = &s.xml {
        use rdfframes_core::Endpoint as _;
        out.note("page_rows", xml.max_rows_per_request());
    }

    let mut clock = HostClock::start();
    if !args.trace {
        let frames = with_peak_heap(&mut out, |out| {
            untraced_window(&s, args.window, &mut clock, out)
        });
        out.frame_metrics(&frames, &clock);
        return out;
    }

    let untraced = untraced_window(&s, args.window / 2, &mut clock, &mut out);
    traced_window(&s, args, median(&untraced), &mut out);
    out
}

/// Closed loop of untraced frames, with the reference kernel between them;
/// returns the per-frame latencies in ms.
fn untraced_window(
    s: &Setup,
    window: std::time::Duration,
    clock: &mut HostClock,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut lat = Vec::new();
    let end = Instant::now() + window;
    while Instant::now() < end {
        clock.tick();
        out.attempted += 1;
        let t = Instant::now();
        let result = s.execute();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(df) => {
                let got = data::fingerprint(&df);
                if got == s.expected {
                    lat.push(ms);
                } else {
                    out.fail(format!("frame {got:?}, expected {:?}", s.expected));
                }
            }
            Err(e) => out.fail(e),
        }
    }
    lat
}

fn traced_window(s: &Setup, args: &Args, untraced_p50: f64, out: &mut Outcome) {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, "read");
    let mut seen = LayerObs::default();
    let end = origin + args.window / 2;
    while Instant::now() < end {
        out.attempted += 1;
        if let Err(e) = traced_frame(s, &mut tracer, &mut seen) {
            out.fail(e);
        }
    }
    let mut profile = Profile::default();
    profile.add(&tracer);
    layers::read_metrics(out, &profile, &seen, s.embedded_scanned, untraced_p50);
    trace::write_spans(&args.workload, args.seed, &[&tracer]);
}

/// One real call with outside-in counters, then the rebuilt traced path;
/// both must produce the expected frame.
fn traced_frame(s: &Setup, tracer: &mut Tracer, seen: &mut LayerObs) -> Result<(), String> {
    let model = generator::build_query_model(&s.frame).map_err(|e| e.to_string())?;
    let (hit, pages, df) = match &s.xml {
        Some(xml) => {
            let key = render::render(&model);
            let before = xml.cached_plan(&key);
            let requests = xml.stats().requests();
            let df = s.execute()?;
            let after = xml.cached_plan(&key);
            (
                layers::same_plan(before, after),
                xml.stats().requests() - requests,
                df,
            )
        }
        None => {
            let before = s.embedded.cached_model_plan(&model);
            let requests = s.embedded.stats().requests();
            let df = s.execute()?;
            let after = s.embedded.cached_model_plan(&model);
            (
                layers::same_plan(before, after),
                s.embedded.stats().requests() - requests,
                df,
            )
        }
    };
    check(&df, s.expected, "untraced")?;
    seen.lookups += 1;
    seen.hits += u64::from(hit);
    seen.pages.push(pages as f64);

    tracer.next_request();
    let (df, obs) = match &s.xml {
        Some(xml) => paths::wire(tracer, &s.frame, xml)?,
        None => paths::embedded(tracer, &s.frame, s.embedded.engine(), data::BATCH_ROWS)?,
    };
    check(&df, s.expected, "rebuilt")?;
    seen.rows.push(df.len() as f64);
    seen.cells.push((df.len() * df.columns().len()) as f64);
    seen.obs.push(obs);
    Ok(())
}

fn check(df: &DataFrame, expected: Fingerprint, path: &str) -> Result<(), String> {
    let got = data::fingerprint(df);
    if got == expected {
        Ok(())
    } else {
        Err(format!("{path} frame {got:?}, expected {expected:?}"))
    }
}
