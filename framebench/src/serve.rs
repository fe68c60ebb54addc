//! `serve_rw`: `DurableSnapshotServer` over `MemVfs` (an in-memory file
//! system, so no write pays an fsync) with one reader and one writer.
//!
//! - Reader: closed loop over a fixed query mix in seeded order (each query
//!   once per round), through `DurableSnapshotServer::execute`.
//! - Writer: open loop, one fresh `dbpp:starring` triple every
//!   [`WRITE_PERIOD`], each timed from when it was due. Every write commits
//!   to the WAL, copies the graph, publishes an epoch, and so invalidates the
//!   plan caches and the term-rank permutation; the low checkpoint threshold
//!   makes each run span several checkpoints.
//!
//! Checks: reads the writes cannot touch match their set-up fingerprint; Q16
//! (every starring pair) has between base + writes acknowledged before the
//! read began and base + writes started by the time it ended; the server's
//! counters reconcile with what the benchmark saw.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::data::uris;
use bench::queries;
use rand::rngs::StdRng;
use rand::Rng as _;
use rdf_model::persist::{MemVfs, Vfs};
use rdf_model::{Store, Term, Triple};
use rdfframes_core::model::generator;
use rdfframes_core::{
    DurableSnapshotServer, EndpointConfig, Executor, RDFFrame, ServingConfig, SnapshotServer,
    WireFormat,
};

use crate::cs::WIRE_NONE_PAGE_ROWS;
use crate::data::{self, Fingerprint};
use crate::layers::{self, LayerObs};
use crate::paths;
use crate::report::{mean, median, tail, Outcome};
use crate::speed::HostClock;
use crate::trace::{self, Profile, Tracer};
use crate::{set_up_repeatedly, with_peak_heap, Args};

/// The reader's query mix.
const MIX: [&str; 12] = [
    "Q1", "Q2", "Q3", "Q4", "Q6", "Q7", "Q10", "Q12", "Q15", "Q16", "Q17", "Q18",
];

/// The one query in [`MIX`] the writes change: every starring pair. Each
/// write adds a starring triple between a fresh movie and a fresh actor that
/// have no other property, so no other query in the mix can match them.
const TOUCHED: &str = "Q16";

/// Open-loop write schedule: 20 writes per second.
const WRITE_PERIOD: Duration = Duration::from_millis(50);

/// WAL size that triggers a checkpoint after a write. One write logs about
/// 200 bytes, so this checkpoints about every 20 writes (once a second).
const CHECKPOINT_WAL_BYTES: u64 = 4096;

struct Setup {
    server: DurableSnapshotServer,
    mix: Vec<(&'static str, RDFFrame)>,
    expected: Vec<Fingerprint>,
    touched: usize,
    /// WAL commits made by seeding the server.
    seed_commits: u64,
}

fn serving_config() -> ServingConfig {
    ServingConfig {
        engine_config: data::engine_config(),
        endpoint_config: EndpointConfig::default(),
        checkpoint_wal_bytes: Some(CHECKPOINT_WAL_BYTES),
        ..ServingConfig::default()
    }
}

/// Dataset build, durable server open and seed, and the differential
/// warm-up: every query of the mix through the server must equal the same
/// query on a `wire_none` endpoint over the served snapshot.
fn set_up(seed: u64) -> Result<Setup, String> {
    let ds = data::build_dataset(seed);
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let server = DurableSnapshotServer::open(vfs, serving_config()).map_err(|e| e.to_string())?;
    for uri in data::GRAPHS {
        let graph = ds.graph(uri).ok_or("generated graph missing")?;
        server.insert_graph(uri, graph).map_err(|e| e.to_string())?;
    }
    drop(ds);
    let snap = server.snapshot();
    let wire_none = data::wire(snap.dataset(), WireFormat::None, WIRE_NONE_PAGE_ROWS);
    let mut mix = Vec::new();
    let mut expected = Vec::new();
    for q in queries::all_queries() {
        if !MIX.contains(&q.id) {
            continue;
        }
        let got = data::fingerprint(&server.execute(&q.frame).map_err(|e| e.to_string())?);
        let reference = data::fingerprint(&q.frame.execute(&wire_none).map_err(|e| e.to_string())?);
        if got != reference {
            return Err(format!(
                "{}: embedded {got:?} disagrees with wire_none {reference:?}",
                q.id
            ));
        }
        mix.push((q.id, q.frame));
        expected.push(got);
    }
    let touched = mix
        .iter()
        .position(|(id, _)| *id == TOUCHED)
        .ok_or("touched query missing from the mix")?;
    let seed_commits = server.stats().wal_commits;
    Ok(Setup {
        server,
        mix,
        expected,
        touched,
        seed_commits,
    })
}

/// Seeded read order in which every query of the mix comes once per round,
/// in a fresh shuffled order each round, so every run reads the same mix.
/// (Q16 takes most of the read time, so a drawn-at-random mix would move
/// `frames_per_s` by a few percent from run to run on its own.)
struct ReadOrder {
    rng: StdRng,
    round: Vec<usize>,
    next: usize,
}

impl ReadOrder {
    fn new(seed: u64, stream: u64, queries: usize) -> Self {
        ReadOrder {
            rng: data::rng(seed, stream),
            round: (0..queries).collect(),
            next: queries,
        }
    }

    fn next(&mut self) -> usize {
        if self.next == self.round.len() {
            for i in (1..self.round.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.round.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.round[self.next - 1]
    }
}

/// The `i`-th write's triple: a fresh movie starring a fresh actor.
fn payload(tag: u64, i: u64) -> Triple {
    Triple::new(
        Term::iri(format!(
            "http://dbpedia.org/resource/Framebench_movie_{tag:016x}_{i}"
        )),
        Term::iri("http://dbpedia.org/property/starring"),
        Term::iri(format!(
            "http://dbpedia.org/resource/Framebench_actor_{tag:016x}_{i}"
        )),
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some(s) = set_up_repeatedly(&mut out, || set_up(args.seed)) else {
        return out;
    };
    out.note("triples", s.server.snapshot().dataset().total_triples());
    out.note("client_threads", 2);
    out.note(
        "loop",
        format!(
            "reader closed; writer open at {}/s",
            1000 / WRITE_PERIOD.as_millis()
        ),
    );
    out.note("vfs", "MemVfs, no fsync");
    out.note("checkpoint_wal_bytes", CHECKPOINT_WAL_BYTES);
    let tag: u64 = data::rng(args.seed, 3).gen();

    let mut clock = HostClock::start();
    if !args.trace {
        let w = with_peak_heap(&mut out, |out| {
            untraced_window(&s, args, args.window, tag, &mut clock, out)
        });
        out.frame_metrics(&w.reads, &clock);
        out.note("writes", w.writes.len());
        return out;
    }

    let w = untraced_window(&s, args, args.window / 2, tag, &mut clock, &mut out);
    let stats = s.server.stats();
    out.set("serving.shed", stats.shed as f64);
    out.set("serving.timed_out", stats.timed_out as f64);
    out.set("serving.write_p50_ms", median(&w.writes));
    out.set("serving.write_tail_ms", tail(&w.writes).value);
    out.set("bench.sched_lag_ms", mean(&w.lag));
    let untraced_p50 = median(&w.reads);
    if let Err(e) = traced_window(&s, args, tag, untraced_p50, &mut out) {
        out.attempted += 1;
        out.fail(e);
    }
    out
}

/// What one untraced window measured.
struct Window {
    reads: Vec<f64>,
    writes: Vec<f64>,
    lag: Vec<f64>,
}

/// The writer's part of a window.
#[derive(Default)]
struct Writes {
    latencies: Vec<f64>,
    lag: Vec<f64>,
    attempted: u64,
    errors: Vec<String>,
}

/// Writes started and acknowledged so far in a window. A read sees every
/// write acknowledged before it began and no write started after it ended; a
/// write published but not yet acknowledged may or may not be seen.
#[derive(Default)]
struct Progress {
    started: AtomicU64,
    acked: AtomicU64,
}

impl Progress {
    fn acked(&self) -> u64 {
        self.acked.load(Ordering::SeqCst)
    }

    fn started(&self) -> u64 {
        self.started.load(Ordering::SeqCst)
    }
}

/// Run `write(i)` for each due time of the open-loop schedule inside
/// `[start, end)`, counting writes in `progress`.
fn open_loop(
    start: Instant,
    end: Instant,
    progress: &Progress,
    mut write: impl FnMut(u64) -> Result<(), String>,
) -> Writes {
    let mut w = Writes::default();
    for i in 0u64.. {
        let due = start + WRITE_PERIOD * i as u32;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        w.lag
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        w.attempted += 1;
        // SeqCst: the reader's row-count bounds rely on `started` moving
        // before the write publishes and `acked` after it has.
        progress.started.fetch_add(1, Ordering::SeqCst);
        match write(i) {
            Ok(()) => {
                progress.acked.fetch_add(1, Ordering::SeqCst);
                w.latencies.push(due.elapsed().as_secs_f64() * 1e3);
            }
            Err(e) => w.errors.push(e),
        }
    }
    w
}

/// Check one read of query `qi`: the touched query by row-count range,
/// every other query by its set-up fingerprint.
fn check_read(
    s: &Setup,
    qi: usize,
    got: Fingerprint,
    base: usize,
    lo: u64,
    hi: u64,
) -> Result<(), String> {
    if qi == s.touched {
        let (lo, hi) = (base + lo as usize, base + hi as usize);
        if got.rows < lo || got.rows > hi {
            return Err(format!(
                "{TOUCHED}: {} rows, expected {lo}..={hi}",
                got.rows
            ));
        }
    } else if got != s.expected[qi] {
        return Err(format!(
            "{}: {got:?}, expected {:?}",
            s.mix[qi].0, s.expected[qi]
        ));
    }
    Ok(())
}

fn untraced_window(
    s: &Setup,
    args: &Args,
    window: Duration,
    tag: u64,
    clock: &mut HostClock,
    out: &mut Outcome,
) -> Window {
    let progress = Progress::default();
    let base = s.expected[s.touched].rows;
    let mut reads = Vec::new();
    let start = Instant::now();
    let end = start + window;
    let writes = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            open_loop(start, end, &progress, |i| {
                s.server
                    .append_triples(uris::DBPEDIA, vec![payload(tag, i)])
                    .map(drop)
                    .map_err(|e| e.to_string())
            })
        });
        let mut order = ReadOrder::new(args.seed, 2, s.mix.len());
        while Instant::now() < end {
            // The kernel runs only while no write is in flight, so the
            // writer's own load on the host is measured, not scaled away.
            if progress.started() == progress.acked() {
                clock.tick();
            }
            let qi = order.next();
            out.attempted += 1;
            let lo = progress.acked();
            let t = Instant::now();
            let result = s.server.execute(&s.mix[qi].1);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let hi = progress.started();
            match result
                .map_err(|e| e.to_string())
                .and_then(|df| check_read(s, qi, data::fingerprint(&df), base, lo, hi))
            {
                Ok(()) => reads.push(ms),
                Err(e) => out.fail(e),
            }
        }
        writer.join().expect("writer thread panicked")
    });
    let acked = progress.acked();
    out.attempted += writes.attempted;
    for e in writes.errors {
        out.fail(format!("write: {e}"));
    }
    // After the window: every acknowledged write is visible, and the
    // server's counters agree with what the benchmark saw.
    match s.server.execute(&s.mix[s.touched].1) {
        Ok(df) if df.len() == base + acked as usize => {}
        Ok(df) => out.fail(format!(
            "{TOUCHED} after the window: {} rows, expected {}",
            df.len(),
            base + acked as usize
        )),
        Err(e) => out.fail(e.to_string()),
    }
    let stats = s.server.stats();
    if stats.admitted + stats.shed != stats.submitted {
        out.fail(format!("server counters do not reconcile: {stats:?}"));
    }
    if stats.wal_commits != s.seed_commits + acked {
        out.fail(format!(
            "{} WAL commits, expected {} seed + {acked} acknowledged",
            stats.wal_commits, s.seed_commits
        ));
    }
    Window {
        reads,
        writes: writes.latencies,
        lag: writes.lag,
    }
}

/// The traced half of `serve_rw`: the server rebuilt from `Store` and
/// `SnapshotServer` (what `DurableSnapshotServer` is made of) so each write
/// step gets its own span, seeded with the durable server's current graphs.
/// Each read is the rebuilt embedded path over the current epoch, then one
/// real call through the epoch's embedded endpoint with outside-in counters.
fn traced_window(
    s: &Setup,
    args: &Args,
    tag: u64,
    untraced_p50: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let current = s.server.snapshot();
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let mut store = Store::open(vfs).map_err(|e| e.to_string())?;
    for uri in data::GRAPHS {
        let graph = current.dataset().graph(uri).ok_or("served graph missing")?;
        store.insert_graph(uri, graph).map_err(|e| e.to_string())?;
        if store.wal_len() > CHECKPOINT_WAL_BYTES {
            store.checkpoint().map_err(|e| e.to_string())?;
        }
    }
    drop(current);
    let server = SnapshotServer::with_configs(
        store.shared_dataset(),
        data::engine_config(),
        EndpointConfig::default(),
    );
    let base = Executor::new()
        .execute(&s.mix[s.touched].1, server.snapshot().embedded())
        .map_err(|e| e.to_string())?
        .len();

    let origin = Instant::now();
    let end = origin + args.window / 2;
    let progress = Progress::default();
    let mut reader = Tracer::new(origin, "read");
    let mut seen = LayerObs::default();
    let mut rank_rebuilds = 0u64;
    let (writer, writes, wal_bytes, checkpoints) = std::thread::scope(|scope| {
        let store = &mut store;
        let server = &server;
        let progress = &progress;
        let handle = scope.spawn(move || {
            let mut tracer = Tracer::new(origin, "write");
            let mut wal_bytes = Vec::new();
            let mut checkpoints = 0u64;
            let writes = open_loop(origin, end, progress, |i| {
                // Numbered past the untraced window's writes, so every
                // payload stays fresh.
                tracer.next_request();
                let obs = paths::write(
                    &mut tracer,
                    store,
                    server,
                    uris::DBPEDIA,
                    payload(tag, 1_000_000 + i),
                    CHECKPOINT_WAL_BYTES,
                )?;
                wal_bytes.push(obs.wal_bytes as f64);
                checkpoints += u64::from(obs.checkpointed);
                Ok(())
            });
            (tracer, writes, wal_bytes, checkpoints)
        });
        let mut order = ReadOrder::new(args.seed, 4, s.mix.len());
        while Instant::now() < end {
            let qi = order.next();
            out.attempted += 1;
            let lo = progress.acked();
            let result = traced_read(s, server, &mut reader, &mut seen, qi, &mut rank_rebuilds)
                .and_then(|got| check_read(s, qi, got, base, lo, progress.started()));
            if let Err(e) = result {
                out.fail(e);
            }
        }
        handle.join().expect("writer thread panicked")
    });
    out.attempted += writes.attempted;
    for e in writes.errors {
        out.fail(format!("traced write: {e}"));
    }
    let after = Executor::new()
        .execute(&s.mix[s.touched].1, server.snapshot().embedded())
        .map_err(|e| e.to_string())?
        .len();
    let acked = progress.acked();
    if after != base + acked as usize {
        out.fail(format!(
            "{TOUCHED} after the traced window: {after} rows, expected {}",
            base + acked as usize
        ));
    }

    let mut profile = Profile::default();
    profile.add(&reader);
    profile.add(&writer);
    layers::read_metrics(out, &profile, &seen, 0, untraced_p50);
    out.set(
        "persist.commit_ms",
        median(&profile.samples_ms("write", "persist.commit")),
    );
    out.set(
        "persist.checkpoint_ms",
        median(&profile.samples_ms("write", "persist.checkpoint")),
    );
    out.set("persist.checkpoints", checkpoints as f64);
    out.set("persist.wal_bytes_per_write", mean(&wal_bytes));
    out.set(
        "concurrent.publish_ms",
        median(&profile.samples_ms("write", "concurrent.publish")),
    );
    out.set("dataset.rank_rebuilds", rank_rebuilds as f64);
    trace::write_spans(&args.workload, args.seed, &[&reader, &writer]);
    Ok(())
}

/// One traced read of query `qi` on the current epoch; returns the frame's
/// fingerprint after checking that the rebuilt path agrees with a real call.
fn traced_read(
    s: &Setup,
    server: &SnapshotServer,
    tracer: &mut Tracer,
    seen: &mut LayerObs,
    qi: usize,
    rank_rebuilds: &mut u64,
) -> Result<Fingerprint, String> {
    let frame = &s.mix[qi].1;
    let snap = server.snapshot();
    let embedded = snap.embedded();

    // The rebuilt path runs first, so that it pays any rank rebuild the
    // epoch's last write made necessary.
    let ranks_cold = qi == s.touched && snap.dataset().cached_term_ranks().is_none();
    tracer.next_request();
    let (rebuilt, obs) = paths::embedded(tracer, frame, embedded.engine(), data::BATCH_ROWS)?;
    if ranks_cold && snap.dataset().cached_term_ranks().is_some() {
        *rank_rebuilds += 1;
    }
    let got = data::fingerprint(&rebuilt);
    seen.rows.push(rebuilt.len() as f64);
    seen.cells
        .push((rebuilt.len() * rebuilt.columns().len()) as f64);
    seen.obs.push(obs);
    drop(rebuilt);

    let model = generator::build_query_model(frame).map_err(|e| e.to_string())?;
    let before = embedded.cached_model_plan(&model);
    let requests = embedded.stats().requests();
    let df = Executor::new()
        .execute(frame, embedded)
        .map_err(|e| e.to_string())?;
    seen.pages
        .push((embedded.stats().requests() - requests) as f64);
    let after = embedded.cached_model_plan(&model);
    seen.lookups += 1;
    seen.hits += u64::from(layers::same_plan(before, after));
    let call = data::fingerprint(&df);
    if call != got {
        return Err(format!(
            "{}: rebuilt path {got:?}, call {call:?}",
            s.mix[qi].0
        ));
    }
    Ok(got)
}
