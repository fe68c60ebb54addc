//! The traced run's rebuilt paths: each one calls the same public functions
//! the library's own path calls, in the same order, with a span around each
//! call. The workloads check that a rebuilt path yields the same frame
//! fingerprint as the untraced call, so the trace measures the same program.

use std::hint::black_box;
use std::time::Instant;

use dataframe::DataFrame;
use rdf_model::{Store, Triple};
use rdfframes_core::client::convert::{append_table, cursor_to_dataframe, table_to_dataframe};
use rdfframes_core::client::xml;
use rdfframes_core::model::{compile::compile, generator, render};
use rdfframes_core::{InProcessEndpoint, RDFFrame, SnapshotServer};
use sparql_engine::algebra::translate_query;
use sparql_engine::parser::parse_query;
use sparql_engine::{Engine, ExecStats, PreparedQuery};

use crate::trace::Tracer;

/// What a rebuilt read path observed, besides its spans.
#[derive(Default)]
pub struct ReadObs {
    pub render_bytes: usize,
    /// Evaluation counters: the bare drain's on the embedded path, summed
    /// over pages on the wire path.
    pub stats: ExecStats,
    pub xml_bytes: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Embedded path: `build_query_model` → `render` → `compile` →
/// `Engine::prepare_plan`, then `Engine::cursor` drained bare, then a second
/// bare drain outside any span, then a cursor drained through
/// `cursor_to_dataframe`. The first drain is `engine.eval` and pays any
/// one-time work (a term-rank rebuild after a write). The decode span and the
/// frame exclude the second drain's time, so decode is the warm difference.
pub fn embedded(
    t: &mut Tracer,
    frame: &RDFFrame,
    engine: &Engine,
    batch_rows: usize,
) -> Result<(DataFrame, ReadObs), String> {
    let root = t.enter("frame");
    let out = embedded_body(t, root, frame, engine, batch_rows);
    t.exit(root);
    out
}

/// Drain a fresh cursor without decoding; returns its counters.
fn drain_bare(
    engine: &Engine,
    prepared: &PreparedQuery,
    batch_rows: usize,
) -> Result<ExecStats, String> {
    let mut cursor = engine.cursor(prepared, batch_rows).map_err(err)?;
    let mut rows = 0usize;
    while let Some(batch) = cursor.next_batch().map_err(err)? {
        rows += batch.len;
    }
    black_box(rows);
    Ok(cursor.stats())
}

fn embedded_body(
    t: &mut Tracer,
    root: usize,
    frame: &RDFFrame,
    engine: &Engine,
    batch_rows: usize,
) -> Result<(DataFrame, ReadObs), String> {
    let model = t
        .leaf("model.generator", || generator::build_query_model(frame))
        .map_err(err)?;
    let key = t.leaf("model.render", || render::render(&model));
    let compiled = t.leaf("model.compile", || compile(&model)).map_err(err)?;
    let prepared = t.leaf("engine.optimizer", || {
        engine.prepare_plan(compiled.plan, compiled.from)
    });
    let stats = t.leaf("engine.eval", || drain_bare(engine, &prepared, batch_rows))?;
    let warm = Instant::now();
    drain_bare(engine, &prepared, batch_rows)?;
    let warm_ns = warm.elapsed().as_nanos() as u64;
    t.exclude(root, warm_ns);
    let decode = t.enter("client.convert");
    let df = engine
        .cursor(&prepared, batch_rows)
        .map_err(err)
        .and_then(|mut cursor| cursor_to_dataframe(&mut cursor).map_err(err));
    t.exit(decode);
    t.exclude(decode, warm_ns);
    Ok((
        df?,
        ReadObs {
            render_bytes: key.len(),
            stats,
            ..ReadObs::default()
        },
    ))
}

/// Wire path, as `Executor` drives an `InProcessEndpoint`: `render` →
/// parse and translate → `Engine::prepare_plan`, then per page
/// `execute_prepared` → `xml::encode` → `xml::decode` →
/// `table_to_dataframe` / `append_table`, until a short page.
pub fn wire(
    t: &mut Tracer,
    frame: &RDFFrame,
    endpoint: &InProcessEndpoint,
) -> Result<(DataFrame, ReadObs), String> {
    let root = t.enter("frame");
    let out = wire_body(t, frame, endpoint);
    t.exit(root);
    out
}

fn wire_body(
    t: &mut Tracer,
    frame: &RDFFrame,
    endpoint: &InProcessEndpoint,
) -> Result<(DataFrame, ReadObs), String> {
    use rdfframes_core::Endpoint as _;

    let engine = endpoint.engine();
    let page = endpoint.max_rows_per_request();
    let model = t
        .leaf("model.generator", || generator::build_query_model(frame))
        .map_err(err)?;
    let sparql = t.leaf("model.render", || render::render(&model));
    let (plan, from) = t
        .leaf("engine.parser", || {
            let parsed = parse_query(&sparql)?;
            translate_query(&parsed).map(|plan| (plan, parsed.from))
        })
        .map_err(err)?;
    let prepared = t.leaf("engine.optimizer", || engine.prepare_plan(plan, from));
    let mut obs = ReadObs {
        render_bytes: sparql.len(),
        ..ReadObs::default()
    };
    let mut df: Option<DataFrame> = None;
    let mut offset = 0usize;
    loop {
        let (table, stats) = t
            .leaf("engine.eval", || {
                engine.execute_prepared(&prepared, Some((offset, page)))
            })
            .map_err(err)?;
        obs.stats.rows_scanned += stats.rows_scanned;
        obs.stats.merge_joins += stats.merge_joins;
        obs.stats.merge_left_joins += stats.merge_left_joins;
        obs.stats.sorted_groups += stats.sorted_groups;
        obs.stats.sorted_distincts += stats.sorted_distincts;
        let text = t.leaf("client.xml.encode", || xml::encode(&table));
        obs.xml_bytes += text.len();
        let decoded = t
            .leaf("client.xml.decode", || xml::decode(&text))
            .ok_or("XML round trip failed")?;
        let shipped = decoded.len();
        t.leaf("client.convert", || match df.as_mut() {
            None => table_to_dataframe(&decoded).map(|first| df = Some(first)),
            Some(acc) => append_table(acc, &decoded),
        })
        .map_err(err)?;
        if shipped < page {
            break;
        }
        offset += page;
    }
    Ok((df.expect("at least one page"), obs))
}

/// What one rebuilt write observed.
pub struct WriteObs {
    pub wal_bytes: u64,
    pub checkpointed: bool,
}

/// Write path, as `DurableSnapshotServer::append_triples` runs it:
/// `Store::append_triples` → `SnapshotServer::publish_dataset` over the
/// store's dataset → `Store::checkpoint` once the WAL passes `threshold`.
pub fn write(
    t: &mut Tracer,
    store: &mut Store,
    server: &SnapshotServer,
    graph: &str,
    triple: Triple,
    threshold: u64,
) -> Result<WriteObs, String> {
    let root = t.enter("write");
    let out = (|| {
        let before = store.wal_len();
        t.leaf("persist.commit", || {
            store.append_triples(graph, vec![triple])
        })
        .map_err(err)?;
        let wal_bytes = store.wal_len() - before;
        t.leaf("concurrent.publish", || {
            server.publish_dataset(store.shared_dataset())
        });
        let checkpointed = store.wal_len() > threshold;
        if checkpointed {
            t.leaf("persist.checkpoint", || store.checkpoint())
                .map_err(err)?;
        }
        Ok(WriteObs {
            wal_bytes,
            checkpointed,
        })
    })();
    t.exit(root);
    out
}
