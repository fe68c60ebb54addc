//! Streaming-pipeline satellites: LIMIT early exit, bounded live memory,
//! budget semantics, and telemetry — plus a property test that random
//! BGP/OPTIONAL/GROUP BY shapes stream identically at random batch sizes,
//! checked against the term-materialized reference evaluator.
//!
//! **The LIMIT carve-out.** The parity oracle everywhere else in this
//! repository is *exact* `rows_scanned` equality between the pipeline and
//! the reference evaluator. `LIMIT` is the one deliberate exception: the
//! pipeline's slice stops pulling its upstream once the limit is
//! satisfied, so upstream scans never run — the pipeline legitimately
//! scans *fewer* index entries. Results (rows, order, bytes) remain
//! identical; only the work count drops.

use std::sync::Arc;

use proptest::prelude::*;
use rdf_model::{Dataset, Graph, Term, Triple};
use sparql_engine::{
    Engine, EngineConfig, EngineError, EvalMode, ExecStats, QueryBudget, ResourceKind,
};

const GRAPH: &str = "http://g";

/// `n` triples `s{i} p o{i%7}`, either compacted into frozen slabs (the
/// steady-state layout) or left entirely in the mutable delta overlay
/// (the post-append layout) — scans and resume positions must behave
/// identically over both.
fn dataset(n: usize, delta_resident: bool) -> Arc<Dataset> {
    let mut g = if delta_resident {
        Graph::with_delta_threshold(usize::MAX)
    } else {
        Graph::new()
    };
    for i in 0..n {
        g.insert(&Triple::new(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/p"),
            Term::iri(format!("http://x/o{}", i % 7)),
        ));
    }
    if delta_resident {
        assert_eq!(g.delta_len(), n, "layout setup: delta must hold all rows");
    } else {
        g.compact();
        assert_eq!(g.delta_len(), 0, "layout setup: slabs must hold all rows");
    }
    let mut ds = Dataset::new();
    ds.insert_graph(GRAPH, g);
    Arc::new(ds)
}

fn engine(ds: &Arc<Dataset>, budget: QueryBudget) -> Engine {
    Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            budget,
            ..EngineConfig::new()
        },
    )
}

/// The term-materialized oracle over the same dataset.
fn reference(ds: &Arc<Dataset>) -> Engine {
    Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            eval_mode: EvalMode::TermReference,
            ..EngineConfig::new()
        },
    )
}

/// Drain a cursor completely, returning term-materialized rows (in cursor
/// order) and the post-drain statistics.
fn drain(engine: &Engine, q: &str, batch_rows: usize) -> (Vec<Vec<Option<Term>>>, ExecStats) {
    let prepared = engine.prepare(q).unwrap();
    let mut cursor = engine.cursor(&prepared, batch_rows).unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = cursor.next_batch().unwrap() {
        for row in 0..batch.len {
            rows.push(
                (0..batch.vars().len())
                    .map(|c| batch.get(c, row).map(|id| batch.resolve(id).clone()))
                    .collect(),
            );
        }
    }
    (rows, cursor.stats())
}

#[test]
fn limit_early_exit_reduces_scan_work_on_both_layouts() {
    const N: usize = 5000;
    let q = format!("SELECT ?s ?o FROM <{GRAPH}> WHERE {{ ?s <http://x/p> ?o }} LIMIT 10");
    for delta_resident in [false, true] {
        let ds = dataset(N, delta_resident);
        let streaming = engine(&ds, QueryBudget::unlimited());
        let (rows_s, stats_s) = drain(&streaming, &q, 16);
        let (table_r, stats_r) = reference(&ds).execute_with_stats(&q).unwrap();
        // Same ten rows, same order — the carve-out never changes results.
        assert_eq!(rows_s, table_r.rows, "delta_resident={delta_resident}");
        assert_eq!(rows_s.len(), 10);
        // The reference evaluator scans the whole index range; the
        // pipeline's slice stops pulling after one 16-row batch.
        assert!(
            stats_r.rows_scanned >= N as u64,
            "delta_resident={delta_resident}: reference scanned {}",
            stats_r.rows_scanned
        );
        assert!(
            stats_s.rows_scanned < 1000,
            "delta_resident={delta_resident}: early exit barely helped: {}",
            stats_s.rows_scanned
        );
    }
}

/// N triples × N triples with no shared variable: N² results.
const CROSS_JOIN: &str = "SELECT ?a ?b ?c ?d FROM <http://g> WHERE { \
     ?a <http://x/p> ?b . ?c <http://x/p> ?d }";

#[test]
fn streaming_completes_under_budget_that_trips_materialization() {
    // Scale 250 → 62 500 result rows: far over the 10 000-row intermediate
    // budget once `execute` accumulates the result, comfortably under it
    // per 200-row cursor batch. (Cursor batches stay below the 256-row
    // parallel gate, and the BGP's 250-row first level keeps `execute`
    // below it too, so the outcome is identical at any RDFFRAMES_THREADS
    // setting.)
    let ds = dataset(250, false);
    let budget = QueryBudget::unlimited().with_max_intermediate_rows(10_000);
    let streaming = engine(&ds, budget);

    let (rows, stats) = drain(&streaming, CROSS_JOIN, 200);
    assert_eq!(rows.len(), 250 * 250, "streaming must produce every row");
    assert!(
        stats.peak_live_rows < 10_000,
        "live state exceeded the budget it claims to respect: {}",
        stats.peak_live_rows
    );

    // `execute` on the same engine drains the same pipeline into one
    // table; that table is live state and trips the budget, typed, with
    // bounded overshoot (one batch past the limit, not the N² result).
    match streaming.execute(CROSS_JOIN) {
        Err(EngineError::ResourceExhausted {
            resource, observed, ..
        }) => {
            assert_eq!(resource, ResourceKind::IntermediateRows);
            assert!(
                observed < 10_000 + 16_384,
                "overshoot {observed} is not bounded"
            );
        }
        other => panic!("expected ResourceExhausted from execute, got {other:?}"),
    }

    // A pipeline breaker on top genuinely needs its whole input live, so
    // the *same* engine's cursor must still trip — typed, with bounded
    // overshoot (one batch past the limit, never the whole N² result).
    let ordered = format!("{CROSS_JOIN} ORDER BY ?a");
    let prepared = streaming.prepare(&ordered).unwrap();
    let mut cursor = streaming.cursor(&prepared, 200).unwrap();
    let err = loop {
        match cursor.next_batch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("breaker query must not complete under budget"),
            Err(e) => break e,
        }
    };
    match err {
        EngineError::ResourceExhausted {
            resource, observed, ..
        } => {
            assert_eq!(resource, ResourceKind::IntermediateRows);
            assert!(observed < 20_000, "overshoot {observed} is not bounded");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn peak_live_rows_tracks_batch_size_not_result_size() {
    const N: usize = 20_000;
    const BATCH: usize = 256;
    let ds = dataset(N, false);
    let q = format!("SELECT ?s ?o FROM <{GRAPH}> WHERE {{ ?s <http://x/p> ?o }}");

    let streaming = engine(&ds, QueryBudget::unlimited());
    let (rows, stats) = drain(&streaming, &q, BATCH);
    assert_eq!(rows.len(), N);
    assert!(
        stats.batches_emitted >= (N / BATCH) as u64,
        "expected ~{} batches, saw {}",
        N / BATCH,
        stats.batches_emitted
    );
    // O(batch), not O(result): scan state + staged output + the emitted
    // batch are each bounded by the batch size (with small constants).
    assert!(
        stats.peak_live_rows < 16 * BATCH as u64,
        "streaming peak {} rows is not O(batch_rows)",
        stats.peak_live_rows
    );

    // `execute` drains the same pipeline at its 16,384-row batch: a
    // bigger batch, a bigger (but still not result-sized) peak, and the
    // accumulated result is not counted as pipeline state.
    let (_, stats_x) = streaming.execute_with_stats(&q).unwrap();
    assert_eq!(
        stats_x.batches_emitted, 2,
        "20,000 rows in 16,384-row batches"
    );
    assert!(
        stats_x.peak_live_rows >= 16_384 && stats_x.peak_live_rows < 16 * 16_384,
        "execute peak {} rows is not O(16,384)",
        stats_x.peak_live_rows
    );

    let (_, stats_r) = reference(&ds).execute_with_stats(&q).unwrap();
    assert_eq!(stats.rows_scanned, stats_r.rows_scanned, "no LIMIT: parity");
    assert_eq!(
        stats_x.rows_scanned, stats_r.rows_scanned,
        "no LIMIT: parity"
    );
}

#[test]
fn execute_stats_equal_a_cursor_drain_at_the_execute_batch() {
    // `execute_with_stats` samples live state exactly as the cursor does,
    // so every counter equals a 16,384-row cursor drain of the same
    // prepared plan: breakers, joins, and plain scans alike.
    let ds = dataset(20_000, false);
    let engine = engine(&ds, QueryBudget::unlimited());
    let queries = [
        format!("SELECT ?s ?o FROM <{GRAPH}> WHERE {{ ?s <http://x/p> ?o }}"),
        format!("SELECT ?s ?o FROM <{GRAPH}> WHERE {{ ?s <http://x/p> ?o }} ORDER BY ?o"),
        format!(
            "SELECT ?o (COUNT(?s) AS ?n) FROM <{GRAPH}> WHERE {{ ?s <http://x/p> ?o }} \
             GROUP BY ?o"
        ),
        format!(
            "SELECT DISTINCT ?o FROM <{GRAPH}> WHERE {{ ?s <http://x/p> ?o . \
             OPTIONAL {{ ?s <http://x/q> ?z }} }}"
        ),
    ];
    for q in &queries {
        let prepared = engine.prepare(q).unwrap();
        let (table, x) = engine.execute_prepared(&prepared, None).unwrap();
        let mut cursor = engine.cursor(&prepared, 16_384).unwrap();
        let mut rows = 0;
        while let Some(batch) = cursor.next_batch().unwrap() {
            rows += batch.len;
        }
        let c = cursor.stats();
        assert_eq!(table.len(), rows, "{q}");
        let counters = |s: &ExecStats| {
            [
                s.rows_scanned,
                s.merge_joins,
                s.merge_left_joins,
                s.sorted_distincts,
                s.sorted_groups,
                s.par_workers,
                s.par_chunks,
                s.peak_live_rows,
                s.peak_live_bytes,
                s.batches_emitted,
            ]
        };
        assert_eq!(counters(&x), counters(&c), "{q}");
        assert!(x.peak_live_rows > 0 && x.batches_emitted > 0, "{q}");
    }
}

// ---------------------------------------------------------------------------
// Property test: random shapes × random batch sizes
// ---------------------------------------------------------------------------

/// A pattern position: variable index (0..4) or constant.
#[derive(Debug, Clone, Copy)]
enum Pos {
    Var(u8),
    Const(u8),
}

fn pos_strategy(consts: u8) -> impl Strategy<Value = Pos> {
    prop_oneof![
        (0u8..4).prop_map(Pos::Var),
        (0u8..consts).prop_map(Pos::Const),
    ]
}

fn pattern_strategy() -> impl Strategy<Value = (Pos, Pos, Pos)> {
    (pos_strategy(6), pos_strategy(3), pos_strategy(6))
}

fn term_text(pos: &Pos, kind: char) -> String {
    match pos {
        Pos::Var(v) => format!("?v{v}"),
        Pos::Const(c) => format!("<http://x/{kind}{c}>"),
    }
}

fn pattern_text(p: &(Pos, Pos, Pos)) -> String {
    format!(
        "{} {} {} .",
        term_text(&p.0, 's'),
        term_text(&p.1, 'p'),
        term_text(&p.2, 'o')
    )
}

fn build_graph(triples: &[(u8, u8, u8)], delta_resident: bool) -> Arc<Dataset> {
    let mut g = if delta_resident {
        Graph::with_delta_threshold(usize::MAX)
    } else {
        Graph::new()
    };
    for (s, p, o) in triples {
        g.insert(&Triple::new(
            Term::iri(format!("http://x/s{s}")),
            Term::iri(format!("http://x/p{p}")),
            Term::iri(format!("http://x/o{o}")),
        ));
    }
    if !delta_resident {
        g.compact();
    }
    let mut ds = Dataset::new();
    ds.insert_graph(GRAPH, g);
    Arc::new(ds)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random BGP (+ optional OPTIONAL tail, + optional GROUP BY head)
    /// over a random graph in a random storage layout: the cursor at a
    /// random batch size must produce exactly the rows, in order, that
    /// `execute` produces, the same bag as the reference evaluator, and
    /// identical `rows_scanned` on all three (none of these shapes has a
    /// LIMIT, so the carve-out is moot).
    #[test]
    fn random_shapes_stream_identically(
        triples in proptest::collection::vec((0u8..6, 0u8..3, 0u8..6), 1..40),
        patterns in proptest::collection::vec(pattern_strategy(), 1..4),
        tail in pattern_strategy(),
        with_optional in any::<bool>(),
        with_group in any::<bool>(),
        delta_resident in any::<bool>(),
        batch_rows in 1usize..70,
    ) {
        let ds = build_graph(&triples, delta_resident);
        let mut body = String::new();
        for p in &patterns {
            body.push_str(&pattern_text(p));
            body.push('\n');
        }
        if with_optional {
            body.push_str(&format!("OPTIONAL {{ {} }}\n", pattern_text(&tail)));
        }
        let q = if with_group {
            format!(
                "SELECT ?v0 (COUNT(*) AS ?n) FROM <{GRAPH}> WHERE {{\n{body}}} GROUP BY ?v0"
            )
        } else {
            format!("SELECT * FROM <{GRAPH}> WHERE {{\n{body}}}")
        };
        let streaming = engine(&ds, QueryBudget::unlimited());
        let (rows_s, stats_s) = drain(&streaming, &q, batch_rows);
        let (mut table_x, stats_x) = streaming.execute_with_stats(&q).unwrap();
        prop_assert_eq!(&rows_s, &table_x.rows, "rows diverge for {} @ batch {}", &q, batch_rows);
        let (mut table_r, stats_r) = reference(&ds).execute_with_stats(&q).unwrap();
        table_x.canonicalize();
        table_r.canonicalize();
        prop_assert_eq!(table_x, table_r, "pipeline and reference diverge for {}", &q);
        prop_assert_eq!(
            stats_s.rows_scanned,
            stats_r.rows_scanned,
            "scan work diverges for {} @ batch {}",
            &q,
            batch_rows
        );
        prop_assert_eq!(stats_x.rows_scanned, stats_r.rows_scanned, "{}", &q);
    }
}
