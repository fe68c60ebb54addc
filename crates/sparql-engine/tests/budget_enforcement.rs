//! Resource-governor enforcement: a runaway query must terminate with a
//! typed [`EngineError::ResourceExhausted`] on **every** budget axis and
//! **every** evaluator — never a panic, never an unbounded allocation.
//!
//! The runaway workload is an unconstrained cross join (two patterns
//! sharing no variable): N triples → N² intermediate rows, the canonical
//! query-gone-wrong every axis must be able to stop early.

use std::sync::Arc;
use std::time::Duration;

use rdf_model::{Dataset, Graph, Term, Triple};
use sparql_engine::{Engine, EngineConfig, EngineError, EvalMode, QueryBudget, ResourceKind};

const GRAPH: &str = "http://g";

fn dataset(n: usize) -> Arc<Dataset> {
    let mut g = Graph::new();
    for i in 0..n {
        g.insert(&Triple::new(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/p"),
            Term::integer(i as i64),
        ));
    }
    let mut ds = Dataset::new();
    ds.insert_graph(GRAPH, g);
    Arc::new(ds)
}

/// N triples × N triples with no shared variable: N² results.
const CROSS_JOIN: &str = "SELECT ?a ?b ?c ?d FROM <http://g> WHERE { \
     ?a <http://x/p> ?b . ?c <http://x/p> ?d }";

fn engine(ds: &Arc<Dataset>, eval_mode: EvalMode, budget: QueryBudget) -> Engine {
    Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            eval_mode,
            budget,
            ..EngineConfig::new()
        },
    )
}

const ALL_MODES: [EvalMode; 2] = [EvalMode::Columnar, EvalMode::TermReference];

#[test]
fn runaway_cross_join_trips_every_axis_on_every_evaluator() {
    // Scale 4000: 16M result rows if left unchecked — far beyond every
    // limit below, so each axis must stop the query long before the result
    // materializes.
    let ds = dataset(4000);
    let axes: [(QueryBudget, ResourceKind); 4] = [
        (
            QueryBudget::unlimited().with_max_rows_scanned(10_000),
            ResourceKind::RowsScanned,
        ),
        (
            QueryBudget::unlimited().with_max_intermediate_rows(50_000),
            ResourceKind::IntermediateRows,
        ),
        (
            QueryBudget::unlimited().with_max_memory_bytes(1 << 20),
            ResourceKind::MemoryBytes,
        ),
        (
            QueryBudget::unlimited().with_deadline(Duration::ZERO),
            ResourceKind::Deadline,
        ),
    ];
    for mode in ALL_MODES {
        for (budget, expected) in &axes {
            let engine = engine(&ds, mode, budget.clone());
            let err = engine
                .execute(CROSS_JOIN)
                .expect_err("runaway query must not complete");
            match err {
                EngineError::ResourceExhausted {
                    resource,
                    limit,
                    observed,
                } => {
                    assert_eq!(resource, *expected, "{mode:?}");
                    // Bounded overshoot: observed exceeds the limit by at
                    // most the work between two cooperative check points,
                    // never by the whole N² result.
                    assert!(observed >= limit, "{mode:?} {resource}");
                }
                other => panic!("{mode:?}: expected ResourceExhausted, got {other:?}"),
            }
        }
    }
}

#[test]
fn overshoot_is_bounded_not_result_sized() {
    // The scan meter may overshoot by one hot-loop iteration (one input
    // row's matches), but must never run to completion: at scale 1000 a
    // full evaluation scans >1M entries, while the limit of 10k plus one
    // row's worth (≤ ~2k) stays far below that.
    let ds = dataset(1000);
    for mode in ALL_MODES {
        let engine = engine(
            &ds,
            mode,
            QueryBudget::unlimited().with_max_rows_scanned(10_000),
        );
        let err = engine.execute(CROSS_JOIN).unwrap_err();
        let EngineError::ResourceExhausted { observed, .. } = err else {
            panic!("{mode:?}: expected ResourceExhausted")
        };
        assert!(
            observed < 20_000,
            "{mode:?}: overshoot {observed} is not bounded"
        );
    }
}

#[test]
fn budgets_present_but_not_hit_change_nothing() {
    // Generous limits must be invisible: identical rows and identical
    // rows_scanned as the unlimited run, on every evaluator.
    let ds = dataset(64);
    let q = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o } ORDER BY ?o";
    for mode in ALL_MODES {
        let unlimited = engine(&ds, mode, QueryBudget::unlimited());
        let generous = engine(
            &ds,
            mode,
            QueryBudget::unlimited()
                .with_max_rows_scanned(u64::MAX / 2)
                .with_max_intermediate_rows(u64::MAX / 2)
                .with_max_memory_bytes(u64::MAX / 2)
                .with_deadline(Duration::from_secs(3600)),
        );
        let (t_off, s_off) = unlimited.execute_with_stats(q).unwrap();
        let (t_on, s_on) = generous.execute_with_stats(q).unwrap();
        assert_eq!(t_off, t_on, "{mode:?}");
        assert_eq!(s_off.rows_scanned, s_on.rows_scanned, "{mode:?}");
    }
}

#[test]
fn error_is_value_not_panic_and_engine_stays_usable() {
    // After a budget trip the engine must serve the next (cheap) query
    // normally — cancellation is cooperative cleanup, not poisoned state.
    let ds = dataset(2000);
    let engine = engine(
        &ds,
        EvalMode::Columnar,
        QueryBudget::unlimited().with_max_intermediate_rows(10_000),
    );
    assert!(engine.execute(CROSS_JOIN).is_err());
    let cheap = "SELECT ?s FROM <http://g> WHERE { ?s <http://x/p> ?o } LIMIT 5";
    assert_eq!(engine.execute(cheap).unwrap().len(), 5);
}

#[test]
fn cursor_path_enforces_budgets() {
    let ds = dataset(4000);
    let budget = QueryBudget::unlimited().with_max_intermediate_rows(50_000);
    // Cursor creation only compiles the pipeline, so budget violations
    // surface while draining. The bare cross join streams with bounded
    // live state and would complete; an ORDER BY on top is a pipeline
    // breaker that must accumulate its input — a typed trip raised from
    // inside `next_batch`.
    let streaming = engine(&ds, EvalMode::Columnar, budget);
    let ordered = format!("{CROSS_JOIN} ORDER BY ?a");
    let prepared = streaming.prepare(&ordered).unwrap();
    let mut cursor = streaming
        .cursor(&prepared, 1024)
        .expect("streaming cursor creation does no evaluation");
    let err = loop {
        match cursor.next_batch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("runaway query must not complete"),
            Err(e) => break e,
        }
    };
    assert!(matches!(
        err,
        EngineError::ResourceExhausted {
            resource: ResourceKind::IntermediateRows,
            ..
        }
    ));

    // A small result evaluates fine under a zero deadline (cooperative
    // checks may not fire during cheap evaluation), but the cursor itself
    // must cancel the consumer on its next poll.
    let small = dataset(10);
    let deadline = engine(
        &small,
        EvalMode::Columnar,
        QueryBudget::unlimited().with_deadline(Duration::ZERO),
    );
    let q = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o }";
    let prepared = deadline.prepare(q).unwrap();
    let poll = deadline.cursor(&prepared, 4).and_then(|mut c| {
        c.next_batch()?;
        Ok(())
    });
    assert!(matches!(
        poll,
        Err(EngineError::ResourceExhausted {
            resource: ResourceKind::Deadline,
            ..
        })
    ));
}

#[test]
fn grouping_and_ordinary_joins_are_metered_too() {
    // The governor covers aggregation, not just BGP cross products: a
    // GROUP BY whose group table outgrows the limit (4M (?b, ?d) groups)
    // must trip on intermediate rows on every evaluator.
    let ds = dataset(2000);
    let budget = QueryBudget::unlimited().with_max_intermediate_rows(20_000);
    let per_pair = "SELECT ?b ?d (COUNT(?a) AS ?n) FROM <http://g> WHERE { \
                    ?a <http://x/p> ?b . ?c <http://x/p> ?d } GROUP BY ?b ?d";
    for mode in ALL_MODES {
        let engine = engine(&ds, mode, budget.clone());
        assert!(
            matches!(
                engine.execute(per_pair),
                Err(EngineError::ResourceExhausted {
                    resource: ResourceKind::IntermediateRows,
                    ..
                })
            ),
            "{mode:?}"
        );
    }

    // Grouping the same runaway join down to 2,000 groups: the reference
    // evaluator materializes the 4M-row input and trips, while the
    // sequential pipeline holds one batch plus the group table and
    // completes. (Pinned to one thread: a parallel BGP block extends all
    // of its input rows at once, which is more than 20,000 rows here.)
    let per_b = "SELECT ?b (COUNT(?d) AS ?n) FROM <http://g> WHERE { \
                 ?a <http://x/p> ?b . ?c <http://x/p> ?d } GROUP BY ?b";
    let reference = engine(&ds, EvalMode::TermReference, budget.clone());
    assert!(matches!(
        reference.execute(per_b),
        Err(EngineError::ResourceExhausted {
            resource: ResourceKind::IntermediateRows,
            ..
        })
    ));
    let pipeline = Engine::with_config(
        Arc::clone(&ds),
        EngineConfig {
            budget,
            threads: 1,
            ..EngineConfig::new()
        },
    );
    let t = pipeline
        .execute(per_b)
        .expect("live state stays under budget");
    assert_eq!(t.len(), 2000);
    assert!(t.rows.iter().all(|r| r[1] == Some(Term::integer(2000))));
}
