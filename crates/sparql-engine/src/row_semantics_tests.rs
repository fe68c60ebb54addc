//! Solution-row join and `UNION` semantics, checked end to end.
//!
//! `eval::tests` drives the pipeline's join and union operators directly
//! on hand-built id tables. These tests state the same cases as SPARQL
//! over a small graph and run each query through `Engine::execute`, the
//! cursor at several batch sizes, and the term-materialized reference
//! evaluator, which must all return the same rows in the same order and
//! scan the same number of index entries.

mod tests {
    use std::sync::Arc;

    use rdf_model::{Dataset, Graph, Term, Triple};

    use crate::engine::{Engine, EngineConfig, EvalMode};
    use crate::results::SolutionTable;

    const GRAPH: &str = "http://g";

    fn x(local: &str) -> Term {
        Term::iri(format!("http://x/{local}"))
    }

    fn dataset() -> Arc<Dataset> {
        let triples = [
            ("s1", "p", "y10"),
            ("s2", "p", "y20"),
            ("s1", "q", "z100"),
            ("s3", "q", "z300"),
            ("k", "c", "v"),
            ("s1", "h", "g7"),
            ("s2", "g", "g9"),
            ("s2", "h", "g8"),
            ("s1", "p2", "a1"),
            ("s1", "p2", "a2"),
            ("s1", "q2", "b1"),
            ("s1", "q2", "b2"),
        ];
        let mut g = Graph::new();
        for (s, p, o) in triples {
            g.insert(&Triple::new(x(s), x(p), x(o)));
        }
        let mut ds = Dataset::new();
        ds.insert_graph(GRAPH, g);
        Arc::new(ds)
    }

    /// Run `body` (a group graph pattern over the `x:` vocabulary) on the
    /// pipeline's `execute`, its cursor at batch sizes 1/2/3/64, and the
    /// reference evaluator; demand identical tables and `rows_scanned`,
    /// and return the table.
    fn run(select: &str, body: &str) -> SolutionTable {
        let q = format!("PREFIX x: <http://x/> SELECT {select} FROM <{GRAPH}> WHERE {{ {body} }}");
        let ds = dataset();
        let engine = Engine::new(Arc::clone(&ds));
        let reference = Engine::with_config(
            Arc::clone(&ds),
            EngineConfig {
                eval_mode: EvalMode::TermReference,
                ..EngineConfig::new()
            },
        );
        let (table, stats) = engine.execute_with_stats(&q).unwrap();
        let (table_r, stats_r) = reference.execute_with_stats(&q).unwrap();
        assert_eq!(table, table_r, "{q}");
        assert_eq!(stats.rows_scanned, stats_r.rows_scanned, "{q}");

        let prepared = engine.prepare(&q).unwrap();
        for batch_rows in [1, 2, 3, 64] {
            let mut cursor = engine.cursor(&prepared, batch_rows).unwrap();
            assert_eq!(cursor.vars(), &table.vars[..], "{q}");
            let mut rows = Vec::new();
            while let Some(batch) = cursor.next_batch().unwrap() {
                for row in 0..batch.len {
                    rows.push(
                        (0..batch.vars().len())
                            .map(|c| batch.get(c, row).map(|id| batch.resolve(id).clone()))
                            .collect::<Vec<_>>(),
                    );
                }
            }
            assert_eq!(rows, table.rows, "{q} at batch size {batch_rows}");
            assert_eq!(cursor.rows_scanned(), stats.rows_scanned, "{q}");
        }
        table
    }

    fn i(local: &str) -> Option<Term> {
        Some(x(local))
    }

    #[test]
    fn inner_join_on_shared() {
        let j = run("?x ?y ?z", "?x x:p ?y . ?x x:q ?z");
        assert_eq!(j.vars, vec!["x", "y", "z"]);
        assert_eq!(j.rows, vec![vec![i("s1"), i("y10"), i("z100")]]);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let j = run("?x ?z", "?x x:p ?y OPTIONAL { ?x x:q ?z }");
        assert_eq!(j.rows.len(), 2);
        assert!(j.rows.contains(&vec![i("s1"), i("z100")]));
        assert!(j.rows.contains(&vec![i("s2"), None]));
    }

    #[test]
    fn join_with_partially_unbound_shared_var() {
        // 'g' is shared but unbound on the left for s1 (OPTIONAL output):
        // unbound is compatible with anything.
        let j = run(
            "?x ?g",
            "{ ?x x:p ?y OPTIONAL { ?x x:g ?g } } { ?x x:h ?g }",
        );
        // Row (s1, unbound) joins (s1, g7) → (s1, g7); (s2, g9) vs (s2, g8) clash.
        assert_eq!(j.rows, vec![vec![i("s1"), i("g7")]]);
    }

    #[test]
    fn cross_product_when_no_shared() {
        let j = run("?x ?w", "?x x:p ?y . ?w x:c ?v");
        assert_eq!(j.rows.len(), 2);
        assert!(j.rows.contains(&vec![i("s1"), i("k")]));
        assert!(j.rows.contains(&vec![i("s2"), i("k")]));
    }

    #[test]
    fn union_aligns_schemas() {
        let u = run("?x ?y ?z", "{ ?x x:p ?y } UNION { ?y x:q ?z }");
        assert_eq!(u.vars, vec!["x", "y", "z"]);
        assert_eq!(
            u.rows,
            vec![
                vec![i("s1"), i("y10"), None],
                vec![i("s2"), i("y20"), None],
                vec![None, i("s1"), i("z100")],
                vec![None, i("s3"), i("z300")],
            ]
        );
    }

    #[test]
    fn bag_semantics_preserved() {
        let j = run(
            "?x",
            "{ SELECT ?x WHERE { ?x x:p2 ?a } } { SELECT ?x WHERE { ?x x:q2 ?b } }",
        );
        // 2 × 2 duplicates → 4 rows.
        assert_eq!(j.rows, vec![vec![i("s1")]; 4]);
    }
}
