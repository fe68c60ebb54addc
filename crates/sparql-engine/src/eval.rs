//! Columnar id-native plan evaluation: the evaluator state and the operator
//! kernels behind the pull pipeline.
//!
//! Implements the SPARQL multiset semantics of the paper's Section 5.2 over
//! the struct-of-arrays [`IdTable`]: one dense `Vec<TermId>` per variable
//! column plus a presence bitmap, instead of a `Vec<Option<TermId>>` per
//! row. There is one evaluation flow: [`pipeline::build`] turns a plan into
//! a tree of pull-based operators, and both [`crate::Engine::cursor`] and
//! the `execute*` methods drive that tree. This module owns what the
//! operators share:
//!
//! - [`Evaluator`]: per-query state (term pool, expression caches, budget
//!   meter, work and rewrite counters, the parallel context).
//! - **BGP extension** ([`bgp_scan_rows`]) walks the store's sorted-slab
//!   access paths ([`rdf_model::Graph`]) and appends match results into
//!   *column buffers* (a gather-index vector plus one value vector per
//!   newly-bound variable); [`Evaluator::extend_rows`] fans large blocks
//!   out over the work-stealing pool.
//! - **Joins** share [`JoinShape`] (key columns, output schema, SPARQL
//!   compatibility) and [`assemble_join`] (gather over a pair list).
//! - **Filter, extend, sort, top-k, and project** bodies, applied by the
//!   operators to a batch or to a breaker's accumulated input.
//!
//! Terms are materialized only at expression/sort boundaries (through a
//! reused scratch row) and at the final projection. The seed
//! term-materialized evaluator ([`crate::eval_reference`]) is kept as the
//! differential-testing oracle: both produce identical bags and identical
//! `rows_scanned` counts.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use rdf_model::{Dataset, Graph, GraphIdMap, Term, TermId};

use crate::algebra::{AggSpec, GraphRef, Plan, PushedFilter};
use crate::ast::{AggOp, Expr, OrderKey, PatternTerm, TriplePattern};
use crate::budget::{BudgetMeter, OpMeter, QueryBudget, SharedMeter};
use crate::error::{EngineError, Result};
use crate::expr::{ebv, eval_expr, id_equality_shape, AggState, EvalCaches, IdRowCtx, PushedEval};
use crate::pool::TermPool;
use crate::results::{Column, IdTable, SolutionTable};

pub(crate) mod pipeline;

/// Inputs below this row count run sequentially even with parallelism on:
/// the fan-out overhead (task queueing, per-chunk state) dwarfs the work.
const PAR_MIN_ROWS: usize = 256;

/// Chunk size for a parallel operator: aim for ~4 chunks per worker (so
/// work stealing can rebalance skew) but never chunks so small the
/// per-chunk setup dominates.
fn par_chunk_size(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1) * 4).max(128)
}

/// Parallel execution context: a shared work-stealing pool plus the
/// configured degree. Cloning shares the pool.
#[derive(Clone)]
struct ParCtx {
    pool: Arc<rayon::ThreadPool>,
    threads: usize,
}

/// Observability counters for parallel operator runs (exposed through
/// [`crate::engine::ExecStats`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct ParStats {
    /// Chunks executed across all parallel operator runs.
    pub chunks: u64,
    /// Chunk tasks a worker stole from another worker's queue.
    pub steals: u64,
    /// Nanoseconds spent in the single-threaded merge phases that fold
    /// chunk results back together in chunk order.
    pub merge_nanos: u64,
}

/// Columnar id-native plan evaluator bound to a dataset.
pub struct Evaluator<'a> {
    dataset: &'a Dataset,
    default_graphs: Vec<String>,
    caches: EvalCaches,
    pool: TermPool<'a>,
    rows_scanned: u64,
    /// Budget enforcement state ([`crate::budget`]); inactive by default.
    meter: BudgetMeter,
    merge_joins: u64,
    merge_left_joins: u64,
    sorted_distincts: u64,
    sorted_groups: u64,
    /// `ORDER BY ?var` via the dataset's cached term-rank permutation
    /// (disable to measure the term-materializing sort it replaces).
    rank_sort: bool,
    /// Reused row buffer for expression contexts (the only place the
    /// columnar layout is transposed back to a row).
    scratch: Vec<Option<TermId>>,
    /// Parallel execution context (`None` = sequential, the default).
    par: Option<ParCtx>,
    /// Counters from parallel operator runs.
    par_stats: ParStats,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator. `default_graphs` resolves [`GraphRef::Default`].
    pub fn new(dataset: &'a Dataset, default_graphs: Vec<String>) -> Self {
        Evaluator {
            dataset,
            default_graphs,
            caches: EvalCaches::new(),
            pool: TermPool::new(dataset.interner()),
            rows_scanned: 0,
            meter: BudgetMeter::unlimited(),
            merge_joins: 0,
            merge_left_joins: 0,
            sorted_distincts: 0,
            sorted_groups: 0,
            rank_sort: true,
            scratch: Vec::new(),
            par: None,
            par_stats: ParStats::default(),
        }
    }

    /// Enable `n`-way parallel BGP extension (the one parallel operator).
    /// `n <= 1` disables it. Output is byte-identical to sequential execution —
    /// chunk results are folded back in chunk order, which reproduces row
    /// order exactly — and `rows_scanned` parity is exact.
    pub fn set_threads(&mut self, n: usize) {
        self.par = (n > 1).then(|| ParCtx {
            pool: rayon::ThreadPool::global(n),
            threads: n,
        });
    }

    /// Configured parallelism degree (1 = sequential).
    pub fn threads(&self) -> usize {
        self.par.as_ref().map_or(1, |p| p.threads)
    }

    /// Counters from parallel operator runs so far.
    pub fn par_stats(&self) -> ParStats {
        self.par_stats
    }

    /// Total index entries scanned so far (a deterministic work metric used
    /// by benchmarks alongside wall-clock time).
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }

    /// Number of [`Plan::MergeJoin`] nodes that actually ran as merge joins
    /// (the run-time sortedness check passed; 0 means every join hashed).
    pub fn merge_joins(&self) -> u64 {
        self.merge_joins
    }

    /// Number of [`Plan::MergeLeftJoin`] nodes that actually ran as merge
    /// left joins (run-time sortedness check passed).
    pub fn merge_left_joins(&self) -> u64 {
        self.merge_left_joins
    }

    /// Number of [`Plan::SortedDistinct`] nodes that deduplicated by run
    /// detection instead of hashing.
    pub fn sorted_distincts(&self) -> u64 {
        self.sorted_distincts
    }

    /// Number of [`Plan::Group`] nodes that grouped by run detection
    /// instead of hashing.
    pub fn sorted_groups(&self) -> u64 {
        self.sorted_groups
    }

    /// Toggle the term-rank `ORDER BY` fast path (on by default; the bench
    /// turns it off to measure the PR 4 baseline behavior).
    pub fn set_rank_sort(&mut self, on: bool) {
        self.rank_sort = on;
    }

    /// Install a resource budget. The meter (and its deadline clock) is
    /// created here, so call this right before evaluation starts.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.meter = BudgetMeter::new(budget);
    }

    /// Resolve ids to owned terms (the single materialization point).
    pub(crate) fn materialize(&self, table: IdTable) -> SolutionTable {
        let width = table.vars.len();
        let mut rows = Vec::with_capacity(table.len());
        for i in 0..table.len() {
            rows.push(
                (0..width)
                    .map(|c| table.get(i, c).map(|id| self.pool.resolve(id).clone()))
                    .collect(),
            );
        }
        SolutionTable {
            vars: table.vars,
            rows,
        }
    }

    /// Charge a live table (the `execute*` result accumulator) against the
    /// budget's intermediate-rows and memory axes.
    pub(crate) fn charge_intermediate(&mut self, rows: u64, bytes: u64) -> Result<()> {
        self.meter.charge_intermediate(rows, bytes)
    }

    fn resolve_graphs(&self, graph: &GraphRef) -> Result<Vec<(Arc<Graph>, Arc<GraphIdMap>)>> {
        let uris: Vec<&str> = match graph {
            GraphRef::Default => {
                if self.default_graphs.is_empty() {
                    // No FROM clause: the default graph is the union of all
                    // graphs in the dataset.
                    self.dataset.graph_uris().collect()
                } else {
                    self.default_graphs.iter().map(String::as_str).collect()
                }
            }
            GraphRef::Named(uri) => vec![uri.as_str()],
        };
        let mut graphs = Vec::with_capacity(uris.len());
        for uri in uris {
            let g = self
                .dataset
                .graph(uri)
                .ok_or_else(|| EngineError::UnknownGraph(uri.to_string()))?;
            let map = self
                .dataset
                .id_map(uri)
                .ok_or_else(|| EngineError::UnknownGraph(uri.to_string()))?;
            graphs.push((Arc::clone(g), Arc::clone(map)));
        }
        Ok(graphs)
    }

    /// Extend the input rows `rows` (drawn from `cur`/`bound`) through one
    /// pattern's resolved graph scans, choosing between the sequential loop
    /// and the chunked parallel fan-out. The pipeline's BGP operator calls
    /// this for every fresh block of input rows.
    ///
    /// Parallel path: the rows fan out over chunks; each chunk runs the
    /// identical loop body with its own buffers, filter clones, caches, and
    /// a worker handle on the shared budget. Concatenating results in chunk
    /// order reproduces the sequential output byte for byte.
    #[allow(clippy::too_many_arguments)]
    fn extend_rows(
        &mut self,
        rows: Range<usize>,
        pats: &[(&Graph, &GraphIdMap, [Slot; 3])],
        cur: &[Column],
        bound: &[bool],
        primaries: &[(usize, usize)],
        dup_checks: &[(usize, usize)],
        checks: &mut Vec<(usize, PushedEval)>,
        n_slots: usize,
    ) -> Result<(Vec<u32>, Vec<Vec<TermId>>, u64)> {
        let len = rows.len();
        let pool = &self.pool;
        match &self.par {
            Some(p) if len >= PAR_MIN_ROWS => {
                let chunk = par_chunk_size(len, p.threads);
                let n_chunks = len.div_ceil(chunk);
                let shared = SharedMeter::new(&self.meter, n_chunks);
                let start = rows.start;
                let checks_ref = &*checks;
                let run = p.pool.run_chunks(len, chunk, |ci, range| {
                    let range = range.start + start..range.end + start;
                    let mut chunk_checks = checks_ref.clone();
                    let mut chunk_caches = EvalCaches::new();
                    let mut wm = shared.worker(ci);
                    bgp_scan_rows(
                        range,
                        pats,
                        cur,
                        bound,
                        primaries,
                        dup_checks,
                        &mut chunk_checks,
                        n_slots,
                        pool,
                        &mut chunk_caches,
                        &mut wm,
                    )
                });
                self.par_stats.chunks += run.chunks;
                self.par_stats.steals += run.steals;
                let merge_start = Instant::now();
                let mut src: Vec<u32> = Vec::new();
                let mut vals: Vec<Vec<TermId>> = (0..n_slots).map(|_| Vec::new()).collect();
                let mut pat_scanned = 0u64;
                let mut chunk_err: Option<EngineError> = None;
                for r in run.results {
                    match r {
                        Ok((s, v, n)) => {
                            pat_scanned += n;
                            src.extend_from_slice(&s);
                            for (dst, sv) in vals.iter_mut().zip(v) {
                                dst.extend(sv);
                            }
                        }
                        Err(e) => {
                            chunk_err.get_or_insert(e);
                        }
                    }
                }
                self.par_stats.merge_nanos += merge_start.elapsed().as_nanos() as u64;
                // Fold worker scan charges back and surface the first
                // recorded trip (sequential behavior: a tripped pattern
                // does not update `rows_scanned`).
                shared.finish(&mut self.meter)?;
                if let Some(e) = chunk_err {
                    return Err(e);
                }
                Ok((src, vals, pat_scanned))
            }
            _ => bgp_scan_rows(
                rows,
                pats,
                cur,
                bound,
                primaries,
                dup_checks,
                checks,
                n_slots,
                pool,
                &mut self.caches,
                &mut self.meter,
            ),
        }
    }

    /// Borrow the evaluator's term pool (the embedded cursor resolves
    /// result ids through it while streaming batches out).
    pub(crate) fn pool(&self) -> &TermPool<'a> {
        &self.pool
    }

    /// Body of [`Plan::Filter`] over an owned table. Row-independent, so
    /// the streaming pipeline applies it batch-at-a-time with identical
    /// results.
    fn filter_table(&mut self, expr: &Expr, mut t: IdTable) -> IdTable {
        let mut keep = Vec::with_capacity(t.len());
        if let Some((col, const_id, negate)) = self.id_equality_filter(expr, &t) {
            // Vectorized id comparison: `?v = <iri>` over a column
            // is a single scan of raw ids — no term is resolved,
            // cloned, or compared per row. (Sound only for
            // non-literal constants, where SPARQL `=` is identity;
            // the shared interner makes id equality coincide with
            // term equality.)
            let column = t.col(col);
            for i in 0..t.len() {
                keep.push(match (column.get(i), const_id) {
                    (Some(id), Some(c)) => (id == c) != negate,
                    // Constant interned nowhere: can equal nothing.
                    (Some(_), None) => negate,
                    // Unbound input: error → filtered out.
                    (None, _) => false,
                });
            }
        } else {
            let pool = &self.pool;
            let caches = &mut self.caches;
            let buf = &mut self.scratch;
            for i in 0..t.len() {
                t.read_row(i, buf);
                let ctx = IdRowCtx {
                    vars: &t.vars,
                    row: buf,
                    pool,
                };
                keep.push(
                    eval_expr(expr, ctx, caches)
                        .as_ref()
                        .and_then(ebv)
                        .unwrap_or(false),
                );
            }
        }
        t.filter_mask(&keep);
        t
    }

    /// Body of [`Plan::Extend`] over an owned table. Rows are evaluated in
    /// input order (intern order is row order), so batch-at-a-time
    /// application produces the identical column.
    fn extend_table(&mut self, var: &str, expr: &Expr, mut t: IdTable) -> IdTable {
        let existing = t.column_index(var);
        // `BIND(?x AS ?y)` is a column copy — no resolve/intern
        // cycle, no per-row work at all.
        let new_col: Column = if let Expr::Var(src) = expr {
            match t.column_index(src) {
                Some(idx) => t.col(idx).clone(),
                None => Column::absent(t.len()),
            }
        } else {
            let mut col = Column::with_capacity(t.len());
            for i in 0..t.len() {
                let value = {
                    let buf = &mut self.scratch;
                    t.read_row(i, buf);
                    let ctx = IdRowCtx {
                        vars: &t.vars,
                        row: buf,
                        pool: &self.pool,
                    };
                    eval_expr(expr, ctx, &mut self.caches)
                };
                col.push(value.map(|term| self.pool.intern(term)));
            }
            col
        };
        match existing {
            Some(idx) => t.replace_column(idx, new_col),
            None => t.add_column(var.to_string(), new_col),
        }
        t
    }

    /// Recognize `FILTER ( ?v = <iri> )` / `FILTER ( ?v != <iri> )` shapes
    /// ([`id_equality_shape`]) over a column of the table, so the filter
    /// can compare raw ids. Returns `(column, constant id if interned
    /// anywhere, negated?)`.
    fn id_equality_filter(
        &self,
        expr: &Expr,
        t: &IdTable,
    ) -> Option<(usize, Option<TermId>, bool)> {
        let (var, konst, negate) = id_equality_shape(expr)?;
        let col = t.column_index(var)?;
        Some((col, self.pool.lookup(konst), negate))
    }

    /// Pattern-level slot for one position: a constant bound to its local id
    /// (`None` when the constant is absent from the graph) or a variable's
    /// column index.
    fn pattern_slot(
        dataset: &Dataset,
        term: &PatternTerm,
        map: &GraphIdMap,
        var_idx: &HashMap<&str, usize>,
    ) -> Option<Slot> {
        match term {
            PatternTerm::Var(v) => Some(Slot::Var(var_idx[v.as_str()])),
            PatternTerm::Const(term) => {
                let global = dataset.lookup(term)?;
                let local = map.to_local(global)?;
                Some(Slot::Bound(local))
            }
        }
    }

    /// Compute the ORDER BY key terms for every row (the materialization
    /// boundary for sorting). Returns `(keys, original row index)` pairs;
    /// the row index doubles as the stability tie-break.
    fn keyed_rows(&mut self, table: &IdTable, keys: &[OrderKey]) -> Vec<KeyedRow> {
        let mut out = Vec::with_capacity(table.len());
        let pool = &self.pool;
        let caches = &mut self.caches;
        let buf = &mut self.scratch;
        for i in 0..table.len() {
            table.read_row(i, buf);
            let ctx = IdRowCtx {
                vars: &table.vars,
                row: buf,
                pool,
            };
            let computed: Vec<Option<Term>> = keys
                .iter()
                .map(|k| eval_expr(&k.expr, ctx, caches))
                .collect();
            out.push((computed, i));
        }
        out
    }

    fn sort_rows(&mut self, table: &mut IdTable, keys: &[OrderKey]) {
        if let Some(perm) = self.rank_sort_perm(table, keys, None) {
            *table = table.gather_rows(&perm);
            return;
        }
        let mut keyed = self.keyed_rows(table, keys);
        // (key, seq) is a total order equal to a stable sort on key alone.
        keyed.sort_unstable_by(|a, b| compare_keyed(keys, a, b));
        let perm: Vec<u32> = keyed.into_iter().map(|(_, i)| i as u32).collect();
        *table = table.gather_rows(&perm);
    }

    /// Bounded ORDER BY: select the first `k` rows of the sorted order
    /// without fully sorting the input (`Slice ∘ OrderBy` fusion). Produces
    /// exactly the rows a stable full sort followed by `truncate(k)` would.
    fn top_k(&mut self, table: &mut IdTable, keys: &[OrderKey], k: usize) {
        if k == 0 {
            *table = table.gather_rows(&[]);
            return;
        }
        if let Some(perm) = self.rank_sort_perm(table, keys, Some(k)) {
            *table = table.gather_rows(&perm);
            return;
        }
        let mut keyed = self.keyed_rows(table, keys);
        if keyed.len() > k {
            // O(n) partition around the k-th row, then sort only the prefix.
            keyed.select_nth_unstable_by(k - 1, |a, b| compare_keyed(keys, a, b));
            keyed.truncate(k);
        }
        keyed.sort_unstable_by(|a, b| compare_keyed(keys, a, b));
        let perm: Vec<u32> = keyed.into_iter().map(|(_, i)| i as u32).collect();
        *table = table.gather_rows(&perm);
    }

    /// `ORDER BY` over plain variables via the dataset's dictionary-rank
    /// permutation ([`rdf_model::TermRanks`]): every key becomes a column
    /// of `u32` ranks whose comparison reproduces [`Term::order_cmp`]
    /// exactly (equal-comparing terms share a rank), so the sort never
    /// materializes a key term. Returns the row permutation (bounded to the
    /// top `k` when given), or `None` when any key is a computed
    /// expression, any value lies outside the rank snapshot (query-local
    /// overflow terms), or the fast path is disabled — callers then fall
    /// back to the term-keyed sort, which produces the identical order.
    fn rank_sort_perm(
        &self,
        table: &IdTable,
        keys: &[OrderKey],
        k: Option<usize>,
    ) -> Option<Vec<u32>> {
        if !self.rank_sort || keys.is_empty() {
            return None;
        }
        // Every key must be a plain variable (absent variables sort as
        // all-unbound, like the term path).
        let cols: Vec<Option<usize>> = keys
            .iter()
            .map(|key| match &key.expr {
                Expr::Var(v) => Some(table.column_index(v)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        // A cold rank cache costs a full O(dict · log dict) build; only pay
        // it when the result is big enough to plausibly amortize (the cache
        // then serves every later sort until the interner grows). Small
        // sorts on a cold cache stay on the term path.
        let ranks = match self.dataset.cached_term_ranks() {
            Some(ranks) => ranks,
            None if table.len() >= self.dataset.interner().len() / 16 => self.dataset.term_ranks(),
            None => return None,
        };
        // One rank column per key; bail on ids past the snapshot.
        let mut rank_cols: Vec<Option<Vec<Option<u32>>>> = Vec::with_capacity(keys.len());
        for col in cols {
            match col {
                None => rank_cols.push(None),
                Some(c) => {
                    let column = table.col(c);
                    let mut out = Vec::with_capacity(table.len());
                    for i in 0..table.len() {
                        match column.get(i) {
                            None => out.push(None),
                            Some(id) => out.push(Some(ranks.rank(id)?)),
                        }
                    }
                    rank_cols.push(Some(out));
                }
            }
        }
        let cmp = |a: u32, b: u32| -> Ordering {
            let (a, b) = (a as usize, b as usize);
            for (key, rc) in keys.iter().zip(&rank_cols) {
                let (x, y) = match rc {
                    Some(v) => (v[a], v[b]),
                    None => (None, None),
                };
                // Option's order (None first) matches the term path's
                // unbound-sorts-first; descending reverses both, exactly
                // like `compare_keyed`.
                let mut ord = x.cmp(&y);
                if !key.ascending {
                    ord = ord.reverse();
                }
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            // Original position: the stability tie-break.
            a.cmp(&b)
        };
        let mut perm: Vec<u32> = (0..table.len() as u32).collect();
        if let Some(k) = k {
            if perm.len() > k {
                perm.select_nth_unstable_by(k - 1, |&a, &b| cmp(a, b));
                perm.truncate(k);
            }
        }
        perm.sort_unstable_by(|&a, &b| cmp(a, b));
        Some(perm)
    }
}

/// A sort candidate: computed key terms and original row index (stability
/// tie-break).
type KeyedRow = (Vec<Option<Term>>, usize);

fn compare_keyed(keys: &[OrderKey], a: &KeyedRow, b: &KeyedRow) -> Ordering {
    for (key_spec, (x, y)) in keys.iter().zip(a.0.iter().zip(b.0.iter())) {
        let ord = match (x, y) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(x), Some(y)) => x.order_cmp(y),
        };
        let ord = if key_spec.ascending {
            ord
        } else {
            ord.reverse()
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.1.cmp(&b.1)
}

/// One BGP extension pass over the input rows in `rows` for a single
/// pattern: refine the pattern's slots against each row, scan every graph's
/// access path, apply duplicate-variable and pushed-filter checks, and
/// append matches as a gather index (the *global* input row number) plus
/// one value per newly-bound slot.
///
/// The sequential path (whole range, the evaluator's [`BudgetMeter`]) and
/// each parallel chunk
/// (sub-range, a [`crate::budget::WorkerMeter`]) run the identical loop
/// body: concatenating chunk results in chunk order reproduces the
/// sequential match order exactly (gather indexes ascend within and across
/// chunks), and summing the returned scan counts reproduces `rows_scanned`
/// exactly (per-row scan work is independent of the partitioning).
#[allow(clippy::too_many_arguments)]
fn bgp_scan_rows<M: OpMeter>(
    rows: Range<usize>,
    pats: &[(&Graph, &GraphIdMap, [Slot; 3])],
    cur: &[Column],
    bound: &[bool],
    primaries: &[(usize, usize)],
    dup_checks: &[(usize, usize)],
    checks: &mut [(usize, PushedEval)],
    n_slots: usize,
    pool: &TermPool,
    caches: &mut EvalCaches,
    meter: &mut M,
) -> Result<(Vec<u32>, Vec<Vec<TermId>>, u64)> {
    let mut src: Vec<u32> = Vec::new();
    let mut vals: Vec<Vec<TermId>> = (0..n_slots).map(|_| Vec::new()).collect();
    let mut scanned = 0u64;
    for i in rows {
        let row_start = scanned;
        for (g, map, slots) in pats {
            // Refine slots against row `i`: an already-bound variable whose
            // global id has no local id in this graph can match nothing
            // here.
            let mut refined = [None; 3];
            let mut ok = true;
            for (pos, slot) in slots.iter().enumerate() {
                refined[pos] = match slot {
                    Slot::Bound(local) => Some(*local),
                    Slot::Var(col) if bound[*col] => match map.to_local(cur[*col].ids()[i]) {
                        Some(local) => Some(local),
                        None => {
                            ok = false;
                            break;
                        }
                    },
                    Slot::Var(_) => None,
                };
            }
            if !ok {
                continue;
            }
            let row = i as u32;
            scanned += g.for_each_match(refined[0], refined[1], refined[2], |ms, mp, mo| {
                let m = [ms, mp, mo];
                if dup_checks.iter().any(|&(a, b)| m[a] != m[b]) {
                    return;
                }
                // Translate newly-bound values first: pushed filters test
                // global ids, and a rejected candidate must touch no
                // buffer at all.
                let mut globals = [TermId(0); 3];
                for &(slot, pos) in primaries {
                    globals[slot] = map.to_global(m[pos]);
                }
                for (slot, pe) in checks.iter_mut() {
                    if !pe.test(globals[*slot], pool, caches) {
                        return;
                    }
                }
                src.push(row);
                for &(slot, _) in primaries {
                    vals[slot].push(globals[slot]);
                }
            });
        }
        // Budget checkpoint between rows: the scan work this row added,
        // plus (when the periodic poll fires) the match buffers' current
        // size. `for_each_match` has no early exit, so overshoot is
        // bounded by one row's matches per executing worker.
        if meter.charge_scan(scanned - row_start)? {
            let bytes = (src.len() as u64).saturating_mul(4).saturating_add(
                vals.iter()
                    .fold(0u64, |a, v| a.saturating_add(v.len() as u64 * 4)),
            );
            meter.charge_intermediate(src.len() as u64, bytes)?;
        }
    }
    Ok((src, vals, scanned))
}

/// Pattern-level binding of one triple position.
#[derive(Clone, Copy)]
enum Slot {
    /// Constant, resolved to the graph's local id.
    Bound(TermId),
    /// Variable at this column index (bound-ness is uniform per pattern).
    Var(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    Inner,
    Left,
}

/// Marker for "left row had no match" in the pair list of a left join.
const NO_MATCH: u32 = u32::MAX;

/// Join-shape setup shared by the hash and merge probe strategies — the
/// shared-variable column indexes, the output schema, and the per-pair
/// compatibility check — so the two cannot drift apart (the merge
/// rewrite's whole contract is producing row-for-row what the hash probe
/// would).
struct JoinShape {
    /// Output schema: left vars, then right-only vars.
    out_vars: Vec<String>,
    /// Shared vars' column indexes in the left input.
    l_idx: Vec<usize>,
    /// Shared vars' column indexes in the right input (parallel to `l_idx`).
    r_idx: Vec<usize>,
}

impl JoinShape {
    fn new(left: &IdTable, right: &IdTable) -> Self {
        let shared: Vec<&String> = left
            .vars
            .iter()
            .filter(|v| right.vars.contains(v))
            .collect();
        let mut out_vars = left.vars.clone();
        for v in &right.vars {
            if !out_vars.contains(v) {
                out_vars.push(v.clone());
            }
        }
        let l_idx: Vec<usize> = shared
            .iter()
            .map(|v| left.column_index(v).expect("shared var in left"))
            .collect();
        let r_idx: Vec<usize> = shared
            .iter()
            .map(|v| right.column_index(v).expect("shared var in right"))
            .collect();
        JoinShape {
            out_vars,
            l_idx,
            r_idx,
        }
    }

    fn shared_len(&self) -> usize {
        self.l_idx.len()
    }

    /// SPARQL compatibility: every shared variable bound on both sides must
    /// agree; unbound is compatible with anything.
    fn compatible(&self, left: &IdTable, right: &IdTable, li: usize, ri: usize) -> bool {
        for k in 0..self.shared_len() {
            if let (Some(a), Some(b)) = (left.get(li, self.l_idx[k]), right.get(ri, self.r_idx[k]))
            {
                if a != b {
                    return false;
                }
            }
        }
        true
    }
}

/// Body of [`Plan::Project`] over an owned table: move projected columns
/// out instead of cloning id vectors and bitmaps. Pure column shuffling —
/// the streaming pipeline applies it per batch.
fn project_table(vars: &[String], t: IdTable) -> IdTable {
    let rows = t.len();
    let (t_vars, t_cols, _) = t.into_parts();
    let mut pool: Vec<Option<Column>> = t_cols.into_iter().map(Some).collect();
    let mut out_cols: Vec<Column> = Vec::with_capacity(vars.len());
    for (k, v) in vars.iter().enumerate() {
        let col = if let Some(prev) = vars[..k].iter().position(|x| x == v) {
            // `SELECT ?x ?x`: second occurrence clones the
            // already-projected column.
            out_cols[prev].clone()
        } else if let Some(i) = t_vars.iter().position(|x| x == v) {
            pool[i].take().expect("first projection of this var")
        } else {
            Column::absent(rows)
        };
        out_cols.push(col);
    }
    IdTable::from_columns(vars.to_vec(), out_cols, rows)
}

/// Compare rows `i-1` and `i` lexicographically on `cols` by raw id (the
/// one comparator behind every run-time sortedness check and run
/// detection — callers must have verified the columns fully bound).
#[inline]
fn lex_cmp_prev(t: &IdTable, cols: &[usize], i: usize) -> Ordering {
    for &c in cols {
        let ids = t.col(c).ids();
        let ord = ids[i - 1].cmp(&ids[i]);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Emit join output columns by gathering over a `(left row, right row)`
/// pair list (`NO_MATCH` right = unmatched left row of a left join).
fn assemble_join(
    left: &IdTable,
    right: &IdTable,
    out_vars: Vec<String>,
    pairs: &[(u32, u32)],
) -> IdTable {
    let mut cols: Vec<Column> = Vec::with_capacity(out_vars.len());
    for v in &out_vars {
        let mut col = Column::with_capacity(pairs.len());
        match (left.column_index(v), right.column_index(v)) {
            (Some(lc), Some(rc)) => {
                // Shared: left value when present, else the right side's.
                for &(li, ri) in pairs {
                    let value = match left.get(li as usize, lc) {
                        Some(x) => Some(x),
                        None if ri != NO_MATCH => right.get(ri as usize, rc),
                        None => None,
                    };
                    col.push(value);
                }
            }
            (Some(lc), None) => {
                for &(li, _) in pairs {
                    col.push(left.get(li as usize, lc));
                }
            }
            (None, Some(rc)) => {
                for &(_, ri) in pairs {
                    col.push(if ri == NO_MATCH {
                        None
                    } else {
                        right.get(ri as usize, rc)
                    });
                }
            }
            (None, None) => unreachable!("out var comes from one side"),
        }
        cols.push(col);
    }
    let rows = pairs.len();
    IdTable::from_columns(out_vars, cols, rows)
}

#[cfg(test)]
mod tests {
    use super::pipeline::test_ops::{distinct, join, table, union};
    use super::pipeline::BoxOp;
    use super::*;

    fn tbl(vars: &[&str], rows: Vec<Vec<Option<TermId>>>) -> IdTable {
        let mut t = IdTable::with_vars(vars.iter().map(|s| s.to_string()).collect());
        for row in rows {
            t.push_row(&row);
        }
        t
    }

    fn i(v: u32) -> Option<TermId> {
        Some(TermId(v))
    }

    fn rows_of(t: &IdTable) -> Vec<Vec<Option<TermId>>> {
        (0..t.len())
            .map(|r| (0..t.vars.len()).map(|c| t.get(r, c)).collect())
            .collect()
    }

    /// Drain a freshly built operator at several batch sizes (each with a
    /// fresh evaluator), demand the identical table from all of them, and
    /// return it with the last evaluator (for its rewrite counters).
    fn run<'e>(ds: &'e Dataset, make: impl Fn() -> BoxOp<'e>) -> (IdTable, Evaluator<'e>) {
        let mut last: Option<(IdTable, Evaluator<'e>)> = None;
        for batch_rows in [1, 2, 3, 64] {
            let mut ev = Evaluator::new(ds, Vec::new());
            let mut op = make();
            let mut out = IdTable::with_vars(op.vars().to_vec());
            while let Some(b) = op.next_batch(&mut ev, batch_rows).unwrap() {
                assert!(!b.is_empty() && b.len() <= batch_rows);
                out.append(&b);
            }
            if let Some((prev, _)) = &last {
                assert_eq!(prev, &out, "batch size {batch_rows} changed the output");
            }
            last = Some((out, ev));
        }
        last.unwrap()
    }

    #[test]
    fn inner_join_on_shared() {
        let ds = Dataset::new();
        let (j, _) = run(&ds, || {
            let a = tbl(&["x", "y"], vec![vec![i(1), i(10)], vec![i(2), i(20)]]);
            let b = tbl(&["x", "z"], vec![vec![i(1), i(100)], vec![i(3), i(300)]]);
            join(table(a), table(b), JoinKind::Inner, None)
        });
        assert_eq!(j.vars, vec!["x", "y", "z"]);
        assert_eq!(rows_of(&j), vec![vec![i(1), i(10), i(100)]]);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let ds = Dataset::new();
        let (j, _) = run(&ds, || {
            let a = tbl(&["x"], vec![vec![i(1)], vec![i(2)]]);
            let b = tbl(&["x", "z"], vec![vec![i(1), i(100)]]);
            join(table(a), table(b), JoinKind::Left, None)
        });
        assert_eq!(j.len(), 2);
        assert_eq!(rows_of(&j)[1], vec![i(2), None]);
    }

    #[test]
    fn join_with_partially_unbound_shared_var() {
        // 'g' is shared but sometimes unbound on the left (e.g. OPTIONAL
        // output): unbound is compatible with anything.
        let ds = Dataset::new();
        let (j, _) = run(&ds, || {
            let a = tbl(&["x", "g"], vec![vec![i(1), None], vec![i(2), i(9)]]);
            let b = tbl(&["x", "g"], vec![vec![i(1), i(7)], vec![i(2), i(8)]]);
            join(table(a), table(b), JoinKind::Inner, None)
        });
        // Row (1, None) joins (1, 7) → (1, 7); row (2, 9) vs (2, 8) clash.
        assert_eq!(rows_of(&j), vec![vec![i(1), i(7)]]);
    }

    #[test]
    fn cross_product_when_no_shared() {
        let ds = Dataset::new();
        let (j, _) = run(&ds, || {
            let a = tbl(&["x"], vec![vec![i(1)], vec![i(2)]]);
            let b = tbl(&["y"], vec![vec![i(3)]]);
            join(table(a), table(b), JoinKind::Inner, None)
        });
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn union_aligns_schemas() {
        let ds = Dataset::new();
        let (u, _) = run(&ds, || {
            let a = tbl(&["x", "y"], vec![vec![i(1), i(2)]]);
            let b = tbl(&["y", "z"], vec![vec![i(5), i(6)]]);
            union(table(a), table(b))
        });
        assert_eq!(u.vars, vec!["x", "y", "z"]);
        assert_eq!(rows_of(&u)[0], vec![i(1), i(2), None]);
        assert_eq!(rows_of(&u)[1], vec![None, i(5), i(6)]);
    }

    #[test]
    fn bag_semantics_preserved() {
        let ds = Dataset::new();
        let (j, _) = run(&ds, || {
            let a = tbl(&["x"], vec![vec![i(1)], vec![i(1)]]);
            let b = tbl(&["x"], vec![vec![i(1)], vec![i(1)]]);
            join(table(a), table(b), JoinKind::Inner, None)
        });
        // 2 × 2 duplicates → 4 rows.
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn unit_table_is_join_identity() {
        let ds = Dataset::new();
        let (j, _) = run(&ds, || {
            let a = tbl(&["x"], vec![vec![i(1)], vec![i(2)]]);
            join(table(IdTable::unit()), table(a), JoinKind::Inner, None)
        });
        assert_eq!(j.vars, vec!["x"]);
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn merge_left_join_matches_hash_left_join() {
        // Sorted key columns; left rows 1..4, right matches for 1 (two,
        // one incompatible on the extra shared var), none for 2, one for 4.
        let left = tbl(
            &["x", "g"],
            vec![vec![i(1), i(7)], vec![i(2), i(7)], vec![i(4), None]],
        );
        let right = tbl(
            &["x", "g", "z"],
            vec![
                vec![i(1), i(7), i(100)],
                vec![i(1), i(8), i(101)], // clashes on ?g → incompatible
                vec![i(4), i(9), i(102)], // joins the unbound-?g left row
            ],
        );
        let ds = Dataset::new();
        let (via_hash, hash_ev) = run(&ds, || {
            join(
                table(left.clone()),
                table(right.clone()),
                JoinKind::Left,
                None,
            )
        });
        let (via_merge, merge_ev) = run(&ds, || {
            join(
                table(left.clone()),
                table(right.clone()),
                JoinKind::Left,
                Some("x"),
            )
        });
        assert_eq!(via_hash, via_merge);
        assert_eq!(
            (hash_ev.merge_left_joins(), merge_ev.merge_left_joins()),
            (0, 1)
        );
        // Row 2 (x=2) must appear unmatched, in place.
        assert_eq!(rows_of(&via_merge)[1], vec![i(2), i(7), None]);
    }

    #[test]
    fn sorted_distinct_checks_its_claims() {
        let order: Vec<String> = vec!["a".into(), "b".into()];
        let ds = Dataset::new();
        // Distinct over `t` with the order claim: (output rows, did the
        // claim hold over the whole input?).
        let check = |t: IdTable| {
            let (out, ev) = run(&ds, || distinct(table(t.clone()), Some(&order)));
            (rows_of(&out), ev.sorted_distincts())
        };
        // Sorted with duplicates: first occurrences survive, claim holds
        // (across batch boundaries too).
        let t = tbl(
            &["a", "b"],
            vec![
                vec![i(1), i(5)],
                vec![i(1), i(5)],
                vec![i(1), i(6)],
                vec![i(2), i(3)],
                vec![i(2), i(3)],
            ],
        );
        assert_eq!(
            check(t),
            (
                vec![vec![i(1), i(5)], vec![i(1), i(6)], vec![i(2), i(3)]],
                1
            )
        );
        // Out-of-order rows: the claim is refuted, dedup is unaffected.
        let unsorted = tbl(&["a", "b"], vec![vec![i(2), i(1)], vec![i(1), i(1)]]);
        assert_eq!(check(unsorted).1, 0);
        // A column the order does not cover: ineligible.
        let extra = tbl(&["a", "c"], vec![vec![i(1), i(1)]]);
        assert_eq!(check(extra).1, 0);
        // An unbound slot in an order column: refuted.
        let unbound = tbl(&["a", "b"], vec![vec![i(1), None]]);
        assert_eq!(check(unbound).1, 0);
        // Empty input is trivially sorted.
        let empty = tbl(&["a", "b"], vec![]);
        assert_eq!(check(empty), (vec![], 1));
    }
}
