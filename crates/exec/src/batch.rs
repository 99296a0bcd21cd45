//! Columnar (vectorized) interpretation of a [`PhysicalPlan`].
//!
//! This is the engine every plan runs through. Instead of pulling one
//! tuple at a time, each operator produces a [`ColumnarBatch`] —
//! per-slot row vectors plus a selection vector of live lanes — and
//! predicates, join keys and projections evaluate over whole batches.
//! Filters and join keys read borrowed lanes
//! ([`ColumnarBatch::lane_values`]), cloning no `Value`; projections,
//! sort keys and group keys go through [`trac_expr::eval_vec`], which
//! clones once per output value. The differential suite checks its
//! results against an independent naive evaluator.
//!
//! Semantic contracts (the executor tests pin the error ones):
//!
//! * Inner join sides stay lazy — a join fetches (or hash-builds) its
//!   inner table only when the first **non-empty** outer batch arrives,
//!   so an empty outer input never touches downstream tables; on the
//!   morsel route, joins borrow a side built once ([`Prebuilt`]). An
//!   `Exists` that finds no tuple is such an empty outer.
//! * A filter conjunct that fails to evaluate counts as not true: the
//!   lane is dropped, the error never surfaces.
//! * `LIMIT` is checked before each output lane is materialized, so an
//!   evaluation error past the limit never surfaces; an error on a lane
//!   the limit reaches does.
//! * Joins expand outer-major ([`ColumnarBatch::join_extend_ref`] /
//!   [`ColumnarBatch::join_extend_indexed`]), so lane order equals a
//!   tuple-at-a-time nested loop's order; the hash build side stores
//!   its rows once and probes hand out borrowed index lists, so a
//!   matched row is cloned exactly once — into the output batch.
//! * Aggregates drain their input and finish through the shared
//!   [`finish_global`]/[`finish_groups`] helpers, which evaluate
//!   HAVING before any projection.

use crate::operators::{
    fetch_leaf_rows, finish_global, finish_groups, leaf_parts, leaf_pos, order_cmp, passes,
    RowDedup, Tuple,
};
use crate::parallel::{self, MorselRoute};
use crate::result::QueryResult;
use std::borrow::Cow;
use std::collections::HashMap;
use trac_expr::{
    eval_expr, eval_vec, AggFunc, BoundExpr, ColRef, ColumnarBatch, KernelCert, Projection,
};
use trac_plan::{ExecOptions, PhysicalPlan, PlanNode};
use trac_storage::{ReadTxn, Row};
use trac_types::{DataType, Result, TracError, Value};

/// A pull-based batch iterator over one operator subtree. Batches may
/// have zero live lanes after filtering; consumers skip those without
/// treating them as end-of-stream.
pub(crate) trait BatchSource {
    /// Produces the next batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>>;

    /// Pulls every batch and returns their live lanes as tuples.
    fn drain(&mut self) -> Result<Vec<Tuple>> {
        let mut tuples = Vec::new();
        while let Some(batch) = self.next_batch()? {
            tuples.extend(batch.to_tuples());
        }
        Ok(tuples)
    }

    /// The build side a hash join holds (tests check morsels share it).
    #[cfg(test)]
    fn build_side(&self) -> Option<&BuildSide> {
        None
    }
}

/// Produces no batches (a statically pruned input).
struct EmptySource;

impl BatchSource for EmptySource {
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        Ok(None)
    }
}

/// Streams the base table of a join chain in `batch_size` chunks, with
/// the leaf's residual filter applied vectorized per chunk. Rows are
/// fetched on the first pull, unless seeded with a morsel's rows.
struct LeafSource<'a> {
    txn: &'a ReadTxn,
    node: &'a PlanNode,
    batch_size: usize,
    cert: &'a KernelCert,
    state: Option<(usize, &'a [trac_expr::BoundExpr], std::vec::IntoIter<Row>)>,
}

impl BatchSource for LeafSource<'_> {
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        if self.state.is_none() {
            let (pos, filter, rows) = leaf_parts(self.txn, self.node)?;
            self.state = Some((pos, filter, rows.into_iter()));
        }
        let Some((pos, filter, rows)) = self.state.as_mut() else {
            unreachable!("state initialized above");
        };
        let chunk: Vec<Row> = rows.by_ref().take(self.batch_size).collect();
        if chunk.is_empty() {
            return Ok(None);
        }
        let mut batch = ColumnarBatch::from_rows(*pos + 1, *pos, chunk);
        batch.apply_filter(filter, self.cert);
        Ok(Some(batch))
    }
}

/// Nested-loop join: every inner row against every live outer lane.
struct NLJoinSource<'a> {
    txn: &'a ReadTxn,
    outer: Box<dyn BatchSource + 'a>,
    inner: &'a PlanNode,
    inner_pos: usize,
    /// Fetched lazily, or borrowed from the morsel route's [`Prebuilt`].
    inner_rows: Option<Cow<'a, [Row]>>,
    filter: &'a [trac_expr::BoundExpr],
    cert: &'a KernelCert,
}

impl BatchSource for NLJoinSource<'_> {
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        loop {
            let Some(batch) = self.outer.next_batch()? else {
                return Ok(None);
            };
            if batch.is_empty() {
                continue;
            }
            if self.inner_rows.is_none() {
                self.inner_rows = Some(fetch_leaf_rows(self.txn, self.inner, self.cert)?.into());
            }
            let rows = self.inner_rows.as_deref().unwrap_or_default();
            // Every live lane matches the whole inner row set; hand the
            // shared slice to the gather so each row is cloned exactly
            // once, into the output, never per outer lane.
            let matches: Vec<&[Row]> = vec![rows; batch.len()];
            let mut joined = batch.join_extend_ref(self.inner_pos, &matches);
            joined.apply_filter(self.filter, self.cert);
            return Ok(Some(joined));
        }
    }
}

/// The hash-join build side: the inner rows stored exactly once, plus a
/// key → row-index table over them. Probing yields `u32` index lists
/// borrowed from the table, and matched rows are cloned only at gather
/// time ([`ColumnarBatch::join_extend_indexed`]) — never per probe.
#[derive(Clone)]
pub(crate) struct BuildSide {
    /// The (filtered) inner rows, in fetch order.
    rows: Vec<Row>,
    /// Key index into `rows`.
    pub(crate) index: JoinIndex,
}

/// The hash-join key index: boxed [`Value`] keys in general, unboxed
/// `i64` keys when both sides of the equi-key carry an `INT` lane
/// certificate. Either way NULL keys never enter the table, and key
/// matching is `Value` identity (the equi-key conjunct is re-applied
/// with SQL semantics afterwards), so both representations match the
/// same rows.
#[derive(Clone)]
pub(crate) enum JoinIndex {
    /// Boxed keys, bucketing row indices by [`Value`].
    Boxed(HashMap<Value, Vec<u32>>),
    /// Unboxed keys, bucketing row indices by `i64`
    /// (TRAC024/025-certified).
    Int(HashMap<i64, Vec<u32>>),
}

/// The empty match list shared by every non-matching probe lane.
const NO_MATCH: &[u32] = &[];

/// Hash join: builds `inner_col → rows` buckets from the inner leaf on
/// the first non-empty outer batch, then matches whole batches through
/// the vectorized key column. NULL keys never match.
struct HashJoinSource<'a> {
    txn: &'a ReadTxn,
    outer: Box<dyn BatchSource + 'a>,
    join: &'a PlanNode,
    inner_pos: usize,
    outer_key: trac_expr::ColRef,
    filter: &'a [trac_expr::BoundExpr],
    cert: &'a KernelCert,
    /// Built lazily, or borrowed from the morsel route's [`Prebuilt`].
    build: Option<Cow<'a, BuildSide>>,
}

impl BuildSide {
    /// Fetches a `HashJoin`'s filtered inner rows and indexes their keys,
    /// unboxed when `cert` proves both key lanes `INT`. A row whose key
    /// contradicts the certificate drops the whole build back to boxed
    /// keys (never a wrong answer).
    pub(crate) fn new(txn: &ReadTxn, join: &PlanNode, cert: &KernelCert) -> Result<BuildSide> {
        let PlanNode::HashJoin {
            inner,
            inner_col,
            outer_key,
            ..
        } = join
        else {
            return Err(TracError::Execution(
                "only a HashJoin has a build side".into(),
            ));
        };
        let rows = fetch_leaf_rows(txn, inner, cert)?;
        let is_int = |l: Option<&trac_expr::LaneCert>| l.is_some_and(|l| l.ty == DataType::Int);
        if is_int(cert.get(leaf_pos(inner)?, *inner_col)) && is_int(cert.lane(*outer_key)) {
            let mut index: HashMap<i64, Vec<u32>> = HashMap::new();
            let mut ok = true;
            for (i, r) in rows.iter().enumerate() {
                match &r[*inner_col] {
                    Value::Int(k) => index.entry(*k).or_default().push(i as u32),
                    Value::Null => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return Ok(BuildSide {
                    rows,
                    index: JoinIndex::Int(index),
                });
            }
        }
        let mut index: HashMap<Value, Vec<u32>> = HashMap::new();
        for (i, r) in rows.iter().enumerate() {
            let k = &r[*inner_col];
            if !k.is_null() {
                index.entry(k.clone()).or_default().push(i as u32);
            }
        }
        Ok(BuildSide {
            rows,
            index: JoinIndex::Boxed(index),
        })
    }
}

impl HashJoinSource<'_> {
    /// Per-lane match lists for one outer batch, borrowed straight from
    /// the build-side buckets (no rows are cloned here). The unboxed
    /// probe gathers the key lane as raw `i64`s (null-bitmap aware); if
    /// the outer data contradicts its certificate, the probe falls back
    /// to boxed key gathering against the same index.
    fn probe<'t>(&self, build: &'t BuildSide, batch: &ColumnarBatch) -> Result<Vec<&'t [u32]>> {
        if let JoinIndex::Int(t) = &build.index {
            let non_null = self.cert.lane(self.outer_key).is_some_and(|l| l.non_null);
            if let Ok(lane) = batch.int_lane(self.outer_key, non_null) {
                return Ok(lane
                    .values
                    .iter()
                    .enumerate()
                    .map(|(i, k)| {
                        if lane.nulls.as_ref().is_some_and(|n| n[i]) {
                            NO_MATCH
                        } else {
                            t.get(k).map_or(NO_MATCH, Vec::as_slice)
                        }
                    })
                    .collect());
            }
        }
        Ok(batch
            .lane_values(self.outer_key)?
            .map(|k| match &build.index {
                JoinIndex::Boxed(t) => t.get(k).map_or(NO_MATCH, Vec::as_slice),
                // Value identity matching, like the boxed index: only an
                // INT key can hit an i64 bucket.
                JoinIndex::Int(t) => match k {
                    Value::Int(k) => t.get(k).map_or(NO_MATCH, Vec::as_slice),
                    _ => NO_MATCH,
                },
            })
            .collect())
    }
}

impl BatchSource for HashJoinSource<'_> {
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        loop {
            let Some(batch) = self.outer.next_batch()? else {
                return Ok(None);
            };
            if batch.is_empty() {
                continue;
            }
            if self.build.is_none() {
                self.build = Some(Cow::Owned(BuildSide::new(self.txn, self.join, self.cert)?));
            }
            let Some(build) = self.build.as_deref() else {
                unreachable!("build side constructed above");
            };
            let matches = self.probe(build, &batch)?;
            let mut joined = batch.join_extend_indexed(self.inner_pos, &build.rows, &matches);
            joined.apply_filter(self.filter, self.cert);
            return Ok(Some(joined));
        }
    }

    #[cfg(test)]
    fn build_side(&self) -> Option<&BuildSide> {
        self.build.as_deref()
    }
}

/// Index nested-loop join: probes the inner table's index once per live
/// outer lane with the vectorized key column. NULL keys are skipped.
struct IndexNLJoinSource<'a> {
    txn: &'a ReadTxn,
    outer: Box<dyn BatchSource + 'a>,
    table: &'a trac_expr::BoundTable,
    pos: usize,
    inner_col: usize,
    outer_key: trac_expr::ColRef,
    filter: &'a [trac_expr::BoundExpr],
    cert: &'a KernelCert,
}

impl BatchSource for IndexNLJoinSource<'_> {
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        loop {
            let Some(batch) = self.outer.next_batch()? else {
                return Ok(None);
            };
            if batch.is_empty() {
                continue;
            }
            let mut matches: Vec<Vec<Row>> = Vec::with_capacity(batch.len());
            for k in batch.lane_values(self.outer_key)? {
                if k.is_null() {
                    matches.push(Vec::new());
                    continue;
                }
                let rows = self
                    .txn
                    .index_probe_in(self.table.id, self.inner_col, std::slice::from_ref(k))?
                    .ok_or_else(|| {
                        TracError::Execution(format!(
                            "index on {}.col#{} vanished mid-plan",
                            self.table.binding, self.inner_col
                        ))
                    })?;
                matches.push(rows);
            }
            let mut joined = batch.join_extend(self.pos, matches);
            joined.apply_filter(self.filter, self.cert);
            return Ok(Some(joined));
        }
    }
}

/// Emits the first live lane of its input as a one-lane batch, then
/// ends. Over a `Scan` leaf the scan itself stops at the first visible
/// row that passes the leaf filter.
struct ExistsSource<'a> {
    txn: &'a ReadTxn,
    input: &'a PlanNode,
    batch_size: usize,
    cert: &'a KernelCert,
    done: bool,
}

impl BatchSource for ExistsSource<'_> {
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        if std::mem::replace(&mut self.done, true) {
            return Ok(None);
        }
        if let PlanNode::Scan {
            table, pos, filter, ..
        } = self.input
        {
            let mut tuple: Tuple = vec![Row::from(Vec::new()); *pos + 1];
            let found = self.txn.scan_find(table.id, |row| {
                tuple[*pos] = row.clone();
                Ok(passes(filter, &tuple))
            })?;
            return Ok(found.map(|row| ColumnarBatch::from_rows(*pos + 1, *pos, vec![row])));
        }
        let mut input = build_source(self.txn, self.input, self.batch_size, self.cert, None)?;
        while let Some(mut batch) = input.next_batch()? {
            if !batch.is_empty() {
                let first: Vec<bool> = (0..batch.len()).map(|lane| lane == 0).collect();
                batch.retain_lanes(&first);
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

/// Residual predicate over full batches.
struct FilterSource<'a> {
    input: Box<dyn BatchSource + 'a>,
    predicate: &'a [trac_expr::BoundExpr],
    cert: &'a KernelCert,
}

impl BatchSource for FilterSource<'_> {
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        let Some(mut batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        batch.apply_filter(self.predicate, self.cert);
        Ok(Some(batch))
    }
}

/// Pipeline breaker: drains its input on the first pull, sorts by the
/// plan's keys (evaluated vectorized), then replays as one batch.
struct SortSource<'a> {
    input: Box<dyn BatchSource + 'a>,
    keys: &'a [(trac_expr::BoundExpr, bool)],
    done: bool,
}

impl BatchSource for SortSource<'_> {
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut keyed: Vec<(Vec<Value>, Tuple)> = Vec::new();
        while let Some(batch) = self.input.next_batch()? {
            if batch.is_empty() {
                continue;
            }
            let cols: Vec<Vec<Value>> = self
                .keys
                .iter()
                .map(|(e, _)| eval_vec(e, &batch))
                .collect::<Result<_>>()?;
            for (lane, t) in batch.to_tuples().into_iter().enumerate() {
                keyed.push((cols.iter().map(|c| c[lane].clone()).collect(), t));
            }
        }
        keyed.sort_by(|a, b| order_cmp(&a.0, &b.0, self.keys));
        let tuples: Vec<Tuple> = keyed.into_iter().map(|(_, t)| t).collect();
        Ok(Some(ColumnarBatch::from_tuples(0, &tuples)))
    }
}

/// The morsel route: runs the worker pool over the whole relational
/// root on the first pull, each morsel through its own [`build_source`]
/// tree, then replays the merged tuples as one batch.
struct MorselSource<'a> {
    txn: &'a ReadTxn,
    route: MorselRoute<'a>,
    opts: ExecOptions,
    cert: &'a KernelCert,
    done: bool,
}

impl BatchSource for MorselSource<'_> {
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let tuples = parallel::execute_morsels(self.txn, &self.route, self.opts, self.cert, true)?;
        Ok(Some(ColumnarBatch::from_tuples(0, &tuples)))
    }
}

/// Builds the source for a plan's relational root (the input of
/// `Aggregate`, or of `Sort`/`Project`). With `opts.threads > 1`, a
/// root of the shape [`parallel::morsel_route`] accepts runs its source
/// tree once per morsel on the morsel route; every other root, and
/// every root at one thread, runs it once.
fn root_source<'a>(
    txn: &'a ReadTxn,
    node: &'a PlanNode,
    opts: ExecOptions,
    cert: &'a KernelCert,
) -> Result<Box<dyn BatchSource + 'a>> {
    if let PlanNode::Sort { input, keys } = node {
        return Ok(Box::new(SortSource {
            input: root_source(txn, input, opts, cert)?,
            keys,
            done: false,
        }));
    }
    if opts.threads > 1 {
        if let Some(route) = parallel::morsel_route(node) {
            return Ok(Box::new(MorselSource {
                txn,
                route,
                opts,
                cert,
                done: false,
            }));
        }
    }
    build_source(txn, node, opts.batch_size.max(1), cert, None)
}

/// Join inner sides built once for a filter/join chain, keyed by the
/// inner leaf's FROM position: the morsel route's coordinator builds
/// them before fan-out, and every morsel's joins borrow them.
#[derive(Default)]
pub(crate) struct Prebuilt {
    /// Each `NLJoin`'s filtered inner rows.
    rows: HashMap<usize, Vec<Row>>,
    /// Each `HashJoin`'s build side.
    pub(crate) builds: HashMap<usize, BuildSide>,
}

impl Prebuilt {
    /// Fetches every `NLJoin` inner side and builds every `HashJoin`
    /// build side below `root`, as the serial joins do lazily.
    pub(crate) fn build(txn: &ReadTxn, root: &PlanNode, cert: &KernelCert) -> Result<Prebuilt> {
        let mut out = Prebuilt::default();
        let mut node = root;
        loop {
            node = match node {
                PlanNode::Filter { input, .. } => input,
                PlanNode::NLJoin { outer, inner, .. } => {
                    out.rows
                        .insert(leaf_pos(inner)?, fetch_leaf_rows(txn, inner, cert)?);
                    outer
                }
                PlanNode::HashJoin { outer, inner, .. } => {
                    out.builds
                        .insert(leaf_pos(inner)?, BuildSide::new(txn, node, cert)?);
                    outer
                }
                PlanNode::IndexNLJoin { outer, .. } => outer,
                _ => return Ok(out),
            };
        }
    }
}

/// One morsel: its leaf's starting state and the chain's [`Prebuilt`].
pub(crate) struct MorselInput<'a> {
    pub(crate) leaf: (usize, &'a [BoundExpr], std::vec::IntoIter<Row>),
    pub(crate) prebuilt: &'a Prebuilt,
}

/// Builds the batch-source tree for the filter/join chain below a
/// plan's relational root. `cert` is the plan's typed-kernel
/// certificate (empty when typed kernels are disabled): every filter
/// application and the hash-join key path consult it before choosing
/// an unboxed kernel. With a `morsel`, the leaf starts seeded and the
/// joins borrow its prebuilt inner sides; without, both fetch lazily.
pub(crate) fn build_source<'a>(
    txn: &'a ReadTxn,
    node: &'a PlanNode,
    batch_size: usize,
    cert: &'a KernelCert,
    morsel: Option<MorselInput<'a>>,
) -> Result<Box<dyn BatchSource + 'a>> {
    let shared = morsel.as_ref().map(|m| m.prebuilt);
    Ok(match node {
        PlanNode::Empty { .. } => Box::new(EmptySource),
        PlanNode::Scan { .. } | PlanNode::IndexLookup { .. } | PlanNode::TopNIndex { .. } => {
            Box::new(LeafSource {
                txn,
                node,
                batch_size,
                cert,
                state: morsel.map(|m| m.leaf),
            })
        }
        PlanNode::NLJoin {
            outer,
            inner,
            filter,
            ..
        } => {
            let pos = leaf_pos(inner)?;
            Box::new(NLJoinSource {
                txn,
                outer: build_source(txn, outer, batch_size, cert, morsel)?,
                inner,
                inner_pos: pos,
                inner_rows: shared.and_then(|s| s.rows.get(&pos)).map(Cow::from),
                filter,
                cert,
            })
        }
        PlanNode::HashJoin {
            outer,
            inner,
            outer_key,
            filter,
            ..
        } => {
            let pos = leaf_pos(inner)?;
            Box::new(HashJoinSource {
                txn,
                outer: build_source(txn, outer, batch_size, cert, morsel)?,
                join: node,
                inner_pos: pos,
                outer_key: *outer_key,
                filter,
                cert,
                build: shared.and_then(|s| s.builds.get(&pos)).map(Cow::Borrowed),
            })
        }
        PlanNode::IndexNLJoin {
            outer,
            table,
            pos,
            inner_col,
            outer_key,
            filter,
            ..
        } => Box::new(IndexNLJoinSource {
            txn,
            outer: build_source(txn, outer, batch_size, cert, morsel)?,
            table,
            pos: *pos,
            inner_col: *inner_col,
            outer_key: *outer_key,
            filter,
            cert,
        }),
        PlanNode::Exists { input } => Box::new(ExistsSource {
            txn,
            input,
            batch_size,
            cert,
            done: false,
        }),
        PlanNode::Filter { input, predicate } => Box::new(FilterSource {
            input: build_source(txn, input, batch_size, cert, morsel)?,
            predicate,
            cert,
        }),
        other => {
            return Err(TracError::Execution(format!(
                "unexpected {} operator in the relational subtree",
                other.name()
            )))
        }
    })
}

/// One streaming accumulator of a certified global aggregate,
/// mirroring the scalar [`aggregate_row`] fold state exactly: the
/// wrapping integer sum with the `all_int` outcome (an `INT` lane is
/// all-int by certificate), the sequential `f64` sum in stream order,
/// and the SQL-comparison extreme fold where an incomparable value
/// (NaN) never replaces the running best.
///
/// [`aggregate_row`]: crate::operators
struct TypedAgg {
    /// `None` for `COUNT(*)`; otherwise the certified numeric lane and
    /// whether it is certified null-free.
    lane: Option<(ColRef, bool, DataType)>,
    func: AggFunc,
    /// Tuples seen (`COUNT(*)`).
    count: i64,
    /// Non-NULL lane values seen.
    n: u64,
    int_sum: i64,
    fsum: f64,
    best_int: Option<i64>,
    best_float: Option<f64>,
}

impl TypedAgg {
    fn new(lane: Option<(ColRef, bool, DataType)>, func: AggFunc) -> TypedAgg {
        TypedAgg {
            lane,
            func,
            count: 0,
            n: 0,
            int_sum: 0,
            fsum: 0.0,
            best_int: None,
            best_float: None,
        }
    }

    /// Folds one batch into the accumulator through the unboxed lane
    /// kernels. Errs only when the data contradicts the certificate.
    fn fold(&mut self, batch: &ColumnarBatch) -> Result<()> {
        let Some((c, non_null, ty)) = self.lane else {
            self.count += batch.len() as i64;
            return Ok(());
        };
        let max = self.func == AggFunc::Max;
        if ty == DataType::Int {
            let lane = batch.int_lane(c, non_null)?;
            for (i, v) in lane.values.iter().enumerate() {
                if lane.nulls.as_ref().is_some_and(|m| m[i]) {
                    continue;
                }
                self.n += 1;
                self.int_sum = self.int_sum.wrapping_add(*v);
                self.fsum += *v as f64;
                self.best_int = Some(match self.best_int {
                    None => *v,
                    Some(b) if (max && *v > b) || (!max && *v < b) => *v,
                    Some(b) => b,
                });
            }
        } else {
            let lane = batch.float_lane(c, non_null)?;
            for (i, v) in lane.values.iter().enumerate() {
                if lane.nulls.as_ref().is_some_and(|m| m[i]) {
                    continue;
                }
                self.n += 1;
                self.fsum += *v;
                self.best_float = Some(match self.best_float {
                    None => *v,
                    Some(b) => {
                        let keep_new =
                            v.partial_cmp(&b)
                                .is_some_and(|o| if max { o.is_gt() } else { o.is_lt() });
                        if keep_new {
                            *v
                        } else {
                            b
                        }
                    }
                });
            }
        }
        Ok(())
    }

    /// The aggregate's final value, byte-identical to the scalar fold.
    fn finish(&self) -> Value {
        let int_lane = self.lane.is_some_and(|(_, _, ty)| ty == DataType::Int);
        match self.func {
            AggFunc::Count => match self.lane {
                None => Value::Int(self.count),
                Some(_) => Value::Int(self.n as i64),
            },
            AggFunc::Sum if self.n == 0 => Value::Null,
            AggFunc::Sum if int_lane => Value::Int(self.int_sum),
            AggFunc::Sum => Value::Float(self.fsum),
            AggFunc::Avg if self.n == 0 => Value::Null,
            AggFunc::Avg => Value::Float(self.fsum / self.n as f64),
            AggFunc::Min | AggFunc::Max => {
                if int_lane {
                    self.best_int.map_or(Value::Null, Value::Int)
                } else {
                    self.best_float.map_or(Value::Null, Value::Float)
                }
            }
        }
    }
}

/// Streaming accumulators for a global aggregate, when every projection
/// is `COUNT(*)` or an aggregate over a certified numeric lane
/// (TRAC024/025). `None` ⇒ an uncertified or non-numeric shape is
/// present and the boxed drain stays the path.
fn typed_global_aggs(projections: &[Projection], cert: &KernelCert) -> Option<Vec<TypedAgg>> {
    projections
        .iter()
        .map(|p| {
            let Projection::Aggregate { func, arg, .. } = p else {
                return None;
            };
            match arg {
                None => (*func == AggFunc::Count).then(|| TypedAgg::new(None, *func)),
                Some(BoundExpr::Column(c)) => {
                    let lane = cert.lane(*c)?;
                    matches!(lane.ty, DataType::Int | DataType::Float)
                        .then(|| TypedAgg::new(Some((*c, lane.non_null, lane.ty)), *func))
                }
                Some(_) => None,
            }
        })
        .collect()
}

/// Evaluates every projection vectorized over a batch. Any failure (an
/// evaluation error on some lane, or an aggregate projection) makes the
/// caller fall back to per-lane scalar evaluation, which surfaces the
/// first failing lane's error only if LIMIT reaches that lane.
fn project_columns(projections: &[Projection], batch: &ColumnarBatch) -> Result<Vec<Vec<Value>>> {
    projections
        .iter()
        .map(|p| match p {
            Projection::Scalar { expr, .. } => eval_vec(expr, batch),
            Projection::Aggregate { name, .. } => Err(TracError::Execution(format!(
                "aggregate projection {name} in a non-aggregate query"
            ))),
        })
        .collect()
}

/// Scalar projection of one tuple, in projection order — the fallback
/// (and error-ordering reference) for [`project_columns`].
fn project_tuple_scalar(projections: &[Projection], tuple: &[Row]) -> Result<Vec<Value>> {
    let mut row = Vec::with_capacity(projections.len());
    for p in projections {
        match p {
            Projection::Scalar { expr, .. } => row.push(eval_expr(expr, tuple)?),
            Projection::Aggregate { name, .. } => {
                return Err(TracError::Execution(format!(
                    "aggregate projection {name} in a non-aggregate query"
                )))
            }
        }
    }
    Ok(row)
}

/// Interprets a physical plan against `txn`'s snapshot through the
/// columnar engine, `opts.batch_size` rows per leaf batch, on the
/// morsel route when `opts.threads > 1` and the relational root admits
/// it.
pub(crate) fn execute_plan_columnar(
    txn: &ReadTxn,
    plan: &PhysicalPlan,
    opts: ExecOptions,
) -> Result<QueryResult> {
    let columns = plan.columns.clone();
    // Peel the canonical top-of-plan shapers.
    let mut node = &plan.root;
    let mut limit: Option<u64> = None;
    let mut distinct = false;
    if let PlanNode::Limit { input, n } = node {
        limit = Some(*n);
        node = input;
    }
    if let PlanNode::Distinct { input } = node {
        distinct = true;
        node = input;
    }
    match node {
        PlanNode::CountStar { table, .. } => {
            // Fast path: the storage layer's visible-row count is the
            // answer; no batch is ever materialized.
            let n = txn.row_count(table.id)?;
            Ok(QueryResult {
                columns,
                rows: vec![vec![Value::Int(n as i64)]],
            })
        }
        PlanNode::IndexMinMax {
            table,
            column,
            func,
            ..
        } => {
            // Fast path: the extreme visible index entry is the answer.
            let v = txn.index_extreme(table.id, *column, *func == AggFunc::Max)?;
            Ok(QueryResult {
                columns,
                rows: vec![vec![v.unwrap_or(Value::Null)]],
            })
        }
        PlanNode::Aggregate {
            input,
            group_by,
            projections,
            having,
            order_by,
            limit: group_limit,
        } => {
            // Aggregation is a full pipeline breaker: drain the input.
            let mut src = root_source(txn, input, opts, &plan.cert)?;
            if group_by.is_empty() {
                // Certified global aggregate: fold each batch through
                // the unboxed lane kernels without materializing
                // tuples. Only taken when every projection is covered
                // by a lane certificate (and there is no HAVING, whose
                // evaluation is defined over materialized tuples).
                if having.is_none() {
                    if let Some(mut aggs) = typed_global_aggs(projections, &plan.cert) {
                        while let Some(batch) = src.next_batch()? {
                            if batch.is_empty() {
                                continue;
                            }
                            for a in &mut aggs {
                                a.fold(&batch)?;
                            }
                        }
                        return Ok(QueryResult {
                            columns,
                            rows: vec![aggs.iter().map(TypedAgg::finish).collect()],
                        });
                    }
                }
                let tuples = src.drain()?;
                return finish_global(columns, &tuples, projections, having.as_ref());
            }
            // Grouped aggregation: vectorized key evaluation per batch,
            // groups kept in first-seen lane order.
            let mut groups: Vec<Vec<Tuple>> = Vec::new();
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            while let Some(batch) = src.next_batch()? {
                if batch.is_empty() {
                    continue;
                }
                let key_cols: Vec<Vec<Value>> = group_by
                    .iter()
                    .map(|g| eval_vec(g, &batch))
                    .collect::<Result<_>>()?;
                for (lane, t) in batch.to_tuples().into_iter().enumerate() {
                    let key: Vec<Value> = key_cols.iter().map(|c| c[lane].clone()).collect();
                    match index.get(&key) {
                        Some(&g) => groups[g].push(t),
                        None => {
                            index.insert(key, groups.len());
                            groups.push(vec![t]);
                        }
                    }
                }
            }
            finish_groups(
                columns,
                groups,
                projections,
                having.as_ref(),
                order_by,
                *group_limit,
            )
        }
        PlanNode::Project { input, projections } => {
            let mut src = root_source(txn, input, opts, &plan.cert)?;
            let mut rows: Vec<Vec<Value>> = Vec::new();
            let mut dedup = RowDedup::default();
            let full = |n_rows: usize| limit.is_some_and(|n| n_rows as u64 >= n);
            'drain: loop {
                if full(rows.len()) {
                    break;
                }
                let Some(batch) = src.next_batch()? else {
                    break;
                };
                if batch.is_empty() {
                    continue;
                }
                match project_columns(projections, &batch) {
                    Ok(cols) => {
                        for lane in 0..batch.len() {
                            if full(rows.len()) {
                                break 'drain;
                            }
                            let row: Vec<Value> = cols.iter().map(|c| c[lane].clone()).collect();
                            if distinct {
                                dedup.push(&mut rows, row);
                            } else {
                                rows.push(row);
                            }
                        }
                    }
                    Err(_) => {
                        // Some lane fails to evaluate (or a projection
                        // is an aggregate): replay the batch through
                        // scalar projection, lane by lane, so the error
                        // surfaces only if LIMIT reaches the failing
                        // lane.
                        for t in batch.to_tuples() {
                            if full(rows.len()) {
                                break 'drain;
                            }
                            let row = project_tuple_scalar(projections, &t)?;
                            if distinct {
                                dedup.push(&mut rows, row);
                            } else {
                                rows.push(row);
                            }
                        }
                    }
                }
            }
            Ok(QueryResult { columns, rows })
        }
        other => Err(TracError::Execution(format!(
            "malformed plan: unexpected top-level {} operator",
            other.name()
        ))),
    }
}
