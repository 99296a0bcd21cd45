//! Plan-level helpers the columnar engine ([`crate::batch`]) and the
//! morsel-driven parallel driver ([`crate::parallel`]) share: leaf
//! fetching, residual-filter evaluation over positional tuples, the
//! `DISTINCT` row filter, ORDER BY key comparison, and the aggregate
//! finishers.
//!
//! A tuple is positional — slot `i` holds the [`Row`] (a cheap `Arc`
//! handle) of the `i`-th FROM table — so bound expressions evaluate
//! unchanged at any point in the pipeline.

use crate::result::QueryResult;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use trac_expr::{
    bound::BoundHaving, eval_expr, eval_predicate, AggFunc, ColumnarBatch, KernelCert, Projection,
    Truth,
};
use trac_plan::PlanNode;
use trac_storage::{ReadTxn, Row};
use trac_types::{Result, TracError, Value};

/// A partial result tuple: one [`Row`] per joined FROM table, indexed
/// by FROM position.
pub type Tuple = Vec<Row>;

/// True when every conjunct evaluates to `TRUE` for `tuple`.
///
/// Evaluation errors count as "not true" (the tuple is filtered out),
/// matching the historic filter semantics of the monolithic executor.
pub(crate) fn passes(filter: &[trac_expr::BoundExpr], tuple: &[Row]) -> bool {
    filter
        .iter()
        .all(|c| matches!(eval_predicate(c, tuple), Ok(Truth::True)))
}

/// Empty residual filter for leaves that apply their predicate while
/// fetching (currently only [`PlanNode::TopNIndex`]).
const NO_FILTER: &[trac_expr::BoundExpr] = &[];

/// Fetches the raw rows of a leaf plus the residual filter still to be
/// applied to them, which the caller applies to whole batches through
/// the vectorized evaluator.
///
/// [`PlanNode::TopNIndex`] must filter *during* its ordered index walk
/// (the early stop depends on it), so its rows come back with an empty
/// residual filter.
pub(crate) fn leaf_parts<'a>(
    txn: &ReadTxn,
    node: &'a PlanNode,
) -> Result<(usize, &'a [trac_expr::BoundExpr], Vec<Row>)> {
    match node {
        PlanNode::Scan {
            table, pos, filter, ..
        } => Ok((*pos, filter, txn.scan(table.id)?)),
        PlanNode::IndexLookup {
            table,
            pos,
            column,
            keys,
            filter,
            ..
        } => {
            let rows = txn
                .index_probe_in(table.id, *column, keys)?
                .ok_or_else(|| TracError::Execution("index vanished mid-plan".into()))?;
            Ok((*pos, filter, rows))
        }
        PlanNode::TopNIndex {
            table,
            pos,
            column,
            desc,
            n,
            filter,
            ..
        } => {
            let rows = fetch_top_n(txn, table, *pos, *column, *desc, *n, filter)?;
            Ok((*pos, NO_FILTER, rows))
        }
        other => Err(TracError::Execution(format!(
            "operator {} is not a leaf",
            other.name()
        ))),
    }
}

/// The FROM position (= tuple slot) of a leaf operator.
pub(crate) fn leaf_pos(node: &PlanNode) -> Result<usize> {
    match node {
        PlanNode::Scan { pos, .. }
        | PlanNode::IndexLookup { pos, .. }
        | PlanNode::TopNIndex { pos, .. } => Ok(*pos),
        other => Err(TracError::Execution(format!(
            "operator {} is not a leaf",
            other.name()
        ))),
    }
}

/// Walks `table`'s ordered index on `column` (descending when `desc`),
/// keeping rows whose residual `filter` passes, and stops as soon as
/// `n` rows are kept — the [`PlanNode::TopNIndex`] fast path.
fn fetch_top_n(
    txn: &ReadTxn,
    table: &trac_expr::BoundTable,
    pos: usize,
    column: usize,
    desc: bool,
    n: u64,
    filter: &[trac_expr::BoundExpr],
) -> Result<Vec<Row>> {
    let mut out: Vec<Row> = Vec::new();
    if n == 0 {
        return Ok(out);
    }
    let mut scratch: Vec<Row> = vec![std::sync::Arc::from(Vec::new().into_boxed_slice()); pos + 1];
    txn.index_ordered_scan(table.id, column, desc, |row| {
        scratch[pos] = row.clone();
        if passes(filter, &scratch) {
            out.push(row);
        }
        Ok((out.len() as u64) < n)
    })?;
    Ok(out)
}

/// Fetches a leaf's rows with its residual filter applied through the
/// vectorized evaluator under the plan's kernel certificate `cert`.
/// Join inner sides, serial and on the morsel route, are fetched with
/// this.
pub(crate) fn fetch_leaf_rows(
    txn: &ReadTxn,
    node: &PlanNode,
    cert: &KernelCert,
) -> Result<Vec<Row>> {
    let (pos, filter, raw) = leaf_parts(txn, node)?;
    if filter.is_empty() {
        return Ok(raw);
    }
    let mut batch = ColumnarBatch::from_rows(pos + 1, pos, raw);
    batch.apply_filter(filter, cert);
    Ok(batch.into_slot_rows(pos))
}

/// Hash-bucketed duplicate filter over output rows. Candidate rows are
/// compared against rows already in the output vector by index, so
/// deduplication never clones a row.
#[derive(Default)]
pub(crate) struct RowDedup {
    buckets: HashMap<u64, Vec<usize>>,
}

impl RowDedup {
    /// Appends `row` to `rows` unless an equal row is already there.
    pub(crate) fn push(&mut self, rows: &mut Vec<Vec<Value>>, row: Vec<Value>) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        row.hash(&mut h);
        let bucket = self.buckets.entry(h.finish()).or_default();
        if bucket.iter().any(|&i| rows[i] == row) {
            return;
        }
        bucket.push(rows.len());
        rows.push(row);
    }
}

/// Finishes a global (ungrouped) aggregate over the drained input
/// tuples: one group of everything, with a HAVING clause able to
/// suppress the single output row. HAVING is evaluated before any
/// projection, so its errors surface first.
pub(crate) fn finish_global(
    columns: Vec<String>,
    tuples: &[Tuple],
    projections: &[Projection],
    having: Option<&BoundHaving>,
) -> Result<QueryResult> {
    if let Some(h) = having {
        let rep: Tuple = tuples.first().cloned().unwrap_or_default();
        if !having_passes(h, tuples, &rep)? {
            return Ok(QueryResult::empty(columns));
        }
    }
    let row = aggregate_row(projections, tuples)?;
    Ok(QueryResult {
        columns,
        rows: vec![row],
    })
}

/// Finishes a grouped aggregate given the groups in first-seen order:
/// HAVING per group, projections for surviving groups (scalars against
/// the group representative), ORDER BY over representatives, LIMIT on
/// groups.
pub(crate) fn finish_groups(
    columns: Vec<String>,
    groups: Vec<Vec<Tuple>>,
    projections: &[Projection],
    having: Option<&BoundHaving>,
    order_by: &[(trac_expr::BoundExpr, bool)],
    limit: Option<u64>,
) -> Result<QueryResult> {
    let mut reps: Vec<Tuple> = Vec::with_capacity(groups.len());
    let mut rows = Vec::with_capacity(groups.len());
    for members in groups {
        let rep = members[0].clone();
        if let Some(h) = having {
            if !having_passes(h, &members, &rep)? {
                continue;
            }
        }
        let mut row = Vec::with_capacity(projections.len());
        for p in projections {
            match p {
                Projection::Scalar { expr, .. } => row.push(eval_expr(expr, &rep)?),
                Projection::Aggregate { .. } => row.push(aggregate_one(p, &members)?),
            }
        }
        rows.push(row);
        reps.push(rep);
    }
    // ORDER BY against group representatives; LIMIT on groups.
    if !order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
        for (row, rep) in rows.into_iter().zip(&reps) {
            let mut keys = Vec::with_capacity(order_by.len());
            for (e, _) in order_by {
                keys.push(eval_expr(e, rep)?);
            }
            keyed.push((keys, row));
        }
        keyed.sort_by(|a, b| order_cmp(&a.0, &b.0, order_by));
        rows = keyed.into_iter().map(|(_, r)| r).collect();
    }
    if let Some(n) = limit {
        rows.truncate(n as usize);
    }
    Ok(QueryResult { columns, rows })
}

/// Key comparison for ORDER BY (per-key DESC handling).
pub(crate) fn order_cmp(
    a: &[Value],
    b: &[Value],
    order_by: &[(trac_expr::BoundExpr, bool)],
) -> std::cmp::Ordering {
    for (i, (_, desc)) in order_by.iter().enumerate() {
        let ord = a[i].cmp(&b[i]);
        let ord = if *desc { ord.reverse() } else { ord };
        if !ord.is_eq() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Evaluates a HAVING clause for one group: compute the hoisted
/// aggregates, substitute them for their markers, then evaluate the
/// residual predicate against the group representative.
fn having_passes(h: &BoundHaving, members: &[Tuple], rep: &[Row]) -> Result<bool> {
    let mut agg_values = Vec::with_capacity(h.aggregates.len());
    for (func, arg) in &h.aggregates {
        let p = Projection::Aggregate {
            func: *func,
            arg: arg.clone(),
            name: String::new(),
        };
        agg_values.push(aggregate_one(&p, members)?);
    }
    let substituted = substitute_agg_markers(&h.predicate, h.agg_table, &agg_values);
    Ok(eval_predicate(&substituted, rep)? == Truth::True)
}

/// Replaces `ColRef { table: agg_table, column: k }` with the computed
/// aggregate literal `values[k]`.
fn substitute_agg_markers(
    e: &trac_expr::BoundExpr,
    agg_table: usize,
    values: &[Value],
) -> trac_expr::BoundExpr {
    use trac_expr::BoundExpr;
    match e {
        BoundExpr::Column(c) if c.table == agg_table => {
            BoundExpr::Literal(values[c.column].clone())
        }
        BoundExpr::Column(_) | BoundExpr::Literal(_) => e.clone(),
        BoundExpr::Binary { op, lhs, rhs } => BoundExpr::Binary {
            op: *op,
            lhs: Box::new(substitute_agg_markers(lhs, agg_table, values)),
            rhs: Box::new(substitute_agg_markers(rhs, agg_table, values)),
        },
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(substitute_agg_markers(expr, agg_table, values)),
            list: list
                .iter()
                .map(|e| substitute_agg_markers(e, agg_table, values))
                .collect(),
            negated: *negated,
        },
        BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(substitute_agg_markers(expr, agg_table, values)),
            negated: *negated,
        },
        BoundExpr::Not(x) => BoundExpr::Not(Box::new(substitute_agg_markers(x, agg_table, values))),
        BoundExpr::Neg(x) => BoundExpr::Neg(Box::new(substitute_agg_markers(x, agg_table, values))),
    }
}

/// Computes one aggregate projection over a tuple group.
fn aggregate_one(p: &Projection, tuples: &[Tuple]) -> Result<Value> {
    let row = aggregate_row(std::slice::from_ref(p), tuples)?;
    row.into_iter()
        .next()
        .ok_or_else(|| TracError::Execution("aggregate computation produced no value".into()))
}

/// Evaluates a row of aggregate projections over one tuple group.
fn aggregate_row(projections: &[Projection], tuples: &[Tuple]) -> Result<Vec<Value>> {
    let mut row = Vec::with_capacity(projections.len());
    for p in projections {
        let Projection::Aggregate { func, arg, .. } = p else {
            return Err(TracError::Execution(format!(
                "scalar projection {} in an aggregate-only context",
                p.name()
            )));
        };
        row.push(match func {
            AggFunc::Count => match arg {
                None => Value::Int(tuples.len() as i64),
                Some(e) => {
                    let mut n = 0i64;
                    for t in tuples {
                        if !eval_expr(e, t)?.is_null() {
                            n += 1;
                        }
                    }
                    Value::Int(n)
                }
            },
            AggFunc::Sum | AggFunc::Avg => {
                let e = arg.as_ref().ok_or_else(|| {
                    TracError::Execution(format!("{func:?} requires an argument"))
                })?;
                let mut sum = 0.0f64;
                let mut n = 0u64;
                let mut all_int = true;
                let mut int_sum = 0i64;
                for t in tuples {
                    match eval_expr(e, t)? {
                        Value::Null => {}
                        Value::Int(i) => {
                            int_sum = int_sum.wrapping_add(i);
                            sum += i as f64;
                            n += 1;
                        }
                        Value::Float(f) => {
                            all_int = false;
                            sum += f;
                            n += 1;
                        }
                        other => {
                            return Err(TracError::Type(format!(
                                "cannot aggregate {}",
                                other.type_name()
                            )))
                        }
                    }
                }
                if n == 0 {
                    Value::Null
                } else if *func == AggFunc::Avg {
                    Value::Float(sum / n as f64)
                } else if all_int {
                    Value::Int(int_sum)
                } else {
                    Value::Float(sum)
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let e = arg.as_ref().ok_or_else(|| {
                    TracError::Execution(format!("{func:?} requires an argument"))
                })?;
                let mut best: Option<Value> = None;
                for t in tuples {
                    let v = eval_expr(e, t)?;
                    if v.is_null() {
                        continue;
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let keep_new = match v.sql_cmp(&b) {
                                Some(o) => {
                                    (*func == AggFunc::Min && o.is_lt())
                                        || (*func == AggFunc::Max && o.is_gt())
                                }
                                None => false,
                            };
                            if keep_new {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                best.unwrap_or(Value::Null)
            }
        });
    }
    Ok(row)
}
