//! Pass 8: the fast-path soundness certifier.
//!
//! The statistics-driven lowering emits four storage shortcuts —
//! [`PlanNode::CountStar`], [`PlanNode::IndexMinMax`],
//! [`PlanNode::TopNIndex`] and multi-key IN-list
//! [`PlanNode::IndexLookup`] probes — each sound only under side
//! conditions the planner checks once and then erases from the plan
//! (an unindexed column, a nullable ORDER BY key, or a float extreme
//! would silently change results, not fail). This pass re-derives every
//! side condition from the bound query and the catalog, consulting the
//! planner's output but never its reasoning:
//!
//! * `TRAC021` — a fast-path operator is present although some side
//!   condition does not re-derive (soundness violation);
//! * `TRAC022` — every fast-path operator in the plan had all of its
//!   side conditions independently confirmed (positive certification,
//!   one note per plan so the committed baseline records the proof).
//!
//! Following the pass convention, [`check_plan`] takes the *claimed*
//! plan as an argument so tests can seed a single violation; [`run`]
//! feeds it the production plans.

use crate::diag::{Diagnostic, FASTPATH_CERTIFIED, FASTPATH_UNSOUND, FLOAT_TOTAL_ORDER};
use trac_expr::bound::AggFunc;
use trac_expr::{eval_predicate, BoundExpr, BoundSelect, BoundTable, ColRef, Projection, Truth};
use trac_plan::{
    choose_access_path, probe_candidate, split_and, AccessPath, ExecOptions, PhysicalPlan, PlanNode,
};
use trac_storage::{ColumnStats, ReadTxn};
use trac_types::DataType;

/// Certifies every fast-path operator of one claimed plan against its
/// bound query and the catalog snapshot. Returns the findings plus a
/// positive `TRAC022` note when at least one fast path was present and
/// none failed.
pub fn check_plan(
    txn: &ReadTxn,
    q: &BoundSelect,
    plan: &PhysicalPlan,
    context: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut certified: Vec<String> = Vec::new();
    walk(txn, q, &plan.root, context, &mut certified, &mut out);
    if !certified.is_empty() && out.iter().all(|d| d.code.id != FASTPATH_UNSOUND.id) {
        out.push(Diagnostic::new(
            FASTPATH_CERTIFIED,
            context,
            format!("re-derived all side conditions of {}", certified.join("; ")),
        ));
    }
    out
}

fn walk(
    txn: &ReadTxn,
    q: &BoundSelect,
    node: &PlanNode,
    context: &str,
    certified: &mut Vec<String>,
    out: &mut Vec<Diagnostic>,
) {
    match node {
        PlanNode::CountStar { table, .. } => {
            let before = out.len();
            check_single_unfiltered_aggregate(q, table, "CountStar", context, out);
            if !matches!(
                q.projections.as_slice(),
                [Projection::Aggregate {
                    func: AggFunc::Count,
                    arg: None,
                    ..
                }]
            ) {
                out.push(unsound(
                    context,
                    "CountStar answers a query whose single projection is not COUNT(*)",
                ));
            }
            if out.len() == before {
                certified.push(format!("CountStar over `{}`", table.schema.name));
            }
        }
        PlanNode::IndexMinMax {
            table,
            column,
            func,
            ..
        } => {
            let before = out.len();
            check_single_unfiltered_aggregate(q, table, "IndexMinMax", context, out);
            match q.projections.as_slice() {
                [Projection::Aggregate {
                    func: qf,
                    arg: Some(BoundExpr::Column(cr)),
                    ..
                }] if qf == func
                    && (*qf == AggFunc::Min || *qf == AggFunc::Max)
                    && cr.table == 0
                    && cr.column == *column => {}
                _ => out.push(unsound(
                    context,
                    "IndexMinMax answers a query whose single projection is not \
                     MIN/MAX of the walked column",
                )),
            }
            // A float extreme is sound only when SQL comparison and the
            // storage total order provably coincide on the column, i.e.
            // when the monotone catalog bounds certify it NaN-free
            // (TRAC026). A NaN-possible float column gets a precise
            // TRAC021 instead of the old blanket exclusion.
            let mut float_note = None;
            match table.schema.columns.get(*column) {
                None => out.push(unsound(
                    context,
                    format!("IndexMinMax walks column #{column}, which does not exist"),
                )),
                Some(c) if c.ty == DataType::Float => {
                    if txn
                        .table_stats(table.id)
                        .column(*column)
                        .is_none_or(ColumnStats::proves_nan_free)
                    {
                        float_note = Some(Diagnostic::new(
                            FLOAT_TOTAL_ORDER,
                            context,
                            format!(
                                "float column `{}` is stats-proven NaN-free, so the \
                                 index total order and SQL comparison coincide: \
                                 IndexMinMax admissible",
                                c.name
                            ),
                        ));
                    } else {
                        out.push(unsound(
                            context,
                            format!(
                                "IndexMinMax walks float column `{}` whose catalog \
                                 bounds admit NaN: the index total order (NaN sorts \
                                 as an extreme) and SQL comparison (NaN incomparable) \
                                 can disagree on the reported extreme",
                                c.name
                            ),
                        ));
                    }
                }
                Some(_) => {}
            }
            if !txn.has_index(table.id, *column) {
                out.push(unsound(
                    context,
                    format!(
                        "IndexMinMax walks `{}` column #{column}, which has no index",
                        table.schema.name
                    ),
                ));
            }
            if out.len() == before {
                out.extend(float_note);
                certified.push(format!(
                    "{} via the `{}` index",
                    if *func == AggFunc::Min {
                        "IndexMinMax(MIN)"
                    } else {
                        "IndexMinMax(MAX)"
                    },
                    table.schema.name
                ));
            }
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
            let before = out.len();
            check_top_n(
                txn, q, table, *pos, *column, *desc, *n, filter, context, out,
            );
            if out.len() == before {
                certified.push(format!(
                    "TopNIndex({n}) walking the `{}` index",
                    table.schema.name
                ));
            }
        }
        PlanNode::IndexLookup {
            table,
            pos,
            column,
            keys,
            ..
        } if keys.len() > 1 => {
            let before = out.len();
            if !txn.has_index(table.id, *column) {
                out.push(unsound(
                    context,
                    format!(
                        "IN-list probe of `{}` column #{column}, which has no index",
                        table.schema.name
                    ),
                ));
            }
            // The probe keys must re-derive from some WHERE conjunct
            // over exactly this column (`col IN (lits)` or `col = lit`);
            // invented or widened key sets would change results.
            let derivable = where_conjuncts(q).iter().any(|c| {
                probe_candidate(c, *pos, &table.schema).is_some_and(|(col, mut ks)| {
                    ks.sort();
                    ks.dedup();
                    col == *column && ks == *keys
                })
            });
            if !derivable {
                out.push(unsound(
                    context,
                    format!(
                        "IN-list probe of `{}` uses {} keys derivable from no WHERE \
                         conjunct",
                        table.schema.name,
                        keys.len()
                    ),
                ));
            }
            if out.len() == before {
                certified.push(format!(
                    "IN-list probe of `{}` ({} keys)",
                    table.schema.name,
                    keys.len()
                ));
            }
        }
        _ => {}
    }
    for child in node.children() {
        walk(txn, q, child, context, certified, out);
    }
}

/// Side conditions shared by both aggregate shortcuts: a single-table
/// query over the claimed table, no conjunct left to enforce, and no
/// group shaping the one-row answer would have to honor (`LIMIT n >= 1`
/// is a no-op on one row; `LIMIT 0` is not).
fn check_single_unfiltered_aggregate(
    q: &BoundSelect,
    table: &BoundTable,
    op: &str,
    context: &str,
    out: &mut Vec<Diagnostic>,
) {
    match q.tables.as_slice() {
        [bt] if bt.id == table.id => {}
        [_] => out.push(unsound(
            context,
            format!(
                "{op} reads `{}`, but the query binds a different table",
                table.schema.name
            ),
        )),
        ts => out.push(unsound(
            context,
            format!(
                "{op} answers a single-table query, but the query binds {} tables",
                ts.len()
            ),
        )),
    }
    for c in where_conjuncts(q) {
        if c.references().is_empty() && eval_predicate(c, &[]) == Ok(Truth::True) {
            continue; // A constant-true conjunct filters nothing.
        }
        out.push(unsound(
            context,
            format!("{op} skips the scan although a WHERE conjunct needs enforcing"),
        ));
        break;
    }
    if !q.group_by.is_empty()
        || q.having.is_some()
        || q.distinct
        || !q.order_by.is_empty()
        || q.limit == Some(0)
    {
        out.push(unsound(
            context,
            format!("{op} ignores the query's group-shaping clauses"),
        ));
    }
}

/// `TopNIndex` side conditions: the walk must reproduce exactly the
/// query's `ORDER BY col [DESC] LIMIT n` over an indexed NOT NULL
/// column, enforcing the full residual filter along the way.
#[allow(clippy::too_many_arguments)]
fn check_top_n(
    txn: &ReadTxn,
    q: &BoundSelect,
    table: &BoundTable,
    pos: usize,
    column: usize,
    desc: bool,
    n: u64,
    filter: &[BoundExpr],
    context: &str,
    out: &mut Vec<Diagnostic>,
) {
    if q.tables.len() != 1 || pos != 0 || q.tables[0].id != table.id {
        out.push(unsound(
            context,
            "TopNIndex answers a query that is not single-table over the walked table",
        ));
    }
    if q.is_aggregate() || q.distinct {
        out.push(unsound(
            context,
            "TopNIndex feeds an aggregating or deduplicating query: the early \
             stop would drop contributing rows",
        ));
    }
    if q.limit != Some(n) || n == 0 {
        out.push(unsound(
            context,
            format!(
                "TopNIndex stops after {n} rows, the query's LIMIT says {:?}",
                q.limit
            ),
        ));
    }
    let want = [(BoundExpr::Column(ColRef { table: pos, column }), desc)];
    if q.order_by != want {
        out.push(unsound(
            context,
            "TopNIndex walk order differs from the query's ORDER BY",
        ));
    }
    match table.schema.columns.get(column) {
        None => out.push(unsound(
            context,
            format!("TopNIndex walks column #{column}, which does not exist"),
        )),
        Some(c) if c.nullable => out.push(unsound(
            context,
            format!(
                "TopNIndex walks nullable column `{}`: the index stores no NULL \
                 keys, so the walk would drop rows a real sort keeps",
                c.name
            ),
        )),
        Some(_) => {}
    }
    if !txn.has_index(table.id, column) {
        out.push(unsound(
            context,
            format!(
                "TopNIndex walks `{}` column #{column}, which has no index",
                table.schema.name
            ),
        ));
    }
    // The walk's residual filter must cover every WHERE conjunct that
    // needs enforcing: the early stop counts *surviving* rows, so a
    // conjunct enforced anywhere later would make it stop too early.
    for c in where_conjuncts(q) {
        if c.references().is_empty() && eval_predicate(c, &[]) == Ok(Truth::True) {
            continue;
        }
        if !filter.contains(c) {
            out.push(unsound(
                context,
                "TopNIndex does not enforce every WHERE conjunct during the walk",
            ));
            break;
        }
    }
    // Byte-identity needs the replaced pipeline to read in slot order:
    // the walk's tie order within one key is insertion (slot) order,
    // exactly the stable sort's tie order over a slot-order scan. If
    // the cost model would feed the general plan by an index probe,
    // rows stream in *key* order instead and sort ties could resolve
    // differently.
    if let AccessPath::IndexProbe { column: pc, keys } = choose_access_path(
        txn,
        table,
        &txn.table_stats(table.id),
        pos,
        filter,
        ExecOptions::default(),
    ) {
        out.push(unsound(
            context,
            format!(
                "TopNIndex replaces a pipeline the cost model would feed by an index \
                 probe (col#{pc}, {} keys) in key order, not slot order: stable-sort \
                 ties could resolve differently than the walk's posting order",
                keys.len()
            ),
        ));
    }
}

/// The bound WHERE clause as a conjunct list (empty when absent).
fn where_conjuncts(q: &BoundSelect) -> Vec<&BoundExpr> {
    let mut conjuncts = Vec::new();
    if let Some(p) = &q.predicate {
        split_and(p, &mut conjuncts);
    }
    conjuncts
}

fn unsound(context: &str, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(FASTPATH_UNSOUND, context, message)
}

/// Runs the pass over the production plans `analyze_sql` lowers: the
/// user query's own plan and every recency subquery's stored pair.
pub fn run(
    txn: &ReadTxn,
    q: &BoundSelect,
    user_plan: &PhysicalPlan,
    plan: &trac_core::RecencyPlan,
    label: &str,
) -> Vec<Diagnostic> {
    let mut out = check_plan(txn, q, user_plan, label);
    for (i, sub) in plan.subqueries.iter().enumerate() {
        let (Some(subq), Some(subplan)) = (&sub.query, &sub.plan) else {
            continue;
        };
        let context = format!("{label} subquery #{i} (via {})", sub.via_relation);
        out.extend(check_plan(txn, subq, subplan, &context));
    }
    out
}
