//! Lowering a bound `SELECT` into a physical plan.
//!
//! The lowering mirrors the original monolithic executor pipeline so
//! that results (and plan shapes) stay byte-identical: constant
//! conjuncts prune up front, tables join left-to-right in FROM order
//! with per-table access-path selection, and the query's shaping
//! clauses (`GROUP BY`/`HAVING`/`ORDER BY`/`DISTINCT`/`LIMIT`) stack on
//! top of the join tree.
//!
//! Two statistics-driven refinements sit on top of that skeleton:
//!
//! * **Fast paths** (`opts.fast_paths`, on by default): single-table
//!   query shapes with a provably equivalent shortcut lower to
//!   dedicated operators — [`PlanNode::CountStar`],
//!   [`PlanNode::IndexMinMax`] and [`PlanNode::TopNIndex`] — instead of
//!   the general pipeline. Each shortcut's side conditions are checked
//!   here and re-derived independently by the analyzer's fast-path
//!   soundness pass.
//! * **Cost-based join order** (`opts.cost_based_join_order`, off by
//!   default): a greedy order by estimated intermediate size replaces
//!   FROM order. Off by default because FROM-order plans also pin the
//!   output *row order* of unsorted queries; the recency planner opts
//!   in for its generated subqueries, whose output order is defined by
//!   an explicit sort.
//!
//! One semantic rule needs no statistics: in a `DISTINCT`, non-aggregate
//! query, the tables no projection or `ORDER BY` key reads, even through
//! a chain of join conjuncts, only have to hold one matching tuple. They
//! join first, under a [`PlanNode::Exists`] that stops at that tuple.

use crate::access::{choose_access_path, AccessPath, ExecOptions};
use crate::cost::{join_rows, TableCost};
use crate::ir::{PhysicalPlan, PlanNode};
use std::collections::BTreeSet;
use std::mem::take;
use trac_expr::bound::AggFunc;
use trac_expr::{
    eval_predicate, BoundExpr, BoundSelect, BoundTable, ColRef, KernelCert, LaneCert, Projection,
    Truth,
};
use trac_sql::BinaryOp;
use trac_storage::{ColumnStats, ReadTxn, TableStats};
use trac_types::{DataType, Result};

/// Splits nested `AND`s into a conjunct list borrowed from `e`.
pub fn split_and<'a>(e: &'a BoundExpr, out: &mut Vec<&'a BoundExpr>) {
    match e {
        BoundExpr::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } => {
            split_and(lhs, out);
            split_and(rhs, out);
        }
        other => out.push(other),
    }
}

/// If `c` is `pos.col = other.col` with `other` already joined, returns
/// `(pos column, outer column ref)`.
pub fn equi_key(c: &BoundExpr, pos: usize, joined: &BTreeSet<usize>) -> Option<(usize, ColRef)> {
    let BoundExpr::Binary {
        op: BinaryOp::Eq,
        lhs,
        rhs,
    } = c
    else {
        return None;
    };
    match (lhs.as_ref(), rhs.as_ref()) {
        (BoundExpr::Column(a), BoundExpr::Column(b)) => {
            if a.table == pos && joined.contains(&b.table) {
                Some((a.column, *b))
            } else if b.table == pos && joined.contains(&a.table) {
                Some((b.column, *a))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Builds the access leaf for one table, with statistics-based row and
/// cost estimates.
fn make_leaf(
    bt: &BoundTable,
    pos: usize,
    access: AccessPath,
    filter: Vec<BoundExpr>,
    tc: &TableCost,
) -> PlanNode {
    let filtered = tc.filtered_rows(&filter, pos);
    match access {
        AccessPath::SeqScan => PlanNode::Scan {
            table: bt.clone(),
            pos,
            filter,
            est_rows: filtered,
            cost: tc.seq_cost(),
        },
        AccessPath::IndexProbe { column, keys } => {
            let matched = tc.probe_rows(column, keys.len());
            PlanNode::IndexLookup {
                table: bt.clone(),
                pos,
                column,
                keys,
                filter,
                est_rows: filtered.min(matched),
                cost: matched.max(1),
            }
        }
    }
}

/// Derives the typed-kernel certificate for every lane of `q`'s FROM
/// tables from the schema and the write-time catalog statistics:
///
/// * `ty` — the declared column type; mono-typed by construction, since
///   write-time coercion widens every stored value to it.
/// * `non_null` — declared `NOT NULL`, or a write-time null count of
///   zero (the counter only increments, so zero proves no NULL was ever
///   inserted).
/// * `nan_free` — trivially true for non-floats; for floats, proven by
///   NaN-free catalog min/max bounds (the storage total order forces
///   any inserted NaN into one of the bounds, which never shrink).
///
/// Missing statistics mean the table never saw an insert, so both stats
/// proofs hold vacuously. The analyzer's typeflow pass re-derives all
/// of this and reports `TRAC023` for any claim it cannot prove.
fn compute_kernel_cert(q: &BoundSelect, costs: &[TableCost]) -> KernelCert {
    let mut cert = KernelCert::default();
    for ((pos, bt), tc) in q.tables.iter().enumerate().zip(costs) {
        let stats = tc.stats;
        for (col, def) in bt.schema.columns.iter().enumerate() {
            let cs = stats.column(col);
            cert.insert(
                pos,
                col,
                LaneCert {
                    ty: def.ty,
                    non_null: !def.nullable || cs.is_none_or(ColumnStats::proves_non_null),
                    nan_free: def.ty != DataType::Float
                        || cs.is_none_or(ColumnStats::proves_nan_free),
                },
            );
        }
    }
    cert
}

/// True when SQL comparison (`sql_cmp`, NaN incomparable) and the
/// index's storage total order (`total_cmp`) agree on `column`: any
/// non-float type, or a float column whose catalog statistics prove it
/// NaN-free (TRAC026) — without NaNs the two orders coincide.
fn index_order_is_sql_order(bt: &BoundTable, stats: &TableStats, column: usize) -> bool {
    bt.schema.column(column).ty != DataType::Float
        || stats
            .column(column)
            .is_none_or(ColumnStats::proves_nan_free)
}

/// Tries to lower `q` to a certified fast-path plan. Only single-table
/// queries qualify; every side condition checked here is re-derived by
/// the analyzer's fast-path soundness pass (TRAC021/TRAC022).
fn try_fast_path(
    txn: &ReadTxn,
    q: &BoundSelect,
    pending: &[BoundExpr],
    tc: &TableCost,
    opts: ExecOptions,
) -> Option<PhysicalPlan> {
    let [bt] = q.tables.as_slice() else {
        return None;
    };
    // Aggregate shortcuts: one global group, nothing filtered, nothing
    // shaped — the storage layer can answer directly.
    let unshaped = q.group_by.is_empty()
        && q.having.is_none()
        && !q.distinct
        && q.order_by.is_empty()
        && q.limit != Some(0);
    if unshaped && pending.is_empty() {
        if let [Projection::Aggregate { func, arg, name }] = q.projections.as_slice() {
            match (func, arg) {
                // COUNT(*): the MVCC-visible row counter is the answer.
                (AggFunc::Count, None) => {
                    return Some(PhysicalPlan {
                        root: PlanNode::CountStar {
                            table: bt.clone(),
                            name: name.clone(),
                            est_rows: tc.rows,
                            cost: 1,
                        },
                        columns: q.output_names(),
                        cert: KernelCert::default(),
                    });
                }
                // MIN/MAX(col) over an indexed column whose index order
                // agrees with SQL comparison: any non-float column, or
                // a float column the catalog statistics prove NaN-free
                // (TRAC026). Both orders skip NULLs, so nullable
                // columns are fine here.
                (AggFunc::Min | AggFunc::Max, Some(BoundExpr::Column(cr)))
                    if cr.table == 0
                        && txn.has_index(bt.id, cr.column)
                        && index_order_is_sql_order(bt, tc.stats, cr.column) =>
                {
                    return Some(PhysicalPlan {
                        root: PlanNode::IndexMinMax {
                            table: bt.clone(),
                            column: cr.column,
                            func: *func,
                            name: name.clone(),
                            est_rows: 1,
                            cost: 1,
                        },
                        columns: q.output_names(),
                        cert: KernelCert::default(),
                    });
                }
                _ => {}
            }
        }
    }
    // Top-N shortcut: `ORDER BY col [DESC] LIMIT n` over an indexed
    // column replaces the full Sort with an early-stopping ordered
    // index walk. The column must be declared NOT NULL — the index
    // never stores NULL keys, so a nullable column would drop rows the
    // real sort keeps. (The guarantee comes from the schema, never from
    // the mutable statistics.) Byte-identity additionally needs the
    // replaced pipeline to read in slot order: index postings within
    // one key are in insertion (slot) order, exactly the stable sort's
    // tie order over a slot-order scan — but a general plan that would
    // *probe* an index streams rows in key order, so ties could resolve
    // differently. Decline the walk whenever the cost model would pick
    // a probe (which is then also the cheaper general plan).
    if !q.is_aggregate() && !q.distinct {
        if let (Some(n), [(BoundExpr::Column(cr), desc)]) = (q.limit, q.order_by.as_slice()) {
            if n >= 1
                && cr.table == 0
                && txn.has_index(bt.id, cr.column)
                && !bt.schema.column(cr.column).nullable
                && matches!(
                    choose_access_path(txn, bt, tc.stats, 0, pending, opts),
                    AccessPath::SeqScan
                )
            {
                let filter = pending.to_vec();
                let filtered = tc.filtered_rows(&filter, 0);
                let est_rows = filtered.min(n);
                // Expected walk depth: n survivors at the filter's
                // selectivity, capped by the table size.
                let cost = n
                    .saturating_mul(tc.rows)
                    .checked_div(filtered)
                    .map_or(tc.seq_cost(), |c| c.clamp(1, tc.seq_cost()));
                let root = PlanNode::TopNIndex {
                    table: bt.clone(),
                    pos: 0,
                    column: cr.column,
                    desc: *desc,
                    n,
                    filter,
                    est_rows,
                    cost,
                };
                let root = PlanNode::Project {
                    input: Box::new(root),
                    projections: q.projections.clone(),
                };
                return Some(PhysicalPlan {
                    root: PlanNode::Limit {
                        input: Box::new(root),
                        n,
                    },
                    columns: q.output_names(),
                    cert: KernelCert::default(),
                });
            }
        }
    }
    None
}

/// Greedy cost-based join order: repeatedly attach the table minimizing
/// the estimated intermediate result (equi-joins divide by key NDV,
/// cross joins multiply), starting from the smallest estimated filtered
/// table. The `exists` tables come first; their `Exists` emits one
/// tuple, so the rest start again from one row. Ties break toward FROM
/// order.
fn greedy_order(
    pending: &[BoundExpr],
    costs: &[TableCost],
    table_conjuncts: &[Vec<BoundExpr>],
    exists: &BTreeSet<usize>,
) -> Vec<usize> {
    let n = costs.len();
    let filtered: Vec<u64> = (0..n)
        .map(|pos| costs[pos].filtered_rows(&table_conjuncts[pos], pos))
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut joined = BTreeSet::new();
    let mut cur_est = 1;
    while order.len() < n {
        if order.len() == exists.len() {
            cur_est = 1;
        }
        let in_phase = |pos: &usize| exists.contains(pos) == (order.len() < exists.len());
        let mut best: Option<(u64, usize)> = None;
        for pos in (0..n).filter(|pos| !joined.contains(pos) && in_phase(pos)) {
            let key_ndv = pending.iter().find_map(|c| equi_key(c, pos, &joined)).map(
                |(inner_col, outer_key)| {
                    costs[pos]
                        .ndv(inner_col)
                        .max(costs[outer_key.table].ndv(outer_key.column))
                },
            );
            let est = join_rows(cur_est, filtered[pos], key_ndv);
            if best.is_none_or(|(b, _)| est < b) {
                best = Some((est, pos));
            }
        }
        let (est, pos) = best.expect("candidate remains");
        cur_est = est;
        joined.insert(pos);
        order.push(pos);
    }
    order
}

/// The FROM positions whose rows a `DISTINCT`, non-aggregate query only
/// needs to exist: no chain of multi-table conjuncts links them to a
/// table a projection or `ORDER BY` key reads. Any one witness tuple of
/// their join yields the same distinct output as all of them, so the
/// lowering joins them first under one [`PlanNode::Exists`].
fn existence_only(q: &BoundSelect, conjuncts: &[BoundExpr]) -> BTreeSet<usize> {
    if !q.distinct || q.is_aggregate() {
        return BTreeSet::new();
    }
    let mut read: BTreeSet<usize> = q
        .projections
        .iter()
        .filter_map(|p| match p {
            Projection::Scalar { expr, .. } => Some(expr),
            Projection::Aggregate { .. } => None,
        })
        .chain(q.order_by.iter().map(|(e, _)| e))
        .flat_map(BoundExpr::tables)
        .collect();
    let links: Vec<BTreeSet<usize>> = conjuncts
        .iter()
        .map(BoundExpr::tables)
        .filter(|t| t.len() > 1)
        .collect();
    while let Some(t) = links
        .iter()
        .find(|t| !t.is_disjoint(&read) && !t.is_subset(&read))
    {
        read.extend(t);
    }
    (0..q.tables.len()).filter(|p| !read.contains(p)).collect()
}

/// Lowers a bound `SELECT` into a physical plan against `txn`'s
/// snapshot. The plan is deterministic given the query, the options and
/// the catalog (which indexes exist), and does not depend on
/// `opts.threads` or `opts.batch_size`; row-count and cost estimates
/// additionally reflect the catalog's write-time statistics.
pub fn plan_select(txn: &ReadTxn, q: &BoundSelect, opts: ExecOptions) -> Result<PhysicalPlan> {
    // 1. Split the predicate into top-level conjuncts.
    let mut conjuncts = Vec::new();
    if let Some(p) = &q.predicate {
        split_and(p, &mut conjuncts);
    }
    // 2. Constant conjuncts decide emptiness up front.
    // Each remaining conjunct's tables are collected once, here, for
    // the splits below.
    let mut remaining: Vec<BoundExpr> = Vec::new();
    let mut conj_tables: Vec<BTreeSet<usize>> = Vec::new();
    let mut trivially_empty = false;
    for c in conjuncts {
        let tables = c.tables();
        if tables.is_empty() {
            if eval_predicate(c, &[])? != Truth::True {
                trivially_empty = true;
            }
        } else {
            remaining.push(c.clone());
            conj_tables.push(tables);
        }
    }
    // Per-table statistics, read (and copied out of the catalog) once
    // per lowering, drive every estimate and certificate below.
    let stats: Vec<TableStats> = q.tables.iter().map(|bt| txn.table_stats(bt.id)).collect();
    let costs: Vec<TableCost> = stats.iter().map(TableCost::new).collect();
    // Typeflow kernel certificate: derived once per plan so the knob
    // changes the lowered artifact (plan caches must key on it).
    let cert = if opts.typed_kernels {
        compute_kernel_cert(q, &costs)
    } else {
        KernelCert::default()
    };
    // 3. Fast paths: single-table shapes with a certified shortcut skip
    // the general pipeline entirely.
    if opts.fast_paths && !trivially_empty {
        if let Some(first) = costs.first() {
            if let Some(mut plan) = try_fast_path(txn, q, &remaining, first, opts) {
                plan.cert = cert;
                return Ok(plan);
            }
        }
    }
    // 4. Join order: FROM order by default; greedy by estimated
    // intermediate size when the cost-based knob is on. Either way the
    // existence-only tables join first, under one `Exists`. The
    // executor runs reordered and `Exists` plans serially (its morsel
    // route needs the FROM-order driving leaf); its joins write each
    // table's rows at that table's own tuple slot.
    let mut table_conjuncts: Vec<Vec<BoundExpr>> = (0..q.tables.len())
        .map(|pos| {
            (remaining.iter().zip(&conj_tables))
                .filter(|(_, t)| t.len() == 1 && t.contains(&pos))
                .map(|(c, _)| c.clone())
                .collect()
        })
        .collect();
    let exists = existence_only(q, &remaining);
    let order: Vec<usize> = if opts.cost_based_join_order && q.tables.len() > 1 && !trivially_empty
    {
        greedy_order(&remaining, &costs, &table_conjuncts, &exists)
    } else {
        let mut order: Vec<usize> = (0..q.tables.len()).collect();
        order.sort_by_key(|pos| !exists.contains(pos));
        order
    };
    let mut pending: Vec<Option<BoundExpr>> = remaining.into_iter().map(Some).collect();
    let mut root = if trivially_empty {
        PlanNode::Empty {
            bindings: q.tables.iter().map(|t| t.binding.clone()).collect(),
        }
    } else {
        // 5. Join tables in the chosen order, building a left-deep tree;
        // once the existence-only tables have joined, wrap them.
        let wrap = |node: PlanNode, joined: usize| {
            if joined == exists.len() {
                PlanNode::Exists {
                    input: Box::new(node),
                }
            } else {
                node
            }
        };
        let mut joined: BTreeSet<usize> = BTreeSet::new();
        let mut tree: Option<PlanNode> = None;
        let mut tree_cost: u64 = 0;
        for &pos in &order {
            let bt = &q.tables[pos];
            let tc = &costs[pos];
            // Conjuncts that become applicable once `pos` joins.
            let mut applicable: Vec<BoundExpr> = Vec::new();
            for (slot, tables) in pending.iter_mut().zip(&conj_tables) {
                if let Some(c) = slot.take() {
                    let ready = tables.iter().all(|t| *t == pos || joined.contains(t));
                    if ready {
                        applicable.push(c);
                    } else {
                        *slot = Some(c);
                    }
                }
            }
            // Pick an equi-join conjunct usable as a key: pos.col =
            // joined.col over two non-FLOAT columns of one declared
            // type. Keyed joins match on `Value` identity, which ranks
            // `Int(2)` and `Float(2.0)` apart, and `0.0` and `-0.0`,
            // although SQL's `=` equates both pairs, so such a key
            // lowers to `NLJoin` instead (the rule index probes follow,
            // see `probe_candidate`).
            let equi = applicable.iter().find_map(|c| {
                equi_key(c, pos, &joined).filter(|(inner_col, outer_key)| {
                    let ty = bt.schema.column(*inner_col).ty;
                    ty != DataType::Float
                        && ty == q.tables[outer_key.table].schema.column(outer_key.column).ty
                })
            });
            let access = choose_access_path(txn, bt, tc.stats, pos, &table_conjuncts[pos], opts);
            joined.insert(pos);
            let Some(outer) = tree else {
                // First table: the leaf is the tree. `applicable` here is
                // exactly the single-table conjuncts, already in the leaf.
                let leaf = make_leaf(bt, pos, access, take(&mut table_conjuncts[pos]), tc);
                tree_cost = leaf.est_cost().unwrap_or(1);
                tree = Some(wrap(leaf, joined.len()));
                continue;
            };
            let outer_est = outer.est_rows().unwrap_or(0);
            let index_nl = equi.filter(|(inner_col, _)| {
                opts.enable_index_scan
                    && matches!(access, AccessPath::SeqScan)
                    && txn.has_index(bt.id, *inner_col)
            });
            let node = if let Some((inner_col, outer_key)) = index_nl {
                let est_rows = join_rows(outer_est, tc.rows, Some(tc.ndv(inner_col)));
                let cost = tree_cost.saturating_add(outer_est).saturating_add(est_rows);
                tree_cost = cost;
                PlanNode::IndexNLJoin {
                    outer: Box::new(outer),
                    table: bt.clone(),
                    pos,
                    inner_col,
                    outer_key,
                    filter: applicable,
                    est_rows,
                    cost,
                }
            } else {
                // The inner leaf already applies `pos`'s own conjuncts.
                applicable.retain(|c| c.tables().len() > 1);
                let join_filter = applicable;
                let inner = make_leaf(bt, pos, access, take(&mut table_conjuncts[pos]), tc);
                let inner_est = inner.est_rows().unwrap_or(0);
                let inner_cost = inner.est_cost().unwrap_or(1);
                if let Some((inner_col, outer_key)) = equi.filter(|_| opts.enable_hash_join) {
                    let key_ndv = tc
                        .ndv(inner_col)
                        .max(costs[outer_key.table].ndv(outer_key.column));
                    let est_rows = join_rows(outer_est, inner_est, Some(key_ndv));
                    let cost = tree_cost
                        .saturating_add(inner_cost)
                        .saturating_add(outer_est)
                        .saturating_add(est_rows);
                    tree_cost = cost;
                    PlanNode::HashJoin {
                        outer: Box::new(outer),
                        inner: Box::new(inner),
                        inner_col,
                        outer_key,
                        filter: join_filter,
                        est_rows,
                        cost,
                    }
                } else {
                    let est_rows = join_rows(outer_est, inner_est, None);
                    let cost = tree_cost
                        .saturating_add(inner_cost)
                        .saturating_add(est_rows);
                    tree_cost = cost;
                    PlanNode::NLJoin {
                        outer: Box::new(outer),
                        inner: Box::new(inner),
                        filter: join_filter,
                        est_rows,
                        cost,
                    }
                }
            };
            tree = Some(wrap(node, joined.len()));
        }
        tree.unwrap_or(PlanNode::Empty {
            bindings: Vec::new(),
        })
    };
    // 6. Leftover conjuncts (defensive; all should have been applied).
    let leftover: Vec<BoundExpr> = pending.into_iter().flatten().collect();
    if !leftover.is_empty() {
        root = PlanNode::Filter {
            input: Box::new(root),
            predicate: leftover,
        };
    }
    // 7. Shape the output: aggregation absorbs HAVING/ORDER BY/LIMIT
    // (they act on groups); the scalar stack applies them separately.
    let columns = q.output_names();
    let root = if q.is_aggregate() {
        PlanNode::Aggregate {
            input: Box::new(root),
            group_by: q.group_by.clone(),
            projections: q.projections.clone(),
            having: q.having.clone(),
            order_by: q.order_by.clone(),
            limit: q.limit,
        }
    } else {
        if !q.order_by.is_empty() {
            root = PlanNode::Sort {
                input: Box::new(root),
                keys: q.order_by.clone(),
            };
        }
        root = PlanNode::Project {
            input: Box::new(root),
            projections: q.projections.clone(),
        };
        if q.distinct {
            root = PlanNode::Distinct {
                input: Box::new(root),
            };
        }
        if let Some(n) = q.limit {
            root = PlanNode::Limit {
                input: Box::new(root),
                n,
            };
        }
        root
    };
    Ok(PhysicalPlan {
        root,
        columns,
        cert,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trac_expr::bind_select;
    use trac_sql::parse_select;
    use trac_storage::{ColumnDef, Database, TableSchema};
    use trac_types::{DataType, Value};

    fn setup() -> Database {
        let db = Database::new();
        for (name, cols) in [
            ("activity", vec!["mach_id", "value"]),
            ("routing", vec!["mach_id", "neighbor"]),
        ] {
            db.create_table(
                TableSchema::new(
                    name,
                    cols.iter()
                        .map(|c| ColumnDef::new(*c, DataType::Text))
                        .collect(),
                    Some("mach_id"),
                )
                .unwrap(),
            )
            .unwrap();
            db.create_index(name, "mach_id").unwrap();
        }
        let t = db.begin_read().table_id("activity").unwrap();
        db.with_write(|w| {
            w.insert(t, vec![Value::text("m1"), Value::text("idle")])?;
            w.insert(t, vec![Value::text("m2"), Value::text("busy")])
        })
        .unwrap();
        db
    }

    fn plan(db: &Database, sql: &str, opts: ExecOptions) -> PhysicalPlan {
        let txn = db.begin_read();
        let bound = bind_select(&txn, &parse_select(sql).unwrap()).unwrap();
        plan_select(&txn, &bound, opts).unwrap()
    }

    #[test]
    fn single_table_probe_plan() {
        let db = setup();
        let p = plan(
            &db,
            "SELECT value FROM activity WHERE mach_id = 'm1'",
            ExecOptions::default(),
        );
        assert_eq!(p.columns, vec!["value".to_string()]);
        let PlanNode::Project { input, .. } = &p.root else {
            panic!("expected Project root: {:?}", p.root);
        };
        let PlanNode::IndexLookup { keys, est_rows, .. } = input.as_ref() else {
            panic!("expected IndexLookup leaf: {input:?}");
        };
        assert_eq!(keys, &[Value::text("m1")]);
        assert_eq!(*est_rows, 1);
        assert_eq!(p.table_steps()[0].1, "IndexProbe(col#0, 1 keys)");
    }

    #[test]
    fn equi_join_lowers_to_index_nl_join() {
        let db = setup();
        let p = plan(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A WHERE R.neighbor = A.mach_id",
            ExecOptions::default(),
        );
        let PlanNode::Project { input, .. } = &p.root else {
            panic!("expected Project root");
        };
        assert!(
            matches!(input.as_ref(), PlanNode::IndexNLJoin { .. }),
            "expected IndexNLJoin: {input:?}"
        );
        assert_eq!(p.table_steps()[1].1, "IndexNLJoin(col#0)");
        assert_eq!(p.operator_counts()["IndexNLJoin"], 1);
    }

    #[test]
    fn options_select_join_strategy() {
        let db = setup();
        let sql = "SELECT A.mach_id FROM Routing R, Activity A WHERE R.neighbor = A.mach_id";
        let no_index = ExecOptions {
            enable_index_scan: false,
            enable_hash_join: true,
            ..Default::default()
        };
        let p = plan(&db, sql, no_index);
        assert_eq!(p.operator_counts()["HashJoin"], 1);
        let nested_only = ExecOptions {
            enable_index_scan: false,
            enable_hash_join: false,
            ..Default::default()
        };
        let p = plan(&db, sql, nested_only);
        assert_eq!(p.operator_counts()["NLJoin"], 1);
        // The join conjunct rides on the join node either way.
        let PlanNode::Project { input, .. } = &p.root else {
            panic!("expected Project root");
        };
        let PlanNode::NLJoin { filter, .. } = input.as_ref() else {
            panic!("expected NLJoin: {input:?}");
        };
        assert_eq!(filter.len(), 1);
    }

    #[test]
    fn mixed_type_equi_keys_lower_to_nested_loops() {
        let db = Database::new();
        for (name, ty) in [
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Int),
        ] {
            db.create_table(
                TableSchema::new(
                    name,
                    vec![ColumnDef::new("s", DataType::Text), ColumnDef::new("k", ty)],
                    Some("s"),
                )
                .unwrap(),
            )
            .unwrap();
            db.create_index(name, "k").unwrap();
        }
        let no_index = ExecOptions {
            enable_index_scan: false,
            ..Default::default()
        };
        for opts in [ExecOptions::default(), no_index] {
            // INT = FLOAT: no hash or index key, whatever the options.
            let p = plan(&db, "SELECT a.s FROM a, b WHERE a.k = b.k", opts);
            assert_eq!(p.operator_counts()["NLJoin"], 1, "{opts:?}");
            // A same-typed conjunct beside it still keys the join.
            let p = plan(
                &db,
                "SELECT a.s FROM a, c WHERE a.s = c.k AND a.k = c.k",
                opts,
            );
            assert!(!p.operator_counts().contains_key("NLJoin"), "{opts:?}");
        }
    }

    #[test]
    fn constant_false_lowers_to_empty() {
        let db = setup();
        let p = plan(
            &db,
            "SELECT mach_id FROM activity WHERE 1 = 2",
            ExecOptions::default(),
        );
        assert_eq!(
            p.table_steps(),
            vec![("activity".to_string(), "pruned (empty input)".to_string())]
        );
    }

    #[test]
    fn shaping_stack_order() {
        let db = setup();
        let p = plan(
            &db,
            "SELECT DISTINCT value FROM activity ORDER BY value LIMIT 3",
            ExecOptions::default(),
        );
        // Limit(Distinct(Project(Sort(Scan)))) — DISTINCT before LIMIT.
        let PlanNode::Limit { input, n: 3 } = &p.root else {
            panic!("expected Limit root: {:?}", p.root);
        };
        let PlanNode::Distinct { input } = input.as_ref() else {
            panic!("expected Distinct");
        };
        let PlanNode::Project { input, .. } = input.as_ref() else {
            panic!("expected Project");
        };
        assert!(matches!(input.as_ref(), PlanNode::Sort { .. }));
        let rendered = p.render();
        assert!(rendered.starts_with("Limit (3)"), "{rendered}");
        assert!(rendered.contains("est 2 rows"), "{rendered}");
    }

    #[test]
    fn aggregates_absorb_group_shaping() {
        let db = setup();
        let p = plan(
            &db,
            "SELECT value, COUNT(*) AS n FROM activity GROUP BY value \
             HAVING COUNT(*) > 0 ORDER BY value LIMIT 5",
            ExecOptions::default(),
        );
        let PlanNode::Aggregate {
            group_by,
            having,
            limit,
            ..
        } = &p.root
        else {
            panic!("expected Aggregate root: {:?}", p.root);
        };
        assert_eq!(group_by.len(), 1);
        assert!(having.is_some());
        assert_eq!(*limit, Some(5));
        assert_eq!(p.operator_counts()["Aggregate"], 1);
    }

    #[test]
    fn count_star_takes_the_fast_path() {
        let db = setup();
        let p = plan(
            &db,
            "SELECT COUNT(*) AS n FROM activity",
            ExecOptions::default(),
        );
        let PlanNode::CountStar { name, est_rows, .. } = &p.root else {
            panic!("expected CountStar root: {:?}", p.root);
        };
        assert_eq!(name, "n");
        assert_eq!(*est_rows, 2);
        assert_eq!(p.table_steps()[0].1, "CountStar fast path");
        assert!(p.render().contains("[fast-path: storage row count]"));
        // Any disqualifier falls back to the general Aggregate pipeline:
        // a predicate, a second table, or the knob being off.
        let p = plan(
            &db,
            "SELECT COUNT(*) AS n FROM activity WHERE value = 'idle'",
            ExecOptions::default(),
        );
        assert!(matches!(p.root, PlanNode::Aggregate { .. }));
        let p = plan(
            &db,
            "SELECT COUNT(*) AS n FROM activity, routing",
            ExecOptions::default(),
        );
        assert!(matches!(p.root, PlanNode::Aggregate { .. }));
        let off = ExecOptions {
            fast_paths: false,
            ..Default::default()
        };
        let p = plan(&db, "SELECT COUNT(*) AS n FROM activity", off);
        assert!(matches!(p.root, PlanNode::Aggregate { .. }));
    }

    #[test]
    fn min_max_fast_path_requires_an_index() {
        let db = setup();
        let p = plan(
            &db,
            "SELECT MIN(mach_id) AS lo FROM activity",
            ExecOptions::default(),
        );
        let PlanNode::IndexMinMax {
            column: 0, func, ..
        } = &p.root
        else {
            panic!("expected IndexMinMax root: {:?}", p.root);
        };
        assert_eq!(*func, AggFunc::Min);
        assert!(p.render().contains("[fast-path: ordered index probe]"));
        // `value` has no index: general pipeline.
        let p = plan(
            &db,
            "SELECT MAX(value) AS hi FROM activity",
            ExecOptions::default(),
        );
        assert!(matches!(p.root, PlanNode::Aggregate { .. }));
    }

    #[test]
    fn min_max_fast_path_admits_nan_free_floats() {
        let db = setup();
        db.create_table(
            TableSchema::new(
                "m",
                vec![
                    ColumnDef::new("sid", DataType::Text),
                    ColumnDef::new("temp", DataType::Float).nullable(),
                ],
                Some("sid"),
            )
            .unwrap(),
        )
        .unwrap();
        db.create_index("m", "temp").unwrap();
        let tid = db.begin_read().table_id("m").unwrap();
        db.with_write(|w| {
            w.insert(tid, vec![Value::text("s1"), Value::Float(2.5)])?;
            w.insert(tid, vec![Value::text("s2"), Value::Float(-1.0)])
        })
        .unwrap();
        // Stats prove the float lane NaN-free: TRAC026 admits the walk.
        let sql = "SELECT MIN(temp) AS lo FROM m";
        let p = plan(&db, sql, ExecOptions::default());
        assert!(
            matches!(p.root, PlanNode::IndexMinMax { .. }),
            "expected IndexMinMax for NaN-free float: {:?}",
            p.root
        );
        // A NaN insert poisons the proof permanently: general pipeline.
        db.with_write(|w| w.insert(tid, vec![Value::text("s3"), Value::Float(f64::NAN)]))
            .unwrap();
        let p = plan(&db, sql, ExecOptions::default());
        assert!(
            matches!(p.root, PlanNode::Aggregate { .. }),
            "expected Aggregate once NaN observed: {:?}",
            p.root
        );
    }

    #[test]
    fn lowering_attaches_kernel_certificates() {
        let db = setup();
        let sql = "SELECT value FROM activity WHERE mach_id = 'm1'";
        let p = plan(&db, sql, ExecOptions::default());
        // Both TEXT lanes of `activity` are certified; the schema
        // declares them NOT NULL, so no null bitmap is needed.
        let lane = p.cert.get(0, 0).expect("lane (0,0) certified");
        assert_eq!(lane.ty, DataType::Text);
        assert!(lane.non_null && lane.nan_free);
        assert_eq!(p.cert.len(), 2);
        assert!(
            p.render().contains("[typed:text,text]"),
            "missing EXPLAIN marker: {}",
            p.render()
        );
        // The knob strips the certificate (boxed reference execution).
        let off = ExecOptions {
            typed_kernels: false,
            ..Default::default()
        };
        let p = plan(&db, sql, off);
        assert!(p.cert.is_empty());
        assert!(!p.render().contains("[typed:"), "{}", p.render());
    }

    #[test]
    fn order_by_limit_takes_the_top_n_index_path() {
        let db = setup();
        let p = plan(
            &db,
            "SELECT value FROM activity WHERE value = 'idle' ORDER BY mach_id DESC LIMIT 1",
            ExecOptions::default(),
        );
        let PlanNode::Limit { input, n: 1 } = &p.root else {
            panic!("expected Limit root: {:?}", p.root);
        };
        let PlanNode::Project { input, .. } = input.as_ref() else {
            panic!("expected Project under Limit");
        };
        let PlanNode::TopNIndex {
            column: 0,
            desc: true,
            n: 1,
            filter,
            ..
        } = input.as_ref()
        else {
            panic!("expected TopNIndex leaf: {input:?}");
        };
        assert_eq!(filter.len(), 1);
        assert!(p.render().contains("[fast-path: ordered index walk]"));
        // Without a LIMIT (or on an unindexed key) the Sort stays.
        let p = plan(
            &db,
            "SELECT value FROM activity ORDER BY mach_id",
            ExecOptions::default(),
        );
        assert_eq!(p.operator_counts()["Sort"], 1);
        let p = plan(
            &db,
            "SELECT value FROM activity ORDER BY value LIMIT 1",
            ExecOptions::default(),
        );
        assert_eq!(p.operator_counts()["Sort"], 1);
    }

    #[test]
    fn cost_based_ordering_starts_from_the_smallest_table() {
        let db = setup();
        // routing is empty, activity has 2 rows; FROM order says
        // activity first, the cost model says routing first.
        let sql = "SELECT A.value FROM Activity A, Routing R WHERE A.mach_id = R.mach_id";
        let p = plan(&db, sql, ExecOptions::default());
        assert_eq!(p.table_steps()[0].0, "A");
        let opts = ExecOptions {
            cost_based_join_order: true,
            ..Default::default()
        };
        let p = plan(&db, sql, opts);
        assert_eq!(p.table_steps()[0].0, "R", "{:?}", p.table_steps());
    }

    #[test]
    fn explain_carries_estimates_and_costs() {
        let db = setup();
        let p = plan(
            &db,
            "SELECT value FROM activity WHERE mach_id = 'm1'",
            ExecOptions::default(),
        );
        let rendered = p.render();
        assert!(
            rendered.contains("(est 1 rows, cost 1)"),
            "missing cost annotation: {rendered}"
        );
    }
}
