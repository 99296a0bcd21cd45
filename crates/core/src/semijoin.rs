//! Semijoin evaluation of multi-relation recency subqueries.
//!
//! A subquery over Heartbeat alone never comes here:
//! [`RecencyPlan::execute_with`](crate::relevance::RecencyPlan::execute_with)
//! runs the plan [`RecencyPlan::build`](crate::relevance::RecencyPlan::build)
//! lowered for it. This module serves the rest, lowering its witness and
//! H-side selects on every call until the plan IR has a semijoin node.
//!
//! Theorem 4's recency expression is
//! `π_{H.c_s} σ_{P_s' ∧ J_s' ∧ P_o}(H × R_1 × … × R_{i-1} × R_{i+1} × … × R_n)`
//! and the paper reads it as "a semijoin between the Heartbeat table and
//! the other relations". Evaluating the expression literally — a cross
//! product filtered then projected — costs |H| × Π|R_j| tuples even when
//! `P_o` merely asks "does an idle Activity row exist?". This module
//! evaluates the same expression in three steps:
//!
//! 1. run the *other relations* part once: the distinct **witness**
//!    tuples of the columns `J_s'` mentions, filtered by `P_o`
//!    (or a bare `LIMIT 1` existence probe when `J_s'` is empty);
//! 2. turn each witness into candidate source ids via the `J_s'`
//!    equalities (`H.sid = R.neighbor` ⇒ candidate = the witness's
//!    neighbor value), falling back to a nested loop for non-equality
//!    join shapes;
//! 3. filter the candidates through `Heartbeat` with `P_s'` applied —
//!    an index probe in the common case.
//!
//! The result is identical to the cross-product evaluation (the unit
//! tests check this against the general executor on small inputs) but
//! linear in |witnesses| + |relevant sources|.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use trac_exec::{execute_select_with, ExecOptions};
use trac_expr::{eval_predicate, BoundExpr, BoundSelect, ColRef, Projection, Truth};
use trac_plan::split_and;
use trac_sql::BinaryOp;
use trac_storage::ReadTxn;
use trac_types::{Result, SourceId, Value};

/// Runs a bound `SELECT` through the general executor with the given
/// options (the same morsel-driven batched path the user query takes
/// when `opts.threads > 1`).
fn run_select(txn: &ReadTxn, q: &BoundSelect, opts: ExecOptions) -> Result<trac_exec::QueryResult> {
    Ok(execute_select_with(txn, q, opts)?.0)
}

/// Evaluates one generated multi-relation recency subquery (shape:
/// `SELECT DISTINCT H.sid FROM heartbeat H, others… WHERE conjunction`,
/// with at least one other relation), adding relevant source ids to
/// `out`. The witness and H-side parts run through the general executor
/// with `opts` — a parallel session evaluates its recency subqueries
/// through the same batched operators as its user queries.
pub(crate) fn execute_recency_subquery(
    txn: &ReadTxn,
    q: &BoundSelect,
    opts: ExecOptions,
    out: &mut BTreeSet<SourceId>,
) -> Result<()> {
    debug_assert!(
        q.tables.len() > 1,
        "single-relation recency subqueries run their stored plan"
    );
    let mut conjuncts = Vec::new();
    if let Some(p) = &q.predicate {
        split_and(p, &mut conjuncts);
    }
    let mut h_terms: Vec<&BoundExpr> = Vec::new();
    let mut cross_terms: Vec<&BoundExpr> = Vec::new();
    let mut other_terms: Vec<&BoundExpr> = Vec::new();
    for t in conjuncts {
        let tables = t.tables();
        if tables.is_empty() {
            // Constant term: a non-TRUE constant empties the result.
            if eval_predicate(t, &[])? != Truth::True {
                return Ok(());
            }
        } else if !tables.contains(&0) {
            other_terms.push(t);
        } else if tables.len() == 1 {
            h_terms.push(t);
        } else {
            cross_terms.push(t);
        }
    }

    // Witness columns: every non-H column the join terms mention.
    let witness_cols: Vec<ColRef> = cross_terms
        .iter()
        .flat_map(|t| t.references())
        .filter(|c| c.table != 0)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let remap = |c: ColRef| ColRef {
        table: c.table - 1,
        column: c.column,
    };
    let projections = if witness_cols.is_empty() {
        vec![Projection::Scalar {
            expr: BoundExpr::lit(1i64),
            name: "one".into(),
        }]
    } else {
        witness_cols
            .iter()
            .enumerate()
            .map(|(i, c)| Projection::Scalar {
                expr: BoundExpr::Column(remap(*c)),
                name: format!("w{i}"),
            })
            .collect()
    };
    // Pure existence probe (no join terms, single other relation):
    // stream the scan with early exit instead of materializing it.
    if witness_cols.is_empty() && q.tables.len() == 2 {
        let terms: Vec<BoundExpr> = other_terms.iter().map(|t| t.map_columns(&remap)).collect();
        let found = txn.scan_find(q.tables[1].id, |row| {
            let tuple = std::slice::from_ref(row);
            for t in &terms {
                if eval_predicate(t, tuple)? != Truth::True {
                    return Ok(false);
                }
            }
            Ok(true)
        })?;
        if found.is_none() {
            return Ok(());
        }
        return collect_h(txn, q, &h_terms, None, opts, out);
    }
    let others_q = BoundSelect {
        tables: q.tables[1..].to_vec(),
        predicate: BoundExpr::conjoin(other_terms.iter().map(|t| t.map_columns(&remap))),
        projections,
        group_by: vec![],
        having: None,
        distinct: !witness_cols.is_empty(),
        order_by: vec![],
        limit: if witness_cols.is_empty() {
            Some(1)
        } else {
            None
        },
    };
    let witnesses = run_select(txn, &others_q, opts)?;
    if witnesses.is_empty() {
        // Definition 2 needs existing tuples in every other relation.
        return Ok(());
    }
    if !cross_terms.is_empty() {
        let wmap: HashMap<ColRef, usize> = witness_cols
            .iter()
            .enumerate()
            .map(|(i, c)| (*c, i))
            .collect();
        let cross_on_witness: Vec<BoundExpr> = cross_terms
            .iter()
            .map(|t| {
                t.map_columns(&|c| {
                    if c.table == 0 {
                        c
                    } else {
                        ColRef {
                            table: 1,
                            column: wmap[&c],
                        }
                    }
                })
            })
            .collect();
        // Fast path: every join term is `H.sid = <witness column>`.
        if let Some(eq_cols) = all_sid_equalities(&cross_on_witness) {
            let mut candidates: BTreeSet<Value> = BTreeSet::new();
            'witness: for row in &witnesses.rows {
                let v = &row[eq_cols[0]];
                if v.is_null() {
                    continue;
                }
                for w in &eq_cols[1..] {
                    if v.sql_eq(&row[*w]) != Some(true) {
                        continue 'witness;
                    }
                }
                candidates.insert(v.clone());
            }
            return collect_h(txn, q, &h_terms, Some(candidates), opts, out);
        }
        // General fallback: nested loop over filtered H × witnesses.
        let h_rows = h_matches(txn, q, &h_terms, None, opts)?;
        for h in h_rows {
            let h_row: trac_storage::Row = Arc::from(h.clone().into_boxed_slice());
            let mut hit = false;
            'search: for wrow in &witnesses.rows {
                let w_row: trac_storage::Row = Arc::from(wrow.clone().into_boxed_slice());
                let tuple = [h_row.clone(), w_row];
                for t in &cross_on_witness {
                    if eval_predicate(t, &tuple)? != Truth::True {
                        continue 'search;
                    }
                }
                hit = true;
                break;
            }
            if hit {
                if let Some(s) = SourceId::from_value(&h[0]) {
                    out.insert(s);
                }
            }
        }
        return Ok(());
    }
    // No join terms: existence of witnesses is all P_o required.
    collect_h(txn, q, &h_terms, None, opts, out)
}

/// If every term is `H.sid = witness_col` (or flipped), the witness
/// column indices; `None` otherwise.
fn all_sid_equalities(terms: &[BoundExpr]) -> Option<Vec<usize>> {
    let sid = ColRef {
        table: 0,
        column: 0,
    };
    let mut cols = Vec::with_capacity(terms.len());
    for t in terms {
        let BoundExpr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } = t
        else {
            return None;
        };
        match (lhs.as_ref(), rhs.as_ref()) {
            (BoundExpr::Column(a), BoundExpr::Column(b)) if *a == sid && b.table == 1 => {
                cols.push(b.column);
            }
            (BoundExpr::Column(b), BoundExpr::Column(a)) if *a == sid && b.table == 1 => {
                cols.push(b.column);
            }
            _ => return None,
        }
    }
    if cols.is_empty() {
        None
    } else {
        Some(cols)
    }
}

/// Runs the H-only part: `SELECT sid, … FROM heartbeat WHERE P_s'
/// [AND sid IN candidates]`, returning sid rows.
///
/// With a candidate set in hand we probe the heartbeat index directly
/// (set-sized point lookups) instead of synthesizing a huge `IN` list
/// whose per-row evaluation would be linear in the set size.
fn h_matches(
    txn: &ReadTxn,
    q: &BoundSelect,
    h_terms: &[&BoundExpr],
    candidates: Option<BTreeSet<Value>>,
    opts: ExecOptions,
) -> Result<Vec<Vec<Value>>> {
    let hb = q.tables[0].id;
    let rows: Vec<trac_storage::Row> = match candidates {
        Some(c) => {
            if c.is_empty() {
                return Ok(Vec::new());
            }
            let keys: Vec<Value> = c.iter().cloned().collect();
            match txn.index_probe_in(hb, 0, &keys)? {
                Some(rows) => rows,
                None => txn
                    .scan(hb)?
                    .into_iter()
                    .filter(|r| c.contains(&r[0]))
                    .collect(),
            }
        }
        None => {
            // No candidate restriction: let the executor pick the access
            // path (it probes the sid index for `P_s'` point/IN terms).
            let h_q = BoundSelect {
                tables: vec![q.tables[0].clone()],
                predicate: BoundExpr::conjoin(h_terms.iter().copied().cloned()),
                projections: vec![Projection::Scalar {
                    expr: BoundExpr::col(0, 0),
                    name: "sid".into(),
                }],
                group_by: vec![],
                having: None,
                distinct: true,
                order_by: vec![],
                limit: None,
            };
            return Ok(run_select(txn, &h_q, opts)?.rows);
        }
    };
    // Apply P_s' and deduplicate.
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(rows.len());
    'row: for row in rows {
        let tuple = std::slice::from_ref(&row);
        for t in h_terms {
            if eval_predicate(t, tuple)? != Truth::True {
                continue 'row;
            }
        }
        if seen.insert(row[0].clone()) {
            out.push(vec![row[0].clone()]);
        }
    }
    Ok(out)
}

fn collect_h(
    txn: &ReadTxn,
    q: &BoundSelect,
    h_terms: &[&BoundExpr],
    candidates: Option<BTreeSet<Value>>,
    opts: ExecOptions,
    out: &mut BTreeSet<SourceId>,
) -> Result<()> {
    for row in h_matches(txn, q, h_terms, candidates, opts)? {
        if let Some(s) = SourceId::from_value(&row[0]) {
            out.insert(s);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relevance::{RecencyPlan, RelevanceConfig};
    use crate::testutil::paper_db;
    use trac_expr::bind_select;
    use trac_sql::parse_select;

    /// Both routes of `RecencyPlan::execute_with` must agree with the
    /// literal cross-product evaluation of every generated subquery on a
    /// small instance: the stored plan of a single-relation subquery and
    /// the semijoin of a multi-relation one, serial and parallel.
    #[test]
    fn agrees_with_general_executor() {
        let db = paper_db();
        let txn = db.begin_read();
        let queries = [
            "SELECT mach_id FROM Activity WHERE mach_id IN ('m1','m2') AND value = 'idle'",
            "SELECT mach_id FROM Activity WHERE value = 'busy'",
            "SELECT mach_id FROM Activity WHERE mach_id NOT IN ('m1') AND value = 'idle'",
            "SELECT mach_id FROM Activity WHERE mach_id NOT IN ('m1', 'm2') OR value = 'idle'",
            "SELECT mach_id FROM Activity WHERE mach_id = 'm1' OR mach_id = 'm3' AND value = 'busy'",
            "SELECT mach_id FROM Routing WHERE mach_id <> neighbor AND mach_id IN ('m1', 'm2')",
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = A.mach_id AND A.value = 'idle'",
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.neighbor = A.mach_id AND A.value = 'idle' OR R.mach_id = 'm2'",
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.neighbor <> A.mach_id AND R.mach_id NOT IN ('m2')",
            "SELECT mach_id FROM Activity",
        ];
        for opts in [
            ExecOptions::default(),
            ExecOptions::default().with_parallelism(4, 2),
        ] {
            let mut routes = [0usize; 2];
            for sql in queries {
                let stmt = parse_select(sql).unwrap();
                let bound = bind_select(&txn, &stmt).unwrap();
                let plan = RecencyPlan::build_with(&txn, &bound, RelevanceConfig::default(), opts)
                    .unwrap();
                let mut union = BTreeSet::new();
                for sub in &plan.subqueries {
                    let Some(query) = &sub.query else { continue };
                    // Literal evaluation through the general executor.
                    let literal: BTreeSet<SourceId> = trac_exec::execute_select(&txn, query)
                        .unwrap()
                        .rows
                        .into_iter()
                        .filter_map(|r| SourceId::from_value(&r[0]))
                        .collect();
                    let routed: BTreeSet<SourceId> = if query.tables.len() == 1 {
                        routes[0] += 1;
                        let stored = sub.plan.as_ref().unwrap();
                        trac_exec::execute_plan_with(&txn, stored, opts)
                            .unwrap()
                            .rows
                            .into_iter()
                            .filter_map(|r| SourceId::from_value(&r[0]))
                            .collect()
                    } else {
                        routes[1] += 1;
                        let mut semi = BTreeSet::new();
                        execute_recency_subquery(&txn, query, opts, &mut semi).unwrap();
                        semi
                    };
                    assert_eq!(
                        routed,
                        literal,
                        "route disagrees for {sql} via {} ({})",
                        sub.via_relation,
                        sub.sql()
                    );
                    union.extend(literal);
                }
                assert_eq!(plan.execute_with(&txn, opts).unwrap(), union, "{sql}");
            }
            assert!(
                routes.iter().all(|&n| n > 0),
                "both routes covered: {routes:?}"
            );
        }
    }

    #[test]
    fn existence_probe_short_circuits() {
        // No join terms between H and the other relation: the others part
        // is just an existence check, so the result is the filtered H
        // regardless of how many matching other-rows there are.
        let db = paper_db();
        let txn = db.begin_read();
        let stmt = parse_select(
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        )
        .unwrap();
        let bound = bind_select(&txn, &stmt).unwrap();
        let plan = RecencyPlan::build(&txn, &bound, RelevanceConfig::default()).unwrap();
        let via_r = plan
            .subqueries
            .iter()
            .find(|s| s.via_relation == "R")
            .unwrap();
        let mut out = BTreeSet::new();
        execute_recency_subquery(
            &txn,
            via_r.query.as_ref().unwrap(),
            ExecOptions::default(),
            &mut out,
        )
        .unwrap();
        assert_eq!(
            out.iter()
                .map(trac_types::SourceId::as_str)
                .collect::<Vec<_>>(),
            vec!["m1"]
        );
    }
}
