//! Pass 3: the recency-subquery sanitizer.
//!
//! The Section 3.3 rewrite replaces `R_i.c_s` with `H.sid` and drops every
//! term touching a regular column of `R_i`, so a generated recency
//! subquery must (a) bind and lower to a physical plan, (b) select from
//! the Heartbeat table, (c) project exactly the Heartbeat source-id
//! column, and (d) never mention the relation under analysis again — a
//! surviving reference means the rewrite leaked a regular column into the
//! source-set computation.
//!
//! The pass checks each subquery **structurally**: it walks the bound
//! query ([`trac_expr::BoundSelect`]) and the lowered plan IR
//! ([`trac_plan::PlanNode`]) the planner stored on the
//! [`trac_core::RecencySubquery`]. The engine executes those, never the
//! rendered SQL string, so no generated SQL is re-lexed; the string only
//! anchors the diagnostics.

use crate::diag::{Diagnostic, BAD_PROJECTION, LEAKED_RELATION};
use std::collections::BTreeSet;
use trac_core::RecencySubquery;
use trac_expr::{BoundExpr, BoundSelect, ColRef, Projection};
use trac_plan::PlanNode;
use trac_storage::{HEARTBEAT_SID_COL, HEARTBEAT_TABLE};

/// Every column reference the bound query can evaluate: projections,
/// WHERE, GROUP BY, HAVING and ORDER BY.
fn query_cols(q: &BoundSelect) -> BTreeSet<ColRef> {
    let projected = q.projections.iter().filter_map(|p| match p {
        Projection::Scalar { expr, .. }
        | Projection::Aggregate {
            arg: Some(expr), ..
        } => Some(expr),
        Projection::Aggregate { arg: None, .. } => None,
    });
    projected
        .chain(&q.predicate)
        .chain(&q.group_by)
        .chain(q.having.as_ref().map(|h| &h.predicate))
        .chain(q.order_by.iter().map(|(k, _)| k))
        .flat_map(BoundExpr::references)
        .collect()
}

/// (b) + (c) on the bound query: FROM leads with Heartbeat and the
/// projection is exactly the Heartbeat source-id column (`ColRef` slot 0,
/// the `sid` column).
fn check_bound_shape(context: &str, sql: &str, q: &BoundSelect, out: &mut Vec<Diagnostic>) {
    let Some(first) = q.tables.first() else {
        out.push(
            Diagnostic::new(BAD_PROJECTION, context, "recency subquery has no FROM list")
                .with_span(sql, None),
        );
        return;
    };
    if !first.schema.name.eq_ignore_ascii_case(HEARTBEAT_TABLE) {
        out.push(
            Diagnostic::new(
                BAD_PROJECTION,
                context,
                format!(
                    "recency subquery selects from `{}` instead of the \
                     Heartbeat table",
                    first.schema.name
                ),
            )
            .with_span(sql, None),
        );
    }
    let sid_col = first
        .schema
        .columns
        .iter()
        .position(|c| c.name.eq_ignore_ascii_case(HEARTBEAT_SID_COL));
    if q.projections.len() != 1 {
        out.push(
            Diagnostic::new(
                BAD_PROJECTION,
                context,
                format!(
                    "recency subquery projects {} items; exactly one \
                     ({}.{HEARTBEAT_SID_COL}) is allowed",
                    q.projections.len(),
                    first.binding
                ),
            )
            .with_span(sql, None),
        );
    }
    for p in &q.projections {
        let ok = matches!(
            p,
            Projection::Scalar {
                expr: BoundExpr::Column(c),
                ..
            } if c.table == 0 && Some(c.column) == sid_col
        );
        if !ok {
            out.push(
                Diagnostic::new(
                    BAD_PROJECTION,
                    context,
                    format!(
                        "recency subquery projects `{}`; only the Heartbeat \
                         source column `{}.{HEARTBEAT_SID_COL}` may be \
                         projected",
                        p.name(),
                        first.binding
                    ),
                )
                .with_span(sql, None),
            );
        }
    }
}

/// (d) on the bound query: no FROM slot may bind the analyzed relation,
/// and no evaluated expression may reference such a slot.
fn check_bound_leaks(
    context: &str,
    sql: &str,
    q: &BoundSelect,
    analyzed_binding: &str,
    out: &mut Vec<Diagnostic>,
) {
    let leaked: Vec<usize> = q
        .tables
        .iter()
        .enumerate()
        .filter(|(_, t)| t.binding.eq_ignore_ascii_case(analyzed_binding))
        .map(|(i, _)| i)
        .collect();
    for &pos in &leaked {
        out.push(
            Diagnostic::new(
                LEAKED_RELATION,
                context,
                format!(
                    "recency subquery re-joins the relation under analysis \
                     (`{}`); its terms must have been rewritten onto \
                     Heartbeat or dropped",
                    q.tables[pos].binding
                ),
            )
            .with_span(sql, None),
        );
    }
    if leaked.is_empty() {
        return;
    }
    for c in query_cols(q) {
        if leaked.contains(&c.table) {
            let t = &q.tables[c.table];
            let col = t
                .schema
                .columns
                .get(c.column)
                .map_or("?", |cd| cd.name.as_str());
            out.push(
                Diagnostic::new(
                    LEAKED_RELATION,
                    context,
                    format!(
                        "recency subquery references `{}.{col}`, a column of \
                         the relation under analysis",
                        t.binding
                    ),
                )
                .with_span(sql, None),
            );
        }
    }
}

/// (d) on the plan IR: no access-path leaf (`Scan`, `IndexLookup`,
/// `IndexNLJoin`) may read the analyzed relation.
fn check_plan_leaks(
    context: &str,
    sql: &str,
    root: &PlanNode,
    analyzed_binding: &str,
    out: &mut Vec<Diagnostic>,
) {
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        let table = match node {
            PlanNode::Scan { table, .. }
            | PlanNode::IndexLookup { table, .. }
            | PlanNode::IndexNLJoin { table, .. } => Some(table),
            _ => None,
        };
        if let Some(t) = table {
            if t.binding.eq_ignore_ascii_case(analyzed_binding) {
                out.push(
                    Diagnostic::new(
                        LEAKED_RELATION,
                        context,
                        format!(
                            "physical plan reads the relation under analysis \
                             (`{}`) through a {} operator",
                            t.binding,
                            node.name()
                        ),
                    )
                    .with_span(sql, None),
                );
            }
        }
        stack.extend(node.children());
    }
}

/// Structurally checks one generated recency subquery: its bound form
/// against shape rules (b)+(c) and its bound form plus lowered plan IR
/// against the leak rule (d). Empty subqueries (no bound query) are
/// vacuously clean.
pub fn check_subquery_ir(
    context: &str,
    sub: &RecencySubquery,
    analyzed_binding: &str,
) -> Vec<Diagnostic> {
    let Some(query) = &sub.query else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let sql = sub.sql();
    check_bound_shape(context, sql, query, &mut out);
    check_bound_leaks(context, sql, query, analyzed_binding, &mut out);
    match &sub.plan {
        Some(plan) => check_plan_leaks(context, sql, &plan.root, analyzed_binding, &mut out),
        None => out.push(
            Diagnostic::new(
                BAD_PROJECTION,
                context,
                "recency subquery carries a bound query but no physical plan",
            )
            .with_span(sql, None),
        ),
    }
    out
}

/// Runs the pass over every generated subquery of a plan, auditing the
/// bound query and plan IR the planner stored (no SQL re-lexing).
pub fn run(
    q: &trac_expr::BoundSelect,
    plan: &trac_core::RecencyPlan,
    label: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for sub in &plan.subqueries {
        let analyzed = q
            .tables
            .iter()
            .find(|t| t.binding.eq_ignore_ascii_case(&sub.via_relation))
            .map_or(sub.via_relation.as_str(), |t| t.binding.as_str());
        let context = format!(
            "{label} subquery for disjunct #{} via {}",
            sub.disjunct, sub.via_relation
        );
        out.extend(check_subquery_ir(&context, sub, analyzed));
    }
    out
}
