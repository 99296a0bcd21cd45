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
//! [`trac_core::RecencySubquery`], so no generated SQL is re-lexed on the
//! audit path. The textual checker ([`check_subquery_sql`]) is retained
//! for auditing free-standing SQL fixtures (and the negative tests).

use crate::diag::{Diagnostic, SpanFinder, BAD_PROJECTION, LEAKED_RELATION};
use trac_core::RecencySubquery;
use trac_expr::{BoundExpr, BoundSelect, ColRef, Projection};
use trac_plan::PlanNode;
use trac_sql::ast::{Expr, SelectItem, SelectStmt};
use trac_storage::{HEARTBEAT_SID_COL, HEARTBEAT_TABLE};

/// Checks one generated recency-subquery SQL string. `analyzed_binding`
/// is the binding name of the relation the subquery computes sources for.
/// Empty subqueries are emitted as `--`-prefixed comment markers and are
/// vacuously clean.
pub fn check_subquery_sql(context: &str, sql: &str, analyzed_binding: &str) -> Vec<Diagnostic> {
    let trimmed = sql.trim_start();
    if trimmed.is_empty() || trimmed.starts_with("--") {
        return Vec::new();
    }
    let stmt = match trac_sql::parse_select(sql) {
        Ok(stmt) => stmt,
        Err(e) => {
            return vec![Diagnostic::new(
                BAD_PROJECTION,
                context,
                format!("generated recency SQL does not parse: {e}"),
            )
            .with_span(sql, None)];
        }
    };
    let finder = SpanFinder::new(sql);
    let mut out = Vec::new();
    check_shape(context, sql, &stmt, &finder, &mut out);
    check_leaks(context, sql, &stmt, analyzed_binding, &finder, &mut out);
    out
}

/// (b) + (c): FROM leads with Heartbeat; the projection is exactly one
/// column and it is the Heartbeat source-id column.
fn check_shape(
    context: &str,
    sql: &str,
    stmt: &SelectStmt,
    finder: &SpanFinder,
    out: &mut Vec<Diagnostic>,
) {
    let hb_binding = match stmt.from.first() {
        Some(first) if first.table.eq_ignore_ascii_case(HEARTBEAT_TABLE) => {
            first.binding_name().to_string()
        }
        Some(first) => {
            out.push(
                Diagnostic::new(
                    BAD_PROJECTION,
                    context,
                    format!(
                        "recency subquery selects from `{}` instead of the \
                         Heartbeat table",
                        first.table
                    ),
                )
                .with_span(sql, finder.ident(&first.table)),
            );
            first.binding_name().to_string()
        }
        None => {
            out.push(
                Diagnostic::new(BAD_PROJECTION, context, "recency subquery has no FROM list")
                    .with_span(sql, None),
            );
            return;
        }
    };
    if stmt.items.len() != 1 {
        out.push(
            Diagnostic::new(
                BAD_PROJECTION,
                context,
                format!(
                    "recency subquery projects {} items; exactly one \
                     ({hb_binding}.{HEARTBEAT_SID_COL}) is allowed",
                    stmt.items.len()
                ),
            )
            .with_span(sql, None),
        );
    }
    for item in &stmt.items {
        match item {
            SelectItem::Expr {
                expr: Expr::Column { qualifier, name },
                ..
            } if name.eq_ignore_ascii_case(HEARTBEAT_SID_COL)
                && qualifier
                    .as_deref()
                    .is_none_or(|q| q.eq_ignore_ascii_case(&hb_binding)) => {}
            SelectItem::Expr { expr, .. } => {
                let span = match expr {
                    Expr::Column {
                        qualifier: Some(q),
                        name,
                    } => finder.qualified(q, name),
                    Expr::Column {
                        qualifier: None,
                        name,
                    } => finder.ident(name),
                    _ => None,
                };
                out.push(
                    Diagnostic::new(
                        BAD_PROJECTION,
                        context,
                        format!(
                            "recency subquery projects `{expr}`; only the Heartbeat \
                             source column `{hb_binding}.{HEARTBEAT_SID_COL}` may be \
                             projected"
                        ),
                    )
                    .with_span(sql, span),
                );
            }
            SelectItem::Wildcard => {
                out.push(
                    Diagnostic::new(
                        BAD_PROJECTION,
                        context,
                        "recency subquery projects `*` instead of the Heartbeat \
                         source column",
                    )
                    .with_span(sql, None),
                );
            }
        }
    }
}

/// (d): no FROM entry and no column reference may name the analyzed
/// relation.
fn check_leaks(
    context: &str,
    sql: &str,
    stmt: &SelectStmt,
    analyzed_binding: &str,
    finder: &SpanFinder,
    out: &mut Vec<Diagnostic>,
) {
    for t in &stmt.from {
        if t.binding_name().eq_ignore_ascii_case(analyzed_binding) {
            out.push(
                Diagnostic::new(
                    LEAKED_RELATION,
                    context,
                    format!(
                        "recency subquery re-joins the relation under analysis \
                         (`{}`); its terms must have been rewritten onto \
                         Heartbeat or dropped",
                        t.binding_name()
                    ),
                )
                .with_span(sql, finder.ident(&t.table)),
            );
        }
    }
    let mut exprs: Vec<&Expr> = Vec::new();
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. } = item {
            exprs.push(expr);
        }
    }
    if let Some(w) = &stmt.where_clause {
        exprs.push(w);
    }
    exprs.extend(stmt.group_by.iter());
    if let Some(h) = &stmt.having {
        exprs.push(h);
    }
    exprs.extend(stmt.order_by.iter().map(|k| &k.expr));
    while let Some(e) = exprs.pop() {
        match e {
            Expr::Column {
                qualifier: Some(q),
                name,
            } if q.eq_ignore_ascii_case(analyzed_binding) => {
                out.push(
                    Diagnostic::new(
                        LEAKED_RELATION,
                        context,
                        format!(
                            "recency subquery references `{q}.{name}`, a column of \
                             the relation under analysis"
                        ),
                    )
                    .with_span(sql, finder.qualified(q, name)),
                );
            }
            Expr::Column { .. } | Expr::Literal(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                exprs.push(lhs);
                exprs.push(rhs);
            }
            Expr::InList { expr, list, .. } => {
                exprs.push(expr);
                exprs.extend(list.iter());
            }
            Expr::Between { expr, lo, hi, .. } => {
                exprs.push(expr);
                exprs.push(lo);
                exprs.push(hi);
            }
            Expr::IsNull { expr, .. } | Expr::Not(expr) | Expr::Neg(expr) => {
                exprs.push(expr);
            }
            Expr::Func { args, .. } => exprs.extend(args.iter()),
        }
    }
}

/// Collects every column reference in a bound expression tree.
fn collect_cols(expr: &BoundExpr, out: &mut Vec<ColRef>) {
    let mut stack = vec![expr];
    while let Some(e) = stack.pop() {
        match e {
            BoundExpr::Column(c) => out.push(*c),
            BoundExpr::Literal(_) => {}
            BoundExpr::Binary { lhs, rhs, .. } => {
                stack.push(lhs);
                stack.push(rhs);
            }
            BoundExpr::InList { expr, list, .. } => {
                stack.push(expr);
                stack.extend(list.iter());
            }
            BoundExpr::IsNull { expr, .. } | BoundExpr::Not(expr) | BoundExpr::Neg(expr) => {
                stack.push(expr);
            }
        }
    }
}

/// Every column reference the bound query can evaluate: projections,
/// WHERE, GROUP BY, HAVING and ORDER BY.
fn query_cols(q: &BoundSelect) -> Vec<ColRef> {
    let mut cols = Vec::new();
    for p in &q.projections {
        match p {
            Projection::Scalar { expr, .. } => collect_cols(expr, &mut cols),
            Projection::Aggregate {
                arg: Some(expr), ..
            } => collect_cols(expr, &mut cols),
            Projection::Aggregate { arg: None, .. } => {}
        }
    }
    if let Some(p) = &q.predicate {
        collect_cols(p, &mut cols);
    }
    for g in &q.group_by {
        collect_cols(g, &mut cols);
    }
    if let Some(h) = &q.having {
        collect_cols(&h.predicate, &mut cols);
    }
    for (k, _) in &q.order_by {
        collect_cols(k, &mut cols);
    }
    cols
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
