//! Pass 5: the plan-IR translation validator.
//!
//! PR 2 made the lowered [`PhysicalPlan`] the thing we actually execute,
//! including every recency subquery; an unsound lowering (a dropped
//! conjunct, a misplaced `Distinct`, a hash join on mismatched keys)
//! would silently corrupt both answers and the Theorem 3/4 recency
//! guarantees. This pass independently certifies each plan against its
//! [`BoundSelect`] — the planner is never consulted, only its output:
//!
//! 1. the **dataflow walk** ([`crate::dataflow`]) propagates abstract
//!    facts bottom-up and checks every operator's local contract
//!    (`TRAC010`–`TRAC013`);
//! 2. the **residue check** proves the set of predicates the plan
//!    enforces equals the bound `WHERE` conjuncts — nothing dropped
//!    (`TRAC009`), nothing invented (`TRAC010`). Enforcement is compared
//!    as a set: the planner re-applies equi-keys with SQL comparison
//!    semantics, so duplicates are expected and harmless;
//! 3. the **shape check** walks the shaping stack above the join tree
//!    and compares it structurally against the query's
//!    `GROUP BY`/`HAVING`/`ORDER BY`/`DISTINCT`/`LIMIT` clauses
//!    (`TRAC012`, `TRAC013`).
//!
//! An `Empty` plan is accepted only when some constant `WHERE` conjunct
//! evaluates to non-`TRUE` — pruning every tuple without such a conjunct
//! is a phantom restriction (`TRAC010`).

use super::PassCtx;
use crate::dataflow::{self, Facts};
use crate::diag::{
    Diagnostic, SpanFinder, OPERATOR_CONTRACT, RESIDUE_DROPPED, RESIDUE_PHANTOM, SHAPE_MISMATCH,
};
use trac_core::RecencyPlan;
use trac_expr::bound::AggFunc;
use trac_expr::{eval_predicate, BoundExpr, BoundSelect, ColRef, Projection, Truth};
use trac_plan::{split_and, PhysicalPlan, PlanNode};

/// Certifies one `(query, plan)` pair, labeling findings with `context`
/// and locating spans through `ctx` when the analyzed SQL is available.
pub fn validate_plan(
    q: &BoundSelect,
    plan: &PhysicalPlan,
    context: &str,
    ctx: Option<&PassCtx<'_>>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let map = dataflow::propagate(q, plan);
    for f in &map.findings {
        let span = match (ctx, &f.term) {
            (Some(c), Some(t)) => c.term_span(t, &q.tables),
            _ => None,
        };
        let mut d = Diagnostic::new(f.code, context, f.message.clone());
        if let Some(c) = ctx {
            d = d.with_span(c.sql, span);
        }
        out.push(d);
    }
    let relational = check_shape(q, &plan.root, context, &mut out);
    let Some(facts) = map.get(relational) else {
        return out; // Walk never reached it: shape findings already say why.
    };
    check_residue(q, facts, context, ctx, &mut out);
    if !facts.empty && facts.slots.len() != q.tables.len() {
        out.push(Diagnostic::new(
            OPERATOR_CONTRACT,
            context,
            format!(
                "join tree populates {} of the query's {} FROM slots",
                facts.slots.len(),
                q.tables.len()
            ),
        ));
    }
    out
}

/// The residue check: enforced predicates vs bound `WHERE` conjuncts.
fn check_residue(
    q: &BoundSelect,
    facts: &Facts,
    context: &str,
    ctx: Option<&PassCtx<'_>>,
    out: &mut Vec<Diagnostic>,
) {
    // Reconstruct what the planner was required to enforce: the
    // column-referencing conjuncts. Constant conjuncts either evaluate
    // TRUE (nothing to enforce) or justify an Empty plan.
    let mut conjuncts = Vec::new();
    if let Some(p) = &q.predicate {
        split_and(p, &mut conjuncts);
    }
    let mut required: Vec<BoundExpr> = Vec::new();
    let mut empty_justified = false;
    for c in conjuncts {
        if c.references().is_empty() {
            match eval_predicate(c, &[]) {
                Ok(Truth::True) => {}
                Ok(_) => empty_justified = true,
                // The planner cannot lower an erroring constant either;
                // keep it required so the mismatch surfaces.
                Err(_) => {
                    if !required.contains(c) {
                        required.push(c.clone());
                    }
                }
            }
        } else if !required.contains(c) {
            required.push(c.clone());
        }
    }
    if facts.empty {
        if !empty_justified {
            out.push(Diagnostic::new(
                RESIDUE_PHANTOM,
                context,
                "plan statically prunes every tuple, but no constant WHERE \
                 conjunct evaluates to false or unknown",
            ));
        }
        // An empty stream vacuously satisfies every conjunct.
        return;
    }
    for w in &required {
        if !facts.enforced.contains(w) {
            let span = ctx.and_then(|c| c.term_span(w, &q.tables));
            let mut d = Diagnostic::new(
                RESIDUE_DROPPED,
                context,
                format!(
                    "WHERE conjunct `{}` is enforced by no operator of the plan",
                    describe_term(w)
                ),
            );
            if let Some(c) = ctx {
                d = d.with_span(c.sql, span);
            }
            out.push(d);
        }
    }
    for e in &facts.enforced {
        if !required.contains(e) {
            out.push(Diagnostic::new(
                RESIDUE_PHANTOM,
                context,
                format!(
                    "plan enforces `{}`, which is no conjunct of the bound WHERE \
                     clause",
                    describe_term(e)
                ),
            ));
        }
    }
}

/// Walks the shaping stack above the join tree, comparing it against the
/// query's shaping clauses, and returns the relational root underneath.
fn check_shape<'p>(
    q: &BoundSelect,
    root: &'p PlanNode,
    context: &str,
    out: &mut Vec<Diagnostic>,
) -> &'p PlanNode {
    let mut node = root;
    if q.is_aggregate() {
        match node {
            PlanNode::Aggregate {
                input,
                group_by,
                projections,
                having,
                order_by,
                limit,
            } => {
                if group_by != &q.group_by {
                    out.push(Diagnostic::new(
                        OPERATOR_CONTRACT,
                        context,
                        "Aggregate grouping keys differ from the query's GROUP BY",
                    ));
                }
                check_projections(projections, q, context, out);
                if having.is_some() != q.having.is_some() {
                    out.push(Diagnostic::new(
                        SHAPE_MISMATCH,
                        context,
                        "Aggregate HAVING presence differs from the query",
                    ));
                }
                if order_by != &q.order_by {
                    out.push(Diagnostic::new(
                        SHAPE_MISMATCH,
                        context,
                        "Aggregate ORDER BY keys differ from the query",
                    ));
                }
                if *limit != q.limit {
                    out.push(Diagnostic::new(
                        SHAPE_MISMATCH,
                        context,
                        format!(
                            "Aggregate group limit is {limit:?}, the query says {:?}",
                            q.limit
                        ),
                    ));
                }
                node = input;
            }
            // Fast-path aggregate roots answer the whole query in one
            // operator; structurally they must match a single bare
            // aggregate projection with no group shaping left over (a
            // LIMIT of one or more on a one-row result is a no-op; the
            // side conditions proper are re-derived by the fast-path
            // soundness pass, TRAC021).
            PlanNode::CountStar { name, .. } => {
                check_fastpath_agg_shape(q, "CountStar", context, out);
                let want = Projection::Aggregate {
                    func: AggFunc::Count,
                    arg: None,
                    name: name.clone(),
                };
                check_projections(std::slice::from_ref(&want), q, context, out);
                return node;
            }
            PlanNode::IndexMinMax {
                column, func, name, ..
            } => {
                check_fastpath_agg_shape(q, "IndexMinMax", context, out);
                let want = Projection::Aggregate {
                    func: *func,
                    arg: Some(BoundExpr::Column(ColRef {
                        table: 0,
                        column: *column,
                    })),
                    name: name.clone(),
                };
                check_projections(std::slice::from_ref(&want), q, context, out);
                return node;
            }
            other => {
                out.push(Diagnostic::new(
                    SHAPE_MISMATCH,
                    context,
                    format!(
                        "aggregate query lowered without an Aggregate root (found {})",
                        other.name()
                    ),
                ));
            }
        }
        return skip_extra_shaping(node, context, out);
    }
    // Scalar stack, top to bottom: Limit? → Distinct? → Project → Sort?.
    match q.limit {
        Some(n) => match node {
            PlanNode::Limit { input, n: m } => {
                if *m != n {
                    out.push(Diagnostic::new(
                        SHAPE_MISMATCH,
                        context,
                        format!("plan limits to {m} rows, the query says {n}"),
                    ));
                }
                node = input;
            }
            _ => out.push(Diagnostic::new(
                SHAPE_MISMATCH,
                context,
                format!("query has LIMIT {n}, but the plan has no Limit operator on top"),
            )),
        },
        None => {
            if let PlanNode::Limit { .. } = node {
                out.push(Diagnostic::new(
                    SHAPE_MISMATCH,
                    context,
                    "plan truncates output although the query has no LIMIT",
                ));
                if let PlanNode::Limit { input, .. } = node {
                    node = input;
                }
            }
        }
    }
    if q.distinct {
        match node {
            PlanNode::Distinct { input } => node = input,
            _ => out.push(Diagnostic::new(
                SHAPE_MISMATCH,
                context,
                "query is SELECT DISTINCT, but the plan has no Distinct operator",
            )),
        }
    } else if let PlanNode::Distinct { input } = node {
        out.push(Diagnostic::new(
            SHAPE_MISMATCH,
            context,
            "plan deduplicates although the query is not SELECT DISTINCT",
        ));
        node = input;
    }
    match node {
        PlanNode::Project { input, projections } => {
            check_projections(projections, q, context, out);
            node = input;
        }
        other => out.push(Diagnostic::new(
            SHAPE_MISMATCH,
            context,
            format!("expected a Project operator, found {}", other.name()),
        )),
    }
    if q.order_by.is_empty() {
        if let PlanNode::Sort { input, .. } = node {
            out.push(Diagnostic::new(
                SHAPE_MISMATCH,
                context,
                "plan sorts although the query has no ORDER BY",
            ));
            node = input;
        }
    } else {
        match node {
            PlanNode::Sort { input, keys } => {
                if keys != &q.order_by {
                    out.push(Diagnostic::new(
                        SHAPE_MISMATCH,
                        context,
                        "Sort keys differ from the query's ORDER BY",
                    ));
                }
                node = input;
            }
            // The ordered index walk supplies the order itself: its key
            // must be the query's single ORDER BY key (same direction)
            // and its early stop must equal the query's LIMIT.
            PlanNode::TopNIndex {
                pos,
                column,
                desc,
                n,
                ..
            } => {
                let want = [(
                    BoundExpr::Column(ColRef {
                        table: *pos,
                        column: *column,
                    }),
                    *desc,
                )];
                if q.order_by != want {
                    out.push(Diagnostic::new(
                        SHAPE_MISMATCH,
                        context,
                        "TopNIndex walk order differs from the query's ORDER BY",
                    ));
                }
                if q.limit != Some(*n) {
                    out.push(Diagnostic::new(
                        SHAPE_MISMATCH,
                        context,
                        format!(
                            "TopNIndex stops after {n} rows, the query's LIMIT says {:?}",
                            q.limit
                        ),
                    ));
                }
            }
            _ => out.push(Diagnostic::new(
                SHAPE_MISMATCH,
                context,
                "query has ORDER BY, but the plan has no Sort operator",
            )),
        }
    }
    skip_extra_shaping(node, context, out)
}

/// A fast-path aggregate root (`CountStar`/`IndexMinMax`) produces a
/// single unshaped row; any surviving shaping clause it would have to
/// honor (except a no-op `LIMIT n >= 1`) is a shape mismatch.
fn check_fastpath_agg_shape(q: &BoundSelect, op: &str, context: &str, out: &mut Vec<Diagnostic>) {
    let unshaped = q.group_by.is_empty()
        && q.having.is_none()
        && !q.distinct
        && q.order_by.is_empty()
        && q.limit != Some(0);
    if !unshaped {
        out.push(Diagnostic::new(
            SHAPE_MISMATCH,
            context,
            format!("{op} root ignores the query's group-shaping clauses"),
        ));
    }
}

/// Any shaping operator below the expected stack is misplaced; flag and
/// step over it so the residue check still reaches the join tree.
fn skip_extra_shaping<'p>(
    mut node: &'p PlanNode,
    context: &str,
    out: &mut Vec<Diagnostic>,
) -> &'p PlanNode {
    loop {
        match node {
            PlanNode::Sort { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Limit { input, .. } => {
                out.push(Diagnostic::new(
                    SHAPE_MISMATCH,
                    context,
                    format!(
                        "unexpected {} operator below the shaping stack",
                        node.name()
                    ),
                ));
                node = input;
            }
            _ => return node,
        }
    }
}

/// Structural comparison of plan projections against the query's.
fn check_projections(
    projections: &[Projection],
    q: &BoundSelect,
    context: &str,
    out: &mut Vec<Diagnostic>,
) {
    if projections.len() != q.projections.len() {
        out.push(Diagnostic::new(
            OPERATOR_CONTRACT,
            context,
            format!(
                "plan projects {} columns, the query selects {}",
                projections.len(),
                q.projections.len()
            ),
        ));
        return;
    }
    for (p, want) in projections.iter().zip(&q.projections) {
        if !projection_eq(p, want) {
            out.push(Diagnostic::new(
                SHAPE_MISMATCH,
                context,
                format!(
                    "plan projection `{}` differs from the query's `{}`",
                    p.name(),
                    want.name()
                ),
            ));
        }
    }
}

/// `Projection` deliberately has no `PartialEq`; compare structurally.
fn projection_eq(a: &Projection, b: &Projection) -> bool {
    match (a, b) {
        (Projection::Scalar { expr: ea, name: na }, Projection::Scalar { expr: eb, name: nb }) => {
            ea == eb && na == nb
        }
        (
            Projection::Aggregate {
                func: fa,
                arg: aa,
                name: na,
            },
            Projection::Aggregate {
                func: fb,
                arg: ab,
                name: nb,
            },
        ) => fa == fb && aa == ab && na == nb,
        _ => false,
    }
}

/// Short display form of a bound term for messages (the bound IR has no
/// SQL renderer that works without table context; `Debug` is too noisy).
fn describe_term(t: &BoundExpr) -> String {
    let refs = t.references();
    if refs.is_empty() {
        "constant".to_string()
    } else {
        let cols: Vec<String> = refs
            .iter()
            .map(|c| format!("#{}.{}", c.table, c.column))
            .collect();
        format!("term over {}", cols.join(", "))
    }
}

/// Runs the pass over everything `analyze_bound` sees: the user query's
/// own lowered plan (when one was provided) and every recency subquery's
/// stored `(query, plan)` pair.
pub fn run(
    q: &BoundSelect,
    plan: &RecencyPlan,
    user_plan: Option<&PhysicalPlan>,
    ctx: &PassCtx<'_>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Some(p) = user_plan {
        out.extend(validate_plan(q, p, ctx.label, Some(ctx)));
    }
    for (i, sub) in plan.subqueries.iter().enumerate() {
        let (Some(subq), Some(subplan)) = (&sub.query, &sub.plan) else {
            continue;
        };
        let context = format!("{} subquery #{i} (via {})", ctx.label, sub.via_relation);
        let finder = SpanFinder::new(sub.sql());
        let sub_ctx = PassCtx {
            label: &context,
            sql: sub.sql(),
            finder: &finder,
        };
        out.extend(validate_plan(subq, subplan, &context, Some(&sub_ctx)));
    }
    out
}
