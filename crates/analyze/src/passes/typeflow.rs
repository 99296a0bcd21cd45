//! Pass 9: the typeflow certifier (`TRAC023`–`TRAC026`).
//!
//! The lowering attaches a [`KernelCert`] to every physical plan: one
//! [`LaneCert`] per base-table lane claiming a type, a nullability
//! verdict and (for floats) NaN-freedom. The columnar engine trusts the
//! certificate blindly — a certified lane dispatches to an unboxed
//! `IntVec`/`FloatVec`/`TextVec` kernel that cannot represent a NULL it
//! was promised would not surface, and a NaN slipping into a
//! "total-order" lane silently reorders comparisons. This pass is the
//! independent auditor: an abstract interpreter over the lane domain
//! **type × nullability × NaN-freedom**, seeded from the schema and the
//! write-time catalog statistics and propagated postorder over the
//! lowered plan, with each operator's transfer function refining what is
//! provably true of the tuples it emits.
//!
//! * `TRAC023` — the plan certifies a lane claim the interpretation
//!   cannot re-derive (wrong type, unproven null-freedom, unproven
//!   NaN-freedom, or a lane that does not exist): soundness violation;
//! * `TRAC024` — positive certification of every mono-typed *null-free*
//!   lane (the fully unboxed kernels, no null bitmap);
//! * `TRAC025` — positive certification of every mono-typed *nullable*
//!   lane (unboxed kernels with a null bitmap);
//! * `TRAC026` — positive certification of every float lane whose
//!   monotone catalog bounds prove it NaN-free, so SQL comparison and
//!   the storage total order coincide on it.
//!
//! The soundness argument mirrors the storage layer's monotone
//! statistics: [`ColumnStats::proves_non_null`] (the null counter only
//! ever increments) and [`ColumnStats::proves_nan_free`] (`total_cmp`
//! forces any inserted NaN into the min or max bound, and bounds never
//! shrink). Following the pass convention, [`check_cert`] takes the
//! *claimed* certificate as an argument so mutation tests can corrupt a
//! single lane and assert the exact diagnostic; [`run`] feeds it the
//! production plans.

use crate::diag::{
    Diagnostic, FLOAT_TOTAL_ORDER, KERNEL_CERTIFIED, NULLMASK_CERTIFIED, TYPE_UNSOUND,
};
use std::collections::BTreeMap;
use trac_expr::{BoundExpr, BoundSelect, BoundTable};
use trac_plan::{KernelCert, LaneCert, PhysicalPlan, PlanNode};
use trac_sql::BinaryOp;
use trac_storage::{ColumnStats, ReadTxn};
use trac_types::DataType;

/// The abstract state at one plan operator: the strongest [`LaneCert`]
/// provable for every base-table lane live in the tuple stream there.
pub type TypeState = BTreeMap<(usize, usize), LaneCert>;

/// Independently re-derives the strongest certificate the schema and
/// the write-time catalog statistics justify for every lane of every
/// bound table — the same soundness argument the lowering makes,
/// recomputed from the raw inputs instead of trusted.
pub fn derive_cert(txn: &ReadTxn, q: &BoundSelect) -> KernelCert {
    let mut cert = KernelCert::default();
    for (pos, bt) in q.tables.iter().enumerate() {
        let stats = txn.table_stats(bt.id);
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

/// Postorder abstract interpretation of `plan` in the lane domain.
/// Leaves seed the state from `derived` (schema + statistics); every
/// operator's transfer function then refines it: a tuple surviving a
/// comparison conjunct cannot hold NULL in any column the comparison
/// reads (three-valued logic evaluates it to UNKNOWN, not TRUE), an
/// equality probe key is non-null on both sides, and shaping operators
/// pass lane facts through unchanged. Returns the state at the root
/// (empty once tuples have been projected into output rows, which carry
/// no base-table lanes).
pub fn propagate(plan: &PhysicalPlan, derived: &KernelCert) -> TypeState {
    transfer(&plan.root, derived)
}

fn transfer(node: &PlanNode, derived: &KernelCert) -> TypeState {
    match node {
        PlanNode::Empty { .. } => TypeState::new(),
        PlanNode::Scan { pos, filter, .. } => {
            let mut state = seed(*pos, derived);
            refine_all(&mut state, filter);
            state
        }
        PlanNode::IndexLookup {
            pos,
            column,
            filter,
            ..
        } => {
            // The probe matches index keys against literals: a NULL key
            // is stored under no literal, so matched rows are non-null
            // in the probed column.
            let mut state = seed(*pos, derived);
            set_non_null(&mut state, (*pos, *column));
            refine_all(&mut state, filter);
            state
        }
        PlanNode::NLJoin {
            outer,
            inner,
            filter,
            ..
        } => {
            let mut state = transfer(outer, derived);
            state.extend(transfer(inner, derived));
            refine_all(&mut state, filter);
            state
        }
        PlanNode::HashJoin {
            outer,
            inner,
            inner_col,
            outer_key,
            filter,
            ..
        } => {
            let mut state = transfer(outer, derived);
            let inner_state = transfer(inner, derived);
            // The inner position is the maximum slot of the inner
            // subtree (a single leaf in this lowering).
            let inner_pos = inner_state.keys().map(|(p, _)| *p).max();
            state.extend(inner_state);
            // An equi-join emits only rows whose keys compared equal:
            // NULL keys never match, so both sides are non-null.
            set_non_null(&mut state, (outer_key.table, outer_key.column));
            if let Some(p) = inner_pos {
                set_non_null(&mut state, (p, *inner_col));
            }
            refine_all(&mut state, filter);
            state
        }
        PlanNode::IndexNLJoin {
            outer,
            pos,
            inner_col,
            outer_key,
            filter,
            ..
        } => {
            let mut state = transfer(outer, derived);
            state.extend(seed(*pos, derived));
            set_non_null(&mut state, (outer_key.table, outer_key.column));
            set_non_null(&mut state, (*pos, *inner_col));
            refine_all(&mut state, filter);
            state
        }
        PlanNode::TopNIndex { pos, filter, .. } => {
            let mut state = seed(*pos, derived);
            refine_all(&mut state, filter);
            state
        }
        // The aggregate fast paths and the shaping tail of the plan emit
        // output rows, not base-table tuples: no lanes flow further.
        PlanNode::CountStar { .. }
        | PlanNode::IndexMinMax { .. }
        | PlanNode::Project { .. }
        | PlanNode::Aggregate { .. } => TypeState::new(),
        PlanNode::Filter { input, predicate } => {
            let mut state = transfer(input, derived);
            refine_all(&mut state, predicate);
            state
        }
        PlanNode::Exists { input }
        | PlanNode::Sort { input, .. }
        | PlanNode::Distinct { input }
        | PlanNode::Limit { input, .. } => transfer(input, derived),
    }
}

/// Seeds the state of one leaf: every lane of the table at FROM
/// position `pos`, at the strength the schema and statistics justify.
fn seed(pos: usize, derived: &KernelCert) -> TypeState {
    derived
        .iter()
        .filter(|((p, _), _)| *p == pos)
        .map(|(k, l)| (*k, *l))
        .collect()
}

fn set_non_null(state: &mut TypeState, lane: (usize, usize)) {
    if let Some(l) = state.get_mut(&lane) {
        l.non_null = true;
    }
}

/// Refines `state` with every conjunct of an enforced filter: a tuple
/// the filter passed satisfied each conjunct as `TRUE`.
fn refine_all(state: &mut TypeState, conjuncts: &[BoundExpr]) {
    for c in conjuncts {
        refine(state, c);
    }
}

/// One conjunct known `TRUE` of every surviving tuple. Comparisons and
/// arithmetic propagate NULL (three-valued logic yields UNKNOWN, never
/// TRUE), so every column they read is non-null; `AND` distributes;
/// `x IS NOT NULL` over a bare column is the explicit form. `OR`, `NOT`
/// and negated forms refine nothing — soundly over-approximate.
fn refine(state: &mut TypeState, term: &BoundExpr) {
    match term {
        BoundExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
            for c in lhs.references().into_iter().chain(rhs.references()) {
                set_non_null(state, (c.table, c.column));
            }
        }
        BoundExpr::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } => {
            refine(state, lhs);
            refine(state, rhs);
        }
        BoundExpr::InList {
            expr,
            negated: false,
            ..
        } => {
            for c in expr.references() {
                set_non_null(state, (c.table, c.column));
            }
        }
        BoundExpr::IsNull {
            expr,
            negated: true,
        } => {
            if let BoundExpr::Column(c) = expr.as_ref() {
                set_non_null(state, (c.table, c.column));
            }
        }
        _ => {}
    }
}

/// Diffs the *claimed* certificate against the independently derived
/// one: every claim must be entailed by what the schema and statistics
/// prove (`TRAC023` otherwise). Weaker-than-provable claims are sound
/// and pass silently.
pub fn check_cert(
    claimed: &KernelCert,
    derived: &KernelCert,
    tables: &[BoundTable],
    context: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (&(pos, col), claim) in claimed.iter() {
        let Some(bt) = tables.get(pos) else {
            out.push(Diagnostic::new(
                TYPE_UNSOUND,
                context,
                format!("certificate covers FROM position #{pos}, which binds no table"),
            ));
            continue;
        };
        let lane = format!("{}.#{col}", bt.binding);
        let Some(truth) = derived.get(pos, col) else {
            out.push(Diagnostic::new(
                TYPE_UNSOUND,
                context,
                format!("certificate covers lane {lane}, which does not exist in the schema"),
            ));
            continue;
        };
        if claim.ty != truth.ty {
            out.push(Diagnostic::new(
                TYPE_UNSOUND,
                context,
                format!(
                    "lane {lane} is certified {} but the schema declares {}: an unboxed \
                     kernel would reinterpret every value",
                    claim.ty.sql_name(),
                    truth.ty.sql_name()
                ),
            ));
        }
        if claim.non_null && !truth.non_null {
            out.push(Diagnostic::new(
                TYPE_UNSOUND,
                context,
                format!(
                    "lane {lane} is certified null-free, but the schema admits NULL and \
                     the catalog null counter cannot rule one out: a bitmap-less kernel \
                     would read a NULL as a value",
                ),
            ));
        }
        if claim.nan_free && !truth.nan_free {
            out.push(Diagnostic::new(
                TYPE_UNSOUND,
                context,
                format!(
                    "float lane {lane} is certified NaN-free, but the catalog bounds \
                     admit NaN: total-order kernels would disagree with SQL comparison",
                ),
            ));
        }
    }
    out
}

/// Formats one certified lane as `binding.column:marker` for the
/// aggregated positive-certification notes.
fn lane_label(tables: &[BoundTable], pos: usize, col: usize, lane: &LaneCert) -> String {
    let binding = tables.get(pos).map_or("?", |bt| bt.binding.as_str());
    let column = tables
        .get(pos)
        .and_then(|bt| bt.schema.columns.get(col))
        .map_or("?", |c| c.name.as_str());
    format!("{binding}.{column}:{}", lane.marker())
}

/// Caps a lane list for note messages.
fn join_capped(mut labels: Vec<String>) -> String {
    const CAP: usize = 8;
    if labels.len() > CAP {
        let extra = labels.len() - CAP;
        labels.truncate(CAP);
        labels.push(format!("… {extra} more"));
    }
    labels.join(", ")
}

/// Audits one claimed plan: re-derives the certificate, interprets the
/// plan postorder (an inconsistent claim surfaces as `TRAC023`), and —
/// when the claims all re-derive — emits the aggregated positive
/// certifications `TRAC024`/`TRAC025`/`TRAC026`, each listing its lanes
/// with their `[typed:…]` markers and the precise reason weaker lanes
/// fell short.
pub fn check_plan(
    txn: &ReadTxn,
    q: &BoundSelect,
    plan: &PhysicalPlan,
    context: &str,
) -> Vec<Diagnostic> {
    let derived = derive_cert(txn, q);
    let mut out = check_cert(&plan.cert, &derived, &q.tables, context);
    // Internal consistency of the interpretation itself: refinement may
    // only strengthen the seeded lanes, never change a type.
    let root = propagate(plan, &derived);
    for (&(pos, col), lane) in &root {
        if let Some(seeded) = derived.get(pos, col) {
            if lane.ty != seeded.ty {
                out.push(Diagnostic::new(
                    TYPE_UNSOUND,
                    context,
                    format!(
                        "abstract interpretation changed the type of lane #{pos}.#{col} \
                         from {} to {}: transfer functions must be monotone",
                        seeded.ty.sql_name(),
                        lane.ty.sql_name()
                    ),
                ));
            }
        }
    }
    if out.iter().any(Diagnostic::is_error) || plan.cert.is_empty() {
        return out;
    }
    let mut unboxed = Vec::new();
    let mut masked = Vec::new();
    let mut total_order = Vec::new();
    let mut nan_possible = false;
    for (&(pos, col), lane) in plan.cert.iter() {
        let label = lane_label(&q.tables, pos, col, lane);
        if lane.non_null {
            unboxed.push(label.clone());
        } else {
            masked.push(label.clone());
        }
        if lane.ty == DataType::Float {
            if lane.nan_free {
                total_order.push(label);
            } else {
                nan_possible = true;
            }
        }
    }
    // Precise reason for every lane that fell short of the strongest
    // class: the markers themselves carry it (`?` = nullable with a
    // bitmap, `~` = NaN-admitting bounds), spelled out once per note.
    let caveat = if nan_possible {
        "; lanes marked `~` have NaN-admitting catalog bounds and are excluded from \
         total-order kernels"
    } else {
        ""
    };
    if !unboxed.is_empty() {
        out.push(Diagnostic::new(
            KERNEL_CERTIFIED,
            context,
            format!(
                "certified {} mono-typed null-free lane(s) for unboxed kernels: {}{caveat}",
                unboxed.len(),
                join_capped(unboxed)
            ),
        ));
    }
    if !masked.is_empty() {
        out.push(Diagnostic::new(
            NULLMASK_CERTIFIED,
            context,
            format!(
                "certified {} mono-typed lane(s) for null-bitmap kernels (schema admits \
                 NULL and the catalog null counter cannot rule it out): {}{caveat}",
                masked.len(),
                join_capped(masked)
            ),
        ));
    }
    if !total_order.is_empty() {
        out.push(Diagnostic::new(
            FLOAT_TOTAL_ORDER,
            context,
            format!(
                "certified {} stats-proven NaN-free float lane(s): SQL comparison and \
                 the storage total order coincide on {}",
                total_order.len(),
                join_capped(total_order)
            ),
        ));
    }
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use trac_types::Value;

    fn lane(ty: DataType, non_null: bool) -> LaneCert {
        LaneCert {
            ty,
            non_null,
            nan_free: ty != DataType::Float,
        }
    }

    fn cmp(col: (usize, usize), op: BinaryOp) -> BoundExpr {
        BoundExpr::binary(
            op,
            BoundExpr::col(col.0, col.1),
            BoundExpr::Literal(Value::Int(1)),
        )
    }

    #[test]
    fn comparisons_refine_nullability() {
        // A tuple surviving `c > 1` cannot hold NULL in c; OR branches
        // refine nothing (either side may be UNKNOWN).
        let mut state = TypeState::from([((0, 0), lane(DataType::Int, false))]);
        refine(&mut state, &cmp((0, 0), BinaryOp::Gt));
        assert!(state[&(0, 0)].non_null);

        let mut state = TypeState::from([
            ((0, 0), lane(DataType::Int, false)),
            ((0, 1), lane(DataType::Int, false)),
        ]);
        refine(
            &mut state,
            &BoundExpr::binary(
                BinaryOp::Or,
                cmp((0, 0), BinaryOp::Eq),
                cmp((0, 1), BinaryOp::Eq),
            ),
        );
        assert!(!state[&(0, 0)].non_null);
        assert!(!state[&(0, 1)].non_null);

        // AND distributes into both conjuncts.
        let mut state = TypeState::from([
            ((0, 0), lane(DataType::Int, false)),
            ((0, 1), lane(DataType::Int, false)),
        ]);
        refine(
            &mut state,
            &BoundExpr::binary(
                BinaryOp::And,
                cmp((0, 0), BinaryOp::Eq),
                BoundExpr::IsNull {
                    expr: Box::new(BoundExpr::col(0, 1)),
                    negated: true,
                },
            ),
        );
        assert!(state[&(0, 0)].non_null);
        assert!(state[&(0, 1)].non_null);
    }

    #[test]
    fn cert_diff_flags_unknown_lanes_and_weaker_truths() {
        let derived = {
            let mut c = KernelCert::default();
            c.insert(0, 0, lane(DataType::Text, false));
            c
        };
        // Claiming a lane at a FROM position that binds no table, a
        // column the schema lacks, and strength the stats refute.
        let mut claimed = KernelCert::default();
        claimed.insert(3, 0, lane(DataType::Text, false));
        claimed.insert(0, 9, lane(DataType::Text, false));
        claimed.insert(0, 0, lane(DataType::Text, true));
        let diags = check_cert(&claimed, &derived, &[], "t");
        // With no tables bound, every position is unknown.
        assert_eq!(diags.len(), 3);
        assert!(diags.iter().all(|d| d.code.id == TYPE_UNSOUND.id));
        // Weaker-than-provable claims are sound.
        let weak = {
            let mut c = KernelCert::default();
            c.insert(0, 0, lane(DataType::Text, false));
            c
        };
        let strong = {
            let mut c = KernelCert::default();
            c.insert(0, 0, lane(DataType::Text, true));
            c
        };
        assert!(check_cert(&weak, &strong, &[], "t")
            .iter()
            .all(|d| d.message.contains("binds no table")));
    }
}
