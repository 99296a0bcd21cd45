//! Abstract-domain dataflow over the physical-plan IR.
//!
//! The translation validator ([`crate::passes::validate`]) needs, for
//! every operator of a [`PhysicalPlan`], a sound description of the
//! tuples that operator can emit. This module computes that description
//! as a set of abstract **facts** per operator:
//!
//! * `slots` — which FROM positions are populated in emitted tuples;
//! * `enforced` — predicates guaranteed `TRUE` of every emitted tuple
//!   (leaf filters, join filters, residual filters, and nothing else);
//! * `equiv` — equivalence classes of columns forced equal by enforced
//!   equality conjuncts (join keys);
//! * `shaped` — `Some(width)` once tuples have been projected into
//!   output rows of that width;
//! * `distinct` / `sort` / `row_bound` — output-shape facts.
//!
//! The engine is a fixpoint computation over the operator graph. Plans
//! are trees (each operator has exactly one parent), so the fixpoint is
//! reached in a single postorder pass: every transfer function sees its
//! children's final facts before it runs. The per-operator **transfer
//! functions** both produce the output facts and check the operator's
//! local contract, reporting violations as [`Finding`]s which the
//! validator pass converts into spanned diagnostics:
//!
//! * slot discipline (leaves read the table their slot claims, joins
//!   combine disjoint slot sets, predicates reference only populated
//!   slots, and nothing above an `Exists` reads the slots of the one
//!   witness tuple it kept) — [`OPERATOR_CONTRACT`];
//! * join-key contracts (key types unify, the probed key pair matches an
//!   enforced equality conjunct) — [`JOIN_KEY_CONTRACT`];
//! * index-probe justification (probe keys derive from an enforced
//!   conjunct) — [`RESIDUE_PHANTOM`];
//! * shaping discipline (Filter/Sort run before projection, Distinct and
//!   Limit after, and a Distinct above every `Exists`) —
//!   [`SHAPE_MISMATCH`].

use crate::diag::{Code, JOIN_KEY_CONTRACT, OPERATOR_CONTRACT, RESIDUE_PHANTOM, SHAPE_MISMATCH};
use std::collections::{BTreeMap, BTreeSet};
use trac_expr::{BoundExpr, BoundSelect, ColRef, Projection};
use trac_plan::{probe_candidate, PhysicalPlan, PlanNode};
use trac_sql::BinaryOp;

/// One contract violation found while propagating facts. The validator
/// pass turns findings into [`crate::Diagnostic`]s, attaching the span
/// of `term` (when present) in the analyzed SQL.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which stable code the violation maps to.
    pub code: Code,
    /// Human-readable description.
    pub message: String,
    /// A bound term to locate the finding in the SQL, when one exists.
    pub term: Option<BoundExpr>,
}

impl Finding {
    fn new(code: Code, message: impl Into<String>) -> Finding {
        Finding {
            code,
            message: message.into(),
            term: None,
        }
    }

    fn with_term(mut self, term: &BoundExpr) -> Finding {
        self.term = Some(term.clone());
        self
    }
}

/// Abstract facts describing the output of one plan operator.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// FROM positions populated in emitted tuples.
    pub slots: BTreeSet<usize>,
    /// Predicates guaranteed `TRUE` of every emitted tuple (deduplicated
    /// structurally).
    pub enforced: Vec<BoundExpr>,
    /// Equivalence classes of columns forced equal by enforced equality
    /// conjuncts.
    pub equiv: Vec<BTreeSet<ColRef>>,
    /// `Some(width)` once tuples were projected into rows of `width`
    /// columns; `None` while positional tuples are still flowing.
    pub shaped: Option<usize>,
    /// Output rows are duplicate-free.
    pub distinct: bool,
    /// Output order, as `(key, descending)` pairs; empty when unordered.
    pub sort: Vec<(BoundExpr, bool)>,
    /// Proven upper bound on emitted rows, where one exists.
    pub row_bound: Option<u64>,
    /// The subtree is statically empty (an [`PlanNode::Empty`] leaf).
    pub empty: bool,
    /// Slots an [`PlanNode::Exists`] below filled with the one witness
    /// tuple it kept: populated, but no operator above may read them,
    /// and a `Distinct` must make the output independent of them.
    pub witness: BTreeSet<usize>,
}

impl Facts {
    fn add_enforced(&mut self, term: &BoundExpr) {
        if !self.enforced.contains(term) {
            self.enforced.push(term.clone());
        }
        // Track column-equality conjuncts as key equivalence classes.
        if let BoundExpr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } = term
        {
            if let (BoundExpr::Column(a), BoundExpr::Column(b)) = (lhs.as_ref(), rhs.as_ref()) {
                self.merge_equiv(*a, *b);
            }
        }
    }

    fn merge_equiv(&mut self, a: ColRef, b: ColRef) {
        let ia = self.equiv.iter().position(|c| c.contains(&a));
        let ib = self.equiv.iter().position(|c| c.contains(&b));
        match (ia, ib) {
            (Some(i), Some(j)) if i != j => {
                // Removing the larger index cannot displace the smaller.
                let (keep, drop) = (i.min(j), i.max(j));
                let merged = self.equiv.swap_remove(drop);
                self.equiv[keep].extend(merged);
            }
            (Some(_), Some(_)) => {}
            (Some(i), None) => {
                self.equiv[i].insert(b);
            }
            (None, Some(j)) => {
                self.equiv[j].insert(a);
            }
            (None, None) => {
                self.equiv.push(BTreeSet::from([a, b]));
            }
        }
    }

    /// Whether the enforced set contains an equality conjunct between
    /// exactly the columns `a` and `b` (in either order).
    pub fn justifies_key(&self, a: ColRef, b: ColRef) -> bool {
        self.enforced.iter().any(|t| {
            let BoundExpr::Binary {
                op: BinaryOp::Eq,
                lhs,
                rhs,
            } = t
            else {
                return false;
            };
            matches!(
                (lhs.as_ref(), rhs.as_ref()),
                (BoundExpr::Column(x), BoundExpr::Column(y))
                    if (*x == a && *y == b) || (*x == b && *y == a)
            )
        })
    }

    /// Compact one-line summary for EXPLAIN fact annotations, with slot
    /// positions rendered as binding names of `q`.
    pub fn summary(&self, q: &BoundSelect) -> String {
        let mut parts = Vec::new();
        if self.empty {
            parts.push("empty".to_string());
        }
        let bindings: Vec<&str> = self
            .slots
            .iter()
            .filter_map(|s| q.tables.get(*s).map(|t| t.binding.as_str()))
            .collect();
        if !bindings.is_empty() {
            parts.push(format!("slots={{{}}}", bindings.join(",")));
        }
        if !self.enforced.is_empty() {
            parts.push(format!("preds={}", self.enforced.len()));
        }
        for class in &self.equiv {
            let cols: Vec<String> = class
                .iter()
                .map(|c| {
                    q.tables.get(c.table).map_or_else(
                        || format!("#{}.{}", c.table, c.column),
                        |t| {
                            format!(
                                "{}.{}",
                                t.binding,
                                t.schema
                                    .columns
                                    .get(c.column)
                                    .map_or("?", |col| col.name.as_str())
                            )
                        },
                    )
                })
                .collect();
            parts.push(format!("keys[{}]", cols.join("=")));
        }
        if let Some(w) = self.shaped {
            parts.push(format!("width={w}"));
        }
        if self.distinct {
            parts.push("distinct".to_string());
        }
        if !self.sort.is_empty() {
            parts.push(format!("sorted({} keys)", self.sort.len()));
        }
        if let Some(n) = self.row_bound {
            parts.push(format!("rows<={n}"));
        }
        parts.join(" ")
    }
}

/// Identity key for facts lookup: the operator's address inside the
/// (immutably borrowed) plan tree. Stable for the borrow's lifetime.
pub fn node_key(node: &PlanNode) -> usize {
    std::ptr::from_ref(node) as usize
}

/// Result of propagating facts over one plan: per-operator facts keyed
/// by [`node_key`], plus every contract violation found on the way.
pub struct FactMap {
    /// Facts per operator.
    pub facts: BTreeMap<usize, Facts>,
    /// Contract violations, in postorder discovery order.
    pub findings: Vec<Finding>,
}

impl FactMap {
    /// Facts computed for `node`, if the walk reached it.
    pub fn get(&self, node: &PlanNode) -> Option<&Facts> {
        self.facts.get(&node_key(node))
    }
}

/// Runs the dataflow engine over `plan` against its source query `q`:
/// one postorder pass (the tree fixpoint) computing facts per operator
/// and collecting every local contract violation.
pub fn propagate(q: &BoundSelect, plan: &PhysicalPlan) -> FactMap {
    let mut map = FactMap {
        facts: BTreeMap::new(),
        findings: Vec::new(),
    };
    let root = transfer(q, &plan.root, &mut map);
    if !root.witness.is_empty() && !root.distinct {
        map.findings.push(Finding::new(
            SHAPE_MISMATCH,
            "an Exists keeps one arbitrary tuple, but no Distinct above it makes \
             the output independent of which",
        ));
    }
    map
}

/// Checks that every column `term` references lies in a slot `facts`
/// populates, and in none an `Exists` below filled with its witness.
fn check_scope(
    q: &BoundSelect,
    term: &BoundExpr,
    facts: &Facts,
    what: &str,
    out: &mut Vec<Finding>,
) {
    for c in term.references() {
        if facts.witness.contains(&c.table) {
            out.push(
                Finding::new(
                    OPERATOR_CONTRACT,
                    format!(
                        "{what} reads slot #{}, which holds the one arbitrary tuple an \
                         Exists below it kept",
                        c.table
                    ),
                )
                .with_term(term),
            );
            return;
        }
        if !facts.slots.contains(&c.table) {
            out.push(
                Finding::new(
                    OPERATOR_CONTRACT,
                    format!(
                        "{what} references slot #{} which its input does not populate",
                        c.table
                    ),
                )
                .with_term(term),
            );
            return;
        }
        if q.tables
            .get(c.table)
            .is_none_or(|t| t.schema.columns.get(c.column).is_none())
        {
            out.push(
                Finding::new(
                    OPERATOR_CONTRACT,
                    format!(
                        "{what} references column #{} of slot #{}, which does not exist",
                        c.column, c.table
                    ),
                )
                .with_term(term),
            );
            return;
        }
    }
}

/// Leaf checks shared by `Scan` and `IndexLookup`: the slot claims the
/// right table and the filter stays within the slot.
fn leaf_facts(
    q: &BoundSelect,
    name: &str,
    table: &trac_expr::BoundTable,
    pos: usize,
    filter: &[BoundExpr],
    out: &mut Vec<Finding>,
) -> Facts {
    let mut facts = Facts {
        slots: BTreeSet::from([pos]),
        ..Facts::default()
    };
    match q.tables.get(pos) {
        None => out.push(Finding::new(
            OPERATOR_CONTRACT,
            format!(
                "{name} claims slot #{pos}, but the query has {} tables",
                q.tables.len()
            ),
        )),
        Some(bt) if bt.id != table.id => out.push(Finding::new(
            OPERATOR_CONTRACT,
            format!(
                "{name} at slot #{pos} reads `{}`, but the query binds `{}` there",
                table.binding, bt.binding
            ),
        )),
        Some(_) => {}
    }
    for term in filter {
        check_scope(q, term, &facts, &format!("{name} filter"), out);
        facts.add_enforced(term);
    }
    facts
}

/// Join-key contract shared by `HashJoin` and `IndexNLJoin`: the key
/// columns exist, their types unify, and the probed pair matches an
/// enforced equality conjunct (the probe must never restrict more than
/// the query does).
fn check_join_key(
    q: &BoundSelect,
    op: &str,
    inner_pos: usize,
    inner_col: usize,
    outer_key: ColRef,
    facts: &Facts,
    out: &mut Vec<Finding>,
) {
    let inner_ty = q
        .tables
        .get(inner_pos)
        .and_then(|t| t.schema.columns.get(inner_col))
        .map(|c| c.ty);
    let outer_ty = q
        .tables
        .get(outer_key.table)
        .and_then(|t| t.schema.columns.get(outer_key.column))
        .map(|c| c.ty);
    match (inner_ty, outer_ty) {
        (Some(a), Some(b)) if a == b => {}
        (Some(a), Some(b)) => out.push(Finding::new(
            JOIN_KEY_CONTRACT,
            format!("{op} key types do not unify: inner column is {a:?}, outer key is {b:?}"),
        )),
        _ => out.push(Finding::new(
            JOIN_KEY_CONTRACT,
            format!(
                "{op} key out of range: inner col#{inner_col} of slot #{inner_pos} \
                 or outer {}.{}",
                outer_key.table, outer_key.column
            ),
        )),
    }
    let inner_ref = ColRef {
        table: inner_pos,
        column: inner_col,
    };
    if !facts.justifies_key(inner_ref, outer_key) {
        out.push(Finding::new(
            JOIN_KEY_CONTRACT,
            format!(
                "{op} probes on a key pair matching no enforced equality conjunct \
                 (slot #{inner_pos} col#{inner_col} vs slot #{} col#{})",
                outer_key.table, outer_key.column
            ),
        ));
    }
}

/// Facts for the composition of two slot-disjoint inputs plus a join
/// filter (shared by all three join operators).
fn join_facts(
    q: &BoundSelect,
    op: &str,
    outer: Facts,
    inner: Facts,
    filter: &[BoundExpr],
    out: &mut Vec<Finding>,
) -> Facts {
    if !outer.slots.is_disjoint(&inner.slots) {
        out.push(Finding::new(
            OPERATOR_CONTRACT,
            format!(
                "{op} combines overlapping slot sets ({:?} and {:?})",
                outer.slots, inner.slots
            ),
        ));
    }
    if outer.shaped.is_some() || inner.shaped.is_some() {
        out.push(Finding::new(
            SHAPE_MISMATCH,
            format!("{op} consumes an already-projected input"),
        ));
    }
    let mut facts = Facts {
        slots: outer.slots.union(&inner.slots).copied().collect(),
        empty: outer.empty || inner.empty,
        witness: outer.witness.union(&inner.witness).copied().collect(),
        ..Facts::default()
    };
    for term in outer.enforced.iter().chain(&inner.enforced) {
        facts.add_enforced(term);
    }
    for term in filter {
        check_scope(q, term, &facts, &format!("{op} filter"), out);
        facts.add_enforced(term);
    }
    facts
}

/// The per-operator transfer function (postorder).
fn transfer(q: &BoundSelect, node: &PlanNode, map: &mut FactMap) -> Facts {
    let out = &mut map.findings;
    let facts = match node {
        PlanNode::Empty { .. } => Facts {
            // An Empty leaf stands in for the whole FROM list: it emits
            // nothing, so every slot is vacuously populated.
            slots: (0..q.tables.len()).collect(),
            row_bound: Some(0),
            empty: true,
            ..Facts::default()
        },
        PlanNode::Scan {
            table, pos, filter, ..
        } => leaf_facts(q, "Scan", table, *pos, filter, out),
        PlanNode::IndexLookup {
            table,
            pos,
            column,
            keys,
            filter,
            ..
        } => {
            let facts = leaf_facts(q, "IndexLookup", table, *pos, filter, out);
            // The probe restricts rows to `column ∈ keys`; that is only
            // sound if an enforced conjunct of this very leaf implies it.
            let justified = facts.enforced.iter().any(|t| {
                probe_candidate(t, *pos, &table.schema).is_some_and(|(col, cand)| {
                    col == *column && keys.iter().all(|k| cand.contains(k))
                })
            });
            if !justified {
                out.push(Finding::new(
                    RESIDUE_PHANTOM,
                    format!(
                        "IndexLookup probes col#{column} with {} keys, but no \
                         enforced conjunct justifies the restriction",
                        keys.len()
                    ),
                ));
            }
            facts
        }
        PlanNode::NLJoin {
            outer,
            inner,
            filter,
            ..
        } => {
            let of = transfer(q, outer, map);
            let inf = transfer(q, inner, map);
            require_leaf(inner, "NLJoin inner side", &mut map.findings);
            join_facts(q, "NLJoin", of, inf, filter, &mut map.findings)
        }
        PlanNode::HashJoin {
            outer,
            inner,
            inner_col,
            outer_key,
            filter,
            ..
        } => {
            let of = transfer(q, outer, map);
            let inf = transfer(q, inner, map);
            require_leaf(inner, "HashJoin build side", &mut map.findings);
            let inner_pos = leaf_pos(inner);
            let facts = join_facts(q, "HashJoin", of, inf, filter, &mut map.findings);
            if let Some(pos) = inner_pos {
                check_join_key(
                    q,
                    "HashJoin",
                    pos,
                    *inner_col,
                    *outer_key,
                    &facts,
                    &mut map.findings,
                );
            }
            facts
        }
        PlanNode::IndexNLJoin {
            outer,
            table,
            pos,
            inner_col,
            outer_key,
            filter,
            ..
        } => {
            let of = transfer(q, outer, map);
            // The probed table never materializes as a child leaf; model
            // it as a filterless leaf at `pos`.
            let inf = leaf_facts(q, "IndexNLJoin", table, *pos, &[], &mut map.findings);
            let facts = join_facts(q, "IndexNLJoin", of, inf, filter, &mut map.findings);
            check_join_key(
                q,
                "IndexNLJoin",
                *pos,
                *inner_col,
                *outer_key,
                &facts,
                &mut map.findings,
            );
            facts
        }
        PlanNode::CountStar { table, .. } => {
            check_single_table(q, "CountStar", table, out);
            // The fast path emits one already-shaped row: the count.
            Facts {
                slots: BTreeSet::from([0]),
                shaped: Some(1),
                row_bound: Some(1),
                ..Facts::default()
            }
        }
        PlanNode::IndexMinMax { table, column, .. } => {
            check_single_table(q, "IndexMinMax", table, out);
            if q.tables
                .first()
                .is_some_and(|t| t.schema.columns.get(*column).is_none())
            {
                out.push(Finding::new(
                    OPERATOR_CONTRACT,
                    format!("IndexMinMax aggregates column #{column}, which does not exist"),
                ));
            }
            // One already-shaped row: the extreme (or NULL).
            Facts {
                slots: BTreeSet::from([0]),
                shaped: Some(1),
                row_bound: Some(1),
                ..Facts::default()
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
            // A leaf with extra output-shape facts: the ordered index
            // walk emits tuples sorted by `column` and stops at `n`.
            let mut facts = leaf_facts(q, "TopNIndex", table, *pos, filter, out);
            if q.tables
                .get(*pos)
                .is_some_and(|t| t.schema.columns.get(*column).is_none())
            {
                out.push(Finding::new(
                    OPERATOR_CONTRACT,
                    format!("TopNIndex walks column #{column}, which does not exist"),
                ));
            }
            facts.sort = vec![(
                BoundExpr::Column(ColRef {
                    table: *pos,
                    column: *column,
                }),
                *desc,
            )];
            facts.row_bound = Some(*n);
            facts
        }
        PlanNode::Exists { input } => {
            let mut facts = transfer(q, input, map);
            if facts.shaped.is_some() {
                map.findings.push(Finding::new(
                    SHAPE_MISMATCH,
                    "Exists consumes an already-projected input",
                ));
            }
            facts.witness.clone_from(&facts.slots);
            facts.row_bound = Some(1);
            facts
        }
        PlanNode::Filter { input, predicate } => {
            let mut facts = transfer(q, input, map);
            if facts.shaped.is_some() {
                map.findings.push(Finding::new(
                    SHAPE_MISMATCH,
                    "Filter runs above the shaping stack (its predicate would see \
                     projected rows, not positional tuples)",
                ));
            }
            for term in predicate {
                check_scope(q, term, &facts, "Filter predicate", &mut map.findings);
                facts.add_enforced(term);
            }
            facts
        }
        PlanNode::Sort { input, keys } => {
            let mut facts = transfer(q, input, map);
            if facts.shaped.is_some() {
                map.findings.push(Finding::new(
                    SHAPE_MISMATCH,
                    "Sort runs above Project (its keys would see projected rows, \
                     not positional tuples)",
                ));
            }
            for (key, _) in keys {
                check_scope(q, key, &facts, "Sort key", &mut map.findings);
            }
            facts.sort = keys.clone();
            facts
        }
        PlanNode::Project { input, projections } => {
            let mut facts = transfer(q, input, map);
            if facts.shaped.is_some() {
                map.findings.push(Finding::new(
                    SHAPE_MISMATCH,
                    "Project consumes an already-projected input",
                ));
            }
            for p in projections {
                match p {
                    Projection::Scalar { expr, .. } => {
                        check_scope(q, expr, &facts, "Project expression", &mut map.findings);
                    }
                    Projection::Aggregate { .. } => map.findings.push(Finding::new(
                        OPERATOR_CONTRACT,
                        "Project carries an aggregate projection (aggregates belong \
                         in Aggregate)",
                    )),
                }
            }
            facts.shaped = Some(projections.len());
            facts
        }
        PlanNode::Aggregate {
            input,
            group_by,
            projections,
            having,
            order_by,
            limit,
        } => {
            let mut facts = transfer(q, input, map);
            if facts.shaped.is_some() {
                map.findings.push(Finding::new(
                    SHAPE_MISMATCH,
                    "Aggregate consumes an already-projected input",
                ));
            }
            for key in group_by {
                check_scope(q, key, &facts, "Aggregate grouping key", &mut map.findings);
            }
            for p in projections {
                match p {
                    Projection::Scalar { expr, .. } => {
                        check_scope(
                            q,
                            expr,
                            &facts,
                            "Aggregate scalar projection",
                            &mut map.findings,
                        );
                        // A scalar output of a grouped aggregate must be
                        // one of the grouping expressions.
                        if !group_by.is_empty() && !group_by.contains(expr) {
                            map.findings.push(
                                Finding::new(
                                    OPERATOR_CONTRACT,
                                    "Aggregate projects a scalar that is not a \
                                     grouping expression",
                                )
                                .with_term(expr),
                            );
                        }
                    }
                    Projection::Aggregate { arg: Some(a), .. } => {
                        check_scope(q, a, &facts, "aggregate argument", &mut map.findings);
                    }
                    Projection::Aggregate { arg: None, .. } => {}
                }
            }
            if let Some(h) = having {
                // HAVING references real columns plus synthetic aggregate
                // markers at the dedicated marker table index.
                let mut with_marker = facts.slots.clone();
                with_marker.insert(h.agg_table);
                for c in h.predicate.references() {
                    if !with_marker.contains(&c.table) {
                        map.findings.push(Finding::new(
                            OPERATOR_CONTRACT,
                            format!(
                                "HAVING references slot #{} which its input does not \
                                 populate",
                                c.table
                            ),
                        ));
                    }
                }
            }
            for (key, _) in order_by {
                check_scope(q, key, &facts, "Aggregate ORDER BY key", &mut map.findings);
            }
            facts.shaped = Some(projections.len());
            facts.sort = order_by.clone();
            facts.row_bound = match (facts.row_bound, *limit) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            facts
        }
        PlanNode::Distinct { input } => {
            let mut facts = transfer(q, input, map);
            if facts.shaped.is_none() {
                map.findings.push(Finding::new(
                    SHAPE_MISMATCH,
                    "Distinct runs below Project (it would deduplicate positional \
                     tuples, not output rows)",
                ));
            }
            facts.distinct = true;
            facts
        }
        PlanNode::Limit { input, n } => {
            let mut facts = transfer(q, input, map);
            if facts.shaped.is_none() {
                map.findings.push(Finding::new(
                    SHAPE_MISMATCH,
                    "Limit runs below Project (it would truncate positional tuples, \
                     not output rows)",
                ));
            }
            facts.row_bound = Some(facts.row_bound.map_or(*n, |b| b.min(*n)));
            facts
        }
    };
    map.facts.insert(node_key(node), facts.clone());
    facts
}

/// Aggregate fast-path roots answer a single-table query from storage;
/// they must read the one (and only) bound table.
fn check_single_table(
    q: &BoundSelect,
    name: &str,
    table: &trac_expr::BoundTable,
    out: &mut Vec<Finding>,
) {
    if q.tables.len() != 1 {
        out.push(Finding::new(
            OPERATOR_CONTRACT,
            format!(
                "{name} answers a single-table query, but the query binds {} tables",
                q.tables.len()
            ),
        ));
    } else if q.tables.first().is_some_and(|bt| bt.id != table.id) {
        out.push(Finding::new(
            OPERATOR_CONTRACT,
            format!(
                "{name} reads `{}`, but the query binds a different table",
                table.binding
            ),
        ));
    }
}

/// Join inner sides must be access leaves.
fn require_leaf(node: &PlanNode, what: &str, out: &mut Vec<Finding>) {
    if !matches!(node, PlanNode::Scan { .. } | PlanNode::IndexLookup { .. }) {
        out.push(Finding::new(
            OPERATOR_CONTRACT,
            format!("{what} is a {}, not an access leaf", node.name()),
        ));
    }
}

/// The FROM position a leaf populates, if `node` is a leaf.
fn leaf_pos(node: &PlanNode) -> Option<usize> {
    match node {
        PlanNode::Scan { pos, .. } | PlanNode::IndexLookup { pos, .. } => Some(*pos),
        _ => None,
    }
}
