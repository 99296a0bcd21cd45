//! The typed physical-plan IR.

use crate::access::AccessPath;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use trac_expr::bound::{AggFunc, BoundHaving};
use trac_expr::{BoundExpr, BoundTable, ColRef, KernelCert, Projection};
use trac_types::Value;

/// One operator of a physical plan.
///
/// The relational part of a plan is a left-deep tree in FROM order:
/// leaves read single tables, join nodes attach one further table to an
/// already-joined outer subtree. Tuples flowing between operators are
/// positional — slot `i` holds the row of the `i`-th FROM table — so
/// every [`BoundExpr`] of the original query evaluates unchanged.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// A statically pruned input (a constant-false conjunct): produces
    /// no tuples and never touches the listed tables.
    Empty {
        /// Binding names of the tables that were pruned away.
        bindings: Vec<String>,
    },
    /// Sequential scan of one table with residual single-table filters.
    Scan {
        /// The table being read.
        table: BoundTable,
        /// The table's FROM position (= its tuple slot).
        pos: usize,
        /// Single-table conjuncts applied while scanning.
        filter: Vec<BoundExpr>,
        /// Estimated output rows (EXPLAIN annotation only).
        est_rows: u64,
        /// Estimated cost in abstract row-touch units (EXPLAIN only).
        cost: u64,
    },
    /// Index point/IN probe of one table with residual filters.
    IndexLookup {
        /// The table being read.
        table: BoundTable,
        /// The table's FROM position (= its tuple slot).
        pos: usize,
        /// Indexed column being probed.
        column: usize,
        /// Literal probe keys (sorted, deduplicated).
        keys: Vec<Value>,
        /// Single-table conjuncts re-applied after the probe.
        filter: Vec<BoundExpr>,
        /// Estimated output rows (EXPLAIN annotation only).
        est_rows: u64,
        /// Estimated cost in abstract row-touch units (EXPLAIN only).
        cost: u64,
    },
    /// Nested-loop join: for every outer tuple, every inner row.
    NLJoin {
        /// Already-joined outer subtree.
        outer: Box<PlanNode>,
        /// Inner side; always a [`PlanNode::Scan`] or
        /// [`PlanNode::IndexLookup`] leaf.
        inner: Box<PlanNode>,
        /// Join conjuncts applied to each combined tuple.
        filter: Vec<BoundExpr>,
        /// Estimated output rows (EXPLAIN annotation only).
        est_rows: u64,
        /// Estimated cost in abstract row-touch units (EXPLAIN only).
        cost: u64,
    },
    /// Hash join on one equi-key: build on the inner leaf, probe with
    /// each outer tuple.
    HashJoin {
        /// Already-joined outer subtree (probe side).
        outer: Box<PlanNode>,
        /// Inner side (build side); always a leaf.
        inner: Box<PlanNode>,
        /// Inner column of the equi-key.
        inner_col: usize,
        /// Outer column the key is matched against.
        outer_key: ColRef,
        /// Join conjuncts (including the equi-key itself, re-applied
        /// with SQL comparison semantics) applied to each match.
        filter: Vec<BoundExpr>,
        /// Estimated output rows (EXPLAIN annotation only).
        est_rows: u64,
        /// Estimated cost in abstract row-touch units (EXPLAIN only).
        cost: u64,
    },
    /// Index nested-loop join: probe the inner table's index once per
    /// outer tuple with the outer key value.
    IndexNLJoin {
        /// Already-joined outer subtree.
        outer: Box<PlanNode>,
        /// Inner table (probed through its index, never scanned).
        table: BoundTable,
        /// The inner table's FROM position (= its tuple slot).
        pos: usize,
        /// Indexed inner column of the equi-key.
        inner_col: usize,
        /// Outer column supplying the probe key.
        outer_key: ColRef,
        /// Conjuncts (single-table and join) applied to each match.
        filter: Vec<BoundExpr>,
        /// Estimated output rows (EXPLAIN annotation only).
        est_rows: u64,
        /// Estimated cost in abstract row-touch units (EXPLAIN only).
        cost: u64,
    },
    /// Fast path: `SELECT COUNT(*) FROM t` with no predicate, grouping
    /// or HAVING is answered from the storage layer's visible-row
    /// counter without materializing a single tuple. Always a plan
    /// root.
    CountStar {
        /// The counted table.
        table: BoundTable,
        /// Output column name of the single projection.
        name: String,
        /// Estimated count (EXPLAIN annotation only).
        est_rows: u64,
        /// Estimated cost in abstract row-touch units (EXPLAIN only).
        cost: u64,
    },
    /// Fast path: a single `MIN(col)`/`MAX(col)` over one unfiltered
    /// table, answered by walking the ordered index on `col` to its
    /// first visible entry. Only emitted when `Value` order and SQL
    /// comparison agree on the column: any non-float type, or a float
    /// column whose catalog statistics prove it NaN-free (TRAC026 —
    /// without NaNs, `total_cmp` and `partial_cmp` coincide). The
    /// analyzer's fast-path pass re-derives that proof. Always a plan
    /// root.
    IndexMinMax {
        /// The aggregated table.
        table: BoundTable,
        /// Indexed column the extreme is taken over.
        column: usize,
        /// [`AggFunc::Min`] or [`AggFunc::Max`].
        func: AggFunc,
        /// Output column name of the single projection.
        name: String,
        /// Estimated output rows (always 1; EXPLAIN annotation only).
        est_rows: u64,
        /// Estimated cost in abstract row-touch units (EXPLAIN only).
        cost: u64,
    },
    /// Fast path: `ORDER BY col [DESC] LIMIT n` over one table served
    /// by walking the ordered index on `col` (ascending or descending)
    /// and stopping after `n` rows pass the residual filter. Replaces
    /// the `Sort` under the plan's `Limit(Project(..))` stack; only
    /// emitted when `col` is declared `NOT NULL` (the index never
    /// stores NULL keys, so a nullable column would drop rows a real
    /// sort would keep).
    TopNIndex {
        /// The table being read.
        table: BoundTable,
        /// The table's FROM position (= its tuple slot).
        pos: usize,
        /// Indexed, non-nullable ORDER BY column.
        column: usize,
        /// True for `ORDER BY col DESC`.
        desc: bool,
        /// The LIMIT: rows to produce after filtering.
        n: u64,
        /// Residual single-table conjuncts applied during the walk.
        filter: Vec<BoundExpr>,
        /// Estimated output rows (EXPLAIN annotation only).
        est_rows: u64,
        /// Estimated cost in abstract row-touch units (EXPLAIN only).
        cost: u64,
    },
    /// Emits the first tuple its input yields, then ends: the join of
    /// the relations a `DISTINCT` query only needs to exist (see
    /// [`crate::plan_select`]). Over a [`PlanNode::Scan`] the scan stops
    /// at the first visible row that passes the leaf filter.
    Exists {
        /// Input operator: the existence-only relations' join tree.
        input: Box<PlanNode>,
    },
    /// Residual predicate over full tuples (defensive; the planner
    /// pushes every conjunct into scans and joins when it can).
    Filter {
        /// Input operator.
        input: Box<PlanNode>,
        /// Conjuncts that must all evaluate to `TRUE`.
        predicate: Vec<BoundExpr>,
    },
    /// Sorts the tuple stream by the given `(expression, descending)`
    /// keys; evaluates against pre-projection tuples.
    Sort {
        /// Input operator.
        input: Box<PlanNode>,
        /// Sort keys in priority order.
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Evaluates the scalar projections, turning tuples into value rows.
    Project {
        /// Input operator.
        input: Box<PlanNode>,
        /// Output expressions (scalar; aggregates are an execution
        /// error here — they belong in [`PlanNode::Aggregate`]).
        projections: Vec<Projection>,
    },
    /// Grouped or global aggregation. Owns HAVING, group ordering and
    /// the group limit because all three are defined over the groups
    /// (representatives and members), which only this operator sees.
    Aggregate {
        /// Input operator.
        input: Box<PlanNode>,
        /// Grouping keys; empty means one global group.
        group_by: Vec<BoundExpr>,
        /// Output projections (aggregates and grouping-key scalars).
        projections: Vec<Projection>,
        /// Optional HAVING predicate with hoisted aggregates.
        having: Option<BoundHaving>,
        /// ORDER BY keys, evaluated against group representatives.
        order_by: Vec<(BoundExpr, bool)>,
        /// LIMIT applied to groups.
        limit: Option<u64>,
    },
    /// Removes duplicate output rows (first occurrence wins).
    Distinct {
        /// Input operator.
        input: Box<PlanNode>,
    },
    /// Truncates the output to the first `n` rows.
    Limit {
        /// Input operator.
        input: Box<PlanNode>,
        /// Maximum number of rows to emit.
        n: u64,
    },
}

impl PlanNode {
    /// The operator's display name (used by EXPLAIN and the operator
    /// counters).
    pub fn name(&self) -> &'static str {
        match self {
            PlanNode::Empty { .. } => "Empty",
            PlanNode::Scan { .. } => "Scan",
            PlanNode::IndexLookup { .. } => "IndexLookup",
            PlanNode::NLJoin { .. } => "NLJoin",
            PlanNode::HashJoin { .. } => "HashJoin",
            PlanNode::IndexNLJoin { .. } => "IndexNLJoin",
            PlanNode::CountStar { .. } => "CountStar",
            PlanNode::IndexMinMax { .. } => "IndexMinMax",
            PlanNode::TopNIndex { .. } => "TopNIndex",
            PlanNode::Exists { .. } => "Exists",
            PlanNode::Filter { .. } => "Filter",
            PlanNode::Sort { .. } => "Sort",
            PlanNode::Project { .. } => "Project",
            PlanNode::Aggregate { .. } => "Aggregate",
            PlanNode::Distinct { .. } => "Distinct",
            PlanNode::Limit { .. } => "Limit",
        }
    }

    /// Child operators, outermost first.
    pub fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::Empty { .. }
            | PlanNode::Scan { .. }
            | PlanNode::IndexLookup { .. }
            | PlanNode::CountStar { .. }
            | PlanNode::IndexMinMax { .. }
            | PlanNode::TopNIndex { .. } => Vec::new(),
            PlanNode::NLJoin { outer, inner, .. } | PlanNode::HashJoin { outer, inner, .. } => {
                vec![outer, inner]
            }
            PlanNode::IndexNLJoin { outer, .. } => vec![outer],
            PlanNode::Exists { input }
            | PlanNode::Filter { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Limit { input, .. } => vec![input],
        }
    }

    /// Child operators, outermost first, mutably (used by test
    /// harnesses that apply surgical plan mutations).
    pub fn children_mut(&mut self) -> Vec<&mut PlanNode> {
        match self {
            PlanNode::Empty { .. }
            | PlanNode::Scan { .. }
            | PlanNode::IndexLookup { .. }
            | PlanNode::CountStar { .. }
            | PlanNode::IndexMinMax { .. }
            | PlanNode::TopNIndex { .. } => Vec::new(),
            PlanNode::NLJoin { outer, inner, .. } | PlanNode::HashJoin { outer, inner, .. } => {
                vec![outer, inner]
            }
            PlanNode::IndexNLJoin { outer, .. } => vec![outer],
            PlanNode::Exists { input }
            | PlanNode::Filter { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Limit { input, .. } => vec![input],
        }
    }

    /// The access path a leaf reads its table through. `None` for
    /// non-leaf operators.
    pub fn access_path(&self) -> Option<AccessPath> {
        match self {
            PlanNode::Scan { .. } => Some(AccessPath::SeqScan),
            PlanNode::IndexLookup { column, keys, .. } => Some(AccessPath::IndexProbe {
                column: *column,
                keys: keys.clone(),
            }),
            _ => None,
        }
    }

    /// One EXPLAIN line for this operator (no children, no indent).
    fn describe(&self) -> String {
        match self {
            PlanNode::Empty { bindings } => {
                format!("Empty (pruned: {})", bindings.join(", "))
            }
            PlanNode::Scan {
                table,
                filter,
                est_rows,
                cost,
                ..
            } => format!(
                "Scan {} [{}]{} (est {est_rows} rows, cost {cost})",
                table.binding,
                AccessPath::SeqScan.describe(),
                filter_note(filter),
            ),
            PlanNode::IndexLookup {
                table,
                column,
                keys,
                filter,
                est_rows,
                cost,
                ..
            } => format!(
                "IndexLookup {} [{}]{}{} (est {est_rows} rows, cost {cost})",
                table.binding,
                AccessPath::IndexProbe {
                    column: *column,
                    keys: keys.clone()
                }
                .describe(),
                if keys.len() > 1 {
                    " [fast-path: in-list probe]"
                } else {
                    ""
                },
                filter_note(filter),
            ),
            PlanNode::NLJoin {
                filter,
                est_rows,
                cost,
                ..
            } => format!(
                "NLJoin{} (est {est_rows} rows, cost {cost})",
                filter_note(filter)
            ),
            PlanNode::HashJoin {
                inner_col,
                filter,
                est_rows,
                cost,
                ..
            } => format!(
                "HashJoin(col#{inner_col}){} (est {est_rows} rows, cost {cost})",
                filter_note(filter)
            ),
            PlanNode::IndexNLJoin {
                table,
                inner_col,
                filter,
                est_rows,
                cost,
                ..
            } => format!(
                "IndexNLJoin {} (col#{inner_col}){} (est {est_rows} rows, cost {cost})",
                table.binding,
                filter_note(filter)
            ),
            PlanNode::CountStar {
                table,
                name,
                est_rows,
                cost,
            } => format!(
                "CountStar {} AS {name} [fast-path: storage row count] \
                 (est {est_rows} rows, cost {cost})",
                table.binding,
            ),
            PlanNode::IndexMinMax {
                table,
                column,
                func,
                name,
                est_rows,
                cost,
            } => format!(
                "IndexMinMax {}.col#{column} ({func:?}) AS {name} \
                 [fast-path: ordered index probe] (est {est_rows} rows, cost {cost})",
                table.binding,
            ),
            PlanNode::TopNIndex {
                table,
                column,
                desc,
                n,
                filter,
                est_rows,
                cost,
                ..
            } => format!(
                "TopNIndex {} (col#{column}{}, first {n}) \
                 [fast-path: ordered index walk]{} (est {est_rows} rows, cost {cost})",
                table.binding,
                if *desc { " desc" } else { "" },
                filter_note(filter),
            ),
            PlanNode::Exists { .. } => "Exists (first tuple)".to_string(),
            PlanNode::Filter { predicate, .. } => {
                format!("Filter ({} conjuncts)", predicate.len())
            }
            PlanNode::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
            PlanNode::Project { projections, .. } => {
                let names: Vec<&str> = projections.iter().map(Projection::name).collect();
                format!("Project ({})", names.join(", "))
            }
            PlanNode::Aggregate {
                group_by,
                projections,
                having,
                ..
            } => format!(
                "Aggregate ({} keys, {} projections{})",
                group_by.len(),
                projections.len(),
                if having.is_some() { ", HAVING" } else { "" },
            ),
            PlanNode::Distinct { .. } => "Distinct".to_string(),
            PlanNode::Limit { n, .. } => format!("Limit ({n})"),
        }
    }

    /// Pre-order walk: calls `f` on this operator, then on every child
    /// (outer before inner for joins). This is the traversal the
    /// analyzer's dataflow engine and the fact-annotation renderer
    /// share, so facts keyed per node line up with rendered lines.
    pub fn visit(&self, f: &mut dyn FnMut(&PlanNode)) {
        f(self);
        for child in self.children() {
            child.visit(f);
        }
    }

    /// The FROM position of the table this operator reads, for the
    /// operators that read exactly one table. `None` for joins read
    /// through `outer`/`inner` and for pure shapers.
    pub fn leaf_pos(&self) -> Option<usize> {
        match self {
            PlanNode::Scan { pos, .. }
            | PlanNode::IndexLookup { pos, .. }
            | PlanNode::IndexNLJoin { pos, .. }
            | PlanNode::TopNIndex { pos, .. } => Some(*pos),
            // Fast-path roots aggregate the single FROM table.
            PlanNode::CountStar { .. } | PlanNode::IndexMinMax { .. } => Some(0),
            _ => None,
        }
    }

    /// Estimated output rows of the relational part, where known.
    pub fn est_rows(&self) -> Option<u64> {
        match self {
            PlanNode::Empty { .. } => Some(0),
            PlanNode::Exists { .. } => Some(1),
            PlanNode::Scan { est_rows, .. }
            | PlanNode::IndexLookup { est_rows, .. }
            | PlanNode::NLJoin { est_rows, .. }
            | PlanNode::HashJoin { est_rows, .. }
            | PlanNode::IndexNLJoin { est_rows, .. }
            | PlanNode::CountStar { est_rows, .. }
            | PlanNode::IndexMinMax { est_rows, .. }
            | PlanNode::TopNIndex { est_rows, .. } => Some(*est_rows),
            _ => None,
        }
    }

    /// Estimated cost (abstract row-touch units) of the relational
    /// part, where known.
    pub fn est_cost(&self) -> Option<u64> {
        match self {
            PlanNode::Empty { .. } => Some(0),
            PlanNode::Scan { cost, .. }
            | PlanNode::IndexLookup { cost, .. }
            | PlanNode::NLJoin { cost, .. }
            | PlanNode::HashJoin { cost, .. }
            | PlanNode::IndexNLJoin { cost, .. }
            | PlanNode::CountStar { cost, .. }
            | PlanNode::IndexMinMax { cost, .. }
            | PlanNode::TopNIndex { cost, .. } => Some(*cost),
            PlanNode::Exists { input } => input.est_cost(),
            _ => None,
        }
    }
}

/// Short `filter: N` suffix for EXPLAIN lines.
fn filter_note(filter: &[BoundExpr]) -> String {
    if filter.is_empty() {
        String::new()
    } else {
        format!(" filter: {} conjuncts", filter.len())
    }
}

/// A complete physical plan for one bound `SELECT`.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The root operator.
    pub root: PlanNode,
    /// Output column names, in projection order.
    pub columns: Vec<String>,
    /// Typeflow kernel certificate: the per-lane type/nullability/NaN
    /// proofs the lowering derived from schema and catalog statistics.
    /// Empty when `ExecOptions::typed_kernels` is off (boxed execution
    /// only). The analyzer's typeflow pass re-derives every claim and
    /// flags any it cannot prove as `TRAC023`.
    pub cert: KernelCert,
}

impl PhysicalPlan {
    /// Renders the plan as an indented EXPLAIN tree, one operator per
    /// line, with access-path and estimated-row annotations.
    pub fn render(&self) -> String {
        self.render_annotated(&|_| None)
    }

    /// Renders the plan like [`PhysicalPlan::render`], appending
    /// ` -- {note}` to every operator line for which `annotate` returns
    /// a note. This is the fact-annotation hook: the analyzer's
    /// validator keys certified per-operator facts by node identity and
    /// EXPLAIN surfaces them without the plan crate depending on the
    /// analyzer.
    pub fn render_annotated(&self, annotate: &dyn Fn(&PlanNode) -> Option<String>) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, &self.cert, annotate, &mut out);
        out.pop(); // trailing newline
        out
    }

    /// Counts operators by [`PlanNode::name`], for plan-regression
    /// tracking in the bench harness output.
    pub fn operator_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            *counts.entry(node.name()).or_insert(0) += 1;
            stack.extend(node.children());
        }
        counts
    }

    /// A compact one-line `name=count` summary of
    /// [`PhysicalPlan::operator_counts`].
    pub fn operator_summary(&self) -> String {
        self.operator_counts()
            .iter()
            .map(|(name, n)| format!("{name}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Per-table `(binding, access/join strategy)` steps in FROM order —
    /// the legacy `PlanInfo` rendering.
    pub fn table_steps(&self) -> Vec<(String, String)> {
        let mut steps = Vec::new();
        collect_steps(&self.root, &mut steps);
        steps
    }
}

fn render_node(
    node: &PlanNode,
    depth: usize,
    cert: &KernelCert,
    annotate: &dyn Fn(&PlanNode) -> Option<String>,
    out: &mut String,
) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    let mut line = node.describe();
    // Typed-kernel certificate marker on the operator that reads the
    // certified table, e.g. `[typed:text,int?]`.
    if let Some(marker) = node.leaf_pos().and_then(|pos| cert.marker(pos)) {
        line.push(' ');
        line.push_str(&marker);
    }
    match annotate(node) {
        Some(note) => {
            let _ = writeln!(out, "{line} -- {note}");
        }
        None => {
            let _ = writeln!(out, "{line}");
        }
    }
    match node {
        // Joins render the outer subtree first, then the inner side.
        PlanNode::NLJoin { outer, inner, .. } | PlanNode::HashJoin { outer, inner, .. } => {
            render_node(outer, depth + 1, cert, annotate, out);
            render_node(inner, depth + 1, cert, annotate, out);
        }
        PlanNode::IndexNLJoin { outer, .. } => render_node(outer, depth + 1, cert, annotate, out),
        other => {
            for child in other.children() {
                render_node(child, depth + 1, cert, annotate, out);
            }
        }
    }
}

/// Walks the relational subtree, emitting one step per FROM table in
/// join order (outer first).
fn collect_steps(node: &PlanNode, out: &mut Vec<(String, String)>) {
    match node {
        PlanNode::Empty { bindings } => {
            for b in bindings {
                out.push((b.clone(), "pruned (empty input)".into()));
            }
        }
        PlanNode::Scan { table, .. } => {
            out.push((table.binding.clone(), AccessPath::SeqScan.describe()));
        }
        PlanNode::IndexLookup {
            table,
            column,
            keys,
            ..
        } => {
            out.push((
                table.binding.clone(),
                AccessPath::IndexProbe {
                    column: *column,
                    keys: keys.clone(),
                }
                .describe(),
            ));
        }
        PlanNode::NLJoin { outer, inner, .. } => {
            collect_steps(outer, out);
            collect_steps(inner, out);
        }
        PlanNode::HashJoin {
            outer,
            inner,
            inner_col,
            ..
        } => {
            collect_steps(outer, out);
            let access = inner
                .access_path()
                .map_or_else(|| "?".to_string(), |a| a.describe());
            let binding = match inner.as_ref() {
                PlanNode::Scan { table, .. } | PlanNode::IndexLookup { table, .. } => {
                    table.binding.clone()
                }
                _ => String::new(),
            };
            out.push((binding, format!("HashJoin(col#{inner_col}) over {access}")));
        }
        PlanNode::IndexNLJoin {
            outer,
            table,
            inner_col,
            ..
        } => {
            collect_steps(outer, out);
            out.push((
                table.binding.clone(),
                format!("IndexNLJoin(col#{inner_col})"),
            ));
        }
        PlanNode::CountStar { table, .. } => {
            out.push((table.binding.clone(), "CountStar fast path".to_string()));
        }
        PlanNode::IndexMinMax { table, column, .. } => {
            out.push((
                table.binding.clone(),
                format!("IndexMinMax(col#{column}) fast path"),
            ));
        }
        PlanNode::TopNIndex { table, column, .. } => {
            out.push((
                table.binding.clone(),
                format!("TopNIndex(col#{column}) fast path"),
            ));
        }
        PlanNode::Exists { input }
        | PlanNode::Filter { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Aggregate { input, .. }
        | PlanNode::Distinct { input }
        | PlanNode::Limit { input, .. } => collect_steps(input, out),
    }
}
