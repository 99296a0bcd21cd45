//! Per-table access path selection.
//!
//! Given the single-table conjuncts that apply to a table, pick an index
//! probe (`col = lit` or `col IN (lits)` on an indexed column) or fall
//! back to a filtered sequential scan. Index-key predicates are still
//! re-applied after the probe — the probe is an optimization, never a
//! semantic change.

use crate::cost::TableCost;
use trac_expr::{BoundExpr, BoundTable, ColRef};
use trac_storage::{ReadTxn, TableSchema, TableStats};
use trac_types::{DataType, Value};

/// Execution tuning knobs, mostly for the ablation benchmarks.
///
/// Derives `Eq`/`Hash` so prepared-plan caches can key on it. Every
/// field but `threads` and `batch_size` changes the lowered artifact;
/// those two are read only at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecOptions {
    /// Allow index probes (off ⇒ everything is a sequential scan).
    pub enable_index_scan: bool,
    /// Allow hash joins (off ⇒ nested loops only).
    pub enable_hash_join: bool,
    /// Worker threads for morsel-driven execution, read only by the
    /// executor: the plan is the same at every value. `1` runs every
    /// plan serially; `> 1` lets the executor drive a FROM-order
    /// filter/join chain over a `Scan` or `IndexLookup` through its
    /// morsel-parallel route.
    pub threads: usize,
    /// Rows per leaf batch, and per morsel on the parallel route. Read
    /// only by the executor.
    pub batch_size: usize,
    /// Allow the planner to emit certified fast-path operators
    /// (`CountStar`, `IndexMinMax`, `TopNIndex`, multi-key IN-list
    /// probes). Off ⇒ every query takes the general operator pipeline.
    pub fast_paths: bool,
    /// Let the catalog-statistics cost model pick the join order instead
    /// of joining in FROM order. Off by default: user-facing queries
    /// keep the FROM-order plans (and exact row order) the workload
    /// snapshot pins; the recency planner turns this on for its
    /// generated subqueries, where output order is defined by an
    /// explicit sort.
    pub cost_based_join_order: bool,
    /// Attach a typeflow [`KernelCert`](trac_expr::KernelCert) to the
    /// lowered plan so the columnar engine may dispatch unboxed typed
    /// kernels on certified lanes. Off ⇒ no certificate is attached and
    /// every lane takes the boxed [`Value`] path (the differential
    /// reference).
    pub typed_kernels: bool,
    /// Keep delta-maintained state for prepared recency reports: the
    /// session folds the typed change stream into each cached plan's
    /// [`MaintainedReport`](../maintain) instead of rescanning per
    /// report. Off ⇒ every report recomputes from scratch (the
    /// differential reference for the maintained path).
    pub maintain_reports: bool,
}

/// Default morsel size: large enough to amortize per-morsel dispatch,
/// small enough to load-balance skewed filters.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            enable_index_scan: true,
            enable_hash_join: true,
            threads: 1,
            batch_size: DEFAULT_BATCH_SIZE,
            fast_paths: true,
            cost_based_join_order: false,
            typed_kernels: true,
            maintain_reports: true,
        }
    }
}

impl ExecOptions {
    /// Returns a copy with the given parallelism knobs.
    #[must_use]
    pub fn with_parallelism(mut self, threads: usize, batch_size: usize) -> ExecOptions {
        self.threads = threads.max(1);
        self.batch_size = batch_size.max(1);
        self
    }
}

/// How one table will be read.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full scan (filters applied afterwards).
    SeqScan,
    /// Probe the index on `column` with the given keys.
    IndexProbe {
        /// Indexed column position.
        column: usize,
        /// Probe keys (deduplicated literals).
        keys: Vec<Value>,
    },
}

impl AccessPath {
    /// Short human-readable description (used by EXPLAIN-style output).
    pub fn describe(&self) -> String {
        match self {
            AccessPath::SeqScan => "SeqScan".to_string(),
            AccessPath::IndexProbe { column, keys } => {
                format!("IndexProbe(col#{column}, {} keys)", keys.len())
            }
        }
    }
}

/// Extracts `(column, keys)` when `term` pins `table`'s column to literal
/// key(s): `col = lit`, `lit = col`, or `col IN (lit, …)`.
///
/// An index matches keys by `Value` identity while SQL `=` widens INT
/// against FLOAT, so every key is first given the column's declared
/// type (see `probe_key`). A FLOAT column never yields a candidate:
/// identity tells `0.0` from `-0.0`, which SQL `=` equates.
pub fn probe_candidate(
    term: &BoundExpr,
    table: usize,
    schema: &TableSchema,
) -> Option<(usize, Vec<Value>)> {
    let (column, literals): (usize, Vec<&Value>) = match term {
        BoundExpr::Binary {
            op: trac_sql::BinaryOp::Eq,
            lhs,
            rhs,
        } => match (lhs.as_ref(), rhs.as_ref()) {
            (BoundExpr::Column(ColRef { table: t, column }), BoundExpr::Literal(v))
            | (BoundExpr::Literal(v), BoundExpr::Column(ColRef { table: t, column }))
                if *t == table && !v.is_null() =>
            {
                (*column, vec![v])
            }
            _ => return None,
        },
        BoundExpr::InList {
            expr,
            list,
            negated: false,
        } => {
            let BoundExpr::Column(ColRef { table: t, column }) = expr.as_ref() else {
                return None;
            };
            if *t != table {
                return None;
            }
            let mut literals = Vec::with_capacity(list.len());
            for item in list {
                match item {
                    BoundExpr::Literal(v) => literals.push(v),
                    _ => return None,
                }
            }
            (*column, literals)
        }
        _ => return None,
    };
    let ty = schema.columns.get(column)?.ty;
    if ty == DataType::Float {
        return None;
    }
    let mut keys = Vec::with_capacity(literals.len());
    for v in literals {
        // A key no stored value can equal (NULL among them) drops out.
        keys.extend(probe_key(v, ty)?);
    }
    keys.sort();
    keys.dedup();
    Some((column, keys))
}

/// The one stored key of a (non-FLOAT) column of type `ty` that SQL `=`
/// against literal `v` selects: `Some(None)` when no stored value can
/// equal `v`, and `None` when no single key stands for it.
///
/// Stored values carry the declared type, and `=` across types is
/// never true except INT against FLOAT, where an integral float names
/// the integer it equals and a fractional one names none. Past ±2⁵³
/// several integers round to one float, so such a literal is not a key.
fn probe_key(v: &Value, ty: DataType) -> Option<Option<Value>> {
    /// 2⁵³: below it in magnitude, `i as f64 == f` holds for exactly
    /// one integer `i`.
    const EXACT: f64 = 9_007_199_254_740_992.0;
    match (ty, v) {
        (DataType::Int, Value::Float(f)) if f.fract() == 0.0 =>
        {
            #[allow(clippy::cast_possible_truncation)]
            (f.abs() < EXACT).then_some(Some(Value::Int(*f as i64)))
        }
        _ => Some((v.data_type() == Some(ty)).then(|| v.clone())),
    }
}

/// Chooses the access path for `table` given the conjuncts that reference
/// only that table. Probe candidates are costed against the sequential
/// scan with the table's catalog statistics `stats` (read once per
/// lowering by the caller): a probe is kept only when its estimated row
/// touches don't exceed the scan's (ties go to the probe), and among
/// surviving probes the cheapest wins, with fewer keys as the tie-break.
pub fn choose_access_path(
    txn: &ReadTxn,
    table: &BoundTable,
    stats: &TableStats,
    table_pos: usize,
    table_conjuncts: &[BoundExpr],
    opts: ExecOptions,
) -> AccessPath {
    if !opts.enable_index_scan {
        return AccessPath::SeqScan;
    }
    let tc = TableCost::new(stats);
    let seq_cost = tc.seq_cost();
    let mut best: Option<(u64, usize, Vec<Value>)> = None;
    for term in table_conjuncts {
        if let Some((column, keys)) = probe_candidate(term, table_pos, &table.schema) {
            if txn.has_index(table.id, column) {
                let cost = tc.probe_cost(column, keys.len());
                if cost > seq_cost {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some((bc, _, cur)) => (cost, keys.len()) < (*bc, cur.len()),
                };
                if better {
                    best = Some((cost, column, keys));
                }
            }
        }
    }
    match best {
        Some((_, column, keys)) => AccessPath::IndexProbe { column, keys },
        None => AccessPath::SeqScan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trac_expr::BoundExpr as E;
    use trac_sql::BinaryOp;
    use trac_storage::{ColumnDef, Database, TableSchema};
    use trac_types::DataType;

    fn setup() -> (Database, BoundTable) {
        let db = Database::new();
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("sid", DataType::Text),
                ColumnDef::new("v", DataType::Int),
                ColumnDef::new("f", DataType::Float),
            ],
            Some("sid"),
        )
        .unwrap();
        let id = db.create_table(schema.clone()).unwrap();
        db.create_index("t", "sid").unwrap();
        let bt = BoundTable {
            id,
            schema: schema.into(),
            binding: "t".into(),
        };
        (db, bt)
    }

    fn access(db: &Database, bt: &BoundTable, terms: &[E], opts: ExecOptions) -> AccessPath {
        let txn = db.begin_read();
        choose_access_path(&txn, bt, &txn.table_stats(bt.id), 0, terms, opts)
    }

    #[test]
    fn picks_index_probe_for_eq() {
        let (db, bt) = setup();
        let term = E::binary(BinaryOp::Eq, E::col(0, 0), E::lit("m1"));
        let p = access(&db, &bt, &[term], ExecOptions::default());
        assert_eq!(
            p,
            AccessPath::IndexProbe {
                column: 0,
                keys: vec![Value::text("m1")]
            }
        );
    }

    #[test]
    fn picks_index_probe_for_in_list_and_dedups() {
        let (db, bt) = setup();
        let term = E::InList {
            expr: Box::new(E::col(0, 0)),
            list: vec![E::lit("m2"), E::lit("m1"), E::lit("m2")],
            negated: false,
        };
        let p = access(&db, &bt, &[term], ExecOptions::default());
        assert_eq!(
            p,
            AccessPath::IndexProbe {
                column: 0,
                keys: vec![Value::text("m1"), Value::text("m2")]
            }
        );
    }

    #[test]
    fn falls_back_to_seqscan() {
        let (db, bt) = setup();
        // No index on v.
        let term = E::binary(BinaryOp::Eq, E::col(0, 1), E::lit(3i64));
        assert_eq!(
            access(
                &db,
                &bt,
                std::slice::from_ref(&term),
                ExecOptions::default()
            ),
            AccessPath::SeqScan
        );
        // NOT IN cannot probe.
        let ni = E::InList {
            expr: Box::new(E::col(0, 0)),
            list: vec![E::lit("m1")],
            negated: true,
        };
        assert_eq!(
            access(&db, &bt, &[ni], ExecOptions::default()),
            AccessPath::SeqScan
        );
        // Range predicates don't probe (we only use point/IN probes).
        let rng = E::binary(BinaryOp::Lt, E::col(0, 0), E::lit("m9"));
        assert_eq!(
            access(&db, &bt, &[rng], ExecOptions::default()),
            AccessPath::SeqScan
        );
    }

    #[test]
    fn options_disable_index() {
        let (db, bt) = setup();
        let term = E::binary(BinaryOp::Eq, E::col(0, 0), E::lit("m1"));
        let opts = ExecOptions {
            enable_index_scan: false,
            ..Default::default()
        };
        assert_eq!(access(&db, &bt, &[term], opts), AccessPath::SeqScan);
    }

    #[test]
    fn prefers_fewest_keys() {
        let (db, bt) = setup();
        db.create_index("t", "v").unwrap();
        let many = E::InList {
            expr: Box::new(E::col(0, 0)),
            list: vec![E::lit("a"), E::lit("b"), E::lit("c")],
            negated: false,
        };
        let one = E::binary(BinaryOp::Eq, E::col(0, 1), E::lit(5i64));
        let p = access(&db, &bt, &[many, one], ExecOptions::default());
        assert_eq!(
            p,
            AccessPath::IndexProbe {
                column: 1,
                keys: vec![Value::Int(5)]
            }
        );
    }

    #[test]
    fn null_eq_never_probes_with_null() {
        let (db, bt) = setup();
        let term = E::binary(BinaryOp::Eq, E::col(0, 0), E::Literal(Value::Null));
        assert_eq!(
            access(&db, &bt, &[term], ExecOptions::default()),
            AccessPath::SeqScan
        );
    }

    #[test]
    fn probe_keys_take_the_column_type() {
        let (_, bt) = setup();
        let int_in = |list: Vec<Value>| E::InList {
            expr: Box::new(E::col(0, 1)),
            list: list.into_iter().map(E::Literal).collect(),
            negated: false,
        };
        // An integral float names the integer it equals; a fractional,
        // NaN or infinite one names none.
        let term = int_in(vec![
            Value::Float(2.0),
            Value::Int(7),
            Value::Int(2),
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
        ]);
        assert_eq!(
            probe_candidate(&term, 0, &bt.schema),
            Some((1, vec![Value::Int(0), Value::Int(2), Value::Int(7)]))
        );
        let eq = E::binary(BinaryOp::Eq, E::Literal(Value::Float(2.5)), E::col(0, 1));
        assert_eq!(probe_candidate(&eq, 0, &bt.schema), Some((1, vec![])));
        // Past 2^53 several integers equal one float: no single key.
        let big = int_in(vec![Value::Float(9_007_199_254_740_992.0)]);
        assert_eq!(probe_candidate(&big, 0, &bt.schema), None);
        // A literal of another type can equal no stored text.
        let text = E::binary(BinaryOp::Eq, E::col(0, 0), E::lit(1i64));
        assert_eq!(probe_candidate(&text, 0, &bt.schema), Some((0, vec![])));
        // FLOAT columns never probe: identity splits 0.0 from -0.0.
        for lit in [Value::Float(0.0), Value::Int(0)] {
            let eq = E::binary(BinaryOp::Eq, E::col(0, 2), E::Literal(lit));
            assert_eq!(probe_candidate(&eq, 0, &bt.schema), None);
        }
    }
}
