//! Name-resolved queries and expressions.
//!
//! Binding replaces textual column references with [`ColRef`]s — indexes
//! into the query's `FROM` list and the table's column list — so later
//! phases (evaluation, classification, recency-query generation) never
//! touch strings. This also resolves the paper's notion of "the data
//! source column of `R_i`": [`BoundTable`] carries the schema, and
//! `is_source_column`-style checks go through it.

use std::collections::BTreeSet;
use std::sync::Arc;
use trac_sql::{BinaryOp, Expr, SelectItem, SelectStmt};
use trac_storage::{ReadTxn, TableId, TableSchema};
use trac_types::{Result, TracError, Value};

/// A resolved column: `table` indexes the query's `FROM` list, `column`
/// the table's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColRef {
    /// Position in the query's `FROM` list.
    pub table: usize,
    /// Column position within that table.
    pub column: usize,
}

/// One table mention of a bound query.
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// Storage-level table id.
    pub id: TableId,
    /// The table's schema (snapshot at bind time), shared by every plan
    /// and generated query that mentions the table.
    pub schema: Arc<TableSchema>,
    /// The name this mention is referenced by (alias or table name).
    pub binding: String,
}

impl BoundTable {
    /// True when `col` is this table's data source column.
    pub fn is_source_column(&self, col: usize) -> bool {
        self.schema.source_column == Some(col)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggFunc {
    fn parse(name: &str) -> Option<AggFunc> {
        Some(match name {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// A projection item of a bound query.
#[derive(Debug, Clone)]
pub enum Projection {
    /// A scalar expression with an output name.
    Scalar {
        /// The projected expression.
        expr: BoundExpr,
        /// Output column name.
        name: String,
    },
    /// An aggregate over the (filtered) input.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Its argument; `None` for `COUNT(*)`.
        arg: Option<BoundExpr>,
        /// Output column name.
        name: String,
    },
}

impl Projection {
    /// The output column name.
    pub fn name(&self) -> &str {
        match self {
            Projection::Scalar { name, .. } | Projection::Aggregate { name, .. } => name,
        }
    }

    /// True for aggregate projections.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Projection::Aggregate { .. })
    }
}

/// A bound (name-resolved) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Column reference.
    Column(ColRef),
    /// Literal value.
    Literal(Value),
    /// Binary operation (comparisons, logic, arithmetic).
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
    /// `expr [NOT] IN (e1, …)`.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Members.
        list: Vec<BoundExpr>,
        /// `NOT IN`?
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// Logical negation.
    Not(Box<BoundExpr>),
    /// Arithmetic negation.
    Neg(Box<BoundExpr>),
}

impl BoundExpr {
    /// Builds `lhs op rhs`.
    pub fn binary(op: BinaryOp, lhs: BoundExpr, rhs: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Column reference shorthand.
    pub fn col(table: usize, column: usize) -> BoundExpr {
        BoundExpr::Column(ColRef { table, column })
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    /// Conjunction of many expressions.
    pub fn conjoin(exprs: impl IntoIterator<Item = BoundExpr>) -> Option<BoundExpr> {
        exprs
            .into_iter()
            .reduce(|a, b| BoundExpr::binary(BinaryOp::And, a, b))
    }

    /// All column references in the expression.
    pub fn references(&self) -> BTreeSet<ColRef> {
        let mut out = BTreeSet::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs(&self, out: &mut BTreeSet<ColRef>) {
        match self {
            BoundExpr::Column(c) => {
                out.insert(*c);
            }
            BoundExpr::Literal(_) => {}
            BoundExpr::Binary { lhs, rhs, .. } => {
                lhs.collect_refs(out);
                rhs.collect_refs(out);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.collect_refs(out);
                for e in list {
                    e.collect_refs(out);
                }
            }
            BoundExpr::IsNull { expr, .. } | BoundExpr::Not(expr) | BoundExpr::Neg(expr) => {
                expr.collect_refs(out);
            }
        }
    }

    /// The set of table positions referenced.
    pub fn tables(&self) -> BTreeSet<usize> {
        self.references().into_iter().map(|c| c.table).collect()
    }

    /// Rewrites every column reference through `f`.
    pub fn map_columns(&self, f: &impl Fn(ColRef) -> ColRef) -> BoundExpr {
        match self {
            BoundExpr::Column(c) => BoundExpr::Column(f(*c)),
            BoundExpr::Literal(v) => BoundExpr::Literal(v.clone()),
            BoundExpr::Binary { op, lhs, rhs } => BoundExpr::Binary {
                op: *op,
                lhs: Box::new(lhs.map_columns(f)),
                rhs: Box::new(rhs.map_columns(f)),
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(expr.map_columns(f)),
                list: list.iter().map(|e| e.map_columns(f)).collect(),
                negated: *negated,
            },
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.map_columns(f)),
                negated: *negated,
            },
            BoundExpr::Not(e) => BoundExpr::Not(Box::new(e.map_columns(f))),
            BoundExpr::Neg(e) => BoundExpr::Neg(Box::new(e.map_columns(f))),
        }
    }
}

/// A bound `SELECT` query: a single SPJ block as the paper assumes,
/// optionally grouped.
#[derive(Debug, Clone)]
pub struct BoundSelect {
    /// The `FROM` list, in order; [`ColRef::table`] indexes this.
    pub tables: Vec<BoundTable>,
    /// The `WHERE` predicate, if any.
    pub predicate: Option<BoundExpr>,
    /// Projection list.
    pub projections: Vec<Projection>,
    /// `GROUP BY` keys (empty = no grouping).
    pub group_by: Vec<BoundExpr>,
    /// `HAVING` filter over groups, if any.
    pub having: Option<BoundHaving>,
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// `ORDER BY` keys (expression, descending).
    pub order_by: Vec<(BoundExpr, bool)>,
    /// `LIMIT`.
    pub limit: Option<u64>,
}

impl BoundSelect {
    /// True when the query computes aggregates (grouped or global).
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self.having.is_some()
            || self.projections.iter().any(Projection::is_aggregate)
    }

    /// Output column names, in order.
    pub fn output_names(&self) -> Vec<String> {
        self.projections
            .iter()
            .map(|p| p.name().to_string())
            .collect()
    }
}

/// A bound `HAVING` clause. Aggregate calls inside the predicate are
/// hoisted into `aggregates`; the predicate references them through
/// synthetic column refs `ColRef { table: agg_table, column: k }`, which
/// the executor substitutes with the group's computed aggregate values.
#[derive(Debug, Clone)]
pub struct BoundHaving {
    /// Predicate with aggregate calls replaced by synthetic columns.
    pub predicate: BoundExpr,
    /// The hoisted aggregates, in reference order.
    pub aggregates: Vec<(AggFunc, Option<BoundExpr>)>,
    /// The synthetic table index used by the markers (= the query's
    /// `FROM` length, guaranteed unused by real columns).
    pub agg_table: usize,
}

struct Binder<'a> {
    tables: &'a [BoundTable],
}

impl Binder<'_> {
    fn resolve_column(&self, qualifier: Option<&str>, name: &str) -> Result<ColRef> {
        match qualifier {
            Some(q) => {
                let t = self
                    .tables
                    .iter()
                    .position(|bt| bt.binding.eq_ignore_ascii_case(q))
                    .ok_or_else(|| TracError::Resolution(format!("unknown table or alias {q}")))?;
                let column = self.tables[t].schema.column_index(name).ok_or_else(|| {
                    TracError::Resolution(format!("no column {name} in {}", self.tables[t].binding))
                })?;
                Ok(ColRef { table: t, column })
            }
            None => {
                let mut hit = None;
                for (t, bt) in self.tables.iter().enumerate() {
                    if let Some(column) = bt.schema.column_index(name) {
                        if hit.is_some() {
                            return Err(TracError::Resolution(format!("ambiguous column {name}")));
                        }
                        hit = Some(ColRef { table: t, column });
                    }
                }
                hit.ok_or_else(|| TracError::Resolution(format!("unknown column {name}")))
            }
        }
    }

    fn bind_expr(&self, e: &Expr) -> Result<BoundExpr> {
        Ok(match e {
            Expr::Column { qualifier, name } => {
                BoundExpr::Column(self.resolve_column(qualifier.as_deref(), name)?)
            }
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Binary { op, lhs, rhs } => BoundExpr::Binary {
                op: *op,
                lhs: Box::new(self.bind_expr(lhs)?),
                rhs: Box::new(self.bind_expr(rhs)?),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(self.bind_expr(expr)?),
                list: list
                    .iter()
                    .map(|e| self.bind_expr(e))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            // `x BETWEEN lo AND hi` desugars to `x >= lo AND x <= hi`
            // (negated: `x < lo OR x > hi`) so the DNF machinery only ever
            // sees basic comparisons.
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let x = self.bind_expr(expr)?;
                let lo = self.bind_expr(lo)?;
                let hi = self.bind_expr(hi)?;
                if *negated {
                    BoundExpr::binary(
                        BinaryOp::Or,
                        BoundExpr::binary(BinaryOp::Lt, x.clone(), lo),
                        BoundExpr::binary(BinaryOp::Gt, x, hi),
                    )
                } else {
                    BoundExpr::binary(
                        BinaryOp::And,
                        BoundExpr::binary(BinaryOp::GtEq, x.clone(), lo),
                        BoundExpr::binary(BinaryOp::LtEq, x, hi),
                    )
                }
            }
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.bind_expr(expr)?),
                negated: *negated,
            },
            Expr::Not(e) => BoundExpr::Not(Box::new(self.bind_expr(e)?)),
            Expr::Neg(e) => BoundExpr::Neg(Box::new(self.bind_expr(e)?)),
            Expr::Func { name, .. } => {
                return Err(TracError::Resolution(format!(
                    "function {name} is not allowed here (aggregates only in SELECT list)"
                )))
            }
        })
    }

    fn bind_projection(&self, item: &SelectItem, ordinal: usize) -> Result<Vec<Projection>> {
        match item {
            SelectItem::Wildcard => {
                let mut out = Vec::new();
                for (t, bt) in self.tables.iter().enumerate() {
                    for (c, col) in bt.schema.columns.iter().enumerate() {
                        out.push(Projection::Scalar {
                            expr: BoundExpr::col(t, c),
                            name: col.name.clone(),
                        });
                    }
                }
                Ok(out)
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    Expr::Func { name, .. } => name.to_ascii_lowercase(),
                    _ => format!("col{ordinal}"),
                });
                if let Expr::Func {
                    name: fname,
                    args,
                    wildcard,
                } = expr
                {
                    let func = AggFunc::parse(fname).ok_or_else(|| {
                        TracError::Resolution(format!("unknown function {fname}"))
                    })?;
                    let arg = if *wildcard {
                        if func != AggFunc::Count {
                            return Err(TracError::Resolution(format!(
                                "{fname}(*) is only valid for COUNT"
                            )));
                        }
                        None
                    } else {
                        if args.len() != 1 {
                            return Err(TracError::Resolution(format!(
                                "{fname} takes exactly one argument"
                            )));
                        }
                        Some(self.bind_expr(&args[0])?)
                    };
                    return Ok(vec![Projection::Aggregate { func, arg, name }]);
                }
                Ok(vec![Projection::Scalar {
                    expr: self.bind_expr(expr)?,
                    name,
                }])
            }
        }
    }
}

impl Binder<'_> {
    /// Binds a `HAVING` predicate: aggregate calls become markers.
    fn bind_having(&self, e: &Expr, agg_table: usize) -> Result<BoundHaving> {
        let mut aggregates = Vec::new();
        let predicate = self.bind_having_expr(e, agg_table, &mut aggregates)?;
        Ok(BoundHaving {
            predicate,
            aggregates,
            agg_table,
        })
    }

    fn bind_having_expr(
        &self,
        e: &Expr,
        agg_table: usize,
        aggs: &mut Vec<(AggFunc, Option<BoundExpr>)>,
    ) -> Result<BoundExpr> {
        Ok(match e {
            Expr::Func {
                name,
                args,
                wildcard,
            } => {
                let func = AggFunc::parse(name)
                    .ok_or_else(|| TracError::Resolution(format!("unknown function {name}")))?;
                let arg = if *wildcard {
                    if func != AggFunc::Count {
                        return Err(TracError::Resolution(format!(
                            "{name}(*) is only valid for COUNT"
                        )));
                    }
                    None
                } else {
                    if args.len() != 1 {
                        return Err(TracError::Resolution(format!(
                            "{name} takes exactly one argument"
                        )));
                    }
                    Some(self.bind_expr(&args[0])?)
                };
                let k = aggs.len();
                aggs.push((func, arg));
                BoundExpr::col(agg_table, k)
            }
            Expr::Binary { op, lhs, rhs } => BoundExpr::Binary {
                op: *op,
                lhs: Box::new(self.bind_having_expr(lhs, agg_table, aggs)?),
                rhs: Box::new(self.bind_having_expr(rhs, agg_table, aggs)?),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(self.bind_having_expr(expr, agg_table, aggs)?),
                list: list
                    .iter()
                    .map(|e| self.bind_having_expr(e, agg_table, aggs))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Not(x) => BoundExpr::Not(Box::new(self.bind_having_expr(x, agg_table, aggs)?)),
            Expr::Neg(x) => BoundExpr::Neg(Box::new(self.bind_having_expr(x, agg_table, aggs)?)),
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.bind_having_expr(expr, agg_table, aggs)?),
                negated: *negated,
            },
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let x = self.bind_having_expr(expr, agg_table, aggs)?;
                let lo = self.bind_having_expr(lo, agg_table, aggs)?;
                let hi = self.bind_having_expr(hi, agg_table, aggs)?;
                let both = BoundExpr::binary(
                    BinaryOp::And,
                    BoundExpr::binary(BinaryOp::GtEq, x.clone(), lo),
                    BoundExpr::binary(BinaryOp::LtEq, x, hi),
                );
                if *negated {
                    BoundExpr::Not(Box::new(both))
                } else {
                    both
                }
            }
            // Plain columns / literals bind normally (columns must be
            // grouping keys; the executor evaluates them against a group
            // representative).
            other => self.bind_expr(other)?,
        })
    }
}

/// Binds a parsed `SELECT` against the catalog visible in `txn`.
pub fn bind_select(txn: &ReadTxn, stmt: &SelectStmt) -> Result<BoundSelect> {
    if stmt.from.is_empty() {
        return Err(TracError::Resolution("empty FROM list".into()));
    }
    let mut tables = Vec::with_capacity(stmt.from.len());
    for tref in &stmt.from {
        let id = txn.table_id(&tref.table)?;
        let schema = Arc::new(txn.schema(id)?);
        let binding = tref.binding_name().to_string();
        if tables
            .iter()
            .any(|bt: &BoundTable| bt.binding.eq_ignore_ascii_case(&binding))
        {
            return Err(TracError::Resolution(format!(
                "duplicate table binding {binding}; add an alias"
            )));
        }
        tables.push(BoundTable {
            id,
            schema,
            binding,
        });
    }
    let binder = Binder { tables: &tables };
    let predicate = stmt
        .where_clause
        .as_ref()
        .map(|w| binder.bind_expr(w))
        .transpose()?;
    let mut projections = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        projections.extend(binder.bind_projection(item, i + 1)?);
    }
    let group_by: Vec<BoundExpr> = stmt
        .group_by
        .iter()
        .map(|g| binder.bind_expr(g))
        .collect::<Result<_>>()?;
    let having = stmt
        .having
        .as_ref()
        .map(|h| binder.bind_having(h, tables.len()))
        .transpose()?;
    if let Some(h) = &having {
        if h.aggregates.is_empty() && group_by.is_empty() {
            return Err(TracError::Resolution(
                "HAVING without aggregates or GROUP BY is just WHERE".into(),
            ));
        }
        // Non-aggregate columns in HAVING must be grouping keys.
        for c in h.predicate.references() {
            if c.table != h.agg_table {
                let as_expr = BoundExpr::Column(c);
                if !group_by.contains(&as_expr) {
                    return Err(TracError::Resolution(
                        "HAVING may only reference aggregates and GROUP BY keys".into(),
                    ));
                }
            }
        }
    }
    let has_agg = projections.iter().any(Projection::is_aggregate) || having.is_some();
    if group_by.is_empty() {
        if has_agg && projections.iter().any(|p| !p.is_aggregate()) {
            return Err(TracError::Resolution(
                "cannot mix aggregate and scalar projections without GROUP BY".into(),
            ));
        }
    } else {
        // Every scalar projection must be one of the grouping keys.
        for p in &projections {
            if let Projection::Scalar { expr, name } = p {
                if !group_by.contains(expr) {
                    return Err(TracError::Resolution(format!(
                        "projection {name} is neither aggregated nor in GROUP BY"
                    )));
                }
            }
        }
    }
    let order_by = stmt
        .order_by
        .iter()
        .map(|k| Ok((binder.bind_expr(&k.expr)?, k.desc)))
        .collect::<Result<_>>()?;
    Ok(BoundSelect {
        tables,
        predicate,
        projections,
        group_by,
        having,
        distinct: stmt.distinct,
        order_by,
        limit: stmt.limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trac_sql::parse_select;
    use trac_storage::{ColumnDef, Database, TableSchema};
    use trac_types::{ColumnDomain, DataType};

    fn setup() -> Database {
        let db = Database::new();
        db.create_table(
            TableSchema::new(
                "activity",
                vec![
                    ColumnDef::new("mach_id", DataType::Text),
                    ColumnDef::new("value", DataType::Text)
                        .with_domain(ColumnDomain::text_set(["idle", "busy"])),
                    ColumnDef::new("event_time", DataType::Timestamp),
                ],
                Some("mach_id"),
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "routing",
                vec![
                    ColumnDef::new("mach_id", DataType::Text),
                    ColumnDef::new("neighbor", DataType::Text),
                    ColumnDef::new("event_time", DataType::Timestamp),
                ],
                Some("mach_id"),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn bind(db: &Database, sql: &str) -> Result<BoundSelect> {
        let stmt = parse_select(sql)?;
        bind_select(&db.begin_read(), &stmt)
    }

    #[test]
    fn binds_q2_with_aliases() {
        let db = setup();
        let q = bind(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.tables[0].binding, "R");
        let pred = q.predicate.unwrap();
        let refs = pred.references();
        // R.mach_id (0,0), A.value (1,1), R.neighbor (0,1), A.mach_id (1,0)
        assert!(refs.contains(&ColRef {
            table: 0,
            column: 0
        }));
        assert!(refs.contains(&ColRef {
            table: 1,
            column: 1
        }));
        assert!(refs.contains(&ColRef {
            table: 0,
            column: 1
        }));
        assert!(refs.contains(&ColRef {
            table: 1,
            column: 0
        }));
        assert_eq!(pred.tables(), BTreeSet::from([0, 1]));
    }

    #[test]
    fn unqualified_ambiguity_detected() {
        let db = setup();
        let err = bind(
            &db,
            "SELECT mach_id FROM Routing R, Activity A WHERE value = 'idle'",
        )
        .unwrap_err();
        assert!(err.message().contains("ambiguous"));
        // `value` alone is fine: only Activity has it.
        let q = bind(
            &db,
            "SELECT value FROM Routing R, Activity A WHERE neighbor = 'x'",
        )
        .unwrap();
        assert_eq!(q.projections.len(), 1);
    }

    #[test]
    fn wildcard_expands_all_tables() {
        let db = setup();
        let q = bind(&db, "SELECT * FROM Routing R, Activity A").unwrap();
        assert_eq!(q.projections.len(), 6);
        assert_eq!(q.output_names()[0], "mach_id");
    }

    #[test]
    fn between_desugars() {
        let db = setup();
        let q = bind(
            &db,
            "SELECT mach_id FROM Activity WHERE event_time BETWEEN \
             TIMESTAMP '2006-01-01' AND TIMESTAMP '2006-12-31'",
        )
        .unwrap();
        match q.predicate.unwrap() {
            BoundExpr::Binary {
                op: BinaryOp::And, ..
            } => {}
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn aggregates_bind_and_mixing_rejected() {
        let db = setup();
        let q = bind(&db, "SELECT COUNT(*) FROM Activity").unwrap();
        assert!(q.is_aggregate());
        let q = bind(&db, "SELECT MIN(event_time), MAX(event_time) FROM Activity").unwrap();
        assert_eq!(q.projections.len(), 2);
        assert!(bind(&db, "SELECT mach_id, COUNT(*) FROM Activity").is_err());
        assert!(bind(&db, "SELECT SUM(*) FROM Activity").is_err());
        // Aggregates in WHERE are rejected.
        assert!(bind(&db, "SELECT mach_id FROM Activity WHERE COUNT(*) > 1").is_err());
    }

    #[test]
    fn unknown_names_rejected() {
        let db = setup();
        assert!(bind(&db, "SELECT x FROM Activity").is_err());
        assert!(bind(&db, "SELECT mach_id FROM Nope").is_err());
        assert!(bind(&db, "SELECT Z.mach_id FROM Activity A").is_err());
        assert!(bind(&db, "SELECT mach_id FROM Activity, Activity").is_err());
    }

    #[test]
    fn map_columns_rewrites() {
        let e = BoundExpr::binary(BinaryOp::Eq, BoundExpr::col(1, 0), BoundExpr::lit("m1"));
        let mapped = e.map_columns(&|c| ColRef {
            table: c.table + 10,
            column: c.column,
        });
        assert!(mapped.references().contains(&ColRef {
            table: 11,
            column: 0
        }));
    }
}
