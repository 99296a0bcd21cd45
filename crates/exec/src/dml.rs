//! DML / DDL statement interpretation.
//!
//! `INSERT`/`UPDATE`/`DELETE`/`CREATE TABLE`/`CREATE INDEX`/`DROP TABLE`
//! run in their own write transaction. These exist so examples and tests
//! can drive the engine entirely through SQL; the monitoring ingest path
//! (which must also bump heartbeats) uses [`trac_storage::WriteTxn::ingest`]
//! directly. `EXPLAIN <select>` lowers the query through the planner and
//! returns the rendered operator tree as a one-column result set.

use crate::executor::execute_sql;
use crate::result::QueryResult;
use trac_expr::{eval_expr, eval_predicate, BoundExpr, Truth};
use trac_sql::{parse_statement, Expr, Statement};
use trac_storage::{ColumnDef, Database, TableSchema};
use trac_types::{DataType, Result, TracError, Value};

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// A `SELECT` produced rows.
    Rows(QueryResult),
    /// A DML statement affected `n` rows.
    Affected(usize),
    /// A DDL statement completed.
    Done,
}

impl StatementResult {
    /// The row count for DML, or the result size for SELECT.
    pub fn affected(&self) -> usize {
        match self {
            StatementResult::Rows(r) => r.len(),
            StatementResult::Affected(n) => *n,
            StatementResult::Done => 0,
        }
    }
}

/// Evaluates a literal-only expression (INSERT values, SET right-hand
/// sides may use arithmetic but not columns of other rows).
fn eval_const(e: &Expr) -> Result<Value> {
    // Bind against an empty table list: any column reference errors out.
    let bound = bind_const(e)?;
    trac_expr::eval_expr(&bound, &[])
}

fn bind_const(e: &Expr) -> Result<BoundExpr> {
    Ok(match e {
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Binary { op, lhs, rhs } => BoundExpr::Binary {
            op: *op,
            lhs: Box::new(bind_const(lhs)?),
            rhs: Box::new(bind_const(rhs)?),
        },
        Expr::Neg(x) => BoundExpr::Neg(Box::new(bind_const(x)?)),
        Expr::Column { name, .. } => {
            return Err(TracError::Resolution(format!(
                "column {name} not allowed in a literal context"
            )))
        }
        other => {
            return Err(TracError::Resolution(format!(
                "unsupported expression in literal context: {other}"
            )))
        }
    })
}

/// Executes any SQL statement against `db`.
pub fn execute_statement(db: &Database, sql: &str) -> Result<StatementResult> {
    match parse_statement(sql)? {
        Statement::Select(_) => {
            let txn = db.begin_read();
            Ok(StatementResult::Rows(execute_sql(&txn, sql)?))
        }
        Statement::Explain(sel) => {
            let txn = db.begin_read();
            let bound = trac_expr::bind_select(&txn, &sel)?;
            let plan = crate::executor::explain_select(&txn, &bound)?;
            let rendered = crate::executor::render_explain(&bound, &plan);
            Ok(StatementResult::Rows(QueryResult {
                columns: vec!["QUERY PLAN".to_string()],
                rows: rendered.lines().map(|l| vec![Value::text(l)]).collect(),
            }))
        }
        Statement::Insert(ins) => {
            let txn = db.begin_write();
            let tid = txn.table_id(&ins.table)?;
            let schema = txn.schema(tid)?;
            let mut n = 0;
            for row_exprs in &ins.rows {
                let values: Vec<Value> = row_exprs.iter().map(eval_const).collect::<Result<_>>()?;
                let full_row = match &ins.columns {
                    None => values,
                    Some(cols) => {
                        if cols.len() != values.len() {
                            return Err(TracError::Execution(format!(
                                "{} columns but {} values",
                                cols.len(),
                                values.len()
                            )));
                        }
                        let mut row = vec![Value::Null; schema.arity()];
                        for (c, v) in cols.iter().zip(values) {
                            let idx = schema.column_index(c).ok_or_else(|| {
                                TracError::Resolution(format!("no column {c} in {}", ins.table))
                            })?;
                            row[idx] = v;
                        }
                        row
                    }
                };
                txn.insert(tid, full_row)?;
                n += 1;
            }
            txn.commit();
            Ok(StatementResult::Affected(n))
        }
        Statement::Update(upd) => {
            let txn = db.begin_write();
            let tid = txn.table_id(&upd.table)?;
            let schema = txn.schema(tid)?;
            let pred = upd
                .where_clause
                .as_ref()
                .map(|w| trac_expr::bind_expr_for_table(&schema, &upd.table, w))
                .transpose()?;
            let assignments: Vec<(usize, BoundExpr)> = upd
                .assignments
                .iter()
                .map(|(c, e)| {
                    let idx = schema.column_index(c).ok_or_else(|| {
                        TracError::Resolution(format!("no column {c} in {}", upd.table))
                    })?;
                    Ok((idx, trac_expr::bind_expr_for_table(&schema, &upd.table, e)?))
                })
                .collect::<Result<_>>()?;
            let mut n = 0;
            for (slot, row) in txn.scan_slots(tid)? {
                let tuple = [row.clone()];
                let hit = match &pred {
                    None => true,
                    Some(p) => eval_predicate(p, &tuple)? == Truth::True,
                };
                if hit {
                    let mut new_row: Vec<Value> = row.to_vec();
                    for (idx, e) in &assignments {
                        new_row[*idx] = eval_expr(e, &tuple)?;
                    }
                    txn.update(tid, slot, new_row)?;
                    n += 1;
                }
            }
            txn.commit();
            Ok(StatementResult::Affected(n))
        }
        Statement::Delete(del) => {
            let txn = db.begin_write();
            let tid = txn.table_id(&del.table)?;
            let schema = txn.schema(tid)?;
            let pred = del
                .where_clause
                .as_ref()
                .map(|w| trac_expr::bind_expr_for_table(&schema, &del.table, w))
                .transpose()?;
            let mut n = 0;
            for (slot, row) in txn.scan_slots(tid)? {
                let tuple = [row];
                let hit = match &pred {
                    None => true,
                    Some(p) => eval_predicate(p, &tuple)? == Truth::True,
                };
                if hit {
                    txn.delete(tid, slot)?;
                    n += 1;
                }
            }
            txn.commit();
            Ok(StatementResult::Affected(n))
        }
        Statement::CreateTable(ct) => {
            let columns: Vec<ColumnDef> = ct
                .columns
                .iter()
                .map(|(name, ty, nullable)| {
                    let dt = DataType::parse_sql_name(ty)
                        .ok_or_else(|| TracError::Catalog(format!("unknown type {ty}")))?;
                    let mut c = ColumnDef::new(name.clone(), dt);
                    if *nullable
                        && ct.source_column.as_deref().map(str::to_ascii_lowercase)
                            != Some(name.to_ascii_lowercase())
                    {
                        c = c.nullable();
                    }
                    Ok(c)
                })
                .collect::<Result<_>>()?;
            let mut schema =
                TableSchema::new(ct.table.clone(), columns, ct.source_column.as_deref())?;
            for (i, body) in ct.checks.iter().enumerate() {
                let bound = trac_expr::bind_expr_for_table(&schema, &ct.table, body)?;
                let name = format!("{}_check{}", ct.table, i + 1);
                let check = trac_expr::BoundCheck::new(name, bound, &schema);
                schema = schema.with_check(std::sync::Arc::new(check));
            }
            db.create_table(schema)?;
            Ok(StatementResult::Done)
        }
        Statement::CreateIndex(ci) => {
            db.create_index(&ci.table, &ci.column)?;
            Ok(StatementResult::Done)
        }
        Statement::DropTable(t) => {
            db.drop_table(&t)?;
            Ok(StatementResult::Done)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Database {
        let db = Database::new();
        execute_statement(
            &db,
            "CREATE TABLE Activity (mach_id TEXT NOT NULL, value TEXT NOT NULL, \
             event_time TIMESTAMP NOT NULL) SOURCE COLUMN mach_id",
        )
        .unwrap();
        execute_statement(&db, "CREATE INDEX a_idx ON Activity (mach_id)").unwrap();
        db
    }

    #[test]
    fn full_sql_lifecycle() {
        let db = setup();
        let r = execute_statement(
            &db,
            "INSERT INTO Activity VALUES \
             ('m1', 'idle', TIMESTAMP '2006-03-11 20:37:46'), \
             ('m2', 'busy', TIMESTAMP '2006-02-10 18:22:01'), \
             ('m3', 'idle', TIMESTAMP '2006-03-12 10:23:05')",
        )
        .unwrap();
        assert_eq!(r, StatementResult::Affected(3));
        let r = execute_statement(
            &db,
            "SELECT mach_id FROM Activity WHERE value = 'idle' ORDER BY mach_id",
        )
        .unwrap();
        match r {
            StatementResult::Rows(q) => {
                assert_eq!(
                    q.column_values("mach_id").unwrap(),
                    vec![Value::text("m1"), Value::text("m3")]
                );
            }
            other => panic!("{other:?}"),
        }
        let r = execute_statement(
            &db,
            "UPDATE Activity SET value = 'busy' WHERE mach_id = 'm1'",
        )
        .unwrap();
        assert_eq!(r.affected(), 1);
        let r = execute_statement(&db, "DELETE FROM Activity WHERE value = 'busy'").unwrap();
        assert_eq!(r.affected(), 2);
        let r = execute_statement(&db, "SELECT COUNT(*) FROM Activity").unwrap();
        match r {
            StatementResult::Rows(q) => assert_eq!(q.scalar(), Some(&Value::Int(1))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let db = Database::new();
        execute_statement(
            &db,
            "CREATE TABLE t (sid TEXT NOT NULL, a INT, b INT) SOURCE COLUMN sid",
        )
        .unwrap();
        execute_statement(&db, "INSERT INTO t (sid, b) VALUES ('s', 5)").unwrap();
        let r = execute_statement(&db, "SELECT a, b FROM t").unwrap();
        match r {
            StatementResult::Rows(q) => {
                assert_eq!(q.rows[0], vec![Value::Null, Value::Int(5)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_table_source_column_forced_non_null() {
        let db = Database::new();
        // `mach_id TEXT` (nullable by default) still works as source col.
        execute_statement(
            &db,
            "CREATE TABLE t (mach_id TEXT, v INT) SOURCE COLUMN mach_id",
        )
        .unwrap();
        let txn = db.begin_read();
        let tid = txn.table_id("t").unwrap();
        let schema = txn.schema(tid).unwrap();
        assert!(!schema.columns[0].nullable);
        assert_eq!(schema.source_column, Some(0));
    }

    #[test]
    fn errors() {
        let db = setup();
        assert!(execute_statement(&db, "INSERT INTO nope VALUES (1)").is_err());
        assert!(execute_statement(&db, "INSERT INTO Activity (mach_id) VALUES (1, 2)").is_err());
        assert!(execute_statement(&db, "UPDATE Activity SET nope = 1").is_err());
        assert!(execute_statement(&db, "CREATE TABLE bad (x BLOB)").is_err());
        // Subexpressions referencing columns in INSERT values are rejected.
        assert!(execute_statement(&db, "INSERT INTO Activity VALUES (mach_id, 'x', 1)").is_err());
    }

    #[test]
    fn explain_renders_plan_rows() {
        let db = setup();
        execute_statement(
            &db,
            "INSERT INTO Activity VALUES ('m1', 'idle', TIMESTAMP '2006-03-11 20:37:46')",
        )
        .unwrap();
        let r = execute_statement(
            &db,
            "EXPLAIN SELECT mach_id FROM Activity WHERE mach_id = 'm1'",
        )
        .unwrap();
        match r {
            StatementResult::Rows(q) => {
                assert_eq!(q.columns, vec!["QUERY PLAN".to_string()]);
                let text: Vec<String> = q
                    .rows
                    .iter()
                    .map(|row| match &row[0] {
                        Value::Text(t) => t.clone(),
                        other => panic!("{other:?}"),
                    })
                    .collect();
                assert!(text[0].starts_with("Project"), "{text:?}");
                assert!(text.iter().any(|l| l.contains("IndexLookup")), "{text:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_with_arithmetic_on_row() {
        let db = Database::new();
        execute_statement(
            &db,
            "CREATE TABLE c (sid TEXT NOT NULL, n INT NOT NULL) SOURCE COLUMN sid",
        )
        .unwrap();
        execute_statement(&db, "INSERT INTO c VALUES ('s', 10)").unwrap();
        execute_statement(&db, "UPDATE c SET n = n + 5").unwrap();
        let r = execute_statement(&db, "SELECT n FROM c").unwrap();
        match r {
            StatementResult::Rows(q) => assert_eq!(q.rows[0][0], Value::Int(15)),
            other => panic!("{other:?}"),
        }
    }
}
