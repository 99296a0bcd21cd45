//! The catalog-statistics cost model.
//!
//! The storage catalog maintains approximate per-table statistics at
//! write time ([`trac_storage::TableStats`]): a row counter and, per
//! column, a null count, min/max bounds and a linear-counting NDV
//! sketch. This module turns those counters into the planner's two
//! numbers — **estimated output rows** and an abstract **cost** in
//! row-touch units — for access-path selection, join-order selection
//! (when [`crate::ExecOptions::cost_based_join_order`] is on) and
//! EXPLAIN annotations.
//!
//! Estimates steer plan *choice* only; every emitted plan computes the
//! same result regardless of how wrong the statistics are (the
//! differential suite mutates statistics to prove exactly that).

use trac_expr::{BoundExpr, ColRef};
use trac_sql::BinaryOp;
use trac_storage::TableStats;

/// Statistics-backed estimator for one table, over statistics the
/// caller read once for the whole lowering.
pub(crate) struct TableCost<'a> {
    /// Estimated row count (the write-time counter, not a scan).
    pub rows: u64,
    pub stats: &'a TableStats,
}

/// Saturating `f64 → u64` row-estimate conversion (ceiling).
fn to_rows(x: f64) -> u64 {
    if x <= 0.0 {
        0
    } else if x >= u64::MAX as f64 {
        u64::MAX
    } else {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            x.ceil() as u64
        }
    }
}

/// The column `e` names when it is a plain reference into table `pos`.
fn col_of(e: &BoundExpr, pos: usize) -> Option<usize> {
    match e {
        BoundExpr::Column(ColRef { table, column }) if *table == pos => Some(*column),
        _ => None,
    }
}

/// True when `e` is a literal (the only operand shape the selectivity
/// heuristics trust).
fn is_literal(e: &BoundExpr) -> bool {
    matches!(e, BoundExpr::Literal(_))
}

impl TableCost<'_> {
    /// `stats` as an estimator. O(1) — no scan, no copy.
    pub fn new(stats: &TableStats) -> TableCost<'_> {
        TableCost {
            rows: stats.rows,
            stats,
        }
    }

    /// Estimated number of distinct values in `column`, in `[1, rows]`
    /// (defaults to `rows` for columns with no recorded statistics).
    pub fn ndv(&self, column: usize) -> u64 {
        self.stats
            .column(column)
            .map_or_else(|| self.rows.max(1), |c| c.ndv(self.rows))
    }

    /// Estimated fraction of NULLs in `column`.
    fn null_fraction(&self, column: usize) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.stats
            .column(column)
            .map_or(0.0, |c| (c.nulls as f64 / self.rows as f64).min(1.0))
    }

    /// Estimated selectivity of one conjunct against this table at FROM
    /// position `pos`. Textbook heuristics: `1/ndv` for equality,
    /// `k/ndv` for `IN` lists, `1/3` for ranges, the null fraction for
    /// `IS NULL`; unknown shapes are assumed to keep everything.
    pub fn selectivity(&self, c: &BoundExpr, pos: usize) -> f64 {
        match c {
            BoundExpr::Binary { op, lhs, rhs } => match op {
                BinaryOp::Eq => {
                    let col = col_of(lhs, pos)
                        .filter(|_| is_literal(rhs))
                        .or_else(|| col_of(rhs, pos).filter(|_| is_literal(lhs)));
                    col.map_or(1.0, |c| 1.0 / self.ndv(c) as f64)
                }
                BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
                    let ranged = (col_of(lhs, pos).is_some() && is_literal(rhs))
                        || (col_of(rhs, pos).is_some() && is_literal(lhs));
                    if ranged {
                        1.0 / 3.0
                    } else {
                        1.0
                    }
                }
                BinaryOp::And => self.selectivity(lhs, pos) * self.selectivity(rhs, pos),
                BinaryOp::Or => (self.selectivity(lhs, pos) + self.selectivity(rhs, pos)).min(1.0),
                _ => 1.0,
            },
            BoundExpr::InList {
                expr,
                list,
                negated: false,
            } => {
                col_of(expr, pos).map_or(1.0, |c| (list.len() as f64 / self.ndv(c) as f64).min(1.0))
            }
            BoundExpr::IsNull { expr, negated } => col_of(expr, pos).map_or(1.0, |c| {
                let f = self.null_fraction(c);
                if *negated {
                    1.0 - f
                } else {
                    f
                }
            }),
            _ => 1.0,
        }
    }

    /// Estimated rows surviving all `conjuncts` (applied to position
    /// `pos`), clamped to `[0, rows]`.
    pub fn filtered_rows(&self, conjuncts: &[BoundExpr], pos: usize) -> u64 {
        let mut est = self.rows as f64;
        for c in conjuncts {
            est *= self.selectivity(c, pos);
        }
        to_rows(est).min(self.rows)
    }

    /// Estimated rows matched by an index probe with `keys` point keys
    /// on `column`.
    pub fn probe_rows(&self, column: usize, keys: usize) -> u64 {
        to_rows(keys as f64 * self.rows as f64 / self.ndv(column) as f64).min(self.rows)
    }

    /// Cost of reading the table sequentially: every row is touched.
    pub fn seq_cost(&self) -> u64 {
        self.rows.max(1)
    }

    /// Cost of an index probe: the matched posting rows are touched.
    pub fn probe_cost(&self, column: usize, keys: usize) -> u64 {
        self.probe_rows(column, keys).max(1)
    }
}

/// Estimated join output: `outer × inner / max(key NDVs)` for an
/// equi-join, saturating multiply for a cross join.
pub(crate) fn join_rows(outer_est: u64, inner_est: u64, key_ndv: Option<u64>) -> u64 {
    match key_ndv {
        Some(ndv) => to_rows(outer_est as f64 * inner_est as f64 / ndv.max(1) as f64),
        None => outer_est.saturating_mul(inner_est),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trac_expr::BoundExpr as E;
    use trac_storage::{ColumnDef, Database, TableId, TableSchema};
    use trac_types::{DataType, Value};

    fn setup() -> (Database, TableId) {
        let db = Database::new();
        let tid = db
            .create_table(
                TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("sid", DataType::Text),
                        ColumnDef::new("v", DataType::Int).nullable(),
                    ],
                    Some("sid"),
                )
                .unwrap(),
            )
            .unwrap();
        db.with_write(|w| {
            for n in 0..30i64 {
                w.insert(
                    tid,
                    vec![
                        Value::text(format!("s{}", n % 3)),
                        if n % 10 == 0 {
                            Value::Null
                        } else {
                            Value::Int(n % 5)
                        },
                    ],
                )?;
            }
            Ok(())
        })
        .unwrap();
        (db, tid)
    }

    #[test]
    fn equality_selectivity_uses_ndv() {
        let (db, tid) = setup();
        let txn = db.begin_read();
        let stats = txn.table_stats(tid);
        let tc = TableCost::new(&stats);
        assert_eq!(tc.rows, 30);
        let eq = E::binary(BinaryOp::Eq, E::col(0, 0), E::lit("s1"));
        let est = tc.filtered_rows(std::slice::from_ref(&eq), 0);
        // ndv(sid) ≈ 3, so ≈ 10 rows; the sketch may be off by a little.
        assert!((5..=15).contains(&est), "est {est}");
        // Range conjuncts take the 1/3 heuristic.
        let rng = E::binary(BinaryOp::Lt, E::col(0, 1), E::lit(2i64));
        assert_eq!(tc.filtered_rows(std::slice::from_ref(&rng), 0), 10);
        // Unknown shapes keep everything.
        let opaque = E::binary(BinaryOp::Eq, E::col(0, 0), E::col(0, 1));
        assert_eq!(tc.filtered_rows(std::slice::from_ref(&opaque), 0), 30);
    }

    #[test]
    fn probe_beats_scan_only_when_keys_are_selective() {
        let (db, tid) = setup();
        let txn = db.begin_read();
        let stats = txn.table_stats(tid);
        let tc = TableCost::new(&stats);
        assert_eq!(tc.seq_cost(), 30);
        assert!(tc.probe_cost(0, 1) < tc.seq_cost());
        // Probing every distinct key touches roughly the whole table.
        assert!(tc.probe_cost(0, 10) >= tc.seq_cost());
    }

    #[test]
    fn join_estimate_divides_by_key_ndv() {
        assert_eq!(join_rows(10, 30, Some(3)), 100);
        assert_eq!(join_rows(10, 30, None), 300);
        assert_eq!(join_rows(u64::MAX, 2, None), u64::MAX);
        assert_eq!(join_rows(0, 30, Some(3)), 0);
    }
}
