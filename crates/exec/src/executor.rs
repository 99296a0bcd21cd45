//! The SELECT execution entry points.
//!
//! Execution is two-phase: [`trac_plan::plan_select`] lowers the bound
//! query into a [`PhysicalPlan`] operator tree, and
//! [`execute_plan_with`] runs that tree through the columnar engine,
//! batch by batch. [`PlanInfo`] is a per-table rendering of the same
//! plan for EXPLAIN-style reporting.

use crate::result::QueryResult;
use std::sync::OnceLock;
use trac_expr::{bind_select, BoundSelect};
use trac_plan::{plan_select, ExecOptions, PhysicalPlan};
use trac_sql::parse_select;
use trac_storage::ReadTxn;
use trac_types::Result;

/// Signature of an installable translation validator: given a bound
/// query and the physical plan lowered for it, return one message per
/// soundness violation (empty = the plan is certified).
///
/// This crate cannot depend on `trac-analyze` (the analyzer sits above
/// the executor), so the validator is injected as a plain function
/// pointer; the `trac` facade crate wires the analyzer-backed
/// implementation in via [`install_plan_check`].
pub type PlanCheck = fn(&BoundSelect, &PhysicalPlan) -> Vec<String>;

/// Signature of an installable EXPLAIN annotator: renders a plan with
/// extra per-operator detail (the analyzer's certified dataflow facts).
pub type ExplainAnnotator = fn(&BoundSelect, &PhysicalPlan) -> String;

static PLAN_CHECK: OnceLock<PlanCheck> = OnceLock::new();
static EXPLAIN_ANNOTATOR: OnceLock<ExplainAnnotator> = OnceLock::new();

/// Installs a process-wide plan validator, run (debug builds only)
/// against every plan just before execution, or when a stored plan is
/// lowered (see [`debug_validate_plan`]). Returns `false` when a
/// validator was already installed (the first one wins).
pub fn install_plan_check(check: PlanCheck) -> bool {
    PLAN_CHECK.set(check).is_ok()
}

/// Installs a process-wide EXPLAIN annotator used by `EXPLAIN <select>`.
/// Returns `false` when one was already installed (the first one wins).
pub fn install_explain_annotator(annotate: ExplainAnnotator) -> bool {
    EXPLAIN_ANNOTATOR.set(annotate).is_ok()
}

/// Pre-execution hook: in debug builds, an installed [`PlanCheck`]
/// certifies every plan before the operators run; a violation aborts
/// with the validator's findings. Release builds skip the check. A
/// caller that stores a plan to run later (a prepared recency plan)
/// calls it once, when the plan is lowered.
pub fn debug_validate_plan(q: &BoundSelect, plan: &PhysicalPlan) {
    #[cfg(debug_assertions)]
    if let Some(check) = PLAN_CHECK.get() {
        let findings = check(q, plan);
        assert!(
            findings.is_empty(),
            "physical plan failed translation validation:\n{}\nplan:\n{}",
            findings.join("\n"),
            plan.render()
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = (q, plan);
}

/// Renders a plan for EXPLAIN output: the installed annotator when
/// present, the bare operator tree otherwise.
pub fn render_explain(q: &BoundSelect, plan: &PhysicalPlan) -> String {
    match EXPLAIN_ANNOTATOR.get() {
        Some(annotate) => annotate(q, plan),
        None => plan.render(),
    }
}

/// EXPLAIN-style description of how a query was executed.
#[derive(Debug, Clone, Default)]
pub struct PlanInfo {
    /// `(table binding, access path / join strategy)` in join order.
    pub steps: Vec<(String, String)>,
}

impl PlanInfo {
    /// Summarizes a physical plan as per-table steps.
    pub fn from_plan(plan: &PhysicalPlan) -> PlanInfo {
        PlanInfo {
            steps: plan.table_steps(),
        }
    }
}

/// Parses, binds and executes a `SELECT` string in `txn`'s snapshot.
pub fn execute_sql(txn: &ReadTxn, sql: &str) -> Result<QueryResult> {
    execute_sql_with(txn, sql, ExecOptions::default())
}

/// Parses, binds and executes a `SELECT` string with explicit execution
/// options (e.g. a parallel morsel-driven pipeline when
/// `opts.threads > 1`).
pub fn execute_sql_with(txn: &ReadTxn, sql: &str, opts: ExecOptions) -> Result<QueryResult> {
    let stmt = parse_select(sql)?;
    let bound = bind_select(txn, &stmt)?;
    let (result, _) = execute_select_with(txn, &bound, opts)?;
    Ok(result)
}

/// Executes a bound `SELECT` with default options.
pub fn execute_select(txn: &ReadTxn, q: &BoundSelect) -> Result<QueryResult> {
    let (result, _) = execute_select_with(txn, q, ExecOptions::default())?;
    Ok(result)
}

/// Executes a bound `SELECT`, also reporting the plan taken.
pub fn execute_select_with(
    txn: &ReadTxn,
    q: &BoundSelect,
    opts: ExecOptions,
) -> Result<(QueryResult, PlanInfo)> {
    let plan = plan_select(txn, q, opts)?;
    debug_validate_plan(q, &plan);
    let info = PlanInfo::from_plan(&plan);
    let result = execute_plan_with(txn, &plan, opts)?;
    Ok((result, info))
}

/// Executes a physical plan through the columnar engine, `opts.batch_size`
/// rows per leaf batch. With `opts.threads > 1` the engine drives a
/// FROM-order filter/join chain over a `Scan` or `IndexLookup` through
/// its morsel-parallel route; the plan itself is the same at every
/// thread count.
pub fn execute_plan_with(
    txn: &ReadTxn,
    plan: &PhysicalPlan,
    opts: ExecOptions,
) -> Result<QueryResult> {
    crate::batch::execute_plan_columnar(txn, plan, opts)
}

/// Plans a bound `SELECT` without executing it: the EXPLAIN path
/// renders the same [`PhysicalPlan`] the executor interprets.
pub fn explain_select(txn: &ReadTxn, q: &BoundSelect) -> Result<PhysicalPlan> {
    plan_select(txn, q, ExecOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trac_expr::{AggFunc, BoundExpr, Projection};
    use trac_storage::{ColumnDef, Database, TableSchema};
    use trac_types::{DataType, SourceId, Timestamp, Value};

    /// Loads the paper's Table 1 (Activity) and Table 2 (Routing).
    fn paper_db() -> Database {
        let db = Database::new();
        db.create_table(
            TableSchema::new(
                "activity",
                vec![
                    ColumnDef::new("mach_id", DataType::Text),
                    ColumnDef::new("value", DataType::Text),
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
        db.create_index("activity", "mach_id").unwrap();
        db.create_index("routing", "mach_id").unwrap();
        let a = db.begin_read().table_id("activity").unwrap();
        let r = db.begin_read().table_id("routing").unwrap();
        db.with_write(|w| {
            for (m, v, t) in [
                ("m1", "idle", "2006-03-11 20:37:46"),
                ("m2", "busy", "2006-02-10 18:22:01"),
                ("m3", "idle", "2006-03-12 10:23:05"),
            ] {
                let ts = Timestamp::parse(t).unwrap();
                w.ingest(
                    &SourceId::new(m),
                    a,
                    vec![Value::text(m), Value::text(v), Value::Timestamp(ts)],
                    ts,
                )?;
            }
            for (m, n, t) in [
                ("m1", "m3", "2006-03-12 23:20:06"),
                ("m2", "m3", "2006-02-10 03:34:21"),
            ] {
                let ts = Timestamp::parse(t).unwrap();
                w.ingest(
                    &SourceId::new(m),
                    r,
                    vec![Value::text(m), Value::text(n), Value::Timestamp(ts)],
                    ts,
                )?;
            }
            Ok(())
        })
        .unwrap();
        db
    }

    fn run(db: &Database, sql: &str) -> QueryResult {
        execute_sql(&db.begin_read(), sql).unwrap()
    }

    #[test]
    fn paper_q1_single_relation() {
        let db = paper_db();
        let r = run(
            &db,
            "SELECT mach_id FROM Activity WHERE mach_id IN ('m1','m2') AND value = 'idle'",
        );
        assert_eq!(r.rows, vec![vec![Value::text("m1")]]);
    }

    #[test]
    fn paper_q2_join_returns_m3() {
        let db = paper_db();
        // Which neighbors of m1 reported idle? Routing says m3; m3 is idle.
        let r = run(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        );
        assert_eq!(r.rows, vec![vec![Value::text("m3")]]);
    }

    #[test]
    fn join_strategies_agree() {
        let db = paper_db();
        let sql = "SELECT A.mach_id FROM Routing R, Activity A \
                   WHERE A.value = 'idle' AND R.neighbor = A.mach_id";
        let stmt = parse_select(sql).unwrap();
        let txn = db.begin_read();
        let bound = bind_select(&txn, &stmt).unwrap();
        let configs = [
            ExecOptions::default(),
            ExecOptions {
                enable_index_scan: false,
                enable_hash_join: true,
                ..Default::default()
            },
            ExecOptions {
                enable_index_scan: false,
                enable_hash_join: false,
                ..Default::default()
            },
            ExecOptions {
                enable_index_scan: true,
                enable_hash_join: false,
                ..Default::default()
            },
            // Every strategy again, morsel-driven with 3 workers.
            ExecOptions::default().with_parallelism(3, 2),
            ExecOptions {
                enable_index_scan: false,
                enable_hash_join: true,
                ..Default::default()
            }
            .with_parallelism(3, 2),
            ExecOptions {
                enable_index_scan: false,
                enable_hash_join: false,
                ..Default::default()
            }
            .with_parallelism(3, 2),
            ExecOptions {
                enable_index_scan: true,
                enable_hash_join: false,
                ..Default::default()
            }
            .with_parallelism(3, 2),
        ];
        let mut results: Vec<Vec<Vec<Value>>> = Vec::new();
        for opts in configs {
            let (mut r, _) = execute_select_with(&txn, &bound, opts).unwrap();
            r.rows.sort();
            results.push(r.rows);
        }
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert_eq!(results[0].len(), 2); // m1->m3 idle, m2->m3 idle
    }

    #[test]
    fn malformed_bound_selects_error_instead_of_panicking() {
        // `BoundSelect` is a public type that callers (e.g. the recency
        // planner) construct by hand, so invariants the binder enforces
        // must degrade to typed errors here, not panics.
        let db = paper_db();
        let txn = db.begin_read();
        let stmt = parse_select("SELECT COUNT(*) FROM Activity").unwrap();
        let mut bound = bind_select(&txn, &stmt).unwrap();
        // Mixed scalar + aggregate without GROUP BY (binder rejects this).
        bound.projections.push(Projection::Scalar {
            expr: BoundExpr::col(0, 0),
            name: "mach_id".into(),
        });
        let err = execute_select_with(&txn, &bound, ExecOptions::default()).unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(err.message().contains("mach_id"), "{err}");
        // SUM with a missing argument (binder always supplies one).
        let stmt = parse_select("SELECT SUM(event_time) FROM Activity").unwrap();
        let mut bound = bind_select(&txn, &stmt).unwrap();
        bound.projections = vec![Projection::Aggregate {
            func: AggFunc::Sum,
            arg: None,
            name: "sum".into(),
        }];
        let err = execute_select_with(&txn, &bound, ExecOptions::default()).unwrap_err();
        assert_eq!(err.kind(), "execution");
        // MIN with a missing argument.
        bound.projections = vec![Projection::Aggregate {
            func: AggFunc::Min,
            arg: None,
            name: "min".into(),
        }];
        let err = execute_select_with(&txn, &bound, ExecOptions::default()).unwrap_err();
        assert_eq!(err.kind(), "execution");
    }

    #[test]
    fn index_plan_is_used_for_selective_probe() {
        let db = paper_db();
        let txn = db.begin_read();
        let stmt = parse_select("SELECT value FROM Activity WHERE mach_id = 'm1'").unwrap();
        let bound = bind_select(&txn, &stmt).unwrap();
        let (r, plan) = execute_select_with(&txn, &bound, ExecOptions::default()).unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("idle")]]);
        assert!(plan.steps[0].1.starts_with("IndexProbe"), "plan: {plan:?}");
    }

    #[test]
    fn count_star_and_empty_aggregates() {
        let db = paper_db();
        let r = run(&db, "SELECT COUNT(*) FROM Activity");
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
        let r = run(&db, "SELECT COUNT(*) FROM Activity WHERE value = 'gone'");
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
        let r = run(
            &db,
            "SELECT MIN(event_time), MAX(event_time) FROM Activity WHERE value = 'gone'",
        );
        assert_eq!(r.rows, vec![vec![Value::Null, Value::Null]]);
    }

    #[test]
    fn min_max_over_timestamps() {
        let db = paper_db();
        let r = run(&db, "SELECT MIN(event_time), MAX(event_time) FROM Activity");
        assert_eq!(
            r.rows[0][0],
            Value::Timestamp(Timestamp::parse("2006-02-10 18:22:01").unwrap())
        );
        assert_eq!(
            r.rows[0][1],
            Value::Timestamp(Timestamp::parse("2006-03-12 10:23:05").unwrap())
        );
    }

    #[test]
    fn distinct_order_limit() {
        let db = paper_db();
        let r = run(&db, "SELECT DISTINCT value FROM Activity ORDER BY value");
        assert_eq!(
            r.rows,
            vec![vec![Value::text("busy")], vec![Value::text("idle")]]
        );
        let r = run(
            &db,
            "SELECT mach_id FROM Activity ORDER BY event_time DESC LIMIT 2",
        );
        assert_eq!(
            r.rows,
            vec![vec![Value::text("m3")], vec![Value::text("m1")]]
        );
    }

    #[test]
    fn or_predicates_are_not_mangled() {
        let db = paper_db();
        let r = run(
            &db,
            "SELECT mach_id FROM Activity WHERE value = 'busy' OR mach_id = 'm3' ORDER BY mach_id",
        );
        assert_eq!(
            r.rows,
            vec![vec![Value::text("m2")], vec![Value::text("m3")]]
        );
    }

    #[test]
    fn constant_false_prunes_everything() {
        let db = paper_db();
        let r = run(&db, "SELECT mach_id FROM Activity WHERE 1 = 2");
        assert!(r.is_empty());
        let r = run(&db, "SELECT COUNT(*) FROM Activity WHERE 1 = 2");
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
        let r = run(
            &db,
            "SELECT COUNT(*) FROM Routing R, Activity A WHERE 1 = 2 AND R.neighbor = A.mach_id",
        );
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn cross_product_without_predicate() {
        let db = paper_db();
        let r = run(&db, "SELECT COUNT(*) FROM Routing R, Activity A");
        assert_eq!(r.scalar(), Some(&Value::Int(6))); // 2 × 3
    }

    #[test]
    fn sum_avg() {
        let db = Database::new();
        db.create_table(
            TableSchema::new(
                "nums",
                vec![
                    ColumnDef::new("sid", DataType::Text),
                    ColumnDef::new("x", DataType::Int).nullable(),
                ],
                Some("sid"),
            )
            .unwrap(),
        )
        .unwrap();
        let t = db.begin_read().table_id("nums").unwrap();
        db.with_write(|w| {
            w.insert(t, vec![Value::text("s"), Value::Int(1)])?;
            w.insert(t, vec![Value::text("s"), Value::Int(2)])?;
            w.insert(t, vec![Value::text("s"), Value::Null])?;
            w.insert(t, vec![Value::text("s"), Value::Int(3)])
        })
        .unwrap();
        let r = run(&db, "SELECT SUM(x), AVG(x), COUNT(x), COUNT(*) FROM nums");
        assert_eq!(
            r.rows[0],
            vec![
                Value::Int(6),
                Value::Float(2.0),
                Value::Int(3),
                Value::Int(4)
            ]
        );
    }

    /// Two error contracts of the engine, serial and morsel-driven: a
    /// projection error past LIMIT never surfaces, and a filter error
    /// counts as not true.
    #[test]
    fn limit_masks_projection_errors_and_filter_errors_drop_the_row() -> Result<()> {
        let db = Database::new();
        let t = db.create_table(TableSchema::new(
            "nums",
            vec![
                ColumnDef::new("sid", DataType::Text),
                ColumnDef::new("x", DataType::Int),
            ],
            Some("sid"),
        )?)?;
        db.with_write(|w| {
            w.insert(t, vec![Value::text("s"), Value::Int(1)])?;
            w.insert(t, vec![Value::text("s"), Value::Int(0)])
        })?;
        let txn = db.begin_read();
        // Batch size 1 puts the x = 0 row in a batch of its own; 1024
        // puts both rows in one batch, whose vectorized projection fails
        // and is replayed lane by lane.
        for (threads, batch) in [(1, 1), (1, 1024), (2, 1), (2, 1024)] {
            let opts = ExecOptions::default().with_parallelism(threads, batch);
            let at = format!("threads={threads} batch={batch}");
            // LIMIT is checked before the x = 0 lane is projected.
            let r = execute_sql_with(&txn, "SELECT 10 / x FROM nums LIMIT 1", opts)?;
            assert_eq!(r.rows, vec![vec![Value::Int(10)]], "{at}");
            let err = execute_sql_with(&txn, "SELECT 10 / x FROM nums", opts).unwrap_err();
            assert!(err.message().contains("division by zero"), "{at}: {err}");
            let r = execute_sql_with(&txn, "SELECT x FROM nums WHERE 10 / x > 1", opts)?;
            assert_eq!(r.rows, vec![vec![Value::Int(1)]], "{at}");
        }
        Ok(())
    }

    #[test]
    fn group_by_counts_per_key() {
        let db = paper_db();
        let r = run(
            &db,
            "SELECT value, COUNT(*) AS n FROM Activity GROUP BY value ORDER BY value",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::text("busy"), Value::Int(1)],
                vec![Value::text("idle"), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn group_by_with_joins_and_multiple_aggregates() {
        let db = paper_db();
        // Per neighbor: how many routing rows point at it, and the latest
        // routing event time.
        let r = run(
            &db,
            "SELECT R.neighbor, COUNT(*) AS n, MAX(R.event_time) AS latest \
             FROM Routing R, Activity A WHERE R.neighbor = A.mach_id \
             GROUP BY R.neighbor ORDER BY R.neighbor",
        );
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::text("m3"));
        assert_eq!(r.rows[0][1], Value::Int(2));
    }

    #[test]
    fn group_by_validation() {
        let db = paper_db();
        let txn = db.begin_read();
        // Scalar projection not in GROUP BY is rejected.
        let err = execute_sql(
            &txn,
            "SELECT mach_id, COUNT(*) FROM Activity GROUP BY value",
        )
        .unwrap_err();
        assert!(err.message().contains("GROUP BY"), "{err}");
        // Grouping key may be projected.
        assert!(execute_sql(
            &txn,
            "SELECT value FROM Activity GROUP BY value ORDER BY value"
        )
        .is_ok());
        // Empty input yields no groups (not one NULL-ish row).
        let r = execute_sql(
            &txn,
            "SELECT value, COUNT(*) FROM Activity WHERE 1 = 2 GROUP BY value",
        )
        .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn having_filters_groups() {
        let db = paper_db();
        // Only the state reported by at least two machines survives.
        let r = run(
            &db,
            "SELECT value, COUNT(*) AS n FROM Activity GROUP BY value \
             HAVING COUNT(*) >= 2 ORDER BY value",
        );
        assert_eq!(r.rows, vec![vec![Value::text("idle"), Value::Int(2)]]);
        // HAVING may also reference grouping keys.
        let r = run(
            &db,
            "SELECT value, COUNT(*) AS n FROM Activity GROUP BY value \
             HAVING COUNT(*) >= 1 AND value = 'busy'",
        );
        assert_eq!(r.rows, vec![vec![Value::text("busy"), Value::Int(1)]]);
        // Arithmetic over aggregates works.
        let r = run(
            &db,
            "SELECT mach_id FROM Activity GROUP BY mach_id \
             HAVING COUNT(*) * 2 > 1 ORDER BY mach_id",
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn having_on_global_aggregate() {
        let db = paper_db();
        let r = run(&db, "SELECT COUNT(*) FROM Activity HAVING COUNT(*) > 2");
        assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
        let r = run(&db, "SELECT COUNT(*) FROM Activity HAVING COUNT(*) > 5");
        assert!(r.is_empty(), "HAVING suppresses the global row");
        // Even over an empty input the aggregate is computed for HAVING.
        let r = run(
            &db,
            "SELECT COUNT(*) FROM Activity WHERE 1 = 2 HAVING COUNT(*) = 0",
        );
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn having_validation() {
        let db = paper_db();
        let txn = db.begin_read();
        // Non-grouped column in HAVING rejected.
        let err = execute_sql(
            &txn,
            "SELECT value, COUNT(*) FROM Activity GROUP BY value HAVING mach_id = 'm1'",
        )
        .unwrap_err();
        assert!(err.message().contains("GROUP BY keys"), "{err}");
        // Pointless HAVING rejected.
        let err =
            execute_sql(&txn, "SELECT mach_id FROM Activity HAVING mach_id = 'm1'").unwrap_err();
        assert!(err.message().contains("just WHERE"), "{err}");
    }

    #[test]
    fn group_by_order_and_limit_apply_to_groups() {
        let db = paper_db();
        let r = run(
            &db,
            "SELECT mach_id, COUNT(*) AS n FROM Activity GROUP BY mach_id \
             ORDER BY mach_id DESC LIMIT 2",
        );
        assert_eq!(
            r.column_values("mach_id").unwrap(),
            vec![Value::text("m3"), Value::text("m2")]
        );
    }

    #[test]
    fn three_way_join() {
        let db = paper_db();
        // Neighbors-of-neighbors through two Routing hops.
        let r = run(
            &db,
            "SELECT COUNT(*) FROM Routing R1, Routing R2, Activity A \
             WHERE R1.neighbor = R2.mach_id AND R2.neighbor = A.mach_id",
        );
        // Routing: m1->m3, m2->m3; no routing rows for m3, so zero.
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
        let r = run(
            &db,
            "SELECT R2.mach_id FROM Routing R1, Routing R2, Activity A \
             WHERE R1.neighbor = A.mach_id AND R2.neighbor = A.mach_id AND R1.mach_id = 'm1' \
             ORDER BY R2.mach_id",
        );
        assert_eq!(
            r.rows,
            vec![vec![Value::text("m1")], vec![Value::text("m2")]]
        );
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        let db = paper_db();
        let txn = db.begin_read();
        // Every query shape the serial suite exercises, unsorted on
        // purpose: the morsel-ordered gather must reproduce the serial
        // row order exactly, not just the same multiset.
        let queries = [
            "SELECT mach_id, value FROM Activity",
            "SELECT mach_id FROM Activity WHERE mach_id IN ('m1','m2') AND value = 'idle'",
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
            "SELECT R2.mach_id FROM Routing R1, Routing R2, Activity A \
             WHERE R1.neighbor = A.mach_id AND R2.neighbor = A.mach_id AND R1.mach_id = 'm1'",
            "SELECT COUNT(*) FROM Routing R, Activity A",
            "SELECT value, COUNT(*) AS n FROM Activity GROUP BY value ORDER BY value",
            "SELECT DISTINCT value FROM Activity",
            "SELECT mach_id FROM Activity ORDER BY event_time DESC LIMIT 2",
            "SELECT mach_id FROM Activity WHERE 1 = 2",
            "SELECT mach_id FROM Activity LIMIT 0",
        ];
        for sql in queries {
            let serial = execute_sql(&txn, sql).unwrap();
            for threads in [2, 8] {
                for batch in [1, 2, 1024] {
                    let opts = ExecOptions::default().with_parallelism(threads, batch);
                    let parallel = execute_sql_with(&txn, sql, opts).unwrap();
                    assert_eq!(
                        serial.rows, parallel.rows,
                        "{sql} diverged at threads={threads} batch={batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn limit_stops_pulling_early() {
        let db = paper_db();
        let r = run(&db, "SELECT mach_id FROM Activity LIMIT 1");
        assert_eq!(r.len(), 1);
        let r = run(&db, "SELECT mach_id FROM Activity LIMIT 0");
        assert!(r.is_empty());
        // DISTINCT dedups before LIMIT counts.
        let r = run(&db, "SELECT DISTINCT value FROM Activity LIMIT 2");
        assert_eq!(r.len(), 2);
    }
}
