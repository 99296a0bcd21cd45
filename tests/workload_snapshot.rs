//! Pins the observable behaviour of the 12 sample workload queries:
//! result columns, result rows, and the recency-analysis guarantee must
//! stay byte-identical across executor refactors.
//!
//! The expected block below was captured from the pre-plan-IR executor
//! (the monolithic `execute_select_with` pipeline); the streaming
//! operator executor must reproduce it exactly.

use trac::core::{RecencyPlan, RelevanceConfig};
use trac::expr::bind_select;
use trac::sql::parse_select;
use trac::storage::Database;
use trac::workload::{
    load_eval_db, load_paper_tables, load_section_42_tables, EvalConfig, PAPER_QUERIES,
};
use trac_analyze::{PAPER_SAMPLE_QUERIES, SECTION42_SAMPLE_QUERIES};

/// One line per query: `name | guarantee | columns | rows`.
fn snapshot_line(db: &Database, name: &str, sql: &str, opts: trac::plan::ExecOptions) -> String {
    let txn = db.begin_read();
    let stmt = parse_select(sql).expect(name);
    let bound = bind_select(&txn, &stmt).expect(name);
    let plan = RecencyPlan::build(&txn, &bound, RelevanceConfig::default()).expect(name);
    let result = trac::exec::execute_select_with(&txn, &bound, opts)
        .expect(name)
        .0;
    format!(
        "{name} | {} | {} | {:?}",
        plan.guarantee,
        result.columns.join(","),
        result.rows
    )
}

fn actual_snapshot(opts: trac::plan::ExecOptions) -> Vec<String> {
    let mut lines = Vec::new();
    let paper = load_paper_tables().expect("paper tables");
    for (name, sql) in PAPER_SAMPLE_QUERIES {
        lines.push(snapshot_line(&paper.db, name, sql, opts));
    }
    let s42 = load_section_42_tables(&["myScheduler", "mx", "my"]).expect("section 4.2 tables");
    for (name, sql) in SECTION42_SAMPLE_QUERIES {
        lines.push(snapshot_line(&s42.db, name, sql, opts));
    }
    // Same fixture scale the analyzer sweep uses.
    let eval = load_eval_db(&EvalConfig::new(200, 20)).expect("eval db");
    for (name, sql) in PAPER_QUERIES {
        lines.push(snapshot_line(&eval.db, &format!("eval/{name}"), sql, opts));
    }
    lines
}

/// Captured from the pre-refactor executor; do not edit by hand.
const EXPECTED: &str = "\
paper/Q1 | minimum | mach_id | [[Text(\"m1\")]]
paper/Q2 | upper bound | mach_id | [[Text(\"m3\")]]
paper/quickstart | minimum | mach_id,value | [[Text(\"m1\"), Text(\"idle\")], [Text(\"m3\"), Text(\"idle\")]]
paper/ordered | minimum | mach_id | [[Text(\"m1\")], [Text(\"m3\")]]
paper/unfiltered | minimum | mach_id | [[Text(\"m1\")], [Text(\"m2\")], [Text(\"m3\")]]
paper/refined | minimum | mach_id | [[Text(\"m1\")], [Text(\"m3\")]]
section42/Q3 | minimum | runningMachineId | []
section42/Q4 | upper bound | runningMachineId | []
eval/Q1 | minimum | count | [[Int(20)]]
eval/Q2 | minimum | count | [[Int(76)]]
eval/Q3 | upper bound | count | [[Int(22)]]
eval/Q4 | upper bound | count | [[Int(74)]]";

#[test]
fn workload_queries_are_byte_identical_to_pre_refactor_snapshot() {
    assert_eq!(
        actual_snapshot(trac::plan::ExecOptions::default()).join("\n"),
        EXPECTED
    );
}

/// The morsel-driven parallel route must reproduce the identical
/// snapshot: its deterministic morsel-order merge makes parallel
/// execution byte-identical to serial, even at 8 workers over these
/// small fixtures (every query then runs with more workers than
/// morsels, exercising the worker-clamping path too).
#[test]
fn workload_snapshot_is_byte_identical_at_threads_8() {
    let opts = trac::plan::ExecOptions::default().with_parallelism(8, 16);
    assert_eq!(actual_snapshot(opts).join("\n"), EXPECTED);
}

/// `paper/refined` reaches its Minimum guarantee (pinned above) through
/// the refinement pass, not the plain Theorem 3 preconditions: its
/// `mach_id <> value` term is mixed, and only the vacuity proof upgrades
/// the Corollary 3 upper bound.
#[test]
fn refined_sample_minimum_comes_from_the_refinement_pass() {
    let paper = load_paper_tables().expect("paper tables");
    let txn = paper.db.begin_read();
    let (name, sql) = PAPER_SAMPLE_QUERIES
        .iter()
        .find(|(n, _)| *n == "paper/refined")
        .expect("refined sample present");
    let stmt = parse_select(sql).expect(name);
    let bound = bind_select(&txn, &stmt).expect(name);
    let plan = RecencyPlan::build(&txn, &bound, RelevanceConfig::default()).expect(name);
    assert_eq!(plan.subqueries.len(), 1);
    assert!(
        plan.subqueries[0].refined,
        "upgrade must be flagged refined"
    );
}
