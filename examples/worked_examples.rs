//! The paper's worked examples, end to end (Sections 3.4 and 4.1).
//!
//! * Table 1 / Table 2 sample instances;
//! * `Q_1` (single relation): relevant sources = {m1, m2} by Theorem 3;
//! * `Q_2` (join): `S(Q2, R) = {m1}` and `S(Q2, A) = {m3}` via the
//!   generated semijoins of Theorem 4 / Corollary 5;
//! * the all-busy variant where a *sequence* of updates from an
//!   irrelevant source changes the answer (Section 4.1.2's closing
//!   observation).
//!
//! ```sh
//! cargo run --example worked_examples
//! ```

use trac::core::oracle::relevant_sources_oracle;
use trac::core::{RecencyPlan, RelevanceConfig};
use trac::exec::{execute_sql, execute_statement};
use trac::expr::bind_select;
use trac::sql::parse_select;
use trac::types::Result;
use trac::workload::load_paper_tables;

fn show(db: &trac::storage::Database, label: &str, sql: &str) -> Result<()> {
    println!("== {label}\n   {sql}");
    let txn = db.begin_read();
    let stmt = parse_select(sql)?;
    let bound = bind_select(&txn, &stmt)?;
    let result = execute_sql(&txn, sql)?;
    println!("{result}");
    let plan = RecencyPlan::build(&txn, &bound, RelevanceConfig::default())?;
    for sub in &plan.subqueries {
        println!(
            "   S(Q, {}) [{:?}]: {}",
            sub.via_relation,
            sub.status,
            sub.sql()
        );
    }
    let computed = plan.execute(&txn)?;
    let truth = relevant_sources_oracle(&txn, &bound, 50_000_000)?;
    println!(
        "   relevant sources (generated queries): {:?}  guarantee: {}",
        computed
            .iter()
            .map(trac::types::SourceId::as_str)
            .collect::<Vec<_>>(),
        plan.guarantee
    );
    println!(
        "   relevant sources (brute-force truth): {:?}",
        truth
            .iter()
            .map(trac::types::SourceId::as_str)
            .collect::<Vec<_>>()
    );
    assert!(computed.is_superset(&truth), "completeness must hold");
    println!();
    Ok(())
}

fn main() -> Result<()> {
    let tables = load_paper_tables()?;
    let db = &tables.db;

    println!("Table 1 (Activity):");
    println!(
        "{}\n",
        execute_sql(&db.begin_read(), "SELECT * FROM Activity ORDER BY mach_id")?
    );
    println!("Table 2 (Routing):");
    println!(
        "{}\n",
        execute_sql(&db.begin_read(), "SELECT * FROM Routing ORDER BY mach_id")?
    );

    // Q1 of Section 4.1.1: which of m1, m2 reported idle?
    show(
        db,
        "Q1 (Theorem 3: minimum = {m1, m2})",
        "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'",
    )?;

    // Q2 of Section 4.1.2: which neighbors of m1 reported idle?
    show(
        db,
        "Q2 (Theorem 4 via A; Corollary 5 via R): S = {m1} ∪ {m3}",
        "SELECT A.mach_id FROM Routing R, Activity A \
         WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
    )?;

    // Section 4.1.2's closing scenario: make all machines busy. Now no
    // single update from m1 or m2 can change Q2's result …
    execute_statement(db, "UPDATE Activity SET value = 'busy'")?;
    show(
        db,
        "Q2 with every machine busy: S(Q2,R) = {}, S(Q2,A) = {m3}",
        "SELECT A.mach_id FROM Routing R, Activity A \
         WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
    )?;

    // … but a *sequence* of updates from (irrelevant) m1 can: first m1
    // turns idle — which makes m1 relevant via Routing — then m1 adds
    // itself as its own neighbor, changing the query result.
    execute_statement(
        db,
        "UPDATE Activity SET value = 'idle' WHERE mach_id = 'm1'",
    )?;
    execute_statement(
        db,
        "INSERT INTO Routing VALUES ('m1', 'm1', TIMESTAMP '2006-03-13 00:00:00')",
    )?;
    show(
        db,
        "Q2 after m1's two updates: the result now includes m1",
        "SELECT A.mach_id FROM Routing R, Activity A \
         WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
    )?;
    println!(
        "Note: the paper points out this sequence is impossible if the schema \
         forbids self-neighbors — constraints tighten relevance (future work in §3.4)."
    );
    Ok(())
}
