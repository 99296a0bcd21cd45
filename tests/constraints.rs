//! Constraint-aware relevance (the paper's Section 3.4 future work).
//!
//! "If constraints are in form of predicates, we can take a user query
//! and append the conjunction of predicates defining such constraints …
//! This will have the effect in some cases of further increasing the
//! precision of the set of relevant sources."
//!
//! The paper's own motivating case (end of Section 4.1.2): the
//! sequence-of-updates scenario where m1 makes itself its own neighbor
//! "would not occur if we had an explicit constraint on the Routing table
//! that a machine can't have itself as a neighbor."

use std::sync::Arc;
use trac::core::oracle::relevant_sources_oracle;
use trac::core::{RecencyPlan, RelevanceConfig};
use trac::exec::execute_statement;
use trac::expr::{bind_select, parse_check};
use trac::sql::parse_select;
use trac::storage::{ColumnDef, Database, TableSchema};
use trac::types::{ColumnDomain, DataType, SourceId, Timestamp, Value};

fn db_with_routing_constraint(no_self_neighbor: bool) -> Database {
    let db = Database::new();
    let machines = ColumnDomain::text_set(["m1", "m2", "m3"]);
    db.create_table(
        TableSchema::new(
            "activity",
            vec![
                ColumnDef::new("mach_id", DataType::Text).with_domain(machines.clone()),
                ColumnDef::new("value", DataType::Text)
                    .with_domain(ColumnDomain::text_set(["idle", "busy"])),
            ],
            Some("mach_id"),
        )
        .unwrap(),
    )
    .unwrap();
    let mut routing = TableSchema::new(
        "routing",
        vec![
            ColumnDef::new("mach_id", DataType::Text).with_domain(machines.clone()),
            ColumnDef::new("neighbor", DataType::Text).with_domain(machines),
        ],
        Some("mach_id"),
    )
    .unwrap();
    if no_self_neighbor {
        let check = parse_check(&routing, "no_self_neighbor", "mach_id <> neighbor").unwrap();
        routing = routing.with_check(check);
    }
    db.create_table(routing).unwrap();
    db.create_index("activity", "mach_id").unwrap();
    db.create_index("routing", "mach_id").unwrap();
    let a = db.begin_read().table_id("activity").unwrap();
    let r = db.begin_read().table_id("routing").unwrap();
    db.with_write(|w| {
        let t = Timestamp::from_secs(1);
        for m in ["m1", "m2", "m3"] {
            w.heartbeat(&SourceId::new(m), t)?;
        }
        // m2 idle, others busy; routing m1→m3 (no self-loops).
        for (m, v) in [("m1", "busy"), ("m2", "idle"), ("m3", "busy")] {
            w.insert(a, vec![Value::text(m), Value::text(v)])?;
        }
        w.insert(r, vec![Value::text("m1"), Value::text("m3")])?;
        Ok(())
    })
    .unwrap();
    db
}

fn sources(db: &Database, sql: &str) -> (Vec<String>, Vec<String>) {
    let txn = db.begin_read();
    let bound = bind_select(&txn, &parse_select(sql).unwrap()).unwrap();
    let plan = RecencyPlan::build(&txn, &bound, RelevanceConfig::default()).unwrap();
    let computed: Vec<String> = plan
        .execute(&txn)
        .unwrap()
        .iter()
        .map(|s| s.as_str().to_owned())
        .collect();
    let truth: Vec<String> = relevant_sources_oracle(&txn, &bound, 50_000_000)
        .unwrap()
        .iter()
        .map(|s| s.as_str().to_owned())
        .collect();
    (computed, truth)
}

/// The query asking which machines are their own idle neighbor. Without
/// the constraint every machine could become relevant via Routing (it
/// could add itself); with the constraint, no potential Routing tuple
/// can satisfy `mach_id = neighbor`, so nothing is relevant via Routing.
const SELF_NEIGHBOR_QUERY: &str = "SELECT A.mach_id FROM Routing R, Activity A \
     WHERE R.mach_id = R.neighbor AND R.neighbor = A.mach_id AND A.value = 'idle'";

#[test]
fn constraint_tightens_relevance() {
    // Without the constraint: m2 is truly relevant via Routing (it could
    // insert a self-loop that joins its own idle Activity row); the
    // analyzer's upper bound covers everyone (the mixed predicate
    // R.mach_id = R.neighbor defeats Theorem 4).
    let unconstrained = db_with_routing_constraint(false);
    let (computed, truth) = sources(&unconstrained, SELF_NEIGHBOR_QUERY);
    assert_eq!(truth, vec!["m2"]);
    assert_eq!(computed, vec!["m1", "m2", "m3"], "sound upper bound");
    // With the constraint: self-loops are illegal, so *no* source is
    // relevant — and the analyzer proves it (the conjunction of the
    // mixed predicate with the constraint is unsatisfiable), collapsing
    // the upper bound to the exact empty answer.
    let constrained = db_with_routing_constraint(true);
    let (computed, truth) = sources(&constrained, SELF_NEIGHBOR_QUERY);
    assert!(truth.is_empty(), "oracle with constraints: {truth:?}");
    assert!(
        computed.is_empty(),
        "analyzer with constraints: {computed:?}"
    );
}

#[test]
fn constraint_enforced_on_writes() {
    let db = db_with_routing_constraint(true);
    let r = db.begin_read().table_id("routing").unwrap();
    let err = db
        .with_write(|w| w.insert(r, vec![Value::text("m1"), Value::text("m1")]))
        .unwrap_err();
    assert_eq!(err.kind(), "constraint");
    assert!(err.message().contains("no_self_neighbor"));
    // Legal rows still insert.
    db.with_write(|w| w.insert(r, vec![Value::text("m2"), Value::text("m1")]))
        .unwrap();
}

#[test]
fn check_via_sql_ddl() {
    let db = Database::new();
    execute_statement(
        &db,
        "CREATE TABLE routing (mach_id TEXT NOT NULL, neighbor TEXT NOT NULL) \
         SOURCE COLUMN mach_id CHECK (mach_id <> neighbor)",
    )
    .unwrap();
    let ok = execute_statement(&db, "INSERT INTO routing VALUES ('m1', 'm2')");
    assert!(ok.is_ok());
    let err = execute_statement(&db, "INSERT INTO routing VALUES ('m1', 'm1')").unwrap_err();
    assert_eq!(err.kind(), "constraint");
    // Updates are validated too.
    let err = execute_statement(
        &db,
        "UPDATE routing SET neighbor = 'm1' WHERE mach_id = 'm1'",
    )
    .unwrap_err();
    assert_eq!(err.kind(), "constraint");
    // Multiple CHECK clauses parse and roundtrip through Display.
    let stmt = trac::sql::parse_statement(
        "CREATE TABLE t (a INT NOT NULL, b INT) CHECK (a > 0) CHECK (b <> 5)",
    )
    .unwrap();
    let printed = stmt.to_string();
    assert!(printed.contains("CHECK (a > 0)"));
    assert!(printed.contains("CHECK (b <> 5)"));
    assert_eq!(trac::sql::parse_statement(&printed).unwrap(), stmt);
}

#[test]
fn regular_column_constraint_sharpens_satisfiability() {
    // Activity CHECK (value <> 'idle'): a query for idle machines can
    // never be satisfied by a legal tuple, so no source is relevant.
    let db = Database::new();
    let machines = ColumnDomain::text_set(["m1", "m2"]);
    let mut schema = TableSchema::new(
        "activity",
        vec![
            ColumnDef::new("mach_id", DataType::Text).with_domain(machines),
            ColumnDef::new("value", DataType::Text)
                .with_domain(ColumnDomain::text_set(["idle", "busy"])),
        ],
        Some("mach_id"),
    )
    .unwrap();
    let body = trac::expr::bind_expr_for_table(
        &schema,
        "activity",
        &trac::sql::parse_expr("value <> 'idle'").unwrap(),
    )
    .unwrap();
    let check = trac::expr::BoundCheck::new("never_idle", body, &schema);
    schema = schema.with_check(Arc::new(check));
    db.create_table(schema).unwrap();
    db.create_index("activity", "mach_id").unwrap();
    db.with_write(|w| {
        for m in ["m1", "m2"] {
            w.heartbeat(&SourceId::new(m), Timestamp::from_secs(1))?;
        }
        Ok(())
    })
    .unwrap();
    let (computed, truth) = sources(&db, "SELECT mach_id FROM activity WHERE value = 'idle'");
    assert!(truth.is_empty());
    assert!(computed.is_empty());
    // Whereas asking for busy machines keeps everyone relevant.
    let (computed, _) = sources(&db, "SELECT mach_id FROM activity WHERE value = 'busy'");
    assert_eq!(computed, vec!["m1", "m2"]);
}
