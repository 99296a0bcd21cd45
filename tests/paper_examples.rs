//! End-to-end reproduction of every worked example in the paper.
//!
//! * Section 4.1.1, query `Q_1` over Table 1 — Theorem 3 minimum.
//! * Section 4.1.2, query `Q_2` over Tables 1 & 2 — Theorem 4 /
//!   Corollary 5 semijoins, `S(Q2,R) = {m1}`, `S(Q2,A) = {m3}`.
//! * Section 4.1.2's closing sequence-of-updates counterexample.
//! * Section 4.2's Q3/Q4 semantics-vs-recency cases (a), (b), (c).
//! * Section 5.1's prototype session (m2 exceptional, bound `00:20:00`).

use trac::core::oracle::{relevant_sources_oracle, relevant_sources_oracle_via};
use trac::core::relevance::SubqueryStatus;
use trac::core::{Guarantee, RecencyPlan, RelevanceConfig, Session};
use trac::exec::{execute_sql, execute_statement};
use trac::expr::bind_select;
use trac::sql::parse_select;
use trac::storage::Database;
use trac::types::{SourceId, Timestamp, TsDuration, Value};
use trac::workload::{load_paper_tables, load_section_42_tables};

fn relevant(db: &Database, sql: &str) -> (RecencyPlan, Vec<String>) {
    let txn = db.begin_read();
    let stmt = parse_select(sql).unwrap();
    let bound = bind_select(&txn, &stmt).unwrap();
    let plan = RecencyPlan::build(&txn, &bound, RelevanceConfig::default()).unwrap();
    let sources = plan.execute(&txn).unwrap();
    (
        plan,
        sources.iter().map(|s| s.as_str().to_owned()).collect(),
    )
}

fn oracle_names(db: &Database, sql: &str) -> Vec<String> {
    let txn = db.begin_read();
    let stmt = parse_select(sql).unwrap();
    let bound = bind_select(&txn, &stmt).unwrap();
    relevant_sources_oracle(&txn, &bound, 50_000_000)
        .unwrap()
        .iter()
        .map(|s| s.as_str().to_owned())
        .collect()
}

const Q2: &str = "SELECT A.mach_id FROM Routing R, Activity A \
                  WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id";

#[test]
fn section_411_q1_example() {
    let t = load_paper_tables().unwrap();
    let sql = "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'";
    // The query result: only m1 (m2 is busy).
    let r = execute_sql(&t.db.begin_read(), sql).unwrap();
    assert_eq!(r.rows, vec![vec![Value::text("m1")]]);
    // Relevant sources: exactly {m1, m2}, a guaranteed minimum.
    let (plan, sources) = relevant(&t.db, sql);
    assert_eq!(plan.guarantee, Guarantee::Minimum);
    assert_eq!(sources, vec!["m1", "m2"]);
    assert_eq!(oracle_names(&t.db, sql), vec!["m1", "m2"]);
}

#[test]
fn section_412_q2_example() {
    let t = load_paper_tables().unwrap();
    // Query result: m3 (the one neighbor of m1, and it is idle).
    let r = execute_sql(&t.db.begin_read(), Q2).unwrap();
    assert_eq!(r.rows, vec![vec![Value::text("m3")]]);
    // Paper: S(Q2,R) = {m1}, S(Q2,A) = {m3}; the generated queries find
    // exactly these (the via-R upper bound happens to be exact here).
    let (plan, sources) = relevant(&t.db, Q2);
    assert_eq!(sources, vec!["m1", "m3"]);
    let via_r = plan
        .subqueries
        .iter()
        .find(|s| s.via_relation == "R")
        .unwrap();
    let via_a = plan
        .subqueries
        .iter()
        .find(|s| s.via_relation == "A")
        .unwrap();
    assert_eq!(via_r.status, SubqueryStatus::UpperBound); // J_rm present
    assert_eq!(via_a.status, SubqueryStatus::Minimum); // Theorem 4
                                                       // Ground truth decomposition matches the paper exactly.
    let txn = t.db.begin_read();
    let bound = bind_select(&txn, &parse_select(Q2).unwrap()).unwrap();
    let via_r_truth = relevant_sources_oracle_via(&txn, &bound, 0, 50_000_000).unwrap();
    let via_a_truth = relevant_sources_oracle_via(&txn, &bound, 1, 50_000_000).unwrap();
    assert_eq!(
        via_r_truth.iter().map(SourceId::as_str).collect::<Vec<_>>(),
        vec!["m1"]
    );
    assert_eq!(
        via_a_truth.iter().map(SourceId::as_str).collect::<Vec<_>>(),
        vec!["m3"]
    );
}

#[test]
fn section_412_sequence_of_updates_counterexample() {
    let t = load_paper_tables().unwrap();
    // All machines busy: no single update from m1/m2 can change Q2.
    execute_statement(&t.db, "UPDATE Activity SET value = 'busy'").unwrap();
    let (_, sources) = relevant(&t.db, Q2);
    assert_eq!(sources, vec!["m3"]);
    assert_eq!(oracle_names(&t.db, Q2), vec!["m3"]);
    let before = execute_sql(&t.db.begin_read(), Q2).unwrap();
    assert!(before.is_empty());
    // First update: m1 reports idle — makes m1 relevant via Routing…
    execute_statement(
        &t.db,
        "UPDATE Activity SET value = 'idle' WHERE mach_id = 'm1'",
    )
    .unwrap();
    let after_first = execute_sql(&t.db.begin_read(), Q2).unwrap();
    assert!(
        after_first.is_empty(),
        "one update must not change the result"
    );
    assert!(oracle_names(&t.db, Q2).contains(&"m1".to_string()));
    // …second update: m1 becomes its own neighbor — result changes.
    execute_statement(
        &t.db,
        "INSERT INTO Routing VALUES ('m1', 'm1', TIMESTAMP '2006-03-13 00:00:00')",
    )
    .unwrap();
    let after_second = execute_sql(&t.db.begin_read(), Q2).unwrap();
    assert_eq!(after_second.rows, vec![vec![Value::text("m1")]]);
}

#[test]
fn section_42_query_semantics_cases() {
    let t = load_section_42_tables(&["myScheduler", "mx", "my"]).unwrap();
    // A stale conflicting R row keeps the other relation non-empty, as in
    // the paper's narrative.
    execute_statement(&t.db, "INSERT INTO R VALUES ('my', 1)").unwrap();
    let q3 = "SELECT R.runningMachineId FROM R WHERE R.jobId = 1";
    let q4 = "SELECT R.runningMachineId FROM S, R \
              WHERE S.schedMachineId = 'myScheduler' AND S.jobId = 1 \
              AND R.jobId = 1 AND R.runningMachineId = S.remoteMachineId";
    // Q3: all machines are always relevant.
    let (_, s3) = relevant(&t.db, q3);
    assert_eq!(s3, vec!["mx", "my", "myScheduler"]);
    // Case (a): nothing in S for the job ⇒ only myScheduler.
    let (_, s4) = relevant(&t.db, q4);
    assert_eq!(s4, vec!["myScheduler"]);
    // Case (b): S row exists but doesn't join ⇒ {myScheduler, mx}.
    execute_statement(&t.db, "INSERT INTO S VALUES ('myScheduler', 1, 'mx')").unwrap();
    let r = execute_sql(&t.db.begin_read(), q4).unwrap();
    assert!(r.is_empty());
    let (_, s4) = relevant(&t.db, q4);
    assert_eq!(s4, vec!["mx", "myScheduler"]);
    // Case (c): mx reports ⇒ result found, same relevant pair.
    execute_statement(&t.db, "INSERT INTO R VALUES ('mx', 1)").unwrap();
    let r = execute_sql(&t.db.begin_read(), q4).unwrap();
    assert_eq!(r.rows, vec![vec![Value::text("mx")]]);
    let (_, s4) = relevant(&t.db, q4);
    assert_eq!(s4, vec!["mx", "myScheduler"]);
}

#[test]
fn section_51_prototype_session() {
    // Eleven machines; m2 a month stale. The paper's transcript numbers.
    let db = Database::new();
    execute_statement(
        &db,
        "CREATE TABLE Activity (mach_id TEXT NOT NULL, value TEXT NOT NULL, \
         event_time TIMESTAMP NOT NULL) SOURCE COLUMN mach_id",
    )
    .unwrap();
    db.create_index("Activity", "mach_id").unwrap();
    let activity = db.begin_read().table_id("activity").unwrap();
    let base = Timestamp::parse("2006-03-15 14:20:05").unwrap();
    db.with_write(|w| {
        let ingest = |m: &str, v: &str, ts: Timestamp| {
            w.ingest(
                &SourceId::new(m),
                activity,
                vec![Value::text(m), Value::text(v), Value::Timestamp(ts)],
                ts,
            )
        };
        ingest("m1", "idle", base)?;
        ingest("m2", "busy", Timestamp::parse("2006-02-12 17:23:00")?)?;
        ingest("m3", "idle", Timestamp::parse("2006-03-15 14:40:05")?)?;
        for i in 4..=11 {
            ingest(
                &format!("m{i}"),
                "busy",
                base + TsDuration::from_mins(i - 3),
            )?;
        }
        Ok(())
    })
    .unwrap();
    let session = Session::new(db);
    let out = session
        .recency_report("SELECT mach_id, value FROM Activity A WHERE value = 'idle'")
        .unwrap();
    // Result: m1 and m3 idle (2 rows).
    assert_eq!(out.result.len(), 2);
    // NOTICEs: m2 exceptional; least recent m1 @ 14:20:05; most recent
    // m3 @ 14:40:05; bound of inconsistency 00:20:00; 10 normal sources.
    assert_eq!(out.report.exceptional.len(), 1);
    assert_eq!(out.report.exceptional[0].0.as_str(), "m2");
    assert_eq!(out.report.normal.len(), 10);
    let (ls, lt) = out.report.least_recent.clone().unwrap();
    assert_eq!(
        (ls.as_str(), lt.to_string().as_str()),
        ("m1", "2006-03-15 14:20:05")
    );
    let (ms, mt) = out.report.most_recent.clone().unwrap();
    assert_eq!(
        (ms.as_str(), mt.to_string().as_str()),
        ("m3", "2006-03-15 14:40:05")
    );
    assert_eq!(
        out.report.inconsistency_bound.unwrap().to_string(),
        "00:20:00"
    );
    // The temp tables hold the same split and are queryable.
    let e = session
        .query(&format!("SELECT sid FROM {}", out.exceptional_table()))
        .unwrap();
    assert_eq!(e.rows, vec![vec![Value::text("m2")]]);
    let a = session
        .query(&format!("SELECT COUNT(*) FROM {}", out.normal_table()))
        .unwrap();
    assert_eq!(a.scalar(), Some(&Value::Int(10)));
}
