//! Reproduces the prototype session of Section 5.1: eleven machines, one
//! of them (m2) a month stale, a user asking who reported "idle".
//!
//! The output mirrors the paper's psql transcript: the exceptional
//! relevant source lands in a `sys_temp_e…` table, the ten normal ones in
//! `sys_temp_a…`, the least/most recent sources are m1 and m3, and the
//! bound of inconsistency is exactly `00:20:00`.
//!
//! ```sh
//! cargo run --example outlier_detection
//! ```

use trac::core::Session;
use trac::storage::{ColumnDef, Database, TableSchema};
use trac::types::{ColumnDomain, DataType, Result, SourceId, Timestamp, TsDuration, Value};

fn main() -> Result<()> {
    let db = Database::new();
    let machines: Vec<String> = (1..=11).map(|i| format!("m{i}")).collect();
    db.create_table(TableSchema::new(
        "activity",
        vec![
            ColumnDef::new("mach_id", DataType::Text).with_domain(ColumnDomain::text_set(machines)),
            ColumnDef::new("value", DataType::Text)
                .with_domain(ColumnDomain::text_set(["idle", "busy"])),
            ColumnDef::new("event_time", DataType::Timestamp),
        ],
        Some("mach_id"),
    )?)?;
    db.create_index("activity", "mach_id")?;
    let activity = db.begin_read().table_id("activity")?;

    // Recency timestamps straight from the paper's transcript:
    // m1 at 14:20:05, m3 at 14:40:05, m4..m11 in between, and m2 a month
    // stale (2006-02-12 17:23:00).
    let base = Timestamp::parse("2006-03-15 14:20:05")?;
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
    })?;

    let session = Session::new(db);
    let out =
        session.recency_report("SELECT mach_id, value FROM Activity A WHERE value = 'idle'")?;

    // The paper's transcript, reconstructed.
    println!("mydb=# SELECT * FROM recencyReport($$");
    println!("mydb-#   SELECT mach_id, value FROM Activity A");
    println!("mydb-#   WHERE value = 'idle'$$)");
    println!("mydb-#   AS t(mach_id TEXT, activity TEXT);");
    println!("{}", out.render());
    println!();
    println!("-- query the exceptional relevant data sources");
    println!("mydb=# SELECT * FROM {};", out.exceptional_table());
    println!(
        "{}",
        session.query(&format!(
            "SELECT sid, recency FROM {} ORDER BY sid",
            out.exceptional_table()
        ))?
    );
    println!();
    println!("-- query the ''normal'' relevant data sources");
    println!("mydb=# SELECT * FROM {};", out.normal_table());
    println!(
        "{}",
        session.query(&format!(
            "SELECT sid, recency FROM {} ORDER BY sid",
            out.normal_table()
        ))?
    );

    // Sanity: the three headline numbers of the paper's transcript.
    assert_eq!(out.report.exceptional.len(), 1);
    assert_eq!(out.report.exceptional[0].0.as_str(), "m2");
    assert_eq!(out.report.least_recent.as_ref().unwrap().0.as_str(), "m1");
    assert_eq!(out.report.most_recent.as_ref().unwrap().0.as_str(), "m3");
    assert_eq!(
        out.report.inconsistency_bound.unwrap(),
        TsDuration::from_mins(20),
        "Bound of inconsistency: 00:20:00"
    );
    Ok(())
}
