//! Quickstart: monitor three machines, ask a question, read the recency
//! report that comes back with the answer.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use trac::core::Session;
use trac::storage::{ColumnDef, Database, TableSchema};
use trac::types::{ColumnDomain, DataType, Result, SourceId, Timestamp, Value};

fn main() -> Result<()> {
    // 1. A database. The system Heartbeat table (one recency timestamp
    //    per data source) is created automatically.
    let db = Database::new();

    // 2. A monitored relation. Every tuple is tagged with the data source
    //    that produced it — here the machine id — declared via the
    //    SOURCE COLUMN designation.
    db.create_table(TableSchema::new(
        "activity",
        vec![
            ColumnDef::new("mach_id", DataType::Text)
                .with_domain(ColumnDomain::text_set(["m1", "m2", "m3"])),
            ColumnDef::new("value", DataType::Text)
                .with_domain(ColumnDomain::text_set(["idle", "busy"])),
            ColumnDef::new("event_time", DataType::Timestamp),
        ],
        Some("mach_id"),
    )?)?;
    db.create_index("activity", "mach_id")?;

    // 3. Updates stream in from the sources, each advancing its source's
    //    recency timestamp. m2 reported a month ago and has been silent
    //    since — exactly the situation TRAC reports instead of hiding.
    let activity = db.begin_read().table_id("activity")?;
    db.with_write(|w| {
        for (m, v, t) in [
            ("m1", "idle", "2006-03-15 14:20:05"),
            ("m2", "busy", "2006-02-12 17:23:00"),
            ("m3", "idle", "2006-03-15 14:40:05"),
        ] {
            let ts = Timestamp::parse(t)?;
            w.ingest(
                &SourceId::new(m),
                activity,
                vec![Value::text(m), Value::text(v), Value::Timestamp(ts)],
                ts,
            )?;
        }
        Ok(())
    })?;

    // 4. Ask a question through a TRAC session. The recency report comes
    //    back with the result, computed against the same snapshot.
    let session = Session::new(db);
    let out = session.recency_report("SELECT mach_id, value FROM activity WHERE value = 'idle'")?;

    println!("{}", out.render());
    println!();
    let generated = out.generated_sql();
    println!(
        "generated recency quer{}:",
        if generated.len() == 1 { "y" } else { "ies" }
    );
    for sql in &generated {
        println!("  {sql}");
    }
    println!();
    println!(
        "relevant sources: {} normal, {} exceptional ({})",
        out.report.normal.len(),
        out.report.exceptional.len(),
        out.report.guarantee
    );
    // The detail outlives this call — it sits in session temp tables:
    let detail = session.query(&format!(
        "SELECT sid, recency FROM {} ORDER BY sid",
        out.normal_table()
    ))?;
    println!("\ncontents of {}:\n{detail}", out.normal_table());
    Ok(())
}
