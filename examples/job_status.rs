//! Section 4.2: how query phrasing changes both semantics *and* recency.
//!
//! A user asks "is my job (id 1), submitted to myScheduler, running yet?"
//! Two phrasings — `Q3` (look only in `R`) and `Q4` (join `S` and `R`) —
//! get very different recency reports, and `Q4`'s focused report walks
//! through the paper's three cases:
//!
//! (a) nothing in `S` for the job    → only {myScheduler} is relevant;
//! (b) `S` row exists, no `R` match  → {myScheduler, remoteMachine};
//! (c) `S` row joins an `R` row      → {myScheduler, runningMachine}.
//!
//! One realistic wrinkle sets the stage: machine `my` *stale-reported*
//! job 1 a while ago (the kind of conflicting view this system tolerates
//! by design), so `R` is never empty for the job — exactly the situation
//! the paper's case analysis describes.
//!
//! ```sh
//! cargo run --example job_status
//! ```

use trac::core::Session;
use trac::exec::execute_statement;
use trac::types::Result;
use trac::workload::load_section_42_tables;

const Q3: &str = "SELECT R.runningMachineId FROM R WHERE R.jobId = 1";
const Q4: &str = "SELECT R.runningMachineId FROM S, R \
                  WHERE S.schedMachineId = 'myScheduler' AND S.jobId = 1 \
                  AND R.jobId = 1 AND R.runningMachineId = S.remoteMachineId";

fn report(session: &Session, label: &str, sql: &str) -> Result<Vec<String>> {
    let out = session.recency_report(sql)?;
    let relevant: Vec<String> = out
        .report
        .normal
        .iter()
        .chain(&out.report.exceptional)
        .map(|(s, _)| s.to_string())
        .collect();
    println!(
        "{label}\n   result rows: {}   relevant sources ({}): {:?}",
        out.result.len(),
        out.report.guarantee,
        relevant
    );
    for sql in out.generated_sql() {
        if !sql.starts_with("--") {
            println!("   recency query: {sql}");
        }
    }
    println!();
    Ok(relevant)
}

fn main() -> Result<()> {
    // Machines: the scheduler plus two potential execute machines.
    let t = load_section_42_tables(&["myScheduler", "mx", "my"])?;
    let session = Session::new(t.db.clone());
    // The stale conflicting report: `my` thinks it ran job 1 at some
    // point. S and R "are supposed to capture the current state, but they
    // can allow inconsistencies due to time lags" (Section 4.2).
    execute_statement(&t.db, "INSERT INTO R VALUES ('my', 1)")?;

    println!("--- case (a): nothing in S for job 1 ---");
    report(&session, "Q3 (R only): every machine could matter", Q3)?;
    let r = report(
        &session,
        "Q4 (S join R): only myScheduler can change this",
        Q4,
    )?;
    assert_eq!(r, vec!["myScheduler"]);

    println!("--- case (b): scheduler assigned job 1 to mx; mx hasn't reported ---");
    execute_statement(&t.db, "INSERT INTO S VALUES ('myScheduler', 1, 'mx')")?;
    report(&session, "Q3: still every machine", Q3)?;
    let r = report(&session, "Q4: watch myScheduler and mx", Q4)?;
    assert_eq!(r, vec!["mx", "myScheduler"]);

    println!("--- case (c): mx reports it is running job 1 ---");
    execute_statement(&t.db, "INSERT INTO R VALUES ('mx', 1)")?;
    report(
        &session,
        "Q3: answer found, but all sources were relevant",
        Q3,
    )?;
    let r = report(
        &session,
        "Q4: answer found; relevant = {myScheduler, mx}",
        Q4,
    )?;
    assert_eq!(r, vec!["mx", "myScheduler"]);

    println!(
        "Takeaway (Section 4.2): Q3 answers from R alone — any machine's update \
         could change it, so the report must cover everyone. Q4 pins the job to \
         its scheduler, so TRAC can tell the user precisely whose staleness to \
         worry about. Same question, different semantics, different recency."
    );
    Ok(())
}
