//! The correctness gate. Everything here runs outside the timers; a miss
//! is a failed op, and any failed op makes the run incorrect.

use crate::gen::{self, Shape};
use crate::run::Config;
use crate::workload::Workload;
use std::collections::BTreeSet;
use trac_core::oracle::{relevant_sources_oracle, DEFAULT_ORACLE_BUDGET};
use trac_core::{Method, ReportOutput, Session};
use trac_storage::Database;
use trac_types::{Result, SourceId};

#[derive(Default)]
pub struct GateCount {
    pub attempted: u64,
    pub failed: u64,
}

/// Two reports agree byte for byte: result rows, the normal and the
/// exceptional member pairs, and the guarantee.
pub fn same_report(a: &ReportOutput, b: &ReportOutput) -> std::result::Result<(), String> {
    if a.result != b.result {
        return Err(format!("result {:?} != {:?}", a.result.rows, b.result.rows));
    }
    if a.report.normal != b.report.normal || a.report.exceptional != b.report.exceptional {
        return Err(format!(
            "member pairs differ ({} vs {} sources)",
            a.report.relevant_count(),
            b.report.relevant_count()
        ));
    }
    if a.report.guarantee != b.report.guarantee {
        return Err("guarantee differs".into());
    }
    Ok(())
}

fn sources(out: &ReportOutput) -> BTreeSet<&SourceId> {
    let r = &out.report;
    r.normal
        .iter()
        .chain(&r.exceptional)
        .map(|(s, _)| s)
        .collect()
}

/// One statement on the full database: the report's result is the plain
/// query's; the registered report and the folded one after it both equal
/// the rescan session's; Focused ⊆ Naive.
fn check_statement(focused: &Session, rescan: &Session, sql: &str) -> Result<Option<String>> {
    let registered = focused.recency_report(sql)?;
    let folded = focused.recency_report(sql)?;
    let plain = focused.query(sql)?;
    let reference = rescan.recency_report(sql)?;
    let naive = focused.recency_report_with(sql, Method::Naive)?;
    if registered.result != plain {
        return Ok(Some("report result differs from the plain query's".into()));
    }
    for (what, out) in [("registered", &registered), ("folded", &folded)] {
        if let Err(why) = same_report(out, &reference) {
            return Ok(Some(format!("{what} report vs rescan session: {why}")));
        }
    }
    if !sources(&registered).is_subset(&sources(&naive)) {
        return Ok(Some("Focused is not a subset of Naive".into()));
    }
    Ok(None)
}

/// One statement on the oracle twin: Focused ⊇ the brute-force `S(Q)`
/// (soundness: no relevant source is ever missed).
fn check_against_oracle(twin: &Database, sql: &str) -> Result<Option<String>> {
    let txn = twin.begin_read();
    let bound = trac_expr::bind_select(&txn, &trac_sql::parse_select(sql)?)?;
    let exact = relevant_sources_oracle(&txn, &bound, DEFAULT_ORACLE_BUDGET)?;
    let session = Session::new(twin.clone());
    let out = session.recency_report(sql)?;
    let focused = sources(&out);
    let missed = exact.iter().filter(|s| !focused.contains(s)).count();
    Ok((missed > 0).then(|| format!("Focused misses {missed} sources the oracle finds")))
}

/// Statements checked on the full database per run. Each check is five
/// reports, one of them Naive over every source.
const GATED_STATEMENTS: usize = 25;

/// Oracle checks per run: every warm statement, and on `adhoc_reports`
/// the first two of each shape (enumeration is quadratic in the twin's
/// source count for the join shapes).
const ORACLE_STATEMENTS: usize = 10;

/// Checks the workload's statements (on `adhoc_reports` an even sample of
/// them, which the stride spreads over all five shapes) before the window
/// opens, in sessions of its own so the measured session's plan cache is left as
/// the warm-up left it. The oracle needs small finite domains, so it runs
/// on a twin database with the same templates over its own id range.
pub fn before_window(cfg: &Config, w: &Workload, db: &Database) -> Result<GateCount> {
    let mut count = GateCount::default();
    let mut settle = |sql: &str, what: &str, r: Result<Option<String>>| {
        count.attempted += 1;
        let why = match r {
            Ok(None) => return,
            Ok(Some(why)) => why,
            Err(e) => e.to_string(),
        };
        count.failed += 1;
        eprintln!("FAILED gate ({what}): {why}\n  {sql}");
    };
    let focused = Session::new(db.clone());
    let mut rescan = Session::new(db.clone());
    rescan.exec_options.maintain_reports = false;
    let stride = w.statements.len().div_ceil(GATED_STATEMENTS);
    for s in w.statements.iter().step_by(stride) {
        settle(
            &s.sql,
            "statement",
            check_statement(&focused, &rescan, &s.sql),
        );
        focused.close();
        rescan.close();
    }
    drop((focused, rescan));

    let shape = Shape::ORACLE_TWIN;
    let twin = gen::build_db(cfg.seed, shape)?;
    let twin_w = Workload::new(cfg.kind, cfg.seed, shape.sources);
    for s in twin_w.statements.iter().take(ORACLE_STATEMENTS) {
        settle(&s.sql, "oracle", check_against_oracle(&twin.db, &s.sql));
    }
    Ok(count)
}
