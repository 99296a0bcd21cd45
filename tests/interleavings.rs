//! Dynamic determinism certification: the interleaving explorer run
//! against the real storage/exec/core stack.
//!
//! Parallelism is a run-time route of the executor: the plan is the
//! same at every thread count, and `ExecOptions::threads` decides
//! whether the morsel-driven worker pool runs it. These tests prove the
//! two dynamic claims by exhaustively or randomly exploring bounded
//! interleavings of that pool on a single core:
//!
//! * **determinism** — parallel output is byte-identical to serial
//!   under *every* explored schedule at `threads ∈ {2, 4}` (the
//!   explorer's power to detect the seeded dual bug, a merge in
//!   completion order instead of morsel order, is shown by the
//!   `trac-exec` unit test `explorer_detects_a_completion_order_merge`,
//!   which drives the private morsel driver directly);
//! * **report freshness** — the prepared-plan cache is *not*
//!   invalidated by heartbeat traffic (PR 8): entries persist across
//!   writes and carry delta-maintained report state instead. No
//!   schedule may exist in which a report served from maintained state
//!   is stale — a post-write report must reflect the write, and a
//!   report racing the write must land on one side of it, never
//!   between (`Site::DeltaFold` drives writes into the middle of the
//!   fold).

use std::sync::Mutex;

use trac::core::Session;
use trac::exec::schedule::{self, participate, Strategy};
use trac::exec::{execute_plan_with, ExecOptions};
use trac::expr::bind_select;
use trac::plan::plan_select;
use trac::sql::parse_select;
use trac::storage::ReadTxn;
use trac::types::{SourceId, Timestamp};
use trac::workload::load_paper_tables;

const JOIN_SQL: &str = "SELECT A.mach_id FROM Routing R, Activity A \
     WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id";
const SCAN_SQL: &str = "SELECT mach_id FROM Activity";

fn bound_plan(txn: &ReadTxn, sql: &str, opts: ExecOptions) -> trac::plan::PhysicalPlan {
    let stmt = parse_select(sql).unwrap();
    let q = bind_select(txn, &stmt).unwrap();
    plan_select(txn, &q, opts).unwrap()
}

/// Every explored schedule of a parallel session report must produce
/// rows byte-identical to the serial baseline, at 2 and at 4 workers.
#[test]
fn parallel_session_reports_are_deterministic_under_exploration() {
    let t = load_paper_tables().unwrap();
    let baseline = Session::new(t.db.clone())
        .recency_report(JOIN_SQL)
        .unwrap()
        .result
        .rows;
    for threads in [2usize, 4] {
        let mut session = Session::new(t.db.clone());
        session.exec_options = ExecOptions::default().with_parallelism(threads, 2);
        let session = &session;
        let baseline = &baseline;
        let report = schedule::explore(
            Strategy::Random {
                seed: 0x7ac0 + threads as u64,
                schedules: 6,
            },
            |_ctl| {
                let rows = session
                    .recency_report(JOIN_SQL)
                    .map_err(|e| e.to_string())?
                    .result
                    .rows;
                if rows == *baseline {
                    Ok(())
                } else {
                    Err(format!(
                        "threads={threads}: parallel rows diverge from serial under exploration"
                    ))
                }
            },
        );
        assert!(report.is_clean(), "threads={threads}: {:?}", report.failure);
        assert_eq!(report.schedules, 6);
    }
}

/// The stock (morsel-ordered) executor survives bounded *exhaustive*
/// enumeration of worker interleavings on a plain parallel scan.
#[test]
fn stock_parallel_scan_is_clean_under_exhaustive_exploration() {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let serial = execute_plan_with(
        &txn,
        &bound_plan(&txn, SCAN_SQL, ExecOptions::default()),
        ExecOptions::default(),
    )
    .unwrap()
    .rows;
    for threads in [2usize, 4] {
        let opts = ExecOptions::default().with_parallelism(threads, 1);
        let parallel = bound_plan(&txn, SCAN_SQL, opts);
        let report = schedule::explore(Strategy::Exhaustive { max_schedules: 48 }, |_ctl| {
            let rows = execute_plan_with(&txn, &parallel, opts)
                .map_err(|e| e.to_string())?
                .rows;
            if rows == serial {
                Ok(())
            } else {
                Err(format!("threads={threads}: morsel-ordered merge diverged"))
            }
        });
        assert!(report.is_clean(), "threads={threads}: {:?}", report.failure);
        assert!(report.schedules >= 2, "exploration must actually branch");
    }
}

/// Looks up one source's reported recency (normal or exceptional side).
fn reported_recency(report: &trac::core::RecencyReport, sid: &SourceId) -> Option<Timestamp> {
    report
        .normal
        .iter()
        .chain(report.exceptional.iter())
        .find(|(s, _)| s == sid)
        .map(|(_, t)| *t)
}

/// Report freshness: heartbeat traffic no longer invalidates the
/// prepared-plan cache — across every explored interleaving of a
/// reader session and a heartbeat writer, the cached plan must be
/// *reused* (exactly one miss), the reader's rows must stay
/// byte-identical, and the post-write report must carry the written
/// recency anyway: the delta fold, not a plan rebuild, delivers it.
#[test]
fn no_stale_report_serve_across_a_racing_heartbeat_write() {
    let t = load_paper_tables().unwrap();
    let baseline = Session::new(t.db.clone())
        .recency_report(JOIN_SQL)
        .unwrap()
        .result
        .rows;
    let db = &t.db;
    let baseline = &baseline;
    let written = Timestamp(i64::MAX / 2);
    let m1 = SourceId::new("m1");
    let report = schedule::explore(
        Strategy::Random {
            seed: 11,
            schedules: 8,
        },
        |ctl| {
            let mut session = Session::new(db.clone());
            session.exec_options = ExecOptions::default().with_parallelism(2, 2);
            let session = &session;
            // R1 fills the cache and registers maintained state.
            let r1 = session
                .recency_report(JOIN_SQL)
                .map_err(|e| e.to_string())?
                .result
                .rows;
            // R2 races the heartbeat write.
            let r2_rows: Mutex<Option<Vec<Vec<trac::types::Value>>>> = Mutex::new(None);
            let base = ctl.expect_workers(2);
            std::thread::scope(|s| {
                let ctl_r = ctl.clone();
                let r2_rows = &r2_rows;
                s.spawn(move || {
                    participate(&ctl_r, base, || {
                        let rows = session.recency_report(JOIN_SQL).unwrap().result.rows;
                        *r2_rows.lock().unwrap() = Some(rows);
                    });
                });
                let ctl_w = ctl.clone();
                let m1 = &m1;
                s.spawn(move || {
                    participate(&ctl_w, base + 1, || {
                        let txn = db.begin_write();
                        txn.heartbeat(m1, written).unwrap();
                        txn.commit();
                    });
                });
                ctl.suspend();
            });
            ctl.resume();
            // R3 runs strictly after the write. A plan rebuild here
            // would hide staleness; demand a cache hit AND freshness.
            let r3 = session
                .recency_report(JOIN_SQL)
                .map_err(|e| e.to_string())?;
            let r2 = r2_rows.lock().unwrap().take().expect("reader ran");
            for (label, rows) in [("R1", &r1), ("R2", &r2), ("R3", &r3.result.rows)] {
                if rows != baseline {
                    return Err(format!("{label} rows diverged from the serial baseline"));
                }
            }
            let stats = session.plan_cache_stats();
            if stats.misses != 1 {
                return Err(format!(
                    "heartbeat write invalidated the plan cache: {} misses (hits={})",
                    stats.misses, stats.hits
                ));
            }
            match reported_recency(&r3.report, &m1) {
                Some(ts) if ts == written => {}
                other => {
                    return Err(format!(
                        "stale report serve: post-write report has m1 at {other:?}, \
                         expected {written:?}"
                    ))
                }
            }
            let ms = session.maintenance_stats();
            if ms.registrations != 1 || ms.delta_serves + ms.rescan_serves != 2 {
                return Err(format!("unexpected maintenance accounting: {ms:?}"));
            }
            Ok(())
        },
    );
    assert!(report.is_clean(), "{:?}", report.failure);
    assert_eq!(report.schedules, 8);
}

/// Report-mid-fold schedule: `Site::DeltaFold` yields right before a
/// report folds the change stream, so the explorer can land a
/// heartbeat write exactly between the cache checkout and the fold.
/// Under every such interleaving the racing report must observe either
/// the pre-write or the post-write recency — never a mix — and a
/// report strictly after the write must observe the written value.
#[test]
fn delta_fold_racing_a_heartbeat_write_stays_snapshot_consistent() {
    let t = load_paper_tables().unwrap();
    let db = &t.db;
    let m2 = SourceId::new("m2");
    // A fresh target timestamp per schedule, so "fresh" is always
    // distinguishable from the previous schedule's leftovers.
    let tick = Mutex::new(0i64);
    let report = schedule::explore(
        Strategy::Random {
            seed: 29,
            schedules: 8,
        },
        |ctl| {
            let written = {
                let mut n = tick.lock().unwrap();
                *n += 1;
                // Far past the loaded 2006 heartbeats, so the monotone
                // upsert actually advances m2 each schedule.
                Timestamp::from_micros(8_000_000_000_000_000 + *n)
            };
            let session = Session::new(db.clone());
            let session = &session;
            // R1 registers the maintained state (serial exec: the only
            // explored decision points are the fold and the writer).
            let r1 = session
                .recency_report(SCAN_SQL)
                .map_err(|e| e.to_string())?;
            let pre = reported_recency(&r1.report, &m2).ok_or("m2 missing from R1")?;
            let racing: Mutex<Option<Option<Timestamp>>> = Mutex::new(None);
            let base = ctl.expect_workers(2);
            let m2 = &m2;
            std::thread::scope(|s| {
                let ctl_r = ctl.clone();
                let racing = &racing;
                s.spawn(move || {
                    participate(&ctl_r, base, || {
                        let out = session.recency_report(SCAN_SQL).unwrap();
                        *racing.lock().unwrap() = Some(reported_recency(&out.report, m2));
                    });
                });
                let ctl_w = ctl.clone();
                s.spawn(move || {
                    participate(&ctl_w, base + 1, || {
                        let txn = db.begin_write();
                        txn.heartbeat(m2, written).unwrap();
                        txn.commit();
                    });
                });
                ctl.suspend();
            });
            ctl.resume();
            let seen = racing
                .lock()
                .unwrap()
                .take()
                .expect("reader ran")
                .ok_or("m2 missing from the racing report")?;
            if seen != pre && seen != written {
                return Err(format!(
                    "racing report saw m2 at {seen:?}: neither pre-write \
                     ({pre:?}) nor post-write ({written:?})"
                ));
            }
            let r3 = session
                .recency_report(SCAN_SQL)
                .map_err(|e| e.to_string())?;
            match reported_recency(&r3.report, m2) {
                Some(ts) if ts == written => Ok(()),
                other => Err(format!(
                    "post-write report has m2 at {other:?}, expected {written:?}"
                )),
            }
        },
    );
    assert!(report.is_clean(), "{:?}", report.failure);
    assert_eq!(report.schedules, 8);
}
