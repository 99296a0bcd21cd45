//! Snapshot-consistency under concurrency: the paper's first guiding
//! requirement (Section 3.2) says the recency information must be
//! transactionally consistent with the user query result. Here writer
//! threads continuously ingest correlated updates while reader threads
//! take recency reports; any torn read would surface as a report whose
//! result and recency disagree.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use trac::core::Session;
use trac::storage::{ColumnDef, Database, TableSchema};
use trac::types::{ColumnDomain, DataType, SourceId, Timestamp, Value};

fn setup() -> Database {
    let db = Database::new();
    db.create_table(
        TableSchema::new(
            "counter",
            vec![
                ColumnDef::new("sid", DataType::Text)
                    .with_domain(ColumnDomain::text_set(["w1", "w2"])),
                ColumnDef::new("n", DataType::Int),
                ColumnDef::new("stamp", DataType::Timestamp),
            ],
            Some("sid"),
        )
        .unwrap(),
    )
    .unwrap();
    db.create_index("counter", "sid").unwrap();
    db
}

/// Rows each writer below ingests at most. A fixed count keeps a test's
/// cost independent of ingest speed, and it is large enough that the
/// writers are still committing while most of the reports run.
const WRITER_ROWS: i64 = 10_000;

/// Invariant maintained by writers: each source's row count equals the
/// number of committed ingests, and its heartbeat equals the timestamp of
/// its newest row. A consistent snapshot must observe both or neither.
#[test]
fn reports_never_tear_across_writers() {
    let db = setup();
    let tid = db.begin_read().table_id("counter").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in ["w1", "w2"] {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let src = SourceId::new(w);
            let mut i: i64 = 0;
            while i < WRITER_ROWS && !stop.load(Ordering::Relaxed) {
                i += 1;
                let ts = Timestamp::from_secs(i);
                db.with_write(|txn| {
                    txn.ingest(
                        &src,
                        tid,
                        vec![Value::text(w), Value::Int(i), Value::Timestamp(ts)],
                        ts,
                    )
                })
                .unwrap();
            }
            i
        }));
    }

    // A report loop can finish before either writer is first scheduled;
    // start it only once both writers have committed at least once.
    for w in ["w1", "w2"] {
        let src = SourceId::new(w);
        while trac::storage::heartbeat::recency_of(&db.begin_read(), &src)
            .unwrap()
            .is_none()
        {
            std::thread::yield_now();
        }
    }
    let session = Session::new(db.clone());
    let mut checked = 0;
    for _ in 0..200 {
        let out = session
            .recency_report("SELECT MAX(stamp) AS newest FROM counter WHERE sid = 'w1'")
            .err();
        assert!(out.is_none(), "report failed: {out:?}");
        // Stronger check through the raw snapshot: count, max stamp and
        // heartbeat must agree within one snapshot.
        let txn = db.begin_read();
        for w in ["w1", "w2"] {
            let rows = txn
                .index_probe_in(tid, 0, &[Value::text(w)])
                .unwrap()
                .unwrap();
            let hb = trac::storage::heartbeat::recency_of(&txn, &SourceId::new(w)).unwrap();
            if rows.is_empty() {
                continue;
            }
            let max_n = rows.iter().filter_map(|r| r[1].as_int()).max().unwrap();
            let max_stamp = rows
                .iter()
                .filter_map(|r| r[2].as_timestamp())
                .max()
                .unwrap();
            checked += 1;
            assert_eq!(
                rows.len() as i64,
                max_n,
                "{w}: snapshot saw {} rows but counter {max_n}",
                rows.len()
            );
            assert_eq!(
                hb,
                Some(max_stamp),
                "{w}: heartbeat {hb:?} disagrees with newest row {max_stamp}"
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    for t in writers {
        let n = t.join().unwrap();
        assert!(n > 0, "writer made progress");
    }
    assert!(checked > 0, "reader actually observed data");
}

/// Report outputs are internally consistent: every source in the user
/// query's rows is covered by the report (for a query whose relevant set
/// is all sources of the table).
#[test]
fn report_covers_result_sources_under_churn() {
    let db = setup();
    let tid = db.begin_read().table_id("counter").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0i64;
            while i < WRITER_ROWS && !stop.load(Ordering::Relaxed) {
                i += 1;
                let w = if i % 2 == 0 { "w1" } else { "w2" };
                let ts = Timestamp::from_secs(i);
                db.with_write(|txn| {
                    txn.ingest(
                        &SourceId::new(w),
                        tid,
                        vec![Value::text(w), Value::Int(i), Value::Timestamp(ts)],
                        ts,
                    )
                })
                .unwrap();
            }
        })
    };
    // As above: start the reports only once the writer has committed.
    let first = SourceId::new("w2");
    while trac::storage::heartbeat::recency_of(&db.begin_read(), &first)
        .unwrap()
        .is_none()
    {
        std::thread::yield_now();
    }
    let session = Session::new(db);
    for _ in 0..100 {
        let out = session
            .recency_report("SELECT sid FROM counter WHERE n > 0")
            .unwrap();
        let reported: std::collections::BTreeSet<&str> = out
            .report
            .normal
            .iter()
            .chain(&out.report.exceptional)
            .map(|(s, _)| s.as_str())
            .collect();
        for row in &out.result.rows {
            let sid = row[0].as_text().unwrap();
            assert!(
                reported.contains(sid),
                "result row from {sid} but report covers {reported:?}"
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

/// Write-write conflicts abort cleanly and never corrupt visible state.
#[test]
fn conflicting_heartbeat_upserts_are_serializable() {
    let db = setup();
    let src = SourceId::new("w1");
    db.with_write(|w| w.heartbeat(&src, Timestamp::from_secs(1)))
        .unwrap();
    let mut handles = Vec::new();
    for k in 0..8 {
        let db = db.clone();
        let src = src.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                // Conflicts on the single heartbeat row are expected;
                // losers abort and retry.
                loop {
                    let txn = db.begin_write();
                    match txn.heartbeat(&src, Timestamp::from_secs(2 + k * 50 + i)) {
                        Ok(()) => {
                            txn.commit();
                            break;
                        }
                        Err(e) => {
                            assert_eq!(e.kind(), "txn_aborted", "unexpected: {e}");
                            txn.abort();
                        }
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let txn = db.begin_read();
    let hb = trac::storage::heartbeat::recency_of(&txn, &src).unwrap();
    // Monotone outcome: the maximum of all attempted stamps.
    assert_eq!(hb, Some(Timestamp::from_secs(2 + 7 * 50 + 49)));
    // Exactly one visible heartbeat row.
    let hbt = txn.table_id("heartbeat").unwrap();
    assert_eq!(txn.scan(hbt).unwrap().len(), 1);
}

/// Reclamation racing readers: each reader opens a snapshot while a
/// writer keeps superseding every source's heartbeat, and must keep
/// reading the recencies it opened with, by scan and by index probe,
/// however many batches commit and however much the write path reclaims
/// meanwhile. Every batch moves all sources to one timestamp, so a view
/// that mixes two batches is torn. Once the readers are gone, each
/// upsert reclaims at least one more version than it supersedes, so as
/// many upserts as the backlog left behind bring the `sid` index back to
/// the live versions plus the last batch's.
#[test]
fn readers_keep_their_versions_while_the_write_path_reclaims() {
    use trac::storage::heartbeat::{all_recencies, recencies_of};
    const SOURCES: usize = 32;
    let db = Database::new();
    let sources: Vec<SourceId> = (0..SOURCES)
        .map(|i| SourceId::new(format!("r{i}")))
        .collect();
    let batch = |db: &Database, t: i64| {
        db.with_write(|w| {
            sources
                .iter()
                .try_for_each(|s| w.heartbeat(s, Timestamp::from_secs(t)))
        })
        .unwrap();
    };
    batch(&db, 0);
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (db, stop, sources) = (db.clone(), Arc::clone(&stop), &sources);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let txn = db.begin_read();
                    let scanned = all_recencies(&txn).unwrap();
                    let probed = recencies_of(&txn, sources).unwrap();
                    assert_eq!(scanned, probed);
                    assert_eq!(scanned.len(), SOURCES);
                    let t = scanned[0].1;
                    assert!(scanned.iter().all(|(_, ts)| *ts == t), "torn view");
                    for _ in 0..20 {
                        std::thread::yield_now();
                        assert_eq!(all_recencies(&txn).unwrap(), scanned);
                        assert_eq!(recencies_of(&txn, sources).unwrap(), scanned);
                    }
                }
            });
        }
        for t in 1..=300 {
            batch(&db, t);
        }
        stop.store(true, Ordering::Relaxed);
    });
    let last = 300 + db.reclaim_backlog().div_ceil(SOURCES) as i64 + 1;
    for t in 301..=last {
        batch(&db, t);
    }
    let txn = db.begin_read();
    assert!(all_recencies(&txn)
        .unwrap()
        .iter()
        .all(|(_, ts)| *ts == Timestamp::from_secs(last)));
    let hb = txn.table_id("heartbeat").unwrap();
    let census = txn.census(hb).unwrap();
    let index = census.indexes[0];
    assert_eq!(index.entries, census.versions - census.stubs);
    assert!(index.entries <= 2 * SOURCES, "{census:?}");
    assert!(index.longest_posting <= 2, "{census:?}");
    assert!(db.reclaim_backlog() <= SOURCES);
}
