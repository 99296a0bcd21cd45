//! Typed change stream: the database's one freshness witness.
//!
//! Every mutation entry point publishes a [`ChangeEvent`] describing
//! what moved (heartbeat upsert, tuple insert/delete, raw heartbeat
//! DML), sequenced by a dense, monotone `seq`. A consumer's position in
//! the stream — its cursor, checked against the compaction watermark —
//! answers "has anything report-relevant happened since?", and the
//! suffix past it says exactly what. Consumers (the `trac-core`
//! maintained reports) hold a cursor and *fold* the suffix instead of
//! rescanning; this is DBLog's watermark applied to recency reports.
//!
//! The stream is a bounded ring: when it overflows, the oldest events
//! are compacted away and the compaction watermark advances. A consumer
//! whose cursor has fallen behind the watermark gets a clean, typed
//! [`RescanRequired`] signal — never a silently truncated fold. This is
//! overflow handled *by construction*: the only two outcomes are a
//! complete suffix or an explicit demand to rescan.
//!
//! Events are published at **write time**, tagged with the writing
//! transaction's id. An event's effects may therefore belong to a
//! transaction that later aborts, or that is not yet visible to a given
//! reader's snapshot; consumers must filter through
//! [`crate::txn::Snapshot::committed_before`] (and skip aborted
//! writers) before folding. Publishing at write time is the
//! conservative direction, and the visibility check restores exactness.
//!
//! Coverage of the publication sites is auditable: [`audit`] drives
//! every mutation entry point and records the event kinds each one
//! published; the `trac-analyze` maintenance pass (diagnostic
//! `TRAC028`) diffs them against the declared expectation.
//!
//! The module also hosts the *publish yield hook*: an optional callback
//! run on every publication attempt, so the deterministic interleaving
//! explorer (`trac-exec::schedule`) can treat the writer's publish path
//! as a schedule point without this crate depending on the executor.

use crate::catalog::TableId;
use crate::lockorder::{self, LockId};
use crate::table::Row;
use crate::txn::{Snapshot, TxnId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::OnceLock;
use trac_types::{SourceId, Timestamp, Value};

/// Optional callback run right before every publication attempt.
static PUBLISH_YIELD: OnceLock<fn()> = OnceLock::new();

/// Installs the process-wide publish yield hook. The first installation
/// wins; later calls are ignored (the hook itself is expected to no-op
/// outside an active exploration, so a single installation is enough).
pub fn set_publish_yield_hook(hook: fn()) {
    let _ = PUBLISH_YIELD.set(hook);
}

/// Runs the installed publish yield hook, if any. Called by the write
/// path with no storage lock held, so the hook may block (the
/// interleaving explorer parks the thread here).
pub(crate) fn publish_yield() {
    if let Some(hook) = PUBLISH_YIELD.get() {
        hook();
    }
}

/// Default ring capacity of the per-database change log. Large enough
/// that a report-serving session folding at any reasonable cadence
/// never falls behind; small enough that the buffered suffix scan at
/// registration stays cheap.
pub const DEFAULT_CHANGELOG_CAPACITY: usize = 1024;

/// What one mutation did, in the vocabulary a delta-maintained recency
/// report needs.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeData {
    /// A monotone heartbeat advance for `source` ([`crate::heartbeat::upsert`]
    /// or the heartbeat leg of [`crate::db::WriteTxn::ingest`]). `ts` is
    /// the *offered* timestamp: the stored recency is the max of the
    /// current value and `ts`, so folding with `max` is exact even for
    /// a no-op (stale) upsert.
    HeartbeatUpsert {
        /// Source id: the writer's own handle, shared (not copied).
        source: SourceId,
        /// Offered recency timestamp.
        ts: Timestamp,
        /// True when this upsert inserted the source's heartbeat row:
        /// the writer's own view held none. `false` means the row was
        /// committed before the writer began, or written earlier by the
        /// same transaction, so its creating event precedes this one.
        created: bool,
    },
    /// A row inserted into a user table (plain SQL DML or ingest).
    RowInsert {
        /// Target table.
        table: TableId,
        /// The inserted row, shared with storage (cheap `Arc` clone).
        row: Row,
    },
    /// A row deleted from a user table. Deletions can shrink a
    /// relevant-source set, which no monotone fold covers; consumers
    /// treat this as a rescan trigger for referenced tables.
    RowDelete {
        /// Target table.
        table: TableId,
    },
    /// Raw transactional DML on the heartbeat table itself, bypassing
    /// the monotone upsert (e.g. SQL `INSERT`/`DELETE` on `heartbeat`).
    /// No monotonicity guarantee holds, so consumers must rescan.
    HeartbeatDml,
}

impl ChangeData {
    /// Stable kind name used by the coverage audit and diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            ChangeData::HeartbeatUpsert { .. } => "heartbeat-upsert",
            ChangeData::RowInsert { .. } => "row-insert",
            ChangeData::RowDelete { .. } => "row-delete",
            ChangeData::HeartbeatDml => "heartbeat-dml",
        }
    }
}

/// One published change, sequenced and attributed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeEvent {
    /// Monotone position in the stream (dense, starts at 0).
    pub seq: u64,
    /// The writing transaction. Effects are only real once this commits;
    /// fold through [`crate::txn::Snapshot::committed_before`].
    pub txn: TxnId,
    /// What changed.
    pub data: ChangeData,
}

/// Typed signal that a cursor has fallen behind the compaction
/// watermark: the suffix from `cursor` is no longer complete, and the
/// only sound continuation is a full rescan (after which the consumer
/// re-registers at the current watermark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescanRequired {
    /// The cursor the consumer asked to read from.
    pub cursor: u64,
    /// Lowest sequence number still retained.
    pub compacted_below: u64,
}

impl std::fmt::Display for RescanRequired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "change-stream cursor {} is behind the compaction watermark {}: rescan required",
            self.cursor, self.compacted_below
        )
    }
}

struct Ring {
    buf: VecDeque<ChangeEvent>,
    next_seq: u64,
    compacted_below: u64,
    /// Largest transaction id ever published (`TxnId(0)` before the
    /// first event); every buffered event's id is at most this.
    max_txn: TxnId,
    /// Largest transaction id among the compacted events (`TxnId(0)`
    /// before the first compaction). A snapshot that leaves some id up
    /// to this undecided may be missing events the ring no longer holds.
    max_compacted_txn: TxnId,
}

/// A bounded, compacting ring of [`ChangeEvent`]s shared by one
/// database. Guarded by its own lock, ranked last in the declared
/// acquisition order ([`LockId::ChangeLog`]): publication happens with
/// no storage lock held, and consumers drain with at most the plan
/// cache held.
pub struct ChangeLog {
    inner: Mutex<Ring>,
    capacity: usize,
}

impl ChangeLog {
    /// A log with the default ring capacity.
    pub fn new() -> ChangeLog {
        ChangeLog::with_capacity(DEFAULT_CHANGELOG_CAPACITY)
    }

    /// A log with an explicit ring capacity (tests exercise the
    /// wraparound boundary with tiny rings).
    pub fn with_capacity(capacity: usize) -> ChangeLog {
        assert!(capacity > 0, "change log capacity must be positive");
        ChangeLog {
            inner: Mutex::new(Ring {
                buf: VecDeque::new(),
                next_seq: 0,
                compacted_below: 0,
                max_txn: TxnId(0),
                max_compacted_txn: TxnId(0),
            }),
            capacity,
        }
    }

    /// Appends one event, compacting the oldest if the ring is full.
    /// Returns the event's sequence number.
    pub fn publish(&self, txn: TxnId, data: ChangeData) -> u64 {
        let _order = lockorder::acquire(LockId::ChangeLog);
        let mut ring = self.inner.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.max_txn = ring.max_txn.max(txn);
        ring.buf.push_back(ChangeEvent { seq, txn, data });
        while ring.buf.len() > self.capacity {
            // By construction the watermark lands exactly past the
            // dropped event: a cursor at or above it still reads a
            // complete suffix, a cursor below it gets RescanRequired.
            if let Some(dropped) = ring.buf.pop_front() {
                ring.compacted_below = dropped.seq + 1;
                ring.max_compacted_txn = ring.max_compacted_txn.max(dropped.txn);
            }
        }
        seq
    }

    /// The sequence number the next published event will get. Reading
    /// from here returns nothing until something new is published —
    /// this is the registration low watermark.
    pub fn next_seq(&self) -> u64 {
        let _order = lockorder::acquire(LockId::ChangeLog);
        self.inner.lock().next_seq
    }

    /// Lowest sequence number still retained; cursors below this can no
    /// longer read a complete suffix.
    pub fn compacted_below(&self) -> u64 {
        let _order = lockorder::acquire(LockId::ChangeLog);
        self.inner.lock().compacted_below
    }

    /// Returns the complete suffix of events with `seq >= cursor`, or
    /// [`RescanRequired`] when compaction has eaten part of it. A cursor
    /// at `next_seq` yields an empty (and valid) suffix.
    pub fn read_from(&self, cursor: u64) -> Result<Vec<ChangeEvent>, RescanRequired> {
        let _order = lockorder::acquire(LockId::ChangeLog);
        let ring = self.inner.lock();
        if cursor < ring.compacted_below {
            return Err(RescanRequired {
                cursor,
                compacted_below: ring.compacted_below,
            });
        }
        // Sequences are dense and the buffer holds exactly
        // `compacted_below..next_seq`, so the suffix starts at an offset.
        let len = ring.buf.len();
        let start = usize::try_from(cursor - ring.compacted_below).map_or(len, |o| o.min(len));
        Ok(ring.buf.range(start..).cloned().collect())
    }

    /// The cursor a consumer registering under `snapshot` must start
    /// from: the `seq` of the first buffered event whose transaction the
    /// snapshot neither sees committed nor knows aborted, or `next_seq`
    /// when there is none. Such an event is not in a rescan taken under
    /// the snapshot, so the first fold must re-read it (the DBLog
    /// low/high-watermark rule). An event of a transaction that aborts
    /// after the snapshot also pins the cursor; the fold skips it then.
    ///
    /// `None` when no complete suffix exists: the snapshot leaves some
    /// transaction undecided that may have published an event the ring
    /// has already compacted, so no cursor re-reads it. The consumer
    /// must register again under a later snapshot.
    ///
    /// When the snapshot decides every transaction the ring has ever
    /// seen (the usual case: no writer in flight), no buffered event can
    /// pin the cursor, so this is `next_seq` without walking the ring.
    pub fn registration_cursor(&self, snapshot: &Snapshot) -> Option<u64> {
        let _order = lockorder::acquire(LockId::ChangeLog);
        let ring = self.inner.lock();
        if snapshot.decides_all_up_to(ring.max_txn) {
            return Some(ring.next_seq);
        }
        if !snapshot.decides_all_up_to(ring.max_compacted_txn) {
            return None;
        }
        Some(
            ring.buf
                .iter()
                .find(|e| !snapshot.committed_before(e.txn) && !snapshot.aborted_before(e.txn))
                .map_or(ring.next_seq, |e| e.seq),
        )
    }
}

impl Default for ChangeLog {
    fn default() -> ChangeLog {
        ChangeLog::new()
    }
}

/// One audited mutation path: the event kinds a delta-maintained
/// consumer needs from it, versus the kinds it actually published.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamObservation {
    /// Stable name of the mutation path (used in diagnostics).
    pub name: &'static str,
    /// Event kinds the path must publish, in order, for a maintained
    /// report folding the stream to stay rescan-equivalent.
    pub expected: &'static [&'static str],
    /// Event kinds the path actually published when exercised.
    pub published: Vec<&'static str>,
}

impl StreamObservation {
    /// True when this path violates stream coverage: it published a
    /// different event sequence than maintained consumers rely on.
    pub fn violates_coverage(&self) -> bool {
        self.published != self.expected
    }
}

/// Exercises every mutation entry point of this crate against scratch
/// databases and reports, per path, the typed events it published. The
/// list is the crate's mutation-path registry: a new mutation entry
/// point must be added here. The `trac-analyze` maintenance pass
/// (diagnostic `TRAC028`) consumes the observations and fails on any
/// divergence from the declared expectations.
pub fn audit() -> trac_types::Result<Vec<StreamObservation>> {
    use crate::db::Database;
    use crate::heartbeat::HEARTBEAT_TABLE;
    use crate::schema::{ColumnDef, TableSchema};
    use trac_types::{ColumnDomain, DataType, TracError};

    fn scratch_user_table(db: &Database) -> trac_types::Result<TableId> {
        db.create_table(TableSchema::new(
            "changelog_audit_t",
            vec![
                ColumnDef::new("sid", DataType::Text)
                    .with_domain(ColumnDomain::Any(DataType::Text)),
                ColumnDef::new("v", DataType::Int),
            ],
            Some("sid"),
        )?)
    }

    fn heartbeat_row(source: &str, secs: i64) -> Vec<Value> {
        vec![
            Value::text(source),
            Value::Timestamp(Timestamp::from_secs(secs)),
        ]
    }

    fn visible_heartbeat_slot(
        db: &Database,
        source: &str,
    ) -> trac_types::Result<crate::table::RowSlot> {
        let r = db.begin_read();
        let hb = r.table_id(HEARTBEAT_TABLE)?;
        r.scan_slots(hb)?
            .into_iter()
            .find(|(_, row)| row[0] == Value::text(source))
            .map(|(slot, _)| slot)
            .ok_or_else(|| TracError::Storage(format!("no heartbeat row for {source}")))
    }

    /// Runs `setup`, marks the stream position, runs `op`, and records
    /// the event kinds published by `op` alone.
    fn probe(
        name: &'static str,
        expected: &'static [&'static str],
        setup: impl FnOnce(&Database) -> trac_types::Result<()>,
        op: impl FnOnce(&Database) -> trac_types::Result<()>,
    ) -> trac_types::Result<StreamObservation> {
        let db = Database::new();
        setup(&db)?;
        let mark = db.change_log().next_seq();
        op(&db)?;
        let published = db
            .change_log()
            .read_from(mark)
            .map_err(|e| TracError::Storage(e.to_string()))?
            .iter()
            .map(|e| e.data.kind())
            .collect();
        Ok(StreamObservation {
            name,
            expected,
            published,
        })
    }

    let mut out = Vec::new();
    out.push(probe(
        "user-table insert",
        &["row-insert"],
        |db| scratch_user_table(db).map(|_| ()),
        |db| {
            let tid = db.begin_read().table_id("changelog_audit_t")?;
            db.with_write(|w| w.insert(tid, vec![Value::text("m1"), Value::Int(1)]))?;
            Ok(())
        },
    )?);
    out.push(probe(
        "user-table delete",
        &["row-delete"],
        |db| {
            let tid = scratch_user_table(db)?;
            db.with_write(|w| w.insert(tid, vec![Value::text("m1"), Value::Int(1)]))?;
            Ok(())
        },
        |db| {
            let r = db.begin_read();
            let tid = r.table_id("changelog_audit_t")?;
            let slot = r.scan_slots(tid)?[0].0;
            db.with_write(|w| w.delete(tid, slot))?;
            Ok(())
        },
    )?);
    out.push(probe(
        "heartbeat-table insert (raw txn)",
        &["heartbeat-dml"],
        |_| Ok(()),
        |db| {
            let hb = db.begin_read().table_id(HEARTBEAT_TABLE)?;
            db.with_write(|w| w.insert(hb, heartbeat_row("m1", 10)))?;
            Ok(())
        },
    )?);
    out.push(probe(
        "heartbeat-table update (raw txn)",
        // An update routes through delete + insert; both legs land on
        // the heartbeat table and each publishes the rescan trigger.
        &["heartbeat-dml", "heartbeat-dml"],
        |db| {
            let hb = db.begin_read().table_id(HEARTBEAT_TABLE)?;
            db.with_write(|w| w.insert(hb, heartbeat_row("m1", 10)))?;
            Ok(())
        },
        |db| {
            let hb = db.begin_read().table_id(HEARTBEAT_TABLE)?;
            let slot = visible_heartbeat_slot(db, "m1")?;
            db.with_write(|w| w.update(hb, slot, heartbeat_row("m1", 20)))?;
            Ok(())
        },
    )?);
    out.push(probe(
        "heartbeat-table delete (raw txn)",
        &["heartbeat-dml"],
        |db| {
            let hb = db.begin_read().table_id(HEARTBEAT_TABLE)?;
            db.with_write(|w| w.insert(hb, heartbeat_row("m1", 10)))?;
            Ok(())
        },
        |db| {
            let hb = db.begin_read().table_id(HEARTBEAT_TABLE)?;
            let slot = visible_heartbeat_slot(db, "m1")?;
            db.with_write(|w| w.delete(hb, slot))?;
            Ok(())
        },
    )?);
    out.push(probe(
        "heartbeat upsert",
        // Exactly one typed event: the raw heartbeat-table writes inside
        // the upsert are suppressed in favour of the semantic event.
        &["heartbeat-upsert"],
        |_| Ok(()),
        |db| {
            db.with_write(|w| w.heartbeat(&SourceId::new("m1"), Timestamp::from_secs(10)))?;
            Ok(())
        },
    )?);
    out.push(probe(
        "heartbeat upsert (stale, no-op)",
        // A stale offer stores nothing but still publishes: the fold is
        // max(current, ts), so the event is harmless.
        &["heartbeat-upsert"],
        |db| {
            db.with_write(|w| w.heartbeat(&SourceId::new("m1"), Timestamp::from_secs(10)))?;
            Ok(())
        },
        |db| {
            db.with_write(|w| w.heartbeat(&SourceId::new("m1"), Timestamp::from_secs(5)))?;
            Ok(())
        },
    )?);
    out.push(probe(
        "ingest",
        &["row-insert", "heartbeat-upsert"],
        |db| scratch_user_table(db).map(|_| ()),
        |db| {
            let tid = db.begin_read().table_id("changelog_audit_t")?;
            db.with_write(|w| {
                w.ingest(
                    &SourceId::new("m1"),
                    tid,
                    vec![Value::text("m1"), Value::Int(1)],
                    Timestamp::from_secs(10),
                )
            })?;
            Ok(())
        },
    )?);
    out.push(probe(
        "vacuum",
        &[],
        |db| {
            let tid = scratch_user_table(db)?;
            let slot = db.with_write(|w| w.insert(tid, vec![Value::text("m1"), Value::Int(1)]))?;
            db.with_write(|w| w.delete(tid, slot))?;
            Ok(())
        },
        |db| db.vacuum().map(|_| ()),
    )?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> ChangeData {
        ChangeData::RowInsert {
            table: TableId(7),
            row: std::sync::Arc::from(vec![Value::Int(n as i64)].into_boxed_slice()),
        }
    }

    #[test]
    fn sequences_are_dense_and_reads_are_suffixes() {
        let log = ChangeLog::with_capacity(16);
        for n in 0..5 {
            assert_eq!(log.publish(TxnId(1), ev(n)), n);
        }
        let all = log.read_from(0).unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(
            all.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(log.read_from(3).unwrap().len(), 2);
        // Reading from next_seq is valid and empty.
        assert_eq!(log.read_from(log.next_seq()).unwrap().len(), 0);
    }

    #[test]
    fn overflow_advances_the_watermark_and_rejects_stale_cursors() {
        let log = ChangeLog::with_capacity(4);
        for n in 0..6 {
            log.publish(TxnId(1), ev(n));
        }
        // Events 0 and 1 were compacted: the watermark sits at 2.
        assert_eq!(log.compacted_below(), 2);
        let err = log.read_from(0).unwrap_err();
        assert_eq!(
            err,
            RescanRequired {
                cursor: 0,
                compacted_below: 2
            }
        );
        // Exact wraparound boundary: one below the watermark fails ...
        assert!(log.read_from(1).is_err());
        // ... the watermark itself reads the complete retained suffix.
        let suffix = log.read_from(2).unwrap();
        assert_eq!(
            suffix.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn suffix_reads_on_a_wrapped_ring_match_a_filter() {
        let log = ChangeLog::with_capacity(4);
        for n in 0..11 {
            log.publish(TxnId(1), ev(n));
        }
        // Seven compactions wrapped the ring; 7..11 are retained.
        assert_eq!(log.compacted_below(), 7);
        let filtered = |cursor: u64| -> Vec<ChangeEvent> {
            let ring = log.inner.lock();
            ring.buf
                .iter()
                .filter(|e| e.seq >= cursor)
                .cloned()
                .collect()
        };
        // Front, middle, last, next_seq and past it.
        for cursor in [7, 9, 10, 11, 12] {
            assert_eq!(
                log.read_from(cursor).unwrap(),
                filtered(cursor),
                "cursor {cursor}"
            );
        }
        assert_eq!(log.read_from(9).unwrap().len(), 2);
        assert!(log.read_from(log.next_seq()).unwrap().is_empty());
        assert_eq!(
            log.read_from(6).unwrap_err(),
            RescanRequired {
                cursor: 6,
                compacted_below: 7
            }
        );
    }

    #[test]
    fn registration_cursor_pins_the_first_event_the_snapshot_cannot_see() {
        let mgr = crate::txn::TxnManager::new();
        let log = ChangeLog::with_capacity(16);
        let committed = mgr.begin();
        let aborted = mgr.begin();
        let in_flight = mgr.begin();
        log.publish(committed, ev(0));
        log.publish(aborted, ev(1));
        log.publish(in_flight, ev(2));
        log.publish(committed, ev(3));
        mgr.commit(committed);
        mgr.abort(aborted);
        let snap = mgr.snapshot();
        assert_eq!(
            log.registration_cursor(&snap),
            Some(2),
            "skip aborted, pin in-flight"
        );
        mgr.commit(in_flight);
        assert_eq!(
            log.registration_cursor(&snap),
            Some(2),
            "committed after the snapshot"
        );
        assert_eq!(
            log.registration_cursor(&mgr.snapshot()),
            Some(log.next_seq())
        );
        // Aborting after the snapshot still pins: the fold skips it then.
        let late = mgr.begin();
        log.publish(late, ev(4));
        let snap = mgr.snapshot();
        mgr.abort(late);
        assert_eq!(log.registration_cursor(&snap), Some(4));
    }

    /// The cursor `registration_cursor` returns, checked against a full
    /// walk of the ring with the same rule. The walk only sees buffered
    /// events, so it is the answer only while the snapshot decides every
    /// compacted writer; otherwise there must be no cursor at all.
    fn cursor_matching_walk(log: &ChangeLog, snap: &Snapshot) -> Option<u64> {
        let (walked, complete) = {
            let ring = log.inner.lock();
            let walked = ring
                .buf
                .iter()
                .find(|e| !snap.committed_before(e.txn) && !snap.aborted_before(e.txn))
                .map_or(ring.next_seq, |e| e.seq);
            (walked, snap.decides_all_up_to(ring.max_compacted_txn))
        };
        let cursor = log.registration_cursor(snap);
        let expect = complete.then_some(walked);
        assert_eq!(cursor, expect, "fast cursor disagrees with the walk");
        cursor
    }

    #[test]
    fn fast_registration_cursor_equals_the_walk() {
        let mgr = crate::txn::TxnManager::new();
        let log = ChangeLog::with_capacity(4);
        // No writer ever: an empty ring.
        assert_eq!(cursor_matching_walk(&log, &mgr.snapshot()), Some(0));
        // No writer in flight: committed events never pin.
        let done = mgr.begin();
        log.publish(done, ev(0));
        log.publish(done, ev(1));
        mgr.commit(done);
        assert_eq!(cursor_matching_walk(&log, &mgr.snapshot()), Some(2));
        // A writer in flight at the snapshot pins its first event.
        let w = mgr.begin();
        log.publish(w, ev(2));
        let snap = mgr.snapshot();
        assert!(!snap.decides_all_up_to(w));
        assert_eq!(cursor_matching_walk(&log, &snap), Some(2));
        mgr.commit(w);
        assert_eq!(cursor_matching_walk(&log, &snap), Some(2));
        // A writer that began after the snapshot pins too.
        let snap = mgr.snapshot();
        let late = mgr.begin();
        log.publish(late, ev(3));
        assert_eq!(cursor_matching_walk(&log, &snap), Some(3));
        mgr.commit(late);
        // An aborted writer is decided: it pins nothing.
        let gone = mgr.begin();
        log.publish(gone, ev(4));
        mgr.abort(gone);
        assert_eq!(cursor_matching_walk(&log, &mgr.snapshot()), Some(5));
        // A wrapped ring, with and without a writer in flight. `open`'s
        // first event was compacted while it was still in flight: no
        // cursor can re-read it, so there is no complete suffix.
        let open = mgr.begin();
        let filler = mgr.begin();
        log.publish(open, ev(5));
        for n in 6..11 {
            log.publish(filler, ev(n));
        }
        mgr.commit(filler);
        assert_eq!(log.compacted_below(), 7);
        assert_eq!(cursor_matching_walk(&log, &mgr.snapshot()), None);
        log.publish(open, ev(11));
        assert_eq!(cursor_matching_walk(&log, &mgr.snapshot()), None);
        mgr.commit(open);
        assert_eq!(cursor_matching_walk(&log, &mgr.snapshot()), Some(12));
        // A writer in flight that began after every compacted event's
        // writer leaves the suffix complete: its events are all buffered.
        let fresh = mgr.begin();
        log.publish(fresh, ev(12));
        assert_eq!(cursor_matching_walk(&log, &mgr.snapshot()), Some(12));
        mgr.commit(fresh);
    }

    #[test]
    fn audit_matches_declared_coverage() {
        let obs = audit().unwrap();
        assert_eq!(obs.len(), 9);
        for o in &obs {
            assert!(
                !o.violates_coverage(),
                "mutation path {:?} published {:?}, maintained consumers need {:?}",
                o.name,
                o.published,
                o.expected
            );
        }
        // The heartbeat upsert publishes its semantic event only — the
        // raw table writes inside it are suppressed.
        let upsert = obs.iter().find(|o| o.name == "heartbeat upsert").unwrap();
        assert_eq!(upsert.published, vec!["heartbeat-upsert"]);
    }
}
