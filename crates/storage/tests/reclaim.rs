//! Reclamation of superseded row versions below the xmin horizon.
//!
//! Every heartbeat upsert supersedes a version. The write path reclaims
//! a superseded version once its stamper lies below the horizon: the
//! payload and its index entries go, a stub keeps the slot. These tests
//! pin what that must never do (reclaim a version some registered
//! snapshot can still see) and what it must achieve (an index and an
//! upsert probe whose size does not grow with history).

use std::collections::{BTreeMap, BTreeSet};
use trac_storage::heartbeat::{all_recencies, recencies_of};
use trac_storage::{
    load_snapshot, save_snapshot, ColumnDef, Database, IndexCensus, ReadTxn, RowSlot, TableId,
    TableSchema, WriteTxn, HEARTBEAT_TABLE,
};
use trac_types::{DataType, Result, RowCheckRef, SourceId, Timestamp, TracError, Value};

/// Seeded xorshift64: reproducible randomness without a dependency.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn hb(db: &Database) -> TableId {
    db.begin_read().table_id(HEARTBEAT_TABLE).unwrap()
}

/// The heartbeat table's `sid` index.
fn sid_index(txn: &ReadTxn, hb: TableId) -> IndexCensus {
    let census = txn.census(hb).unwrap();
    let [index] = census.indexes.as_slice() else {
        panic!("the heartbeat table has one index: {census:?}");
    };
    *index
}

fn src(i: usize) -> SourceId {
    SourceId::new(format!("s{i}"))
}

/// Recency pairs, sorted by source id.
type Recencies = Vec<(SourceId, Timestamp)>;

/// The recencies a view reads, both through a scan and through the
/// `sid` index.
fn view(txn: &ReadTxn, sources: &[SourceId]) -> (Recencies, Recencies) {
    (
        all_recencies(txn).unwrap(),
        recencies_of(txn, sources).unwrap(),
    )
}

#[test]
fn a_reader_keeps_its_recency_across_batches_and_is_reclaimed_after_it_drops() {
    let db = Database::new();
    let hb = hb(&db);
    let sources: Vec<SourceId> = (0..4).map(src).collect();
    db.with_write(|w| {
        sources
            .iter()
            .try_for_each(|s| w.heartbeat(s, Timestamp::from_secs(1)))
    })
    .unwrap();
    let reader = db.begin_read();
    let seen = view(&reader, &sources);
    assert_eq!(seen.0.len(), 4);
    for batch in 2..=60 {
        db.with_write(|w| {
            sources
                .iter()
                .try_for_each(|s| w.heartbeat(s, Timestamp::from_secs(batch)))
        })
        .unwrap();
        assert_eq!(view(&reader, &sources), seen, "batch {batch}");
        // Everything superseded since the reader opened is pinned.
        assert_eq!(db.reclaim_backlog(), 4 * (batch as usize - 1));
        assert_eq!(reader.census(hb).unwrap().stubs, 0);
    }
    let fresh = db.begin_read();
    assert!(view(&fresh, &sources)
        .0
        .iter()
        .all(|(_, t)| *t == Timestamp::from_secs(60)));
    drop(fresh);
    let before = sid_index(&db.begin_read(), hb);
    let backlog = db.reclaim_backlog();
    drop(reader);
    // The first write after the reader drops reclaims from the front of
    // the queue, where the versions the reader read wait: two of them
    // (a write reclaims at most two).
    db.with_write(|w| w.heartbeat(&SourceId::new("other"), Timestamp::from_secs(1)))
        .unwrap();
    let after = db.begin_read();
    let census = after.census(hb).unwrap();
    assert_eq!(census.stubs, 2);
    assert_eq!(db.reclaim_backlog(), backlog - 2);
    let index = sid_index(&after, hb);
    // Two entries gone, one added (the new source).
    assert_eq!(index.entries, before.entries - 1);
    assert_eq!(index.entries, census.versions - census.stubs);
    assert_eq!(index.distinct_keys, 5);
    // The second write reclaims the other two.
    db.with_write(|w| w.heartbeat(&SourceId::new("other"), Timestamp::from_secs(2)))
        .unwrap();
    assert_eq!(after.census(hb).unwrap().stubs, 4);
    drop(after);
    // Later writes work the backlog off (each reclaims more than it
    // supersedes); every chain shrinks to at most its live version and
    // the one the last write superseded.
    for t in 3..=400 {
        db.with_write(|w| w.heartbeat(&SourceId::new("other"), Timestamp::from_secs(t)))
            .unwrap();
    }
    let txn = db.begin_read();
    let index = sid_index(&txn, hb);
    assert!(index.longest_posting <= 2, "{index:?}");
    assert!(db.reclaim_backlog() <= 1);
    assert_eq!(view(&txn, &sources).1.len(), 4);
}

/// One open transaction of the model.
struct Writer {
    txn: WriteTxn,
}

/// One open reader of the model and what it read when it opened.
struct Reader {
    txn: ReadTxn,
    seen: (Recencies, Recencies),
}

/// Slots a view can see in the heartbeat table.
fn visible_slots(txn: &ReadTxn, hb: TableId) -> BTreeSet<RowSlot> {
    txn.scan_slots(hb)
        .unwrap()
        .into_iter()
        .map(|(slot, _)| slot)
        .collect()
}

/// Random upserts, commits, aborts and readers opened and closed out of
/// order. After every step: each open reader reads, by scan and by index,
/// exactly what it read when it opened (no version a registered
/// snapshot can see was reclaimed); the `sid` index holds one entry per
/// version that still has its payload; and it holds no more entries
/// than the versions some open view (a fresh reader, a writer, a
/// registered reader) sees plus the undrained reclaim queue.
#[test]
fn model_reclaims_nothing_a_registered_snapshot_can_see() {
    const SOURCES: usize = 6;
    let sources: Vec<SourceId> = (0..SOURCES).map(src).collect();
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    for round in 0..8 {
        let db = Database::new();
        let hb = hb(&db);
        let mut clock = 0i64;
        let mut writers: Vec<Writer> = Vec::new();
        let mut readers: Vec<Reader> = Vec::new();
        for step in 0..400 {
            let r = xorshift(&mut rng);
            let pick = (r >> 8) as usize;
            match r % 16 {
                0..=1 if writers.len() < 3 => writers.push(Writer {
                    txn: db.begin_write(),
                }),
                2..=6 if !writers.is_empty() => {
                    let w = pick % writers.len();
                    let s = &sources[(pick >> 4) % SOURCES];
                    // Mostly advances; now and then a stale offer.
                    let ts = if (pick >> 12).is_multiple_of(4) {
                        Timestamp::from_secs(0)
                    } else {
                        clock += 1;
                        Timestamp::from_secs(clock)
                    };
                    if let Err(e) = writers[w].txn.heartbeat(s, ts) {
                        // A write-write conflict: the loser aborts.
                        assert_eq!(e.kind(), "txn_aborted", "{e}");
                        writers.swap_remove(w).txn.abort();
                    }
                }
                7..=8 if !writers.is_empty() => {
                    writers.swap_remove(pick % writers.len()).txn.commit();
                }
                9 if !writers.is_empty() => {
                    writers.swap_remove(pick % writers.len()).txn.abort();
                }
                10..=12 if readers.len() < 4 => {
                    let txn = db.begin_read();
                    let seen = view(&txn, &sources);
                    readers.push(Reader { txn, seen });
                }
                13..=15 if !readers.is_empty() => {
                    drop(readers.swap_remove(pick % readers.len()));
                }
                _ => {}
            }
            let at = (round, step);
            for reader in &readers {
                assert_eq!(view(&reader.txn, &sources), reader.seen, "{at:?}");
            }
            let fresh = db.begin_read();
            let mut seen = visible_slots(&fresh, hb);
            for w in &writers {
                seen.extend(visible_slots(&w.txn, hb));
            }
            for reader in &readers {
                seen.extend(visible_slots(&reader.txn, hb));
            }
            let census = fresh.census(hb).unwrap();
            let index = sid_index(&fresh, hb);
            assert_eq!(index.entries, census.versions - census.stubs, "{at:?}");
            assert!(
                index.entries <= seen.len() + db.reclaim_backlog(),
                "{at:?}: {index:?}, {} seen, backlog {}",
                seen.len(),
                db.reclaim_backlog()
            );
        }
        for w in writers {
            w.txn.commit();
        }
        drop(readers);
        // With nothing open, a little writing drains the queue and the
        // index holds exactly one entry per source.
        for t in 0..(4 * 400) {
            clock += 1;
            let s = &sources[t % SOURCES];
            db.with_write(|w| w.heartbeat(s, Timestamp::from_secs(clock)))
                .unwrap();
        }
        let txn = db.begin_read();
        let index = sid_index(&txn, hb);
        assert!(index.entries <= SOURCES + 1, "{index:?}");
        assert_eq!(index.distinct_keys, SOURCES);
    }
}

/// Aging, counted rather than timed: 200 batches of 2048 upserts over
/// 10 000 sources with no long-lived snapshot leave the `sid` index at
/// most the live versions plus one batch of superseded ones, and an
/// upsert's probe visits at most two versions, however long the history.
///
/// Each batch upserts 2048 distinct sources. A source upserted k times
/// inside one open transaction has k + 1 versions that transaction can
/// see, and no horizon can reclaim those; distinct sources keep the
/// bound about history, not about one batch. After each commit the
/// longest posting list is at most 2 (the previous batch's stamps are
/// drained during the batch, and each of its sources holds its live
/// version plus the one it superseded). Reclamation only removes
/// entries, so every probe of the next batch, which meets each of its
/// sources once, visits at most 2 versions.
#[test]
fn heartbeat_index_does_not_grow_with_history() {
    const SOURCES: usize = 10_000;
    const BATCH: usize = 2048;
    let db = Database::new();
    let hb = hb(&db);
    let sources: Vec<SourceId> = (0..SOURCES).map(src).collect();
    db.with_write(|w| {
        sources
            .iter()
            .try_for_each(|s| w.heartbeat(s, Timestamp::from_secs(0)))
    })
    .unwrap();
    let mut order: Vec<usize> = (0..SOURCES).collect();
    let mut rng = 0x2545_f491_4f6c_dd1d_u64;
    let mut clock = 0i64;
    for batch in 0..200 {
        // A seeded partial shuffle picks this batch's distinct sources.
        for i in 0..BATCH {
            let j = i + (xorshift(&mut rng) as usize) % (SOURCES - i);
            order.swap(i, j);
        }
        db.with_write(|w| {
            order[..BATCH].iter().try_for_each(|&i| {
                clock += 1;
                w.heartbeat(&sources[i], Timestamp::from_secs(clock))
            })
        })
        .unwrap();
        let txn = db.begin_read();
        let index = sid_index(&txn, hb);
        assert!(index.entries <= SOURCES + BATCH, "batch {batch}: {index:?}");
        assert!(index.longest_posting <= 2, "batch {batch}: {index:?}");
        assert_eq!(index.distinct_keys, SOURCES);
    }
    let txn = db.begin_read();
    assert_eq!(all_recencies(&txn).unwrap().len(), SOURCES);
    let census = txn.census(hb).unwrap();
    assert_eq!(census.versions, SOURCES + 200 * BATCH);
    assert!(census.stubs >= 199 * BATCH, "{census:?}");
}

fn no_checks(_: &TableSchema, name: &str, _: &str) -> Result<RowCheckRef> {
    Err(TracError::Storage(format!("no CHECK binder for {name}")))
}

/// Per-key rows of `tid` a fresh reader sees through the index on
/// column 0, in slot order.
fn by_key(db: &Database, tid: TableId, keys: &[Value]) -> BTreeMap<Value, Vec<Vec<Value>>> {
    let txn = db.begin_read();
    keys.iter()
        .map(|k| {
            let rows = txn
                .index_probe_in(tid, 0, std::slice::from_ref(k))
                .unwrap()
                .unwrap()
                .iter()
                .map(|r| r.to_vec())
                .collect();
            (k.clone(), rows)
        })
        .collect()
}

#[test]
fn create_index_vacuum_and_persist_read_tables_holding_stubs() {
    let db = Database::new();
    let hb = hb(&db);
    let sources: Vec<SourceId> = (0..5).map(src).collect();
    let tid = db
        .create_table(
            TableSchema::new(
                "readings",
                vec![
                    ColumnDef::new("sid", DataType::Text),
                    ColumnDef::new("n", DataType::Int),
                ],
                Some("sid"),
            )
            .unwrap(),
        )
        .unwrap();
    // Heartbeat churn and user-table updates, one transaction each, so
    // every superseded version is reclaimed and stubs remain.
    for round in 1..=20 {
        for (i, s) in sources.iter().enumerate() {
            db.with_write(|w| {
                w.heartbeat(s, Timestamp::from_secs(round))?;
                let mine: Vec<(RowSlot, i64)> = w
                    .scan_slots(tid)?
                    .into_iter()
                    .filter(|(_, r)| r[0] == s.to_value())
                    .map(|(slot, r)| (slot, r[1].as_int().unwrap_or(0)))
                    .collect();
                match mine.first() {
                    Some(&(slot, n)) if i % 2 == 0 => {
                        w.update(tid, slot, vec![s.to_value(), Value::Int(n + 1)])?;
                    }
                    _ => {
                        w.insert(tid, vec![s.to_value(), Value::Int(round)])?;
                    }
                }
                Ok(())
            })
            .unwrap();
        }
    }
    let txn = db.begin_read();
    let hb_census = txn.census(hb).unwrap();
    let user_census = txn.census(tid).unwrap();
    assert!(hb_census.stubs > 80, "{hb_census:?}");
    assert!(user_census.stubs > 20, "{user_census:?}");
    let recencies = all_recencies(&txn).unwrap();
    let rows = txn.scan(tid).unwrap();
    drop(txn);

    // An index built over a heap holding stubs indexes the payloads only
    // and answers like a scan.
    db.create_index("readings", "sid").unwrap();
    let keys: Vec<Value> = sources.iter().map(SourceId::to_value).collect();
    let probed = by_key(&db, tid, &keys);
    for k in &keys {
        let scanned: Vec<Vec<Value>> = rows
            .iter()
            .filter(|r| &r[0] == k)
            .map(|r| r.to_vec())
            .collect();
        assert_eq!(probed[k], scanned);
    }
    let txn = db.begin_read();
    let census = txn.census(tid).unwrap();
    assert_eq!(
        census.indexes[0].entries,
        census.versions - census.stubs,
        "{census:?}"
    );
    drop(txn);

    // Persisting and loading keeps exactly what a reader sees.
    let path = std::env::temp_dir().join(format!("trac_reclaim_stubs_{}", std::process::id()));
    save_snapshot(&db, &path).unwrap();
    let loaded = load_snapshot(&path, &no_checks).unwrap();
    std::fs::remove_file(&path).unwrap();
    let txn = loaded.begin_read();
    assert_eq!(all_recencies(&txn).unwrap(), recencies);
    let ltid = txn.table_id("readings").unwrap();
    assert_eq!(txn.scan(ltid).unwrap(), rows);
    assert_eq!(txn.census(ltid).unwrap().stubs, 0);
    drop(txn);

    // Vacuum drops the stubs, renumbers slots and leaves the answers,
    // and the reclaim queue, consistent.
    let stats = db.vacuum().unwrap();
    assert!(stats.versions_removed >= hb_census.stubs + user_census.stubs);
    let txn = db.begin_read();
    assert_eq!(txn.census(hb).unwrap().stubs, 0);
    assert_eq!(txn.census(tid).unwrap().stubs, 0);
    assert_eq!(all_recencies(&txn).unwrap(), recencies);
    assert_eq!(txn.scan(tid).unwrap(), rows);
    drop(txn);
    assert_eq!(by_key(&db, tid, &keys), probed);
    assert_eq!(db.reclaim_backlog(), 0);
    // Writing after vacuum reclaims against the renumbered slots.
    for round in 21..=25 {
        db.with_write(|w| {
            sources
                .iter()
                .try_for_each(|s| w.heartbeat(s, Timestamp::from_secs(round)))
        })
        .unwrap();
    }
    let txn = db.begin_read();
    assert!(all_recencies(&txn)
        .unwrap()
        .iter()
        .all(|(_, t)| *t == Timestamp::from_secs(25)));
    let index = sid_index(&txn, hb);
    let census = txn.census(hb).unwrap();
    assert_eq!(index.entries, census.versions - census.stubs);
    assert!(index.longest_posting <= 2, "{index:?}");
}
