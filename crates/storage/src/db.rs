//! The [`Database`] facade: DDL, transactions, reads, writes, ingestion.
//!
//! A `Database` is cheaply cloneable (all clones share state). Reads go
//! through [`ReadTxn`] — a snapshot view — and writes through [`WriteTxn`],
//! which also exposes the *ingestion* path used by monitoring processes:
//! [`WriteTxn::ingest`] tags a row with its data source, stores it, and
//! advances the source's recency timestamp in the `Heartbeat` table in the
//! same transaction (paper Sections 3.1 and 3.3).

use crate::catalog::{Catalog, IndexMeta, SessionId, TableId, TableStats};
use crate::changelog::{ChangeData, ChangeLog};
use crate::heartbeat::{self, HEARTBEAT_TABLE};
use crate::index::Index;
use crate::lockorder::{self, LockId, LockToken};
use crate::schema::TableSchema;
use crate::table::{Row, RowSlot, RowVersion, Table};
use crate::txn::{Snapshot, TxnId, TxnManager, TxnStatus};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use trac_types::{Result, SourceId, Timestamp, TracError, Value};

struct Stored {
    table: Table,
    indexes: Vec<Index>,
}

impl Stored {
    /// Reclaims the version at `slot` when `dead` says no snapshot can
    /// see it (see [`Table::reclaim`]) and unlinks it from every index.
    /// Returns whether it did.
    fn reclaim(&mut self, slot: RowSlot, dead: impl FnOnce(&RowVersion) -> bool) -> bool {
        let Some(row) = self.table.reclaim(slot, dead) else {
            return false;
        };
        for idx in &mut self.indexes {
            idx.remove(&row[idx.column], slot);
        }
        true
    }
}

/// A version some transaction stamped `xmax` on, waiting until the
/// stamper falls below the xmin horizon.
type Superseded = (TxnId, TableId, RowSlot);

struct DbInner {
    stores: Vec<Option<Stored>>,
    catalog: Catalog,
    /// The reclaim queue, in stamp order: every `xmax` stamp pushes its
    /// version here, under the same data latch. See
    /// [`DbInner::reclaim_superseded`].
    superseded: VecDeque<Superseded>,
}

/// Superseded versions one write-latch acquisition reclaims at most.
/// A write stamps at most one version per acquisition (an update or an
/// upsert stamps one and appends one under a single latch), so with two
/// the backlog below the horizon shrinks by at least one per stamping
/// write and never grows with history. A small fixed number spreads
/// reclamation's cost and its frees evenly over the writes: each freed
/// payload is recycled by the write that freed it, instead of a whole
/// batch's payloads landing on the allocator's free lists at once,
/// where the allocations of the reports that follow would scatter over
/// them.
const RECLAIM_PER_WRITE: usize = 2;

impl DbInner {
    /// Reclaims superseded versions from the front of the queue whose
    /// stamper lies below the xmin horizon, at most
    /// [`RECLAIM_PER_WRITE`] of them: a committed stamper's version
    /// loses its payload and its index entries (its slot keeps a stub),
    /// an aborted stamper's entry is dropped (its stamp was undone).
    /// Runs on every write-latch acquisition of the write path, by
    /// `writer`; stops at the first entry not yet below the horizon.
    ///
    /// Sound because an entry exists only after its stamper's
    /// `WriteTxn` registered its snapshot (which keeps the horizon at or
    /// below the stamper's id), and that snapshot is dropped only after
    /// the stamper committed or aborted: a stamper below the horizon is
    /// decided, and if it committed, every live and future snapshot sees
    /// its stamp.
    fn reclaim_superseded(&mut self, txns: &TxnManager, writer: TxnId) {
        // The writer's own snapshot holds the horizon at or below its
        // id, so a front entry from it or a later transaction cannot be
        // drained: skip the horizon computation.
        match self.superseded.front() {
            Some(&(stamper, ..)) if stamper < writer => {}
            _ => return,
        }
        let horizon = txns.xmin_horizon();
        let mut reclaimed = 0;
        while let Some(&(stamper, tid, slot)) = self.superseded.front() {
            if stamper >= horizon || reclaimed == RECLAIM_PER_WRITE {
                break;
            }
            match txns.status(stamper) {
                TxnStatus::Committed => {
                    let stored = self.stores.get_mut(tid.0).and_then(Option::as_mut);
                    if stored.is_some_and(|st| st.reclaim(slot, |v| v.xmax == Some(stamper))) {
                        reclaimed += 1;
                    }
                }
                TxnStatus::Aborted => {}
                // Unreachable below the horizon (see above); keep the
                // entry rather than guess.
                TxnStatus::InProgress => break,
            }
            self.superseded.pop_front();
        }
    }
}

struct DbState {
    txns: Arc<TxnManager>,
    data: RwLock<DbInner>,
    next_session: AtomicU64,
    /// The freshness witness: every mutation that can change what a
    /// report sees — heartbeat upserts (including the one inside
    /// `ingest`), raw transactional writes to the heartbeat table, and
    /// user-table inserts/deletes — publishes a typed [`ChangeData`]
    /// event here, so consumers can *fold* what changed instead of
    /// rescanning. Coverage of the publication sites is audited by
    /// [`crate::changelog::audit`].
    changes: ChangeLog,
}

/// True when `tid` is the system heartbeat table, i.e. a raw write to it
/// bypasses the monotone upsert and must publish a rescan trigger.
fn is_heartbeat_table(inner: &DbInner, tid: TableId) -> bool {
    inner.catalog.lookup_table(HEARTBEAT_TABLE) == Some(tid)
}

/// An embedded multi-versioned database.
#[derive(Clone)]
pub struct Database {
    state: Arc<DbState>,
}

impl Default for Database {
    fn default() -> Database {
        Database::new()
    }
}

impl Database {
    /// Creates a database with the system `Heartbeat` table (indexed on
    /// its source column) already in place.
    pub fn new() -> Database {
        let db = Database {
            state: Arc::new(DbState {
                txns: TxnManager::new(),
                data: RwLock::new(DbInner {
                    stores: Vec::new(),
                    catalog: Catalog::new(),
                    superseded: VecDeque::new(),
                }),
                next_session: AtomicU64::new(1),
                changes: ChangeLog::new(),
            }),
        };
        // PANIC-OK: static bootstrap at Db::new, before any query exists.
        db.create_table(heartbeat::heartbeat_schema())
            .expect("bootstrap heartbeat table");
        // PANIC-OK: static bootstrap at Db::new, before any query exists.
        db.create_index(HEARTBEAT_TABLE, heartbeat::HEARTBEAT_SID_COL)
            .expect("bootstrap heartbeat index");
        db
    }

    /// The shared transaction manager.
    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.state.txns
    }

    /// The database's typed change stream. Consumers hold a cursor
    /// (sequence number) and read complete suffixes; see
    /// [`crate::changelog::ChangeLog::read_from`].
    pub fn change_log(&self) -> &ChangeLog {
        &self.state.changes
    }

    /// Creates a permanent table.
    pub fn create_table(&self, schema: TableSchema) -> Result<TableId> {
        let mut inner = self.state.data.write();
        let id = TableId(inner.stores.len());
        inner.catalog.register_table(&schema.name, id)?;
        inner.stores.push(Some(Stored {
            table: Table::new(schema),
            indexes: Vec::new(),
        }));
        Ok(id)
    }

    /// Creates a session-scoped temp table.
    pub fn create_temp_table(&self, schema: TableSchema, session: SessionId) -> Result<TableId> {
        let mut inner = self.state.data.write();
        let id = TableId(inner.stores.len());
        inner
            .catalog
            .register_temp_table(&schema.name, id, session)?;
        inner.stores.push(Some(Stored {
            table: Table::new(schema),
            indexes: Vec::new(),
        }));
        Ok(id)
    }

    /// Drops a table by name.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut inner = self.state.data.write();
        let id = inner.catalog.drop_table(name)?;
        inner.stores[id.0] = None;
        Ok(())
    }

    /// Drops all temp tables owned by `session`.
    pub fn drop_session_temps(&self, session: SessionId) {
        let mut inner = self.state.data.write();
        for id in inner.catalog.drop_session_temps(session) {
            inner.stores[id.0] = None;
        }
    }

    /// Promotes a session temp table to a permanent table.
    pub fn persist_temp_table(&self, name: &str) -> Result<()> {
        self.state.data.write().catalog.persist_temp(name)
    }

    /// Allocates a fresh session id.
    pub fn new_session_id(&self) -> SessionId {
        self.state
            .next_session
            .fetch_add(1, AtomicOrdering::Relaxed)
    }

    /// Builds an ordered index on `table.column`, backfilling every
    /// version that still holds its payload (reclaimed stubs are
    /// skipped).
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        let mut inner = self.state.data.write();
        let tid = inner
            .catalog
            .lookup_table(table)
            .ok_or_else(|| TracError::Catalog(format!("no table named {table}")))?;
        let store = inner.stores[tid.0]
            .as_ref()
            .ok_or_else(|| TracError::Catalog(format!("table {table} was dropped")))?;
        let col =
            store.table.schema.column_index(column).ok_or_else(|| {
                TracError::Catalog(format!("no column {column} in table {table}"))
            })?;
        if inner.catalog.index_on_column(tid, col).is_some() {
            return Err(TracError::Catalog(format!(
                "index on {table}.{column} already exists"
            )));
        }
        inner.catalog.register_index(IndexMeta {
            name: format!("{table}_{column}_idx"),
            table: tid,
            column: col,
        })?;
        let store = inner.stores[tid.0]
            .as_mut()
            .ok_or_else(|| TracError::Storage(format!("table {table} has no backing store")))?;
        let mut index = Index::new(col);
        for (slot, _, row) in store.table.payloads() {
            index.insert(&row[col], slot);
        }
        store.indexes.push(index);
        Ok(())
    }

    /// Opens a read-only snapshot transaction.
    pub fn begin_read(&self) -> ReadTxn {
        ReadTxn {
            state: Arc::clone(&self.state),
            snapshot: self.state.txns.snapshot(),
            own: None,
        }
    }

    /// Opens a read-write transaction.
    pub fn begin_write(&self) -> WriteTxn {
        let id = self.state.txns.begin();
        WriteTxn {
            read: ReadTxn {
                state: Arc::clone(&self.state),
                snapshot: self.state.txns.snapshot(),
                own: Some(id),
            },
            id,
            undo: Mutex::new(Vec::new()),
            suppress_events: std::sync::atomic::AtomicBool::new(false),
            finished: false,
        }
    }

    /// Compacts the heaps: drops reclaimed stubs, versions created by
    /// aborted transactions, and versions whose deletion is visible to
    /// every outstanding snapshot
    /// ([`TxnManager::committed_before_all_snapshots`], the same xmin
    /// horizon the write path reclaims below). Indexes are rebuilt over
    /// the survivors.
    ///
    /// The write path already releases superseded payloads and their
    /// index entries as the horizon passes them; what only vacuum
    /// recovers is the heap slots themselves (one payload-free stub per
    /// reclaimed version).
    ///
    /// Preconditions: no transaction may be in progress (checked), and
    /// callers must not hold `RowSlot`s across the call (slots are
    /// renumbered). Open read snapshots are safe — versions they can
    /// still see are retained.
    pub fn vacuum(&self) -> Result<VacuumStats> {
        if self.state.txns.any_in_progress() {
            return Err(TracError::Storage(
                "vacuum requires no in-progress transactions".into(),
            ));
        }
        let txns = Arc::clone(&self.state.txns);
        let _order = lockorder::acquire(LockId::DbData);
        let mut inner = self.state.data.write();
        let mut stats = VacuumStats::default();
        let mut superseded = Vec::new();
        for (tid, store) in inner.stores.iter_mut().enumerate() {
            let Some(store) = store else { continue };
            let removed = store.table.compact(|v| {
                txns.status(v.xmin) == TxnStatus::Aborted
                    || v.xmax
                        .is_some_and(|x| txns.committed_before_all_snapshots(x))
            });
            if removed > 0 {
                for idx in &mut store.indexes {
                    let col = idx.column;
                    let mut fresh = Index::new(col);
                    for (slot, _, row) in store.table.payloads() {
                        fresh.insert(&row[col], slot);
                    }
                    *idx = fresh;
                }
            }
            // Slots moved: re-enqueue the surviving stamped versions.
            superseded.extend(store.table.payloads().filter_map(|(slot, v, _)| {
                let x = v.xmax?;
                (txns.status(x) != TxnStatus::Aborted).then_some((x, TableId(tid), slot))
            }));
            stats.tables += 1;
            stats.versions_removed += removed;
            stats.versions_kept += store.table.version_count();
        }
        superseded.sort_unstable();
        inner.superseded = superseded.into();
        Ok(stats)
    }

    /// Number of superseded versions stamped but not yet reclaimed: the
    /// reclaim queue's length. Versions some registered snapshot can see
    /// wait here, and so does everything stamped since the last write.
    pub fn reclaim_backlog(&self) -> usize {
        self.state.data.read().superseded.len()
    }

    /// Applies `f` to the planner statistics of `tid`. Intended for
    /// tests and experiments that steer the cost-based planner into a
    /// specific shape: plan *choice* may change, results never do, and
    /// the differential suite asserts exactly that.
    pub fn update_table_stats(&self, tid: TableId, f: impl FnOnce(&mut TableStats)) {
        let mut inner = self.state.data.write();
        let stats = inner.catalog.table_stats_mut(tid);
        f(stats);
        stats.version += 1;
    }

    /// Convenience: run `f` in a write transaction, committing on `Ok`.
    pub fn with_write<T>(&self, f: impl FnOnce(&WriteTxn) -> Result<T>) -> Result<T> {
        let txn = self.begin_write();
        match f(&txn) {
            Ok(v) => {
                txn.commit();
                Ok(v)
            }
            Err(e) => {
                txn.abort();
                Err(e)
            }
        }
    }
}

/// Counters returned by [`Database::vacuum`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumStats {
    /// Tables visited.
    pub tables: usize,
    /// Row versions reclaimed.
    pub versions_removed: usize,
    /// Row versions surviving.
    pub versions_kept: usize,
}

/// The physical size of one table and its indexes, as
/// [`ReadTxn::census`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableCensus {
    /// Heap slots, stubs included.
    pub versions: usize,
    /// Reclaimed, payload-free stubs among them.
    pub stubs: usize,
    /// Per index, in creation order: its column, its entry count and its
    /// longest posting list (the most versions one key probe visits).
    pub indexes: Vec<IndexCensus>,
}

/// The size of one index, inside a [`TableCensus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexCensus {
    /// Indexed column position.
    pub column: usize,
    /// Entries (non-NULL keys over versions holding a payload).
    pub entries: usize,
    /// Distinct keys.
    pub distinct_keys: usize,
    /// Length of the longest posting list.
    pub longest_posting: usize,
}

/// A snapshot view of the database for reading.
pub struct ReadTxn {
    state: Arc<DbState>,
    /// The MVCC snapshot this view reads through. Exposed so higher
    /// layers can assert user query and recency query share one snapshot.
    pub snapshot: Snapshot,
    own: Option<TxnId>,
}

impl ReadTxn {
    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.state
            .data
            .read()
            .catalog
            .lookup_table(name)
            .ok_or_else(|| TracError::Catalog(format!("no table named {name}")))
    }

    /// Clones the schema of `tid`.
    pub fn schema(&self, tid: TableId) -> Result<TableSchema> {
        let inner = self.state.data.read();
        Ok(store(&inner, tid)?.table.schema.clone())
    }

    /// All table names currently in the catalog.
    pub fn table_names(&self) -> Vec<String> {
        self.state.data.read().catalog.table_names()
    }

    /// True when `name` is a session temp table.
    pub fn is_temp_table(&self, name: &str) -> bool {
        self.state.data.read().catalog.is_temp(name)
    }

    /// Positions of the indexed columns of `tid`.
    pub fn index_columns(&self, tid: TableId) -> Vec<usize> {
        self.state
            .data
            .read()
            .catalog
            .indexes_on(tid)
            .map(|m| m.column)
            .collect()
    }

    /// True when `tid.column` has an ordered index.
    pub fn has_index(&self, tid: TableId, column: usize) -> bool {
        self.state
            .data
            .read()
            .catalog
            .index_on_column(tid, column)
            .is_some()
    }

    /// The physical size of `tid`: heap slots, stubs and index entries,
    /// regardless of visibility. Walks the heap (O(versions)).
    pub fn census(&self, tid: TableId) -> Result<TableCensus> {
        let inner = self.state.data.read();
        let st = store(&inner, tid)?;
        Ok(TableCensus {
            versions: st.table.version_count(),
            stubs: st.table.stub_count(),
            indexes: st
                .indexes
                .iter()
                .map(|idx| IndexCensus {
                    column: idx.column,
                    entries: idx.len(),
                    distinct_keys: idx.distinct_keys(),
                    longest_posting: idx.longest_posting(),
                })
                .collect(),
        })
    }

    /// Full scan of the rows visible in this snapshot.
    pub fn scan(&self, tid: TableId) -> Result<Vec<Row>> {
        let inner = self.state.data.read();
        Ok(store(&inner, tid)?
            .table
            .scan_visible(&self.snapshot, self.own)
            .map(|(_, r)| r)
            .collect())
    }

    /// Full scan including physical slots (for updates/deletes).
    pub fn scan_slots(&self, tid: TableId) -> Result<Vec<(RowSlot, Row)>> {
        let inner = self.state.data.read();
        Ok(store(&inner, tid)?
            .table
            .scan_visible(&self.snapshot, self.own)
            .collect())
    }

    /// Streams visible rows to `pred` under the read latch, returning the
    /// first row for which `pred` is true — an early-exit existence probe
    /// that avoids materializing the scan.
    pub fn scan_find(
        &self,
        tid: TableId,
        mut pred: impl FnMut(&Row) -> Result<bool>,
    ) -> Result<Option<Row>> {
        let inner = self.state.data.read();
        for (_, row) in store(&inner, tid)?
            .table
            .scan_visible(&self.snapshot, self.own)
        {
            if pred(&row)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    /// Number of visible rows.
    pub fn row_count(&self, tid: TableId) -> Result<usize> {
        let inner = self.state.data.read();
        Ok(store(&inner, tid)?
            .table
            .scan_visible(&self.snapshot, self.own)
            .count())
    }

    /// Index probe: visible rows whose `column` equals any of `keys`.
    /// Returns `None` when no index exists on that column.
    pub fn index_probe_in(
        &self,
        tid: TableId,
        column: usize,
        keys: &[Value],
    ) -> Result<Option<Vec<Row>>> {
        let inner = self.state.data.read();
        let st = store(&inner, tid)?;
        let Some(idx) = st.indexes.iter().find(|i| i.column == column) else {
            return Ok(None);
        };
        let mut out = Vec::new();
        for slot in idx.probe_in(keys) {
            if let Some(row) = st.table.visible_at(slot, &self.snapshot, self.own) {
                out.push(row);
            }
        }
        Ok(Some(out))
    }

    /// Index probe returning `(slot, row)` pairs for updates/deletes;
    /// `None` when no index exists on that column.
    pub fn index_probe_in_slots(
        &self,
        tid: TableId,
        column: usize,
        keys: &[Value],
    ) -> Result<Option<Vec<(RowSlot, Row)>>> {
        let inner = self.state.data.read();
        let st = store(&inner, tid)?;
        let Some(idx) = st.indexes.iter().find(|i| i.column == column) else {
            return Ok(None);
        };
        let mut out = Vec::new();
        for slot in idx.probe_in(keys) {
            if let Some(row) = st.table.visible_at(slot, &self.snapshot, self.own) {
                out.push((slot, row));
            }
        }
        Ok(Some(out))
    }

    /// Index probe over a key range; `None` when no index exists.
    pub fn index_probe_range(
        &self,
        tid: TableId,
        column: usize,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<Option<Vec<Row>>> {
        let inner = self.state.data.read();
        let st = store(&inner, tid)?;
        let Some(idx) = st.indexes.iter().find(|i| i.column == column) else {
            return Ok(None);
        };
        let mut out = Vec::new();
        for slot in idx.probe_range(lo, hi) {
            if let Some(row) = st.table.visible_at(slot, &self.snapshot, self.own) {
                out.push(row);
            }
        }
        Ok(Some(out))
    }

    /// Fetches the visible row at `slot`, if any.
    pub fn row_at(&self, tid: TableId, slot: RowSlot) -> Result<Option<Row>> {
        let inner = self.state.data.read();
        Ok(store(&inner, tid)?
            .table
            .visible_at(slot, &self.snapshot, self.own))
    }

    /// Planner statistics for `tid` — a cheap clone of the write-path
    /// counters (see [`crate::catalog::TableStats`] for the estimate
    /// semantics). Empty default stats when no write was ever observed.
    pub fn table_stats(&self, tid: TableId) -> TableStats {
        self.state
            .data
            .read()
            .catalog
            .table_stats(tid)
            .cloned()
            .unwrap_or_default()
    }

    /// A stamp of what a plan lowered over `tables` rests on — their
    /// index sets and planner statistics — read under one latch, or
    /// `None` once any of them is dropped. Index counts and statistics
    /// versions only grow and a table id is never reused, so the stamp
    /// moves exactly when one of them does.
    pub fn plan_stamp(&self, tables: impl IntoIterator<Item = TableId>) -> Option<u64> {
        let inner = self.state.data.read();
        tables.into_iter().try_fold(0, |stamp, tid| {
            let indexes = inner.stores.get(tid.0)?.as_ref()?.indexes.len() as u64;
            let stats = inner.catalog.table_stats(tid).map_or(0, |s| s.version);
            Some(stamp + indexes + stats)
        })
    }

    /// The extreme key of the index on `tid.column` that still has a
    /// visible row: the smallest (`max == false`) or largest key, in
    /// `Value` order. `None` when every indexed row is invisible or the
    /// index is empty. Errors when no index exists on that column.
    ///
    /// Because the index never stores NULL keys and MIN/MAX skip NULLs,
    /// this equals `MIN(col)`/`MAX(col)` whenever `Value` order and SQL
    /// comparison agree on the column (any homogeneous non-float
    /// column) — the applicability condition the planner checks before
    /// emitting the fast path.
    pub fn index_extreme(&self, tid: TableId, column: usize, max: bool) -> Result<Option<Value>> {
        let inner = self.state.data.read();
        let st = store(&inner, tid)?;
        let idx = st
            .indexes
            .iter()
            .find(|i| i.column == column)
            .ok_or_else(|| TracError::Execution("index vanished mid-plan".into()))?;
        for slot in idx.ordered_slots(max) {
            if let Some(row) = st.table.visible_at(slot, &self.snapshot, self.own) {
                return Ok(Some(row[column].clone()));
            }
        }
        Ok(None)
    }

    /// Walks the visible rows of `tid` in index-key order on `column`
    /// (ascending, or descending when `desc`), calling `visit` per row
    /// until it returns `false`. The enumeration order equals a stable
    /// sort of the table on that column (see
    /// [`crate::index::Index::ordered_slots`]); NULL-keyed rows are
    /// absent. Errors when no index exists on that column.
    pub fn index_ordered_scan(
        &self,
        tid: TableId,
        column: usize,
        desc: bool,
        mut visit: impl FnMut(Row) -> Result<bool>,
    ) -> Result<()> {
        let inner = self.state.data.read();
        let st = store(&inner, tid)?;
        let idx = st
            .indexes
            .iter()
            .find(|i| i.column == column)
            .ok_or_else(|| TracError::Execution("index vanished mid-plan".into()))?;
        for slot in idx.ordered_slots(desc) {
            if let Some(row) = st.table.visible_at(slot, &self.snapshot, self.own) {
                if !visit(row)? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Number of physical version slots in `tid` (an upper bound on the
    /// slot space, not the visible row count). Morsel-driven scans
    /// partition `0..version_slot_count` into ranges; each worker then
    /// applies MVCC visibility per slot via [`ReadTxn::scan_slot_range`].
    pub fn version_slot_count(&self, tid: TableId) -> Result<usize> {
        let inner = self.state.data.read();
        Ok(store(&inner, tid)?.table.version_count())
    }

    /// Visible rows among the physical slots `lo..hi`, in slot order.
    /// Concatenating consecutive ranges reproduces [`ReadTxn::scan`]
    /// exactly, so morsel-ordered merges stay byte-identical to a
    /// serial scan. Each call takes its own shared read latch, so
    /// parallel workers never serialize on the table.
    pub fn scan_slot_range(&self, tid: TableId, lo: usize, hi: usize) -> Result<Vec<Row>> {
        let inner = self.state.data.read();
        let st = store(&inner, tid)?;
        let hi = hi.min(st.table.version_count());
        let mut out = Vec::new();
        for slot in lo..hi {
            if let Some(row) = st.table.visible_at(RowSlot(slot), &self.snapshot, self.own) {
                out.push(row);
            }
        }
        Ok(out)
    }

    /// Resolves the visible rows for an explicit slot list (one index
    /// morsel), preserving slot-list order.
    pub fn rows_for_slots(&self, tid: TableId, slots: &[RowSlot]) -> Result<Vec<Row>> {
        let inner = self.state.data.read();
        let st = store(&inner, tid)?;
        let mut out = Vec::with_capacity(slots.len());
        for &slot in slots {
            if let Some(row) = st.table.visible_at(slot, &self.snapshot, self.own) {
                out.push(row);
            }
        }
        Ok(out)
    }

    /// Index `IN` probe split into morsel-sized slot chunks: the flat
    /// chunk concatenation equals the slot order of
    /// [`ReadTxn::index_probe_in`] (keys in the given order, each key's
    /// postings in index order). Chunks never span a key boundary —
    /// they come from the per-key range cursor
    /// ([`crate::index::Index::probe_range_chunks`]) so the full posting list
    /// is never materialized in one allocation. Returns `None` when no
    /// index exists on `column`. Visibility is *not* checked here;
    /// workers resolve each chunk via [`ReadTxn::rows_for_slots`].
    pub fn index_probe_in_chunks(
        &self,
        tid: TableId,
        column: usize,
        keys: &[Value],
        chunk: usize,
    ) -> Result<Option<Vec<Vec<RowSlot>>>> {
        let inner = self.state.data.read();
        let st = store(&inner, tid)?;
        let Some(idx) = st.indexes.iter().find(|i| i.column == column) else {
            return Ok(None);
        };
        let mut chunks = Vec::new();
        for key in keys {
            chunks.extend(idx.probe_range_chunks(
                Bound::Included(key),
                Bound::Included(key),
                chunk,
            ));
        }
        Ok(Some(chunks))
    }
}

fn store(inner: &DbInner, tid: TableId) -> Result<&Stored> {
    inner
        .stores
        .get(tid.0)
        .and_then(|s| s.as_ref())
        .ok_or_else(|| TracError::Catalog(format!("table {tid:?} was dropped")))
}

fn store_mut(inner: &mut DbInner, tid: TableId) -> Result<&mut Stored> {
    inner
        .stores
        .get_mut(tid.0)
        .and_then(|s| s.as_mut())
        .ok_or_else(|| TracError::Catalog(format!("table {tid:?} was dropped")))
}

/// A read-write transaction. Uncommitted effects are visible only to the
/// transaction itself; dropping without committing aborts.
pub struct WriteTxn {
    read: ReadTxn,
    id: TxnId,
    /// Heap writes this txn undoes on abort, in write order.
    undo: Mutex<Vec<Undo>>,
    /// While set, `insert`/`delete` publish no change events. Used by
    /// [`WriteTxn::heartbeat`] so the monotone upsert surfaces as one
    /// semantic `HeartbeatUpsert` event instead of its raw table writes.
    suppress_events: std::sync::atomic::AtomicBool,
    finished: bool,
}

/// How a write to one table surfaces on the change stream.
#[derive(Debug, Clone, Copy)]
struct Target {
    /// The system heartbeat table: raw writes publish
    /// [`ChangeData::HeartbeatDml`].
    heartbeat: bool,
    /// A session temp table: writes publish nothing.
    temp: bool,
}

/// One heap write a [`WriteTxn`] undoes on abort.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// It stamped `xmax` on this version: the stamp is cleared.
    Stamped(TableId, RowSlot),
    /// It created this version: the version is reclaimed at once, since
    /// no snapshot can ever see an aborted transaction's writes.
    Created(TableId, RowSlot),
}

impl std::ops::Deref for WriteTxn {
    type Target = ReadTxn;
    fn deref(&self) -> &ReadTxn {
        &self.read
    }
}

impl WriteTxn {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Publishes one typed change event on behalf of this transaction,
    /// unless suppressed. Called with no storage lock held (the change
    /// log's own lock ranks last in the declared order), so the publish
    /// yield hook runs first — even for a suppressed event, which keeps
    /// the upsert's raw heartbeat-table legs schedule points.
    fn publish_change(&self, data: ChangeData) {
        crate::changelog::publish_yield();
        if self.suppress_events.load(AtomicOrdering::Relaxed) {
            return;
        }
        self.read.state.changes.publish(self.id, data);
    }

    /// Inserts a row (schema-checked and coerced). Returns its slot.
    /// Writes landing in the heartbeat table publish
    /// [`ChangeData::HeartbeatDml`] — SQL DML reaches recency state
    /// through this entry point, bypassing [`WriteTxn::heartbeat`], and
    /// no maintained report may fold across it.
    pub fn insert(&self, tid: TableId, row: Vec<Value>) -> Result<RowSlot> {
        self.append_row(tid, row, None)
    }

    /// [`WriteTxn::insert`] of a row whose value in column `key` this
    /// transaction is creating: first writer wins, as it does for
    /// updates. Fails with a write-write conflict when another
    /// transaction that this one cannot see and that has not aborted
    /// wrote a version with the same key — a concurrent creator, still
    /// in flight or committed since this transaction began. The check
    /// and the append run under one write latch, so of two racing
    /// creators exactly one succeeds.
    pub(crate) fn insert_new_key(
        &self,
        tid: TableId,
        key: usize,
        row: Vec<Value>,
    ) -> Result<RowSlot> {
        self.append_row(tid, row, Some(key))
    }

    fn append_row(&self, tid: TableId, row: Vec<Value>, new_key: Option<usize>) -> Result<RowSlot> {
        let (mut inner, _order, target) = self.latch(tid);
        let (slot, row) = self.append_locked(&mut inner, tid, row, new_key)?;
        drop(inner);
        self.publish_insert(target, tid, row);
        Ok(slot)
    }

    /// Takes the data latch for a write to `tid`, reclaiming superseded
    /// versions first, and says how the write surfaces on the change
    /// stream. The guard is released before the returned token.
    fn latch(&self, tid: TableId) -> (RwLockWriteGuard<'_, DbInner>, LockToken, Target) {
        let order = lockorder::acquire(LockId::DbData);
        let mut inner = self.read.state.data.write();
        inner.reclaim_superseded(&self.read.state.txns, self.id);
        let target = Target {
            heartbeat: is_heartbeat_table(&inner, tid),
            temp: inner.catalog.is_temp_id(tid),
        };
        (inner, order, target)
    }

    /// Appends `row` as a new version of `tid` under the held latch
    /// (see [`WriteTxn::insert_new_key`] for `new_key`).
    fn append_locked(
        &self,
        inner: &mut DbInner,
        tid: TableId,
        row: Vec<Value>,
        new_key: Option<usize>,
    ) -> Result<(RowSlot, Row)> {
        let st = store_mut(inner, tid)?;
        let row = st.table.schema.check_row(row)?;
        if let Some(col) = new_key {
            self.claim_key(st, col, &row[col])?;
        }
        let row: Row = Arc::from(row.into_boxed_slice());
        let slot = st.table.append(Arc::clone(&row), self.id);
        for idx in &mut st.indexes {
            idx.insert(&row[idx.column], slot);
        }
        self.appended(inner, tid, slot, &row);
        Ok((slot, row))
    }

    /// Stamps this transaction's `xmax` on the version at `slot` of
    /// `tid` under the held latch, and queues the version for
    /// reclamation. It must be visible to this transaction.
    fn stamp_locked(&self, inner: &mut DbInner, tid: TableId, slot: RowSlot) -> Result<()> {
        let txns = &self.read.state.txns;
        let st = store_mut(inner, tid)?;
        if st
            .table
            .visible_at(slot, &self.read.snapshot, Some(self.id))
            .is_none()
        {
            return Err(TracError::Storage(format!(
                "delete target {slot:?} is not visible to {}",
                self.id
            )));
        }
        st.table
            .delete_version(slot, self.id, |x| txns.status(x) != TxnStatus::Aborted)?;
        self.stamped(inner, tid, slot);
        Ok(())
    }

    /// Bookkeeping of a stamp this transaction made on `slot` of `tid`:
    /// its undo entry, its place in the reclaim queue, the statistics.
    fn stamped(&self, inner: &mut DbInner, tid: TableId, slot: RowSlot) {
        self.push_undo(Undo::Stamped(tid, slot));
        inner.superseded.push_back((self.id, tid, slot));
        inner.catalog.table_stats_mut(tid).observe_delete();
    }

    /// Bookkeeping of a version this transaction appended at `slot`.
    fn appended(&self, inner: &mut DbInner, tid: TableId, slot: RowSlot, row: &Row) {
        self.push_undo(Undo::Created(tid, slot));
        inner.catalog.table_stats_mut(tid).observe_insert(row);
    }

    fn push_undo(&self, undo: Undo) {
        let _order = lockorder::acquire(LockId::TxnStamped);
        self.undo.lock().push(undo);
    }

    /// The change event of an insert into `tid`, published after the
    /// latch is released.
    fn publish_insert(&self, target: Target, tid: TableId, row: Row) {
        if target.heartbeat {
            // Raw DML on the heartbeat table bypasses the monotone
            // upsert: no fold stays exact, so the typed event is the
            // rescan trigger (the semantic upsert suppresses this and
            // publishes `HeartbeatUpsert` instead).
            self.publish_change(ChangeData::HeartbeatDml);
        } else if !target.temp {
            self.publish_change(ChangeData::RowInsert { table: tid, row });
        }
    }

    /// The change event of a delete from `tid`.
    fn publish_delete(&self, target: Target, tid: TableId) {
        if target.heartbeat {
            self.publish_change(ChangeData::HeartbeatDml);
        } else if !target.temp {
            self.publish_change(ChangeData::RowDelete { table: tid });
        }
    }

    /// The conflict check of [`WriteTxn::insert_new_key`], run under
    /// the data latch the append holds.
    fn claim_key(&self, st: &Stored, col: usize, key: &Value) -> Result<()> {
        let slots: Vec<RowSlot> = match st.indexes.iter().find(|i| i.column == col) {
            Some(idx) => idx.probe_eq(key).collect(),
            None => st
                .table
                .payloads()
                .filter(|(_, _, row)| row.get(col) == Some(key))
                .map(|(slot, ..)| slot)
                .collect(),
        };
        let txns = &self.read.state.txns;
        for slot in slots {
            let Some(v) = st.table.version(slot) else {
                continue;
            };
            if v.xmin != self.id
                && !self.read.snapshot.committed_before(v.xmin)
                && txns.status(v.xmin) != TxnStatus::Aborted
            {
                return Err(TracError::TxnAborted(format!(
                    "write-write conflict on {}: key {key} already written by {}",
                    st.table.schema.name, v.xmin
                )));
            }
        }
        Ok(())
    }

    /// Deletes the row at `slot` (it must be visible to this txn).
    /// Deletes from the heartbeat table publish
    /// [`ChangeData::HeartbeatDml`] (see [`WriteTxn::insert`]; updates
    /// publish a delete and an insert).
    pub fn delete(&self, tid: TableId, slot: RowSlot) -> Result<()> {
        let (mut inner, _order, target) = self.latch(tid);
        self.stamp_locked(&mut inner, tid, slot)?;
        drop(inner);
        self.publish_delete(target, tid);
        Ok(())
    }

    /// Updates the row at `slot` to `new_row` under one latch; returns
    /// the new slot. Publishes the delete's event, then the insert's.
    pub fn update(&self, tid: TableId, slot: RowSlot, new_row: Vec<Value>) -> Result<RowSlot> {
        let (mut inner, _order, target) = self.latch(tid);
        self.stamp_locked(&mut inner, tid, slot)?;
        let appended = self.append_locked(&mut inner, tid, new_row, None);
        drop(inner);
        self.publish_delete(target, tid);
        let (slot, row) = appended?;
        self.publish_insert(target, tid, row);
        Ok(slot)
    }

    /// The keyed read-modify-write of [`heartbeat::upsert`], under one
    /// latch and one index lookup: finds the version of `row[key]` this
    /// transaction sees through the index on column `key`. When there is
    /// one and `supersedes(current)` holds, replaces it with `row` as
    /// [`WriteTxn::update`] does, pushing the new slot onto the posting
    /// list already in hand; with none, inserts `row` as
    /// [`WriteTxn::insert_new_key`] does. Returns whether it created the
    /// key's row, or `None` when column `key` has no index.
    pub(crate) fn upsert_keyed(
        &self,
        tid: TableId,
        key: usize,
        row: Vec<Value>,
        supersedes: impl FnOnce(&Row) -> Result<bool>,
    ) -> Result<Option<bool>> {
        let (mut inner, _order, target) = self.latch(tid);
        let st = store_mut(&mut inner, tid)?;
        let Some(ix) = st.indexes.iter().position(|i| i.column == key) else {
            return Ok(None);
        };
        let row = st.table.schema.check_row(row)?;
        let Stored { table, indexes } = st;
        let mut postings = indexes[ix].postings_mut(&row[key]);
        let current = postings.as_ref().and_then(|p| {
            p.slots().iter().find_map(|&slot| {
                table
                    .visible_at(slot, &self.read.snapshot, Some(self.id))
                    .map(|r| (slot, r))
            })
        });
        let (Some(postings), Some((old, current))) = (postings.as_mut(), current) else {
            let (_, row) = self.append_locked(&mut inner, tid, row, Some(key))?;
            drop(inner);
            self.publish_insert(target, tid, row);
            return Ok(Some(true));
        };
        if !supersedes(&current)? {
            return Ok(Some(false));
        }
        let txns = &self.read.state.txns;
        table.delete_version(old, self.id, |x| txns.status(x) != TxnStatus::Aborted)?;
        let row: Row = Arc::from(row.into_boxed_slice());
        let new = table.append(Arc::clone(&row), self.id);
        postings.push(new);
        for (i, idx) in indexes.iter_mut().enumerate() {
            if i != ix {
                idx.insert(&row[idx.column], new);
            }
        }
        self.stamped(&mut inner, tid, old);
        self.appended(&mut inner, tid, new, &row);
        drop(inner);
        self.publish_delete(target, tid);
        self.publish_insert(target, tid, row);
        Ok(Some(false))
    }

    /// Ingests one update from a data source (paper Section 3.1): the
    /// row's source column must equal `source` (the tagging discipline of
    /// Section 3.3), and the source's recency timestamp in `Heartbeat`
    /// advances to at least `event_time`, all in this transaction.
    pub fn ingest(
        &self,
        source: &SourceId,
        tid: TableId,
        row: Vec<Value>,
        event_time: Timestamp,
    ) -> Result<RowSlot> {
        {
            // Checked under the read latch, reading the schema in place.
            let inner = self.read.state.data.read();
            let schema = &store(&inner, tid)?.table.schema;
            let sc = schema.source_column.ok_or_else(|| {
                TracError::Constraint(format!(
                    "table {} has no data source column; use insert()",
                    schema.name
                ))
            })?;
            match row.get(sc) {
                Some(v) if v.as_text() == Some(source.as_str()) => {}
                _ => {
                    return Err(TracError::Constraint(format!(
                        "update from source {source} must carry {source} in {}.{}",
                        schema.name, schema.columns[sc].name
                    )))
                }
            }
        }
        let slot = self.insert(tid, row)?;
        self.heartbeat(source, event_time)?;
        Ok(slot)
    }

    /// Advances `source`'s recency timestamp monotonically (an explicit
    /// "nothing to report" beacon, Section 3.1).
    pub fn heartbeat(&self, source: &SourceId, ts: Timestamp) -> Result<()> {
        // The upsert's raw heartbeat-table writes are suppressed on the
        // change stream: the one semantic `HeartbeatUpsert` event below
        // carries strictly more information (max-fold is exact), and
        // maintained consumers must not see the same advance twice.
        self.suppress_events.store(true, AtomicOrdering::Relaxed);
        let upserted = heartbeat::upsert(self, source, ts);
        self.suppress_events.store(false, AtomicOrdering::Relaxed);
        let created = upserted?;
        // Published even for a no-op (stale) offer: the fold is a max,
        // so the event is harmless and stays conservative.
        self.publish_change(ChangeData::HeartbeatUpsert {
            source: source.clone(),
            ts,
            created,
        });
        Ok(())
    }

    /// Commits; all effects become visible to later snapshots.
    pub fn commit(mut self) {
        self.read.state.txns.commit(self.id);
        self.finished = true;
    }

    /// Aborts; all effects vanish.
    pub fn abort(mut self) {
        self.do_abort();
    }

    fn do_abort(&mut self) {
        if self.finished {
            return;
        }
        self.read.state.txns.abort(self.id);
        let _order = lockorder::acquire(LockId::DbData);
        let mut inner = self.read.state.data.write();
        let _stamped_order = lockorder::acquire(LockId::TxnStamped);
        for undo in self.undo.lock().drain(..) {
            match undo {
                Undo::Stamped(tid, slot) => {
                    if let Ok(st) = store_mut(&mut inner, tid) {
                        st.table.unstamp(slot, self.id);
                    }
                }
                Undo::Created(tid, slot) => {
                    if let Ok(st) = store_mut(&mut inner, tid) {
                        st.reclaim(slot, |v| v.xmin == self.id);
                    }
                }
            }
        }
        self.finished = true;
    }
}

impl Drop for WriteTxn {
    fn drop(&mut self) {
        self.do_abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use trac_types::{ColumnDomain, DataType};

    fn activity(db: &Database) -> TableId {
        db.create_table(
            TableSchema::new(
                "activity",
                vec![
                    ColumnDef::new("mach_id", DataType::Text),
                    ColumnDef::new("value", DataType::Text)
                        .with_domain(ColumnDomain::text_set(["idle", "busy"])),
                    ColumnDef::new("event_time", DataType::Timestamp),
                ],
                Some("mach_id"),
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn act_row(m: &str, v: &str, secs: i64) -> Vec<Value> {
        vec![
            Value::text(m),
            Value::text(v),
            Value::Timestamp(Timestamp::from_secs(secs)),
        ]
    }

    #[test]
    fn bootstrap_creates_heartbeat() {
        let db = Database::new();
        let r = db.begin_read();
        let hb = r.table_id(HEARTBEAT_TABLE).unwrap();
        let schema = r.schema(hb).unwrap();
        assert_eq!(schema.source_column, Some(0));
        assert!(r.has_index(hb, 0));
    }

    #[test]
    fn plan_stamp_moves_with_indexes_and_statistics_until_a_drop() {
        let db = Database::new();
        let tid = activity(&db);
        let hb = db.begin_read().table_id(HEARTBEAT_TABLE).unwrap();
        let stamp = || db.begin_read().plan_stamp([tid]);
        let s0 = stamp().unwrap();
        // A write to another table leaves the stamp alone.
        db.with_write(|w| w.heartbeat(&SourceId::new("m1"), Timestamp::from_secs(5)))
            .unwrap();
        assert_eq!(stamp(), Some(s0));
        let slot = db
            .with_write(|w| w.insert(tid, act_row("m1", "idle", 100)))
            .unwrap();
        let s1 = stamp().unwrap();
        assert!(s1 > s0, "an insert moves the statistics");
        db.with_write(|w| w.delete(tid, slot)).unwrap();
        let s2 = stamp().unwrap();
        assert!(s2 > s1, "so does a delete");
        db.create_index("activity", "value").unwrap();
        let s3 = stamp().unwrap();
        assert!(s3 > s2, "and an index");
        db.update_table_stats(tid, |s| s.rows = 1_000);
        assert!(stamp().unwrap() > s3, "and a planner override");
        assert!(db.begin_read().plan_stamp([hb, tid]).is_some());
        db.drop_table("activity").unwrap();
        assert_eq!(stamp(), None);
        assert_eq!(db.begin_read().plan_stamp([hb, tid]), None);
        // A re-created table is a new id; the old one stays dead.
        let again = activity(&db);
        assert_ne!(again, tid);
        assert_eq!(stamp(), None);
    }

    #[test]
    fn insert_commit_visibility() {
        let db = Database::new();
        let tid = activity(&db);
        let before = db.begin_read();
        let w = db.begin_write();
        w.insert(tid, act_row("m1", "idle", 100)).unwrap();
        // Visible to writer, not to pre-existing or concurrent snapshots.
        assert_eq!(w.scan(tid).unwrap().len(), 1);
        assert_eq!(before.scan(tid).unwrap().len(), 0);
        assert_eq!(db.begin_read().scan(tid).unwrap().len(), 0);
        w.commit();
        assert_eq!(db.begin_read().scan(tid).unwrap().len(), 1);
        assert_eq!(before.scan(tid).unwrap().len(), 0, "old snapshot stable");
    }

    #[test]
    fn abort_discards_effects() {
        let db = Database::new();
        let tid = activity(&db);
        let w = db.begin_write();
        w.insert(tid, act_row("m1", "idle", 100)).unwrap();
        w.abort();
        assert_eq!(db.begin_read().scan(tid).unwrap().len(), 0);
    }

    #[test]
    fn drop_aborts_unfinished_txn() {
        let db = Database::new();
        let tid = activity(&db);
        {
            let w = db.begin_write();
            w.insert(tid, act_row("m1", "idle", 100)).unwrap();
            // dropped without commit
        }
        assert_eq!(db.begin_read().scan(tid).unwrap().len(), 0);
    }

    #[test]
    fn update_replaces_row() {
        let db = Database::new();
        let tid = activity(&db);
        let slot = db
            .with_write(|w| w.insert(tid, act_row("m1", "busy", 100)))
            .unwrap();
        db.with_write(|w| w.update(tid, slot, act_row("m1", "idle", 200)))
            .unwrap();
        let rows = db.begin_read().scan(tid).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::text("idle"));
    }

    #[test]
    fn ingest_enforces_source_tagging_and_advances_heartbeat() {
        let db = Database::new();
        let tid = activity(&db);
        let m1 = SourceId::new("m1");
        // Wrong source tag is rejected.
        let err = db
            .with_write(|w| {
                w.ingest(
                    &m1,
                    tid,
                    act_row("m2", "idle", 50),
                    Timestamp::from_secs(50),
                )
            })
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
        // Correct ingest stores the row and the heartbeat.
        db.with_write(|w| {
            w.ingest(
                &m1,
                tid,
                act_row("m1", "idle", 100),
                Timestamp::from_secs(100),
            )
        })
        .unwrap();
        let r = db.begin_read();
        assert_eq!(
            heartbeat::recency_of(&r, &m1).unwrap(),
            Some(Timestamp::from_secs(100))
        );
        // Heartbeat is monotone: an older event does not regress it.
        db.with_write(|w| {
            w.ingest(
                &m1,
                tid,
                act_row("m1", "busy", 80),
                Timestamp::from_secs(80),
            )
        })
        .unwrap();
        let r = db.begin_read();
        assert_eq!(
            heartbeat::recency_of(&r, &m1).unwrap(),
            Some(Timestamp::from_secs(100))
        );
        assert_eq!(r.scan(tid).unwrap().len(), 2);
    }

    #[test]
    fn index_probe_sees_only_visible_rows() {
        let db = Database::new();
        let tid = activity(&db);
        db.create_index("activity", "mach_id").unwrap();
        db.with_write(|w| {
            w.insert(tid, act_row("m1", "idle", 1))?;
            w.insert(tid, act_row("m2", "busy", 2))?;
            w.insert(tid, act_row("m1", "busy", 3))
        })
        .unwrap();
        let r = db.begin_read();
        let hits = r
            .index_probe_in(tid, 0, &[Value::text("m1")])
            .unwrap()
            .unwrap();
        assert_eq!(hits.len(), 2);
        // Probe on unindexed column reports no index.
        assert!(r
            .index_probe_in(tid, 1, &[Value::text("idle")])
            .unwrap()
            .is_none());
        // Delete one m1 row; a fresh snapshot sees one hit, old sees two.
        let (slot, _) = db
            .begin_read()
            .scan_slots(tid)
            .unwrap()
            .into_iter()
            .find(|(_, row)| row[0] == Value::text("m1") && row[1] == Value::text("idle"))
            .unwrap();
        db.with_write(|w| w.delete(tid, slot)).unwrap();
        let fresh = db.begin_read();
        assert_eq!(
            fresh
                .index_probe_in(tid, 0, &[Value::text("m1")])
                .unwrap()
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            r.index_probe_in(tid, 0, &[Value::text("m1")])
                .unwrap()
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn index_backfills_existing_rows() {
        let db = Database::new();
        let tid = activity(&db);
        db.with_write(|w| w.insert(tid, act_row("m7", "idle", 1)))
            .unwrap();
        db.create_index("activity", "value").unwrap();
        let r = db.begin_read();
        let hits = r
            .index_probe_in(tid, 1, &[Value::text("idle")])
            .unwrap()
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][0], Value::text("m7"));
    }

    #[test]
    fn temp_tables_dropped_with_session() {
        let db = Database::new();
        let session = db.new_session_id();
        let schema = TableSchema::new(
            "sys_temp_a1",
            vec![ColumnDef::new("sid", DataType::Text)],
            None,
        )
        .unwrap();
        let tid = db.create_temp_table(schema, session).unwrap();
        db.with_write(|w| w.insert(tid, vec![Value::text("m1")]))
            .unwrap();
        assert!(db.begin_read().table_id("sys_temp_a1").is_ok());
        db.drop_session_temps(session);
        assert!(db.begin_read().table_id("sys_temp_a1").is_err());
    }

    #[test]
    fn range_probe() {
        let db = Database::new();
        let tid = activity(&db);
        db.create_index("activity", "event_time").unwrap();
        db.with_write(|w| {
            for s in 0..10 {
                w.insert(tid, act_row("m1", "idle", s))?;
            }
            Ok(())
        })
        .unwrap();
        let r = db.begin_read();
        let lo = Value::Timestamp(Timestamp::from_secs(3));
        let hi = Value::Timestamp(Timestamp::from_secs(7));
        let hits = r
            .index_probe_range(tid, 2, Bound::Included(&lo), Bound::Excluded(&hi))
            .unwrap()
            .unwrap();
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn vacuum_reclaims_heartbeat_churn() {
        let db = Database::new();
        let s = SourceId::new("m1");
        // 100 heartbeat upserts: 1 live version + 99 dead ones.
        for i in 1..=100 {
            db.with_write(|w| w.heartbeat(&s, Timestamp::from_secs(i)))
                .unwrap();
        }
        let stats = db.vacuum().unwrap();
        assert_eq!(stats.versions_removed, 99);
        // The live row (and its index entry) survive and read correctly.
        let r = db.begin_read();
        assert_eq!(
            heartbeat::recency_of(&r, &s).unwrap(),
            Some(Timestamp::from_secs(100))
        );
        let hb = r.table_id(HEARTBEAT_TABLE).unwrap();
        assert_eq!(
            r.index_probe_in(hb, 0, &[Value::text("m1")])
                .unwrap()
                .unwrap()
                .len(),
            1
        );
        // A second vacuum finds nothing to do.
        drop(r);
        let stats = db.vacuum().unwrap();
        assert_eq!(stats.versions_removed, 0);
    }

    #[test]
    fn vacuum_respects_open_snapshots() {
        let db = Database::new();
        let tid = activity(&db);
        let slot = db
            .with_write(|w| w.insert(tid, act_row("m1", "idle", 1)))
            .unwrap();
        let old = db.begin_read(); // can still see the row after deletion
        db.with_write(|w| w.delete(tid, slot)).unwrap();
        let stats = db.vacuum().unwrap();
        assert_eq!(
            stats.versions_removed, 0,
            "version visible to an open snapshot must survive"
        );
        assert_eq!(old.scan(tid).unwrap().len(), 1);
        drop(old);
        let stats = db.vacuum().unwrap();
        assert_eq!(stats.versions_removed, 1);
        assert_eq!(db.begin_read().scan(tid).unwrap().len(), 0);
    }

    #[test]
    fn vacuum_drops_aborted_versions_and_blocks_on_open_txns() {
        let db = Database::new();
        let tid = activity(&db);
        let w = db.begin_write();
        w.insert(tid, act_row("m1", "idle", 1)).unwrap();
        // In-progress txn blocks vacuum.
        assert!(db.vacuum().is_err());
        w.abort();
        let stats = db.vacuum().unwrap();
        assert_eq!(stats.versions_removed, 1, "aborted insert reclaimed");
    }

    #[test]
    fn scan_slot_ranges_concatenate_to_full_scan() {
        let db = Database::new();
        let tid = activity(&db);
        db.with_write(|w| {
            for s in 0..25 {
                w.insert(tid, act_row(&format!("m{}", s % 3 + 1), "idle", s))?;
            }
            Ok(())
        })
        .unwrap();
        // Delete a few rows so some slots are invisible.
        let slots: Vec<_> = db.begin_read().scan_slots(tid).unwrap();
        db.with_write(|w| {
            w.delete(tid, slots[3].0)?;
            w.delete(tid, slots[17].0)
        })
        .unwrap();
        let r = db.begin_read();
        let total = r.version_slot_count(tid).unwrap();
        assert_eq!(total, 25);
        let mut pieces = Vec::new();
        for lo in (0..total + 7).step_by(7) {
            pieces.extend(r.scan_slot_range(tid, lo, lo + 7).unwrap());
        }
        assert_eq!(pieces, r.scan(tid).unwrap());
    }

    #[test]
    fn index_probe_chunks_match_flat_probe() {
        let db = Database::new();
        let tid = activity(&db);
        db.create_index("activity", "mach_id").unwrap();
        db.with_write(|w| {
            for s in 0..30 {
                w.insert(tid, act_row(&format!("m{}", s % 3 + 1), "idle", s))?;
            }
            Ok(())
        })
        .unwrap();
        let r = db.begin_read();
        let keys = [Value::text("m3"), Value::text("m1")];
        let chunks = r.index_probe_in_chunks(tid, 0, &keys, 4).unwrap().unwrap();
        assert!(chunks.iter().all(|c| c.len() <= 4 && !c.is_empty()));
        let mut rows = Vec::new();
        for chunk in &chunks {
            rows.extend(r.rows_for_slots(tid, chunk).unwrap());
        }
        assert_eq!(rows, r.index_probe_in(tid, 0, &keys).unwrap().unwrap());
        // Unindexed column reports no index, same as the flat probe.
        assert!(r.index_probe_in_chunks(tid, 1, &keys, 4).unwrap().is_none());
    }

    #[test]
    fn write_write_conflict_surfaces() {
        let db = Database::new();
        let tid = activity(&db);
        let slot = db
            .with_write(|w| w.insert(tid, act_row("m1", "idle", 1)))
            .unwrap();
        let w1 = db.begin_write();
        let w2 = db.begin_write();
        w1.delete(tid, slot).unwrap();
        let err = w2.delete(tid, slot).unwrap_err();
        assert_eq!(err.kind(), "txn_aborted");
        w1.commit();
    }

    /// The `created` bit of every heartbeat event published since `mark`.
    fn created_bits(db: &Database, mark: u64) -> Vec<bool> {
        db.change_log()
            .read_from(mark)
            .unwrap()
            .into_iter()
            .map(|e| match e.data {
                ChangeData::HeartbeatUpsert { created, .. } => created,
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn heartbeat_events_say_whether_the_upsert_created_the_source() {
        let db = Database::new();
        let m1 = SourceId::new("m1");
        let mark = db.change_log().next_seq();
        // First upsert creates; a second one in the same txn does not.
        db.with_write(|w| {
            w.heartbeat(&m1, Timestamp::from_secs(10))?;
            w.heartbeat(&m1, Timestamp::from_secs(20))
        })
        .unwrap();
        // A later transaction advances, then offers a stale (no-op) ts.
        db.with_write(|w| w.heartbeat(&m1, Timestamp::from_secs(30)))
            .unwrap();
        db.with_write(|w| w.heartbeat(&m1, Timestamp::from_secs(5)))
            .unwrap();
        assert_eq!(created_bits(&db, mark), vec![true, false, false, false]);
    }

    #[test]
    fn an_ingest_publishes_the_writers_source_id_and_a_typed_timestamp() {
        let db = Database::new();
        let tid = activity(&db);
        let m1 = SourceId::new("m1");
        let mark = db.change_log().next_seq();
        db.with_write(|w| w.ingest(&m1, tid, act_row("m1", "idle", 7), Timestamp::from_secs(9)))
            .unwrap();
        let events = db.change_log().read_from(mark).unwrap();
        let [insert, beat] = events.as_slice() else {
            panic!("expected a row insert and a heartbeat upsert: {events:?}");
        };
        assert_eq!(insert.data.kind(), "row-insert");
        let ChangeData::HeartbeatUpsert {
            source,
            ts,
            created,
        } = &beat.data
        else {
            panic!("expected a heartbeat upsert: {beat:?}");
        };
        assert_eq!(source, &m1);
        assert_eq!(
            source.as_str().as_ptr(),
            m1.as_str().as_ptr(),
            "the event shares the writer's id"
        );
        assert_eq!(*ts, Timestamp::from_secs(9));
        assert!(*created);
    }

    #[test]
    fn racing_creators_of_one_source_leave_one_row() {
        // A writer that began before another committed a source's first
        // row cannot see that row. Its upsert must not add a second row
        // for the source (every rescan would then report the source
        // twice), so creation is first-writer-wins, like updates.
        let db = Database::new();
        let m1 = SourceId::new("m1");
        let first = db.begin_write();
        let late = db.begin_write();
        let mark = db.change_log().next_seq();
        first.heartbeat(&m1, Timestamp::from_secs(10)).unwrap();
        let err = late.heartbeat(&m1, Timestamp::from_secs(20)).unwrap_err();
        assert_eq!(err.kind(), "txn_aborted", "in-flight creator wins");
        late.abort();
        let late = db.begin_write();
        first.commit();
        let err = late.heartbeat(&m1, Timestamp::from_secs(20)).unwrap_err();
        assert_eq!(err.kind(), "txn_aborted", "creator committed after begin");
        late.abort();
        assert_eq!(
            created_bits(&db, mark),
            vec![true],
            "losers publish nothing"
        );
        let r = db.begin_read();
        let hb = r.table_id(HEARTBEAT_TABLE).unwrap();
        assert_eq!(r.scan(hb).unwrap().len(), 1);
        assert_eq!(
            heartbeat::recency_of(&r, &m1).unwrap(),
            Some(Timestamp::from_secs(10))
        );
    }

    #[test]
    fn a_creator_that_aborts_leaves_the_source_new() {
        // The conservative case: a writer that began before the first
        // creator finished sees no row either way. When that creator
        // aborts, the later writer's upsert creates the source, and its
        // event says so; the aborted event is never folded.
        let db = Database::new();
        let m1 = SourceId::new("m1");
        let mark = db.change_log().next_seq();
        let first = db.begin_write();
        let late = db.begin_write();
        first.heartbeat(&m1, Timestamp::from_secs(10)).unwrap();
        first.abort();
        late.heartbeat(&m1, Timestamp::from_secs(20)).unwrap();
        late.commit();
        assert_eq!(created_bits(&db, mark), vec![true, true]);
        let r = db.begin_read();
        assert_eq!(
            heartbeat::recency_of(&r, &m1).unwrap(),
            Some(Timestamp::from_secs(20))
        );
    }
}
