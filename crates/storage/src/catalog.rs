//! Name resolution for tables and indexes, including session temp tables.
//!
//! The TRAC session machinery (paper Section 4.3) materializes recency
//! information into automatically-created temporary tables
//! (`sys_temp_a…`, `sys_temp_e…`) that live until the end of the user
//! session unless copied. The catalog tracks which tables belong to which
//! session so they can be dropped en masse.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use trac_types::{Result, TracError, Value};

/// Identifies a table in the database (index into the table vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// Identifies a user session (owner of temp tables).
pub type SessionId = u64;

/// Metadata about one secondary index.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    /// Index name (e.g. `activity_mach_id_idx`).
    pub name: String,
    /// Table the index belongs to.
    pub table: TableId,
    /// Indexed column position.
    pub column: usize,
}

#[derive(Debug, Clone)]
struct TableEntry {
    id: TableId,
    /// Session owning this temp table, or `None` for permanent tables.
    temp_owner: Option<SessionId>,
}

/// Bitmap size of the linear-counting NDV sketch (bits).
const SKETCH_BITS: usize = 256;

/// A fixed-size linear-counting sketch estimating the number of
/// distinct values observed. 256 bits is plenty for planner-grade
/// estimates on monitoring-sized tables: the estimate only steers
/// access-path and join-order choices, never results.
#[derive(Debug, Clone, Copy, Default)]
pub struct NdvSketch {
    bits: [u64; SKETCH_BITS / 64],
}

impl NdvSketch {
    /// Folds one value into the sketch.
    pub fn observe(&mut self, v: &Value) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        let bit = (h.finish() % SKETCH_BITS as u64) as usize;
        self.bits[bit / 64] |= 1 << (bit % 64);
    }

    /// Linear-counting estimate: `-m · ln(z/m)` with `z` empty buckets.
    /// Saturates to `u64::MAX` when every bucket is hit.
    pub fn estimate(&self) -> u64 {
        let zeros = self
            .bits
            .iter()
            .map(|w| w.count_zeros() as u64)
            .sum::<u64>();
        if zeros == 0 {
            return u64::MAX;
        }
        let m = SKETCH_BITS as f64;
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        {
            (-m * (zeros as f64 / m).ln()).round() as u64
        }
    }
}

/// Planner statistics for one column, maintained approximately on the
/// write path (see [`TableStats`]).
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// NULL values observed on insert (never decremented on delete).
    pub nulls: u64,
    /// Smallest non-NULL value observed (insert-only widening).
    pub min: Option<Value>,
    /// Largest non-NULL value observed (insert-only widening).
    pub max: Option<Value>,
    /// Distinct-value sketch over inserted non-NULL values.
    pub sketch: NdvSketch,
}

impl ColumnStats {
    fn observe(&mut self, v: &Value) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        self.sketch.observe(v);
        match &self.min {
            Some(m) if v >= m => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v <= m => {}
            _ => self.max = Some(v.clone()),
        }
    }

    /// NDV estimate, clamped to `[1, rows]` for a non-empty table.
    pub fn ndv(&self, rows: u64) -> u64 {
        if rows == 0 {
            return 1;
        }
        self.sketch.estimate().clamp(1, rows)
    }

    /// Proof that no NULL was ever inserted into this column.
    ///
    /// Sound because `nulls` only ever increments (deletes and aborts
    /// never decrement it), so a zero count means the column has never
    /// seen a NULL — a visible NULL without an insert is impossible.
    pub fn proves_non_null(&self) -> bool {
        self.nulls == 0
    }

    /// Proof that no NaN was ever inserted into this column.
    ///
    /// `min`/`max` widen under the storage total order
    /// ([`Value::cmp`], which uses `f64::total_cmp`), where negative
    /// NaNs sort below `-inf` and positive NaNs above `+inf`. Any
    /// inserted NaN therefore necessarily becomes `min` or `max`, and
    /// the bounds never shrink — so NaN-free extremes prove the whole
    /// insert history was NaN-free.
    pub fn proves_nan_free(&self) -> bool {
        let nan = |v: &Option<Value>| matches!(v, Some(Value::Float(f)) if f.is_nan());
        !nan(&self.min) && !nan(&self.max)
    }
}

/// Planner statistics for one table.
///
/// Maintained on the write path (insert/delete/ingest, which covers the
/// heartbeat-upsert path too) while the data lock is already held, so
/// the counters are *estimates*, not MVCC-exact answers: an aborted
/// transaction's inserts stay counted, deletes decrement immediately,
/// and min/max/NDV only widen. That is the sound direction for a cost
/// model — stats steer plan choice, and every plan computes the same
/// rows.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Net row estimate (inserts minus deletes, saturating).
    pub rows: u64,
    /// Per-column statistics, indexed by column position.
    pub columns: Vec<ColumnStats>,
    /// Bumped by every change to these statistics, so a cached plan
    /// can tell whether the estimates and proofs it was lowered under
    /// still hold (see [`crate::ReadTxn::plan_stamp`]).
    pub version: u64,
}

impl TableStats {
    /// Folds one inserted row into the stats.
    pub fn observe_insert(&mut self, row: &[Value]) {
        self.version += 1;
        self.rows = self.rows.saturating_add(1);
        if self.columns.len() < row.len() {
            self.columns.resize_with(row.len(), ColumnStats::default);
        }
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.observe(v);
        }
    }

    /// Records one deleted row.
    pub fn observe_delete(&mut self) {
        self.version += 1;
        self.rows = self.rows.saturating_sub(1);
    }

    /// Stats for `column`, when any row has been observed.
    pub fn column(&self, column: usize) -> Option<&ColumnStats> {
        self.columns.get(column)
    }
}

/// Maps names to table ids and tracks temp-table ownership.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, TableEntry>,
    indexes: Vec<IndexMeta>,
    stats: HashMap<TableId, TableStats>,
    /// Ids of the tables whose entry has a `temp_owner`, so the per-row
    /// write path answers [`Catalog::is_temp_id`] without a scan.
    temp_ids: HashSet<TableId>,
}

/// Table names are case-insensitive. An already-lowercase name, such as
/// the heartbeat table's, is looked up without allocating.
fn norm(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a permanent table.
    pub fn register_table(&mut self, name: &str, id: TableId) -> Result<()> {
        self.register(name, id, None)
    }

    /// Registers a session temp table.
    pub fn register_temp_table(
        &mut self,
        name: &str,
        id: TableId,
        session: SessionId,
    ) -> Result<()> {
        self.register(name, id, Some(session))
    }

    fn register(&mut self, name: &str, id: TableId, owner: Option<SessionId>) -> Result<()> {
        let key = norm(name).into_owned();
        if self.tables.contains_key(&key) {
            return Err(TracError::Catalog(format!("table {name} already exists")));
        }
        if owner.is_some() {
            self.temp_ids.insert(id);
        }
        self.tables.insert(
            key,
            TableEntry {
                id,
                temp_owner: owner,
            },
        );
        Ok(())
    }

    /// Resolves a table name.
    pub fn lookup_table(&self, name: &str) -> Option<TableId> {
        self.tables.get(norm(name).as_ref()).map(|e| e.id)
    }

    /// True when `name` refers to a temp table.
    pub fn is_temp(&self, name: &str) -> bool {
        self.tables
            .get(norm(name).as_ref())
            .is_some_and(|e| e.temp_owner.is_some())
    }

    /// True when `id` refers to a temp table. Temp-table writes are
    /// session-private report materializations; the change stream skips
    /// them so maintained consumers fold only shared, durable state.
    pub fn is_temp_id(&self, id: TableId) -> bool {
        self.temp_ids.contains(&id)
    }

    /// Removes one table binding (and its index metadata); returns its id.
    pub fn drop_table(&mut self, name: &str) -> Result<TableId> {
        let id = self
            .tables
            .remove(norm(name).as_ref())
            .map(|e| e.id)
            .ok_or_else(|| TracError::Catalog(format!("no table named {name}")))?;
        self.indexes.retain(|m| m.table != id);
        self.stats.remove(&id);
        self.temp_ids.remove(&id);
        Ok(id)
    }

    /// Drops every temp table belonging to `session`; returns their ids.
    pub fn drop_session_temps(&mut self, session: SessionId) -> Vec<TableId> {
        let doomed: Vec<String> = self
            .tables
            .iter()
            .filter(|(_, e)| e.temp_owner == Some(session))
            .map(|(k, _)| k.clone())
            .collect();
        let ids: Vec<TableId> = doomed
            .iter()
            .filter_map(|k| self.tables.remove(k).map(|e| e.id))
            .collect();
        self.indexes.retain(|m| !ids.contains(&m.table));
        for id in &ids {
            self.stats.remove(id);
            self.temp_ids.remove(id);
        }
        ids
    }

    /// Promotes a temp table to permanent (the paper's "copy to a
    /// permanent table before the end of a session", done in place).
    pub fn persist_temp(&mut self, name: &str) -> Result<()> {
        let e = self
            .tables
            .get_mut(norm(name).as_ref())
            .ok_or_else(|| TracError::Catalog(format!("no table named {name}")))?;
        e.temp_owner = None;
        self.temp_ids.remove(&e.id);
        Ok(())
    }

    /// Registers an index.
    pub fn register_index(&mut self, meta: IndexMeta) -> Result<usize> {
        if self.indexes.iter().any(|m| m.name == meta.name) {
            return Err(TracError::Catalog(format!(
                "index {} already exists",
                meta.name
            )));
        }
        self.indexes.push(meta);
        Ok(self.indexes.len() - 1)
    }

    /// All indexes on `table`.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &IndexMeta> {
        self.indexes.iter().filter(move |m| m.table == table)
    }

    /// Finds the index on `(table, column)`, if any.
    pub fn index_on_column(&self, table: TableId, column: usize) -> Option<&IndexMeta> {
        self.indexes
            .iter()
            .find(|m| m.table == table && m.column == column)
    }

    /// Planner statistics for `table`, if any row was ever observed.
    pub fn table_stats(&self, table: TableId) -> Option<&TableStats> {
        self.stats.get(&table)
    }

    /// Mutable planner statistics for `table` (created on first use).
    pub fn table_stats_mut(&mut self, table: TableId) -> &mut TableStats {
        self.stats.entry(table).or_default()
    }

    /// Names of all registered tables (normalized), sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_lookup() {
        let mut c = Catalog::new();
        c.register_table("Activity", TableId(0)).unwrap();
        assert_eq!(c.lookup_table("activity"), Some(TableId(0)));
        assert_eq!(c.lookup_table("ACTIVITY"), Some(TableId(0)));
        assert!(c.register_table("ACTIVITY", TableId(1)).is_err());
    }

    #[test]
    fn temp_table_lifecycle() {
        let mut c = Catalog::new();
        c.register_temp_table("sys_temp_a1", TableId(1), 7).unwrap();
        c.register_temp_table("sys_temp_e1", TableId(2), 7).unwrap();
        c.register_temp_table("sys_temp_a2", TableId(3), 8).unwrap();
        c.register_table("activity", TableId(4)).unwrap();
        assert!(c.is_temp("sys_temp_a1"));
        assert!((1..=3).all(|i| c.is_temp_id(TableId(i))));
        assert!(!c.is_temp_id(TableId(4)));
        let dropped = c.drop_session_temps(7);
        assert_eq!(dropped.len(), 2);
        assert_eq!(c.lookup_table("sys_temp_a1"), None);
        assert_eq!(c.lookup_table("sys_temp_a2"), Some(TableId(3)));
        assert!(!c.is_temp_id(TableId(1)) && !c.is_temp_id(TableId(2)));
        assert!(c.is_temp_id(TableId(3)));
        c.drop_table("sys_temp_a2").unwrap();
        assert!(!c.is_temp_id(TableId(3)));
    }

    #[test]
    fn persist_temp_survives_session_drop() {
        let mut c = Catalog::new();
        c.register_temp_table("keeper", TableId(1), 7).unwrap();
        assert!(c.is_temp_id(TableId(1)));
        c.persist_temp("Keeper").unwrap();
        assert!(!c.is_temp("keeper"));
        assert!(!c.is_temp_id(TableId(1)));
        assert!(c.drop_session_temps(7).is_empty());
        assert_eq!(c.lookup_table("keeper"), Some(TableId(1)));
        assert!(!c.is_temp_id(TableId(1)));
    }

    #[test]
    fn column_stats_track_inserts() {
        let mut s = TableStats::default();
        for n in 0..50i64 {
            s.observe_insert(&[Value::Int(n % 5), Value::text("x")]);
        }
        s.observe_insert(&[Value::Null, Value::text("y")]);
        s.observe_delete();
        assert_eq!(s.rows, 50);
        assert_eq!(s.version, 52, "every insert and delete counts");
        let c0 = s.column(0).unwrap();
        assert_eq!(c0.nulls, 1);
        assert_eq!(c0.min, Some(Value::Int(0)));
        assert_eq!(c0.max, Some(Value::Int(4)));
        // Linear counting on 5 distinct values lands on (about) 5 and
        // is clamped by the row count.
        let ndv = c0.ndv(s.rows);
        assert!((4..=6).contains(&ndv), "ndv estimate {ndv}");
        let c1 = s.column(1).unwrap();
        assert_eq!(c1.ndv(s.rows), 2);
        // Deletes never shrink min/max or the sketch.
        assert_eq!(c1.min, Some(Value::text("x")));
        assert_eq!(c1.max, Some(Value::text("y")));
    }

    #[test]
    fn stats_prove_null_and_nan_freedom() {
        let mut s = TableStats::default();
        s.observe_insert(&[Value::Float(1.5)]);
        assert!(s.column(0).unwrap().proves_non_null());
        assert!(s.column(0).unwrap().proves_nan_free());
        // A positive NaN surfaces as `max` under the storage order.
        s.observe_insert(&[Value::Float(f64::NAN)]);
        assert!(!s.column(0).unwrap().proves_nan_free());
        // A negative NaN surfaces as `min`.
        let mut s2 = TableStats::default();
        s2.observe_insert(&[Value::Float(2.0)]);
        s2.observe_insert(&[Value::Float(-f64::NAN)]);
        assert!(!s2.column(0).unwrap().proves_nan_free());
        // NULLs are counted forever: the proof never un-learns.
        s2.observe_insert(&[Value::Null]);
        s2.observe_delete();
        assert!(!s2.column(0).unwrap().proves_non_null());
    }

    #[test]
    fn ndv_sketch_saturates() {
        let mut sk = NdvSketch::default();
        assert_eq!(sk.estimate(), 0);
        for n in 0..100_000i64 {
            sk.observe(&Value::Int(n));
        }
        assert_eq!(sk.estimate(), u64::MAX, "full bitmap saturates");
    }

    #[test]
    fn index_registry() {
        let mut c = Catalog::new();
        c.register_table("t", TableId(0)).unwrap();
        c.register_index(IndexMeta {
            name: "t_sid_idx".into(),
            table: TableId(0),
            column: 0,
        })
        .unwrap();
        assert!(c
            .register_index(IndexMeta {
                name: "t_sid_idx".into(),
                table: TableId(0),
                column: 1,
            })
            .is_err());
        assert!(c.index_on_column(TableId(0), 0).is_some());
        assert!(c.index_on_column(TableId(0), 1).is_none());
        assert_eq!(c.indexes_on(TableId(0)).count(), 1);
    }
}
