//! Versioned heap tables.
//!
//! A table is an append-only vector of row versions. Updates write a new
//! version and stamp `xmax` on the old one; deletes stamp `xmax` only.
//! Visibility is decided per [`crate::txn::Snapshot`]. Rows are shared as
//! `Arc<[Value]>` so scans hand out cheap clones.
//!
//! A version no snapshot can see any more is *reclaimed* in place: its
//! payload is released and a payload-free stub keeps its slot, so slots
//! are never renumbered and scan order never changes. A stub is invisible
//! to every snapshot; [`Table::payloads`] skips stubs for readers of raw
//! versions, and only vacuum's compaction removes them.

use crate::schema::TableSchema;
use crate::txn::{Snapshot, TxnId};
use std::sync::Arc;
use trac_types::{Result, TracError, Value};

/// A shared, immutable row payload.
pub type Row = Arc<[Value]>;

/// Physical position of a row version within a table's heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowSlot(pub usize);

/// One version of a row.
#[derive(Debug, Clone)]
pub struct RowVersion {
    /// The column values; `None` once the version is reclaimed (a stub).
    pub values: Option<Row>,
    /// Creating transaction.
    pub xmin: TxnId,
    /// Deleting/superseding transaction, if any.
    pub xmax: Option<TxnId>,
}

/// A heap table: schema + version vector.
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    versions: Vec<RowVersion>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            versions: Vec::new(),
        }
    }

    /// Total number of row versions (including dead ones).
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// Appends a new row version created by `xmin`; the row must already
    /// be schema-checked. Returns its slot.
    pub fn append(&mut self, values: Row, xmin: TxnId) -> RowSlot {
        let slot = RowSlot(self.versions.len());
        self.versions.push(RowVersion {
            values: Some(values),
            xmin,
            xmax: None,
        });
        slot
    }

    /// The version stored at `slot`.
    pub fn version(&self, slot: RowSlot) -> Option<&RowVersion> {
        self.versions.get(slot.0)
    }

    /// Marks the version at `slot` deleted by `xmax`.
    ///
    /// Fails (write-write conflict) if another transaction already stamped
    /// a non-aborted `xmax` there. The caller passes `xmax_is_live` to
    /// decide whether an existing stamp still counts (i.e. belongs to a
    /// transaction that is in progress or committed).
    pub fn delete_version(
        &mut self,
        slot: RowSlot,
        xmax: TxnId,
        xmax_is_live: impl Fn(TxnId) -> bool,
    ) -> Result<()> {
        let v = self
            .versions
            .get_mut(slot.0)
            .ok_or_else(|| TracError::Storage(format!("no slot {slot:?}")))?;
        match v.xmax {
            Some(existing) if existing != xmax && xmax_is_live(existing) => {
                Err(TracError::TxnAborted(format!(
                    "write-write conflict on {}.{:?}: already written by {existing}",
                    self.schema.name, slot
                )))
            }
            _ => {
                v.xmax = Some(xmax);
                Ok(())
            }
        }
    }

    /// Clears an `xmax` stamp set by an aborting transaction.
    pub fn unstamp(&mut self, slot: RowSlot, xmax: TxnId) {
        if let Some(v) = self.versions.get_mut(slot.0) {
            if v.xmax == Some(xmax) {
                v.xmax = None;
            }
        }
    }

    /// Reclaims the version at `slot` when `dead` says no snapshot can
    /// see it: releases its payload, leaving a stub, and returns the
    /// payload so the caller can unlink its index entries. `None` when
    /// `dead` declines or the slot is a stub already.
    pub fn reclaim(
        &mut self,
        slot: RowSlot,
        dead: impl FnOnce(&RowVersion) -> bool,
    ) -> Option<Row> {
        let v = self.versions.get_mut(slot.0)?;
        if !dead(v) {
            return None;
        }
        v.values.take()
    }

    /// Iterates `(slot, row)` over versions visible to `snap` for reader
    /// `own`.
    pub fn scan_visible<'a>(
        &'a self,
        snap: &'a Snapshot,
        own: Option<TxnId>,
    ) -> impl Iterator<Item = (RowSlot, Row)> + 'a {
        self.versions.iter().enumerate().filter_map(move |(i, v)| {
            let row = v.values.as_ref()?;
            snap.sees_version(own, v.xmin, v.xmax)
                .then(|| (RowSlot(i), Arc::clone(row)))
        })
    }

    /// Drops every stub and every version for which `is_dead` returns
    /// true, compacting the heap. Returns the number removed. Slots are
    /// renumbered — the caller must rebuild indexes and must guarantee no
    /// outstanding [`RowSlot`] references (vacuum's job).
    pub fn compact(&mut self, is_dead: impl Fn(&RowVersion) -> bool) -> usize {
        let before = self.versions.len();
        self.versions.retain(|v| v.values.is_some() && !is_dead(v));
        before - self.versions.len()
    }

    /// Iterates `(slot, version, row)` over every version that still
    /// holds its payload, dead or alive (index builds, key checks). Stubs
    /// are skipped.
    pub fn payloads(&self) -> impl Iterator<Item = (RowSlot, &RowVersion, &Row)> {
        self.versions
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((RowSlot(i), v, v.values.as_ref()?)))
    }

    /// Number of reclaimed stubs in the heap.
    pub fn stub_count(&self) -> usize {
        self.versions.iter().filter(|v| v.values.is_none()).count()
    }

    /// Visibility check + fetch for a single slot.
    pub fn visible_at(&self, slot: RowSlot, snap: &Snapshot, own: Option<TxnId>) -> Option<Row> {
        let v = self.versions.get(slot.0)?;
        let row = v.values.as_ref()?;
        snap.sees_version(own, v.xmin, v.xmax)
            .then(|| Arc::clone(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::txn::TxnManager;
    use trac_types::DataType;

    fn tbl() -> Table {
        Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("sid", DataType::Text),
                    ColumnDef::new("v", DataType::Int),
                ],
                Some("sid"),
            )
            .unwrap(),
        )
    }

    fn row(s: &str, v: i64) -> Row {
        Arc::from(vec![Value::text(s), Value::Int(v)].into_boxed_slice())
    }

    #[test]
    fn append_scan_delete_cycle() {
        let m = TxnManager::new();
        let mut t = tbl();
        let t1 = m.begin();
        let s0 = t.append(row("m1", 1), t1);
        t.append(row("m2", 2), t1);
        m.commit(t1);

        let snap = m.snapshot();
        assert_eq!(t.scan_visible(&snap, None).count(), 2);

        let t2 = m.begin();
        t.delete_version(s0, t2, |x| m.status(x) != crate::txn::TxnStatus::Aborted)
            .unwrap();
        // Old snapshot still sees both rows; t2 sees one.
        assert_eq!(t.scan_visible(&snap, None).count(), 2);
        assert_eq!(t.scan_visible(&snap, Some(t2)).count(), 1);
        m.commit(t2);
        let snap2 = m.snapshot();
        assert_eq!(t.scan_visible(&snap2, None).count(), 1);
        assert_eq!(t.visible_at(s0, &snap2, None), None);
        assert_eq!(t.visible_at(s0, &snap, None), Some(row("m1", 1)));
    }

    #[test]
    fn write_write_conflict_detected() {
        let m = TxnManager::new();
        let mut t = tbl();
        let t1 = m.begin();
        let slot = t.append(row("m1", 1), t1);
        m.commit(t1);

        let t2 = m.begin();
        let t3 = m.begin();
        let live = |x: TxnId| m.status(x) != crate::txn::TxnStatus::Aborted;
        t.delete_version(slot, t2, live).unwrap();
        let err = t.delete_version(slot, t3, live).unwrap_err();
        assert_eq!(err.kind(), "txn_aborted");
        // If t2 aborts and unstamps, t3 may proceed.
        m.abort(t2);
        t.unstamp(slot, t2);
        t.delete_version(slot, t3, |x| m.status(x) != crate::txn::TxnStatus::Aborted)
            .unwrap();
    }

    #[test]
    fn uncommitted_insert_invisible_to_others() {
        let m = TxnManager::new();
        let mut t = tbl();
        let t1 = m.begin();
        t.append(row("m1", 1), t1);
        let snap = m.snapshot();
        assert_eq!(t.scan_visible(&snap, None).count(), 0);
        assert_eq!(t.scan_visible(&snap, Some(t1)).count(), 1);
    }
}
