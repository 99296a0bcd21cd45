//! Ordered secondary indexes.
//!
//! The paper's evaluation builds B-tree indexes on the data source columns
//! of `Heartbeat`, `Activity` and `Routing` (Section 5.2) — that is what
//! lets the Focused recency query probe only the few relevant sources
//! instead of scanning everything. We implement the moral equivalent with
//! a `BTreeMap<Value, Vec<RowSlot>>`. Entries are added on insert and
//! removed when their version is reclaimed (superseded below the xmin
//! horizon, or created by an aborted transaction), so a key's posting
//! list holds its live versions plus the dead ones some snapshot may
//! still see or the write path has not reclaimed yet. Readers re-check
//! MVCC visibility and, when necessary, the indexed predicate.

use crate::table::RowSlot;
use std::collections::BTreeMap;
use std::ops::Bound;
use trac_types::Value;

/// An ordered index over one column of a table.
#[derive(Debug, Default)]
pub struct Index {
    /// Indexed column position in the base table.
    pub column: usize,
    map: BTreeMap<Value, Vec<RowSlot>>,
    entries: usize,
}

/// One key's posting list, borrowed from its [`Index`] by
/// [`Index::postings_mut`].
pub struct Postings<'a> {
    slots: &'a mut Vec<RowSlot>,
    entries: &'a mut usize,
}

impl Postings<'_> {
    /// The key's slots, in slot order.
    pub fn slots(&self) -> &[RowSlot] {
        self.slots
    }

    /// Appends `slot`, which must exceed every slot already listed (a
    /// version just appended to the heap), so the list stays in slot
    /// order.
    pub fn push(&mut self, slot: RowSlot) {
        debug_assert!(self.slots.last().is_none_or(|last| *last < slot));
        self.slots.push(slot);
        *self.entries += 1;
    }
}

impl Index {
    /// Creates an empty index on `column`.
    pub fn new(column: usize) -> Index {
        Index {
            column,
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    /// Adds an entry. NULL keys are not indexed (SQL predicates on the
    /// indexed column can never match NULL anyway).
    pub fn insert(&mut self, key: &Value, slot: RowSlot) {
        if key.is_null() {
            return;
        }
        // Clone the key only when it is new to the index.
        match self.map.get_mut(key) {
            Some(slots) => slots.push(slot),
            None => {
                self.map.insert(key.clone(), vec![slot]);
            }
        }
        self.entries += 1;
    }

    /// Removes the entry `(key, slot)`, dropping the key when its posting
    /// list empties. Returns whether the entry was present. Posting lists
    /// are in slot order (slots are appended in increasing order and
    /// builds walk the heap in slot order), so the lookup is a binary
    /// search and the remaining postings keep their order.
    pub fn remove(&mut self, key: &Value, slot: RowSlot) -> bool {
        let Some(slots) = self.map.get_mut(key) else {
            return false;
        };
        let Ok(at) = slots.binary_search(&slot) else {
            return false;
        };
        slots.remove(at);
        if slots.is_empty() {
            self.map.remove(key);
        }
        self.entries -= 1;
        true
    }

    /// The posting list of `key` for a read-modify-write under one
    /// lookup: read its slots, then push a new slot. `None` when `key`
    /// has no entry.
    pub fn postings_mut(&mut self, key: &Value) -> Option<Postings<'_>> {
        let slots = self.map.get_mut(key)?;
        Some(Postings {
            slots,
            entries: &mut self.entries,
        })
    }

    /// Length of the longest posting list: the most versions an equality
    /// probe of one key visits.
    pub fn longest_posting(&self) -> usize {
        self.map.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of (non-NULL) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Slots whose key equals `key`.
    pub fn probe_eq<'a>(&'a self, key: &Value) -> impl Iterator<Item = RowSlot> + 'a {
        self.map.get(key).into_iter().flatten().copied()
    }

    /// Slots whose key is in any of `keys` (an `IN` list probe).
    pub fn probe_in<'a>(&'a self, keys: &'a [Value]) -> impl Iterator<Item = RowSlot> + 'a {
        keys.iter().flat_map(move |k| self.probe_eq(k))
    }

    /// Slots whose key lies within the given bounds.
    pub fn probe_range<'a>(
        &'a self,
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> impl Iterator<Item = RowSlot> + 'a {
        self.map
            .range::<Value, _>((lo, hi))
            .flat_map(|(_, slots)| slots.iter().copied())
    }

    /// All slots in key order: ascending keys when `desc` is false,
    /// descending keys when true, with each key's posting list always
    /// in insertion (slot) order. Because `Value`'s total order is the
    /// executor's ORDER BY comparator and posting lists preserve
    /// insertion order, this walk enumerates slots exactly as a stable
    /// sort of the base table on the indexed column would — ascending
    /// or descending — which is what the MIN/MAX and top-N index fast
    /// paths rely on. NULL keys are absent (never indexed).
    pub fn ordered_slots(&self, desc: bool) -> Box<dyn Iterator<Item = RowSlot> + '_> {
        if desc {
            Box::new(
                self.map
                    .iter()
                    .rev()
                    .flat_map(|(_, slots)| slots.iter().copied()),
            )
        } else {
            Box::new(self.map.values().flat_map(|slots| slots.iter().copied()))
        }
    }

    /// Range probe in morsel-sized chunks: like [`Index::probe_range`]
    /// but grouped into `Vec`s of at most `chunk` slots, produced
    /// lazily from the underlying B-tree cursor. Parallel `IndexLookup`
    /// uses this to hand out work units without first materializing the
    /// full posting list.
    pub fn probe_range_chunks<'a>(
        &'a self,
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
        chunk: usize,
    ) -> impl Iterator<Item = Vec<RowSlot>> + 'a {
        let chunk = chunk.max(1);
        let mut slots = self.probe_range(lo, hi).peekable();
        std::iter::from_fn(move || {
            slots.peek()?;
            Some(slots.by_ref().take(chunk).collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> Index {
        let mut i = Index::new(0);
        i.insert(&Value::text("m1"), RowSlot(0));
        i.insert(&Value::text("m2"), RowSlot(1));
        i.insert(&Value::text("m1"), RowSlot(2));
        i.insert(&Value::text("m3"), RowSlot(3));
        i.insert(&Value::Null, RowSlot(4)); // dropped
        i
    }

    #[test]
    fn eq_probe() {
        let i = idx();
        assert_eq!(i.len(), 4);
        assert_eq!(i.distinct_keys(), 3);
        let hits: Vec<_> = i.probe_eq(&Value::text("m1")).collect();
        assert_eq!(hits, vec![RowSlot(0), RowSlot(2)]);
        assert_eq!(i.probe_eq(&Value::text("zz")).count(), 0);
        assert_eq!(i.probe_eq(&Value::Null).count(), 0);
    }

    #[test]
    fn in_probe() {
        let i = idx();
        let keys = [Value::text("m2"), Value::text("m3"), Value::text("nope")];
        let hits: Vec<_> = i.probe_in(&keys).collect();
        assert_eq!(hits, vec![RowSlot(1), RowSlot(3)]);
    }

    #[test]
    fn range_probe() {
        let mut i = Index::new(0);
        for n in 0..10 {
            i.insert(&Value::Int(n), RowSlot(n as usize));
        }
        let lo = Value::Int(3);
        let hi = Value::Int(6);
        let hits: Vec<_> = i
            .probe_range(Bound::Included(&lo), Bound::Excluded(&hi))
            .collect();
        assert_eq!(hits, vec![RowSlot(3), RowSlot(4), RowSlot(5)]);
        let unbounded: Vec<_> = i
            .probe_range(Bound::Unbounded, Bound::Included(&Value::Int(1)))
            .collect();
        assert_eq!(unbounded, vec![RowSlot(0), RowSlot(1)]);
    }

    #[test]
    fn ordered_walk_matches_stable_sort() {
        let i = idx();
        let asc: Vec<_> = i.ordered_slots(false).collect();
        // m1's postings stay in insertion order within the key group.
        assert_eq!(asc, vec![RowSlot(0), RowSlot(2), RowSlot(1), RowSlot(3)]);
        let desc: Vec<_> = i.ordered_slots(true).collect();
        // Descending keys, but postings still forward — the stable
        // descending-sort tie order.
        assert_eq!(desc, vec![RowSlot(3), RowSlot(1), RowSlot(0), RowSlot(2)]);
    }

    #[test]
    fn remove_keeps_counts_and_posting_order_exact() {
        let mut i = idx();
        assert_eq!(i.longest_posting(), 2);
        assert!(i.remove(&Value::text("m1"), RowSlot(0)));
        assert_eq!((i.len(), i.distinct_keys()), (3, 3));
        assert_eq!(
            i.probe_eq(&Value::text("m1")).collect::<Vec<_>>(),
            vec![RowSlot(2)]
        );
        // Absent entries, wrong slots and NULL keys remove nothing.
        assert!(!i.remove(&Value::text("m1"), RowSlot(0)));
        assert!(!i.remove(&Value::text("m2"), RowSlot(3)));
        assert!(!i.remove(&Value::text("zz"), RowSlot(1)));
        assert!(!i.remove(&Value::Null, RowSlot(4)));
        assert_eq!(i.len(), 3);
        // The last posting of a key drops the key itself.
        assert!(i.remove(&Value::text("m2"), RowSlot(1)));
        assert_eq!((i.len(), i.distinct_keys()), (2, 2));
        assert_eq!(i.probe_eq(&Value::text("m2")).count(), 0);
        assert_eq!(
            i.ordered_slots(false).collect::<Vec<_>>(),
            vec![RowSlot(2), RowSlot(3)]
        );
        assert_eq!(i.longest_posting(), 1);
        // Middle removal keeps the rest in slot order.
        let mut j = Index::new(0);
        for n in 0..5 {
            j.insert(&Value::Int(1), RowSlot(n));
        }
        assert!(j.remove(&Value::Int(1), RowSlot(2)));
        assert_eq!(
            j.probe_eq(&Value::Int(1)).collect::<Vec<_>>(),
            vec![RowSlot(0), RowSlot(1), RowSlot(3), RowSlot(4)]
        );
    }

    #[test]
    fn range_probe_chunks() {
        let mut i = Index::new(0);
        for n in 0..10 {
            i.insert(&Value::Int(n), RowSlot(n as usize));
        }
        let chunks: Vec<_> = i
            .probe_range_chunks(Bound::Unbounded, Bound::Unbounded, 4)
            .collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], (0..4).map(RowSlot).collect::<Vec<_>>());
        assert_eq!(chunks[1], (4..8).map(RowSlot).collect::<Vec<_>>());
        assert_eq!(chunks[2], (8..10).map(RowSlot).collect::<Vec<_>>());
        // Chunk order concatenates back to the flat probe order.
        let flat: Vec<_> = i.probe_range(Bound::Unbounded, Bound::Unbounded).collect();
        assert_eq!(chunks.concat(), flat);
        // A zero chunk size is clamped rather than looping forever.
        assert_eq!(
            i.probe_range_chunks(Bound::Unbounded, Bound::Unbounded, 0)
                .count(),
            10
        );
        // Empty ranges produce no chunks.
        let lo = Value::Int(50);
        assert_eq!(
            i.probe_range_chunks(Bound::Included(&lo), Bound::Unbounded, 4)
                .count(),
            0
        );
    }
}
