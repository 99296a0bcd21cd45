//! Transactions, statuses and snapshots.
//!
//! A simplified PostgreSQL-style MVCC model. Transaction ids are allocated
//! sequentially; a [`Snapshot`] is `(xmax, in-flight set, aborted set)`:
//! the id horizon, the transactions in flight at snapshot time, and the
//! transactions aborted by then. A row version created by `x` is visible
//! to a snapshot iff `x` committed before the snapshot was taken, and its
//! deleting transaction (if any) did not.
//!
//! The manager keeps both sets up to date as transactions begin and
//! finish, and shares them copy-on-write: taking a snapshot is two `Arc`
//! clones, O(1) however many transactions the database has seen, and a
//! later begin or finish copies the set it edits instead of changing the
//! one a snapshot holds. Visibility checks read only the snapshot.
//!
//! The manager also keeps a registry of live snapshots and derives one
//! **xmin horizon** from it ([`TxnManager::xmin_horizon`]): the smallest
//! id any registered snapshot still treats as undecided. A committed id
//! below the horizon is visible to every live and every future snapshot,
//! so a version it superseded can never be read again. The write path
//! reclaims such versions incrementally, and vacuum uses the same test.
//!
//! This is what gives the TRAC session its first guiding requirement
//! (Section 3.2): the user query and the generated recency query run
//! against the *same* [`Snapshot`], so the reported recency information is
//! transactionally consistent with the query result.

use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// A transaction identifier. Ids are allocated densely from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Started, not yet finished.
    InProgress,
    /// Committed; its effects are durable.
    Committed,
    /// Aborted; its effects must never be observed.
    Aborted,
}

/// Allocates transaction ids and tracks their status, plus the registry
/// of outstanding snapshots (from which the xmin horizon is derived).
#[derive(Debug, Default)]
pub struct TxnManager {
    inner: RwLock<TxnTable>,
    /// Registered snapshots by serial, each with its own xmin: the
    /// smallest id it does not see as decided, `min(in_flight ∪ {xmax})`.
    /// Lock order: `snapshots` before `inner`, so a snapshot reads the
    /// transaction table and registers in one step that no horizon
    /// computation can fall between.
    snapshots: RwLock<HashMap<u64, TxnId>>,
    next_snapshot_serial: AtomicU64,
}

#[derive(Debug, Default)]
struct TxnTable {
    /// Highest id issued so far (0 before the first `begin`).
    last: u64,
    /// Issued ids not yet finished.
    active: Arc<HashSet<TxnId>>,
    /// Ids that aborted. Every other issued id outside `active` committed.
    aborted: Arc<HashSet<TxnId>>,
}

impl TxnManager {
    /// Creates an empty manager.
    pub fn new() -> Arc<TxnManager> {
        Arc::new(TxnManager::default())
    }

    /// Starts a transaction, returning its fresh id.
    pub fn begin(&self) -> TxnId {
        let mut t = self.inner.write();
        t.last += 1;
        let id = TxnId(t.last);
        Arc::make_mut(&mut t.active).insert(id);
        id
    }

    /// Marks `id` committed.
    pub fn commit(&self, id: TxnId) {
        self.finish(id, false);
    }

    /// Marks `id` aborted.
    pub fn abort(&self, id: TxnId) {
        self.finish(id, true);
    }

    fn finish(&self, id: TxnId, aborted: bool) {
        let mut t = self.inner.write();
        let was_active = Arc::make_mut(&mut t.active).remove(&id);
        debug_assert!(was_active, "double finish of {id}");
        if aborted && was_active {
            Arc::make_mut(&mut t.aborted).insert(id);
        }
    }

    /// Current status of `id`. Ids never issued are `InProgress`.
    pub fn status(&self, id: TxnId) -> TxnStatus {
        let t = self.inner.read();
        if id.0 > t.last || t.active.contains(&id) {
            TxnStatus::InProgress
        } else if t.aborted.contains(&id) {
            TxnStatus::Aborted
        } else {
            TxnStatus::Committed
        }
    }

    /// Takes a snapshot of the current commit state. The snapshot is
    /// registered until dropped, which holds back the xmin horizon.
    pub fn snapshot(self: &Arc<TxnManager>) -> Snapshot {
        let serial = self
            .next_snapshot_serial
            .fetch_add(1, AtomicOrdering::Relaxed);
        let mut registry = self.snapshots.write();
        let t = self.inner.read();
        let xmax = TxnId(t.last + 1);
        let in_flight = Arc::clone(&t.active);
        let aborted = Arc::clone(&t.aborted);
        drop(t);
        let xmin = in_flight.iter().copied().fold(xmax, TxnId::min);
        registry.insert(serial, xmin);
        drop(registry);
        Snapshot {
            xmax,
            xmin,
            in_flight,
            aborted,
            serial,
            mgr: Arc::clone(self),
        }
    }

    /// The xmin horizon: the minimum, over registered snapshots, of
    /// `min(in_flight ∪ {xmax})`, or the next id to issue when none is
    /// registered. Every id below it was decided before each registered
    /// snapshot was taken, so a committed id below it is visible to
    /// every live snapshot and, being decided, to every future one.
    ///
    /// The horizon can move down only when a new snapshot sees in
    /// flight a transaction that was in flight at an earlier call with
    /// no snapshot registered; any id committed by that call is
    /// committed for the new snapshot too, so what the call allowed
    /// stays allowed.
    pub fn xmin_horizon(&self) -> TxnId {
        let registry = self.snapshots.read();
        let next = TxnId(self.inner.read().last + 1);
        registry.values().copied().fold(next, TxnId::min)
    }

    /// True when `id`'s effects are visible to **every** outstanding
    /// and future snapshot: `id` committed and lies below the
    /// [xmin horizon](Self::xmin_horizon). A version deleted by such a
    /// transaction can never be read again.
    pub fn committed_before_all_snapshots(&self, id: TxnId) -> bool {
        // Status first: an id committed by now is committed for every
        // snapshot registered later, and the horizon then covers every
        // snapshot registered earlier that is still alive.
        self.status(id) == TxnStatus::Committed && id < self.xmin_horizon()
    }

    /// Number of currently outstanding snapshots.
    pub fn active_snapshots(&self) -> usize {
        self.snapshots.read().len()
    }

    /// True when any transaction is still in progress.
    pub fn any_in_progress(&self) -> bool {
        !self.inner.read().active.is_empty()
    }

    fn unregister_snapshot(&self, serial: u64) {
        self.snapshots.write().remove(&serial);
    }
}

/// The recency footprint of a snapshot, detached from the snapshot
/// registry: enough to answer [`Snapshot::covers_basis`] but holding
/// back no reclamation. Cheap to clone (the in-flight set is
/// shared).
#[derive(Debug, Clone)]
pub struct SnapshotBasis {
    xmax: TxnId,
    in_flight: Arc<HashSet<TxnId>>,
}

/// A point-in-time view of which transactions' effects are visible.
///
/// Cloning re-registers: every live clone holds back the xmin horizon.
pub struct Snapshot {
    /// First transaction id *not* visible (ids `>= xmax` started after the
    /// snapshot).
    xmax: TxnId,
    /// Smallest id this snapshot does not see as decided:
    /// `min(in_flight ∪ {xmax})`. Its contribution to the horizon.
    xmin: TxnId,
    /// Transactions in flight when the snapshot was taken.
    in_flight: Arc<HashSet<TxnId>>,
    /// Transactions aborted when the snapshot was taken.
    aborted: Arc<HashSet<TxnId>>,
    /// Registry key; removed on drop.
    serial: u64,
    mgr: Arc<TxnManager>,
}

impl Clone for Snapshot {
    fn clone(&self) -> Snapshot {
        let serial = self
            .mgr
            .next_snapshot_serial
            .fetch_add(1, AtomicOrdering::Relaxed);
        self.mgr.snapshots.write().insert(serial, self.xmin);
        Snapshot {
            xmax: self.xmax,
            xmin: self.xmin,
            in_flight: Arc::clone(&self.in_flight),
            aborted: Arc::clone(&self.aborted),
            serial,
            mgr: Arc::clone(&self.mgr),
        }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.mgr.unregister_snapshot(self.serial);
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("xmax", &self.xmax)
            .field("in_flight", &self.in_flight)
            .field("aborted", &self.aborted)
            .finish()
    }
}

impl Snapshot {
    /// True iff transaction `id` was committed when this snapshot was
    /// taken (the definition of "its effects are visible here").
    ///
    /// `id == self_id` (the snapshot owner's own writes) is handled by the
    /// caller, see [`Snapshot::sees_version`].
    ///
    /// Exact without consulting the manager: every id below `xmax` and
    /// outside `in_flight` was decided when the snapshot was taken, and
    /// decisions are final; an id that aborts later was either in
    /// `in_flight` or at or above `xmax`.
    pub fn committed_before(&self, id: TxnId) -> bool {
        id < self.xmax && !self.in_flight.contains(&id) && !self.aborted.contains(&id)
    }

    /// True iff every transaction id up to and including `id` was
    /// decided (committed or aborted) when this snapshot was taken: `id`
    /// began before it and every transaction then in flight began after
    /// `id`. Then each such id is either [`Self::committed_before`] or
    /// [`Self::aborted_before`].
    pub fn decides_all_up_to(&self, id: TxnId) -> bool {
        id < self.xmax && self.in_flight.iter().all(|t| *t > id)
    }

    /// True iff transaction `id` had aborted when this snapshot was
    /// taken. Reads only the snapshot; an id that aborts later reads
    /// `false` here.
    pub fn aborted_before(&self, id: TxnId) -> bool {
        self.aborted.contains(&id)
    }

    /// Extracts the comparison data [`Snapshot::covers_basis`] needs,
    /// without keeping the snapshot itself alive (a registered
    /// [`Snapshot`] holds back the xmin horizon; a basis does not).
    pub fn coverage_basis(&self) -> SnapshotBasis {
        SnapshotBasis {
            xmax: self.xmax,
            in_flight: Arc::clone(&self.in_flight),
        }
    }

    /// True when every transaction that was visible to the snapshot
    /// `basis` was taken from is also visible here — i.e. this snapshot
    /// is at least as recent. Used by delta-maintained report state:
    /// state folded under one snapshot may only serve a snapshot that
    /// covers it, otherwise the server falls back to a rescan.
    ///
    /// The check is conservative: a transaction this snapshot saw in
    /// flight that has committed *since* is treated as possibly visible
    /// to the basis (we cannot reconstruct when it committed), so an
    /// occasional false `false` forces a harmless rescan; `true` is
    /// always sound.
    pub fn covers_basis(&self, basis: &SnapshotBasis) -> bool {
        if self.xmax < basis.xmax {
            // Transactions in [self.xmax, basis.xmax) may be visible to
            // the basis but started after this snapshot.
            return false;
        }
        self.in_flight.iter().all(|t| {
            // A txn we can't see is fine unless the basis could see it:
            // it must have started after the basis, been in flight there
            // too, or still be uncommitted.
            *t >= basis.xmax
                || basis.in_flight.contains(t)
                || self.mgr.status(*t) != TxnStatus::Committed
        })
    }

    /// Visibility of a row version `(xmin, xmax)` to this snapshot, where
    /// `own` is the id of the transaction reading through this snapshot
    /// (its own uncommitted writes are visible to itself).
    pub fn sees_version(&self, own: Option<TxnId>, xmin: TxnId, xmax: Option<TxnId>) -> bool {
        let created = own == Some(xmin) || self.committed_before(xmin);
        if !created {
            return false;
        }
        match xmax {
            None => true,
            Some(x) => !(own == Some(x) || self.committed_before(x)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential() {
        let m = TxnManager::new();
        assert_eq!(m.begin(), TxnId(1));
        assert_eq!(m.begin(), TxnId(2));
        assert_eq!(m.status(TxnId(1)), TxnStatus::InProgress);
        m.commit(TxnId(1));
        m.abort(TxnId(2));
        assert_eq!(m.status(TxnId(1)), TxnStatus::Committed);
        assert_eq!(m.status(TxnId(2)), TxnStatus::Aborted);
    }

    #[test]
    fn snapshot_excludes_later_and_in_flight_txns() {
        let m = TxnManager::new();
        let t1 = m.begin();
        m.commit(t1);
        let t2 = m.begin(); // in flight at snapshot time
        let snap = m.snapshot();
        let t3 = m.begin(); // starts after snapshot
        m.commit(t2);
        m.commit(t3);
        assert!(snap.committed_before(t1));
        assert!(!snap.committed_before(t2), "committed after snapshot");
        assert!(!snap.committed_before(t3), "started after snapshot");
    }

    #[test]
    fn aborted_txns_are_never_visible() {
        let m = TxnManager::new();
        let t1 = m.begin();
        m.abort(t1);
        let t2 = m.begin();
        let snap = m.snapshot();
        m.abort(t2);
        assert!(!snap.committed_before(t1));
        assert!(snap.aborted_before(t1));
        assert!(!snap.aborted_before(t2), "aborted after the snapshot");
    }

    #[test]
    fn version_visibility() {
        let m = TxnManager::new();
        let t1 = m.begin();
        m.commit(t1);
        let t2 = m.begin();
        let snap = m.snapshot();
        // Row created by committed t1, not deleted: visible.
        assert!(snap.sees_version(None, t1, None));
        // Deleted by in-flight t2: still visible to the snapshot...
        assert!(snap.sees_version(None, t1, Some(t2)));
        // ...but not to t2 itself.
        assert!(!snap.sees_version(Some(t2), t1, Some(t2)));
        // Row created by t2: visible only to t2.
        assert!(!snap.sees_version(None, t2, None));
        assert!(snap.sees_version(Some(t2), t2, None));
    }

    #[test]
    fn snapshot_is_stable_across_later_commits() {
        let m = TxnManager::new();
        let t1 = m.begin();
        let snap = m.snapshot();
        m.commit(t1);
        // t1 was in flight at snapshot time; committing later must not
        // change what the snapshot sees.
        assert!(!snap.committed_before(t1));
        let fresh = m.snapshot();
        assert!(fresh.committed_before(t1));
    }

    /// Seeded xorshift64: reproducible randomness without a dependency.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// 20 000 random begin / commit / abort / snapshot / drop operations
    /// against a reference status vector. Each live snapshot keeps a copy
    /// of the vector from the moment it was taken, so a finish that edits
    /// a set some snapshot shares shows up as a wrong `committed_before`.
    /// The operations run as 20 rounds on fresh managers because every
    /// step checks every id, and a debug build cannot afford that
    /// quadratic sweep over one 20 000-step history.
    #[test]
    fn model_matches_reference_status_vector() {
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        for round in 0..20 {
            model_round(round, &mut rng);
        }
    }

    fn model_round(round: u32, rng: &mut u64) {
        const LIVE_CAP: usize = 4;
        let m = TxnManager::new();
        // `reference[i]` is the status of `TxnId(i + 1)`.
        let mut reference: Vec<TxnStatus> = Vec::new();
        let mut open: Vec<TxnId> = Vec::new();
        let mut live: Vec<(Snapshot, Vec<TxnStatus>)> = Vec::new();
        for step in 0..1_000 {
            let step = (round, step);
            let r = xorshift(rng);
            let pick = (r >> 8) as usize;
            match r % 16 {
                0..=2 => {
                    reference.push(TxnStatus::InProgress);
                    let id = m.begin();
                    assert_eq!(id, TxnId(reference.len() as u64));
                    open.push(id);
                }
                op @ 3..=5 if !open.is_empty() => {
                    let id = open.swap_remove(pick % open.len());
                    let st = if op == 5 {
                        m.abort(id);
                        TxnStatus::Aborted
                    } else {
                        m.commit(id);
                        TxnStatus::Committed
                    };
                    reference[(id.0 - 1) as usize] = st;
                }
                6..=10 => {
                    if live.len() == LIVE_CAP {
                        live.swap_remove(pick % LIVE_CAP);
                    }
                    live.push((m.snapshot(), reference.clone()));
                }
                11..=15 if !live.is_empty() => {
                    live.swap_remove(pick % live.len());
                }
                _ => {}
            }
            let horizon = reference.len() as u64 + 1;
            for (snap, seen) in &live {
                for id in 1..=horizon {
                    let want = seen.get((id - 1) as usize) == Some(&TxnStatus::Committed);
                    assert_eq!(
                        snap.committed_before(TxnId(id)),
                        want,
                        "{step:?}: txn#{id} under snapshot {snap:?}"
                    );
                }
            }
            for id in 1..=horizon {
                let want = reference
                    .get((id - 1) as usize)
                    .copied()
                    .unwrap_or(TxnStatus::InProgress);
                assert_eq!(m.status(TxnId(id)), want, "{step:?}: txn#{id}");
            }
            assert_eq!(
                m.any_in_progress(),
                reference.contains(&TxnStatus::InProgress),
                "{step:?}"
            );
            assert_eq!(m.active_snapshots(), live.len(), "{step:?}");
            // The horizon: each live snapshot's first undecided id, or
            // the next id to issue.
            let xmin = |seen: &[TxnStatus]| {
                seen.iter()
                    .position(|s| *s == TxnStatus::InProgress)
                    .map_or(seen.len() as u64 + 1, |i| i as u64 + 1)
            };
            let want = live
                .iter()
                .map(|(_, seen)| xmin(seen))
                .fold(horizon, u64::min);
            assert_eq!(m.xmin_horizon(), TxnId(want), "{step:?}");
            for id in 1..horizon {
                let committed = reference[(id - 1) as usize] == TxnStatus::Committed;
                assert_eq!(
                    m.committed_before_all_snapshots(TxnId(id)),
                    committed && id < want,
                    "{step:?}: txn#{id}"
                );
            }
        }
    }

    /// Snapshot cost does not depend on history: after 100 000 finished
    /// transactions, two snapshots share one in-flight and one aborted
    /// set, and later transactions copy rather than edit them.
    #[test]
    fn snapshots_share_sets_regardless_of_history() {
        let m = TxnManager::new();
        let aborted = m.begin();
        m.abort(aborted);
        let open = m.begin();
        for _ in 0..100_000 {
            let id = m.begin();
            m.commit(id);
        }
        let a = m.snapshot();
        let b = m.snapshot();
        assert!(Arc::ptr_eq(&a.in_flight, &b.in_flight));
        assert!(Arc::ptr_eq(&a.aborted, &b.aborted));
        let in_flight: HashSet<TxnId> = [open].into();
        let aborted_set: HashSet<TxnId> = [aborted].into();
        let late = m.begin();
        m.abort(late);
        for s in [&a, &b] {
            assert_eq!(*s.in_flight, in_flight);
            assert_eq!(*s.aborted, aborted_set);
        }
        assert_eq!(m.status(late), TxnStatus::Aborted);
        m.commit(open);
        assert!(!a.committed_before(open));
    }
}
