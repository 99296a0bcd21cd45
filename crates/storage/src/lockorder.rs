//! Declared lock-acquisition order and an instrumented acquisition graph.
//!
//! The storage and execution layers take a small, fixed set of locks.
//! Deadlock freedom rests on all code paths acquiring them consistently
//! with one declared partial order:
//!
//! | rank | lock          | guards                                         |
//! |------|---------------|------------------------------------------------|
//! | 0    | `PlanCache`   | the session's prepared-plan cache              |
//! | 1    | `ReportTables`| the session's pending report tables            |
//! | 2    | `DbData`      | the database's table/catalog `RwLock`          |
//! | 3    | `TxnStamped`  | a write transaction's stamped-version list     |
//! | 4    | `MorselSlot`  | a parallel worker's per-morsel result slot     |
//! | 5    | `ChangeLog`   | the typed change-stream ring                   |
//!
//! An acquisition of lock `b` while holding lock `a` is legal iff
//! `rank(a) < rank(b)`. The order is *checked*, not assumed: when
//! tracking is enabled, [`acquire`] records every (held, acquired) pair
//! into a process-wide edge set, and the `trac-analyze` concurrency
//! pass (diagnostic `TRAC020`) verifies every observed edge against the
//! declared order after driving representative workloads.
//!
//! Instrumented sites are the *nesting-relevant* ones: guard
//! acquisitions that can be held across another acquisition (write
//! paths, the stamped list, plan-cache and report-table access, morsel
//! slots).
//! Straight-line read probes that take and release `DbData` inside one
//! expression are left uninstrumented — the recorded graph is an
//! under-approximation of all acquisitions but covers every site that
//! can participate in a cycle today.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The locks participating in the declared order. Variant order IS the
/// declared acquisition order (derive `Ord` supplies the ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockId {
    /// Session prepared-plan cache (`trac-core`).
    PlanCache,
    /// Session map of report tables not yet materialized (`trac-core`).
    /// Held across a materialization, which creates and fills a temp
    /// table, so it ranks above every storage lock.
    ReportTables,
    /// Database table/catalog data lock.
    DbData,
    /// Write transaction's stamped-version list.
    TxnStamped,
    /// Parallel worker per-morsel result slot (`trac-exec`).
    MorselSlot,
    /// The typed change-stream ring ([`crate::changelog::ChangeLog`]).
    /// Ranked last: publication runs with no storage lock held, and
    /// consumers drain holding at most the plan cache, so every edge
    /// into it is downhill.
    ChangeLog,
}

impl LockId {
    /// Position in the declared acquisition order (0 acquired first).
    pub fn rank(self) -> usize {
        self as usize
    }

    /// Stable display name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            LockId::PlanCache => "PlanCache",
            LockId::ReportTables => "ReportTables",
            LockId::DbData => "DbData",
            LockId::TxnStamped => "TxnStamped",
            LockId::MorselSlot => "MorselSlot",
            LockId::ChangeLog => "ChangeLog",
        }
    }
}

/// True when an acquisition of `acquired` while holding `held` is
/// consistent with the declared order.
pub fn edge_is_legal(held: LockId, acquired: LockId) -> bool {
    held.rank() < acquired.rank()
}

static TRACKING: AtomicBool = AtomicBool::new(false);
static EDGES: Mutex<BTreeSet<(LockId, LockId)>> = Mutex::new(BTreeSet::new());

/// The edge set survives panics in instrumented code (a poisoned mutex
/// only means a recorder died mid-insert; the set itself stays usable).
fn edges() -> std::sync::MutexGuard<'static, BTreeSet<(LockId, LockId)>> {
    EDGES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static HELD: RefCell<Vec<LockId>> = const { RefCell::new(Vec::new()) };
}

/// Starts recording the acquisition graph (clearing any prior edges).
pub fn enable_tracking() {
    edges().clear();
    TRACKING.store(true, Ordering::SeqCst);
}

/// Stops recording and drains the observed (held, acquired) edge set.
pub fn take_edges() -> Vec<(LockId, LockId)> {
    TRACKING.store(false, Ordering::SeqCst);
    std::mem::take(&mut *edges()).into_iter().collect()
}

/// Declares an acquisition of `id` on this thread. Create the token
/// immediately before taking the guard and keep it in scope at least as
/// long as the guard; dropping it declares the release. When tracking
/// is off (the default) this is two atomic loads and otherwise free.
pub fn acquire(id: LockId) -> LockToken {
    if !TRACKING.load(Ordering::Relaxed) {
        return LockToken {
            id,
            recorded: false,
        };
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if !held.is_empty() {
            let mut edges = edges();
            for &h in held.iter() {
                edges.insert((h, id));
            }
        }
        held.push(id);
    });
    LockToken { id, recorded: true }
}

/// RAII handle pairing one recorded acquisition with its release.
#[derive(Debug)]
pub struct LockToken {
    id: LockId,
    recorded: bool,
}

impl Drop for LockToken {
    fn drop(&mut self) {
        if !self.recorded {
            return;
        }
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&h| h == self.id) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_follow_variant_order() {
        assert!(LockId::PlanCache.rank() < LockId::ReportTables.rank());
        assert!(LockId::ReportTables.rank() < LockId::DbData.rank());
        assert!(LockId::DbData.rank() < LockId::TxnStamped.rank());
        assert!(LockId::TxnStamped.rank() < LockId::MorselSlot.rank());
        assert!(LockId::MorselSlot.rank() < LockId::ChangeLog.rank());
        assert!(edge_is_legal(LockId::DbData, LockId::TxnStamped));
        assert!(!edge_is_legal(LockId::TxnStamped, LockId::DbData));
        assert!(!edge_is_legal(LockId::DbData, LockId::DbData));
    }

    #[test]
    fn tracking_records_nested_acquisitions_only() {
        enable_tracking();
        {
            let _a = acquire(LockId::DbData);
            let _b = acquire(LockId::TxnStamped);
        }
        {
            // Non-nested acquisition adds no edge.
            let _c = acquire(LockId::PlanCache);
        }
        let edges = take_edges();
        assert!(edges.contains(&(LockId::DbData, LockId::TxnStamped)));
        assert!(edges.iter().all(|&(a, _)| a != LockId::PlanCache));
        // Tokens popped their held entries: a fresh session is clean.
        enable_tracking();
        let _d = acquire(LockId::MorselSlot);
        drop(_d);
        assert!(take_edges().is_empty());
    }
}
