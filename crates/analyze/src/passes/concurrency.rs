//! Concurrency certification: a whole-crate audit of the locking
//! discipline (`TRAC020`).
//!
//! The instrumented acquisition graph ([`trac_storage::lockorder`]) of
//! a representative workload must respect the declared partial order
//! `PlanCache < ReportTables < DbData < TxnStamped < MorselSlot <
//! ChangeLog`. The workload runs a parallel session, so the morsel
//! route's result-slot lock is in the graph.
//!
//! Parallelism is a run-time route of the executor, not an operator in
//! the plan, so there is no parallel plan to certify; the morsel
//! route's determinism is proven dynamically by the interleaving
//! explorer (`trac_exec::schedule`).
//!
//! Like every pass, the fine-grained check function takes the claimed
//! artifact as an argument so tests can seed one violation and assert
//! the exact diagnostic; [`audit_lock_order`] recomputes the claim from
//! the production code paths.

use crate::diag::{Diagnostic, LOCK_ORDER};
use trac_core::Session;
use trac_storage::lockorder::{self, LockId};
use trac_types::{Result, SourceId, Timestamp};
use trac_workload::load_paper_tables;

/// Flags every instrumented lock acquisition that inverts the declared
/// partial order (`TRAC020`).
pub fn check_lock_edges(edges: &[(LockId, LockId)]) -> Vec<Diagnostic> {
    edges
        .iter()
        .filter(|(held, acquired)| !lockorder::edge_is_legal(*held, *acquired))
        .map(|(held, acquired)| {
            Diagnostic::new(
                LOCK_ORDER,
                "storage/exec lock audit",
                format!(
                    "observed acquisition {} -> {} inverts the declared order; {} must always \
                     be taken before {}",
                    held.name(),
                    acquired.name(),
                    acquired.name(),
                    held.name()
                ),
            )
        })
        .collect()
}

/// Crate audit: records the lock-acquisition graph of a representative
/// storage/exec workload (parallel reports with plan-cache traffic,
/// heartbeat upserts, vacuum) and checks it against the declared order
/// (`TRAC020`).
pub fn audit_lock_order() -> Result<Vec<Diagnostic>> {
    lockorder::enable_tracking();
    let driven = drive_lock_workload();
    let edges = lockorder::take_edges();
    driven?;
    Ok(check_lock_edges(&edges))
}

/// A workload touching every declared lock: the plan cache (parallel
/// session reports, hit and miss), the pending report tables (a query
/// naming one materializes it), the data map and the stamped-slot list
/// (heartbeat upsert = delete + insert), the morsel result slots
/// (parallel execution), and vacuum.
fn drive_lock_workload() -> Result<()> {
    let paper = load_paper_tables()?;
    let mut session = Session::new(paper.db.clone());
    session.exec_options = trac_plan::ExecOptions::default().with_parallelism(2, 2);
    let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
    session.recency_report(sql)?;
    let out = session.recency_report(sql)?;
    session.query(&format!("SELECT sid FROM {}", out.normal_table()))?;
    let txn = paper.db.begin_write();
    txn.heartbeat(&SourceId::new("m1"), Timestamp(999_000_000))?;
    txn.commit();
    session.clear_plan_cache();
    paper.db.vacuum()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_checker_flags_inverted_edges() {
        let edges = [
            (LockId::PlanCache, LockId::DbData),
            (LockId::DbData, LockId::TxnStamped),
            (LockId::TxnStamped, LockId::DbData),
        ];
        let diags = check_lock_edges(&edges);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.id, "TRAC020");
        assert!(diags[0].message.contains("TxnStamped -> DbData"));
    }

    #[test]
    fn crate_audits_pass_on_the_stock_tree() {
        assert!(audit_lock_order().unwrap().is_empty());
    }
}
