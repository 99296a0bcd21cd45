//! Concurrency certification: determinism proofs for parallel plans and
//! a whole-crate audit of the locking discipline (`TRAC016`–`TRAC018`,
//! `TRAC020`).
//!
//! The morsel-driven executor claims its output is byte-identical to the
//! serial plan's. That claim rests on three structural invariants this
//! pass re-proves per plan, plus one crate-wide discipline it audits
//! dynamically:
//!
//! * **`TRAC016` Exchange placement** — an `Exchange` may sit only
//!   directly above a morsel-partitionable `Scan`/`IndexLookup` of the
//!   position-0 driving leaf, and the region between it and its closing
//!   `Gather` may contain only morsel-local operators (filters and
//!   joins). Order-sensitive operators (`Sort`, `Aggregate`,
//!   `Distinct`, `Limit`, `Project`) inside the region would interleave
//!   morsel boundaries into their semantics.
//! * **`TRAC017` Gather determinism** — every parallel region must be
//!   closed by a morsel-order-preserving `Gather` merge, and erasing
//!   the `Exchange`/`Gather` decoration must recover exactly the serial
//!   plan (so the parallel twin computes the same function, morsel by
//!   morsel).
//! * **`TRAC018` partition-key soundness** — a partitioned hash join
//!   inside the region builds on `inner_col` and probes on `outer_key`;
//!   the pair must lie in the join-key equivalence class certified by
//!   the dataflow facts (the same facts backing `TRAC011`).
//! * **`TRAC020` lock order** — the instrumented acquisition graph
//!   ([`trac_storage::lockorder`]) must respect the declared partial
//!   order `PlanCache < ReportTables < DbData < TxnStamped < MorselSlot <
//!   ChangeLog`.
//!
//! Like every pass, the fine-grained check functions take the claimed
//! artifact as an argument so tests can seed one violation and assert
//! the exact diagnostic; [`run`] and [`audit_lock_order`] recompute the
//! claims from the production code paths.

use crate::dataflow::{self, FactMap};
use crate::diag::{
    Diagnostic, EXCHANGE_PLACEMENT, GATHER_DETERMINISM, LOCK_ORDER, PARTITION_KEY_UNSOUND,
};
use trac_core::Session;
use trac_expr::{BoundSelect, ColRef};
use trac_plan::{PhysicalPlan, PlanNode};
use trac_storage::lockorder::{self, LockId};
use trac_types::{Result, SourceId, Timestamp};
use trac_workload::load_paper_tables;

/// Certifies the parallel twin of one query against its serial plan:
/// Exchange placement (`TRAC016`), Gather determinism including the
/// erasure proof (`TRAC017`), and partition-key soundness of every
/// hash join inside a parallel region (`TRAC018`).
pub fn run(
    q: &BoundSelect,
    serial: &PhysicalPlan,
    parallel: &PhysicalPlan,
    context: &str,
) -> Vec<Diagnostic> {
    let mut diags = check_plan(q, parallel, context);
    diags.extend(check_erasure(serial, parallel, context));
    diags
}

/// Structural walk of `parallel` alone: region legality (`TRAC016`),
/// merge-order preservation (`TRAC017` without the erasure proof) and
/// partition keys (`TRAC018`). Exposed separately so mutation tests can
/// corrupt a plan in place and assert the exact diagnostic.
pub fn check_plan(q: &BoundSelect, parallel: &PhysicalPlan, context: &str) -> Vec<Diagnostic> {
    let facts = dataflow::propagate(q, parallel);
    let mut diags = Vec::new();
    walk(&parallel.root, q, &facts, context, &mut diags);
    diags
}

/// The `TRAC017` erasure proof on its own: stripping every
/// `Exchange`/`Gather` from the parallel plan must recover the serial
/// plan exactly (compared on rendered EXPLAIN trees, which spell out
/// every operator argument).
pub fn check_erasure(
    serial: &PhysicalPlan,
    parallel: &PhysicalPlan,
    context: &str,
) -> Vec<Diagnostic> {
    let mut erased = parallel.clone();
    erased.root = erase_parallel(&parallel.root);
    if erased.render() == serial.render() {
        Vec::new()
    } else {
        vec![Diagnostic::new(
            GATHER_DETERMINISM,
            context,
            "erasing Exchange/Gather from the parallel plan does not recover the serial plan, \
             so the parallel twin computes a different function",
        )]
    }
}

/// Rebuilds `node` with every `Exchange`/`Gather` spliced out.
fn erase_parallel(node: &PlanNode) -> PlanNode {
    match node {
        PlanNode::Exchange { input, .. } | PlanNode::Gather { input, .. } => erase_parallel(input),
        other => {
            let mut copy = other.clone();
            for child in copy.children_mut() {
                let replacement = erase_parallel(child);
                *child = replacement;
            }
            copy
        }
    }
}

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
    session.query(&format!("SELECT sid FROM {}", out.normal_table))?;
    let txn = paper.db.begin_write();
    txn.heartbeat(&SourceId::new("m1"), Timestamp(999_000_000))?;
    txn.commit();
    session.clear_plan_cache();
    paper.db.vacuum()?;
    Ok(())
}

fn walk(
    node: &PlanNode,
    q: &BoundSelect,
    facts: &FactMap,
    context: &str,
    diags: &mut Vec<Diagnostic>,
) {
    match node {
        PlanNode::Gather {
            input,
            morsel_ordered,
        } => {
            if !morsel_ordered {
                diags.push(Diagnostic::new(
                    GATHER_DETERMINISM,
                    context,
                    "Gather merges worker batches in completion order, so parallel output is \
                     not provably byte-identical to the serial plan",
                ));
            }
            region(input, q, facts, context, diags);
        }
        PlanNode::Exchange { .. } => {
            diags.push(Diagnostic::new(
                EXCHANGE_PLACEMENT,
                context,
                "Exchange is not dominated by a Gather merge; its morsel batches would leak \
                 unmerged into order-sensitive consumers",
            ));
            for child in node.children() {
                walk(child, q, facts, context, diags);
            }
        }
        other => {
            for child in other.children() {
                walk(child, q, facts, context, diags);
            }
        }
    }
}

/// Descends the outer spine of a parallel region (between a `Gather`
/// and its `Exchange`), flagging order-sensitive operators and
/// unsound partition keys; join inner sides are walked as independent
/// serial subtrees.
fn region(
    mut cur: &PlanNode,
    q: &BoundSelect,
    facts: &FactMap,
    context: &str,
    diags: &mut Vec<Diagnostic>,
) {
    loop {
        match cur {
            PlanNode::Filter { input, .. } => cur = input,
            PlanNode::NLJoin { outer, inner, .. } => {
                walk(inner, q, facts, context, diags);
                cur = outer;
            }
            PlanNode::HashJoin {
                outer,
                inner,
                inner_col,
                outer_key,
                ..
            } => {
                check_partition_key(cur, inner, *inner_col, *outer_key, facts, context, diags);
                walk(inner, q, facts, context, diags);
                cur = outer;
            }
            PlanNode::IndexNLJoin { outer, .. } => cur = outer,
            PlanNode::Exchange { input, .. } => {
                match input.as_ref() {
                    PlanNode::Scan { pos, .. } | PlanNode::IndexLookup { pos, .. } => {
                        if *pos != 0 {
                            diags.push(Diagnostic::new(
                                EXCHANGE_PLACEMENT,
                                context,
                                format!(
                                    "Exchange drives the leaf at FROM position {pos}; morsels \
                                     must split the position-0 driving leaf"
                                ),
                            ));
                        }
                    }
                    other => diags.push(Diagnostic::new(
                        EXCHANGE_PLACEMENT,
                        context,
                        format!(
                            "Exchange sits above {}, not a morsel-partitionable \
                             Scan/IndexLookup leaf",
                            other.name()
                        ),
                    )),
                }
                return;
            }
            other => {
                diags.push(Diagnostic::new(
                    EXCHANGE_PLACEMENT,
                    context,
                    format!(
                        "order-sensitive operator {} inside the parallel region (between \
                         Gather and its Exchange); morsel boundaries would leak into its \
                         semantics",
                        other.name()
                    ),
                ));
                for child in other.children() {
                    walk(child, q, facts, context, diags);
                }
                return;
            }
        }
    }
}

/// `TRAC018`: the build column and the probe key of a partitioned hash
/// join must lie in a certified join-key equivalence class, otherwise
/// co-partitioning of build and probe is unproven.
fn check_partition_key(
    join: &PlanNode,
    inner: &PlanNode,
    inner_col: usize,
    outer_key: ColRef,
    facts: &FactMap,
    context: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let inner_pos = match inner {
        PlanNode::Scan { pos, .. } | PlanNode::IndexLookup { pos, .. } => *pos,
        other => {
            diags.push(Diagnostic::new(
                PARTITION_KEY_UNSOUND,
                context,
                format!(
                    "hash-join build side is {}, not a leaf; its partition key cannot be \
                     certified",
                    other.name()
                ),
            ));
            return;
        }
    };
    let inner_ref = ColRef {
        table: inner_pos,
        column: inner_col,
    };
    let sound = facts.get(join).is_some_and(|f| {
        f.justifies_key(inner_ref, outer_key)
            || f.justifies_key(outer_key, inner_ref)
            || f.equiv
                .iter()
                .any(|cls| cls.contains(&inner_ref) && cls.contains(&outer_key))
    });
    if !sound {
        diags.push(Diagnostic::new(
            PARTITION_KEY_UNSOUND,
            context,
            format!(
                "partitioned hash join builds on t{inner_pos}.c{inner_col} but probes on \
                 t{}.c{}; the pair is outside every certified join-key equivalence class",
                outer_key.table, outer_key.column
            ),
        ));
    }
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
