//! Morsel-driven parallel execution: the executor's route for a
//! plan's relational root when [`ExecOptions::threads`] > 1. The plan
//! carries no parallel operators, and the route no operators of its
//! own: each morsel runs through the serial source tree
//! ([`build_source`]).
//!
//! [`morsel_route`] accepts a chain of `Filter`, `NLJoin`, `HashJoin`
//! and `IndexNLJoin` over a `Scan` or `IndexLookup` at FROM position 0
//! whose joins add positions 1, 2, … in order; every other root (a
//! cost-reordered join, a fast-path leaf, an empty plan) runs serially.
//! On an accepted root, [`execute_morsels`] splits the driving leaf
//! into morsels (slot ranges of a `Scan`, posting-list chunks of an
//! `IndexLookup`) whose flat concatenation is the serial leaf order. It
//! prebuilds each join's inner side once ([`Prebuilt`]), a `HashJoin`'s
//! through the serial join's own constructor, certified `i64` key table
//! included. Scoped workers claim morsels from an atomic counter and
//! run each one's tree, its leaf seeded with the morsel's rows and its
//! joins borrowing the prebuilt sides. The per-morsel tuples merge in
//! morsel index order, so parallel output is byte-identical to serial.
//!
//! One deliberate divergence from the serial route: its joins fetch
//! their inner side lazily on the first non-empty outer batch, while
//! the morsel route prebuilds inner sides whenever the driving leaf has
//! at least one morsel (an empty leaf still skips them).

use crate::batch::{build_source, BatchSource, MorselInput, Prebuilt};
use crate::operators::{leaf_pos, Tuple};
use crate::schedule;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use trac_expr::KernelCert;
use trac_plan::{ExecOptions, PlanNode};
use trac_storage::lockorder::{self, LockId};
use trac_storage::{ReadTxn, RowSlot};
use trac_types::{Result, TracError};

/// A relational root the morsel route drives, and its driving leaf.
pub(crate) struct MorselRoute<'a> {
    root: &'a PlanNode,
    leaf: &'a PlanNode,
}

/// One unit of leaf work handed to a worker.
enum Morsel {
    /// A physical version-slot range of a `Scan` leaf.
    SlotRange { lo: usize, hi: usize },
    /// One chunk of an `IndexLookup` posting list.
    IndexChunk(Vec<RowSlot>),
}

/// Matches a relational root against the shape the morsel route
/// drives, or returns `None` when the root must run serially. The
/// joins must add FROM positions 1, 2, … in order: the route assumes
/// the FROM-order driving leaf, so a cost-reordered plan stays serial.
pub(crate) fn morsel_route(root: &PlanNode) -> Option<MorselRoute<'_>> {
    // The FROM positions the joins add, top-down.
    let mut joined = Vec::new();
    let mut cur = root;
    let leaf = loop {
        cur = match cur {
            PlanNode::Filter { input, .. } => input,
            PlanNode::NLJoin { outer, inner, .. } | PlanNode::HashJoin { outer, inner, .. } => {
                joined.push(leaf_pos(inner).ok()?);
                outer
            }
            PlanNode::IndexNLJoin { outer, pos, .. } => {
                joined.push(*pos);
                outer
            }
            PlanNode::Scan { pos: 0, .. } | PlanNode::IndexLookup { pos: 0, .. } => break cur,
            _ => return None,
        };
    };
    let from_order = joined.iter().rev().copied().eq(1..=joined.len());
    from_order.then_some(MorselRoute { root, leaf })
}

/// Runs a relational root on the morsel route and returns the merged
/// tuples: in morsel index order when `ordered`, the only value the
/// executor passes. `false` merges in slot deposit order, the
/// completion-order bug the interleaving explorer must catch.
pub(crate) fn execute_morsels(
    txn: &ReadTxn,
    route: &MorselRoute<'_>,
    opts: ExecOptions,
    cert: &KernelCert,
    ordered: bool,
) -> Result<Vec<Tuple>> {
    let batch_size = opts.batch_size.max(1);
    let morsels = morselize(txn, route.leaf, batch_size)?;
    if morsels.is_empty() {
        // An empty driving leaf produces nothing and — like the lazy
        // serial joins — never touches inner join sides.
        return Ok(Vec::new());
    }

    let prebuilt = Prebuilt::build(txn, route.root, cert)?;

    // Worker pool: morsel indexes are claimed from a shared counter and
    // results parked per-index so the merge can run in morsel order.
    // The two `yield_point`s bracket the morsel handoff — claim and
    // deposit — and no-op outside an interleaving exploration.
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<Vec<Tuple>>>>> =
        (0..morsels.len()).map(|_| Mutex::new(None)).collect();
    // Order in which slots were deposited — the (unsound)
    // completion-order merge reads this instead of the index order.
    let deposits: Mutex<Vec<usize>> = Mutex::new(Vec::with_capacity(morsels.len()));
    let workers = opts.threads.max(1).min(morsels.len());
    let work = || loop {
        if abort.load(Ordering::Relaxed) {
            return;
        }
        schedule::yield_point(schedule::Site::MorselClaim);
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(morsel) = morsels.get(i) else {
            return;
        };
        let out = morsel_tree(txn, route, morsel, &prebuilt, cert, batch_size)
            .and_then(|mut tree| tree.drain());
        if out.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        schedule::yield_point(schedule::Site::MorselPark);
        let _slot_order = lockorder::acquire(LockId::MorselSlot);
        *slots[i].lock() = Some(out);
        deposits.lock().push(i);
    };
    match schedule::active() {
        // Under an active exploration, workers join the schedule: the
        // coordinator announces them first (so no scheduling decision
        // fires before all have registered) and releases its token
        // while blocked in the scope join.
        Some(ctl) => {
            let base = ctl.expect_workers(workers);
            std::thread::scope(|s| {
                for w in 0..workers {
                    let ctl = Arc::clone(&ctl);
                    let work = &work;
                    s.spawn(move || schedule::participate(&ctl, base + w, work));
                }
                ctl.suspend();
            });
            ctl.resume();
        }
        None => std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(work);
            }
        }),
    }

    // Merge: the lowest-index error (if any) wins, then concatenate
    // per-morsel batches — in morsel index order when `ordered`, in
    // deposit order otherwise.
    let mut results: Vec<Option<Result<Vec<Tuple>>>> =
        slots.into_iter().map(Mutex::into_inner).collect();
    if let Some(err_at) = results.iter().position(|r| matches!(r, Some(Err(_)))) {
        let Some(Err(e)) = results.swap_remove(err_at) else {
            unreachable!("position() found an Err slot");
        };
        return Err(e);
    }
    let merge_order: Vec<usize> = if ordered {
        (0..results.len()).collect()
    } else {
        deposits.into_inner()
    };
    let aborted =
        || TracError::Execution("parallel worker aborted without reporting an error".into());
    if merge_order.len() != results.len() {
        return Err(aborted());
    }
    let mut tuples = Vec::new();
    for i in merge_order {
        match results[i].take() {
            Some(Ok(mut batch)) => tuples.append(&mut batch),
            Some(Err(_)) => unreachable!("errors are returned above"),
            None => return Err(aborted()),
        }
    }
    Ok(tuples)
}

/// Splits the driving leaf into morsels whose concatenation reproduces
/// the serial leaf row order.
fn morselize(txn: &ReadTxn, leaf: &PlanNode, batch: usize) -> Result<Vec<Morsel>> {
    match leaf {
        PlanNode::Scan { table, .. } => {
            let total = txn.version_slot_count(table.id)?;
            Ok((0..total)
                .step_by(batch)
                .map(|lo| Morsel::SlotRange {
                    lo,
                    hi: (lo + batch).min(total),
                })
                .collect())
        }
        PlanNode::IndexLookup {
            table,
            column,
            keys,
            ..
        } => {
            let chunks = txn
                .index_probe_in_chunks(table.id, *column, keys, batch)?
                .ok_or_else(|| TracError::Execution("index vanished mid-plan".into()))?;
            Ok(chunks.into_iter().map(Morsel::IndexChunk).collect())
        }
        other => Err(TracError::Execution(format!(
            "operator {} cannot drive the morsel route",
            other.name()
        ))),
    }
}

/// Builds one morsel's source tree: the serial tree of the route's root,
/// its leaf seeded with the morsel's rows, its joins borrowing `prebuilt`.
fn morsel_tree<'a>(
    txn: &'a ReadTxn,
    route: &MorselRoute<'a>,
    morsel: &Morsel,
    prebuilt: &'a Prebuilt,
    cert: &'a KernelCert,
    batch_size: usize,
) -> Result<Box<dyn BatchSource + 'a>> {
    let (PlanNode::Scan { table, filter, .. } | PlanNode::IndexLookup { table, filter, .. }) =
        route.leaf
    else {
        return Err(TracError::Execution("not a morsel leaf".into()));
    };
    let rows = match morsel {
        Morsel::SlotRange { lo, hi } => txn.scan_slot_range(table.id, *lo, *hi)?,
        Morsel::IndexChunk(slots) => txn.rows_for_slots(table.id, slots)?,
    };
    let leaf = (0, filter.as_slice(), rows.into_iter());
    let morsel = Some(MorselInput { leaf, prebuilt });
    build_source(txn, route.root, batch_size, cert, morsel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute_plan_with;
    use crate::schedule::{explore, Strategy};
    use trac_expr::bind_select;
    use trac_plan::{plan_select, PhysicalPlan};
    use trac_sql::parse_select;
    use trac_storage::{ColumnDef, Database, TableSchema};
    use trac_types::{DataType, Value};

    /// Three `activity` and two `routing` rows, and an INT-keyed pair:
    /// four `jobs` whose `host` joins three `hosts` rows' `id`. Every
    /// table is indexed on `mach_id`; one row per morsel splits any leaf.
    fn fixture() -> Result<Database> {
        let db = Database::new();
        let mut ids = Vec::new();
        for (name, other, ty) in [
            ("activity", "value", DataType::Text),
            ("routing", "neighbor", DataType::Text),
            ("jobs", "host", DataType::Int),
            ("hosts", "id", DataType::Int),
        ] {
            ids.push(db.create_table(TableSchema::new(
                name,
                vec![
                    ColumnDef::new("mach_id", DataType::Text),
                    ColumnDef::new(other, ty),
                ],
                Some("mach_id"),
            )?)?);
            db.create_index(name, "mach_id")?;
        }
        db.with_write(|w| {
            for (m, v) in [("m1", "idle"), ("m2", "busy"), ("m3", "idle")] {
                w.insert(ids[0], vec![Value::text(m), Value::text(v)])?;
            }
            for (m, n) in [("m1", "m3"), ("m2", "m3")] {
                w.insert(ids[1], vec![Value::text(m), Value::text(n)])?;
            }
            for (m, h) in [("m1", 1), ("m2", 3), ("m3", 2), ("m4", 1)] {
                w.insert(ids[2], vec![Value::text(m), Value::Int(h)])?;
            }
            for (m, id) in [("h1", 1), ("h2", 2), ("h3", 1)] {
                w.insert(ids[3], vec![Value::text(m), Value::Int(id)])?;
            }
            Ok(())
        })?;
        Ok(db)
    }

    fn lower(txn: &ReadTxn, sql: &str, opts: ExecOptions) -> Result<PhysicalPlan> {
        let q = bind_select(txn, &parse_select(sql)?)?;
        plan_select(txn, &q, opts)
    }

    /// The route decision at four threads: a FROM-order chain over a
    /// `Scan` or `IndexLookup` runs on the worker pool (the exhaustive
    /// explorer finds more than one schedule), every other shape runs
    /// serially (exactly one schedule) — and both give the serial rows.
    #[test]
    fn morsel_route_is_taken_exactly_by_from_order_chains() -> Result<()> {
        let db = fixture()?;
        let txn = db.begin_read();
        let base = ExecOptions::default();
        let no_index = ExecOptions {
            enable_index_scan: false,
            ..base
        };
        let reordering = ExecOptions {
            cost_based_join_order: true,
            ..base
        };
        let cases = [
            (
                "SELECT mach_id FROM activity WHERE value = 'idle'",
                base,
                "Scan",
                true,
            ),
            (
                "SELECT value FROM activity WHERE mach_id IN ('m1', 'm3')",
                base,
                "IndexLookup",
                true,
            ),
            (
                "SELECT A.value FROM routing R, activity A WHERE R.neighbor = A.mach_id",
                no_index,
                "HashJoin",
                true,
            ),
            ("SELECT COUNT(*) FROM activity", base, "CountStar", false),
            (
                "SELECT MIN(mach_id) FROM activity",
                base,
                "IndexMinMax",
                false,
            ),
            (
                "SELECT mach_id FROM activity ORDER BY mach_id DESC LIMIT 2",
                base,
                "TopNIndex",
                false,
            ),
            (
                "SELECT mach_id FROM activity WHERE 1 = 2",
                base,
                "Empty",
                false,
            ),
            (
                "SELECT A.value FROM activity A, routing R WHERE A.mach_id = R.mach_id",
                reordering,
                "IndexNLJoin",
                false,
            ),
            // Reordered behind a FROM-position-0 leaf: joins 2 before 1.
            (
                "SELECT A.value FROM routing R, activity A, routing S \
                 WHERE R.mach_id = S.mach_id AND S.neighbor = A.mach_id",
                reordering,
                "IndexNLJoin",
                false,
            ),
        ];
        for (sql, opts, op, branches) in cases {
            let plan = lower(&txn, sql, opts)?;
            assert!(plan.operator_counts().contains_key(op), "{sql}: no {op}");
            if opts.cost_based_join_order {
                let bindings = |p: &PhysicalPlan| -> Vec<String> {
                    p.table_steps().into_iter().map(|(b, _)| b).collect()
                };
                let from_order = lower(&txn, sql, base)?;
                assert_ne!(bindings(&plan), bindings(&from_order), "{sql} must reorder");
            }
            let serial = execute_plan_with(&txn, &plan, opts)?.rows;
            let parallel = opts.with_parallelism(4, 1);
            let report = explore(Strategy::Exhaustive { max_schedules: 48 }, |_ctl| {
                let rows = execute_plan_with(&txn, &plan, parallel)
                    .map_err(|e| e.to_string())?
                    .rows;
                if rows == serial {
                    Ok(())
                } else {
                    Err(format!("{sql}: rows diverged from serial"))
                }
            });
            assert!(report.is_clean(), "{:?}", report.failure);
            assert_eq!(report.schedules > 1, branches, "{sql}: route decision");
        }
        Ok(())
    }

    /// A hash join on certified `INT` keys builds its unboxed table
    /// once, on the coordinator; every morsel's tree borrows that one
    /// build, and every explored schedule gives the serial rows.
    #[test]
    fn morsels_borrow_one_certified_int_build() -> Result<()> {
        let db = fixture()?;
        let txn = db.begin_read();
        let opts = ExecOptions {
            enable_index_scan: false,
            ..ExecOptions::default()
        };
        let sql = "SELECT J.mach_id, H.mach_id FROM jobs J, hosts H WHERE J.host = H.id";
        let plan = lower(&txn, sql, opts)?;
        let PlanNode::Project { input, .. } = &plan.root else {
            return Err(TracError::Execution("expected a Project root".into()));
        };
        let route = morsel_route(input).ok_or(TracError::Execution("not routed".into()))?;
        let prebuilt = Prebuilt::build(&txn, route.root, &plan.cert)?;
        let build = &prebuilt.builds[&1];
        assert!(
            matches!(build.index, crate::batch::JoinIndex::Int(_)),
            "unboxed build"
        );
        let morsels = morselize(&txn, route.leaf, 1)?;
        assert_eq!(morsels.len(), 4, "one jobs row per morsel");
        for m in &morsels {
            let tree = morsel_tree(&txn, &route, m, &prebuilt, &plan.cert, 1)?;
            assert!(tree.build_side().is_some_and(|b| std::ptr::eq(b, build)));
        }
        let serial = execute_plan_with(&txn, &plan, opts)?.rows;
        assert_eq!(serial.len(), 5, "m1 and m4 match two hosts each, m3 one");
        let parallel = opts.with_parallelism(4, 1);
        let report = explore(Strategy::Exhaustive { max_schedules: 48 }, |_ctl| {
            let rows = execute_plan_with(&txn, &plan, parallel).map_err(|e| e.to_string())?;
            (rows.rows == serial).then_some(()).ok_or("diverged".into())
        });
        assert!(report.is_clean() && report.schedules > 1, "{report:?}");
        Ok(())
    }

    /// Seeded determinism bug: merging in completion order (`ordered =
    /// false`) instead of morsel order must be *detected* by the
    /// explorer — some interleaving reorders the output.
    #[test]
    fn explorer_detects_a_completion_order_merge() -> Result<()> {
        let db = fixture()?;
        let txn = db.begin_read();
        let plan = lower(
            &txn,
            "SELECT mach_id, value FROM activity",
            ExecOptions::default(),
        )?;
        let serial = execute_plan_with(&txn, &plan, ExecOptions::default())?.rows;
        let PlanNode::Project { input, .. } = &plan.root else {
            return Err(TracError::Execution("expected a Project root".into()));
        };
        let route = morsel_route(input)
            .ok_or_else(|| TracError::Execution("a scan must take the morsel route".into()))?;
        let opts = ExecOptions::default().with_parallelism(2, 1);
        let report = explore(Strategy::Exhaustive { max_schedules: 200 }, |_ctl| {
            let rows: Vec<Vec<Value>> = execute_morsels(&txn, &route, opts, &plan.cert, false)
                .map_err(|e| e.to_string())?
                .iter()
                .map(|t| t[0].to_vec())
                .collect();
            if rows == serial {
                Ok(())
            } else {
                Err("completion-order merge produced schedule-dependent rows".into())
            }
        });
        let failure = report.failure.ok_or_else(|| {
            TracError::Execution(
                "the explorer must find an interleaving that reorders the merge".into(),
            )
        })?;
        assert!(failure.message.contains("schedule-dependent"));
        assert!(
            !failure.choices.is_empty(),
            "the failing schedule must be replayable from its decision trace"
        );
        Ok(())
    }
}
