//! Morsel-driven parallel execution: the executor's route for a
//! plan's relational root when [`ExecOptions::threads`] > 1.
//!
//! The plan carries no parallel operators; it is the same at every
//! thread count. [`morsel_route`] matches the relational root (the input
//! of `Aggregate`, or of `Sort`/`Project`) against the one shape this
//! module splits: a chain of `Filter`, `NLJoin`, `HashJoin` and
//! `IndexNLJoin` over a `Scan` or `IndexLookup` at FROM position 0,
//! joining positions 1, 2, … in order. Every other root runs serially:
//! a cost-reordered join, a fast-path leaf (`CountStar`, `IndexMinMax`,
//! `TopNIndex`) and a statically empty plan among them. A matched root
//! runs on a worker pool:
//!
//! 1. **Morselize** the driving leaf. A `Scan` splits the physical
//!    version-slot space into fixed-size ranges
//!    ([`ReadTxn::version_slot_count`] / [`ReadTxn::scan_slot_range`]);
//!    an `IndexLookup` splits its posting lists into slot chunks
//!    ([`ReadTxn::index_probe_in_chunks`] /
//!    [`ReadTxn::rows_for_slots`]). Either way the flat concatenation
//!    of morsels reproduces the serial leaf order exactly.
//! 2. **Prebuild** shared join state once: a nested-loop inner side is
//!    materialized up front, and a hash join's build side is
//!    partitioned by `hash(key) % threads` with one build task per
//!    partition — each task scans the full inner row list but inserts
//!    only its own partition, so per-key row order matches the serial
//!    single-threaded build.
//! 3. **Fan out**: `threads` scoped workers pull morsel indexes from an
//!    atomic counter, evaluate the whole operator spine over their
//!    morsel as one [`ColumnarBatch`] (leaf filter, joins, residual
//!    filters — in the same outer-major expansion order as the serial
//!    columnar engine, under the same kernel certificate), and park the
//!    result in a per-morsel slot.
//! 4. **Merge deterministically**: results concatenate in morsel index
//!    order, which makes parallel output byte-identical to serial
//!    output for every plan shape (ordered or not).
//!
//! One deliberate divergence from the serial columnar engine: its joins
//! fetch their inner side lazily on the first non-empty outer batch,
//! while the morsel route prebuilds inner sides whenever the driving
//! leaf has at least one morsel (an empty leaf still skips them).

use crate::operators::{fetch_leaf_rows, leaf_pos, Tuple};
use crate::schedule;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use trac_expr::{ColumnarBatch, KernelCert};
use trac_plan::{ExecOptions, PlanNode};
use trac_storage::lockorder::{self, LockId};
use trac_storage::{ReadTxn, Row, RowSlot};
use trac_types::{Result, TracError, Value};

/// A relational root the morsel route drives: its driving leaf and the
/// operators above it, bottom-up.
pub(crate) struct MorselRoute<'a> {
    leaf: &'a PlanNode,
    spine: Vec<&'a PlanNode>,
}

/// One unit of leaf work handed to a worker.
enum Morsel {
    /// A physical version-slot range of a `Scan` leaf.
    SlotRange { lo: usize, hi: usize },
    /// One chunk of an `IndexLookup` posting list.
    IndexChunk(Vec<RowSlot>),
}

/// A spine operator with its shared (prebuilt) state.
enum SpineOp<'a> {
    /// Residual predicate over full tuples.
    Filter {
        predicate: &'a [trac_expr::BoundExpr],
    },
    /// Nested-loop join against a materialized inner side.
    NL {
        rows: Vec<Row>,
        pos: usize,
        filter: &'a [trac_expr::BoundExpr],
    },
    /// Hash join against a partitioned build side.
    Hash {
        parts: Vec<HashMap<Value, Vec<Row>>>,
        pos: usize,
        outer_key: trac_expr::ColRef,
        filter: &'a [trac_expr::BoundExpr],
    },
    /// Index nested-loop join probing the inner index per outer tuple.
    IndexNL {
        table: &'a trac_expr::BoundTable,
        pos: usize,
        inner_col: usize,
        outer_key: trac_expr::ColRef,
        filter: &'a [trac_expr::BoundExpr],
    },
}

/// Which build-side partition a join key hashes into.
fn partition_of(key: &Value, nparts: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % nparts as u64) as usize
}

/// Matches a relational root against the shape the morsel route
/// drives, returning its leaf and spine, or `None` when the root must
/// run serially. The joins must add FROM positions 1, 2, … in order:
/// the route assumes the FROM-order driving leaf, so a cost-reordered
/// plan stays serial.
pub(crate) fn morsel_route(root: &PlanNode) -> Option<MorselRoute<'_>> {
    let mut spine: Vec<&PlanNode> = Vec::new();
    let mut cur = root;
    let leaf = loop {
        match cur {
            PlanNode::Filter { input, .. } => {
                spine.push(cur);
                cur = input;
            }
            PlanNode::NLJoin { outer, .. }
            | PlanNode::HashJoin { outer, .. }
            | PlanNode::IndexNLJoin { outer, .. } => {
                spine.push(cur);
                cur = outer;
            }
            PlanNode::Scan { pos: 0, .. } | PlanNode::IndexLookup { pos: 0, .. } => break cur,
            _ => return None,
        }
    };
    // Apply bottom-up: the operator nearest the leaf runs first.
    spine.reverse();
    let mut next = 1;
    for op in &spine {
        let pos = match op {
            PlanNode::NLJoin { inner, .. } | PlanNode::HashJoin { inner, .. } => {
                leaf_pos(inner).ok()?
            }
            PlanNode::IndexNLJoin { pos, .. } => *pos,
            _ => continue,
        };
        if pos != next {
            return None;
        }
        next += 1;
    }
    Some(MorselRoute { leaf, spine })
}

/// Runs a relational root on the morsel route and returns the merged
/// tuples. `ordered` selects the merge rule: `true` — the only value
/// the executor passes — concatenates per-morsel batches in morsel
/// index order, making parallel output byte-identical to serial.
/// `false` models the completion-order-merge bug (concatenation in slot
/// deposit order); it exists so the interleaving explorer can be shown
/// to catch that bug.
pub(crate) fn execute_morsels(
    txn: &ReadTxn,
    route: &MorselRoute<'_>,
    opts: ExecOptions,
    cert: &KernelCert,
    ordered: bool,
) -> Result<Vec<Tuple>> {
    let threads = opts.threads.max(1);
    let leaf = route.leaf;
    let morsels = morselize(txn, leaf, opts.batch_size.max(1))?;
    if morsels.is_empty() {
        // An empty driving leaf produces nothing and — like the lazy
        // serial joins — never touches inner join sides.
        return Ok(Vec::new());
    }

    let ops = prebuild_spine(txn, &route.spine, threads, cert)?;

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
    let workers = threads.min(morsels.len());
    let work = || loop {
        if abort.load(Ordering::Relaxed) {
            return;
        }
        schedule::yield_point(schedule::Site::MorselClaim);
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(morsel) = morsels.get(i) else {
            return;
        };
        let out = run_morsel_columnar(txn, leaf, morsel, &ops, cert);
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
    if merge_order.len() != results.len() {
        return Err(TracError::Execution(
            "parallel worker aborted without reporting an error".into(),
        ));
    }
    let mut tuples = Vec::new();
    for i in merge_order {
        match results[i].take() {
            Some(Ok(mut batch)) => tuples.append(&mut batch),
            Some(Err(_)) => unreachable!("errors are returned above"),
            None => {
                return Err(TracError::Execution(
                    "parallel worker aborted without reporting an error".into(),
                ))
            }
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

/// Builds the shared per-operator state for the morsel route.
fn prebuild_spine<'a>(
    txn: &ReadTxn,
    spine: &[&'a PlanNode],
    threads: usize,
    cert: &KernelCert,
) -> Result<Vec<SpineOp<'a>>> {
    let mut ops = Vec::with_capacity(spine.len());
    for node in spine {
        ops.push(match node {
            PlanNode::Filter { predicate, .. } => SpineOp::Filter { predicate },
            PlanNode::NLJoin { inner, filter, .. } => SpineOp::NL {
                rows: fetch_leaf_rows(txn, inner, cert)?,
                pos: leaf_pos(inner)?,
                filter,
            },
            PlanNode::HashJoin {
                inner,
                inner_col,
                outer_key,
                filter,
                ..
            } => SpineOp::Hash {
                parts: build_hash_partitions(
                    fetch_leaf_rows(txn, inner, cert)?,
                    *inner_col,
                    threads,
                ),
                pos: leaf_pos(inner)?,
                outer_key: *outer_key,
                filter,
            },
            PlanNode::IndexNLJoin {
                table,
                pos,
                inner_col,
                outer_key,
                filter,
                ..
            } => SpineOp::IndexNL {
                table,
                pos: *pos,
                inner_col: *inner_col,
                outer_key: *outer_key,
                filter,
            },
            other => {
                return Err(TracError::Execution(format!(
                    "unexpected {} operator on the morsel route",
                    other.name()
                )))
            }
        });
    }
    Ok(ops)
}

/// Partitioned parallel hash build: one task per partition, each
/// scanning the full inner row list in order but inserting only rows
/// whose key hashes into its partition. Per-key row order therefore
/// matches a serial single-map build. NULL keys are never inserted
/// (they can never match).
fn build_hash_partitions(
    rows: Vec<Row>,
    inner_col: usize,
    nparts: usize,
) -> Vec<HashMap<Value, Vec<Row>>> {
    let nparts = nparts.max(1);
    if nparts == 1 {
        let mut table: HashMap<Value, Vec<Row>> = HashMap::new();
        for r in rows {
            let k = r[inner_col].clone();
            if !k.is_null() {
                table.entry(k).or_default().push(r);
            }
        }
        return vec![table];
    }
    let rows = &rows;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nparts)
            .map(|p| {
                s.spawn(move || {
                    let mut part: HashMap<Value, Vec<Row>> = HashMap::new();
                    for r in rows {
                        let k = &r[inner_col];
                        if !k.is_null() && partition_of(k, nparts) == p {
                            part.entry(k.clone()).or_default().push(r.clone());
                        }
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            // PANIC-OK: re-raises a panic from a scoped build worker; the join itself cannot fail.
            .map(|h| h.join().expect("hash build worker panicked"))
            .collect()
    })
}

/// Evaluates one morsel through the spine as a [`ColumnarBatch`]:
/// vectorized leaf filter, then batch joins that expand outer-major,
/// so the deposited tuples are this morsel's slice of the serial
/// engine's output, in order.
fn run_morsel_columnar(
    txn: &ReadTxn,
    leaf: &PlanNode,
    morsel: &Morsel,
    ops: &[SpineOp<'_>],
    cert: &KernelCert,
) -> Result<Vec<Tuple>> {
    let (table_id, pos, filter) = match leaf {
        PlanNode::Scan {
            table, pos, filter, ..
        }
        | PlanNode::IndexLookup {
            table, pos, filter, ..
        } => (table.id, *pos, filter),
        other => {
            return Err(TracError::Execution(format!(
                "operator {} cannot drive the morsel route",
                other.name()
            )))
        }
    };
    let rows = match morsel {
        Morsel::SlotRange { lo, hi } => txn.scan_slot_range(table_id, *lo, *hi)?,
        Morsel::IndexChunk(slots) => txn.rows_for_slots(table_id, slots)?,
    };
    let mut batch = ColumnarBatch::from_rows(pos + 1, pos, rows);
    batch.apply_filter(filter, cert);
    for op in ops {
        if batch.is_empty() {
            break;
        }
        batch = apply_op_columnar(txn, op, batch, cert)?;
    }
    Ok(batch.to_tuples())
}

/// Applies one spine operator to a whole columnar batch. Joins expand
/// outer-major through [`ColumnarBatch::join_extend`] and re-filter the
/// joined batch through the vectorized evaluator.
fn apply_op_columnar(
    txn: &ReadTxn,
    op: &SpineOp<'_>,
    mut batch: ColumnarBatch,
    cert: &KernelCert,
) -> Result<ColumnarBatch> {
    Ok(match op {
        SpineOp::Filter { predicate } => {
            batch.apply_filter(predicate, cert);
            batch
        }
        SpineOp::NL { rows, pos, filter } => {
            // Shared inner row set: every lane borrows the same slice;
            // rows are cloned once each, at gather time.
            let matches: Vec<&[Row]> = vec![rows.as_slice(); batch.len()];
            let mut joined = batch.join_extend_ref(*pos, &matches);
            joined.apply_filter(filter, cert);
            joined
        }
        SpineOp::Hash {
            parts,
            pos,
            outer_key,
            filter,
        } => {
            const NO_MATCH: &[Row] = &[];
            // Keys are read in place and buckets are borrowed from the
            // shared partitioned build; matched rows are cloned only into
            // the output batch.
            let matches: Vec<&[Row]> = batch
                .lane_values(*outer_key)?
                .map(|k| {
                    if k.is_null() {
                        NO_MATCH
                    } else {
                        parts[partition_of(k, parts.len())]
                            .get(k)
                            .map_or(NO_MATCH, Vec::as_slice)
                    }
                })
                .collect();
            let mut joined = batch.join_extend_ref(*pos, &matches);
            joined.apply_filter(filter, cert);
            joined
        }
        SpineOp::IndexNL {
            table,
            pos,
            inner_col,
            outer_key,
            filter,
        } => {
            let mut matches: Vec<Vec<Row>> = Vec::with_capacity(batch.len());
            for k in batch.lane_values(*outer_key)? {
                if k.is_null() {
                    matches.push(Vec::new());
                    continue;
                }
                let rows = txn
                    .index_probe_in(table.id, *inner_col, std::slice::from_ref(k))?
                    .ok_or_else(|| {
                        TracError::Execution(format!(
                            "index on {}.col#{} vanished mid-plan",
                            table.binding, inner_col
                        ))
                    })?;
                matches.push(rows);
            }
            let mut joined = batch.join_extend(*pos, matches);
            joined.apply_filter(filter, cert);
            joined
        }
    })
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
    use trac_types::DataType;

    /// Three `activity` rows and two `routing` rows, both indexed on
    /// `mach_id`: at one row per morsel every driving leaf splits.
    fn fixture() -> Result<Database> {
        let db = Database::new();
        let mut ids = Vec::new();
        for (name, other) in [("activity", "value"), ("routing", "neighbor")] {
            ids.push(db.create_table(TableSchema::new(
                name,
                vec![
                    ColumnDef::new("mach_id", DataType::Text),
                    ColumnDef::new(other, DataType::Text),
                ],
                Some("mach_id"),
            )?)?);
            db.create_index(name, "mach_id")?;
        }
        let (a, r) = (ids[0], ids[1]);
        db.with_write(|w| {
            for (m, v) in [("m1", "idle"), ("m2", "busy"), ("m3", "idle")] {
                w.insert(a, vec![Value::text(m), Value::text(v)])?;
            }
            for (m, n) in [("m1", "m3"), ("m2", "m3")] {
                w.insert(r, vec![Value::text(m), Value::text(n)])?;
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
