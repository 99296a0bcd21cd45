//! Mutation corpus for the translation validator and the crate audits.
//!
//! Each test lowers a real query through the production planner, checks
//! the unmutated plan certifies cleanly, applies exactly one surgical
//! mutation to the plan IR, and asserts the validator rejects it with
//! the expected stable `TRAC009`–`TRAC015` code (or, for the
//! recency-subquery sanitizer, `TRAC004`/`TRAC005`, and for the
//! fast-path, typeflow and maintenance certifiers and the crate audits,
//! the `TRAC020`–`TRAC030` code of the pass that owns the mutated
//! artifact).
//! Every mutation models a realistic lowering bug: a dropped predicate,
//! a phantom predicate, a corrupted join key, a retargeted slot, a
//! mangled shaping operator, an `Exists` over a relation the output
//! reads, a leaked relation, an inverted lock order,
//! a forged lane certificate, an unreviewed panic site.

use trac_analyze::passes::{concurrency, fastpath, maintain, panics, sanitize, typeflow};
use trac_analyze::validate_plan;
use trac_expr::{bind_select, BoundExpr, BoundSelect, BoundTable, Projection};
use trac_plan::{ExecOptions, PhysicalPlan, PlanNode};
use trac_sql::BinaryOp;
use trac_storage::{ReadTxn, HEARTBEAT_RECENCY_COL};
use trac_types::Value;
use trac_workload::load_paper_tables;

fn bind(txn: &ReadTxn, sql: &str) -> BoundSelect {
    let stmt = trac_sql::parse_select(sql).unwrap();
    bind_select(txn, &stmt).unwrap()
}

fn plan(txn: &ReadTxn, q: &BoundSelect, opts: ExecOptions) -> PhysicalPlan {
    trac_plan::plan_select(txn, q, opts).unwrap()
}

/// Error-severity code ids the validator produced.
fn error_codes(q: &BoundSelect, p: &PhysicalPlan) -> Vec<&'static str> {
    validate_plan(q, p, "mut", None)
        .iter()
        .filter(|d| d.is_error())
        .map(|d| d.code.id)
        .collect()
}

/// Runs one mutation scenario: the pristine plan must certify clean,
/// the mutated plan must trip `expected` (one of TRAC009..TRAC015).
fn assert_mutation(
    sql: &str,
    opts: ExecOptions,
    mutate: impl FnOnce(&mut PlanNode),
    expected: &[&str],
) {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let q = bind(&txn, sql);
    let mut p = plan(&txn, &q, opts);
    assert!(
        error_codes(&q, &p).is_empty(),
        "pristine plan must certify: {:?}\n{}",
        validate_plan(&q, &p, "pre", None),
        p.render()
    );
    mutate(&mut p.root);
    let codes = error_codes(&q, &p);
    assert!(
        codes.iter().any(|c| expected.contains(c)),
        "mutation must trip one of {expected:?}, got {codes:?}\n{}",
        p.render()
    );
}

/// Digs through the shaping operators to the relational subtree root.
fn relational_root(node: &mut PlanNode) -> &mut PlanNode {
    match node {
        PlanNode::Project { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Aggregate { input, .. }
        | PlanNode::Distinct { input }
        | PlanNode::Limit { input, .. } => relational_root(input),
        other => other,
    }
}

#[test]
fn dropping_a_scan_filter_conjunct_is_caught() {
    // A lowering bug that silently loses a WHERE conjunct widens the
    // result: RESIDUE_DROPPED.
    assert_mutation(
        "SELECT mach_id FROM Activity WHERE value = 'idle'",
        ExecOptions::default(),
        |root| {
            let PlanNode::Scan { filter, .. } = relational_root(root) else {
                panic!("expected Scan leaf");
            };
            filter.clear();
        },
        &["TRAC009"],
    );
}

#[test]
fn injecting_a_phantom_conjunct_is_caught() {
    // The dual bug narrows the result with a predicate the user never
    // wrote: RESIDUE_PHANTOM.
    assert_mutation(
        "SELECT mach_id FROM Activity WHERE value = 'idle'",
        ExecOptions::default(),
        |root| {
            let PlanNode::Scan { filter, .. } = relational_root(root) else {
                panic!("expected Scan leaf");
            };
            filter.push(BoundExpr::binary(
                BinaryOp::Eq,
                BoundExpr::col(0, 0),
                BoundExpr::Literal(Value::text("m1")),
            ));
        },
        &["TRAC010"],
    );
}

#[test]
fn dropping_the_join_conjunct_is_caught() {
    // Losing the NLJoin filter turns the join into a cross product.
    assert_mutation(
        "SELECT A.mach_id FROM Routing R, Activity A \
         WHERE A.value = 'idle' AND R.neighbor = A.mach_id",
        ExecOptions {
            enable_index_scan: false,
            enable_hash_join: false,
            ..Default::default()
        },
        |root| {
            let PlanNode::NLJoin { filter, .. } = relational_root(root) else {
                panic!("expected NLJoin root");
            };
            filter.retain(|c| {
                !matches!(
                    c,
                    BoundExpr::Binary {
                        op: BinaryOp::Eq,
                        ..
                    }
                )
            });
        },
        &["TRAC009"],
    );
}

#[test]
fn corrupting_the_hash_join_outer_key_is_caught() {
    // The hash table is probed with R.mach_id although the query joins
    // on R.neighbor: an equality no enforced predicate justifies.
    assert_mutation(
        "SELECT A.mach_id FROM Routing R, Activity A \
         WHERE A.value = 'idle' AND R.neighbor = A.mach_id",
        ExecOptions {
            enable_index_scan: false,
            enable_hash_join: true,
            ..Default::default()
        },
        |root| {
            let PlanNode::HashJoin { outer_key, .. } = relational_root(root) else {
                panic!("expected HashJoin root");
            };
            outer_key.column = 0; // R.neighbor -> R.mach_id
        },
        &["TRAC011"],
    );
}

#[test]
fn corrupting_the_hash_join_inner_column_is_caught() {
    assert_mutation(
        "SELECT A.mach_id FROM Routing R, Activity A \
         WHERE A.value = 'idle' AND R.neighbor = A.mach_id",
        ExecOptions {
            enable_index_scan: false,
            enable_hash_join: true,
            ..Default::default()
        },
        |root| {
            let PlanNode::HashJoin { inner_col, .. } = relational_root(root) else {
                panic!("expected HashJoin root");
            };
            *inner_col = 1; // A.mach_id -> A.value
        },
        &["TRAC011"],
    );
}

#[test]
fn swapping_index_join_keys_is_caught() {
    // The default plan joins A through its mach_id index; probing a
    // different column pair is an unjustified equality.
    assert_mutation(
        "SELECT A.mach_id FROM Routing R, Activity A \
         WHERE A.value = 'idle' AND R.neighbor = A.mach_id",
        ExecOptions::default(),
        |root| {
            let PlanNode::IndexNLJoin { outer_key, .. } = relational_root(root) else {
                panic!("expected IndexNLJoin root");
            };
            outer_key.column = 2; // R.neighbor -> R.event_time
        },
        &["TRAC011"],
    );
}

#[test]
fn retargeting_a_scan_slot_is_caught() {
    // The leaf claims to fill a tuple slot the query does not have.
    assert_mutation(
        "SELECT mach_id FROM Activity",
        ExecOptions::default(),
        |root| {
            let PlanNode::Scan { pos, .. } = relational_root(root) else {
                panic!("expected Scan leaf");
            };
            *pos = 1;
        },
        &["TRAC012"],
    );
}

#[test]
fn truncating_the_projection_list_is_caught() {
    assert_mutation(
        "SELECT mach_id, value FROM Activity",
        ExecOptions::default(),
        |root| {
            let PlanNode::Project { projections, .. } = root else {
                panic!("expected Project root");
            };
            projections.pop();
        },
        &["TRAC012"],
    );
}

#[test]
fn dropping_the_distinct_operator_is_caught() {
    assert_mutation(
        "SELECT DISTINCT value FROM Activity",
        ExecOptions::default(),
        |root| {
            let placeholder = PlanNode::Empty { bindings: vec![] };
            let PlanNode::Distinct { input } = std::mem::replace(root, placeholder) else {
                panic!("expected Distinct root");
            };
            *root = *input;
        },
        &["TRAC013"],
    );
}

#[test]
fn flipping_the_sort_direction_is_caught() {
    assert_mutation(
        "SELECT mach_id FROM Activity ORDER BY mach_id",
        ExecOptions::default(),
        |root| {
            let PlanNode::Project { input, .. } = root else {
                panic!("expected Project root");
            };
            let PlanNode::Sort { keys, .. } = input.as_mut() else {
                panic!("expected Sort under Project");
            };
            keys[0].1 = !keys[0].1;
        },
        &["TRAC013"],
    );
}

#[test]
fn changing_the_limit_is_caught() {
    assert_mutation(
        "SELECT mach_id FROM Activity LIMIT 2",
        ExecOptions::default(),
        |root| {
            let PlanNode::Limit { n, .. } = root else {
                panic!("expected Limit root");
            };
            *n += 1;
        },
        &["TRAC013"],
    );
}

#[test]
fn reordering_a_filter_above_the_shaping_stack_is_caught() {
    // A relational operator floating above LIMIT changes semantics
    // (it would filter *after* truncation).
    assert_mutation(
        "SELECT mach_id FROM Activity WHERE value = 'idle' LIMIT 2",
        ExecOptions::default(),
        |root| {
            let placeholder = PlanNode::Empty { bindings: vec![] };
            let old = std::mem::replace(root, placeholder);
            *root = PlanNode::Filter {
                input: Box::new(old),
                predicate: vec![BoundExpr::binary(
                    BinaryOp::Eq,
                    BoundExpr::col(0, 1),
                    BoundExpr::Literal(Value::text("idle")),
                )],
            };
        },
        &["TRAC013"],
    );
}

/// Error-severity code ids the fast-path certifier produced.
fn fastpath_codes(txn: &ReadTxn, q: &BoundSelect, p: &PhysicalPlan) -> Vec<&'static str> {
    fastpath::check_plan(txn, q, p, "mut")
        .iter()
        .filter(|d| d.is_error())
        .map(|d| d.code.id)
        .collect()
}

/// Runs one fast-path-mutation scenario: the pristine plan must certify
/// clean (a `TRAC022` note at most), the mutated plan must trip
/// `TRAC021`.
fn assert_fastpath_mutation(sql: &str, opts: ExecOptions, mutate: impl FnOnce(&mut PlanNode)) {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let q = bind(&txn, sql);
    let mut p = plan(&txn, &q, opts);
    assert!(
        fastpath_codes(&txn, &q, &p).is_empty(),
        "pristine plan must certify: {:?}\n{}",
        fastpath::check_plan(&txn, &q, &p, "pre"),
        p.render()
    );
    mutate(&mut p.root);
    let codes = fastpath_codes(&txn, &q, &p);
    assert!(
        codes.contains(&"TRAC021"),
        "expected TRAC021, got {codes:?}"
    );
}

#[test]
fn count_star_shortcut_with_a_live_where_is_caught() {
    // Fast-pathing COUNT(*) although a WHERE conjunct still needs
    // enforcing would count *unfiltered* rows — the exact bug the
    // planner's `pending.is_empty()` guard prevents (TRAC021).
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let q = bind(
        &txn,
        "SELECT COUNT(*) AS n FROM Activity WHERE value = 'idle'",
    );
    let mut p = plan(&txn, &q, ExecOptions::default());
    assert!(
        matches!(p.root, PlanNode::Aggregate { .. }),
        "a filtered COUNT(*) must not fast-path: {}",
        p.render()
    );
    p.root = PlanNode::CountStar {
        table: q.tables[0].clone(),
        name: "n".to_string(),
        est_rows: 0,
        cost: 1,
    };
    let codes = fastpath_codes(&txn, &q, &p);
    assert!(
        codes.contains(&"TRAC021"),
        "expected TRAC021, got {codes:?}"
    );
}

#[test]
fn min_max_walk_of_an_unindexed_column_is_caught() {
    // Retargeting the extreme walk onto `value` (no index) makes the
    // "first index entry" answer meaningless (TRAC021).
    assert_fastpath_mutation(
        "SELECT MIN(mach_id) AS lo FROM Activity",
        ExecOptions::default(),
        |root| {
            let PlanNode::IndexMinMax { column, .. } = root else {
                panic!("expected IndexMinMax root");
            };
            *column = 1; // mach_id -> value
        },
    );
}

#[test]
fn flipping_the_top_n_walk_direction_is_caught() {
    // A descending walk answering an ascending ORDER BY returns the
    // wrong end of the index. Caught twice, independently: the
    // fast-path certifier re-derives the walk order (TRAC021) and the
    // shape check compares it against the query's sort (TRAC013).
    let sql = "SELECT mach_id FROM Activity ORDER BY mach_id LIMIT 2";
    fn flip(root: &mut PlanNode) {
        let PlanNode::TopNIndex { desc, .. } = relational_root(root) else {
            panic!("expected TopNIndex leaf");
        };
        *desc = !*desc;
    }
    assert_fastpath_mutation(sql, ExecOptions::default(), flip);
    assert_mutation(sql, ExecOptions::default(), flip, &["TRAC013"]);
}

#[test]
fn top_n_walk_of_a_missing_column_is_caught() {
    // The dataflow contract arm for the new leaf: a walked column the
    // schema does not have (TRAC012).
    assert_mutation(
        "SELECT mach_id FROM Activity ORDER BY mach_id LIMIT 2",
        ExecOptions::default(),
        |root| {
            let PlanNode::TopNIndex { column, .. } = relational_root(root) else {
                panic!("expected TopNIndex leaf");
            };
            *column = 99;
        },
        &["TRAC012"],
    );
}

#[test]
fn top_n_walk_over_a_probe_preferring_filter_is_caught() {
    // Tie-order hazard: with an in-list probe candidate on another
    // indexed column, the general plan streams rows in *key* order
    // while the walk visits postings in *slot* order — the stable
    // sort's ties could resolve differently. Lowering declines the
    // walk; a plan carrying it anyway is unsound (TRAC021).
    let db = typed_fixture(false);
    db.create_index("r", "sid").unwrap();
    db.create_index("r", "n").unwrap();
    let txn = db.begin_read();
    let q = bind(
        &txn,
        "SELECT sid FROM r WHERE sid IN ('s1', 's2') ORDER BY n LIMIT 1",
    );
    let mut p = plan(&txn, &q, ExecOptions::default());
    assert!(
        !p.render().contains("TopNIndex"),
        "lowering must decline the walk over a probe-preferring filter: {}",
        p.render()
    );
    let mut filter = Vec::new();
    trac_plan::split_and(q.predicate.as_ref().unwrap(), &mut filter);
    p.root = PlanNode::Limit {
        input: Box::new(PlanNode::Project {
            input: Box::new(PlanNode::TopNIndex {
                table: q.tables[0].clone(),
                pos: 0,
                column: 1,
                desc: false,
                n: 1,
                filter: filter.into_iter().cloned().collect(),
                est_rows: 1,
                cost: 1,
            }),
            projections: q.projections.clone(),
        }),
        n: 1,
    };
    let diags = fastpath::check_plan(&txn, &q, &p, "mut");
    assert!(
        diags
            .iter()
            .any(|d| d.code.id == "TRAC021" && d.message.contains("slot order")),
        "expected the tie-order obligation to fail, got {diags:?}"
    );
}

#[test]
fn widening_the_in_list_probe_keys_is_caught() {
    // Probe keys must re-derive from a WHERE conjunct; an extra key
    // would surface rows the query excludes — and the residue check
    // alone cannot see it, because the re-applied filter still hides
    // the phantom rows (TRAC021).
    assert_fastpath_mutation(
        "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2')",
        ExecOptions::default(),
        |root| {
            let PlanNode::IndexLookup { keys, .. } = relational_root(root) else {
                panic!("expected IndexLookup leaf");
            };
            keys.push(Value::text("m3"));
        },
    );
}

#[test]
fn inverted_lock_acquisition_is_caught() {
    // Taking the data map while holding the stamped-slot list inverts
    // the declared order; paired with the legal order elsewhere this is
    // a deadlock (TRAC020).
    use trac_storage::LockId;
    let edges = [(LockId::TxnStamped, LockId::DbData)];
    let codes: Vec<_> = concurrency::check_lock_edges(&edges)
        .iter()
        .filter(|d| d.is_error())
        .map(|d| d.code.id)
        .collect();
    assert_eq!(codes, ["TRAC020"]);
}

/// Error-severity code ids the typeflow certifier produced.
fn typeflow_codes(txn: &ReadTxn, q: &BoundSelect, p: &PhysicalPlan) -> Vec<&'static str> {
    typeflow::check_plan(txn, q, p, "mut")
        .iter()
        .filter(|d| d.is_error())
        .map(|d| d.code.id)
        .collect()
}

/// A small database with a nullable float lane: `r.temp` holds one NULL
/// and (optionally) one NaN, so the monotone catalog statistics can
/// prove or refute null- and NaN-freedom per lane.
fn typed_fixture(with_nan: bool) -> trac_storage::Database {
    use trac_storage::{ColumnDef, Database, TableSchema};
    use trac_types::DataType;
    let db = Database::new();
    db.create_table(
        TableSchema::new(
            "r",
            vec![
                ColumnDef::new("sid", DataType::Text),
                ColumnDef::new("n", DataType::Int),
                ColumnDef::new("temp", DataType::Float).nullable(),
            ],
            Some("sid"),
        )
        .unwrap(),
    )
    .unwrap();
    let tid = db.begin_read().table_id("r").unwrap();
    db.with_write(|w| {
        w.insert(
            tid,
            vec![Value::text("s1"), Value::Int(1), Value::Float(2.5)],
        )?;
        w.insert(tid, vec![Value::text("s2"), Value::Int(2), Value::Null])?;
        if with_nan {
            w.insert(
                tid,
                vec![Value::text("s3"), Value::Int(3), Value::Float(f64::NAN)],
            )?;
        }
        Ok(())
    })
    .unwrap();
    db
}

#[test]
fn forged_lane_type_is_caught() {
    // A certificate claiming an INT lane over a TEXT column would make
    // the unboxed kernel reinterpret every value (TRAC023).
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let q = bind(&txn, "SELECT mach_id FROM Activity WHERE value = 'idle'");
    let mut p = plan(&txn, &q, ExecOptions::default());
    assert!(
        typeflow_codes(&txn, &q, &p).is_empty(),
        "pristine plan must certify: {:?}",
        typeflow::check_plan(&txn, &q, &p, "pre")
    );
    p.cert.insert(
        0,
        0,
        trac_plan::LaneCert {
            ty: trac_types::DataType::Int,
            non_null: true,
            nan_free: true,
        },
    );
    assert_eq!(typeflow_codes(&txn, &q, &p), ["TRAC023"]);
}

#[test]
fn forged_null_freedom_is_caught() {
    // Claiming null-freedom of a lane the catalog counter refutes would
    // dispatch a bitmap-less kernel onto a NULL (TRAC023); the pristine
    // plan instead earns the TRAC025 null-bitmap certification.
    let db = typed_fixture(false);
    let txn = db.begin_read();
    let q = bind(&txn, "SELECT temp FROM r");
    let mut p = plan(&txn, &q, ExecOptions::default());
    let pristine = typeflow::check_plan(&txn, &q, &p, "pre");
    assert!(pristine.iter().all(|d| !d.is_error()), "{pristine:?}");
    assert!(
        pristine.iter().any(|d| d.code.id == "TRAC025"),
        "nullable temp lane must earn the null-bitmap certification: {pristine:?}"
    );
    let lane = *p.cert.get(0, 2).expect("temp lane certified");
    assert!(!lane.non_null, "stats must refute null-freedom");
    p.cert.insert(
        0,
        2,
        trac_plan::LaneCert {
            non_null: true,
            ..lane
        },
    );
    assert_eq!(typeflow_codes(&txn, &q, &p), ["TRAC023"]);
}

#[test]
fn forged_nan_freedom_is_caught() {
    // Claiming NaN-freedom of a float lane whose bounds hold a NaN
    // would hand total-order kernels a value SQL comparison rejects
    // (TRAC023); without the NaN the lane certifies TRAC026.
    let clean = typed_fixture(false);
    let txn = clean.begin_read();
    let q = bind(&txn, "SELECT temp FROM r");
    let p = plan(&txn, &q, ExecOptions::default());
    let notes = typeflow::check_plan(&txn, &q, &p, "pre");
    assert!(
        notes.iter().any(|d| d.code.id == "TRAC026"),
        "NaN-free float lane must earn the total-order certification: {notes:?}"
    );

    let poisoned = typed_fixture(true);
    let txn = poisoned.begin_read();
    let q = bind(&txn, "SELECT temp FROM r");
    let mut p = plan(&txn, &q, ExecOptions::default());
    let lane = *p.cert.get(0, 2).expect("temp lane certified");
    assert!(!lane.nan_free, "NaN insert must poison the proof");
    p.cert.insert(
        0,
        2,
        trac_plan::LaneCert {
            nan_free: true,
            ..lane
        },
    );
    assert_eq!(typeflow_codes(&txn, &q, &p), ["TRAC023"]);
}

#[test]
fn int_lanes_certify_unboxed_kernels() {
    // The strongest class: NOT NULL lanes earn the TRAC024 unboxed
    // certification and the EXPLAIN marker carries no `?`/`~`.
    let db = typed_fixture(false);
    let txn = db.begin_read();
    let q = bind(&txn, "SELECT n FROM r WHERE n > 1");
    let p = plan(&txn, &q, ExecOptions::default());
    let notes = typeflow::check_plan(&txn, &q, &p, "pre");
    assert!(
        notes
            .iter()
            .any(|d| d.code.id == "TRAC024" && d.message.contains("r.n:int")),
        "{notes:?}"
    );
}

#[test]
fn min_max_walk_of_a_nan_possible_float_is_caught() {
    // PR 6 excluded all floats from IndexMinMax; TRAC026 lifts that for
    // stats-proven NaN-free lanes, and the certifier gives the precise
    // TRAC021 reason when a plan walks a lane whose bounds admit NaN.
    let db = typed_fixture(true);
    db.create_index("r", "temp").unwrap();
    let txn = db.begin_read();
    let q = bind(&txn, "SELECT MIN(temp) AS lo FROM r");
    let mut p = plan(&txn, &q, ExecOptions::default());
    assert!(
        matches!(p.root, PlanNode::Aggregate { .. }),
        "NaN-poisoned float must not fast-path: {}",
        p.render()
    );
    p.root = PlanNode::IndexMinMax {
        table: q.tables[0].clone(),
        column: 2,
        func: trac_expr::bound::AggFunc::Min,
        name: "lo".to_string(),
        est_rows: 1,
        cost: 1,
    };
    let diags = fastpath::check_plan(&txn, &q, &p, "mut");
    assert!(
        diags
            .iter()
            .any(|d| d.code.id == "TRAC021" && d.message.contains("admit NaN")),
        "expected the precise NaN reason, got {diags:?}"
    );
}

#[test]
fn min_max_walk_of_a_proven_float_certifies() {
    // The dual: with NaN-free bounds the planner emits the walk and the
    // certifier records the TRAC026 admission note.
    let db = typed_fixture(false);
    db.create_index("r", "temp").unwrap();
    let txn = db.begin_read();
    let q = bind(&txn, "SELECT MIN(temp) AS lo FROM r");
    let p = plan(&txn, &q, ExecOptions::default());
    assert!(
        matches!(p.root, PlanNode::IndexMinMax { .. }),
        "NaN-free float must fast-path: {}",
        p.render()
    );
    let diags = fastpath::check_plan(&txn, &q, &p, "pre");
    assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.code.id == "TRAC026"),
        "expected the TRAC026 admission note, got {diags:?}"
    );
}

#[test]
fn unreviewed_panic_site_is_caught() {
    // A seeded query-reachable `unwrap()` with no PANIC-OK justification
    // trips TRAC027; justified and test-only sites pass.
    let sites = panics::scan_source(
        "crates/exec/src/seeded.rs",
        "fn f(v: Vec<i64>) -> i64 {\n    *v.first().unwrap()\n}\n",
    );
    assert_eq!(sites.len(), 1);
    let codes: Vec<_> = panics::check_panic_sites(&sites)
        .iter()
        .filter(|d| d.is_error())
        .map(|d| d.code.id)
        .collect();
    assert_eq!(codes, ["TRAC027"]);

    let justified = panics::scan_source(
        "ok.rs",
        "// PANIC-OK: v is non-empty by construction.\nlet x = v.first().unwrap();\n",
    );
    assert!(justified.iter().all(|s| !s.violates_discipline()));
    let test_only = panics::scan_source(
        "t.rs",
        "#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n",
    );
    assert!(test_only.iter().all(|s| !s.violates_discipline()));
}

/// Builds the production recency plan for `sql` over the paper fixture.
fn recency_plan(sql: &str) -> trac_core::RecencyPlan {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let q = bind(&txn, sql);
    trac_core::RecencyPlan::build(&txn, &q, trac_core::RelevanceConfig::default()).unwrap()
}

/// The golden `Activity` report: one subquery over Heartbeat alone.
const GOLDEN: &str =
    "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'";

/// Runs one sanitizer mutation: the production recency plan of `sql`
/// must sanitize clean; after `mutate` edits its first generated
/// subquery (handed the user query's binding of the analyzed relation),
/// the pass must report `expected` with a message containing `says`.
fn assert_sanitize_mutation(
    sql: &str,
    mutate: impl FnOnce(&mut trac_core::RecencySubquery, &BoundTable),
    expected: &str,
    says: &str,
) {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let q = bind(&txn, sql);
    let mut plan = recency_plan(sql);
    assert!(
        sanitize::run(&q, &plan, "pre").is_empty(),
        "pristine subqueries must sanitize clean"
    );
    let sub = plan
        .subqueries
        .iter_mut()
        .find(|s| s.query.is_some())
        .expect("the query must generate a subquery");
    let analyzed = q
        .tables
        .iter()
        .find(|t| t.binding == sub.via_relation)
        .unwrap()
        .clone();
    mutate(sub, &analyzed);
    let diags = sanitize::run(&q, &plan, "mut");
    assert!(
        diags
            .iter()
            .any(|d| d.is_error() && d.code.id == expected && d.message.contains(says)),
        "mutation must trip {expected} ({says}), got {diags:?}"
    );
}

#[test]
fn projecting_a_non_sid_heartbeat_column_is_caught() {
    // A rewrite that projects `H.recency` instead of `H.sid` would report
    // timestamps as source ids (TRAC004, the projection rule).
    assert_sanitize_mutation(
        GOLDEN,
        |sub, _| {
            let q = sub.query.as_mut().unwrap();
            let recency = q.tables[0].schema.column_index(HEARTBEAT_RECENCY_COL);
            q.projections = vec![Projection::Scalar {
                expr: BoundExpr::col(0, recency.unwrap()),
                name: HEARTBEAT_RECENCY_COL.into(),
            }];
        },
        "TRAC004",
        "only the Heartbeat source column",
    );
}

#[test]
fn re_joining_the_analyzed_relation_in_the_bound_query_is_caught() {
    // A bound FROM that still lists the relation under analysis means the
    // rewrite leaked it into the source-set computation (TRAC005, from
    // the bound-query leak rule; the stored plan is untouched).
    assert_sanitize_mutation(
        GOLDEN,
        |sub, analyzed| sub.query.as_mut().unwrap().tables.push(analyzed.clone()),
        "TRAC005",
        "re-joins the relation under analysis",
    );
}

#[test]
fn retargeting_a_subquery_plan_leaf_to_the_analyzed_relation_is_caught() {
    // A lowering bug that reads the analyzed relation instead of
    // Heartbeat leaks it at execution time although the bound query is
    // clean (TRAC005, from the plan-IR leak rule).
    assert_sanitize_mutation(
        GOLDEN,
        |sub, analyzed| {
            let plan = sub.plan.as_mut().unwrap();
            match relational_root(&mut plan.root) {
                PlanNode::Scan { table, .. } | PlanNode::IndexLookup { table, .. } => {
                    *table = analyzed.clone();
                }
                other => panic!("expected a Heartbeat access leaf, got {}", other.name()),
            }
        },
        "TRAC005",
        "physical plan reads the relation under analysis",
    );
}

/// Paper Q2 as a `DISTINCT` query: Routing only has to exist, so the
/// plan is `Distinct(Project(NLJoin(Exists(R), A)))`.
const EXISTS_SQL: &str =
    "SELECT DISTINCT A.mach_id FROM Routing R, Activity A WHERE R.mach_id = 'm1' AND A.value = 'idle'";

#[test]
fn wrapping_a_projected_relation_in_exists_is_caught() {
    // Keeping one tuple of the relation the projection reads would
    // report one row where the query has several (TRAC012).
    assert_mutation(
        EXISTS_SQL,
        ExecOptions::default(),
        |root| {
            let join = relational_root(root);
            let PlanNode::NLJoin { outer, .. } = &*join else {
                panic!("expected NLJoin over an Exists, got {}", join.name());
            };
            assert_eq!(outer.name(), "Exists");
            let placeholder = PlanNode::Empty { bindings: vec![] };
            let input = Box::new(std::mem::replace(join, placeholder));
            *join = PlanNode::Exists { input };
        },
        &["TRAC012"],
    );
}

#[test]
fn an_exists_with_no_distinct_above_it_is_caught() {
    // The lowering rule applied to a query without DISTINCT: every
    // A row would appear once instead of once per matching R row, so
    // the output would depend on which witness the Exists kept
    // (TRAC013). The shape check agrees with the mutated query, so only
    // the Exists contract can see it.
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let mut q = bind(&txn, EXISTS_SQL);
    let mut p = plan(&txn, &q, ExecOptions::default());
    assert!(error_codes(&q, &p).is_empty(), "{}", p.render());
    let PlanNode::Distinct { input } = p.root else {
        panic!("expected Distinct root");
    };
    p.root = *input;
    q.distinct = false;
    let diags = validate_plan(&q, &p, "mut", None);
    assert!(
        diags
            .iter()
            .any(|d| d.code.id == "TRAC013" && d.message.contains("no Distinct above")),
        "{diags:?}\n{}",
        p.render()
    );
}

#[test]
fn retargeting_the_leaf_under_an_exists_to_the_analyzed_relation_is_caught() {
    // Paper Q2 via R runs `NLJoin(Exists(Scan A), H)`: a leaf under the
    // Exists that reads R instead leaks the analyzed relation (TRAC005).
    assert_sanitize_mutation(
        "SELECT A.mach_id FROM Routing R, Activity A \
         WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        |sub, analyzed| {
            assert_eq!(sub.via_relation, "R");
            let plan = sub.plan.as_mut().unwrap();
            let PlanNode::NLJoin { outer, .. } = relational_root(&mut plan.root) else {
                panic!("expected NLJoin over an Exists:\n{}", plan.render());
            };
            let PlanNode::Exists { input } = outer.as_mut() else {
                panic!("expected Exists, got {}", outer.name());
            };
            let PlanNode::Scan { table, .. } = input.as_mut() else {
                panic!("expected a Scan under the Exists, got {}", input.name());
            };
            *table = analyzed.clone();
        },
        "TRAC005",
        "physical plan reads the relation under analysis",
    );
}

#[test]
fn silent_change_stream_path_is_caught() {
    // A storage mutation path that commits without publishing its typed
    // change event would let a delta-maintained report diverge from a
    // rescan with no fold ever seeing the write (TRAC028). The second
    // seed is a raw heartbeat-table write (SQL DML) that escapes the
    // stream: a report would fold past a recency change no monotone
    // upsert explains.
    for expected in [&["heartbeat-upsert"], &["heartbeat-dml"]] {
        let obs = [trac_storage::changelog::StreamObservation {
            name: "seeded: write path skips publication",
            expected,
            published: vec![],
        }];
        let codes: Vec<_> = maintain::check_stream_observations(&obs)
            .iter()
            .filter(|d| d.is_error())
            .map(|d| d.code.id)
            .collect();
        assert_eq!(codes, ["TRAC028"], "{expected:?}");
    }
}

#[test]
fn forged_maintenance_license_is_caught() {
    // Upgrading a sid-equality subquery's claim to heartbeat-only would
    // make the fold ignore witness-relation inserts that nominate new
    // members (TRAC029); the pristine plan's claims must re-derive.
    let mut plan = recency_plan(
        "SELECT A.mach_id FROM Routing R, Activity A \
         WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
    );
    assert!(
        maintain::run(&plan, "pre").iter().all(|d| !d.is_error()),
        "pristine claims must re-derive"
    );
    let sub = plan
        .subqueries
        .iter_mut()
        .find(|s| s.maintenance.kind() == "sid-equality")
        .expect("join query must license a sid-equality fold");
    sub.maintenance = trac_plan::MaintenanceLicense::HeartbeatOnly;
    let codes: Vec<_> = maintain::run(&plan, "mut")
        .iter()
        .filter(|d| d.is_error())
        .map(|d| d.code.id)
        .collect();
    assert!(codes.contains(&"TRAC029"), "got {codes:?}");
}

#[test]
fn rescan_only_license_is_noted_with_its_reason() {
    // Three relations in one disjunct put two on the witness side of
    // every generated subquery — not locally decidable from an insert
    // event, so the production classifier licenses rescan-only and the
    // pass records the forced-rescan fallback (TRAC030, a note).
    let plan = recency_plan(
        "SELECT A.mach_id FROM Routing R, Activity A, Routing R2 \
         WHERE R.neighbor = A.mach_id AND R2.mach_id = A.mach_id AND A.value = 'idle'",
    );
    let diags = maintain::run(&plan, "three-way");
    assert!(
        diags.iter().all(|d| !d.is_error()),
        "rescan-only is sound, not an error: {diags:?}"
    );
    let note = diags
        .iter()
        .find(|d| d.code.id == "TRAC030")
        .expect("rescan license must be recorded");
    assert!(
        note.message
            .contains("witness side spans multiple relations"),
        "{note:?}"
    );
}

#[test]
fn production_maintenance_audit_is_clean() {
    // The committed change stream and every sample plan's license claims
    // must pass their own certification, recording the three positive
    // proofs (TRAC028 coverage, TRAC029 re-derivation, TRAC030 census).
    let diags = trac_analyze::analyze_maintenance().unwrap();
    assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    for code in ["TRAC028", "TRAC029", "TRAC030"] {
        assert!(
            diags.iter().any(|d| d.code.id == code),
            "a clean audit must record its {code} certification: {diags:?}"
        );
    }
}

#[test]
fn production_panic_audit_is_clean() {
    // The committed sources must pass their own discipline: every
    // query-reachable panic site is either converted to a TracError or
    // carries a reviewed PANIC-OK justification.
    let diags = trac_analyze::analyze_panic_paths().unwrap();
    assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.code.id == "TRAC027"),
        "a clean audit must record its positive certification: {diags:?}"
    );
}
