//! Differential test: planner + columnar executor vs a naive reference
//! evaluator.
//!
//! The reference evaluator shares no code with the executor: it
//! materializes the full cross product of the FROM list, keeps tuples
//! whose predicate evaluates to `TRUE` (evaluation errors count as "not
//! true"), stable-sorts them by the ORDER BY keys under `Value`'s own
//! total order, projects, then keeps the first occurrence of each row
//! for `DISTINCT`. Random SPJ/aggregate queries over random instances
//! with NULLs must produce, through `plan_select` + the executor, the
//! reference's rows group by group: each run of equal sort keys as a
//! multiset, in key order, and under `LIMIT` a prefix whose last group
//! may be partial (tied rows may come in any order).
//!
//! Every generated plan is additionally certified by the translation
//! validator: the planner must never emit a plan the abstract-domain
//! dataflow walk cannot prove faithful to the bound query.
//!
//! On top of the serial differential, every generated query re-runs
//! under the morsel-driven parallel path at `threads ∈ {2, 8}` (the
//! serial `threads = 1` result being the baseline) with a morsel size
//! small enough to split even these tiny tables. The parallel rows must
//! be **byte-identical** to the serial rows — not merely multiset-equal
//! — because the morsel route merges morsel outputs in morsel-index
//! order; this covers ordered plans (where byte-identity is
//! semantically required) and exceeds the multiset requirement for
//! unordered ones.
//!
//! A recency arm runs the stored plan of every recency subquery a
//! generated join query yields and checks its source set against the
//! reference evaluation of the subquery's bound form.
//!
//! Two typed-kernel arms close the loop on the lane certificates: the
//! main workload re-runs with `typed_kernels: false` (the boxed `Value`
//! path as byte-level reference over NULL-heavy INT columns), and a
//! dedicated float workload feeds a nullable FLOAT column NULLs *and*
//! NaN — which has no SQL literal and enters through the storage write
//! path, exactly as a malformed distributed source would deliver it.

use proptest::prelude::*;
use trac::exec::{execute_select, execute_select_with, execute_statement};
use trac::expr::{bind_select, eval_expr, eval_predicate, BoundSelect, Projection, Truth};
use trac::sql::parse_select;
use trac::storage::{Database, ReadTxn, Row};
use trac::types::Value;

const SIDS: [&str; 4] = ["s0", "s1", "s2", "s3"];

/// `n = 4` encodes NULL so instances exercise three-valued logic.
fn int_cell(n: usize) -> String {
    if n == 4 {
        "NULL".to_string()
    } else {
        n.to_string()
    }
}

fn setup(t_rows: &[(usize, usize)], u_rows: &[(usize, usize)]) -> Database {
    let db = Database::new();
    execute_statement(
        &db,
        "CREATE TABLE t (s TEXT NOT NULL, n INT) SOURCE COLUMN s",
    )
    .unwrap();
    execute_statement(
        &db,
        "CREATE TABLE u (v TEXT NOT NULL, m INT) SOURCE COLUMN v",
    )
    .unwrap();
    execute_statement(&db, "CREATE INDEX ti ON t (s)").unwrap();
    execute_statement(&db, "CREATE INDEX ui ON u (v)").unwrap();
    for &(s, n) in t_rows {
        execute_statement(
            &db,
            &format!("INSERT INTO t VALUES ('{}', {})", SIDS[s], int_cell(n)),
        )
        .unwrap();
    }
    for &(v, m) in u_rows {
        execute_statement(
            &db,
            &format!("INSERT INTO u VALUES ('{}', {})", SIDS[v], int_cell(m)),
        )
        .unwrap();
    }
    db
}

/// Predicate atoms over the given qualified column names; `text_cols`
/// and `int_cols` index into `cols`.
fn atom_strategy(
    text_cols: Vec<&'static str>,
    int_cols: Vec<&'static str>,
) -> BoxedStrategy<String> {
    let tc = text_cols.clone();
    let tc2 = text_cols;
    let ic = int_cols.clone();
    let ic2 = int_cols.clone();
    let ic3 = int_cols;
    prop_oneof![
        ((0..tc.len()), 0..4usize).prop_map(move |(c, s)| format!("{} = '{}'", tc[c], SIDS[s])),
        (0..tc2.len()).prop_map(move |c| format!("{} IN ('s0', 's2')", tc2[c])),
        ((0..ic.len()), 0..4i64).prop_map(move |(c, k)| format!("{} = {k}", ic[c])),
        ((0..ic2.len()), 0..4i64).prop_map(move |(c, k)| format!("{} < {k}", ic2[c])),
        ((0..ic3.len()), any::<bool>()).prop_map(move |(c, not)| {
            format!("{} IS {}NULL", ic3[c], if not { "NOT " } else { "" })
        }),
    ]
    .boxed()
}

fn pred_strategy(atoms: BoxedStrategy<String>) -> BoxedStrategy<String> {
    atoms.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} AND {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} OR {b})")),
            inner.prop_map(|a| format!("NOT ({a})")),
        ]
    })
}

/// SELECT list for a given column pool: a non-empty column subset or
/// `COUNT(*)`, with optional DISTINCT.
fn shape_query(cols: &[&str], picked: Vec<&str>, count: bool, distinct: bool) -> String {
    if count {
        return "SELECT COUNT(*)".to_string();
    }
    let picked = if picked.is_empty() {
        vec![cols[0]]
    } else {
        picked
    };
    format!(
        "SELECT {}{}",
        if distinct { "DISTINCT " } else { "" },
        picked.join(", ")
    )
}

fn single_table_query() -> BoxedStrategy<String> {
    const COLS: [&str; 2] = ["s", "n"];
    let atoms = atom_strategy(vec!["s"], vec!["n"]);
    (
        pred_strategy(atoms),
        proptest::sample::subsequence(COLS.to_vec(), 0..=2),
        any::<bool>(),
        any::<bool>(),
        // `ORDER BY s LIMIT k` lowers to the TopNIndex fast path (s is
        // indexed and NOT NULL), so the differential also covers the
        // ordered-index walk against the general Sort+Limit pipeline.
        (
            any::<bool>(),
            prop_oneof![Just(None), (1..4u64).prop_map(Some)],
        ),
    )
        .prop_map(|(pred, picked, count, distinct, (order, limit))| {
            let head = shape_query(&COLS, picked, count, distinct);
            let tail = match (order && !count, limit) {
                (true, Some(k)) => format!(" ORDER BY s LIMIT {k}"),
                (true, None) => " ORDER BY s".to_string(),
                _ => String::new(),
            };
            format!("{head} FROM t WHERE {pred}{tail}")
        })
        .boxed()
}

fn join_query() -> BoxedStrategy<String> {
    const COLS: [&str; 4] = ["a.s", "a.n", "b.v", "b.m"];
    let atoms = prop_oneof![
        3 => atom_strategy(vec!["a.s", "b.v"], vec!["a.n", "b.m"]),
        1 => Just("a.s = b.v".to_string()),
        1 => Just("a.n = b.m".to_string()),
    ]
    .boxed();
    (
        pred_strategy(atoms),
        proptest::sample::subsequence(COLS.to_vec(), 0..=3),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(pred, picked, count, distinct, order)| {
            let head = shape_query(&COLS, picked, count, distinct);
            let tail = if order && !count { " ORDER BY a.s" } else { "" };
            format!("{head} FROM t a, u b WHERE {pred}{tail}")
        })
        .boxed()
}

fn query_strategy() -> BoxedStrategy<String> {
    prop_oneof![single_table_query(), join_query()].boxed()
}

/// The naive evaluator: cross product, filter, stable sort by the ORDER
/// BY keys, project, dedup. Returns the output rows split into runs of
/// equal sort key, in key order (a query without ORDER BY is one run);
/// LIMIT is left to [`check_against_reference`].
fn reference_eval(txn: &ReadTxn, q: &BoundSelect) -> Vec<Vec<Vec<Value>>> {
    let mut tuples: Vec<Vec<Row>> = vec![Vec::new()];
    for t in &q.tables {
        let rows = txn.scan(t.id).unwrap();
        let mut next = Vec::new();
        for tuple in &tuples {
            for row in &rows {
                let mut extended = tuple.clone();
                extended.push(row.clone());
                next.push(extended);
            }
        }
        tuples = next;
    }
    let filtered: Vec<Vec<Row>> = tuples
        .into_iter()
        .filter(|tuple| match &q.predicate {
            None => true,
            Some(p) => matches!(eval_predicate(p, tuple), Ok(Truth::True)),
        })
        .collect();
    if q.is_aggregate() {
        // The generator only emits COUNT(*).
        assert!(matches!(
            q.projections.as_slice(),
            [Projection::Aggregate { arg: None, .. }]
        ));
        return vec![vec![vec![Value::Int(
            i64::try_from(filtered.len()).unwrap(),
        )]]];
    }
    // (sort key, projected row) pairs, stably sorted by key.
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = filtered
        .iter()
        .map(|tuple| {
            let key = q
                .order_by
                .iter()
                .map(|(e, _)| eval_expr(e, tuple).unwrap())
                .collect();
            let row = q
                .projections
                .iter()
                .map(|p| match p {
                    Projection::Scalar { expr, .. } => eval_expr(expr, tuple).unwrap(),
                    Projection::Aggregate { .. } => unreachable!(),
                })
                .collect();
            (key, row)
        })
        .collect();
    let key_order = |a: &[Value], b: &[Value]| {
        a.iter()
            .zip(b)
            .zip(&q.order_by)
            .map(|((x, y), (_, desc))| if *desc { y.cmp(x) } else { x.cmp(y) })
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    keyed.sort_by(|a, b| key_order(&a.0, &b.0));
    if q.distinct {
        let mut seen: Vec<Vec<Value>> = Vec::new();
        keyed.retain(|(_, row)| {
            if seen.contains(row) {
                false
            } else {
                seen.push(row.clone());
                true
            }
        });
    }
    let mut groups: Vec<(Vec<Value>, Vec<Vec<Value>>)> = Vec::new();
    for (key, row) in keyed {
        match groups.last_mut() {
            Some((k, rows)) if key_order(k, &key).is_eq() => rows.push(row),
            _ => groups.push((key, vec![row])),
        }
    }
    groups.into_iter().map(|(_, rows)| rows).collect()
}

/// Checks the executor's rows against the reference's key groups: the
/// rows must walk the groups in order, each group as a multiset, and
/// under `limit` only the first `limit` rows are due, so the last group
/// reached may be partial (any of its rows may make the cut).
fn check_against_reference(
    got: &[Vec<Value>],
    groups: &[Vec<Vec<Value>>],
    limit: Option<u64>,
) -> std::result::Result<(), String> {
    let total: usize = groups.iter().map(Vec::len).sum();
    let due = limit.map_or(total, |n| total.min(usize::try_from(n).unwrap()));
    if got.len() != due {
        return Err(format!("{} rows, reference has {due}", got.len()));
    }
    let mut rest = got;
    for (i, group) in groups.iter().enumerate() {
        let (chunk, tail) = rest.split_at(group.len().min(rest.len()));
        let mut pool = group.clone();
        for row in chunk {
            match pool.iter().position(|r| r == row) {
                Some(at) => {
                    pool.swap_remove(at);
                }
                None => {
                    return Err(format!(
                        "row {row:?} is not in key group {i} of the reference: {group:?}"
                    ))
                }
            }
        }
        rest = tail;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn streaming_executor_matches_naive_reference(
        t_rows in proptest::collection::vec((0..4usize, 0..5usize), 0..8),
        u_rows in proptest::collection::vec((0..4usize, 0..5usize), 0..6),
        sql in query_strategy(),
    ) {
        let db = setup(&t_rows, &u_rows);
        let txn = db.begin_read();
        let bound = bind_select(&txn, &parse_select(&sql).unwrap()).unwrap();
        // Translation validation: every plan the planner produces for a
        // generated query must certify cleanly.
        let plan = trac::plan::plan_select(&txn, &bound, trac::plan::ExecOptions::default())
            .unwrap();
        let findings = trac::analyze::validate_plan(&bound, &plan, "differential", None);
        prop_assert!(
            findings.is_empty(),
            "planner plan failed validation for {}:\n{}\nplan:\n{}",
            &sql,
            findings
                .iter()
                .map(trac::analyze::Diagnostic::render)
                .collect::<Vec<_>>()
                .join("\n"),
            plan.render()
        );
        let serial = execute_select(&txn, &bound).unwrap().rows;
        if let Err(why) =
            check_against_reference(&serial, &reference_eval(&txn, &bound), bound.limit)
        {
            return Err(TestCaseError::fail(format!(
                "reference and default executor disagree for {sql}: {why}"
            )));
        }
        // Typed-kernel differential: disabling the lane certificates
        // forces every filter, join, and aggregate through the boxed
        // `Value` reference path; the unboxed `IntVec`/`TextVec` kernels
        // the certificates admit must be byte-identical. The `n`/`m`
        // columns are NULL-heavy (one cell value in five encodes NULL),
        // so this arm leans on the certified null bitmaps (TRAC025).
        let boxed_opts = trac::plan::ExecOptions {
            typed_kernels: false,
            ..Default::default()
        };
        let boxed = execute_select_with(&txn, &bound, boxed_opts).unwrap().0.rows;
        prop_assert_eq!(
            &serial,
            &boxed,
            "typed kernels diverge from the boxed reference for {}",
            &sql
        );
        // Fast-path differential: disabling the certified shortcuts must
        // not change a single byte — the shortcut and the general
        // pipeline share tie order (index postings keep insertion order
        // within a key, exactly the stable sort's tie order).
        let general_opts = trac::plan::ExecOptions {
            fast_paths: false,
            ..Default::default()
        };
        let general = execute_select_with(&txn, &bound, general_opts).unwrap().0.rows;
        prop_assert_eq!(
            &serial,
            &general,
            "fast-path plan changes results for {}",
            &sql
        );
        // Parallel differential: byte-identical to the serial rows under
        // every thread count, for both a splitting and a default morsel.
        for threads in [2usize, 8] {
            for batch in [2usize, 1024] {
                let opts = trac::plan::ExecOptions::default().with_parallelism(threads, batch);
                let parallel = execute_select_with(&txn, &bound, opts).unwrap().0.rows;
                prop_assert_eq!(
                    &serial,
                    &parallel,
                    "parallel (threads={}, batch={}) diverges from serial for {}",
                    threads,
                    batch,
                    &sql
                );
            }
        }
        // Stats-mutation differential: skewing the catalog statistics
        // may flip access paths, join orders, and fast-path decisions —
        // never the result. Access-path changes can legitimately change
        // the *order* unsorted rows stream in (a probe returns key
        // order, a scan slot order), so the claim here is multiset
        // equality; byte-identity per plan is covered above.
        let mut baseline = serial;
        baseline.sort();
        for skew_rows in [0u64, 1_000_000] {
            for t in &bound.tables {
                db.update_table_stats(t.id, |s| {
                    s.rows = skew_rows;
                    for c in &mut s.columns {
                        c.nulls = if skew_rows == 0 { u64::MAX } else { 0 };
                    }
                });
            }
            let txn2 = db.begin_read();
            for opts in [
                trac::plan::ExecOptions::default(),
                trac::plan::ExecOptions {
                    cost_based_join_order: true,
                    ..Default::default()
                },
            ] {
                let mut skewed = execute_select_with(&txn2, &bound, opts).unwrap().0.rows;
                skewed.sort();
                prop_assert_eq!(
                    &baseline,
                    &skewed,
                    "stats skew (rows={}) changed results for {}",
                    skew_rows,
                    &sql
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Recency-plan differential: every generated subquery of a join
    /// query runs its stored, certified plan (headed by an `Exists` when
    /// a relation only has to hold one matching row), and each must
    /// return the source set the naive reference computes for the
    /// subquery's bound form, serial and on four threads.
    #[test]
    fn stored_recency_plans_match_the_reference(
        t_rows in proptest::collection::vec((0..4usize, 0..5usize), 0..8),
        u_rows in proptest::collection::vec((0..4usize, 0..5usize), 0..6),
        beats in proptest::sample::subsequence(vec![0usize, 1, 2, 3], 0..=4),
        sql in join_query(),
    ) {
        use trac::core::{RecencyPlan, RelevanceConfig};
        use trac::types::{SourceId, Timestamp};
        let db = setup(&t_rows, &u_rows);
        db.with_write(|w| {
            for sid in &beats {
                w.heartbeat(&SourceId::new(SIDS[*sid]), Timestamp::from_micros(1_000_000))?;
            }
            Ok(())
        })
        .unwrap();
        let txn = db.begin_read();
        let bound = bind_select(&txn, &parse_select(&sql).unwrap()).unwrap();
        for opts in [
            trac::plan::ExecOptions::default(),
            trac::plan::ExecOptions::default().with_parallelism(4, 2),
        ] {
            let plan = RecencyPlan::build_with(&txn, &bound, RelevanceConfig::default(), opts)
                .unwrap();
            for sub in &plan.subqueries {
                let (Some(query), Some(stored)) = (&sub.query, &sub.plan) else {
                    continue;
                };
                let want: std::collections::BTreeSet<Value> = reference_eval(&txn, query)
                    .into_iter()
                    .flatten()
                    .map(|row| row[0].clone())
                    .collect();
                let got: std::collections::BTreeSet<Value> =
                    trac::exec::execute_plan_with(&txn, stored, opts)
                        .unwrap()
                        .rows
                        .into_iter()
                        .map(|row| row[0].clone())
                        .collect();
                prop_assert_eq!(
                    &got,
                    &want,
                    "stored plan of {} (threads={}) disagrees with the reference:\n{}",
                    sub.sql(),
                    opts.threads,
                    stored.render()
                );
            }
        }
    }
}

/// INT = FLOAT equi-joins compare under SQL's numeric widening (`2 =
/// 2.0` is TRUE), which `Value` identity does not share: a hash bucket or
/// an index key ranks `Int(2)` and `Float(2.0)` apart, and re-applying
/// the conjunct afterwards cannot restore a dropped match. Every join
/// strategy the options can select, without and then with indexes on
/// both key columns (the index-nested-loop shape), must agree with the
/// reference, and the widened matches must be there.
#[test]
fn int_float_equi_joins_match_the_reference() {
    let db = Database::new();
    for sql in [
        "CREATE TABLE a (s TEXT NOT NULL, k INT) SOURCE COLUMN s",
        "CREATE TABLE b (s TEXT NOT NULL, x FLOAT) SOURCE COLUMN s",
        "INSERT INTO a VALUES ('s0', 2)",
        "INSERT INTO a VALUES ('s1', 3)",
        "INSERT INTO a VALUES ('s2', NULL)",
        "INSERT INTO b VALUES ('s0', 2.0)",
        "INSERT INTO b VALUES ('s1', 2.5)",
        "INSERT INTO b VALUES ('s2', 3.0)",
    ] {
        execute_statement(&db, sql).unwrap();
    }
    let queries = [
        "SELECT COUNT(*) FROM a, b WHERE a.k = b.x",
        "SELECT a.s, b.s FROM a, b WHERE b.x = a.k",
        "SELECT b.s, a.k FROM b, a WHERE a.k = b.x",
    ];
    let arms = [
        trac::plan::ExecOptions::default(),
        trac::plan::ExecOptions {
            enable_index_scan: false,
            ..Default::default()
        },
        trac::plan::ExecOptions {
            enable_hash_join: false,
            ..Default::default()
        },
    ];
    for indexed in [false, true] {
        if indexed {
            execute_statement(&db, "CREATE INDEX ak ON a (k)").unwrap();
            execute_statement(&db, "CREATE INDEX bx ON b (x)").unwrap();
        }
        let txn = db.begin_read();
        for sql in queries {
            let bound = bind_select(&txn, &parse_select(sql).unwrap()).unwrap();
            let groups = reference_eval(&txn, &bound);
            let due: usize = groups.iter().map(Vec::len).sum();
            if bound.is_aggregate() {
                assert_eq!(groups, vec![vec![vec![Value::Int(2)]]], "{sql}");
            } else {
                assert_eq!(due, 2, "the reference finds both widened matches: {sql}");
            }
            for opts in arms {
                let got = execute_select_with(&txn, &bound, opts).unwrap().0.rows;
                if let Err(e) = check_against_reference(&got, &groups, None) {
                    panic!("indexed={indexed} {opts:?}: {sql}: {e}");
                }
            }
        }
    }
}

/// An index must never change an answer. Probe keys and keyed joins
/// match on `Value` identity, while SQL `=` equates `Int(2)` with
/// `Float(2.0)` and `0.0` with `-0.0`: a FLOAT literal probing an INT
/// index, an INT or FLOAT literal probing a FLOAT column holding `-0.0`,
/// and a FLOAT = FLOAT join across the two zeros must all return the
/// rows the unindexed plan and the reference return. `2⁵³ + 1` sits
/// where an integral float equals two integers at once.
#[test]
fn indexes_never_change_an_answer() {
    let db = Database::new();
    for sql in [
        "CREATE TABLE c (s TEXT NOT NULL, z INT) SOURCE COLUMN s",
        "CREATE TABLE f (s TEXT NOT NULL, y FLOAT) SOURCE COLUMN s",
        "CREATE TABLE g (s TEXT NOT NULL, w FLOAT) SOURCE COLUMN s",
        "INSERT INTO c VALUES ('s0', 2)",
        "INSERT INTO c VALUES ('s1', 7)",
        "INSERT INTO c VALUES ('s2', 0)",
        "INSERT INTO c VALUES ('s3', NULL)",
        "INSERT INTO c VALUES ('s4', 9007199254740992)",
        "INSERT INTO c VALUES ('s5', 9007199254740993)",
        "INSERT INTO g VALUES ('s0', 0.0)",
        "INSERT INTO g VALUES ('s1', 1.5)",
    ] {
        execute_statement(&db, sql).unwrap();
    }
    // `-0.0` has no SQL literal; it enters through the write path.
    let f = db.begin_read().table_id("f").unwrap();
    db.with_write(|w| {
        for (s, y) in [("s0", -0.0), ("s1", 1.5), ("s2", 2.0)] {
            w.insert(f, vec![Value::text(s), Value::Float(y)])?;
        }
        Ok(())
    })
    .unwrap();
    // (query, reference row count)
    let queries = [
        ("SELECT COUNT(*) FROM c WHERE c.z = 2.0", 1),
        ("SELECT c.s FROM c WHERE c.z = 2.0", 1),
        ("SELECT c.s FROM c WHERE c.z IN (2.0, 7)", 2),
        ("SELECT c.s FROM c WHERE c.z IN (2.5, -0.0)", 1),
        ("SELECT c.s FROM c WHERE c.z = 2.5", 0),
        ("SELECT c.s FROM c WHERE c.z = 9007199254740992.0", 2),
        ("SELECT c.s FROM c WHERE 7.0 = c.z", 1),
        ("SELECT f.s FROM f WHERE f.y = 0.0", 1),
        ("SELECT f.s FROM f WHERE f.y = 0", 1),
        ("SELECT f.s FROM f WHERE f.y IN (0, 2)", 2),
        ("SELECT f.s, g.s FROM f, g WHERE f.y = g.w", 2),
        ("SELECT g.s, f.s FROM g, f WHERE f.y = g.w", 2),
        ("SELECT c.s, f.s FROM c, f WHERE c.z = f.y", 2),
    ];
    let arms = [
        trac::plan::ExecOptions::default(),
        trac::plan::ExecOptions {
            enable_hash_join: false,
            ..Default::default()
        },
    ];
    let mut unindexed: Vec<Vec<Vec<Value>>> = Vec::new();
    for indexed in [false, true] {
        if indexed {
            execute_statement(&db, "CREATE INDEX cz ON c (z)").unwrap();
            execute_statement(&db, "CREATE INDEX fy ON f (y)").unwrap();
            execute_statement(&db, "CREATE INDEX gw ON g (w)").unwrap();
        }
        let txn = db.begin_read();
        for (i, (sql, due)) in queries.into_iter().enumerate() {
            let bound = bind_select(&txn, &parse_select(sql).unwrap()).unwrap();
            let groups = reference_eval(&txn, &bound);
            if bound.is_aggregate() {
                assert_eq!(groups, vec![vec![vec![Value::Int(due)]]], "{sql}");
            } else {
                let found: usize = groups.iter().map(Vec::len).sum();
                assert_eq!(found as i64, due, "reference rows for {sql}");
            }
            for opts in arms {
                let plan = trac::plan::plan_select(&txn, &bound, opts).unwrap();
                let findings = trac::analyze::validate_plan(&bound, &plan, "differential", None);
                assert!(findings.is_empty(), "{sql}: {}", plan.render());
                let got = execute_select_with(&txn, &bound, opts).unwrap().0.rows;
                if let Err(e) = check_against_reference(&got, &groups, None) {
                    panic!("indexed={indexed} {opts:?}: {sql}: {e}\n{}", plan.render());
                }
                if indexed {
                    let mut sorted = got.clone();
                    sorted.sort();
                    assert_eq!(sorted, unindexed[i], "index changed the rows of {sql}");
                } else if opts == trac::plan::ExecOptions::default() {
                    let mut sorted = got;
                    sorted.sort();
                    unindexed.push(sorted);
                }
            }
        }
    }
}

/// Runs `sql` as a report and as a plain query in `session`, and checks
/// both against a fresh session with the same settings: rows, member
/// pairs and guarantee, and the plan the session keeps for `sql`
/// against a fresh lowering under its options (for the default options
/// that is `explain_select`).
fn assert_cached_equals_fresh(session: &trac::core::Session, db: &Database, sql: &str, when: &str) {
    let cached = session.recency_report(sql).unwrap();
    let plain = session.query(sql).unwrap();
    let mut fresh = trac::core::Session::new(db.clone());
    fresh.exec_options = session.exec_options;
    fresh.relevance_config = session.relevance_config;
    let expected = fresh.recency_report(sql).unwrap();
    let at = format!("{when}, threads={}: {sql}", session.exec_options.threads);
    assert_eq!(cached.result.rows, expected.result.rows, "report rows {at}");
    assert_eq!(plain.rows, expected.result.rows, "plain rows {at}");
    assert_eq!(cached.report.normal, expected.report.normal, "normal {at}");
    assert_eq!(
        cached.report.exceptional, expected.report.exceptional,
        "exceptional {at}"
    );
    assert_eq!(
        cached.report.guarantee, expected.report.guarantee,
        "guarantee {at}"
    );
    let txn = db.begin_read();
    let bound = bind_select(&txn, &parse_select(sql).unwrap()).unwrap();
    let default = trac::plan::ExecOptions::default();
    let opts = trac::plan::ExecOptions {
        threads: default.threads,
        batch_size: default.batch_size,
        ..session.exec_options
    };
    let plan = if opts == default {
        trac::exec::explain_select(&txn, &bound).unwrap()
    } else {
        trac::plan::plan_select(&txn, &bound, opts).unwrap()
    };
    assert_eq!(session.cached_plan(sql), Some(plan.render()), "plan {at}");
}

/// Prepared-statement arm: a session that keeps each statement's bound
/// form, lowered plan and recency plan must answer exactly like a
/// fresh session after every change that could stale them — a NULL
/// that breaks a `non_null` proof, a NaN that breaks the `nan_free`
/// proof behind `IndexMinMax`, a new index, a dropped and re-created
/// table, a relevance-config change, a plan-shaping knob, and a
/// pending report table named by a statement run twice.
#[test]
fn cached_statements_equal_fresh_ones() {
    use trac::core::Session;
    use trac::types::{SourceId, Timestamp};
    const SETUP: [&str; 9] = [
        "CREATE TABLE t (s TEXT NOT NULL, n INT, f FLOAT) SOURCE COLUMN s",
        "CREATE TABLE u (v TEXT NOT NULL, m INT) SOURCE COLUMN v",
        "CREATE INDEX ts ON t (s)",
        "CREATE INDEX tf ON t (f)",
        "INSERT INTO t VALUES ('s0', 1, 0.5)",
        "INSERT INTO t VALUES ('s1', 2, 2.5)",
        "INSERT INTO t VALUES ('s2', 3, -1.0)",
        "INSERT INTO u VALUES ('s1', 1)",
        "INSERT INTO u VALUES ('s2', 5)",
    ];
    const QUERIES: [&str; 5] = [
        "SELECT s, n FROM t WHERE n > 1",
        "SELECT MAX(f) FROM t",
        "SELECT COUNT(*) FROM t WHERE s IN ('s0', 's2') AND n IS NOT NULL",
        "SELECT t.s, u.m FROM t, u WHERE t.s = u.v AND u.m < 3",
        "SELECT s FROM t WHERE f > 0.0 OR n = 3",
    ];
    for threads in [1, 4] {
        let db = Database::new();
        for sql in SETUP {
            execute_statement(&db, sql).unwrap();
        }
        db.with_write(|w| {
            for (i, s) in SIDS.iter().enumerate() {
                w.heartbeat(&SourceId::new(*s), Timestamp::from_secs(100 + i as i64))?;
            }
            Ok(())
        })
        .unwrap();
        let mut session = Session::new(db.clone());
        session.exec_options = trac::plan::ExecOptions::default().with_parallelism(threads, 1024);
        let check_all = |session: &Session, when: &str| {
            for sql in QUERIES {
                assert_cached_equals_fresh(session, &db, sql, when);
            }
        };
        check_all(&session, "warm-up");
        check_all(&session, "warm");
        let t = db.begin_read().table_id("t").unwrap();
        db.with_write(|w| w.insert(t, vec![Value::text("s3"), Value::Null, Value::Float(1.5)]))
            .unwrap();
        check_all(&session, "after a NULL insert");
        let max_plan = |session: &Session| session.cached_plan(QUERIES[1]).unwrap();
        assert!(
            max_plan(&session).contains("IndexMinMax"),
            "{}",
            max_plan(&session)
        );
        db.with_write(|w| {
            w.insert(
                t,
                vec![Value::text("s0"), Value::Int(4), Value::Float(f64::NAN)],
            )
        })
        .unwrap();
        check_all(&session, "after a NaN insert");
        assert!(
            !max_plan(&session).contains("IndexMinMax"),
            "{}",
            max_plan(&session)
        );
        execute_statement(&db, "CREATE INDEX tn ON t (n)").unwrap();
        check_all(&session, "after CREATE INDEX");
        execute_statement(&db, "DROP TABLE u").unwrap();
        execute_statement(
            &db,
            "CREATE TABLE u (v TEXT NOT NULL, m INT) SOURCE COLUMN v",
        )
        .unwrap();
        execute_statement(&db, "INSERT INTO u VALUES ('s0', 2)").unwrap();
        check_all(&session, "after DROP and CREATE");
        session.relevance_config.dnf_budget = 1;
        check_all(&session, "after a relevance-config change");
        session.exec_options.enable_index_scan = false;
        check_all(&session, "after a knob flip");
        session.exec_options.enable_index_scan = true;
        let report = session.recency_report(QUERIES[0]).unwrap();
        let named = format!("SELECT sid FROM {}", report.normal_table());
        for _ in 0..3 {
            assert_cached_equals_fresh(&session, &db, &named, "naming a pending report table");
        }
        let stats = session.statement_stats();
        assert!(
            stats.hits > 0 && stats.relowers > 0 && stats.rebinds > 0,
            "{stats:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Explorer-based differential: generated workloads run under the
    /// deterministic interleaving explorer at `threads ∈ {2, 4}` over a
    /// small seed set. Every explored schedule must produce rows
    /// byte-identical to the serial baseline, and the session plan
    /// cache must agree with the uncached path: a report served from a
    /// cached prepared plan returns the same rows as a cold report and
    /// as a direct (never-cached) execution.
    #[test]
    fn explored_interleavings_agree_with_serial(
        t_rows in proptest::collection::vec((0..4usize, 0..5usize), 1..8),
        u_rows in proptest::collection::vec((0..4usize, 0..5usize), 0..6),
        sql in query_strategy(),
    ) {
        let db = setup(&t_rows, &u_rows);
        let txn = db.begin_read();
        let bound = bind_select(&txn, &parse_select(&sql).unwrap()).unwrap();
        let serial = execute_select(&txn, &bound).unwrap().rows;
        for threads in [2usize, 4] {
            for seed in [1u64, 2] {
                let opts = trac::plan::ExecOptions::default().with_parallelism(threads, 2);
                let report = trac::exec::schedule::explore(
                    trac::exec::schedule::Strategy::Random { seed, schedules: 2 },
                    |_ctl| {
                        let rows = execute_select_with(&txn, &bound, opts)
                            .map_err(|e| e.to_string())?
                            .0
                            .rows;
                        if rows == serial {
                            Ok(())
                        } else {
                            Err(format!(
                                "threads={threads} seed={seed}: explored schedule \
                                 diverges from serial for {sql}"
                            ))
                        }
                    },
                );
                prop_assert!(report.is_clean(), "{:?}", report.failure);
            }
        }
        drop(txn);
        // Cache on/off agreement: cold report (miss), cached report
        // (hit), and the uncached direct path must return identical rows.
        let session = trac::core::Session::new(db);
        let cold = session.recency_report(&sql).unwrap().result.rows;
        let cached = session.recency_report(&sql).unwrap().result.rows;
        let uncached = session.query(&sql).unwrap().rows;
        prop_assert_eq!(&cold, &serial, "cold report diverges for {}", &sql);
        prop_assert_eq!(&cached, &serial, "cached report diverges for {}", &sql);
        prop_assert_eq!(&uncached, &serial, "uncached path diverges for {}", &sql);
        let stats = session.plan_cache_stats();
        prop_assert!(stats.hits >= 1, "second report must hit the plan cache");
    }
}

/// One step of a generated maintenance history (see
/// [`delta_maintained_reports_match_rescans`]).
#[derive(Debug, Clone)]
enum DeltaOp {
    /// Heartbeat upsert for `SIDS[sid]` at `micros` (possibly stale —
    /// the monotone upsert must no-op, and so must the fold).
    Heartbeat { sid: usize, micros: i64 },
    /// Source-attributed ingest: heartbeat leg plus a `t` row, one
    /// transaction (both change events fold together).
    Ingest { sid: usize, n: usize, micros: i64 },
    /// Plain SQL insert into `t` (no heartbeat leg): a witness row for
    /// a source that may have no heartbeat yet.
    SqlInsert { sid: usize, n: usize },
    /// SQL delete from `t`: non-monotone, must force a re-registration.
    Delete { n: usize },
    /// Report and compare delta vs rescan.
    Report,
    /// Registration/fold racing an uncommitted writer: publish a
    /// heartbeat event, report while it is in flight (both paths must
    /// exclude it), commit, report again (both must include it).
    BlockedReport { sid: usize, micros: i64 },
    /// Two writers in flight at once both heartbeat `SIDS[sid]` (which
    /// may be new); the second offers `micros + 1`. Heartbeat rows are
    /// first-writer-wins, so the second may fail with a write-write
    /// conflict and abort. A report runs while both are in flight, then
    /// the survivors finish in the order `order` picks (0: first then
    /// second commit, 1: second then first, 2: first aborts, 3: second
    /// aborts), with a report after each step.
    RacingBeats {
        sid: usize,
        micros: i64,
        order: usize,
    },
}

fn delta_op() -> BoxedStrategy<DeltaOp> {
    let micros = 1_000_000i64..64_000_000;
    prop_oneof![
        3 => (0..4usize, micros.clone()).prop_map(|(sid, micros)| DeltaOp::Heartbeat { sid, micros }),
        3 => (0..4usize, 0..5usize, micros.clone())
            .prop_map(|(sid, n, micros)| DeltaOp::Ingest { sid, n, micros }),
        2 => (0..4usize, 0..5usize).prop_map(|(sid, n)| DeltaOp::SqlInsert { sid, n }),
        1 => (0..5usize).prop_map(|n| DeltaOp::Delete { n }),
        3 => Just(DeltaOp::Report),
        1 => (0..4usize, micros.clone()).prop_map(|(sid, micros)| DeltaOp::BlockedReport { sid, micros }),
        1 => (0..4usize, micros, 0..4usize)
            .prop_map(|(sid, micros, order)| DeltaOp::RacingBeats { sid, micros, order }),
    ]
    .boxed()
}

/// Reports the same SQL through the delta-maintained session and a
/// maintenance-free reference session, and demands byte-identical
/// recency reports (every field, via the Debug render).
fn check_report_parity(
    maintained: &trac::core::Session,
    reference: &trac::core::Session,
    sql: &str,
) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
    let delta = maintained.recency_report(sql).unwrap().report;
    let rescan = reference.recency_report(sql).unwrap().report;
    prop_assert_eq!(
        format!("{:?}", delta),
        format!("{:?}", rescan),
        "delta-maintained report diverges from the rescan for {}",
        sql
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Maintenance differential: a random interleaving of heartbeat
    /// upserts, source-attributed ingests, plain inserts, and deletes,
    /// with reports interspersed. The session keeps delta-maintained
    /// state across the whole history (registered mid-stream, folded
    /// per report, force-rescanned by deletes); a maintenance-disabled
    /// session rescans every time. Every report — including ones racing
    /// an uncommitted writer — must be byte-identical between the two.
    #[test]
    fn delta_maintained_reports_match_rescans(
        t_rows in proptest::collection::vec((0..4usize, 0..5usize), 0..6),
        u_rows in proptest::collection::vec((0..4usize, 0..5usize), 0..4),
        ops in proptest::collection::vec(delta_op(), 1..14),
        sql in query_strategy(),
    ) {
        use trac::types::{SourceId, Timestamp};
        let db = setup(&t_rows, &u_rows);
        let tid = db.begin_read().table_id("t").unwrap();
        let maintained = trac::core::Session::new(db.clone());
        let mut reference = trac::core::Session::new(db.clone());
        reference.exec_options.maintain_reports = false;
        for op in &ops {
            match op {
                DeltaOp::Heartbeat { sid, micros } => {
                    db.with_write(|w| {
                        w.heartbeat(&SourceId::new(SIDS[*sid]), Timestamp::from_micros(*micros))
                    })
                    .unwrap();
                }
                DeltaOp::Ingest { sid, n, micros } => {
                    db.with_write(|w| {
                        let ts = Timestamp::from_micros(*micros);
                        w.ingest(
                            &SourceId::new(SIDS[*sid]),
                            tid,
                            vec![
                                Value::text(SIDS[*sid]),
                                if *n == 4 { Value::Null } else { Value::Int(*n as i64) },
                            ],
                            ts,
                        )
                    })
                    .unwrap();
                }
                DeltaOp::SqlInsert { sid, n } => {
                    execute_statement(
                        &db,
                        &format!("INSERT INTO t VALUES ('{}', {})", SIDS[*sid], int_cell(*n)),
                    )
                    .unwrap();
                }
                DeltaOp::Delete { n } => {
                    execute_statement(&db, &format!("DELETE FROM t WHERE n = {n}")).unwrap();
                }
                DeltaOp::Report => {
                    check_report_parity(&maintained, &reference, &sql)?;
                }
                DeltaOp::BlockedReport { sid, micros } => {
                    let w = db.begin_write();
                    w.heartbeat(&SourceId::new(SIDS[*sid]), Timestamp::from_micros(*micros))
                        .unwrap();
                    // In flight: neither path may see the write.
                    check_report_parity(&maintained, &reference, &sql)?;
                    w.commit();
                    // Committed: both must pick it up.
                    check_report_parity(&maintained, &reference, &sql)?;
                }
                DeltaOp::RacingBeats { sid, micros, order } => {
                    let src = SourceId::new(SIDS[*sid]);
                    let first = db.begin_write();
                    let second = db.begin_write();
                    first.heartbeat(&src, Timestamp::from_micros(*micros)).unwrap();
                    let second = match second.heartbeat(&src, Timestamp::from_micros(micros + 1)) {
                        Ok(()) => Some(second),
                        Err(e) => {
                            prop_assert_eq!(e.kind(), "txn_aborted", "unexpected: {}", e);
                            second.abort();
                            None
                        }
                    };
                    check_report_parity(&maintained, &reference, &sql)?;
                    // (writer, abort it) in finishing order.
                    let steps = match order {
                        0 => [(Some(first), false), (second, false)],
                        1 => [(second, false), (Some(first), false)],
                        2 => [(Some(first), true), (second, false)],
                        _ => [(Some(first), false), (second, true)],
                    };
                    for (w, abort) in steps {
                        let Some(w) = w else { continue };
                        if abort {
                            w.abort();
                        } else {
                            w.commit();
                        }
                        check_report_parity(&maintained, &reference, &sql)?;
                    }
                }
            }
        }
        check_report_parity(&maintained, &reference, &sql)?;
        // The maintained session must actually have exercised the delta
        // machinery (registration happens on the first report).
        prop_assert!(maintained.maintenance_stats().registrations >= 1);
    }
}

/// Cells for the float column `x`: finite values with a deliberate
/// duplicate (2.5 twice, so extremes tie and equality predicates hit
/// more than one row), NULL, and NaN. NaN has no SQL literal — it can
/// only enter through the storage write path, exactly as a malformed
/// distributed source feed would deliver it.
fn float_cell(c: usize) -> Value {
    match c {
        0 => Value::Float(-1.5),
        1 => Value::Float(0.0),
        2 | 3 => Value::Float(2.5),
        4 => Value::Null,
        _ => Value::Float(f64::NAN),
    }
}

fn float_setup(rows: &[(usize, usize, usize)]) -> Database {
    let db = Database::new();
    execute_statement(
        &db,
        "CREATE TABLE f (s TEXT NOT NULL, x FLOAT, n INT) SOURCE COLUMN s",
    )
    .unwrap();
    execute_statement(&db, "CREATE INDEX fs ON f (s)").unwrap();
    execute_statement(&db, "CREATE INDEX fx ON f (x)").unwrap();
    let tid = db.begin_read().table_id("f").unwrap();
    db.with_write(|w| {
        for &(s, x, n) in rows {
            let n_cell = if n == 4 {
                Value::Null
            } else {
                Value::Int(i64::try_from(n).unwrap())
            };
            w.insert(tid, vec![Value::text(SIDS[s]), float_cell(x), n_cell])?;
        }
        Ok(())
    })
    .unwrap();
    db
}

/// Single-table queries over the float fixture: comparison and
/// null-test predicates on `x`, plus scalar projections and the full
/// aggregate family (`MIN`/`MAX`/`SUM`/`AVG` over the float lane).
fn float_query() -> BoxedStrategy<String> {
    const COLS: [&str; 3] = ["s", "x", "n"];
    let cmp = (
        prop_oneof![Just("<"), Just("<="), Just("="), Just(">="), Just(">")],
        prop_oneof![Just("-1.5"), Just("0.0"), Just("2.5"), Just("3.25")],
    )
        .prop_map(|(op, k)| format!("x {op} {k}"));
    let atoms = prop_oneof![
        (0..4usize).prop_map(|s| format!("s = '{}'", SIDS[s])),
        cmp,
        any::<bool>().prop_map(|not| format!("x IS {}NULL", if not { "NOT " } else { "" })),
        (0..4i64).prop_map(|k| format!("n < {k}")),
    ]
    .boxed();
    let head = prop_oneof![
        prop_oneof![
            Just("COUNT(*)"),
            Just("MIN(x)"),
            Just("MAX(x)"),
            Just("SUM(x)"),
            Just("AVG(x)"),
            Just("MIN(n)"),
            Just("SUM(n)"),
        ]
        .prop_map(|agg| format!("SELECT {agg}")),
        (
            proptest::sample::subsequence(COLS.to_vec(), 0..=3),
            any::<bool>(),
        )
            .prop_map(|(picked, distinct)| shape_query(&COLS, picked, false, distinct)),
    ];
    (pred_strategy(atoms), head)
        .prop_map(|(pred, head)| format!("{head} FROM f WHERE {pred}"))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Typed-kernel differential over float data the main fixture cannot
    /// express: a nullable FLOAT column carrying NULLs *and* NaN. The
    /// default engine (typed kernels enabled) must be byte-identical to
    /// the boxed `Value` reference (`typed_kernels: false`) and to the
    /// general pipeline with the certified shortcuts disabled — the last
    /// arm exercising the TRAC026 gate: `MIN(x)`/`MAX(x)` may take the
    /// index walk only when the catalog proves the lane NaN-free, so
    /// NaN-bearing instances must fall back without changing a byte.
    /// `Value` equality is the IEEE total order, so NaN outputs compare
    /// equal when both paths produce them.
    #[test]
    fn typed_kernels_match_boxed_reference_on_float_data(
        rows in proptest::collection::vec((0..4usize, 0..6usize, 0..5usize), 0..10),
        sql in float_query(),
    ) {
        let db = float_setup(&rows);
        let txn = db.begin_read();
        let bound = bind_select(&txn, &parse_select(&sql).unwrap()).unwrap();
        let serial = execute_select(&txn, &bound).unwrap().rows;
        let arms = [
            (
                trac::plan::ExecOptions { typed_kernels: false, ..Default::default() },
                "boxed value reference",
            ),
            (
                trac::plan::ExecOptions { fast_paths: false, ..Default::default() },
                "general pipeline",
            ),
        ];
        for (opts, engine) in arms {
            let got = execute_select_with(&txn, &bound, opts).unwrap().0.rows;
            prop_assert_eq!(
                &serial,
                &got,
                "{} diverges from the typed kernels for {}",
                engine,
                &sql
            );
        }
    }
}
