//! Pins the EXPLAIN output of the 12 sample workload queries plus four
//! fast-path demonstration queries.
//!
//! Every operator line carries its estimated cardinality and abstract
//! cost (`(est N rows, cost M)`), the four certified fast paths
//! announce themselves with a `[fast-path: ...]` marker, and every
//! table-reading leaf renders its typed-kernel lane certificate as
//! `[typed:...]` (one lowercase type per lane; `?` marks a
//! possibly-NULL lane, `~` a float lane whose catalog bounds admit
//! NaN).  The snapshot keeps all three annotations honest: a
//! cost-model change that silently reroutes a workload query, a guard
//! change that stops a fast path from firing, or a certificate
//! derivation change that strips an unboxed-kernel license shows up
//! as a diff here before it shows up in a perf regression.

use trac::expr::bind_select;
use trac::plan::{plan_select, ExecOptions};
use trac::sql::parse_select;
use trac::storage::Database;
use trac::workload::{
    load_eval_db, load_paper_tables, load_section_42_tables, EvalConfig, PAPER_QUERIES,
};
use trac_analyze::{PAPER_SAMPLE_QUERIES, SECTION42_SAMPLE_QUERIES};

/// Queries crafted so each of the four fast paths demonstrably fires
/// against the paper fixture (`activity.mach_id` is indexed, NOT NULL).
const FASTPATH_QUERIES: [(&str, &str); 4] = [
    ("fastpath/count", "SELECT COUNT(*) FROM Activity"),
    ("fastpath/min", "SELECT MIN(mach_id) FROM Activity"),
    (
        "fastpath/topn",
        "SELECT mach_id FROM Activity ORDER BY mach_id DESC LIMIT 2",
    ),
    (
        "fastpath/inlist",
        "SELECT value FROM Activity WHERE mach_id IN ('m1', 'm3')",
    ),
];

/// `name:` header followed by the indented EXPLAIN tree.
fn explain_block(db: &Database, name: &str, sql: &str, opts: ExecOptions) -> String {
    let txn = db.begin_read();
    let stmt = parse_select(sql).expect(name);
    let bound = bind_select(&txn, &stmt).expect(name);
    let plan = plan_select(&txn, &bound, opts).expect(name);
    format!("{name}:\n{}", plan.render())
}

fn actual_snapshot(opts: ExecOptions) -> String {
    let mut blocks = Vec::new();
    let paper = load_paper_tables().expect("paper tables");
    for (name, sql) in PAPER_SAMPLE_QUERIES {
        blocks.push(explain_block(&paper.db, name, sql, opts));
    }
    for (name, sql) in FASTPATH_QUERIES {
        blocks.push(explain_block(&paper.db, name, sql, opts));
    }
    let s42 = load_section_42_tables(&["myScheduler", "mx", "my"]).expect("section 4.2 tables");
    for (name, sql) in SECTION42_SAMPLE_QUERIES {
        blocks.push(explain_block(&s42.db, name, sql, opts));
    }
    // Same fixture scale as the analyzer sweep and workload snapshot.
    let eval = load_eval_db(&EvalConfig::new(200, 20)).expect("eval db");
    for (name, sql) in PAPER_QUERIES {
        blocks.push(explain_block(&eval.db, &format!("eval/{name}"), sql, opts));
    }
    blocks.join("\n")
}

/// Captured from the cost-based planner; regenerate by running this test
/// and copying the printed actual output, then reviewing the diff.
const EXPECTED: &str = r"paper/Q1:
Project (mach_id)
  IndexLookup Activity [IndexProbe(col#0, 2 keys)] [fast-path: in-list probe] filter: 2 conjuncts (est 1 rows, cost 2) [typed:text,text,timestamp]
paper/Q2:
Project (mach_id)
  IndexNLJoin A (col#0) filter: 2 conjuncts (est 1 rows, cost 3) [typed:text,text,timestamp]
    IndexLookup R [IndexProbe(col#0, 1 keys)] filter: 1 conjuncts (est 1 rows, cost 1) [typed:text,text,timestamp]
paper/quickstart:
Project (mach_id, value)
  Scan A [SeqScan] filter: 1 conjuncts (est 2 rows, cost 3) [typed:text,text,timestamp]
paper/ordered:
Project (mach_id)
  Sort (1 keys)
    Scan Activity [SeqScan] filter: 1 conjuncts (est 2 rows, cost 3) [typed:text,text,timestamp]
paper/unfiltered:
Project (mach_id)
  Scan Activity [SeqScan] (est 3 rows, cost 3) [typed:text,text,timestamp]
paper/refined:
Project (mach_id)
  Scan Activity [SeqScan] filter: 2 conjuncts (est 2 rows, cost 3) [typed:text,text,timestamp]
fastpath/count:
CountStar Activity AS count [fast-path: storage row count] (est 3 rows, cost 1) [typed:text,text,timestamp]
fastpath/min:
IndexMinMax Activity.col#0 (Min) AS min [fast-path: ordered index probe] (est 1 rows, cost 1) [typed:text,text,timestamp]
fastpath/topn:
Limit (2)
  Project (mach_id)
    TopNIndex Activity (col#0 desc, first 2) [fast-path: ordered index walk] (est 2 rows, cost 2) [typed:text,text,timestamp]
fastpath/inlist:
Project (value)
  IndexLookup Activity [IndexProbe(col#0, 2 keys)] [fast-path: in-list probe] filter: 1 conjuncts (est 2 rows, cost 2) [typed:text,text,timestamp]
section42/Q3:
Project (runningMachineId)
  IndexLookup R [IndexProbe(col#1, 1 keys)] filter: 1 conjuncts (est 0 rows, cost 1) [typed:text,int]
section42/Q4:
Project (runningMachineId)
  HashJoin(col#0) filter: 1 conjuncts (est 0 rows, cost 2)
    IndexLookup S [IndexProbe(col#0, 1 keys)] filter: 2 conjuncts (est 0 rows, cost 1) [typed:text,int,text]
    IndexLookup R [IndexProbe(col#1, 1 keys)] filter: 1 conjuncts (est 0 rows, cost 1) [typed:text,int]
eval/Q1:
Aggregate (0 keys, 1 projections)
  IndexLookup A [IndexProbe(col#0, 6 keys)] [fast-path: in-list probe] filter: 2 conjuncts (est 60 rows, cost 120) [typed:text,text,timestamp]
eval/Q2:
Aggregate (0 keys, 1 projections)
  Scan A [SeqScan] filter: 2 conjuncts (est 100 rows, cost 200) [typed:text,text,timestamp]
eval/Q3:
Aggregate (0 keys, 1 projections)
  IndexNLJoin A (col#0) filter: 2 conjuncts (est 120 rows, cost 132) [typed:text,text,timestamp]
    IndexLookup R [IndexProbe(col#0, 6 keys)] [fast-path: in-list probe] filter: 1 conjuncts (est 6 rows, cost 6) [typed:text,text,timestamp]
eval/Q4:
Aggregate (0 keys, 1 projections)
  IndexNLJoin A (col#0) filter: 2 conjuncts (est 200 rows, cost 220) [typed:text,text,timestamp]
    Scan R [SeqScan] filter: 1 conjuncts (est 10 rows, cost 10) [typed:text,text,timestamp]";

/// The plan is the same at every thread count and morsel size: the
/// executor, not the lowering, decides whether to run it in parallel.
#[test]
fn explain_snapshot_is_stable() {
    for opts in [
        ExecOptions::default(),
        ExecOptions::default().with_parallelism(8, 16),
    ] {
        let actual = actual_snapshot(opts);
        if actual != EXPECTED {
            println!("=== ACTUAL ({opts:?}) ===\n{actual}\n=== END ===");
        }
        assert_eq!(actual, EXPECTED);
    }
}

/// Beyond the snapshot bytes: the acceptance-level claims, asserted
/// structurally so a snapshot regeneration can't silently drop them.
#[test]
fn fast_paths_fire_and_annotations_are_present() {
    let paper = load_paper_tables().expect("paper tables");
    let markers = [
        ("fastpath/count", "[fast-path: storage row count]"),
        ("fastpath/min", "[fast-path: ordered index probe]"),
        ("fastpath/topn", "[fast-path: ordered index walk]"),
        ("fastpath/inlist", "[fast-path: in-list probe]"),
    ];
    for ((name, sql), (mname, marker)) in FASTPATH_QUERIES.iter().zip(markers) {
        assert_eq!(*name, mname);
        let block = explain_block(&paper.db, name, sql, ExecOptions::default());
        assert!(
            block.contains(marker),
            "{name} must show {marker}:\n{block}"
        );
        assert!(
            block.contains("(est ") && block.contains(" rows, cost "),
            "{name} must carry cardinality/cost annotations:\n{block}"
        );
    }
    // The workload itself exercises a fast path too: paper/Q1's IN-list.
    let (name, sql) = PAPER_SAMPLE_QUERIES[0];
    let block = explain_block(&paper.db, name, sql, ExecOptions::default());
    assert!(
        block.contains("[fast-path: in-list probe]"),
        "{name} must probe its IN-list through the index:\n{block}"
    );
}
