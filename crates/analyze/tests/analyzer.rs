//! Integration tests for the soundness analyzer.
//!
//! Positive direction: every sample workload query must analyze clean (no
//! error-severity findings) — the production planner is sound on the
//! whole shipped corpus. Negative direction: each pass gets exactly one
//! seeded violation and must answer with its exact `TRACnnn` code and a
//! span pointing at the offending text. The sanitizer's seeded
//! violations mutate production subqueries in `mutations.rs`.

use trac_analyze::passes::{guarantee, partition, satcheck, PassCtx};
use trac_analyze::{analyze_bound, analyze_samples, AnalyzerConfig, SpanFinder};
use trac_core::relevance::SubqueryStatus;
use trac_core::{Guarantee, RecencyPlan, RelevanceConfig};
use trac_expr::{bind_select, to_dnf, BoundSelect, Sat3, TermClass};
use trac_storage::ReadTxn;
use trac_workload::load_paper_tables;

fn bind(txn: &ReadTxn, sql: &str) -> BoundSelect {
    let stmt = trac_sql::parse_select(sql).unwrap();
    bind_select(txn, &stmt).unwrap()
}

fn plan(txn: &ReadTxn, q: &BoundSelect) -> RecencyPlan {
    RecencyPlan::build(txn, q, RelevanceConfig::default()).unwrap()
}

#[test]
fn all_sample_queries_analyze_clean() {
    let analyses = analyze_samples(AnalyzerConfig::default()).unwrap();
    assert_eq!(analyses.len(), 12, "paper(6) + section42(2) + eval(4)");
    for a in &analyses {
        assert!(
            !a.has_errors(),
            "{} has soundness errors:\n{}",
            a.name,
            a.diagnostics
                .iter()
                .map(trac_analyze::Diagnostic::render)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn join_samples_report_degraded_guarantee_note() {
    let analyses = analyze_samples(AnalyzerConfig::default()).unwrap();
    let q2 = analyses.iter().find(|a| a.name == "paper/Q2").unwrap();
    assert_eq!(q2.guarantee, Guarantee::UpperBound);
    assert!(
        q2.diagnostics.iter().any(|d| d.code.id == "TRAC008"),
        "join query must carry the degraded-guarantee note"
    );
}

#[test]
fn partition_pass_flags_wrong_term_class() {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let sql = "SELECT mach_id FROM Activity WHERE mach_id = 'm1'";
    let q = bind(&txn, sql);
    let dnf = to_dnf(q.predicate.as_ref().unwrap(), 64);
    let term = &dnf.disjuncts[0][0];
    let finder = SpanFinder::new(sql);
    let ctx = PassCtx {
        label: "neg",
        sql,
        finder: &finder,
    };
    // mach_id is Activity's source column: the term is P_s. Claim P_r.
    let diag =
        partition::check_term_class(term, &q.tables, 0, TermClass::RegularOnlySelection, &ctx)
            .expect("misclassification must be flagged");
    assert_eq!(diag.code.id, "TRAC001");
    let span = diag.span.expect("diagnostic must carry a span");
    assert_eq!(&sql[span.offset..span.end], "mach_id");
    // The correct claim passes.
    assert!(
        partition::check_term_class(term, &q.tables, 0, TermClass::SourceOnlySelection, &ctx)
            .is_none()
    );
}

#[test]
fn partition_pass_flags_non_exhaustive_partition() {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let sql = "SELECT mach_id FROM Activity WHERE mach_id = 'm1' AND value = 'idle'";
    let q = bind(&txn, sql);
    let dnf = to_dnf(q.predicate.as_ref().unwrap(), 64);
    let disjunct = &dnf.disjuncts[0];
    let mut cls = trac_expr::classify_conjunct(disjunct, &q.tables, 0);
    // Drop the P_r term: the partition is no longer exhaustive.
    cls.pr.clear();
    let finder = SpanFinder::new(sql);
    let ctx = PassCtx {
        label: "neg",
        sql,
        finder: &finder,
    };
    let diags = partition::check_conjunct_partition(disjunct, &q.tables, 0, &cls, &ctx);
    assert!(
        diags
            .iter()
            .any(|d| d.code.id == "TRAC001" && d.message.contains("not exhaustive")),
        "{diags:?}"
    );
}

#[test]
fn guarantee_pass_flags_unsound_minimum() {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    // Q2 joins Routing and Activity: the equi-join term is J_rm w.r.t.
    // both relations, so no subquery may claim Minimum.
    let sql = "SELECT A.mach_id FROM Routing R, Activity A \
               WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id";
    let q = bind(&txn, sql);
    let mut p = plan(&txn, &q);
    let sub = p
        .subqueries
        .iter_mut()
        .find(|s| s.status == SubqueryStatus::UpperBound)
        .expect("join plan must have an upper-bound subquery");
    sub.status = SubqueryStatus::Minimum;
    p.guarantee = Guarantee::Minimum;
    let a = analyze_bound("neg", sql, &q, &p, None, AnalyzerConfig::default());
    assert!(
        a.diagnostics.iter().any(|d| d.code.id == "TRAC002"),
        "{:?}",
        a.diagnostics
    );
    assert!(a.has_errors());
}

#[test]
fn guarantee_pass_flags_unsat_conjunct_with_sources() {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    // value's domain is {idle, busy}: the selection is unsatisfiable, so
    // Corollary 2 forces an empty relevant set.
    let sql = "SELECT mach_id FROM Activity WHERE value = 'gone'";
    let q = bind(&txn, sql);
    let mut p = plan(&txn, &q);
    assert!(
        p.subqueries
            .iter()
            .all(|s| s.status == SubqueryStatus::Empty),
        "planner must prune the unsat conjunct"
    );
    // Corrupt the plan: pretend the pruned subquery still reports sources.
    p.subqueries[0].status = SubqueryStatus::UpperBound;
    p.guarantee = Guarantee::UpperBound;
    let a = analyze_bound("neg", sql, &q, &p, None, AnalyzerConfig::default());
    assert!(
        a.diagnostics.iter().any(|d| d.code.id == "TRAC003"),
        "{:?}",
        a.diagnostics
    );
}

#[test]
fn satcheck_pass_flags_contradicted_verdict() {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
    let q = bind(&txn, sql);
    let dnf = to_dnf(q.predicate.as_ref().unwrap(), 64);
    let conjunct = &dnf.disjuncts[0];
    let finder = SpanFinder::new(sql);
    let ctx = PassCtx {
        label: "neg",
        sql,
        finder: &finder,
    };
    // value = 'idle' is satisfiable over {idle, busy}; claiming Unsat must
    // be caught by the brute-force oracle.
    let diag = satcheck::cross_check("neg", conjunct, &q.tables, Sat3::Unsat, &ctx)
        .expect("contradiction must be flagged");
    assert_eq!(diag.code.id, "TRAC006");
    let span = diag.span.expect("diagnostic must carry a span");
    assert_eq!(&sql[span.offset..span.end], "value");
    // The true verdict and an abstention both pass.
    assert!(satcheck::cross_check("ok", conjunct, &q.tables, Sat3::Sat, &ctx).is_none());
    assert!(satcheck::cross_check("ok", conjunct, &q.tables, Sat3::Unknown, &ctx).is_none());
}

#[test]
fn brute_force_oracle_decides_small_domains() {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let sat = bind(&txn, "SELECT mach_id FROM Activity WHERE value = 'idle'");
    let dnf = to_dnf(sat.predicate.as_ref().unwrap(), 64);
    assert_eq!(
        satcheck::brute_force(&dnf.disjuncts[0], &sat.tables),
        Some(true)
    );
    let unsat = bind(
        &txn,
        "SELECT mach_id FROM Activity WHERE value = 'idle' AND value = 'busy'",
    );
    let dnf = to_dnf(unsat.predicate.as_ref().unwrap(), 64);
    assert_eq!(
        satcheck::brute_force(&dnf.disjuncts[0], &unsat.tables),
        Some(false)
    );
}

#[test]
fn guarantee_recomputation_matches_planner_on_clean_queries() {
    let t = load_paper_tables().unwrap();
    let txn = t.db.begin_read();
    let sql = "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'";
    let q = bind(&txn, sql);
    let p = plan(&txn, &q);
    let dnf = to_dnf(q.predicate.as_ref().unwrap(), 64);
    for sub in &p.subqueries {
        let rel = q
            .tables
            .iter()
            .position(|bt| bt.binding == sub.via_relation)
            .unwrap();
        let expected = guarantee::expected_status(&q, &dnf.disjuncts[sub.disjunct], rel);
        assert_eq!(expected.status, sub.status, "via {}", sub.via_relation);
    }
    assert_eq!(p.guarantee, Guarantee::Minimum);
}
