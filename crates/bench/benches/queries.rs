//! Criterion micro-benchmarks: the four evaluation queries (Q1–Q4) under
//! each reporting variant, at a small fixed scale. The experiment
//! binaries (`figure1`, `figure2`) run the full sweeps; these benches
//! give statistically tight per-query numbers for regression tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use trac_core::{Method, Session};
use trac_workload::{load_eval_db, EvalConfig, PAPER_QUERIES};

fn bench_queries(c: &mut Criterion) {
    // 20,000 rows, 2,000 sources: large enough for index effects to show.
    let e = load_eval_db(&EvalConfig::new(20_000, 10)).expect("generate");
    let session = Session::new(e.db);
    let mut group = c.benchmark_group("paper_queries");
    group.sample_size(20);
    for (name, sql) in PAPER_QUERIES {
        group.bench_with_input(BenchmarkId::new("plain", name), &sql, |b, sql| {
            b.iter(|| session.query(sql).expect("query"));
        });
        group.bench_with_input(BenchmarkId::new("focused", name), &sql, |b, sql| {
            b.iter(|| session.recency_report(sql).expect("report"));
        });
        let plan = session.build_plan(sql).expect("plan");
        group.bench_with_input(BenchmarkId::new("hardcoded", name), &sql, |b, sql| {
            b.iter(|| session.recency_report_prebuilt(sql, &plan).expect("report"));
        });
        group.bench_with_input(BenchmarkId::new("naive", name), &sql, |b, sql| {
            b.iter(|| {
                session
                    .recency_report_with(sql, Method::Naive)
                    .expect("report")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
