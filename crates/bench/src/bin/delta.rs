//! Delta-maintenance benchmark: repeated recency reports over a typed
//! change stream, delta-folded vs. fully recomputed.
//!
//! The sweep holds the source count fixed and doubles the data ratio
//! (rows per source), so the database grows while the change count per
//! report and the relevant-member set stay fixed. For each point and
//! each of Q1–Q4, two sessions serve the same report loop — apply
//! `changes` heartbeat upserts, then serve the report — one with
//! `maintain_reports` on (the cached plan's `MaintainedReport` folds
//! the change stream) and one with it off (every report re-runs the
//! generated recency subqueries). The headline metric is the relevance
//! phase of the report (`Timings::relevance_query`): that is exactly
//! the quantity maintenance replaces. It should stay roughly flat for
//! the delta path (`O(changes + members)`) while the rescan path grows
//! with the data.
//!
//! Usage: `delta [--sources 12500] [--ratio 10] [--scales 4]
//!               [--changes 64] [--runs 5] [--warmup 1] [--threads 1]
//!               [--batch-size 1024] [--json-out BENCH_delta.json]`

use std::time::{Duration, Instant};

use trac_bench::harness::{load_point, rinse_point, Args};
use trac_bench::json::Json;
use trac_core::Session;
use trac_storage::Database;
use trac_types::{Result, SourceId, Timestamp};
use trac_workload::{eval::source_name, SweepPoint, PAPER_QUERIES};

/// Far past every generated 2006-era heartbeat, so each upsert advances
/// the source's monotone recency and therefore publishes a real change.
const FUTURE_BASE_MICROS: i64 = 8_000_000_000_000_000;

/// One batch of `changes` committed heartbeat upserts, each to a
/// distinct-ish source with a strictly increasing timestamp.
fn apply_changes(db: &Database, n_sources: u64, changes: u64, tick: &mut i64) {
    let txn = db.begin_write();
    for _ in 0..changes {
        *tick += 1;
        let sid = SourceId::new(source_name(1 + (*tick as u64 % n_sources)));
        txn.heartbeat(&sid, Timestamp(FUTURE_BASE_MICROS + *tick))
            .expect("heartbeat upsert");
    }
    txn.commit();
}

/// Mean wall-clock of the full report and of its relevance phase, in
/// milliseconds, over `runs` timed iterations of the change-then-report
/// loop (after `warmup` untimed iterations and one untimed priming
/// report that fills the plan cache and, when maintenance is on,
/// registers the maintained state).
fn run_mode(
    session: &Session,
    sql: &str,
    n_sources: u64,
    changes: u64,
    warmup: u32,
    runs: u32,
    tick: &mut i64,
) -> Result<(f64, f64)> {
    session.recency_report(sql)?;
    let mut total = Duration::ZERO;
    let mut relevance = Duration::ZERO;
    for it in 0..(warmup + runs) {
        apply_changes(session.db(), n_sources, changes, tick);
        let t0 = Instant::now();
        let out = session.recency_report(sql)?;
        let elapsed = t0.elapsed();
        if it >= warmup {
            total += elapsed;
            relevance += out.timings.relevance_query;
        }
    }
    let n = runs.max(1);
    Ok((
        (total / n).as_secs_f64() * 1e3,
        (relevance / n).as_secs_f64() * 1e3,
    ))
}

fn main() {
    let args = Args::parse();
    let sources = args.get_u64("sources", 12_500);
    let ratio = args.get_u64("ratio", 10);
    let scales = args.get_u32("scales", 4);
    let changes = args.get_u64("changes", 64);
    let runs = args.get_u32("runs", 5);
    let warmup = args.get_u32("warmup", 1);
    let opts = args.exec_options();
    let json_out = args.get_str("json-out", "BENCH_delta.json");
    let mut rescan_opts = opts;
    rescan_opts.maintain_reports = false;

    println!("# Delta maintenance: report cost folded from the change stream vs recomputed");
    println!(
        "# sources = {sources} (fixed), ratio = {ratio} (doubling {scales}x), \
         changes/report = {changes}, runs = {runs} (after {warmup} warmup), \
         threads = {}, batch_size = {}",
        opts.threads, opts.batch_size
    );
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "query", "rows", "sources", "delta(ms)", "rescan(ms)", "d.rel(ms)", "r.rel(ms)", "speedup"
    );
    let mut json_points = Vec::new();
    for scale in 0..scales.max(1) {
        let point_ratio = ratio << scale;
        let rows = sources * point_ratio;
        let point = SweepPoint {
            data_ratio: point_ratio,
            n_sources: sources,
        };
        let e = match load_point(rows, point, 7) {
            Ok(e) => e,
            Err(err) => {
                eprintln!("skipping {rows} rows: {err}");
                continue;
            }
        };
        let mut delta_session = Session::new(e.db.clone());
        delta_session.exec_options = opts;
        let mut rescan_session = Session::new(e.db.clone());
        rescan_session.exec_options = rescan_opts;
        rinse_point(&delta_session, &PAPER_QUERIES).expect("rinse");
        let mut tick = 0i64;
        let mut json_queries = Vec::new();
        let (mut delta_rel_sum, mut rescan_rel_sum) = (0.0f64, 0.0f64);
        for (name, sql) in PAPER_QUERIES {
            let (delta_ms, delta_rel_ms) = run_mode(
                &delta_session,
                sql,
                point.n_sources,
                changes,
                warmup,
                runs,
                &mut tick,
            )
            .expect("delta run");
            let (rescan_ms, rescan_rel_ms) = run_mode(
                &rescan_session,
                sql,
                point.n_sources,
                changes,
                warmup,
                runs,
                &mut tick,
            )
            .expect("rescan run");
            delta_rel_sum += delta_rel_ms;
            rescan_rel_sum += rescan_rel_ms;
            let speedup = if delta_rel_ms > 0.0 {
                rescan_rel_ms / delta_rel_ms
            } else {
                f64::INFINITY
            };
            println!(
                "{:<6} {:>10} {:>10} {:>12.3} {:>12.3} {:>12.4} {:>12.4} {:>8.1}x",
                name,
                rows,
                point.n_sources,
                delta_ms,
                rescan_ms,
                delta_rel_ms,
                rescan_rel_ms,
                speedup
            );
            json_queries.push(Json::obj(vec![
                ("delta_ms", Json::Num(delta_ms)),
                ("delta_relevance_ms", Json::Num(delta_rel_ms)),
                ("name", Json::str(name)),
                ("rescan_ms", Json::Num(rescan_ms)),
                ("rescan_relevance_ms", Json::Num(rescan_rel_ms)),
                ("speedup", Json::Num(speedup)),
            ]));
        }
        let stats = delta_session.maintenance_stats();
        assert!(
            stats.delta_serves > 0,
            "maintained session never served a delta-folded report \
             (registrations={}, rescans={})",
            stats.registrations,
            stats.rescan_serves
        );
        let point_speedup = if delta_rel_sum > 0.0 {
            rescan_rel_sum / delta_rel_sum
        } else {
            f64::INFINITY
        };
        println!(
            "# maintained session at {rows} rows: {} registrations, {} delta serves, \
             {} rescan serves; aggregate relevance speedup {point_speedup:.1}x",
            stats.registrations, stats.delta_serves, stats.rescan_serves
        );
        json_points.push(Json::obj(vec![
            ("data_ratio", Json::Num(point.data_ratio as f64)),
            ("delta_serves", Json::Num(stats.delta_serves as f64)),
            ("n_sources", Json::Num(point.n_sources as f64)),
            ("queries", Json::Arr(json_queries)),
            ("relevance_speedup", Json::Num(point_speedup)),
            ("rescan_serves", Json::Num(stats.rescan_serves as f64)),
            ("total_rows", Json::Num(rows as f64)),
        ]));
    }
    println!("# speedup = rescan relevance / delta relevance (the phase maintenance replaces)");
    let doc = Json::obj(vec![
        (
            "config",
            Json::obj(vec![
                ("batch_size", Json::Num(opts.batch_size as f64)),
                ("changes", Json::Num(changes as f64)),
                ("ratio", Json::Num(ratio as f64)),
                ("runs", Json::Num(runs as f64)),
                ("scales", Json::Num(scales as f64)),
                ("sources", Json::Num(sources as f64)),
                ("threads", Json::Num(opts.threads as f64)),
                ("warmup", Json::Num(warmup as f64)),
            ]),
        ),
        ("experiment", Json::str("delta")),
        ("points", Json::Arr(json_points)),
    ]);
    std::fs::write(&json_out, doc.render()).expect("write bench json");
    println!("# wrote {json_out}");
}
