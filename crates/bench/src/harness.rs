//! Shared measurement machinery for the experiment binaries.
//!
//! Follows the paper's protocol (Section 5.2): "Each individual query was
//! run 11 times and the average response time of the last 10 runs is used
//! to minimize fluctuation" — here the warmup count and timed-run count
//! are configurable (`--runs`), with one warmup run discarded by default.
//!
//! Warmup accounting is **per (query, variant) cell**: every call to
//! [`measure`] discards its own `warmup` runs before timing. On top of
//! that, [`rinse_point`] runs each query once untimed right after a
//! sweep point's database is loaded, so the one-off cold-cache cost of a
//! fresh point lands on no variant at all — previously it was absorbed
//! once per sweep point by whichever variant happened to be measured
//! first (Plain, the `t1` denominator), skewing the reported
//! Plain-vs-Focused overhead percentages.

use std::time::{Duration, Instant};
use trac_core::{Method, Session};
use trac_exec::ExecOptions;
use trac_storage::Database;
use trac_types::Result;
use trac_workload::{load_eval_db, EvalConfig, EvalDb, SweepPoint};

/// Which reporting variant a measurement covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// No recency reporting: the `t1` baseline.
    Plain,
    /// Focused with in-measurement parse + recency-query generation.
    Focused,
    /// Focused with a prebuilt recency plan ("hardcoded" in the paper).
    FocusedHardcoded,
    /// Naive: report all sources.
    Naive,
}

impl Variant {
    /// Label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Focused => "focused",
            Variant::FocusedHardcoded => "focused-hardcoded",
            Variant::Naive => "naive",
        }
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Query label (Q1–Q4).
    pub query: String,
    /// Variant measured.
    pub variant: Variant,
    /// Sweep point: rows per source.
    pub data_ratio: u64,
    /// Sweep point: number of sources.
    pub n_sources: u64,
    /// Mean response time over the timed runs, seconds.
    pub mean_secs: f64,
    /// Number of timed runs.
    pub runs: u32,
}

/// Times one closure `warmup + runs` times; returns the mean of the timed
/// runs.
pub fn time_mean<T>(warmup: u32, runs: u32, mut f: impl FnMut() -> Result<T>) -> Result<Duration> {
    for _ in 0..warmup {
        f()?;
    }
    let mut total = Duration::ZERO;
    for _ in 0..runs {
        let t0 = Instant::now();
        f()?;
        total += t0.elapsed();
    }
    Ok(total / runs.max(1))
}

/// Measures one (query, variant) cell against an evaluation database.
pub fn measure(
    session: &Session,
    point: SweepPoint,
    name: &str,
    sql: &str,
    variant: Variant,
    warmup: u32,
    runs: u32,
) -> Result<Measurement> {
    let mean = match variant {
        Variant::Plain => time_mean(warmup, runs, || session.query(sql))?,
        Variant::Focused => time_mean(warmup, runs, || session.recency_report(sql))?,
        Variant::FocusedHardcoded => {
            let plan = session.build_plan(sql)?;
            time_mean(warmup, runs, || session.recency_report_prebuilt(sql, &plan))?
        }
        Variant::Naive => time_mean(warmup, runs, || {
            session.recency_report_with(sql, Method::Naive)
        })?,
    };
    Ok(Measurement {
        query: name.to_string(),
        variant,
        data_ratio: point.data_ratio,
        n_sources: point.n_sources,
        mean_secs: mean.as_secs_f64(),
        runs,
    })
}

/// Runs every query once, untimed, against a freshly loaded sweep
/// point. This pins the point's one-off cold-cache cost (first touch of
/// the MVCC slot vectors and indexes) to *no* measured variant; each
/// variant then pays only its own per-cell warmup inside [`measure`].
pub fn rinse_point<'a>(
    session: &Session,
    queries: impl IntoIterator<Item = &'a (&'a str, &'a str)>,
) -> Result<()> {
    for (_, sql) in queries {
        session.query(sql)?;
    }
    Ok(())
}

/// Operator counts of the physical plan chosen for `sql` in a fresh
/// snapshot of `db` under `opts` (e.g. `"IndexLookup=1 Project=1"`; the
/// same at every `opts.threads`, which only the executor reads). Printed as
/// `# plan` comment lines in experiment output so that a planner change
/// that alters an access path or join strategy shows up as a diff in the
/// recorded `results_*.txt`, not just as a timing shift.
///
/// The plan is also certified by the translation validator before its
/// summary is reported: a timing measured against an unsound plan would
/// silently corrupt the experiment, so certification failure is an
/// error, not a comment.
pub fn plan_summary(db: &Database, sql: &str, opts: ExecOptions) -> Result<String> {
    let txn = db.begin_read();
    let stmt = trac_sql::parse_select(sql)?;
    let bound = trac_expr::bind_select(&txn, &stmt)?;
    let plan = trac_plan::plan_select(&txn, &bound, opts)?;
    let findings = trac_analyze::validate_plan(&bound, &plan, "bench", None);
    if let Some(first) = findings.iter().find(|d| d.is_error()) {
        return Err(trac_types::TracError::Execution(format!(
            "benchmark plan failed translation validation: {}",
            first.render()
        )));
    }
    Ok(plan.operator_summary())
}

/// Prints one `# plan` comment line per query, recording the operator
/// counts each physical plan uses against `db` under `opts`.
pub fn print_plan_summaries<'a>(
    db: &Database,
    queries: impl IntoIterator<Item = &'a (&'a str, &'a str)>,
    opts: ExecOptions,
) {
    for (name, sql) in queries {
        match plan_summary(db, sql, opts) {
            Ok(s) => println!("# plan {name}: {s}"),
            Err(e) => println!("# plan {name}: error: {e}"),
        }
    }
}

/// Loads the evaluation database for one sweep point.
pub fn load_point(total_rows: u64, point: SweepPoint, seed: u64) -> Result<EvalDb> {
    let mut cfg = EvalConfig::new(total_rows, point.data_ratio);
    cfg.seed = seed;
    load_eval_db(&cfg)
}

/// Tiny argv parser: `--key value` flags only.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                let value = argv.get(i + 1).cloned().unwrap_or_default();
                pairs.push((key.to_string(), value));
                i += 2;
            } else {
                i += 1;
            }
        }
        Args { pairs }
    }

    /// Fetches a numeric flag with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    /// Fetches a numeric flag with a default.
    pub fn get_u32(&self, key: &str, default: u32) -> u32 {
        self.get_u64(key, default as u64) as u32
    }

    /// Fetches a string flag with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map_or_else(|| default.to_string(), |(_, v)| v.clone())
    }

    /// Builds [`ExecOptions`] from the `--threads` / `--batch-size`
    /// knobs (defaults: serial, [`trac_plan::DEFAULT_BATCH_SIZE`]).
    pub fn exec_options(&self) -> ExecOptions {
        ExecOptions::default().with_parallelism(
            self.get_u64("threads", 1) as usize,
            self.get_u64("batch-size", trac_plan::DEFAULT_BATCH_SIZE as u64) as usize,
        )
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_cells_cover_all_variants() {
        let e = load_point(
            200,
            SweepPoint {
                data_ratio: 20,
                n_sources: 10,
            },
            1,
        )
        .unwrap();
        let session = Session::new(e.db.clone());
        let sql = "SELECT COUNT(*) FROM Activity WHERE mach_id = 'Tao1' AND value = 'idle'";
        for v in [
            Variant::Plain,
            Variant::Focused,
            Variant::FocusedHardcoded,
            Variant::Naive,
        ] {
            let m = measure(&session, e.point, "Q1", sql, v, 1, 2).unwrap();
            assert!(m.mean_secs >= 0.0);
            assert_eq!(m.runs, 2);
            assert_eq!(m.n_sources, 10);
        }
    }

    #[test]
    fn plan_summary_reports_operator_counts() {
        let e = load_point(
            200,
            SweepPoint {
                data_ratio: 20,
                n_sources: 10,
            },
            1,
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM Activity WHERE mach_id = 'Tao1'";
        let s = plan_summary(&e.db, sql, ExecOptions::default()).unwrap();
        assert!(s.contains("Aggregate=1"), "{s}");
        assert!(s.contains("IndexLookup=1"), "{s}");
        // Parallelism is decided at run time: a threads-4 plan is the
        // serial plan.
        let p = plan_summary(&e.db, sql, ExecOptions::default().with_parallelism(4, 256)).unwrap();
        assert_eq!(p, s);
    }

    #[test]
    fn time_mean_counts_runs_only() {
        let mut calls = 0;
        let d = time_mean(2, 3, || {
            calls += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(calls, 5);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
