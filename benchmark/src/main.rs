//! `trac-benchmark`: report latency, report-over-plain and throughput on
//! four workloads, with a per-layer traced run. See `benchmark/README.md`.
//!
//! One workload, one run (what `BENCHMARK.json`'s command calls):
//!   trac-benchmark --workload point_reports --seed 7 --seconds 20 --trace 0
//! Every workload, untraced and traced, each in a process of its own:
//!   trac-benchmark --all [--aa] [--seed 7] [--seconds 20]

mod gate;
mod gen;
mod metrics;
mod run;
mod stats;
mod suite;
mod trace;
mod workload;

use run::{Config, Outcome};
use std::process::ExitCode;
use workload::Kind;

/// Where the traced run and the suite leave their files, relative to the
/// directory the benchmark is started from (the repository root).
const OUT_DIR: &str = "benchmark/out";

pub struct Args {
    pub workload: Option<Kind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub all: bool,
    pub aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        all: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Kind::from_name(&v).ok_or_else(|| bad(&v))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().ok().filter(|s| *s > 0.0).ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--all" => args.all = true,
            "--aa" => (args.all, args.aa) = (true, true),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give either --workload <name> or --all / --aa".into());
    }
    Ok(args)
}

/// Prints every metric as `workload metric value unit`, then the result
/// object as the last line.
fn print_outcome(kind: Kind, out: &Outcome) {
    let mut metrics = Vec::new();
    for (name, value) in &out.metrics {
        let unit = metrics::unit_of(name);
        println!("{} {name} {value} {unit}", kind.name());
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trac-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = args.workload else {
        return suite::run(&args);
    };
    // The traced client issues every report twice, stock and decomposed:
    // half the cycles are as many reports and leave the database as old.
    let repeats = if args.trace { 2 } else { 1 };
    let cfg = Config {
        kind,
        seed: args.seed,
        cycles: kind.cycles_for(args.seconds).div_ceil(repeats),
        seconds: args.seconds,
        // As many batches as `ingest_and_report` writes in its window.
        tail_rounds: 3 * Kind::IngestAndReport.cycles_for(args.seconds),
        shape: gen::Shape::FULL,
        setups: 5,
    };
    let outcome = if args.trace {
        let path = format!("{OUT_DIR}/trace.{}.json", kind.name());
        trace::traced(&cfg, Some(std::path::Path::new(&path)))
    } else {
        run::untraced(&cfg)
    };
    match outcome {
        Ok(out) => {
            debug_assert!(metrics::names_match(args.trace, &out.metrics));
            print_outcome(kind, &out);
            // A wrong answer is a result, not a crash: the last line says
            // `"correct": false` and the exit code says so too.
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("trac-benchmark: {} did not run: {e}", kind.name());
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(out: &Outcome, name: &str) -> f64 {
        out.metrics.iter().find(|m| m.0 == name).expect(name).1
    }

    /// Every workload end to end, untraced and traced, on a small
    /// database for two cycles.
    #[test]
    fn all_workloads_run_correctly_with_the_stated_serve_shares() {
        for kind in Kind::ALL {
            let cfg = Config::tiny(kind);
            let untraced = run::untraced(&cfg).unwrap();
            assert_eq!(untraced.failed, 0, "{}", kind.name());
            assert!(metrics::names_match(false, &untraced.metrics));
            assert!(
                untraced.metrics.iter().all(|m| m.1 > 0.0),
                "{}",
                kind.name()
            );

            let traced = trace::traced(&cfg, None).unwrap();
            assert_eq!(traced.failed, 0, "{}", kind.name());
            assert!(metrics::names_match(true, &traced.metrics));
            let coverage = value(&traced, "trace.coverage");
            assert!(
                (0.85..=1.15).contains(&coverage),
                "{}: {coverage}",
                kind.name()
            );
            match kind {
                Kind::IngestAndReport => {
                    assert_eq!(value(&traced, "core.delta_serve_ratio"), 7.0 / 8.0);
                    assert_eq!(value(&traced, "core.rescan_serves"), 1.0 / 8.0);
                    assert_eq!(value(&traced, "storage.changelog_events_per_row"), 2.0);
                }
                Kind::AdhocReports => {
                    assert_eq!(value(&traced, "core.plan_cache_hit_ratio"), 0.0);
                    assert_eq!(value(&traced, "core.registrations"), 1.0);
                }
                Kind::PointReports | Kind::ScanReports => {
                    assert_eq!(value(&traced, "core.plan_cache_hit_ratio"), 1.0);
                    assert_eq!(value(&traced, "core.delta_serve_ratio"), 1.0);
                }
            }
        }
    }
}
