//! `--all`: every workload, untraced then traced, each run in a process of
//! its own (so a workload's memory is its own), collected into
//! `benchmark/out/results.json` and `benchmark/out/layers.md`.
//! `--aa`: the whole set twice on the same binary, compared metric by
//! metric against the bounds — the benchmark's own noise check.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::Kind;
use crate::{Args, OUT_DIR};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// One child run: its metrics in print order, and whether it was correct.
struct RunResult {
    metrics: Vec<(String, f64, String)>,
    correct: bool,
}

impl RunResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// All eight runs of one pass: per workload, untraced and traced.
struct Pass {
    runs: Vec<(Kind, RunResult, RunResult)>,
}

fn run_child(args: &Args, kind: Kind, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut metrics = Vec::new();
    for line in text.lines() {
        // `workload metric value unit`; the last line is the JSON object.
        let f: Vec<&str> = line.split(' ').collect();
        if let [w, name, value, unit] = f[..] {
            if w == kind.name() {
                let value = value
                    .parse()
                    .map_err(|_| format!("bad value in {line:?}"))?;
                println!("{line}");
                metrics.push((name.to_string(), value, unit.to_string()));
            }
        }
    }
    if metrics.is_empty() {
        return Err(format!(
            "{} printed no metrics ({})",
            kind.name(),
            out.status
        ));
    }
    Ok(RunResult {
        metrics,
        correct: out.status.success(),
    })
}

fn run_pass(args: &Args) -> Result<Pass, String> {
    let mut runs = Vec::new();
    for kind in Kind::ALL {
        let untraced = run_child(args, kind, false)?;
        let traced = run_child(args, kind, true)?;
        runs.push((kind, untraced, traced));
    }
    Ok(Pass { runs })
}

fn host_line(key: &str) -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

fn metrics_json(out: &mut String, indent: &str, r: &RunResult) {
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        let comma = if i + 1 == r.metrics.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{indent}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}{comma}"
        );
    }
}

/// Keys in a fixed order (workloads and metrics in table order), so two
/// result files diff line by line.
fn results_json(args: &Args, pass: &Pass) -> String {
    let mut out = String::new();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"host\": {{\"nproc\": {nproc}, \"cpu\": \"{}\"}},",
        host_line("model name")
    );
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(out, "  \"workloads\": {{");
    for (i, (kind, untraced, traced)) in pass.runs.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", kind.name());
        let _ = writeln!(
            out,
            "      \"correct\": {},",
            untraced.correct && traced.correct
        );
        let _ = writeln!(out, "      \"end_to_end\": {{");
        metrics_json(&mut out, "        ", untraced);
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"per_layer\": {{");
        metrics_json(&mut out, "        ", traced);
        let _ = writeln!(out, "      }}");
        let comma = if i + 1 == pass.runs.len() { "" } else { "," };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// "Where a report's time goes": per workload, the spans by share of the
/// traced op loop, largest first.
fn layers_markdown(pass: &Pass) -> String {
    let mut out = String::new();
    for (kind, untraced, traced) in &pass.runs {
        let _ = writeln!(
            out,
            "**{}** — report p50 {:.4} ms, plain p50 {:.4} ms, t2/t1 {:.2}, trace coverage {:.2}\n",
            kind.name(),
            untraced.get("report_p50_ms").unwrap_or(0.0),
            untraced.get("plain_p50_ms").unwrap_or(0.0),
            untraced.get("report_over_plain").unwrap_or(0.0),
            traced.get("trace.coverage").unwrap_or(0.0),
        );
        let _ = writeln!(out, "| span | share of traced loop | median µs per call |");
        let _ = writeln!(out, "|---|---:|---:|");
        let mut rows: Vec<(&str, f64, f64)> = PER_LAYER
            .iter()
            .filter_map(|m| m.name.strip_suffix("_share"))
            .filter_map(|span| {
                let share = traced.get(&format!("{span}_share"))?;
                let us = traced.get(&format!("{span}_us"))?;
                (share > 0.0).then_some((span, share, us))
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (span, share, us) in rows {
            let _ = writeln!(out, "| `{span}` | {:.1} % | {us:.1} |", share * 100.0);
        }
        out.push('\n');
    }
    out
}

fn compare(a: &Pass, b: &Pass) -> bool {
    let mut all_pass = true;
    println!("\n# A/A: two runs of the same binary, every workload x end-to-end metric");
    for ((kind, first, _), (_, second, _)) in a.runs.iter().zip(&b.runs) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (first.get(m.name), second.get(m.name)) else {
                println!("{} {} missing FAIL", kind.name(), m.name);
                all_pass = false;
                continue;
            };
            let gap = ((y - x) / x).abs();
            let ok = gap <= m.bound;
            all_pass &= ok;
            println!(
                "{} {} {x} {y} gap {:.2}% bound {:.0}% {}",
                kind.name(),
                m.name,
                gap * 100.0,
                m.bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    all_pass
}

pub fn run(args: &Args) -> ExitCode {
    let first = match run_pass(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trac-benchmark: {e}");
            return ExitCode::from(3);
        }
    };
    let mut ok = first.runs.iter().all(|(_, u, t)| u.correct && t.correct);
    let write = |name: &str, text: String| {
        let path = format!("{OUT_DIR}/{name}");
        match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("# wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    };
    write("results.json", results_json(args, &first));
    write("layers.md", layers_markdown(&first));
    if args.aa {
        match run_pass(args) {
            Ok(second) => {
                ok &= second.runs.iter().all(|(_, u, t)| u.correct && t.correct);
                ok &= compare(&first, &second);
            }
            Err(e) => {
                eprintln!("trac-benchmark: {e}");
                return ExitCode::from(3);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
