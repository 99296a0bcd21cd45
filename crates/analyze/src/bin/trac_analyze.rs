//! `trac-analyze` — audit recency plans for soundness violations.
//!
//! ```text
//! trac-analyze [--explain] [--validate] [--concurrency] [--maintenance]
//!              [--typeflow] [--verbose] [--format text|json] [--dnf-budget N]
//! ```
//!
//! Runs the analyzer passes over every sample workload (the paper
//! fixture, the Section 4.2 fixture, and the Section 5.2 evaluation
//! queries) plus the crate-level concurrency certification (the
//! `TRAC020` lock-order audit) and the crate-level delta-maintenance
//! certification (`TRAC028`..`TRAC030`), and renders any findings in
//! compiler style, or as a JSON report with `--format json`.
//! `--concurrency` restricts the run to the concurrency certification
//! alone; `--maintenance` restricts it to the delta-maintenance
//! certification alone; `--typeflow` adds the typeflow certifier
//! (`TRAC023`..`TRAC026`) to every query and the crate-level panic-path
//! audit (`TRAC027`).
//!
//! Exit codes: `0` — sound; `1` — at least one error-severity
//! diagnostic (an unsound plan or audit); `2` — usage error; `3` — the
//! analyzer itself failed (could not build the sample workloads).

use std::process::ExitCode;
use trac_analyze::{
    analyze_concurrency, analyze_maintenance, analyze_panic_paths, analyze_samples,
    annotated_samples, AnalyzerConfig, Severity, ALL_CODES,
};

/// The analyzer found at least one error-severity diagnostic.
const EXIT_UNSOUND: u8 = 1;
/// The analyzer itself failed (workload construction, planning).
const EXIT_INTERNAL: u8 = 3;

fn usage() -> ! {
    eprintln!(
        "usage: trac-analyze [--explain] [--validate] [--concurrency] [--maintenance] \
         [--typeflow] [--verbose] [--format text|json] [--dnf-budget N]\n\
         \n\
         --explain       list all diagnostic codes (TRAC001..TRAC030) and exit\n\
         --validate      print every sample plan annotated with certified\n\
         \u{20}                dataflow facts, then run the sweep\n\
         --concurrency   run only the concurrency certification (TRAC020)\n\
         --maintenance   run only the delta-maintenance certification (TRAC028..TRAC030)\n\
         --typeflow      audit every plan's kernel certificate (TRAC023..TRAC026)\n\
         \u{20}                and run the panic-path audit (TRAC027)\n\
         --verbose       also print clean queries and non-error findings' renders\n\
         --format FMT    output format: text (default) or json\n\
         --dnf-budget N  DNF term budget (default: the planner's)\n\
         \n\
         exit codes: 0 sound, 1 unsound plan/audit, 2 usage, 3 internal error"
    );
    std::process::exit(2);
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() -> ExitCode {
    let mut cfg = AnalyzerConfig::default();
    let mut verbose = false;
    let mut validate = false;
    let mut concurrency_only = false;
    let mut maintenance_only = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--explain" => {
                for c in ALL_CODES {
                    println!("{} [{}] {}", c.id, c.severity, c.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--validate" => validate = true,
            "--concurrency" => concurrency_only = true,
            "--maintenance" => maintenance_only = true,
            "--typeflow" => cfg.typeflow = true,
            "--verbose" | "-v" => verbose = true,
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                _ => usage(),
            },
            "--dnf-budget" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.dnf_budget = n,
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    if validate && !json {
        match annotated_samples() {
            Ok(plans) => {
                for (name, rendered) in plans {
                    println!("== {name}");
                    println!("{rendered}");
                }
            }
            Err(e) => {
                eprintln!("trac-analyze: failed to lower sample plans: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    }

    let analyses = if concurrency_only || maintenance_only {
        Vec::new()
    } else {
        match analyze_samples(cfg) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("trac-analyze: failed to build sample workloads: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    };
    let concurrency = if maintenance_only {
        Vec::new()
    } else {
        match analyze_concurrency() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("trac-analyze: concurrency certification failed: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    };
    let maintenance = if concurrency_only {
        Vec::new()
    } else {
        match analyze_maintenance() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("trac-analyze: maintenance certification failed: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    };
    let panic_audit = if cfg.typeflow && !concurrency_only && !maintenance_only {
        match analyze_panic_paths() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("trac-analyze: panic-path audit failed: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    } else {
        Vec::new()
    };

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut notes = 0usize;
    let mut count = |d: &trac_analyze::Diagnostic| match d.severity {
        Severity::Error => errors += 1,
        Severity::Warning => warnings += 1,
        Severity::Note => notes += 1,
    };
    for a in &analyses {
        for d in &a.diagnostics {
            count(d);
            if !json && (d.is_error() || verbose) {
                println!("{}", d.render());
            }
        }
        if !json && verbose {
            println!(
                "{}: {} ({} finding{})",
                a.name,
                if a.has_errors() { "UNSOUND" } else { "ok" },
                a.diagnostics.len(),
                if a.diagnostics.len() == 1 { "" } else { "s" }
            );
        }
    }
    for d in concurrency.iter().chain(&maintenance).chain(&panic_audit) {
        count(d);
        if !json && (d.is_error() || verbose) {
            println!("{}", d.render());
        }
    }
    if json {
        // Hand-rolled JSON (no serde in the offline dependency set):
        // stable key order so CI can diff reports textually.
        let mut out = String::from("{\n  \"queries\": [\n");
        for (qi, a) in analyses.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"guarantee\": \"{}\", \"diagnostics\": [",
                json_escape(&a.name),
                json_escape(&a.guarantee.to_string())
            ));
            for (di, d) in a.diagnostics.iter().enumerate() {
                out.push_str(&format!(
                    "\n      {{\"code\": \"{}\", \"severity\": \"{}\", \
                     \"context\": \"{}\", \"message\": \"{}\"}}{}",
                    json_escape(d.code.id),
                    json_escape(&d.severity.to_string()),
                    json_escape(&d.context),
                    json_escape(&d.message),
                    if di + 1 == a.diagnostics.len() {
                        "\n    "
                    } else {
                        ","
                    }
                ));
            }
            out.push_str(&format!(
                "]}}{}\n",
                if qi + 1 == analyses.len() { "" } else { "," }
            ));
        }
        // Crate-level concurrency certification, in the same stable
        // diagnostic shape (code, severity, context, message — always in
        // that key order) so CI can diff the whole report textually.
        out.push_str("  ],\n  \"concurrency\": [");
        for (di, d) in concurrency.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"code\": \"{}\", \"severity\": \"{}\", \
                 \"context\": \"{}\", \"message\": \"{}\"}}{}",
                json_escape(d.code.id),
                json_escape(&d.severity.to_string()),
                json_escape(&d.context),
                json_escape(&d.message),
                if di + 1 == concurrency.len() {
                    "\n  "
                } else {
                    ","
                }
            ));
        }
        // Crate-level delta-maintenance certification, same stable
        // diagnostic shape.
        out.push_str("],\n  \"maintenance\": [");
        for (di, d) in maintenance.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"code\": \"{}\", \"severity\": \"{}\", \
                 \"context\": \"{}\", \"message\": \"{}\"}}{}",
                json_escape(d.code.id),
                json_escape(&d.severity.to_string()),
                json_escape(&d.context),
                json_escape(&d.message),
                if di + 1 == maintenance.len() {
                    "\n  "
                } else {
                    ","
                }
            ));
        }
        // Crate-level panic-path audit (only populated under
        // `--typeflow`), same stable diagnostic shape.
        out.push_str("],\n  \"typeflow\": [");
        for (di, d) in panic_audit.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"code\": \"{}\", \"severity\": \"{}\", \
                 \"context\": \"{}\", \"message\": \"{}\"}}{}",
                json_escape(d.code.id),
                json_escape(&d.severity.to_string()),
                json_escape(&d.context),
                json_escape(&d.message),
                if di + 1 == panic_audit.len() {
                    "\n  "
                } else {
                    ","
                }
            ));
        }
        out.push_str(&format!(
            "],\n  \"errors\": {errors},\n  \"warnings\": {warnings},\n  \"notes\": {notes}\n}}"
        ));
        println!("{out}");
    } else {
        println!(
            "trac-analyze: {} quer{} checked, {} concurrency finding{}, \
             {} maintenance finding{}, \
             {errors} error{}, {warnings} warning{}, {notes} note{}",
            analyses.len(),
            if analyses.len() == 1 { "y" } else { "ies" },
            concurrency.len(),
            if concurrency.len() == 1 { "" } else { "s" },
            maintenance.len(),
            if maintenance.len() == 1 { "" } else { "s" },
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
            if notes == 1 { "" } else { "s" },
        );
    }
    if errors > 0 {
        ExitCode::from(EXIT_UNSOUND)
    } else {
        ExitCode::SUCCESS
    }
}
