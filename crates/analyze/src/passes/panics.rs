//! Pass 10: the panic-path audit (`TRAC027`).
//!
//! A query engine's contract is that malformed input, a torn invariant
//! or a corrupt certificate surfaces as a typed [`TracError`] at the SQL
//! prompt — never as a process abort. Every `unwrap()`/`expect(` on a
//! query-reachable path of `crates/exec` and `crates/storage` is a
//! latent violation of that contract: the panic fires exactly when the
//! invariant it "documents" breaks, which is exactly when a diagnostic
//! is most needed.
//!
//! This pass scans the two crates' sources and flags every panic site
//! that is neither
//!
//! * **test-only** — at or after the file's `#[cfg(test)]` module
//!   (repository convention keeps test modules last), nor
//! * **justified** — annotated with a reviewed `PANIC-OK: <reason>`
//!   comment on the same line or within the two preceding lines, the
//!   allowlist mechanism for sites whose invariant is locally provable
//!   (a poisoned-lock bubble, an index produced by the same loop, …).
//!
//! Following the pass convention, [`check_panic_sites`] takes the
//! *claimed* site list so tests can seed one violation and assert the
//! exact diagnostic; [`audit_panic_paths`] feeds it the production
//! sources via `CARGO_MANIFEST_DIR`-relative paths, the way the
//! lock-order (`TRAC020`) and change-stream (`TRAC028`) audits feed
//! their checkers the production code paths.
//!
//! [`TracError`]: trac_types::TracError

use crate::diag::{Diagnostic, PANIC_PATH};
use std::fs;
use std::path::{Path, PathBuf};
use trac_types::{Result, TracError};

/// One `unwrap()`/`expect(` occurrence in an audited source file.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Path of the file, relative to the repository root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The matched call: `"unwrap"` or `"expect"`.
    pub call: &'static str,
    /// A `PANIC-OK:` justification comment covers this site.
    pub justified: bool,
    /// The site sits at or after the file's `#[cfg(test)]` module and
    /// is unreachable from a query.
    pub in_tests: bool,
}

impl PanicSite {
    /// True when the site violates the discipline: reachable from a
    /// query (not test-only) and carrying no reviewed justification.
    pub fn violates_discipline(&self) -> bool {
        !self.in_tests && !self.justified
    }
}

/// Flags every panic site on a query-reachable path without an
/// allowlist proof (`TRAC027`).
pub fn check_panic_sites(sites: &[PanicSite]) -> Vec<Diagnostic> {
    sites
        .iter()
        .filter(|s| s.violates_discipline())
        .map(|s| {
            Diagnostic::new(
                PANIC_PATH,
                "exec/storage panic audit",
                format!(
                    "{}:{} calls `{}` on a query-reachable path with no `PANIC-OK:` \
                     justification; a broken invariant would abort the process instead \
                     of surfacing a typed error",
                    s.file, s.line, s.call
                ),
            )
        })
        .collect()
}

/// Scans one source file for panic sites. `file` is the label recorded
/// in each site (repository-relative); `text` is the file contents.
///
/// The scan is line-based and deliberately conservative: it matches the
/// exact call forms `.unwrap()` and `.expect(` (never the total
/// `unwrap_or*` / `expect_err` family), skips `//` comment lines, and
/// treats everything from the first `#[cfg(test)]` onward as test code
/// — the repository convention keeps the test module last in the file.
pub fn scan_source(file: &str, text: &str) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    let mut in_tests = false;
    let lines: Vec<&str> = text.lines().collect();
    for (i, raw) in lines.iter().enumerate() {
        let line = raw.trim_start();
        if line.starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if line.starts_with("//") {
            continue;
        }
        let justified = (i.saturating_sub(2)..=i).any(|j| lines[j].contains("PANIC-OK:"));
        for (needle, call) in [(".unwrap()", "unwrap"), (".expect(", "expect")] {
            let mut hits = 0;
            let mut rest = line;
            while let Some(at) = rest.find(needle) {
                hits += 1;
                rest = &rest[at + needle.len()..];
            }
            for _ in 0..hits {
                sites.push(PanicSite {
                    file: file.to_string(),
                    line: i + 1,
                    call,
                    justified,
                    in_tests,
                });
            }
        }
    }
    sites
}

/// Crate audit: scans every `.rs` file under `crates/exec/src` and
/// `crates/storage/src` and checks the panic-path discipline
/// (`TRAC027`).
pub fn audit_panic_paths() -> Result<Vec<Diagnostic>> {
    Ok(check_panic_sites(&collect_panic_sites()?))
}

/// All panic sites of the audited crates, in deterministic path order.
pub fn collect_panic_sites() -> Result<Vec<PanicSite>> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sites = Vec::new();
    for (label, rel) in [
        ("crates/exec/src", "../exec/src"),
        ("crates/storage/src", "../storage/src"),
    ] {
        let root = manifest.join(rel);
        let mut files = Vec::new();
        rust_files(&root, &mut files)?;
        files.sort();
        for path in files {
            let text = fs::read_to_string(&path)
                .map_err(|e| TracError::Config(format!("panic audit: read {path:?}: {e}")))?;
            let name = path
                .strip_prefix(&root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            sites.extend(scan_source(&format!("{label}/{name}"), &text));
        }
    }
    Ok(sites)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<()> {
    let entries = fs::read_dir(dir)
        .map_err(|e| TracError::Config(format!("panic audit: read dir {dir:?}: {e}")))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| TracError::Config(format!("panic audit: walk {dir:?}: {e}")))?;
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_matches_exact_call_forms_only() {
        let text = "let a = x.unwrap();\n\
                    let b = x.unwrap_or(0);\n\
                    let c = x.expect(\"reason\");\n\
                    let d = x.expect_err(\"dual\");\n\
                    let e = x.unwrap_or_else(|| 0);\n\
                    // commented: y.unwrap()\n\
                    let f = x.unwrap().unwrap();\n";
        let sites = scan_source("s.rs", text);
        let got: Vec<_> = sites.iter().map(|s| (s.line, s.call)).collect();
        assert_eq!(
            got,
            [(1, "unwrap"), (3, "expect"), (7, "unwrap"), (7, "unwrap")]
        );
    }

    #[test]
    fn justification_window_is_two_lines() {
        let text = "// PANIC-OK: provable locally.\n\
                    let a = x\n\
                        .unwrap();\n\
                    \n\
                    \n\
                    let b = y.unwrap();\n";
        let sites = scan_source("s.rs", text);
        assert!(sites[0].justified, "comment two lines up covers the site");
        assert!(!sites[1].justified, "the window does not stretch further");
    }

    #[test]
    fn test_modules_are_exempt() {
        let text = "fn live() { a.unwrap(); }\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    \u{20}   fn t() { b.unwrap(); }\n\
                    }\n";
        let sites = scan_source("s.rs", text);
        assert!(!sites[0].in_tests);
        assert!(sites[1].in_tests);
        assert_eq!(check_panic_sites(&sites).len(), 1);
    }

    #[test]
    fn production_census_is_nonempty_and_deterministic() {
        let a = collect_panic_sites().unwrap();
        let b = collect_panic_sites().unwrap();
        assert!(!a.is_empty(), "the audited crates contain panic sites");
        let key = |s: &[PanicSite]| -> Vec<(String, usize)> {
            s.iter().map(|x| (x.file.clone(), x.line)).collect()
        };
        assert_eq!(key(&a), key(&b));
    }
}
