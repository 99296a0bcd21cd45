//! `trac-analyze`: a static soundness analyzer for recency plans.
//!
//! The recency machinery makes three load-bearing formal claims — the
//! Notation 4/6 term partition, the Theorem 3/4 minimality preconditions
//! (with the Corollary 2/6 empty-set collapse), and the Notation 5/7
//! subquery rewrite — plus it trusts the three-valued SAT oracle that
//! feeds them. A bug in any of the four silently turns "minimum relevant
//! set" into a lie without failing a single functional test, because the
//! reported sources stay plausible. This crate re-derives each claim
//! independently and diffs it against what the planner actually produced:
//!
//! * [`passes::partition`] — recomputes every basic term's class from the
//!   raw column-touch sets and checks the conjunct partition is disjoint
//!   and exhaustive (`TRAC001`);
//! * [`passes::guarantee`] — recomputes the Theorem 3/4 status of every
//!   subquery and audits the claimed [`Guarantee`] (`TRAC002`, `TRAC003`,
//!   `TRAC007`, `TRAC008`);
//! * [`passes::sanitize`] — structurally audits each generated recency
//!   subquery's bound form and lowered plan IR, the forms the engine
//!   executes (the rendered SQL is never re-lexed): it must project only
//!   `Heartbeat.sid` and never mention (or scan) the relation under
//!   analysis (`TRAC004`, `TRAC005`);
//! * [`passes::satcheck`] — re-decides every SAT verdict the planner
//!   relied on by brute-force model enumeration over small finite domains
//!   (`TRAC006`);
//! * [`passes::validate`] — the translation validator: an abstract-domain
//!   dataflow walk ([`dataflow`]) over every lowered [`PhysicalPlan`]
//!   certifying it against its bound query — predicates enforced exactly
//!   (`TRAC009`, `TRAC010`), join keys and operator contracts respected
//!   (`TRAC011`, `TRAC012`), shaping operators faithful (`TRAC013`);
//! * [`passes::refine`] — independently re-derives every refined-minimum
//!   upgrade the relevance analysis claimed (`TRAC014`, `TRAC015`);
//! * [`passes::concurrency`] — audits the declared lock-acquisition
//!   order dynamically (`TRAC020`). Parallelism is a run-time route of
//!   the executor, not a plan operator, so no parallel plan exists to
//!   certify (`TRAC016`–`TRAC019` are retired);
//! * [`passes::fastpath`] — re-derives the side conditions of every
//!   statistics-driven fast-path operator the lowering emitted
//!   (`CountStar`, `IndexMinMax`, `TopNIndex`, multi-key IN-list
//!   probes) from the bound query and the catalog (`TRAC021`) and
//!   records a positive certification when they all hold (`TRAC022`);
//! * [`passes::typeflow`] — an abstract interpreter over the lane
//!   domain type × nullability × NaN-freedom, seeded from the schema
//!   and the write-time catalog statistics, that audits the
//!   [`trac_plan::KernelCert`] the lowering attached for the unboxed
//!   columnar kernels: unprovable claims are errors (`TRAC023`),
//!   provable ones earn positive certifications (`TRAC024` null-free
//!   lanes, `TRAC025` null-bitmap lanes, `TRAC026` NaN-free float
//!   total order);
//! * [`passes::panics`] — audits every `unwrap()`/`expect(` site in
//!   `crates/exec` and `crates/storage` sources: a panic on a
//!   query-reachable path without a reviewed `PANIC-OK:` justification
//!   is an error (`TRAC027`);
//! * [`passes::maintain`] — certifies the delta-maintenance machinery
//!   behind repeated reports: the typed change stream covers every
//!   committed write path (`TRAC028`,
//!   [`trac_storage::changelog::audit`]), every claimed
//!   [`trac_plan::MaintenanceLicense`] is independently re-derived from
//!   the bound subquery (`TRAC029`), and rescan-only licenses have
//!   their forced-rescan fallback recorded (`TRAC030`).
//!
//! Use [`analyze_sql`] for one query against a live database snapshot,
//! [`analyze_samples`] to sweep every sample workload,
//! [`analyze_concurrency`] for the crate-level concurrency
//! certification, [`analyze_maintenance`] for the crate-level
//! delta-maintenance certification, and [`analyze_panic_paths`] for the
//! crate-level panic-path audit (the `trac-analyze` binary and CI run
//! all of them).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataflow;
pub mod diag;
pub mod passes;

pub use diag::{
    Code, Diagnostic, Severity, Span, SpanFinder, ALL_CODES, ALL_SOURCES_FALLBACK, BAD_PROJECTION,
    DEGRADED_GUARANTEE, FASTPATH_CERTIFIED, FASTPATH_UNSOUND, FLOAT_TOTAL_ORDER, JOIN_KEY_CONTRACT,
    KERNEL_CERTIFIED, LOCK_ORDER, MAINTENANCE_UNSOUND, NULLMASK_CERTIFIED, OPERATOR_CONTRACT,
    PANIC_PATH, PARTITION_VIOLATION, REFINED_MINIMUM, RESCAN_LICENSED, RESIDUE_DROPPED,
    RESIDUE_PHANTOM, SAT_MISMATCH, SHAPE_MISMATCH, STREAM_COVERAGE, TYPE_UNSOUND,
    UNCONFIRMED_REFINEMENT, UNSAT_NONEMPTY, UNSOUND_MINIMUM,
};
pub use passes::validate::validate_plan;
pub use passes::PassCtx;

use trac_plan::PhysicalPlan;

use trac_core::{Guarantee, RecencyPlan, RelevanceConfig};
use trac_expr::{bind_select, to_dnf, BoundSelect, Dnf};
use trac_storage::ReadTxn;
use trac_types::Result;
use trac_workload::{load_eval_db, load_paper_tables, load_section_42_tables, EvalConfig};

/// Analyzer tunables.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzerConfig {
    /// DNF term budget; must match the planner's so both see the same
    /// disjuncts (and the same all-sources fallback).
    pub dnf_budget: usize,
    /// Run the typeflow certifier (`TRAC023`..`TRAC026`) over every
    /// lowered plan's kernel certificate. Off by default so reports
    /// without the `--typeflow` sweep stay byte-stable.
    pub typeflow: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> AnalyzerConfig {
        AnalyzerConfig {
            dnf_budget: RelevanceConfig::default().dnf_budget,
            typeflow: false,
        }
    }
}

/// The analyzer's verdict on one query.
#[derive(Debug)]
pub struct QueryAnalysis {
    /// Query label (e.g. `Q1`).
    pub name: String,
    /// The analyzed SQL.
    pub sql: String,
    /// The guarantee the audited plan claimed.
    pub guarantee: Guarantee,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl QueryAnalysis {
    /// True when any finding is error-severity (a soundness violation).
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }
}

/// Reconstructs the DNF the planner analyzed: a missing predicate is one
/// empty conjunct (every potential tuple satisfies it), mirroring
/// [`RecencyPlan::build`].
fn plan_dnf(q: &BoundSelect, cfg: AnalyzerConfig) -> Dnf {
    match &q.predicate {
        Some(p) => to_dnf(p, cfg.dnf_budget),
        None => Dnf {
            disjuncts: vec![vec![]],
            exact: true,
        },
    }
}

/// Runs all passes over an already-bound query and its claimed plan.
/// `user_plan` is the lowered physical plan of the user query itself
/// (the one the executor would run); when present, the translation
/// validator certifies it alongside every recency subquery's plan.
pub fn analyze_bound(
    name: &str,
    sql: &str,
    q: &BoundSelect,
    plan: &RecencyPlan,
    user_plan: Option<&PhysicalPlan>,
    cfg: AnalyzerConfig,
) -> QueryAnalysis {
    let dnf = plan_dnf(q, cfg);
    let finder = SpanFinder::new(sql);
    let ctx = PassCtx {
        label: name,
        sql,
        finder: &finder,
    };
    let mut diagnostics = Vec::new();
    diagnostics.extend(passes::partition::run(q, &dnf, &ctx));
    diagnostics.extend(passes::guarantee::audit_plan(q, plan, &dnf, &ctx));
    diagnostics.extend(passes::sanitize::run(q, plan, name));
    diagnostics.extend(passes::satcheck::run(q, &dnf, &ctx));
    diagnostics.extend(passes::validate::run(q, plan, user_plan, &ctx));
    diagnostics.extend(passes::refine::run(q, plan, &dnf, &ctx));
    QueryAnalysis {
        name: name.to_string(),
        sql: sql.to_string(),
        guarantee: plan.guarantee,
        diagnostics,
    }
}

/// Parses, binds and plans `sql` in `txn`'s snapshot, then audits the
/// resulting recency plan and the query's own lowered physical plan.
pub fn analyze_sql(
    txn: &ReadTxn,
    name: &str,
    sql: &str,
    cfg: AnalyzerConfig,
) -> Result<QueryAnalysis> {
    let stmt = trac_sql::parse_select(sql)?;
    let q = bind_select(txn, &stmt)?;
    let plan = RecencyPlan::build(
        txn,
        &q,
        RelevanceConfig {
            dnf_budget: cfg.dnf_budget,
        },
    )?;
    let user_plan = trac_plan::plan_select(txn, &q, trac_plan::ExecOptions::default())?;
    let mut analysis = analyze_bound(name, sql, &q, &plan, Some(&user_plan), cfg);
    // Certify every statistics-driven fast path the lowering emitted —
    // in the user plan and in every recency subquery plan — by
    // re-deriving its side conditions from the bound query and the
    // catalog snapshot (TRAC021/TRAC022).
    analysis
        .diagnostics
        .extend(passes::fastpath::run(txn, &q, &user_plan, &plan, name));
    // Re-derive every maintenance license the planner claimed for the
    // generated recency subqueries (TRAC029) and record the forced-
    // rescan fallback of rescan-only licenses (TRAC030).
    analysis
        .diagnostics
        .extend(passes::maintain::run(&plan, name));
    // Audit the kernel certificate the lowering attached for the
    // unboxed columnar kernels — in the user plan and in every recency
    // subquery plan — by re-deriving every lane claim from the schema
    // and the write-time catalog statistics (TRAC023..TRAC026).
    if cfg.typeflow {
        analysis
            .diagnostics
            .extend(passes::typeflow::run(txn, &q, &user_plan, &plan, name));
    }
    Ok(analysis)
}

/// Renders `plan` as an EXPLAIN tree with each operator annotated with
/// the facts the dataflow engine certified for it (see
/// [`dataflow::Facts::summary`]).
pub fn annotated_plan(q: &BoundSelect, plan: &PhysicalPlan) -> String {
    let map = dataflow::propagate(q, plan);
    plan.render_annotated(&|node| {
        map.get(node)
            .map(|f| f.summary(q))
            .filter(|s| !s.is_empty())
    })
}

/// Lowers every sample workload query and renders its physical plan
/// annotated with the certified dataflow facts — the `--validate`
/// output of the `trac-analyze` binary.
pub fn annotated_samples() -> Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let paper = load_paper_tables()?;
    let txn = paper.db.begin_read();
    for (name, sql) in PAPER_SAMPLE_QUERIES {
        out.push((name.to_string(), annotate_one(&txn, sql)?));
    }
    let s42 = load_section_42_tables(&["myScheduler", "mx", "my"])?;
    let txn = s42.db.begin_read();
    for (name, sql) in SECTION42_SAMPLE_QUERIES {
        out.push((name.to_string(), annotate_one(&txn, sql)?));
    }
    let eval = load_eval_db(&EvalConfig::new(EVAL_SAMPLE_ROWS, EVAL_SAMPLE_RATIO))?;
    let txn = eval.db.begin_read();
    for (name, sql) in trac_workload::PAPER_QUERIES {
        out.push((format!("eval/{name}"), annotate_one(&txn, sql)?));
    }
    Ok(out)
}

fn annotate_one(txn: &ReadTxn, sql: &str) -> Result<String> {
    let stmt = trac_sql::parse_select(sql)?;
    let q = bind_select(txn, &stmt)?;
    let plan = trac_plan::plan_select(txn, &q, trac_plan::ExecOptions::default())?;
    Ok(annotated_plan(&q, &plan))
}

/// The worked-example queries of Section 4.1 plus the queries the
/// shipped examples run against the paper fixture
/// ([`load_paper_tables`]).
pub const PAPER_SAMPLE_QUERIES: [(&str, &str); 6] = [
    (
        "paper/Q1",
        "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'",
    ),
    (
        "paper/Q2",
        "SELECT A.mach_id FROM Routing R, Activity A \
         WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
    ),
    (
        "paper/quickstart",
        "SELECT mach_id, value FROM Activity A WHERE value = 'idle'",
    ),
    (
        "paper/ordered",
        "SELECT mach_id FROM Activity WHERE value = 'idle' ORDER BY mach_id",
    ),
    ("paper/unfiltered", "SELECT mach_id FROM Activity"),
    // `mach_id <> value` is a mixed term over disjoint domains: the
    // refinement pass proves it vacuous and upgrades the Corollary 3
    // upper bound to an exact Theorem 3 minimum (TRAC014).
    (
        "paper/refined",
        "SELECT mach_id FROM Activity WHERE value = 'idle' AND mach_id <> value",
    ),
];

/// The Section 4.2 job-status queries against [`load_section_42_tables`].
pub const SECTION42_SAMPLE_QUERIES: [(&str, &str); 2] = [
    (
        "section42/Q3",
        "SELECT R.runningMachineId FROM R WHERE R.jobId = 1",
    ),
    (
        "section42/Q4",
        "SELECT R.runningMachineId FROM S, R \
         WHERE S.schedMachineId = 'myScheduler' AND S.jobId = 1 AND R.jobId = 1 \
         AND R.runningMachineId = S.remoteMachineId",
    ),
];

/// Evaluation-database size for the sample sweep (small on purpose: the
/// analyzer exercises planning, not scans).
const EVAL_SAMPLE_ROWS: u64 = 200;
/// Rows per source in the sample evaluation database.
const EVAL_SAMPLE_RATIO: u64 = 20;

/// Audits every sample workload: the paper fixture, the Section 4.2
/// fixture, and the four Section 5.2 evaluation queries over a small
/// evaluation database.
pub fn analyze_samples(cfg: AnalyzerConfig) -> Result<Vec<QueryAnalysis>> {
    let mut out = Vec::new();
    let paper = load_paper_tables()?;
    let txn = paper.db.begin_read();
    for (name, sql) in PAPER_SAMPLE_QUERIES {
        out.push(analyze_sql(&txn, name, sql, cfg)?);
    }
    let s42 = load_section_42_tables(&["myScheduler", "mx", "my"])?;
    let txn = s42.db.begin_read();
    for (name, sql) in SECTION42_SAMPLE_QUERIES {
        out.push(analyze_sql(&txn, name, sql, cfg)?);
    }
    let eval = load_eval_db(&EvalConfig::new(EVAL_SAMPLE_ROWS, EVAL_SAMPLE_RATIO))?;
    let txn = eval.db.begin_read();
    for (name, sql) in trac_workload::PAPER_QUERIES {
        out.push(analyze_sql(&txn, &format!("eval/{name}"), sql, cfg)?);
    }
    Ok(out)
}

/// The crate-level concurrency certification (diagnostic `TRAC020`):
/// checks the instrumented lock-acquisition graph of a representative
/// workload against the declared order.
///
/// A clean run returns exactly one note-severity positive
/// certification, so the committed analyzer baseline records the proof,
/// and any regression flips the note into an error the CI JSON diff
/// cannot miss.
pub fn analyze_concurrency() -> Result<Vec<Diagnostic>> {
    let mut diags = passes::concurrency::audit_lock_order()?;
    if diags.is_empty() {
        let mut d = Diagnostic::new(
            LOCK_ORDER,
            "concurrency certification",
            "audited the instrumented lock-acquisition graph: every observed edge respects \
             PlanCache < ReportTables < DbData < TxnStamped < MorselSlot < ChangeLog",
        );
        d.severity = Severity::Note;
        diags.push(d);
    }
    Ok(diags)
}

/// The crate-level delta-maintenance certification (diagnostics
/// `TRAC028` to `TRAC030`): audits the typed change stream's coverage of
/// every `crates/storage` mutation path, then re-derives the maintenance
/// license of every generated recency subquery across the sample
/// workloads and diffs it against the planner's claim.
///
/// A clean run returns exactly three note-severity diagnostics — the
/// stream-coverage proof (`TRAC028`), the license re-derivation proof
/// (`TRAC029`), and the forced-rescan fallback census (`TRAC030`) — so
/// the committed analyzer baseline records what was proven and any
/// regression flips a note into an error the CI JSON diff cannot miss.
pub fn analyze_maintenance() -> Result<Vec<Diagnostic>> {
    let mut diags = passes::maintain::audit_stream_coverage()?;
    let stream_clean = diags.is_empty();
    let mut plans = 0usize;
    let mut subs = 0usize;
    let mut foldable = 0usize;
    let mut rescan = 0usize;
    let mut sweep = |txn: &ReadTxn, name: &str, sql: &str| -> Result<()> {
        let stmt = trac_sql::parse_select(sql)?;
        let q = bind_select(txn, &stmt)?;
        let plan = RecencyPlan::build(txn, &q, RelevanceConfig::default())?;
        for sub in &plan.subqueries {
            subs += 1;
            if sub.maintenance.delta_foldable() {
                foldable += 1;
            } else {
                rescan += 1;
            }
        }
        // Only license mismatches (errors) feed the crate report; the
        // per-query TRAC030 notes already live in the sample sweep.
        diags.extend(
            passes::maintain::run(&plan, name)
                .into_iter()
                .filter(Diagnostic::is_error),
        );
        plans += 1;
        Ok(())
    };
    let paper = load_paper_tables()?;
    let txn = paper.db.begin_read();
    for (name, sql) in PAPER_SAMPLE_QUERIES {
        sweep(&txn, name, sql)?;
    }
    drop(txn);
    let s42 = load_section_42_tables(&["myScheduler", "mx", "my"])?;
    let txn = s42.db.begin_read();
    for (name, sql) in SECTION42_SAMPLE_QUERIES {
        sweep(&txn, name, sql)?;
    }
    drop(txn);
    let eval = load_eval_db(&EvalConfig::new(EVAL_SAMPLE_ROWS, EVAL_SAMPLE_RATIO))?;
    let txn = eval.db.begin_read();
    for (name, sql) in trac_workload::PAPER_QUERIES {
        sweep(&txn, &format!("eval/{name}"), sql)?;
    }
    drop(txn);
    // Positive certification: one note per clean code, so the committed
    // baseline records what was proven rather than a silent absence.
    let licenses_clean = !diags.iter().any(|d| d.code.id == MAINTENANCE_UNSOUND.id);
    let certs: [(Code, bool, String); 3] = [
        (
            STREAM_COVERAGE,
            stream_clean,
            "audited crates/storage mutation paths: every committed write publishes its typed \
             change event to the sequenced stream maintained reports fold"
                .to_string(),
        ),
        (
            MAINTENANCE_UNSOUND,
            licenses_clean,
            format!(
                "re-derived the maintenance license of {subs} generated recency subqueries \
                 across {plans} sample queries: every claimed license was independently \
                 confirmed ({foldable} delta-foldable, {rescan} rescan-only)"
            ),
        ),
        (
            RESCAN_LICENSED,
            licenses_clean,
            format!(
                "forced-rescan fallback census: {rescan} of {subs} sample recency subqueries \
                 are licensed rescan-only; the rescan fallback stays live for every license — \
                 a delete, raw heartbeat DML or ring overflow re-runs the subquery instead of \
                 folding"
            ),
        ),
    ];
    for (code, clean, message) in certs {
        if clean {
            let mut d = Diagnostic::new(code, "maintenance certification", message);
            d.severity = Severity::Note;
            diags.push(d);
        }
    }
    Ok(diags)
}

/// The crate-level panic-path audit (`TRAC027`): scans every
/// `unwrap()`/`expect(` site in the `crates/exec` and `crates/storage`
/// sources and flags the query-reachable ones carrying no reviewed
/// `PANIC-OK:` justification.
///
/// A clean run returns exactly one note-severity positive certification
/// recording the audited site census, so the committed analyzer
/// baseline records the proof and any new unreviewed panic site flips
/// it into an error the CI JSON diff cannot miss.
pub fn analyze_panic_paths() -> Result<Vec<Diagnostic>> {
    let sites = passes::panics::collect_panic_sites()?;
    let mut diags = passes::panics::check_panic_sites(&sites);
    if diags.is_empty() {
        // Only the reviewed sites are counted: a test-only `unwrap()`
        // added or removed must not move the committed baseline.
        let justified = sites.iter().filter(|s| !s.in_tests && s.justified).count();
        let mut d = Diagnostic::new(
            PANIC_PATH,
            "exec/storage panic audit",
            format!(
                "audited the panic sites of crates/exec and crates/storage: \
                 {justified} carry a reviewed PANIC-OK justification, none sit \
                 unreviewed on a query-reachable path"
            ),
        );
        d.severity = Severity::Note;
        diags.push(d);
    }
    Ok(diags)
}
