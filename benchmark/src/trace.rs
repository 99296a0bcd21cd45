//! The traced run: each report is issued as the sequence of calls
//! `Session::recency_report_with` makes on the layers' public functions,
//! in the same order and under one `ReadTxn`, with a span around each.
//!
//! The stock `Session` issues the same report beside it: its time is the
//! untraced reference (`trace.overhead_ratio`), its counters are the
//! engine's own (`core.*_ratio`), and its output is what the decomposed
//! report must equal. End-to-end metrics never come from this run.

use crate::metrics::per_layer_name;
use crate::run::{self, Client, Config, Metrics, Outcome, RealClient};
use crate::stats::median;
use crate::workload::Statement;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;
use trac_core::{
    MaintainedReport, RecencyPlan, RecencyReport, RelevanceConfig, ReportConfig, ReportOutput,
    ServeKind,
};
use trac_exec::{ExecOptions, QueryResult};
use trac_storage::{ColumnDef, Database, TableSchema};
use trac_types::{DataType, Result, SourceId, Timestamp, Value};

/// Span names; the part before the dot is the crate (layer) the timed
/// call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Report,
    BeginRead,
    Parse,
    Bind,
    Dnf,
    PlanBuild,
    Register,
    Lower,
    UserQuery,
    RelevanceFold,
    RelevanceRescan,
    Stats,
    TempMaterialize,
    SessionClose,
    WriteBatch,
    Commit,
}

impl Kind {
    /// Number of variants (`Commit` is the last).
    const COUNT: usize = Kind::Commit as usize + 1;

    /// The spans that become `<name>_us` / `<name>_share` metrics.
    pub const LAYER_SPANS: [Kind; 14] = [
        Kind::Parse,
        Kind::Bind,
        Kind::Dnf,
        Kind::PlanBuild,
        Kind::Register,
        Kind::Lower,
        Kind::UserQuery,
        Kind::RelevanceFold,
        Kind::RelevanceRescan,
        Kind::Stats,
        Kind::BeginRead,
        Kind::TempMaterialize,
        Kind::SessionClose,
        Kind::WriteBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Report => "report",
            Kind::BeginRead => "storage.begin_read",
            Kind::Parse => "sql.parse",
            Kind::Bind => "expr.bind",
            Kind::Dnf => "expr.dnf",
            Kind::PlanBuild => "core.plan_build",
            Kind::Register => "core.register",
            Kind::Lower => "plan.lower",
            Kind::UserQuery => "exec.user_query",
            Kind::RelevanceFold => "core.relevance_fold",
            Kind::RelevanceRescan => "core.relevance_rescan",
            Kind::Stats => "core.stats",
            Kind::TempMaterialize => "storage.temp_materialize",
            Kind::SessionClose => "storage.session_close",
            Kind::WriteBatch => "storage.write_batch",
            Kind::Commit => "storage.commit",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Spans of one op (one report, one write batch) share this.
    pub op_id: u32,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. The buffer is allocated up front so that
/// recording a span never reallocates inside a timed call.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, kind: Kind, op_id: u32) -> u32 {
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            op_id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn end(&mut self, index: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Closes every open span now: an op that failed midway left them.
    fn close_all(&mut self) {
        let now = self.now_ns();
        while let Some(index) = self.open.pop() {
            self.spans[index as usize].end_ns = now;
        }
    }

    pub fn time<T>(&mut self, kind: Kind, op_id: u32, f: impl FnOnce() -> T) -> T {
        let index = self.begin(kind, op_id);
        let out = f();
        self.end(index);
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// The benchmark's own copy of the session state `recency_report` keeps
/// per SQL text: the prepared plan and its delta-maintained report.
struct CachedPlan {
    plan: RecencyPlan,
    maintained: Option<MaintainedReport>,
    /// Rows in the statement's FROM tables when it was first planned (the
    /// denominator of `exec.ns_per_row`).
    from_rows: u64,
}

#[derive(Default)]
struct Counts {
    reports: u64,
    dnf_conjuncts: u64,
    plan_subqueries: u64,
    plan_builds: u64,
    result_rows: u64,
    from_rows: u64,
    members: u64,
    folds: u64,
    fold_events: u64,
    temp_rows: u64,
    batches: u64,
    batch_rows: u64,
    batch_events: u64,
    mismatches: u64,
    errors: u64,
}

/// What the decomposed report produced, for comparison with the stock
/// session's output.
struct Decomposed {
    result: QueryResult,
    report: RecencyReport,
    /// Duration of the root span.
    whole_ms: f64,
}

pub struct TracedClient {
    real: RealClient,
    db: Database,
    session_id: u64,
    temp_seq: u64,
    cache: HashMap<String, CachedPlan>,
    tracer: Tracer,
    next_op: u32,
    counts: Counts,
    /// Per op: the decomposed report's time over the stock session's.
    overhead: Vec<f64>,
}

/// 2 M spans × 32 B: room for ~200 k traced point reports.
const SPAN_CAPACITY: usize = 2 << 20;
/// Spans written to the trace file; aggregates cover all of them.
const SPANS_IN_FILE: usize = 20_000;

impl TracedClient {
    fn new(real: RealClient) -> TracedClient {
        let db = real.bench.db.clone();
        TracedClient {
            session_id: db.new_session_id(),
            db,
            real,
            temp_seq: 0,
            cache: HashMap::new(),
            tracer: Tracer::with_capacity(SPAN_CAPACITY),
            next_op: 0,
            counts: Counts::default(),
            overhead: Vec::new(),
        }
    }

    fn materialize(&mut self, prefix: char, rows: &[(SourceId, Timestamp)]) -> Result<()> {
        let name = format!("bench_temp_{prefix}{}_{}", self.session_id, self.temp_seq);
        let schema = TableSchema::new(
            name,
            vec![
                ColumnDef::new("sid", DataType::Text),
                ColumnDef::new("recency", DataType::Timestamp),
            ],
            None,
        )?;
        let tid = self.db.create_temp_table(schema, self.session_id)?;
        self.db.with_write(|w| {
            for (s, t) in rows {
                w.insert(tid, vec![s.to_value(), Value::Timestamp(*t)])?;
            }
            Ok(())
        })
    }

    /// `Session::recency_report_with(sql, Method::Focused)`, call by call.
    fn report(&mut self, sql: &str) -> Result<Decomposed> {
        let op = self.next_op;
        self.next_op += 1;
        let opts = ExecOptions::default();
        let root = self.tracer.begin(Kind::Report, op);
        let txn = self
            .tracer
            .time(Kind::BeginRead, op, || self.db.begin_read());
        let stmt = self
            .tracer
            .time(Kind::Parse, op, || trac_sql::parse_select(sql))?;
        let bound = self
            .tracer
            .time(Kind::Bind, op, || trac_expr::bind_select(&txn, &stmt))?;
        let config = RelevanceConfig::default();
        let mut built = false;
        if !self.cache.contains_key(sql) {
            let plan = self.tracer.time(Kind::PlanBuild, op, || {
                RecencyPlan::build(&txn, &bound, config)
            })?;
            self.counts.plan_builds += 1;
            self.counts.plan_subqueries += plan.subqueries.len() as u64;
            let from_rows = bound
                .tables
                .iter()
                .map(|t| txn.table_stats(t.id).rows)
                .sum();
            self.cache.insert(
                sql.to_string(),
                CachedPlan {
                    plan,
                    maintained: None,
                    from_rows,
                },
            );
            built = true;
        }
        let entry = self.cache.get_mut(sql).expect("inserted above");
        // The session hands out a clone of the cached plan; so do we.
        let plan = entry.plan.clone();
        let from_rows = entry.from_rows;
        let taken = entry.maintained.take();
        let physical = self.tracer.time(Kind::Lower, op, || {
            trac_plan::plan_select(&txn, &bound, opts)
        })?;
        let result = self.tracer.time(Kind::UserQuery, op, || {
            trac_exec::execute_plan_with(&txn, &physical, opts)
        })?;
        let (state, pairs) = match taken {
            Some(mut state) => {
                let cursor = state.cursor();
                // Which span this is depends on how the refresh is served.
                let index = self.tracer.begin(Kind::RelevanceFold, op);
                let served = state.refresh(&txn, &self.db, &plan, opts);
                self.tracer.end(index);
                let (pairs, kind) = served?;
                match kind {
                    ServeKind::Delta => {
                        self.counts.folds += 1;
                        self.counts.fold_events += state.cursor() - cursor;
                    }
                    ServeKind::Rescan => {
                        self.tracer.spans[index as usize].kind = Kind::RelevanceRescan;
                    }
                }
                (state, pairs)
            }
            None => self.tracer.time(Kind::Register, op, || {
                MaintainedReport::register(&txn, &self.db, &plan, opts)
            })?,
        };
        if let Some(entry) = self.cache.get_mut(sql) {
            entry.maintained = Some(state);
        }
        self.counts.members += pairs.len() as u64;
        let report = self.tracer.time(Kind::Stats, op, || {
            RecencyReport::compute(pairs, plan.guarantee, ReportConfig::default())
        });
        self.temp_seq += 1;
        let index = self.tracer.begin(Kind::TempMaterialize, op);
        let stored = self
            .materialize('a', &report.normal)
            .and_then(|()| self.materialize('e', &report.exceptional));
        self.tracer.end(index);
        stored?;
        self.tracer.end(root);
        let whole_ms = self.tracer.spans[root as usize].duration_ns() as f64 / 1e6;

        self.counts.reports += 1;
        self.counts.result_rows += result.rows.len() as u64;
        self.counts.from_rows += from_rows;
        self.counts.temp_rows += report.relevant_count() as u64;
        if built {
            // A probe apart from the report: what share of plan_build the
            // DNF conversion alone is. Outside the root span, so it is in
            // neither the report's time nor the coverage sum.
            if let Some(p) = &bound.predicate {
                let dnf = self
                    .tracer
                    .time(Kind::Dnf, op, || trac_expr::to_dnf(p, config.dnf_budget));
                self.counts.dnf_conjuncts += dnf.disjuncts.len() as u64;
            }
        }
        Ok(Decomposed {
            result,
            report,
            whole_ms,
        })
    }

    fn same_as_stock(ours: &Decomposed, stock: &ReportOutput) -> bool {
        ours.result == stock.result
            && ours.report.normal == stock.report.normal
            && ours.report.exceptional == stock.report.exceptional
            && ours.report.guarantee == stock.report.guarantee
    }
}

impl Client for TracedClient {
    fn write(&mut self, rows: u64) {
        let op = self.next_op;
        self.next_op += 1;
        let seq = self.db.change_log().next_seq();
        let index = self.tracer.begin(Kind::WriteBatch, op);
        let real = &mut self.real;
        let batch = real.bench.ingest_batch(&mut real.write_rng, rows);
        match batch {
            Ok(txn) => {
                self.tracer.time(Kind::Commit, op, || txn.commit());
                self.counts.batches += 1;
                self.counts.batch_rows += rows;
                self.counts.batch_events += self.db.change_log().next_seq() - seq;
            }
            Err(e) => {
                eprintln!("FAILED op (write): {e}");
                self.counts.errors += 1;
            }
        }
        self.tracer.end(index);
    }

    fn pair(&mut self, statement: &Statement, position: u32) {
        // The second of the two runs on the caches the first one warmed.
        let stock_first = self.real.report_goes_first(statement.class);
        let mut stock = None;
        if stock_first {
            stock = self.real.report(statement, position);
        }
        let ours = self.report(&statement.sql);
        if !stock_first {
            stock = self.real.report(statement, position);
        }
        match ours {
            Ok(ours) => {
                self.overhead.push(ours.whole_ms / self.real.last_report_ms);
                if !stock.is_some_and(|s| TracedClient::same_as_stock(&ours, &s)) {
                    self.counts.mismatches += 1;
                    if self.counts.mismatches <= 5 {
                        eprintln!("FAILED op (decomposed report differs): {}", statement.sql);
                    }
                }
            }
            Err(e) => {
                eprintln!("FAILED op (decomposed report): {e}");
                self.counts.errors += 1;
                self.tracer.close_all();
            }
        }
    }

    fn close_block(&mut self) {
        self.real.timed_close();
        let op = self.next_op;
        self.next_op += 1;
        self.tracer.time(Kind::SessionClose, op, || {
            self.db.drop_session_temps(self.session_id);
        });
    }

    fn reconnect(&mut self) {
        self.real.timed_reconnect();
        self.db.drop_session_temps(self.session_id);
        self.session_id = self.db.new_session_id();
        self.cache.clear();
    }

    fn real(&mut self) -> &mut RealClient {
        &mut self.real
    }

    /// The window ends early rather than grow the span buffer under a
    /// timed call.
    fn exhausted(&self) -> bool {
        self.tracer.spans.len() + 4096 > self.tracer.spans.capacity()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: set-up, the window, and the per-layer metrics.
pub fn traced(cfg: &Config, trace_path: Option<&std::path::Path>) -> Result<Outcome> {
    let mut ready = run::setup(cfg, TracedClient::new)?;
    // The warm-up's spans and counts are not the window's.
    ready.client.tracer.spans.clear();
    ready.client.counts = Counts::default();
    ready.client.overhead.clear();
    ready.client.real.reset();

    let mut stop = run::window(cfg);
    ready
        .pacer
        .run(&ready.workload, &mut ready.client, &mut stop);
    let client = &mut ready.client;
    let engine = client.real.engine_counters();

    let spans = &client.tracer.spans;
    let own = self_times_ns(spans);
    let mut durations_us: Vec<Vec<f64>> = vec![Vec::new(); Kind::COUNT];
    let mut self_ns = [0u64; Kind::COUNT];
    let mut total_ns = [0u64; Kind::COUNT];
    let mut in_report_ns = 0u64;
    let mut residual_us = Vec::new();
    for (s, own_ns) in spans.iter().zip(&own) {
        let k = s.kind as usize;
        durations_us[k].push(s.duration_ns() as f64 / 1e3);
        self_ns[k] += own_ns;
        total_ns[k] += s.duration_ns();
        if s.kind == Kind::Report {
            residual_us.push(*own_ns as f64 / 1e3);
        } else if s.parent != NO_PARENT && spans[s.parent as usize].kind == Kind::Report {
            in_report_ns += s.duration_ns();
        }
    }
    // The traced client's op loop: its reports, write batches and closes.
    let loop_ns = (total_ns[Kind::Report as usize]
        + total_ns[Kind::WriteBatch as usize]
        + total_ns[Kind::SessionClose as usize]) as f64;
    let n = &client.counts;
    let reports = n.reports as f64;

    let mut metrics: Metrics = Vec::new();
    for kind in Kind::LAYER_SPANS {
        let k = kind as usize;
        let us = median(&mut durations_us[k]).unwrap_or(0.0);
        metrics.push((per_layer_name(&format!("{}_us", kind.name())), us));
        metrics.push((
            per_layer_name(&format!("{}_share", kind.name())),
            ratio(self_ns[k] as f64, loop_ns),
        ));
    }
    let user_query_ns = total_ns[Kind::UserQuery as usize] as f64;
    let write_ns = self_ns[Kind::WriteBatch as usize] as f64;
    let drift = run::class_mean(&mut client.real.classes, |s| {
        Some(median(&mut s.block_tail_ms)? / median(&mut s.block_head_ms)?)
    });
    let served = (engine.delta_serves + engine.rescan_serves) as f64;
    let stock_reports = (engine.cache_hits + engine.cache_misses) as f64;
    metrics.extend([
        (
            "expr.dnf_conjuncts",
            ratio(n.dnf_conjuncts as f64, n.plan_builds as f64),
        ),
        (
            "core.plan_subqueries",
            ratio(n.plan_subqueries as f64, n.plan_builds as f64),
        ),
        ("exec.result_rows", ratio(n.result_rows as f64, reports)),
        ("exec.ns_per_row", ratio(user_query_ns, n.from_rows as f64)),
        ("core.members", ratio(n.members as f64, reports)),
        (
            "core.fold_events",
            ratio(n.fold_events as f64, n.folds as f64),
        ),
        ("storage.temp_rows", ratio(n.temp_rows as f64, reports)),
        (
            "storage.write_us_per_row",
            ratio(write_ns / 1e3, n.batch_rows as f64),
        ),
        (
            "storage.commit_us",
            median(&mut durations_us[Kind::Commit as usize]).unwrap_or(0.0),
        ),
        (
            "storage.changelog_events_per_row",
            ratio(n.batch_events as f64, n.batch_rows as f64),
        ),
        (
            "core.delta_serve_ratio",
            ratio(engine.delta_serves as f64, served),
        ),
        (
            "core.rescan_serves",
            ratio(engine.rescan_serves as f64, stock_reports),
        ),
        (
            "core.registrations",
            ratio(engine.registrations as f64, stock_reports),
        ),
        (
            "core.plan_cache_hit_ratio",
            ratio(engine.cache_hits as f64, stock_reports),
        ),
        ("core.session_drift_ratio", drift),
        (
            "core.session_residual_us",
            median(&mut residual_us).unwrap_or(0.0),
        ),
        (
            "trace.coverage",
            ratio(in_report_ns as f64, total_ns[Kind::Report as usize] as f64),
        ),
        (
            "trace.overhead_ratio",
            median(&mut client.overhead).unwrap_or(0.0),
        ),
    ]);
    if let Some(path) = trace_path {
        if let Err(e) = write_trace(path, &spans[..spans.len().min(SPANS_IN_FILE)]) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    // Every pair is two attempts here: the stock report and ours.
    Ok(Outcome {
        attempted: client.real.attempted + n.reports + n.batches + n.errors,
        failed: client.real.failed + n.mismatches + n.errors,
        metrics,
    })
}

fn write_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(spans.len() * 96);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"op_id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.kind.name(),
            s.op_id,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn stock_and_decomposed_order_alternates_within_every_class() {
        for kind in crate::workload::Kind::ALL {
            let cfg = Config::tiny(kind);
            let mut ready = run::setup(&cfg, TracedClient::new).unwrap();
            ready
                .pacer
                .run(&ready.workload, &mut ready.client, run::window(&cfg));
            run::tests::assert_orders_alternate(kind, &ready.client.real.classes);
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // report [0,100] ⊃ write_batch [10,70] ⊃ commit [20,50]; parse [80,90]
        let spans = [
            span(Kind::Report, NO_PARENT, 0, 100),
            span(Kind::WriteBatch, 0, 10, 70),
            span(Kind::Commit, 1, 20, 50),
            span(Kind::Parse, 0, 80, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut t = Tracer::with_capacity(16);
        let root = t.begin(Kind::Report, 7);
        t.time(Kind::Parse, 7, || ());
        let inner = t.begin(Kind::WriteBatch, 7);
        t.time(Kind::Commit, 7, || ());
        t.end(inner);
        t.end(root);
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (0, 0, 2));
        assert!(s.iter().all(|x| x.op_id == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
    }
}
