//! The TRAC session: the `recencyReport` "table function" of Section 5.1.
//!
//! [`Session::recency_report`] runs a user query *and* its recency
//! analysis against one MVCC snapshot (the first guiding requirement of
//! Section 3.2), splits off exceptional sources, computes the descriptive
//! statistics, and names the detail's session temp tables (`sys_temp_a…`
//! for normal, `sys_temp_e…` for exceptional sources). Those remain
//! queryable until the session ends — or are persisted on request — but
//! their rows stay private to the session until a statement names them:
//! only then are they materialized, so a report itself writes nothing.
//!
//! Statements are prepared: per SQL text and plan-shaping
//! [`ExecOptions`] the session keeps the bound user query with its
//! lowered plan (the *front*, from the text's second execution on) and
//! the recency plan with its maintained state (the *recency half*, from
//! the first report). A warm
//! statement is one lookup and one [`ReadTxn::plan_stamp`] read: nothing
//! is parsed, bound or lowered. A moved stamp re-lowers the front, a
//! dropped table re-binds it, and a recency half built over other table
//! ids than the statement binds now is rebuilt.
//!
//! Three reporting methods mirror the evaluation:
//! * [`Method::Focused`] — full pipeline: parse, analyze, generate and
//!   run the recency query;
//! * prebuilt plans ([`Session::recency_report_prebuilt`]) — the paper's
//!   *Focused (hardcoded)* variant isolating the analysis cost;
//! * [`Method::Naive`] — report every data source in `Heartbeat`.

use crate::maintained::{self, MaintainedReport, ServeKind};
use crate::relevance::{Guarantee, RecencyPlan, RelevanceConfig};
use crate::report::{MemberPairs, RecencyReport, ReportConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use trac_exec::{ExecOptions, QueryResult};
use trac_expr::{bind_select, BoundSelect};
use trac_plan::{PhysicalPlan, DEFAULT_BATCH_SIZE};
use trac_sql::parse_select;
use trac_storage::lockorder::{self, LockId};
use trac_storage::{
    heartbeat, ColumnDef, Database, ReadTxn, TableId, TableSchema, HEARTBEAT_TABLE,
};
use trac_types::{DataType, Result, Value};

/// Which recency-reporting method to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Generate and run a query-specific recency query (the paper's
    /// contribution).
    Focused,
    /// Report the recency of every data source.
    Naive,
}

/// Wall-clock breakdown matching the paper's three response-time parts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Prepare the statement (Focused only): on a warm statement the
    /// lookup and stamp check; otherwise also parse, bind and lower the
    /// user query, and generate the recency query on a plan-cache miss.
    pub analyze: Duration,
    /// Run the user query itself.
    pub user_query: Duration,
    /// Compute relevant sources / fetch recency timestamps.
    pub relevance_query: Duration,
    /// Detect exceptional sources and compute min/max/range statistics,
    /// and hand the detail rows to the session. Materializing them as
    /// temp tables is not included: that happens only when a later
    /// statement names one.
    pub stats: Duration,
}

impl Timings {
    /// Total time attributable to recency reporting (everything but the
    /// user query).
    pub fn reporting_total(&self) -> Duration {
        self.analyze + self.relevance_query + self.stats
    }

    /// Total response time.
    pub fn total(&self) -> Duration {
        self.user_query + self.reporting_total()
    }
}

/// Everything `recency_report` returns.
#[derive(Debug, Clone)]
pub struct ReportOutput {
    /// The user query's result.
    pub result: QueryResult,
    /// The recency/consistency report.
    pub report: RecencyReport,
    /// The recency plan a Focused report ran (`None` for Naive), shared
    /// with the plan cache; [`Self::generated_sql`] renders it.
    pub plan: Option<Arc<RecencyPlan>>,
    /// Wall-clock breakdown.
    pub timings: Timings,
    /// The report's sequence number in its session, which names its
    /// tables.
    pub seq: u64,
    session: u64,
}

/// Name of a report table: the normal (`sys_temp_a…`) or exceptional
/// (`sys_temp_e…`) sources of report `seq` of session `session`.
fn report_table_name(session: u64, seq: u64, exceptional: bool) -> String {
    let kind = if exceptional { 'e' } else { 'a' };
    format!("sys_temp_{kind}{session}_{seq}")
}

impl ReportOutput {
    /// Name of the temp table holding normal relevant sources.
    pub fn normal_table(&self) -> String {
        report_table_name(self.session, self.seq, false)
    }

    /// Name of the temp table holding exceptional relevant sources.
    pub fn exceptional_table(&self) -> String {
        report_table_name(self.session, self.seq, true)
    }

    /// The recency queries this report ran, as SQL, rendered on demand:
    /// the plan's generated subqueries, or the Naive full heartbeat read.
    pub fn generated_sql(&self) -> Vec<String> {
        match &self.plan {
            Some(plan) => plan.generated_sql(),
            None => vec![format!("SELECT sid, recency FROM {HEARTBEAT_TABLE}")],
        }
    }

    /// Renders the whole psql-style session block of Section 5.1.
    pub fn render(&self) -> String {
        format!(
            "NOTICE: Exceptional relevant data sources and timestamps are in the \
             temporary table: {}\n{}\nNOTICE: All ''normal'' relevant data sources and \
             timestamps are in the temporary table: {}\n\n{}",
            self.exceptional_table(),
            self.report,
            self.normal_table(),
            self.result
        )
    }
}

/// The user query of one statement, bound and lowered.
struct Front {
    /// `FROM` names of this session's report tables, materialized first.
    reports: Vec<String>,
    bound: Arc<BoundSelect>,
    plan: PhysicalPlan,
    /// [`ReadTxn::plan_stamp`] of the bound tables, read before lowering.
    stamp: Option<u64>,
}

/// A cached prepared recency plan, tagged with the relevance config and
/// the tables it was built under, carrying the delta-maintained report
/// state that makes repeated reports O(changes) instead of O(data).
struct CachedPlan {
    config: RelevanceConfig,
    /// After a drop and re-create the statement binds a new table id,
    /// and this plan, which reads the old one, is rebuilt.
    tables: Vec<TableId>,
    /// Shared with every report served from this entry: a hit is a
    /// refcount bump, not a copy of the bound and lowered subqueries.
    plan: Arc<RecencyPlan>,
    /// Delta-maintained state ([`MaintainedReport`]), present after the
    /// first maintained report. `None` while a report has it checked
    /// out for folding (or when maintenance is disabled).
    maintained: Mutex<Option<MaintainedReport>>,
}

/// The plan-shaping part of the session's [`ExecOptions`], which keys a
/// statement entry next to its SQL text. Every execution runs the
/// stored plans, so the knobs shape what runs: the access-path and join
/// toggles pick operators, `fast_paths` admits storage shortcuts, and
/// `typed_kernels` decides whether a kernel certificate is attached.
/// `threads` and `batch_size` are normalised away: the plans are the
/// same at every value, and the executor reads them at run time, so a
/// session that changes only its parallelism keeps its prepared
/// statements (and their maintained state). Any other knob flipped
/// mid-flight gets a fresh entry, not a configuration mismatch.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey(ExecOptions);

impl PlanKey {
    fn new(opts: ExecOptions) -> PlanKey {
        PlanKey(ExecOptions {
            threads: 1,
            batch_size: DEFAULT_BATCH_SIZE,
            ..opts
        })
    }
}

/// One prepared statement. The front is stored on the text's second
/// execution, so a one-shot statement never stores a plan; the recency
/// half on its first Focused report.
#[derive(Default)]
struct Statement {
    front: Option<Arc<Front>>,
    recency: Option<Arc<CachedPlan>>,
}

/// A statement ready to run, with the recency half its lookup found.
struct Prepared {
    txn: ReadTxn,
    front: Arc<Front>,
    recency: Option<Arc<CachedPlan>>,
    /// The map held an entry for the text; `store_front`: `front` is new.
    seen: bool,
    store_front: bool,
}

/// The detail rows of one report's two tables, normal then exceptional,
/// `(source, recency)`: the report's own shared lists, not copies. A
/// side is `None` once materialized.
type PendingReport = [Option<MemberPairs>; 2];

/// A user session against a TRAC-enabled database.
pub struct Session {
    db: Database,
    id: u64,
    seq: AtomicU64,
    /// Relevance-analysis tunables.
    pub relevance_config: RelevanceConfig,
    /// Report tunables (z-threshold etc.).
    pub report_config: ReportConfig,
    /// Execution options for both the user query and the generated
    /// recency subqueries. Defaults to serial; set
    /// [`ExecOptions::with_parallelism`] to run both through the batched
    /// morsel-driven path.
    pub exec_options: ExecOptions,
    /// Prepared statements by [`PlanKey`] and SQL text. Writes do not
    /// invalidate a recency half: its plan depends only on schema and
    /// predicates, and data freshness is carried by its delta-maintained
    /// [`MaintainedReport`] state, which folds the typed change stream up
    /// to the serving snapshot on every report.
    statements: Mutex<HashMap<PlanKey, HashMap<String, Statement>>>,
    /// Report tables named by a report but not yet materialized, keyed
    /// by the report's sequence number. A statement that names one
    /// creates it first (see [`Self::prepare`]); [`Self::close`]
    /// discards the rest.
    report_tables: Mutex<HashMap<u64, PendingReport>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    maint_registrations: AtomicU64,
    maint_delta_serves: AtomicU64,
    maint_rescan_serves: AtomicU64,
    stmt_hits: AtomicU64,
    stmt_relowers: AtomicU64,
    stmt_rebinds: AtomicU64,
    stmt_misses: AtomicU64,
}

/// Plan-cache hit/miss counters (see [`Session::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Reports served from a cached prepared plan.
    pub hits: u64,
    /// Reports that (re)built their plan.
    pub misses: u64,
}

/// Report-maintenance counters (see [`Session::maintenance_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceStats {
    /// Fresh registrations of delta-maintained state for a cache entry
    /// (first maintained report per entry; each is a full rescan).
    pub registrations: u64,
    /// Reports whose relevance came from folding the change stream.
    pub delta_serves: u64,
    /// Reports served by a rescan while maintained state existed:
    /// blocked fold, non-covering snapshot, or a non-foldable change
    /// that forced the state to re-register in place.
    pub rescan_serves: u64,
}

/// Prepared-statement counters (see [`Session::statement_stats`]). Each
/// execution of a statement — a plain query or a report of any method —
/// counts once, in exactly one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatementStats {
    /// Ran the cached bound statement and plan as they were.
    pub hits: u64,
    /// Re-lowered the cached bound statement: a table it binds changed
    /// its index set or planner statistics.
    pub relowers: u64,
    /// Parsed and bound the text again: a table the cached statement
    /// binds was dropped.
    pub rebinds: u64,
    /// Had no cached statement: parsed, bound and lowered the text.
    pub misses: u64,
}

impl Session {
    /// Opens a session.
    pub fn new(db: Database) -> Session {
        let id = db.new_session_id();
        Session {
            db,
            id,
            seq: AtomicU64::new(1),
            relevance_config: RelevanceConfig::default(),
            report_config: ReportConfig::default(),
            exec_options: ExecOptions::default(),
            statements: Mutex::new(HashMap::new()),
            report_tables: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            maint_registrations: AtomicU64::new(0),
            maint_delta_serves: AtomicU64::new(0),
            maint_rescan_serves: AtomicU64::new(0),
            stmt_hits: AtomicU64::new(0),
            stmt_relowers: AtomicU64::new(0),
            stmt_rebinds: AtomicU64::new(0),
            stmt_misses: AtomicU64::new(0),
        }
    }

    /// The underlying database handle.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Runs a plain query (no recency reporting) — the `t1` baseline of
    /// the evaluation's overhead metric. Honors [`Self::exec_options`],
    /// so a parallel session runs its baseline through the same batched
    /// path as its reports.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let prepared = self.prepare(sql)?;
        self.store(sql, &prepared, None);
        trac_exec::execute_plan_with(&prepared.txn, &prepared.front.plan, self.exec_options)
    }

    /// Runs `sql` with Focused recency reporting.
    pub fn recency_report(&self, sql: &str) -> Result<ReportOutput> {
        self.recency_report_with(sql, Method::Focused)
    }

    /// Runs `sql` with the chosen reporting method.
    ///
    /// The user query is bound once: the same [`BoundSelect`] feeds the
    /// recency analysis (which lowers its generated subqueries straight
    /// to plan IR) and the user-query plan, and a warm statement takes
    /// both plans from its one entry. No SQL string is re-parsed
    /// anywhere downstream.
    pub fn recency_report_with(&self, sql: &str, method: Method) -> Result<ReportOutput> {
        let t0 = Instant::now();
        let mut prepared = self.prepare(sql)?;
        if method == Method::Naive {
            self.store(sql, &prepared, None);
            return self.report_inner(&prepared, None, Duration::ZERO, None);
        }
        let bound = &prepared.front.bound;
        let serves = |c: &Arc<CachedPlan>| {
            c.config == self.relevance_config
                && c.tables.iter().eq(bound.tables.iter().map(|t| &t.id))
        };
        let recency = match prepared.recency.take().filter(serves) {
            Some(hit) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.store(sql, &prepared, None);
                hit
            }
            None => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
                let fresh = Arc::new(CachedPlan {
                    config: self.relevance_config,
                    tables: bound.tables.iter().map(|t| t.id).collect(),
                    plan: Arc::new(self.build(&prepared.txn, bound)?),
                    maintained: Mutex::new(None),
                });
                self.store(sql, &prepared, Some(&fresh));
                fresh
            }
        };
        let analyze = t0.elapsed();
        self.report_inner(
            &prepared,
            Some(&recency.plan),
            analyze,
            Some(&recency.maintained),
        )
    }

    /// Runs `sql` reusing a prebuilt recency plan (the *Focused
    /// hardcoded* variant: no parse/generation cost inside the call).
    pub fn recency_report_prebuilt(
        &self,
        sql: &str,
        plan: &Arc<RecencyPlan>,
    ) -> Result<ReportOutput> {
        let prepared = self.prepare(sql)?;
        self.store(sql, &prepared, None);
        self.report_inner(&prepared, Some(plan), Duration::ZERO, None)
    }

    /// Builds a recency plan for later reuse (outside any timing),
    /// lowered under [`Self::exec_options`].
    pub fn build_plan(&self, sql: &str) -> Result<Arc<RecencyPlan>> {
        let (txn, front) = self.front(sql)?;
        self.build(&txn, &front.bound).map(Arc::new)
    }

    /// Builds `bound`'s recency plan under the session's relevance
    /// config, lowering its subqueries under [`Self::exec_options`].
    fn build(&self, txn: &ReadTxn, bound: &BoundSelect) -> Result<RecencyPlan> {
        RecencyPlan::build_with(txn, bound, self.relevance_config, self.exec_options)
    }

    /// Makes `sql` ready to run: one lookup of the statement map, then
    /// the cached front while its tables' stamp holds, its bound
    /// statement re-lowered when only the stamp moved, and a parse,
    /// bind and lower when there is no front or a table it binds was
    /// dropped. Pending report tables the statement names are
    /// materialized before its snapshot is taken.
    fn prepare(&self, sql: &str) -> Result<Prepared> {
        let key = PlanKey::new(self.exec_options);
        // Schedule point: the lookup races report folds and config
        // changes; the interleaving explorer switches threads here
        // (yields no-op outside an exploration).
        trac_exec::schedule::yield_point(trac_exec::schedule::Site::CacheRead);
        let (seen, front, recency) = {
            let _cache_order = lockorder::acquire(LockId::PlanCache);
            let map = self.statements.lock().expect("statement map poisoned");
            match map.get(&key).and_then(|texts| texts.get(sql)) {
                Some(s) => (true, s.front.clone(), s.recency.clone()),
                None => (false, None, None),
            }
        };
        let (txn, front, store_front, counter) = match front {
            Some(front) => {
                self.materialize_named(&front.reports)?;
                let txn = self.db.begin_read();
                match txn.plan_stamp(front.bound.tables.iter().map(|t| t.id)) {
                    Some(stamp) if Some(stamp) == front.stamp => {
                        (txn, front, false, &self.stmt_hits)
                    }
                    stamp @ Some(_) => {
                        let bound = Arc::clone(&front.bound);
                        let front = self.lower(&txn, bound, front.reports.clone(), stamp)?;
                        (txn, front, true, &self.stmt_relowers)
                    }
                    None => {
                        let (txn, front) = self.front(sql)?;
                        (txn, front, true, &self.stmt_rebinds)
                    }
                }
            }
            None => {
                let (txn, front) = self.front(sql)?;
                (txn, front, seen, &self.stmt_misses)
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(Prepared {
            txn,
            front,
            recency,
            seen,
            store_front,
        })
    }

    /// Parses and binds `sql` — materializing the pending report tables
    /// its `FROM` list names before the snapshot is taken, so the
    /// statement sees them — and lowers it.
    fn front(&self, sql: &str) -> Result<(ReadTxn, Arc<Front>)> {
        let stmt = parse_select(sql)?;
        let reports: Vec<String> = (stmt.from.iter())
            .filter(|t| self.report_table(&t.table).is_some())
            .map(|t| t.table.clone())
            .collect();
        self.materialize_named(&reports)?;
        let txn = self.db.begin_read();
        let bound = Arc::new(bind_select(&txn, &stmt)?);
        let stamp = txn.plan_stamp(bound.tables.iter().map(|t| t.id));
        let front = self.lower(&txn, bound, reports, stamp)?;
        Ok((txn, front))
    }

    /// Lowers `bound` under [`Self::exec_options`]; `stamp` is its
    /// tables' stamp, read before. Every later execution runs the
    /// stored plan, so the installed plan validator (debug builds)
    /// certifies it here, once.
    fn lower(
        &self,
        txn: &ReadTxn,
        bound: Arc<BoundSelect>,
        reports: Vec<String>,
        stamp: Option<u64>,
    ) -> Result<Arc<Front>> {
        let plan = trac_plan::plan_select(txn, &bound, self.exec_options)?;
        trac_exec::debug_validate_plan(&bound, &plan);
        Ok(Arc::new(Front {
            reports,
            bound,
            plan,
            stamp,
        }))
    }

    /// Writes what `prepared` and a report built into the statement map,
    /// in one access: on a text's first execution an entry that records
    /// it was seen (with the report's recency half), afterwards a new
    /// front or recency half. A warm statement writes nothing.
    fn store(&self, sql: &str, prepared: &Prepared, recency: Option<&Arc<CachedPlan>>) {
        if prepared.seen && !prepared.store_front && recency.is_none() {
            return;
        }
        trac_exec::schedule::yield_point(trac_exec::schedule::Site::CacheWrite);
        let _cache_order = lockorder::acquire(LockId::PlanCache);
        let mut map = self.statements.lock().expect("statement map poisoned");
        let texts = map.entry(PlanKey::new(self.exec_options)).or_default();
        let entry = if prepared.seen {
            // Cleared since the lookup: the next execution starts over.
            let Some(entry) = texts.get_mut(sql) else {
                return;
            };
            entry
        } else {
            texts.entry(sql.to_owned()).or_default()
        };
        if prepared.store_front {
            entry.front = Some(Arc::clone(&prepared.front));
        }
        if let Some(recency) = recency {
            // Replacing a recency half drops its maintained state with
            // it: the state was registered for the old plan.
            entry.recency = Some(Arc::clone(recency));
        }
    }

    /// Plan-cache hit/miss counters since the session opened: Focused
    /// reports that found, or (re)built, their recency plan.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Report-maintenance counters since the session opened. The
    /// interleaving explorer and the differential suite assert on
    /// these: a delta serve must be byte-identical to the rescan it
    /// replaced, and writes racing a fold must degrade to rescans, not
    /// to stale reports.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        MaintenanceStats {
            registrations: self.maint_registrations.load(Ordering::Relaxed),
            delta_serves: self.maint_delta_serves.load(Ordering::Relaxed),
            rescan_serves: self.maint_rescan_serves.load(Ordering::Relaxed),
        }
    }

    /// Prepared-statement counters since the session opened.
    pub fn statement_stats(&self) -> StatementStats {
        StatementStats {
            hits: self.stmt_hits.load(Ordering::Relaxed),
            relowers: self.stmt_relowers.load(Ordering::Relaxed),
            rebinds: self.stmt_rebinds.load(Ordering::Relaxed),
            misses: self.stmt_misses.load(Ordering::Relaxed),
        }
    }

    /// The user-query plan the session keeps for `sql` under the
    /// current options, rendered: the plan its last execution ran, or
    /// `None` before the text's second execution.
    pub fn cached_plan(&self, sql: &str) -> Option<String> {
        let key = PlanKey::new(self.exec_options);
        let map = self.statements.lock().expect("statement map poisoned");
        let front = map.get(&key)?.get(sql)?.front.as_ref();
        front.map(|f| f.plan.render())
    }

    /// Drops every prepared statement: the fronts, the recency plans and
    /// their delta-maintained report state. Nothing needs it for
    /// correctness — each entry checks its own validity when used — it
    /// only reclaims memory eagerly.
    pub fn clear_plan_cache(&self) {
        let _cache_order = lockorder::acquire(LockId::PlanCache);
        self.statements
            .lock()
            .expect("statement map poisoned")
            .clear();
    }

    fn report_inner(
        &self,
        prepared: &Prepared,
        plan: Option<&Arc<RecencyPlan>>,
        analyze: Duration,
        maintained: Option<&Mutex<Option<MaintainedReport>>>,
    ) -> Result<ReportOutput> {
        let txn = &prepared.txn;
        // 1. The user query's prepared plan, in the shared snapshot.
        let t0 = Instant::now();
        let result = trac_exec::execute_plan_with(txn, &prepared.front.plan, self.exec_options)?;
        let user_query = t0.elapsed();
        // 2. Relevant sources + their recency timestamps, same snapshot
        // — folded from the change stream when maintained state exists.
        let t0 = Instant::now();
        let (pairs, guarantee) = match plan {
            Some(plan) => (self.relevant_pairs(txn, plan, maintained)?, plan.guarantee),
            None => (heartbeat::all_recencies(txn)?.into(), Guarantee::UpperBound),
        };
        let relevance_query = t0.elapsed();
        // 3. Statistics; the detail tables are only numbered here, and
        // materialized when a later statement names them.
        let t0 = Instant::now();
        let report = RecencyReport::compute(pairs, guarantee, self.report_config);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let rows = [
            Some(report.normal.clone()),
            Some(report.exceptional.clone()),
        ];
        self.with_report_tables(|pending| pending.insert(seq, rows));
        let stats = t0.elapsed();
        Ok(ReportOutput {
            result,
            report,
            plan: plan.cloned(),
            timings: Timings {
                analyze,
                user_query,
                relevance_query,
                stats,
            },
            seq,
            session: self.id,
        })
    }

    /// Member `(source, recency)` pairs for a Focused report. With the
    /// entry's maintained-state slot and
    /// [`ExecOptions::maintain_reports`] on, the [`MaintainedReport`] is
    /// checked out of the slot, brought up to `txn`'s snapshot by
    /// folding the change stream (or registered on first use), and put
    /// back; the lock is never held across the fold. Otherwise: a plain
    /// rescan.
    fn relevant_pairs(
        &self,
        txn: &ReadTxn,
        plan: &RecencyPlan,
        maintained: Option<&Mutex<Option<MaintainedReport>>>,
    ) -> Result<MemberPairs> {
        let Some(slot) = maintained.filter(|_| self.exec_options.maintain_reports) else {
            return maintained::rescan_pairs(txn, plan, self.exec_options);
        };
        let taken = {
            let _cache_order = lockorder::acquire(LockId::PlanCache);
            slot.lock().expect("plan cache poisoned").take()
        };
        let (state, pairs) = match taken {
            Some(mut state) => {
                let (pairs, kind) = state.refresh(txn, &self.db, plan, self.exec_options)?;
                match kind {
                    ServeKind::Delta => self.maint_delta_serves.fetch_add(1, Ordering::Relaxed),
                    ServeKind::Rescan => self.maint_rescan_serves.fetch_add(1, Ordering::Relaxed),
                };
                (state, pairs)
            }
            None => {
                let (state, pairs) =
                    MaintainedReport::register(txn, &self.db, plan, self.exec_options)?;
                self.maint_registrations.fetch_add(1, Ordering::Relaxed);
                (state, pairs)
            }
        };
        let _cache_order = lockorder::acquire(LockId::PlanCache);
        // A concurrent report may have registered its own state while
        // ours was checked out; keep whichever is in place (both are
        // valid — each serves from its own cursor).
        slot.lock()
            .expect("plan cache poisoned")
            .get_or_insert(state);
        Ok(pairs)
    }

    /// Runs `f` on the pending report tables, holding their lock
    /// throughout, so a table two statements race to name is created
    /// once and neither sees it missing.
    fn with_report_tables<T>(&self, f: impl FnOnce(&mut HashMap<u64, PendingReport>) -> T) -> T {
        let _order = lockorder::acquire(LockId::ReportTables);
        // A poisoned map only means a materialization panicked part-way;
        // the entries left in it are still whole.
        f(&mut self
            .report_tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner))
    }

    /// `(seq, exceptional)` when `name` names one of this session's
    /// report tables (in any case, as the catalog matches names).
    fn report_table(&self, name: &str) -> Option<(u64, bool)> {
        let rest = name
            .get(9..)
            .filter(|_| name[..9].eq_ignore_ascii_case("sys_temp_"))?;
        let exceptional = rest.starts_with(['e', 'E']);
        let seq = rest.rsplit_once('_')?.1.parse().ok()?;
        let canonical = report_table_name(self.id, seq, exceptional);
        name.eq_ignore_ascii_case(&canonical)
            .then_some((seq, exceptional))
    }

    /// Materializes each of `names` that is still pending.
    fn materialize_named(&self, names: &[String]) -> Result<()> {
        (names.iter()).try_for_each(|n| self.with_report_tables(|p| self.materialize(p, n)))
    }

    /// Creates and fills the report table `name` if it is still pending;
    /// a no-op for any other name. This is the only place a report
    /// writes storage.
    fn materialize(&self, pending: &mut HashMap<u64, PendingReport>, name: &str) -> Result<()> {
        let Some((seq, exceptional)) = self.report_table(name) else {
            return Ok(());
        };
        let side = usize::from(exceptional);
        let Some(rows) = pending.get(&seq).and_then(|p| p[side].clone()) else {
            return Ok(());
        };
        let schema = TableSchema::new(
            report_table_name(self.id, seq, exceptional),
            vec![
                ColumnDef::new("sid", DataType::Text),
                ColumnDef::new("recency", DataType::Timestamp),
            ],
            None,
        )?;
        let tid = self.db.create_temp_table(schema, self.id)?;
        self.db.with_write(|w| {
            for (s, t) in &rows {
                w.insert(tid, vec![s.to_value(), Value::Timestamp(*t)])?;
            }
            Ok(())
        })?;
        if let Some(p) = pending.get_mut(&seq) {
            p[side] = None;
            if p.iter().all(Option::is_none) {
                pending.remove(&seq);
            }
        }
        Ok(())
    }

    /// Materializes every pending report table, for callers that read
    /// the catalog without going through this session (a shell running
    /// plain SQL against the database, a table listing).
    pub fn materialize_report_tables(&self) -> Result<()> {
        self.with_report_tables(|pending| {
            let mut names: Vec<String> = (pending.iter())
                .flat_map(|(&seq, p)| {
                    let sides = p.iter().enumerate().filter(|(_, rows)| rows.is_some());
                    sides.map(move |(side, _)| report_table_name(self.id, seq, side == 1))
                })
                .collect();
            names.sort_unstable();
            names.iter().try_for_each(|n| self.materialize(pending, n))
        })
    }

    /// Copies a temp table to a permanent table, like the prototype lets
    /// users do "before the end of a session". A report table nothing
    /// has named yet is materialized first.
    pub fn persist(&self, temp_table: &str) -> Result<()> {
        self.with_report_tables(|pending| self.materialize(pending, temp_table))?;
        self.db.persist_temp_table(temp_table)
    }

    /// Explicitly drops this session's temp tables and discards its
    /// pending report tables (also happens on Drop).
    pub fn close(&self) {
        self.with_report_tables(HashMap::clear);
        self.db.drop_session_temps(self.id);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::paper_db;
    use trac_types::{SourceId, Timestamp, TsDuration};

    #[test]
    fn focused_report_for_paper_q1_example() {
        let db = paper_db();
        let session = Session::new(db);
        let out = session
            .recency_report("SELECT mach_id, value FROM Activity WHERE value = 'idle'")
            .unwrap();
        // Result: m1 and m3 idle.
        assert_eq!(
            out.result.column_values("mach_id").unwrap(),
            vec![Value::text("m1"), Value::text("m3")]
        );
        // No P_s predicate: all three sources relevant, minimum guarantee.
        assert_eq!(out.report.relevant_count(), 3);
        assert_eq!(out.report.guarantee, Guarantee::Minimum);
        // Heartbeats after all ingests: m1 → 00:00:40 (its routing row),
        // m2 → 00:00:50, m3 → 00:00:30. Range is 20 seconds.
        assert_eq!(
            out.report.inconsistency_bound.unwrap(),
            TsDuration::from_secs(20)
        );
        assert_eq!(out.report.least_recent.as_ref().unwrap().0.as_str(), "m3");
        assert_eq!(out.report.most_recent.as_ref().unwrap().0.as_str(), "m2");
    }

    #[test]
    fn temp_tables_are_queryable_and_dropped_on_close() {
        let db = paper_db();
        let session = Session::new(db.clone());
        let out = session
            .recency_report("SELECT mach_id FROM Activity WHERE mach_id = 'm1'")
            .unwrap();
        let q = format!(
            "SELECT sid, recency FROM {} ORDER BY sid",
            out.normal_table()
        );
        let rows = session.query(&q).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows[0][0], Value::text("m1"));
        drop(session);
        let other = Session::new(db);
        assert!(other.query(&q).is_err(), "temp table must be gone");
    }

    #[test]
    fn persisted_temp_table_survives() {
        let db = paper_db();
        let name;
        {
            let session = Session::new(db.clone());
            let out = session
                .recency_report("SELECT mach_id FROM Activity WHERE mach_id = 'm2'")
                .unwrap();
            // Never named before persist: persist materializes it.
            name = out.normal_table();
            session.persist(&name).unwrap();
        }
        let session = Session::new(db);
        let rows = session.query(&format!("SELECT sid FROM {name}")).unwrap();
        assert_eq!(rows.rows[0][0], Value::text("m2"));
    }

    /// `(sid, recency)` rows of a report table, read through `session`.
    fn table_rows(session: &Session, name: &str) -> Vec<(SourceId, Timestamp)> {
        let rows = session
            .query(&format!("SELECT sid, recency FROM {name} ORDER BY sid"))
            .unwrap();
        rows.rows
            .iter()
            .map(|r| match (&r[0], &r[1]) {
                (Value::Text(s), Value::Timestamp(t)) => (SourceId::new(s.as_str()), *t),
                other => panic!("unexpected report-table row {other:?}"),
            })
            .collect()
    }

    #[test]
    fn warm_reports_share_one_member_list_until_a_member_changes() {
        let db = paper_db();
        let session = Session::new(db.clone());
        let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
        let pending = |name: &str| {
            let (seq, exceptional) = session.report_table(name)?;
            session.with_report_tables(|p| p.get(&seq)?[usize::from(exceptional)].clone())
        };
        let registered = session.recency_report(sql).unwrap();
        let warm = session.recency_report(sql).unwrap();
        let again = session.recency_report(sql).unwrap();
        assert_eq!(session.maintenance_stats().delta_serves, 2);
        assert!(warm.report.exceptional.is_empty());
        // The registration's list, the memoized serves and the pending
        // report tables are one allocation.
        for out in [&registered, &again] {
            assert!(out.report.normal.ptr_eq(&warm.report.normal));
            let rows = pending(&out.normal_table()).expect("pending until named");
            assert!(rows.ptr_eq(&warm.report.normal));
        }
        // One member's heartbeat advances: the next serve is a new list,
        // equal to what a rescan computes.
        db.with_write(|w| {
            w.heartbeat(
                &SourceId::new("m1"),
                Timestamp::parse("2006-02-10 00:01:30").unwrap(),
            )
        })
        .unwrap();
        let moved = session.recency_report(sql).unwrap();
        assert_eq!(session.maintenance_stats().delta_serves, 3);
        assert!(!moved.report.normal.ptr_eq(&warm.report.normal));
        assert_ne!(moved.report.normal, warm.report.normal);
        let mut rescan = Session::new(db);
        rescan.exec_options.maintain_reports = false;
        let reference = rescan.recency_report(sql).unwrap();
        assert_eq!(moved.report.normal, reference.report.normal);
        assert_eq!(moved.report.exceptional, reference.report.exceptional);
        // Naming the table materializes exactly the report's list.
        assert_eq!(
            table_rows(&session, &moved.normal_table()),
            moved.report.normal
        );
        assert!(pending(&moved.normal_table()).is_none());
        assert!(pending(&warm.normal_table()).is_some());
    }

    #[test]
    fn reports_write_nothing_until_a_table_is_named() {
        let db = paper_db();
        let session = Session::new(db.clone());
        let tables = db.begin_read().table_names();
        let before = db.begin_read();
        let mut last = None;
        for _ in 0..20 {
            last = Some(
                session
                    .recency_report("SELECT mach_id FROM Activity WHERE value = 'idle'")
                    .unwrap(),
            );
        }
        let after = db.begin_read();
        assert_eq!(db.begin_read().table_names(), tables, "no table created");
        // With nothing in flight, two snapshots cover each other iff
        // their xmax agree: no transaction id was issued by 20 reports.
        assert!(before
            .snapshot
            .covers_basis(&after.snapshot.coverage_basis()));
        assert!(after
            .snapshot
            .covers_basis(&before.snapshot.coverage_basis()));
        // Naming one table materializes exactly that table.
        let out = last.unwrap();
        assert_eq!(table_rows(&session, &out.normal_table()), out.report.normal);
        let mut expected = tables;
        expected.push(out.normal_table());
        expected.sort();
        let mut now = db.begin_read().table_names();
        now.sort();
        assert_eq!(now, expected);
    }

    #[test]
    fn report_tables_resolve_however_they_are_named() {
        let db = paper_db();
        let session = Session::new(db.clone());
        let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
        // Upper case, as the catalog matches names.
        let out = session.recency_report(sql).unwrap();
        let upper = out.normal_table().to_ascii_uppercase();
        assert_eq!(table_rows(&session, &upper), out.report.normal);
        // Naive reports pend their tables the same way.
        let naive = session.recency_report_with(sql, Method::Naive).unwrap();
        assert_eq!(
            table_rows(&session, &naive.normal_table()),
            naive.report.normal
        );
        // A report and a plan build over a pending table see it.
        let out = session.recency_report(sql).unwrap();
        let over = format!("SELECT sid FROM {}", out.normal_table());
        assert_eq!(session.recency_report(&over).unwrap().result.len(), 3);
        session
            .build_plan(&format!("SELECT sid FROM {}", out.exceptional_table()))
            .unwrap();
        assert!(db.begin_read().table_id(&out.exceptional_table()).is_ok());
        // Closing discards what was never named.
        let out = session.recency_report(sql).unwrap();
        session.close();
        let gone = format!("SELECT sid FROM {}", out.normal_table());
        assert!(session.query(&gone).is_err(), "discarded on close");
        assert!(db
            .begin_read()
            .table_names()
            .iter()
            .all(|t| !t.starts_with("sys_temp")));
    }

    #[test]
    fn racing_references_create_a_report_table_once() {
        let db = paper_db();
        let session = Session::new(db.clone());
        let out = session
            .recency_report("SELECT mach_id FROM Activity WHERE value = 'idle'")
            .unwrap();
        let tables = db.begin_read().table_names().len();
        let q = format!("SELECT COUNT(*) FROM {}", out.normal_table());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        session.query(&q)
                    })
                })
                .collect();
            for r in racers {
                assert_eq!(r.join().unwrap().unwrap().rows[0][0], Value::Int(3));
            }
        });
        assert_eq!(db.begin_read().table_names().len(), tables + 1);
    }

    #[test]
    fn materializing_takes_report_tables_before_storage_locks() {
        let session = Session::new(paper_db());
        let out = session
            .recency_report("SELECT mach_id FROM Activity WHERE value = 'idle'")
            .unwrap();
        lockorder::enable_tracking();
        let named = session.query(&format!("SELECT sid FROM {}", out.normal_table()));
        let edges = lockorder::take_edges();
        named.unwrap();
        assert!(
            edges.contains(&(LockId::ReportTables, LockId::DbData)),
            "{edges:?}"
        );
        assert!(edges.iter().all(|&(a, b)| lockorder::edge_is_legal(a, b)));
    }

    #[test]
    fn naive_reports_everything() {
        let db = paper_db();
        let session = Session::new(db);
        let out = session
            .recency_report_with(
                "SELECT mach_id FROM Activity WHERE mach_id = 'm1'",
                Method::Naive,
            )
            .unwrap();
        assert_eq!(out.report.relevant_count(), 3);
        assert_eq!(out.report.guarantee, Guarantee::UpperBound);
        // Focused reports only m1.
        let out = session
            .recency_report("SELECT mach_id FROM Activity WHERE mach_id = 'm1'")
            .unwrap();
        assert_eq!(out.report.relevant_count(), 1);
        assert_eq!(out.report.guarantee, Guarantee::Minimum);
    }

    #[test]
    fn generated_sql_is_the_plans_rendered_on_read() {
        let session = Session::new(paper_db());
        for sql in [
            "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'",
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        ] {
            let out = session.recency_report(sql).unwrap();
            let plan = session.build_plan(sql).unwrap();
            assert_eq!(out.generated_sql(), plan.generated_sql(), "{sql}");
        }
        let naive = session
            .recency_report_with("SELECT mach_id FROM Activity", Method::Naive)
            .unwrap();
        assert!(naive.plan.is_none());
        assert_eq!(
            naive.generated_sql(),
            ["SELECT sid, recency FROM heartbeat"]
        );
    }

    #[test]
    fn prebuilt_plan_skips_analysis_cost() {
        let db = paper_db();
        let session = Session::new(db);
        let sql = "SELECT mach_id FROM Activity WHERE mach_id IN ('m1','m2')";
        let plan = session.build_plan(sql).unwrap();
        let out = session.recency_report_prebuilt(sql, &plan).unwrap();
        assert_eq!(out.timings.analyze, Duration::ZERO);
        assert_eq!(out.report.relevant_count(), 2);
        assert!(
            Arc::ptr_eq(out.plan.as_ref().unwrap(), &plan),
            "shared, not copied"
        );
    }

    #[test]
    fn report_is_snapshot_consistent_with_result() {
        // A write racing the report must either be fully visible or fully
        // invisible: result and recency must come from one snapshot.
        let db = paper_db();
        let session = Session::new(db.clone());
        let a = db.begin_read().table_id("activity").unwrap();
        // Start a write that both flips m2 to idle and bumps its heartbeat
        // far into the future, but commit it only after taking the
        // report's snapshot... simulate by checking reports before/after.
        let before = session
            .recency_report("SELECT mach_id FROM Activity WHERE value = 'idle'")
            .unwrap();
        db.with_write(|w| {
            let ts = Timestamp::parse("2006-02-10 00:00:59").unwrap();
            w.ingest(
                &SourceId::new("m2"),
                a,
                vec![Value::text("m2"), Value::text("idle"), Value::Timestamp(ts)],
                ts,
            )
        })
        .unwrap();
        let after = session
            .recency_report("SELECT mach_id FROM Activity WHERE value = 'idle'")
            .unwrap();
        // Before: 2 idle rows, m2 recency 00:00:50 (its routing ingest).
        // After: 3 idle rows, m2 recency 00:00:59 — never a mix.
        assert_eq!(before.result.len(), 2);
        let m2_before = before
            .report
            .normal
            .iter()
            .find(|(s, _)| s.as_str() == "m2")
            .unwrap()
            .1;
        assert_eq!(m2_before, Timestamp::parse("2006-02-10 00:00:50").unwrap());
        assert_eq!(after.result.len(), 3);
        let m2_after = after
            .report
            .normal
            .iter()
            .find(|(s, _)| s.as_str() == "m2")
            .unwrap()
            .1;
        assert_eq!(m2_after, Timestamp::parse("2006-02-10 00:00:59").unwrap());
    }

    #[test]
    fn render_matches_prototype_shape() {
        let db = paper_db();
        let session = Session::new(db);
        let out = session
            .recency_report("SELECT mach_id FROM Activity WHERE value = 'idle'")
            .unwrap();
        let text = out.render();
        assert!(text.contains("temporary table: sys_temp_e"));
        assert!(text.contains("temporary table: sys_temp_a"));
        assert!(text.contains("The least recent data source:"));
        assert!(text.contains("Bound of inconsistency:"));
        assert!(text.contains("(2 rows)"));
    }

    /// Runs `f` on the statement entry of `sql` under the session's
    /// current options.
    fn with_entry<T>(session: &Session, sql: &str, f: impl FnOnce(&mut Statement) -> T) -> T {
        let key = PlanKey::new(session.exec_options);
        let mut map = session.statements.lock().unwrap();
        f(map.get_mut(&key).unwrap().get_mut(sql).unwrap())
    }

    /// Flips the cached recency plan's guarantee to `UpperBound` in place.
    fn poison_cached_plan(session: &Session, sql: &str) {
        with_entry(session, sql, |entry| {
            let cached = Arc::get_mut(entry.recency.as_mut().unwrap()).unwrap();
            Arc::make_mut(&mut cached.plan).guarantee = Guarantee::UpperBound;
        });
    }

    #[test]
    fn cache_hit_shares_the_cached_plan() {
        let db = paper_db();
        let session = Session::new(db);
        let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
        session.recency_report(sql).unwrap();
        let hit = session.recency_report(sql).unwrap().plan.unwrap();
        let cached = with_entry(&session, sql, |e| {
            Arc::clone(&e.recency.as_ref().unwrap().plan)
        });
        assert!(Arc::ptr_eq(&hit, &cached), "a hit must not copy");
        assert_eq!(session.plan_cache_stats().hits, 1);
    }

    #[test]
    fn plan_cache_survives_heartbeat_writes_and_reports_stay_fresh() {
        // PR 8 flips the invalidation story: heartbeat traffic no
        // longer ages cached plans out. The cached plan must be
        // *reused* across heartbeat writes, and the report must still
        // reflect the new data — freshness now comes from the
        // delta-maintained state folding the change stream.
        let db = paper_db();
        let session = Session::new(db.clone());
        let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
        let first = session.recency_report(sql).unwrap();
        assert_eq!(first.report.guarantee, Guarantee::Minimum);
        assert_eq!(session.statements.lock().unwrap().len(), 1);
        // Poison the cached plan's guarantee: only a cache hit can
        // surface the poisoned value in the next report.
        poison_cached_plan(&session, sql);
        db.with_write(|w| {
            w.heartbeat(
                &SourceId::new("m1"),
                Timestamp::parse("2006-02-10 00:01:00").unwrap(),
            )
        })
        .unwrap();
        let hit = session.recency_report(sql).unwrap();
        assert_eq!(
            hit.report.guarantee,
            Guarantee::UpperBound,
            "a heartbeat write must NOT invalidate the cached plan"
        );
        assert_eq!(
            session.plan_cache_stats(),
            PlanCacheStats { hits: 1, misses: 1 }
        );
        // ...and the reused plan's report carries the new heartbeat,
        // folded in as a delta rather than rescanned.
        let m1 = hit
            .report
            .normal
            .iter()
            .find(|(s, _)| s.as_str() == "m1")
            .unwrap()
            .1;
        assert_eq!(m1, Timestamp::parse("2006-02-10 00:01:00").unwrap());
        assert_eq!(
            session.maintenance_stats(),
            MaintenanceStats {
                registrations: 1,
                delta_serves: 1,
                rescan_serves: 0,
            }
        );
    }

    /// Operator counts over the subquery plans the session cached for
    /// `sql`: the plans its rescans run.
    fn cached_ops(session: &Session, sql: &str) -> HashMap<&'static str, usize> {
        let plan = with_entry(session, sql, |e| {
            Arc::clone(&e.recency.as_ref().unwrap().plan)
        });
        let mut ops = HashMap::new();
        for plan in plan.subqueries.iter().filter_map(|s| s.plan.as_ref()) {
            for (op, n) in plan.operator_counts() {
                *ops.entry(op).or_insert(0) += n;
            }
        }
        ops
    }

    #[test]
    fn cache_miss_lowers_subqueries_under_the_session_options() {
        let db = paper_db();
        let probe = "SELECT mach_id FROM Activity WHERE mach_id IN ('m1','m2') AND value = 'idle'";
        let scan = "SELECT mach_id, value FROM Activity WHERE value = 'idle'";
        let serial = Session::new(db.clone());
        let mut no_index = Session::new(db.clone());
        no_index.exec_options.enable_index_scan = false;
        let mut parallel = Session::new(db);
        parallel.exec_options = ExecOptions::default().with_parallelism(4, 2);
        for sql in [probe, scan] {
            let expect = serial.recency_report(sql).unwrap();
            for other in [&no_index, &parallel] {
                let out = other.recency_report(sql).unwrap();
                assert_eq!(out.result.rows, expect.result.rows, "{sql}");
                assert_eq!(out.report.normal, expect.report.normal, "{sql}");
                assert_eq!(out.report.exceptional, expect.report.exceptional, "{sql}");
                assert_eq!(out.report.guarantee, expect.report.guarantee, "{sql}");
            }
        }
        let ops = cached_ops(&serial, probe);
        assert!(ops.contains_key("IndexLookup"), "{ops:?}");
        let ops = cached_ops(&no_index, probe);
        assert!(!ops.contains_key("IndexLookup"), "{ops:?}");
        assert_eq!(
            cached_ops(&parallel, scan),
            cached_ops(&serial, scan),
            "the parallel session caches the serial plan"
        );
    }

    #[test]
    fn plan_cache_respects_relevance_config() {
        let db = paper_db();
        let mut session = Session::new(db);
        let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
        session.recency_report(sql).unwrap();
        // Poison the cached plan, then change the config: the mismatch
        // must force a rebuild that washes the poison out, even though
        // no write has been published to the change stream.
        poison_cached_plan(&session, sql);
        session.relevance_config.dnf_budget += 1;
        let out = session.recency_report(sql).unwrap();
        assert_eq!(
            out.report.guarantee,
            Guarantee::Minimum,
            "config change must bypass the cached plan"
        );
    }

    #[test]
    fn plan_cache_keys_on_threads_and_batch_size() {
        let db = paper_db();
        let mut session = Session::new(db);
        let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
        session.recency_report(sql).unwrap();
        assert_eq!(
            session.plan_cache_stats(),
            PlanCacheStats { hits: 0, misses: 1 }
        );
        // Same SQL, new thread count and morsel size: neither shapes the
        // plan, so the plan prepared for the serial configuration serves.
        session.exec_options = ExecOptions::default().with_parallelism(4, 2);
        session.recency_report(sql).unwrap();
        assert_eq!(
            session.plan_cache_stats(),
            PlanCacheStats { hits: 1, misses: 1 },
            "a threads/batch_size change must hit the cache"
        );
        session.exec_options = ExecOptions::default();
        session.recency_report(sql).unwrap();
        assert_eq!(
            session.plan_cache_stats(),
            PlanCacheStats { hits: 2, misses: 1 },
            "both configurations share one cached plan"
        );
        assert_eq!(session.statements.lock().unwrap().len(), 1);
    }

    #[test]
    fn plan_cache_keys_on_every_exec_knob() {
        // The key must cover every plan-shaping ExecOptions knob (all
        // but `threads` and `batch_size`): flipping exactly one — with
        // the SQL, data and relevance config fixed — must miss the
        // prepared-plan cache.
        let db = paper_db();
        let mut session = Session::new(db);
        let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
        session.recency_report(sql).unwrap();
        let base = ExecOptions::default();
        let variants = [
            (
                "enable_index_scan",
                ExecOptions {
                    enable_index_scan: !base.enable_index_scan,
                    ..base
                },
            ),
            (
                "enable_hash_join",
                ExecOptions {
                    enable_hash_join: !base.enable_hash_join,
                    ..base
                },
            ),
            (
                "fast_paths",
                ExecOptions {
                    fast_paths: !base.fast_paths,
                    ..base
                },
            ),
            (
                "cost_based_join_order",
                ExecOptions {
                    cost_based_join_order: !base.cost_based_join_order,
                    ..base
                },
            ),
            (
                "typed_kernels",
                ExecOptions {
                    typed_kernels: !base.typed_kernels,
                    ..base
                },
            ),
            (
                "maintain_reports",
                ExecOptions {
                    maintain_reports: !base.maintain_reports,
                    ..base
                },
            ),
        ];
        for (i, (knob, opts)) in variants.into_iter().enumerate() {
            session.exec_options = opts;
            session.recency_report(sql).unwrap();
            assert_eq!(
                session.plan_cache_stats(),
                PlanCacheStats {
                    hits: 0,
                    misses: (i + 2) as u64,
                },
                "flipping `{knob}` alone must miss the prepared-plan cache"
            );
        }
    }

    #[test]
    fn maintained_state_folds_deltas_across_reports() {
        let db = paper_db();
        let session = Session::new(db.clone());
        let sql = "SELECT mach_id, value FROM Activity WHERE value = 'idle'";
        session.recency_report(sql).unwrap();
        assert_eq!(session.maintenance_stats().registrations, 1);
        let a = db.begin_read().table_id("activity").unwrap();
        db.with_write(|w| {
            let ts = Timestamp::parse("2006-02-10 00:01:10").unwrap();
            w.ingest(
                &SourceId::new("m2"),
                a,
                vec![Value::text("m2"), Value::text("idle"), Value::Timestamp(ts)],
                ts,
            )
        })
        .unwrap();
        let out = session.recency_report(sql).unwrap();
        // The fold picked up both legs of the ingest: the new idle row
        // (user query) and m2's heartbeat advance (recency report).
        assert_eq!(out.result.len(), 3);
        let m2 = out
            .report
            .normal
            .iter()
            .find(|(s, _)| s.as_str() == "m2")
            .unwrap()
            .1;
        assert_eq!(m2, Timestamp::parse("2006-02-10 00:01:10").unwrap());
        // Quiet stream: a third report folds zero events, still delta.
        session.recency_report(sql).unwrap();
        assert_eq!(
            session.maintenance_stats(),
            MaintenanceStats {
                registrations: 1,
                delta_serves: 2,
                rescan_serves: 0,
            }
        );
    }

    #[test]
    fn maintain_reports_off_rescans_every_report() {
        let db = paper_db();
        let mut session = Session::new(db.clone());
        session.exec_options.maintain_reports = false;
        let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
        session.recency_report(sql).unwrap();
        db.with_write(|w| {
            w.heartbeat(
                &SourceId::new("m1"),
                Timestamp::parse("2006-02-10 00:01:20").unwrap(),
            )
        })
        .unwrap();
        let out = session.recency_report(sql).unwrap();
        let m1 = out
            .report
            .normal
            .iter()
            .find(|(s, _)| s.as_str() == "m1")
            .unwrap()
            .1;
        assert_eq!(m1, Timestamp::parse("2006-02-10 00:01:20").unwrap());
        assert_eq!(
            session.maintenance_stats(),
            MaintenanceStats::default(),
            "the knob must disable registration entirely"
        );
    }

    #[test]
    fn knob_or_config_change_drops_maintained_state() {
        // Maintained state is only valid for the exact plan it was
        // registered against: a fresh ExecOptions key gets fresh state,
        // and a relevance-config rebuild replaces state in place.
        let db = paper_db();
        let mut session = Session::new(db);
        let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
        session.recency_report(sql).unwrap();
        session.recency_report(sql).unwrap();
        assert_eq!(session.maintenance_stats().registrations, 1);
        assert_eq!(session.maintenance_stats().delta_serves, 1);
        // New plan-shaping knob → new cache entry → new registration.
        session.exec_options.enable_index_scan = false;
        session.recency_report(sql).unwrap();
        assert_eq!(session.maintenance_stats().registrations, 2);
        // Config change rebuilds the entry and drops its state with it.
        session.exec_options = ExecOptions::default();
        session.relevance_config.dnf_budget += 1;
        session.recency_report(sql).unwrap();
        assert_eq!(session.maintenance_stats().registrations, 3);
    }

    #[test]
    fn parallel_session_report_matches_serial() {
        let db = paper_db();
        let serial = Session::new(db.clone());
        let mut parallel = Session::new(db);
        parallel.exec_options = ExecOptions::default().with_parallelism(4, 2);
        for sql in [
            "SELECT mach_id, value FROM Activity WHERE value = 'idle'",
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = A.mach_id AND A.value = 'idle'",
        ] {
            let s = serial.recency_report(sql).unwrap();
            let p = parallel.recency_report(sql).unwrap();
            assert_eq!(s.result.rows, p.result.rows, "user query rows for {sql}");
            assert_eq!(s.report.normal, p.report.normal, "normal sources for {sql}");
            assert_eq!(
                s.report.exceptional, p.report.exceptional,
                "exceptional sources for {sql}"
            );
            assert_eq!(s.report.guarantee, p.report.guarantee);
        }
    }

    #[test]
    fn statements_are_stored_on_their_second_execution_and_revalidated() {
        let db = paper_db();
        let session = Session::new(db.clone());
        let sql = "SELECT mach_id FROM Activity WHERE value = 'idle'";
        let counts = |hits, relowers, rebinds, misses| StatementStats {
            hits,
            relowers,
            rebinds,
            misses,
        };
        session.query(sql).unwrap();
        assert!(
            session.cached_plan(sql).is_none(),
            "a first run stores no plan"
        );
        session.recency_report(sql).unwrap();
        assert!(session.cached_plan(sql).is_some());
        session.query(sql).unwrap();
        session.recency_report_with(sql, Method::Naive).unwrap();
        assert_eq!(session.statement_stats(), counts(2, 0, 0, 2));
        // A write moves Activity's statistics: the bound statement is
        // lowered again, once, and serves the new row.
        let a = db.begin_read().table_id("activity").unwrap();
        let ts = Timestamp::parse("2006-02-10 00:00:55").unwrap();
        let row = vec![Value::text("m2"), Value::text("idle"), Value::Timestamp(ts)];
        db.with_write(|w| w.ingest(&SourceId::new("m2"), a, row, ts))
            .unwrap();
        assert_eq!(session.query(sql).unwrap().len(), 3);
        assert_eq!(session.recency_report(sql).unwrap().result.len(), 3);
        assert_eq!(session.statement_stats(), counts(3, 1, 0, 2));
        // An index on a table the statement does not bind leaves it
        // alone; one on Activity re-lowers it.
        db.create_index("routing", "neighbor").unwrap();
        session.query(sql).unwrap();
        db.create_index("activity", "value").unwrap();
        session.query(sql).unwrap();
        assert_eq!(session.statement_stats(), counts(4, 2, 0, 2));
        assert_eq!(
            session.plan_cache_stats(),
            PlanCacheStats { hits: 1, misses: 1 }
        );
    }

    /// Runs the DDL of a `DROP TABLE Activity` followed by a re-create
    /// between `warm` reports of a join and one more, and compares the
    /// last with a fresh session's.
    fn report_across_a_recreated_table(warm: usize) -> Session {
        let db = paper_db();
        let run = |sql: &str| trac_exec::execute_statement(&db, sql).unwrap();
        let sql = "SELECT A.mach_id FROM Routing R, Activity A \
                   WHERE R.mach_id = 'm1' AND R.neighbor = A.mach_id AND A.value = 'idle'";
        let session = Session::new(db.clone());
        run("DELETE FROM Activity WHERE value = 'idle'");
        for _ in 0..warm {
            session.recency_report(sql).unwrap();
        }
        run("DROP TABLE Activity");
        run(
            "CREATE TABLE activity (mach_id TEXT NOT NULL, value TEXT, event_time TIMESTAMP) \
             SOURCE COLUMN mach_id",
        );
        run("INSERT INTO activity VALUES ('m3', 'idle', '2006-02-10 00:00:35')");
        let cached = session.recency_report(sql).unwrap();
        let fresh = Session::new(db).recency_report(sql).unwrap();
        assert_eq!(cached.result.rows, fresh.result.rows);
        assert_eq!(cached.report.normal, fresh.report.normal);
        assert_eq!(cached.report.exceptional, fresh.report.exceptional);
        assert_eq!(cached.report.guarantee, fresh.report.guarantee);
        assert_eq!(
            session.plan_cache_stats().misses,
            2,
            "the recency plan is rebuilt"
        );
        session
    }

    #[test]
    fn a_dropped_and_recreated_table_rebuilds_the_cached_plans() {
        // After one report only the recency half is stored.
        assert_eq!(
            report_across_a_recreated_table(1).statement_stats().misses,
            2
        );
        // After two the front is too, and its dead table id re-binds it.
        let session = report_across_a_recreated_table(2);
        assert_eq!(session.statement_stats().rebinds, 1);
    }

    #[test]
    fn timings_accumulate() {
        let db = paper_db();
        let session = Session::new(db);
        let out = session
            .recency_report("SELECT mach_id FROM Activity WHERE mach_id = 'm1'")
            .unwrap();
        let t = out.timings;
        assert_eq!(
            t.total(),
            t.analyze + t.user_query + t.relevance_query + t.stats
        );
        assert!(t.reporting_total() >= t.analyze);
    }
}
