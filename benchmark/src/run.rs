//! Set-up, the closed op loop, and the untraced run that produces the
//! end-to-end metrics.
//!
//! One client, one thread, stock serial `ExecOptions::default()`: the next
//! op is issued when the previous one returns.

use crate::gate;
use crate::gen::{self, BenchDb, Rng, Shape};
use crate::stats::{median, quantile, samples_beyond};
use crate::workload::{Kind, Statement, Workload, INGEST_BATCH_ROWS, REPORTS_PER_BLOCK};
use std::time::{Duration, Instant};
use trac_core::{MaintenanceStats, PlanCacheStats, ReportOutput, Session};
use trac_exec::QueryResult;
use trac_types::Result;

pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    /// Cycles in the timed window. A fixed op count, not a time: the
    /// engine's cost per op grows with the ops already issued, so a window
    /// that fitted more ops into the same time would measure dearer ops.
    pub cycles: u64,
    /// How long the window is expected to take; past four times this the
    /// loop is cut short (a safety net, never reached at the seed commit).
    pub seconds: f64,
    /// Rounds of [`INGEST_BATCH_ROWS`] written after a read-only window.
    pub tail_rounds: u64,
    pub shape: Shape,
    /// How many times set-up is repeated; `setup_s` is their median.
    pub setups: usize,
}

#[cfg(test)]
impl Config {
    /// Two cycles on a 400-source database, one set-up.
    pub fn tiny(kind: Kind) -> Config {
        Config {
            kind,
            seed: 7,
            cycles: 2,
            seconds: 900.0,
            tail_rounds: 2,
            shape: Shape {
                sources: 400,
                rows_per_source: 4,
            },
            setups: 1,
        }
    }
}

/// Metric values by name, in `metrics::END_TO_END` / `PER_LAYER` order
/// (the tables hold the units).
pub type Metrics = Vec<(&'static str, f64)>;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Every 64th report of the window is re-checked against a
/// `maintain_reports = false` session, outside the timers.
const RECHECK_EVERY: u64 = 64;

/// What one client does at each step of a cycle. The untraced and the
/// traced run differ only in this.
pub trait Client {
    /// One write batch of `rows` ingests.
    fn write(&mut self, rows: u64);
    /// One report (and, untraced, its plain twin) on `statement`, the
    /// `position`-th report of its session block (0-based).
    fn pair(&mut self, statement: &Statement, position: u32);
    /// `Session::close()` after a block of [`REPORTS_PER_BLOCK`] reports.
    fn close_block(&mut self);
    /// The client disconnects and opens a fresh session.
    fn reconnect(&mut self);
    /// The stock-session client inside this one.
    fn real(&mut self) -> &mut RealClient;
    /// True when the client cannot record another cycle.
    fn exhausted(&self) -> bool {
        false
    }
}

/// Position in the op sequence, carried from the warm-up into the window.
#[derive(Default)]
pub struct Pacer {
    reports_in_block: u32,
}

impl Pacer {
    /// Runs whole cycles until `stop(cycles_done)`.
    pub fn run(
        &mut self,
        w: &Workload,
        client: &mut impl Client,
        mut stop: impl FnMut(u64) -> bool,
    ) -> u64 {
        let mut cycles = 0;
        loop {
            if w.fresh_session_per_cycle {
                client.reconnect();
                self.reports_in_block = 0;
            }
            for step in &w.cycle {
                if step.write_rows > 0 {
                    client.write(step.write_rows);
                }
                client.pair(&w.statements[step.statement], self.reports_in_block);
                self.reports_in_block += 1;
                if self.reports_in_block == REPORTS_PER_BLOCK {
                    client.close_block();
                    self.reports_in_block = 0;
                }
            }
            cycles += 1;
            if stop(cycles) || client.exhausted() {
                return cycles;
            }
        }
    }
}

/// Ends the window after `cfg.cycles` cycles.
pub fn window(cfg: &Config) -> impl FnMut(u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs_f64(4.0 * cfg.seconds);
    let cycles = cfg.cycles;
    move |done| {
        let cut_short = done < cycles && Instant::now() >= deadline;
        if cut_short {
            eprintln!("warning: window cut short at {done} of {cycles} cycles");
        }
        done >= cycles || cut_short
    }
}

/// Timing samples of one statement class, in milliseconds.
#[derive(Default, Clone)]
pub struct ClassSamples {
    pub report_ms: Vec<f64>,
    pub plain_ms: Vec<f64>,
    /// Report samples at block positions 0–4 and 45–49, for the drift.
    pub block_head_ms: Vec<f64>,
    pub block_tail_ms: Vec<f64>,
    /// Pairs of this class in which the report went first, and second.
    pub orders: [u64; 2],
}

/// The measured client: a stock `Session`, timed call by call.
pub struct RealClient {
    pub bench: BenchDb,
    pub session: Session,
    /// `maintain_reports = false`: the differential reference.
    rescan: Session,
    pub write_rng: Rng,
    pub classes: Vec<ClassSamples>,
    /// Time inside timed ops (reports, plain queries, writes, closes).
    pub busy: Duration,
    /// Time inside write batches, and the rows they committed.
    pub write_time: Duration,
    pub rows_written: u64,
    pub reports: u64,
    /// Duration of the latest timed report.
    pub last_report_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Engine counters of the sessions `reconnect` retired, and their
    /// value at the last `reset`.
    retired: EngineCounters,
    baseline: EngineCounters,
}

/// `Session::plan_cache_stats` and `Session::maintenance_stats`, summed
/// over every session the client has had.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub registrations: u64,
    pub delta_serves: u64,
    pub rescan_serves: u64,
}

impl EngineCounters {
    fn of(session: &Session) -> EngineCounters {
        let PlanCacheStats { hits, misses } = session.plan_cache_stats();
        let MaintenanceStats {
            registrations,
            delta_serves,
            rescan_serves,
        } = session.maintenance_stats();
        EngineCounters {
            cache_hits: hits,
            cache_misses: misses,
            registrations,
            delta_serves,
            rescan_serves,
        }
    }

    fn combine(self, other: EngineCounters, f: impl Fn(u64, u64) -> u64) -> EngineCounters {
        EngineCounters {
            cache_hits: f(self.cache_hits, other.cache_hits),
            cache_misses: f(self.cache_misses, other.cache_misses),
            registrations: f(self.registrations, other.registrations),
            delta_serves: f(self.delta_serves, other.delta_serves),
            rescan_serves: f(self.rescan_serves, other.rescan_serves),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl RealClient {
    fn new(bench: BenchDb, seed: u64, n_classes: usize) -> RealClient {
        let session = Session::new(bench.db.clone());
        let mut rescan = Session::new(bench.db.clone());
        rescan.exec_options.maintain_reports = false;
        RealClient {
            bench,
            session,
            rescan,
            write_rng: Rng::new(seed ^ 0x17E5_7A11_0F0A_11ED),
            classes: vec![ClassSamples::default(); n_classes],
            busy: Duration::ZERO,
            write_time: Duration::ZERO,
            rows_written: 0,
            reports: 0,
            last_report_ms: 0.0,
            attempted: 0,
            failed: 0,
            retired: EngineCounters::default(),
            baseline: EngineCounters::default(),
        }
    }

    fn lifetime_counters(&self) -> EngineCounters {
        self.retired
            .combine(EngineCounters::of(&self.session), |a, b| a + b)
    }

    /// The engine's own counters since the last [`Self::reset`].
    pub fn engine_counters(&self) -> EngineCounters {
        self.lifetime_counters()
            .combine(self.baseline, |a, b| a - b)
    }

    /// Forgets everything measured so far (the warm-up's samples).
    pub fn reset(&mut self) {
        for c in &mut self.classes {
            *c = ClassSamples::default();
        }
        self.busy = Duration::ZERO;
        self.write_time = Duration::ZERO;
        self.rows_written = 0;
        self.reports = 0;
        self.attempted = 0;
        self.failed = 0;
        self.baseline = self.lifetime_counters();
    }

    fn fail(&mut self, what: &str, detail: &dyn std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED op ({what}): {detail}");
        }
    }

    fn settle<T>(&mut self, what: &str, r: Result<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, &e);
                None
            }
        }
    }

    /// Whether the report goes first in the next pair of `class`. The order
    /// alternates on the class's own pair count, so that neither call
    /// always runs on the caches the other left behind; the client's
    /// report count would not do, because a cycle of one pair per class
    /// gives every class the same parity every time.
    pub fn report_goes_first(&mut self, class: usize) -> bool {
        let orders = &mut self.classes[class].orders;
        let turn = ((orders[0] + orders[1]) % 2) as usize;
        orders[turn] += 1;
        turn == 0
    }

    /// `Session::recency_report`, timed; every [`RECHECK_EVERY`]th one is
    /// then compared with the rescan session's, outside the timer.
    pub fn report(&mut self, statement: &Statement, position: u32) -> Option<ReportOutput> {
        let t = Instant::now();
        let out = self.session.recency_report(&statement.sql);
        let took = t.elapsed();
        self.busy += took;
        let out = self.settle("report", out)?;
        self.last_report_ms = ms(took);
        let samples = &mut self.classes[statement.class];
        samples.report_ms.push(ms(took));
        if position < 5 {
            samples.block_head_ms.push(ms(took));
        } else if position >= REPORTS_PER_BLOCK - 5 {
            samples.block_tail_ms.push(ms(took));
        }
        self.reports += 1;
        if self.reports.is_multiple_of(RECHECK_EVERY) {
            let reference = self.rescan.recency_report(&statement.sql);
            self.rescan.close();
            match reference {
                Ok(r) => {
                    if let Err(why) = gate::same_report(&out, &r) {
                        self.fail("recheck", &why);
                    }
                }
                Err(e) => self.fail("recheck", &e),
            }
        }
        Some(out)
    }

    fn plain(&mut self, statement: &Statement) -> Option<QueryResult> {
        let t = Instant::now();
        let out = self.session.query(&statement.sql);
        let took = t.elapsed();
        self.busy += took;
        let out = self.settle("plain", out)?;
        self.classes[statement.class].plain_ms.push(ms(took));
        Some(out)
    }

    pub fn timed_close(&mut self) {
        let t = Instant::now();
        self.session.close();
        self.busy += t.elapsed();
    }

    pub fn timed_reconnect(&mut self) {
        self.retired = self.lifetime_counters();
        let t = Instant::now();
        self.session = Session::new(self.bench.db.clone());
        self.busy += t.elapsed();
    }

    /// One write batch, whole: `begin_write` … `commit`.
    pub fn timed_write(&mut self, rows: u64) {
        let t = Instant::now();
        let batch = self
            .bench
            .ingest_batch(&mut self.write_rng, rows)
            .map(trac_storage::WriteTxn::commit);
        let took = t.elapsed();
        self.busy += took;
        if self.settle("write", batch).is_some() {
            self.write_time += took;
            self.rows_written += rows;
        }
    }
}

impl Client for RealClient {
    fn write(&mut self, rows: u64) {
        self.timed_write(rows);
    }

    fn pair(&mut self, statement: &Statement, position: u32) {
        if self.report_goes_first(statement.class) {
            self.report(statement, position);
            self.plain(statement);
        } else {
            self.plain(statement);
            self.report(statement, position);
        }
    }

    fn close_block(&mut self) {
        self.timed_close();
    }

    fn reconnect(&mut self) {
        self.timed_reconnect();
    }

    fn real(&mut self) -> &mut RealClient {
        self
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What set-up leaves behind for the timed window.
pub struct Ready<C> {
    pub workload: Workload,
    pub client: C,
    pub pacer: Pacer,
    pub setup_s: f64,
}

/// Runs set-up `cfg.setups` times — generate and load the database, build
/// the indexes, open the session(s) via `open`, run the untimed warm-up
/// cycles — keeping the last.
pub fn setup<C: Client>(cfg: &Config, open: impl Fn(RealClient) -> C) -> Result<Ready<C>> {
    let mut times = Vec::with_capacity(cfg.setups);
    let mut last = None;
    for _ in 0..cfg.setups.max(1) {
        drop(last.take());
        let t = Instant::now();
        let bench = gen::build_db(cfg.seed, cfg.shape)?;
        let workload = Workload::new(cfg.kind, cfg.seed, cfg.shape.sources);
        let mut client = open(RealClient::new(bench, cfg.seed, workload.classes.len()));
        let mut pacer = Pacer::default();
        let warmup = workload.warmup_cycles;
        pacer.run(&workload, &mut client, |cycles| cycles >= warmup);
        times.push(t.elapsed().as_secs_f64());
        let warm = client.real();
        if warm.failed > 0 {
            return Err(trac_types::TracError::Config(format!(
                "{} of {} warm-up ops failed",
                warm.failed, warm.attempted
            )));
        }
        warm.reset();
        last = Some((workload, client, pacer));
    }
    let (workload, client, pacer) = last.expect("at least one set-up ran");
    Ok(Ready {
        workload,
        client,
        pacer,
        setup_s: median(&mut times).expect("at least one set-up ran"),
    })
}

/// Geometric mean over statement classes of `f(class)`, skipping classes
/// without samples. Geometric, because the classes of one workload differ
/// by orders of magnitude (Q1 ≈ 30 µs, QR ≈ 5 ms): a class that gets twice
/// as slow moves the mean by the same factor whichever class it is.
pub fn class_mean(
    classes: &mut [ClassSamples],
    f: impl Fn(&mut ClassSamples) -> Option<f64>,
) -> f64 {
    let logs: Vec<f64> = classes.iter_mut().filter_map(f).map(f64::ln).collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// The untraced run: set-up, the correctness gate, the timed window, and
/// the end-to-end metrics.
pub fn untraced(cfg: &Config) -> Result<Outcome> {
    let mut ready = setup(cfg, |c| c)?;
    let t = Instant::now();
    let gate_failures = gate::before_window(cfg, &ready.workload, &ready.client.bench.db)?;
    let gate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut stop = window(cfg);
    let cycles = ready
        .pacer
        .run(&ready.workload, &mut ready.client, &mut stop);
    let c = &mut ready.client;
    eprintln!(
        "# {} seed {} (inputs {:016x}): gate {gate_s:.2} s, window {:.2} s \
         ({:.2} s in timed ops), {cycles} cycles, {} reports",
        cfg.kind.name(),
        cfg.seed,
        c.bench.checksum,
        t.elapsed().as_secs_f64(),
        c.busy.as_secs_f64(),
        c.reports
    );

    // Medians are taken per statement class, then averaged: pooled, the
    // median of a two-class mix sits on the gap between the two modes.
    let report_p50 = class_mean(&mut c.classes, |s| median(&mut s.report_ms));
    let plain_p50 = class_mean(&mut c.classes, |s| median(&mut s.plain_ms));
    let mut pooled: Vec<f64> = c
        .classes
        .iter()
        .flat_map(|s| s.report_ms.iter().copied())
        .collect();
    let beyond = samples_beyond(pooled.len(), 0.9);
    if beyond < 10 {
        eprintln!(
            "warning: report_p90_ms has only {beyond} samples beyond it ({} reports)",
            pooled.len()
        );
    }
    let report_p90 = quantile(&mut pooled, 0.9).unwrap_or(0.0);
    let reports_per_s = c.reports as f64 / c.busy.as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    // Producers get their turn after a window that wrote nothing: the
    // batches `ingest_and_report` issues beside its reports, here behind
    // them, so that the ingest rate is defined alike on every workload and
    // a read-only window stays read-only.
    if c.rows_written == 0 {
        for _ in 0..cfg.tail_rounds {
            for rows in INGEST_BATCH_ROWS {
                c.timed_write(rows);
            }
        }
    }
    let metrics = vec![
        ("setup_s", ready.setup_s),
        ("report_p50_ms", report_p50),
        ("report_p90_ms", report_p90),
        ("plain_p50_ms", plain_p50),
        // With geometric class means this is also the class mean of the
        // per-class ratios.
        ("report_over_plain", report_p50 / plain_p50),
        ("reports_per_s", reports_per_s),
        (
            "ingest_rows_per_s",
            c.rows_written as f64 / c.write_time.as_secs_f64(),
        ),
        ("peak_rss_mb", peak_rss_mb),
    ];
    Ok(Outcome {
        attempted: c.attempted + gate_failures.attempted,
        failed: c.failed + gate_failures.failed,
        metrics,
    })
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Both orders, evenly, for every class of every workload.
    pub fn assert_orders_alternate(kind: Kind, classes: &[ClassSamples]) {
        for (i, c) in classes.iter().enumerate() {
            let [first, second] = c.orders;
            assert!(
                second > 0 && first.abs_diff(second) <= 1,
                "{} class {i}: {first} report-first, {second} plain-first",
                kind.name()
            );
        }
    }

    #[test]
    fn pair_order_alternates_within_every_class() {
        for kind in Kind::ALL {
            let cfg = Config::tiny(kind);
            let mut ready = setup(&cfg, |c| c).unwrap();
            ready
                .pacer
                .run(&ready.workload, &mut ready.client, window(&cfg));
            assert_orders_alternate(kind, &ready.client.classes);
        }
    }
}
