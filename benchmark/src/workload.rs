//! The four workloads as data: a statement list, one cycle of steps, and
//! how many cycles a window of a given length is.

use crate::gen::{self, Rng};

/// Reports per client session block: after this many the client calls
/// `Session::close()` (temp tables dropped, plan cache kept) and carries
/// on. Fixed for every workload; without it a long session drowns in
/// `sys_temp_*` tables and measures catalog size instead of reports.
pub const REPORTS_PER_BLOCK: u32 = 50;

/// Rows per write batch over one 8-step ingest cycle. The 2048-row batch
/// publishes 4096 change events, overrunning the 1024-event changelog
/// ring on purpose: the report after it must take the rescan path.
pub const INGEST_BATCH_ROWS: [u64; 8] = [16, 16, 16, 256, 16, 16, 16, 2048];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointReports,
    ScanReports,
    AdhocReports,
    IngestAndReport,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PointReports,
        Kind::ScanReports,
        Kind::AdhocReports,
        Kind::IngestAndReport,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PointReports => "point_reports",
            Kind::ScanReports => "scan_reports",
            Kind::AdhocReports => "adhoc_reports",
            Kind::IngestAndReport => "ingest_and_report",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Timed cycles per second of `--seconds`: what the engine did on the
    /// 2-core host at the commit that added the benchmark, rounded down: a
    /// window sized for 20 s took 16–19 s there. The window is this many
    /// cycles whatever the engine's speed is now.
    fn cycles_per_second(self) -> f64 {
        match self {
            Kind::PointReports => 2000.0,
            Kind::ScanReports => 4.25,
            Kind::AdhocReports => 3.4,
            Kind::IngestAndReport => 2.75,
        }
    }

    /// The fixed op count of a window meant to last `seconds`.
    pub fn cycles_for(self, seconds: f64) -> u64 {
        ((self.cycles_per_second() * seconds).round() as u64).max(1)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::PointReports => {
                "selective Q1/Q3, warm plan cache, no writes: parse, bind, fold-of-nothing, \
                 statistics and temp tables are most of t2; exec does almost nothing"
            }
            Kind::ScanReports => {
                "non-selective Q2/Q4 over the same data: exec and the storage scan dominate, \
                 statistics and temp tables run over every source"
            }
            Kind::AdhocReports => {
                "every statement a distinct SQL text, so every report misses the plan cache: \
                 DNF, classification, subquery generation, lowering and registration are the cost"
            }
            Kind::IngestAndReport => {
                "write batches beside reports: ingest through the change stream, delta folds, \
                 and one report in eight forced onto the rescan path by a ring overflow"
            }
        }
    }
}

/// One SQL text and the statement class its timings are grouped under.
pub struct Statement {
    pub sql: String,
    pub class: usize,
}

/// One step of a cycle: an optional write batch, then one plain/report
/// pair on `statement`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub write_rows: u64,
    pub statement: usize,
}

pub struct Workload {
    pub classes: Vec<&'static str>,
    pub statements: Vec<Statement>,
    pub cycle: Vec<Step>,
    /// Untimed cycles run at the end of set-up.
    pub warmup_cycles: u64,
    /// The client reconnects (fresh `Session`, empty plan cache) at the
    /// start of every cycle.
    pub fresh_session_per_cycle: bool,
}

/// Distinct statements per ad-hoc client session: three 50-report blocks,
/// then the client disconnects. Bounds the plan cache: each cached plan
/// carries maintained state for every heartbeat source (~0.7 MB), so one
/// session over a whole window's statements would hold gigabytes.
const ADHOC_STATEMENTS_PER_SESSION: usize = 150;

impl Workload {
    /// The workload's statements and cycle for `seed` on a database of
    /// `sources` sources.
    pub fn new(kind: Kind, seed: u64, sources: u64) -> Workload {
        // A stream apart from the table generator's, so the statements
        // do not shift when the database shape does.
        let mut rng = Rng::new(seed ^ 0x5EED_0F57_A7E3_E275);
        let ids = rng.distinct_sources(6, sources);
        let workload = |classes: Vec<&'static str>,
                        statements: Vec<Statement>,
                        cycle: Vec<Step>,
                        fresh_session_per_cycle| Workload {
            classes,
            statements,
            cycle,
            // Enough to fill the plan cache and register every maintained
            // report.
            warmup_cycles: match kind {
                Kind::PointReports => 1000,
                Kind::ScanReports => 2,
                Kind::AdhocReports | Kind::IngestAndReport => 1,
            },
            fresh_session_per_cycle,
        };
        match kind {
            Kind::PointReports => workload(
                vec!["Q1", "Q3"],
                one_class_each([gen::q1(&ids), gen::q3(&ids)]),
                one_pair_each(2),
                false,
            ),
            Kind::ScanReports => workload(
                vec!["Q2", "Q4"],
                one_class_each([gen::q2(&ids), gen::q4(&ids)]),
                one_pair_each(2),
                false,
            ),
            Kind::AdhocReports => {
                let statements = (0..ADHOC_STATEMENTS_PER_SESSION)
                    .map(|i| Statement {
                        sql: gen::adhoc_statement(&mut rng, i, sources),
                        class: i % gen::ADHOC_SHAPES.len(),
                    })
                    .collect();
                workload(
                    gen::ADHOC_SHAPES.to_vec(),
                    statements,
                    one_pair_each(ADHOC_STATEMENTS_PER_SESSION),
                    true,
                )
            }
            Kind::IngestAndReport => {
                // The reported statement rotates once per 8 steps, and it
                // rotates *at* the overflowing batch: the statement that
                // follows the 2048-row batch was last reported 17 steps
                // ago, finds its cursor overrun and rescans; the next
                // seven reports of it fold. Rotating anywhere else would
                // leave a second stale cursor per cycle and the rescan
                // share would not be the 1-in-8 the workload states.
                let mut cycle = Vec::with_capacity(24);
                for rotation in 0..3 {
                    for (step, &write_rows) in INGEST_BATCH_ROWS.iter().enumerate() {
                        cycle.push(Step {
                            write_rows,
                            statement: (rotation + usize::from(step == 7)) % 3,
                        });
                    }
                }
                workload(
                    vec!["Q1", "Q3", "QR"],
                    one_class_each([gen::q1(&ids), gen::q3(&ids), gen::qr(&ids)]),
                    cycle,
                    false,
                )
            }
        }
    }
}

/// Each SQL text a statement class of its own, in order.
fn one_class_each<const N: usize>(sqls: [String; N]) -> Vec<Statement> {
    sqls.into_iter()
        .enumerate()
        .map(|(class, sql)| Statement { sql, class })
        .collect()
}

/// A read-only cycle: one pair on each of `n` statements, in order.
fn one_pair_each(n: usize) -> Vec<Step> {
    (0..n)
        .map(|statement| Step {
            write_rows: 0,
            statement,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_cycle_sums_and_rotation() {
        let w = Workload::new(Kind::IngestAndReport, 7, 20_000);
        assert_eq!(INGEST_BATCH_ROWS.iter().sum::<u64>(), 2400);
        assert_eq!(w.cycle.len(), 24);
        assert_eq!(w.cycle.iter().map(|s| s.write_rows).sum::<u64>(), 3 * 2400);
        // Each statement is reported eight times in a row, starting with
        // the report that follows the overflowing batch.
        for (i, step) in w.cycle.iter().enumerate() {
            assert_eq!(step.statement, ((i + 1) / 8) % 3, "step {i}");
        }
        let overflow: Vec<usize> = (0..24).filter(|i| w.cycle[*i].write_rows == 2048).collect();
        assert_eq!(overflow, vec![7, 15, 23]);
    }

    #[test]
    fn names_round_trip_and_statements_follow_the_seed() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
            let a = Workload::new(kind, 7, 20_000);
            let b = Workload::new(kind, 7, 20_000);
            let c = Workload::new(kind, 8, 20_000);
            let text = |w: &Workload| {
                w.statements
                    .iter()
                    .map(|s| s.sql.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(text(&a), text(&b));
            assert_ne!(text(&a), text(&c));
            assert!(a.statements.iter().all(|s| s.class < a.classes.len()));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn window_sizes_scale_with_seconds_and_yield_enough_samples() {
        for kind in Kind::ALL {
            let w = Workload::new(kind, 7, 20_000);
            let reports = |seconds| kind.cycles_for(seconds) * w.cycle.len() as u64;
            // At BENCHMARK.json's run_seconds, p90 has ten samples beyond it.
            assert!(reports(20.0) >= 100, "{}", kind.name());
            assert_eq!(kind.cycles_for(40.0), 2 * kind.cycles_for(20.0));
            assert_eq!(kind.cycles_for(0.0001), 1);
        }
    }

    #[test]
    fn adhoc_cycle_is_whole_session_blocks() {
        let w = Workload::new(Kind::AdhocReports, 7, 20_000);
        assert_eq!(w.cycle.len() % REPORTS_PER_BLOCK as usize, 0);
        assert!(w.fresh_session_per_cycle);
    }
}
