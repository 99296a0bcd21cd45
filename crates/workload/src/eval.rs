//! The Section 5.2 synthetic data generator and test queries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trac_storage::{heartbeat, ColumnDef, Database, TableId, TableSchema, HEARTBEAT_TABLE};
use trac_types::{ColumnDomain, DataType, Result, Timestamp, TracError, TsDuration, Value};

/// One point of the paper's sweep: `data_ratio × n_sources = total_rows`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Rows per data source in `Activity`.
    pub data_ratio: u64,
    /// Number of data sources.
    pub n_sources: u64,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Total `Activity` rows (paper: 10,000,000; our default 1,000,000 —
    /// see DESIGN.md's scale substitution).
    pub total_rows: u64,
    /// Rows per source; must divide `total_rows`.
    pub data_ratio: u64,
    /// RNG seed.
    pub seed: u64,
    /// Base timestamp for events and heartbeats.
    pub base: Timestamp,
    /// Spread of heartbeat recency timestamps across sources, seconds.
    pub heartbeat_spread_secs: i64,
    /// Number of sources made exceptionally stale (z-score outliers).
    pub n_stale_sources: u64,
    /// How far behind the stale sources sit, seconds.
    pub stale_secs: i64,
}

impl EvalConfig {
    /// The paper's default shape at a given total size and ratio.
    pub fn new(total_rows: u64, data_ratio: u64) -> EvalConfig {
        EvalConfig {
            total_rows,
            data_ratio,
            seed: 7,
            base: Timestamp::parse("2006-03-15 14:00:00").expect("valid"),
            heartbeat_spread_secs: 1200, // a 20-minute spread, like §5.1
            n_stale_sources: 0,
            stale_secs: 30 * 86_400,
        }
    }

    /// The sweep point this config realizes.
    pub fn sweep_point(&self) -> SweepPoint {
        SweepPoint {
            data_ratio: self.data_ratio,
            n_sources: self.total_rows / self.data_ratio,
        }
    }
}

/// A generated evaluation database.
pub struct EvalDb {
    /// The database (heartbeat + activity + routing, indexed).
    pub db: Database,
    /// `Activity` table id.
    pub activity: TableId,
    /// `Routing` table id.
    pub routing: TableId,
    /// The realized sweep point.
    pub point: SweepPoint,
}

/// Source id for index `i` (1-based): `Tao{i}`.
pub fn source_name(i: u64) -> String {
    format!("Tao{i}")
}

/// The four test queries of Section 5.2, verbatim.
///
/// Q1: very selective single-relation; Q2: its non-selective complement
/// (`NOT IN`); Q3: join with a selective predicate on `Routing`; Q4: join
/// with the non-selective complement.
pub const PAPER_QUERIES: [(&str, &str); 4] = [
    (
        "Q1",
        "SELECT COUNT(*) FROM Activity A \
         WHERE A.mach_id IN ('Tao1','Tao10','Tao100','Tao1000','Tao10000','Tao100000') \
         AND A.value = 'idle'",
    ),
    (
        "Q2",
        "SELECT COUNT(*) FROM Activity A \
         WHERE A.mach_id NOT IN ('Tao1','Tao10','Tao100','Tao1000','Tao10000','Tao100000') \
         AND A.value = 'idle'",
    ),
    (
        "Q3",
        "SELECT COUNT(*) FROM Routing R, Activity A \
         WHERE R.mach_id IN ('Tao1','Tao10','Tao100','Tao1000','Tao10000','Tao100000') \
         AND R.neighbor = A.mach_id AND A.value = 'idle'",
    ),
    (
        "Q4",
        "SELECT COUNT(*) FROM Routing R, Activity A \
         WHERE R.mach_id NOT IN ('Tao1','Tao10','Tao100','Tao1000','Tao10000','Tao100000') \
         AND R.neighbor = A.mach_id AND A.value = 'idle'",
    ),
];

/// Generates the evaluation database for `config`.
///
/// `Activity`: `total_rows` rows, `data_ratio` per source, values drawn
/// uniformly from {idle, busy}. `Routing`: one row per source, neighbor =
/// ring successor. `Heartbeat`: every source, recency spread uniformly
/// over `heartbeat_spread_secs` below `base` (+ optional stale outliers).
/// Indexes on the source columns of all three tables (as in the paper).
pub fn load_eval_db(config: &EvalConfig) -> Result<EvalDb> {
    if config.data_ratio == 0 || !config.total_rows.is_multiple_of(config.data_ratio) {
        return Err(TracError::Config(format!(
            "data_ratio {} must divide total_rows {}",
            config.data_ratio, config.total_rows
        )));
    }
    let point = config.sweep_point();
    let n = point.n_sources;
    let db = build_schema(&db_domains(n))?;
    let activity = db.begin_read().table_id("activity")?;
    let routing = db.begin_read().table_id("routing")?;
    let hb = db.begin_read().table_id(HEARTBEAT_TABLE)?;
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Bulk load in one transaction; heartbeats inserted directly (one row
    // per source) rather than upserted per event.
    let txn = db.begin_write();
    let values = ["idle", "busy"];
    let mut event_t = config.base - TsDuration::from_secs(config.total_rows as i64);
    for i in 1..=n {
        let sid = source_name(i);
        for _ in 0..point.data_ratio {
            let v = values[rng.random_range(0..2)];
            txn.insert(
                activity,
                vec![
                    Value::text(sid.clone()),
                    Value::text(v),
                    Value::Timestamp(event_t),
                ],
            )?;
            event_t = event_t + TsDuration::from_secs(1);
        }
        let neighbor = source_name(i % n + 1);
        txn.insert(
            routing,
            vec![
                Value::text(sid.clone()),
                Value::text(neighbor),
                Value::Timestamp(config.base),
            ],
        )?;
        // Heartbeat recency: uniform within the spread; the first
        // `n_stale_sources` sources instead sit far in the past.
        let recency = if i <= config.n_stale_sources {
            config.base - TsDuration::from_secs(config.stale_secs)
        } else {
            config.base - TsDuration::from_secs(rng.random_range(0..=config.heartbeat_spread_secs))
        };
        txn.insert(hb, vec![Value::text(sid), Value::Timestamp(recency)])?;
    }
    txn.commit();
    Ok(EvalDb {
        db,
        activity,
        routing,
        point,
    })
}

fn db_domains(n_sources: u64) -> ColumnDomain {
    // Machine-id domain: the full Tao1..TaoN set. Materializing the set
    // is what lets the satisfiability engine and the oracle reason
    // exactly; for very large N this is a few MB, same order as the data.
    ColumnDomain::text_set((1..=n_sources).map(source_name))
}

fn build_schema(machine_domain: &ColumnDomain) -> Result<Database> {
    let db = Database::new();
    // Replace the default unbounded heartbeat sid domain with the finite
    // machine set: D_s is "the same set of data source ids that the
    // Heartbeat table records".
    db.drop_table(HEARTBEAT_TABLE)?;
    db.create_table(heartbeat::heartbeat_schema_with_domain(
        machine_domain.clone(),
    ))?;
    db.create_index(HEARTBEAT_TABLE, heartbeat::HEARTBEAT_SID_COL)?;
    db.create_table(TableSchema::new(
        "activity",
        vec![
            ColumnDef::new("mach_id", DataType::Text).with_domain(machine_domain.clone()),
            ColumnDef::new("value", DataType::Text)
                .with_domain(ColumnDomain::text_set(["idle", "busy"])),
            ColumnDef::new("event_time", DataType::Timestamp),
        ],
        Some("mach_id"),
    )?)?;
    db.create_table(TableSchema::new(
        "routing",
        vec![
            ColumnDef::new("mach_id", DataType::Text).with_domain(machine_domain.clone()),
            ColumnDef::new("neighbor", DataType::Text).with_domain(machine_domain.clone()),
            ColumnDef::new("event_time", DataType::Timestamp),
        ],
        Some("mach_id"),
    )?)?;
    db.create_index("activity", "mach_id")?;
    db.create_index("routing", "mach_id")?;
    Ok(db)
}

/// The sweep of Figure 1: ratios 10 → total_rows/10 by factors of 10
/// (the paper's x-axis), subject to `n_sources <= max_sources`.
pub fn figure1_sweep(total_rows: u64, max_sources: u64) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    let mut ratio = 10u64;
    while ratio <= total_rows {
        let n_sources = total_rows / ratio;
        if n_sources >= 1 && n_sources <= max_sources && total_rows.is_multiple_of(ratio) {
            out.push(SweepPoint {
                data_ratio: ratio,
                n_sources,
            });
        }
        ratio *= 10;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trac_exec::execute_statement;

    #[test]
    fn generates_requested_shape() {
        let cfg = EvalConfig::new(1000, 100); // 10 sources × 100 rows
        let e = load_eval_db(&cfg).unwrap();
        assert_eq!(
            e.point,
            SweepPoint {
                data_ratio: 100,
                n_sources: 10
            }
        );
        let txn = e.db.begin_read();
        assert_eq!(txn.row_count(e.activity).unwrap(), 1000);
        assert_eq!(txn.row_count(e.routing).unwrap(), 10);
        let beats = heartbeat::all_recencies(&txn).unwrap();
        assert_eq!(beats.len(), 10);
        assert!(txn.has_index(e.activity, 0));
        assert!(txn.has_index(e.routing, 0));
    }

    #[test]
    fn ring_routing_maps_set_onto_itself() {
        let cfg = EvalConfig::new(100, 10);
        let e = load_eval_db(&cfg).unwrap();
        let r = execute_statement(
            &e.db,
            "SELECT neighbor FROM Routing WHERE mach_id = 'Tao10'",
        )
        .unwrap();
        match r {
            trac_exec::StatementResult::Rows(q) => {
                assert_eq!(q.rows[0][0], Value::text("Tao1")); // ring wraps
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = EvalConfig::new(500, 50);
        let a = load_eval_db(&cfg).unwrap();
        let b = load_eval_db(&cfg).unwrap();
        let qa =
            execute_statement(&a.db, "SELECT COUNT(*) FROM Activity WHERE value = 'idle'").unwrap();
        let qb =
            execute_statement(&b.db, "SELECT COUNT(*) FROM Activity WHERE value = 'idle'").unwrap();
        assert_eq!(format!("{qa:?}"), format!("{qb:?}"));
    }

    #[test]
    fn stale_sources_sit_far_behind() {
        let mut cfg = EvalConfig::new(100, 10);
        cfg.n_stale_sources = 2;
        let e = load_eval_db(&cfg).unwrap();
        let txn = e.db.begin_read();
        let beats = heartbeat::all_recencies(&txn).unwrap();
        let stale: Vec<_> = beats
            .iter()
            .filter(|(_, t)| cfg.base - *t > TsDuration::from_secs(86_400))
            .collect();
        assert_eq!(stale.len(), 2);
    }

    #[test]
    fn rejects_non_dividing_ratio() {
        assert!(load_eval_db(&EvalConfig::new(1000, 300)).is_err());
        assert!(load_eval_db(&EvalConfig::new(1000, 0)).is_err());
    }

    #[test]
    fn figure1_sweep_shape() {
        let sweep = figure1_sweep(1_000_000, 100_000);
        assert_eq!(
            sweep[0],
            SweepPoint {
                data_ratio: 10,
                n_sources: 100_000
            }
        );
        assert_eq!(
            *sweep.last().unwrap(),
            SweepPoint {
                data_ratio: 1_000_000,
                n_sources: 1
            }
        );
        for w in &sweep {
            assert_eq!(w.data_ratio * w.n_sources, 1_000_000);
        }
    }

    #[test]
    fn paper_queries_parse_and_run() {
        let cfg = EvalConfig::new(1000, 100);
        let e = load_eval_db(&cfg).unwrap();
        for (name, sql) in PAPER_QUERIES {
            let r = execute_statement(&e.db, sql).unwrap();
            match r {
                trac_exec::StatementResult::Rows(q) => {
                    assert!(q.scalar().is_some(), "{name} must return a count");
                }
                other => panic!("{name}: {other:?}"),
            }
        }
    }
}
