//! Seeded inputs: the §5.2 database (Activity / Routing / Heartbeat over
//! `TaoN` source ids, an index on every source column) and the SQL
//! statement templates the workloads draw from.
//!
//! Built only on `trac_storage`'s public write API so that later changes
//! to `trac-workload` or the bench harness cannot move the ruler: the
//! engine sees generated tables and SQL text, nothing else.

use trac_storage::{heartbeat, ColumnDef, Database, TableId, TableSchema, HEARTBEAT_TABLE};
use trac_types::{ColumnDomain, DataType, Result, SourceId, Timestamp, Value};

/// SplitMix64: the whole generator state is one `u64`, so a seed fully
/// determines every table row and every statement.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `k` distinct source numbers in `1..=n`, in draw order.
    pub fn distinct_sources(&mut self, k: usize, n: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let s = 1 + self.below(n);
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }
}

/// FNV-1a, used for the determinism checksums over rows and statements.
#[derive(Clone, Copy)]
pub struct Checksum(pub u64);

impl Checksum {
    pub fn new() -> Checksum {
        Checksum(0xCBF2_9CE4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Database size. Every workload runs on [`Shape::FULL`]; the tests and
/// the oracle twin use smaller shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub sources: u64,
    pub rows_per_source: u64,
}

impl Shape {
    /// 10 000 sources × 10 rows: the many-sources end of Figure 1, where
    /// the recency report is most of the response time.
    pub const FULL: Shape = Shape {
        sources: 10_000,
        rows_per_source: 10,
    };
    /// Small enough for `relevant_sources_oracle`: the join shapes cost
    /// sources² × Activity rows predicate evaluations.
    pub const ORACLE_TWIN: Shape = Shape {
        sources: 64,
        rows_per_source: 4,
    };
}

/// 2006-03-15 14:00:00 UTC in microseconds: every generated event and
/// heartbeat lies below it, every ingested one above.
const BASE_MICROS: i64 = 1_142_431_200_000_000;
const HEARTBEAT_SPREAD_SECS: u64 = 1200;

pub fn source_name(i: u64) -> String {
    format!("Tao{i}")
}

/// A generated database plus what the write workload needs to extend it.
pub struct BenchDb {
    pub db: Database,
    pub activity: TableId,
    pub shape: Shape,
    /// Checksum over every generated row, in insertion order.
    pub checksum: u64,
    /// Microseconds past [`BASE_MICROS`] of the last ingested event.
    tick: i64,
}

fn text_col(name: &str, domain: &ColumnDomain) -> ColumnDef {
    ColumnDef::new(name, DataType::Text).with_domain(domain.clone())
}

/// Generates and loads the database for `seed`: tables, rows, then the
/// three source-column indexes (built over the loaded rows).
pub fn build_db(seed: u64, shape: Shape) -> Result<BenchDb> {
    let n = shape.sources;
    // D_s is the finite machine set, as in the paper's test schema; it is
    // what lets the satisfiability checks and the oracle reason exactly.
    let machines = ColumnDomain::text_set((1..=n).map(source_name));
    let db = Database::new();
    db.drop_table(HEARTBEAT_TABLE)?;
    let hb = db.create_table(heartbeat::heartbeat_schema_with_domain(machines.clone()))?;
    let activity = db.create_table(TableSchema::new(
        "activity",
        vec![
            text_col("mach_id", &machines),
            text_col("value", &ColumnDomain::text_set(["idle", "busy"])),
            ColumnDef::new("event_time", DataType::Timestamp),
        ],
        Some("mach_id"),
    )?)?;
    let routing = db.create_table(TableSchema::new(
        "routing",
        vec![
            text_col("mach_id", &machines),
            text_col("neighbor", &machines),
            ColumnDef::new("event_time", DataType::Timestamp),
        ],
        Some("mach_id"),
    )?)?;

    let mut rng = Rng::new(seed);
    let mut sum = Checksum::new();
    let base = Timestamp::from_micros(BASE_MICROS);
    let total = (n * shape.rows_per_source) as i64;
    let mut event = BASE_MICROS - total * 1_000_000;
    let txn = db.begin_write();
    for i in 1..=n {
        let sid = source_name(i);
        for _ in 0..shape.rows_per_source {
            let value = if rng.below(2) == 0 { "idle" } else { "busy" };
            sum.feed(sid.as_bytes());
            sum.feed(value.as_bytes());
            txn.insert(
                activity,
                vec![
                    Value::text(sid.clone()),
                    Value::text(value),
                    Value::Timestamp(Timestamp::from_micros(event)),
                ],
            )?;
            event += 1_000_000;
        }
        // A seeded neighbor, not the ring successor: Q3's relevant set
        // then differs per seed without changing its size.
        let neighbor = source_name(1 + rng.below(n));
        sum.feed(neighbor.as_bytes());
        txn.insert(
            routing,
            vec![
                Value::text(sid.clone()),
                Value::text(neighbor),
                Value::Timestamp(base),
            ],
        )?;
        let lag = rng.below(HEARTBEAT_SPREAD_SECS + 1) as i64;
        sum.feed(&lag.to_le_bytes());
        txn.insert(
            hb,
            vec![
                Value::text(sid),
                Value::Timestamp(Timestamp::from_micros(BASE_MICROS - lag * 1_000_000)),
            ],
        )?;
    }
    txn.commit();
    db.create_index(HEARTBEAT_TABLE, heartbeat::HEARTBEAT_SID_COL)?;
    db.create_index("activity", "mach_id")?;
    db.create_index("routing", "mach_id")?;
    Ok(BenchDb {
        db,
        activity,
        shape,
        checksum: sum.0,
        tick: 0,
    })
}

impl BenchDb {
    /// One write batch: `rows` ingests (Activity insert + heartbeat
    /// upsert each) to seeded sources, in one transaction. Timestamps
    /// strictly increase, so every upsert advances its source's recency
    /// and publishes. Returns the open transaction so the caller can
    /// time `commit` apart from the row writes.
    pub fn ingest_batch(&mut self, rng: &mut Rng, rows: u64) -> Result<trac_storage::WriteTxn> {
        let txn = self.db.begin_write();
        for _ in 0..rows {
            self.tick += 1;
            let ts = Timestamp::from_micros(BASE_MICROS + self.tick);
            let sid = source_name(1 + rng.below(self.shape.sources));
            let value = if rng.below(2) == 0 { "idle" } else { "busy" };
            txn.ingest(
                &SourceId::new(sid.clone()),
                self.activity,
                vec![Value::text(sid), Value::text(value), Value::Timestamp(ts)],
                ts,
            )?;
        }
        Ok(txn)
    }
}

fn id_list(ids: &[u64]) -> String {
    let quoted: Vec<String> = ids.iter().map(|i| format!("'Tao{i}'")).collect();
    quoted.join(",")
}

/// The paper's four test queries, over a seeded id list (§5.2 uses six
/// ids), plus `QR`, the cheap user query with a large relevant set.
pub fn q1(ids: &[u64]) -> String {
    format!(
        "SELECT COUNT(*) FROM Activity A WHERE A.mach_id IN ({}) AND A.value = 'idle'",
        id_list(ids)
    )
}

pub fn q2(ids: &[u64]) -> String {
    format!(
        "SELECT COUNT(*) FROM Activity A WHERE A.mach_id NOT IN ({}) AND A.value = 'idle'",
        id_list(ids)
    )
}

pub fn q3(ids: &[u64]) -> String {
    format!(
        "SELECT COUNT(*) FROM Routing R, Activity A WHERE R.mach_id IN ({}) \
         AND R.neighbor = A.mach_id AND A.value = 'idle'",
        id_list(ids)
    )
}

pub fn q4(ids: &[u64]) -> String {
    format!(
        "SELECT COUNT(*) FROM Routing R, Activity A WHERE R.mach_id NOT IN ({}) \
         AND R.neighbor = A.mach_id AND A.value = 'idle'",
        id_list(ids)
    )
}

pub fn qr(ids: &[u64]) -> String {
    format!(
        "SELECT COUNT(*) FROM Routing R WHERE R.mach_id NOT IN ({})",
        id_list(ids)
    )
}

/// Statement classes of the ad-hoc workload, in `adhoc_statement`'s
/// `index % 5` order.
pub const ADHOC_SHAPES: [&str; 5] = [
    "in_list",
    "join_in_list",
    "or_of_conjunctions",
    "not_in_within_or",
    "mixed_predicate",
];

/// One ad-hoc statement: a distinct SQL text per draw (the id lists are
/// random), cycling through five shapes so every analysis path runs —
/// plain conjunctions (Q1, Q3 shapes), a two-disjunct DNF, a `NOT IN`
/// under `OR`, and a mixed predicate comparing the source column with a
/// data column (Corollary 3: upper bound). Every shape keeps a driving
/// `IN` list so the user query stays an index probe: analysis, not
/// scanning, is what these statements cost.
pub fn adhoc_statement(rng: &mut Rng, index: usize, sources: u64) -> String {
    let k = 2 + rng.below(7) as usize;
    let ids = rng.distinct_sources(k, sources);
    let all = id_list(&ids);
    let (a, b) = ids.split_at(k / 2);
    match index % ADHOC_SHAPES.len() {
        0 => q1(&ids),
        1 => q3(&ids),
        2 => format!(
            "SELECT COUNT(*) FROM Activity A WHERE A.mach_id IN ({all}) AND \
             ((A.mach_id IN ({}) AND A.value = 'idle') OR (A.mach_id IN ({}) AND A.value = 'busy'))",
            id_list(a),
            id_list(b)
        ),
        3 => format!(
            "SELECT COUNT(*) FROM Activity A WHERE A.mach_id IN ({all}) AND \
             (A.value = 'idle' OR A.mach_id NOT IN ({}))",
            id_list(b)
        ),
        _ => format!(
            "SELECT COUNT(*) FROM Activity A WHERE A.mach_id IN ({all}) AND A.mach_id > A.value"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        sources: 50,
        rows_per_source: 4,
    };

    #[test]
    fn same_seed_same_rows_and_statements() {
        let a = build_db(7, TINY).unwrap();
        let b = build_db(7, TINY).unwrap();
        let c = build_db(8, TINY).unwrap();
        assert_eq!(a.checksum, b.checksum);
        assert_ne!(a.checksum, c.checksum);
        let texts = |seed| {
            let mut rng = Rng::new(seed);
            let mut sum = Checksum::new();
            for i in 0..50 {
                sum.feed(adhoc_statement(&mut rng, i, 50).as_bytes());
            }
            sum.0
        };
        assert_eq!(texts(7), texts(7));
        assert_ne!(texts(7), texts(8));
    }

    #[test]
    fn loads_the_stated_shape_with_indexes() {
        let b = build_db(7, TINY).unwrap();
        let txn = b.db.begin_read();
        assert_eq!(txn.row_count(b.activity).unwrap(), 200);
        for table in ["activity", "routing", HEARTBEAT_TABLE] {
            let tid = txn.table_id(table).unwrap();
            assert!(txn.has_index(tid, 0), "{table} source column is indexed");
        }
        assert_eq!(txn.row_count(txn.table_id("routing").unwrap()).unwrap(), 50);
    }

    #[test]
    fn adhoc_statements_are_distinct() {
        let mut rng = Rng::new(7);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..500 {
            assert!(seen.insert(adhoc_statement(&mut rng, i, 20_000)));
        }
    }
}
