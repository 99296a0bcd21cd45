//! Sniffers: the log-to-database shippers.
//!
//! One sniffer per machine reads that machine's local log and writes the
//! corresponding rows into the central database — tagging every row with
//! its source and advancing the source's `Heartbeat` recency (Section
//! 3.1). Each sniffer has its own propagation lag, so sources are out of
//! date by *different* amounts: the central picture is never consistent,
//! which is the paper's whole premise.

use crate::event::{GridEvent, LogRecord};
use crate::log::MachineLog;
use crate::schema::GridSchema;
use trac_storage::{Database, WriteTxn};
use trac_types::{Result, SourceId, Timestamp, TsDuration, Value};

/// A per-machine log shipper.
#[derive(Debug, Clone)]
pub struct Sniffer {
    /// The data source this sniffer reports for.
    pub source: SourceId,
    /// Propagation lag: records become visible in the database only once
    /// they are at least this old.
    pub lag: TsDuration,
}

impl Sniffer {
    /// Creates a sniffer for `source` with the given lag.
    pub fn new(source: SourceId, lag: TsDuration) -> Sniffer {
        Sniffer { source, lag }
    }

    /// Ships every log record with `at <= now - lag` into the database in
    /// one transaction. Returns the number of records shipped.
    pub fn pump(
        &self,
        db: &Database,
        schema: &GridSchema,
        log: &mut MachineLog,
        now: Timestamp,
    ) -> Result<usize> {
        let horizon = now - self.lag;
        let batch = log.take_upto(horizon);
        if batch.is_empty() {
            return Ok(0);
        }
        let n = batch.len();
        let txn = db.begin_write();
        for record in &batch {
            self.apply(&txn, schema, record)?;
        }
        txn.commit();
        Ok(n)
    }

    /// Applies one log record as database updates from this source.
    fn apply(&self, txn: &WriteTxn, schema: &GridSchema, record: &LogRecord) -> Result<()> {
        let me = self.source.to_value();
        let at = record.at;
        match &record.event {
            GridEvent::JobSubmitted { job } => {
                self.job_event(txn, schema, *job, "submitted", at, None)?;
                // New S tuple: routing target still unknown.
                txn.ingest(
                    &self.source,
                    schema.sched,
                    vec![me, Value::Int(*job as i64), Value::Null],
                    at,
                )?;
            }
            GridEvent::JobRouted { job, target } => {
                self.job_event(txn, schema, *job, "routed", at, None)?;
                // Update (not insert) this scheduler's S tuple for the job.
                let jid = Value::Int(*job as i64);
                let hits = txn
                    .index_probe_in_slots(schema.sched, 1, std::slice::from_ref(&jid))?
                    .unwrap_or_default();
                let mine = hits.into_iter().find(|(_, row)| row[0] == me);
                match mine {
                    Some((slot, row)) => {
                        txn.update(
                            schema.sched,
                            slot,
                            vec![row[0].clone(), row[1].clone(), target.to_value()],
                        )?;
                    }
                    None => {
                        txn.insert(schema.sched, vec![me, jid, target.to_value()])?;
                    }
                }
                txn.heartbeat(&self.source, at)?;
            }
            GridEvent::JobStarted { job } => {
                self.job_event(txn, schema, *job, "started", at, None)?;
                txn.ingest(
                    &self.source,
                    schema.running,
                    vec![me, Value::Int(*job as i64)],
                    at,
                )?;
                self.set_state(txn, schema, "busy", at)?;
            }
            GridEvent::JobCompleted { job, cpu_secs } => {
                self.job_event(txn, schema, *job, "completed", at, Some(*cpu_secs))?;
                // Remove this machine's R tuple for the job.
                let jid = Value::Int(*job as i64);
                let hits = txn
                    .index_probe_in_slots(schema.running, 1, std::slice::from_ref(&jid))?
                    .unwrap_or_default();
                for (slot, row) in hits {
                    if row[0] == me {
                        txn.delete(schema.running, slot)?;
                    }
                }
                self.set_state(txn, schema, "idle", at)?;
                txn.heartbeat(&self.source, at)?;
            }
            GridEvent::StateChanged { state } => {
                self.set_state(txn, schema, state, at)?;
                txn.heartbeat(&self.source, at)?;
            }
            GridEvent::NeighborAdded { neighbor } => {
                txn.ingest(
                    &self.source,
                    schema.routing,
                    vec![me, neighbor.to_value(), Value::Timestamp(at)],
                    at,
                )?;
            }
            GridEvent::Heartbeat => {
                txn.heartbeat(&self.source, at)?;
            }
        }
        Ok(())
    }

    fn job_event(
        &self,
        txn: &WriteTxn,
        schema: &GridSchema,
        job: u64,
        kind: &str,
        at: Timestamp,
        cpu_secs: Option<i64>,
    ) -> Result<()> {
        txn.ingest(
            &self.source,
            schema.job_events,
            vec![
                self.source.to_value(),
                Value::Int(job as i64),
                Value::text(kind),
                Value::Timestamp(at),
                cpu_secs.map_or(Value::Null, Value::Int),
            ],
            at,
        )?;
        Ok(())
    }

    /// Upserts this machine's current activity state.
    fn set_state(
        &self,
        txn: &WriteTxn,
        schema: &GridSchema,
        state: &str,
        at: Timestamp,
    ) -> Result<()> {
        let me = self.source.to_value();
        let mine = txn
            .index_probe_in_slots(schema.activity, 0, std::slice::from_ref(&me))?
            .unwrap_or_default();
        let new_row = vec![me, Value::text(state), Value::Timestamp(at)];
        match mine.into_iter().next() {
            Some((slot, _)) => {
                txn.update(schema.activity, slot, new_row)?;
            }
            None => {
                txn.insert(schema.activity, new_row)?;
            }
        }
        txn.heartbeat(&self.source, at)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trac_storage::heartbeat;

    fn setup() -> (Database, GridSchema, MachineLog, Sniffer) {
        let db = Database::new();
        let machines = vec![SourceId::new("m1"), SourceId::new("m2")];
        let schema = GridSchema::install(&db, &machines, Timestamp::from_secs(0)).unwrap();
        let log = MachineLog::new();
        let sniffer = Sniffer::new(SourceId::new("m1"), TsDuration::from_secs(10));
        (db, schema, log, sniffer)
    }

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn lag_hides_recent_records() {
        let (db, schema, mut log, sniffer) = setup();
        log.append(t(100), GridEvent::JobSubmitted { job: 1 });
        log.append(t(105), GridEvent::StateChanged { state: "busy" });
        // now = 108: horizon 98 — nothing old enough.
        assert_eq!(sniffer.pump(&db, &schema, &mut log, t(108)).unwrap(), 0);
        // now = 112: horizon 102 — only the submission ships.
        assert_eq!(sniffer.pump(&db, &schema, &mut log, t(112)).unwrap(), 1);
        let txn = db.begin_read();
        assert_eq!(txn.row_count(schema.sched).unwrap(), 1);
        assert_eq!(txn.row_count(schema.activity).unwrap(), 0);
        assert_eq!(
            heartbeat::recency_of(&txn, &sniffer.source).unwrap(),
            Some(t(100))
        );
        // now = 120: everything ships; heartbeat advances.
        assert_eq!(sniffer.pump(&db, &schema, &mut log, t(120)).unwrap(), 1);
        let txn = db.begin_read();
        assert_eq!(txn.row_count(schema.activity).unwrap(), 1);
        assert_eq!(
            heartbeat::recency_of(&txn, &sniffer.source).unwrap(),
            Some(t(105))
        );
    }

    #[test]
    fn job_lifecycle_maintains_s_and_r_tables() {
        let (db, schema, mut log, sniffer) = setup();
        let m2 = SourceId::new("m2");
        log.append(t(10), GridEvent::JobSubmitted { job: 7 });
        log.append(
            t(11),
            GridEvent::JobRouted {
                job: 7,
                target: m2.clone(),
            },
        );
        sniffer.pump(&db, &schema, &mut log, t(100)).unwrap();
        let txn = db.begin_read();
        let rows = txn.scan(schema.sched).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][2], Value::text("m2")); // remote filled in
                                                   // m2's side: start then complete.
        let mut log2 = MachineLog::new();
        let sniffer2 = Sniffer::new(m2, TsDuration::from_secs(0));
        log2.append(t(20), GridEvent::JobStarted { job: 7 });
        sniffer2.pump(&db, &schema, &mut log2, t(20)).unwrap();
        let txn = db.begin_read();
        assert_eq!(txn.row_count(schema.running).unwrap(), 1);
        let act = txn.scan(schema.activity).unwrap();
        assert_eq!(act.len(), 1);
        assert_eq!(act[0][1], Value::text("busy"));
        log2.append(
            t(30),
            GridEvent::JobCompleted {
                job: 7,
                cpu_secs: 10,
            },
        );
        sniffer2.pump(&db, &schema, &mut log2, t(30)).unwrap();
        let txn = db.begin_read();
        assert_eq!(txn.row_count(schema.running).unwrap(), 0);
        let act = txn.scan(schema.activity).unwrap();
        assert_eq!(act[0][1], Value::text("idle"));
        // Full history in job_events.
        assert_eq!(txn.row_count(schema.job_events).unwrap(), 4);
    }

    #[test]
    fn activity_upsert_keeps_one_row_per_machine() {
        let (db, schema, mut log, sniffer) = setup();
        for (s, state) in [(1, "busy"), (2, "idle"), (3, "busy")] {
            log.append(t(s), GridEvent::StateChanged { state });
        }
        sniffer.pump(&db, &schema, &mut log, t(100)).unwrap();
        let txn = db.begin_read();
        let rows = txn.scan(schema.activity).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::text("busy"));
        assert_eq!(rows[0][2], Value::Timestamp(t(3)));
    }

    #[test]
    fn heartbeat_only_records_advance_recency() {
        let (db, schema, mut log, sniffer) = setup();
        log.append(t(50), GridEvent::Heartbeat);
        sniffer.pump(&db, &schema, &mut log, t(100)).unwrap();
        let txn = db.begin_read();
        assert_eq!(
            heartbeat::recency_of(&txn, &sniffer.source).unwrap(),
            Some(t(50))
        );
        // No data rows were created.
        assert_eq!(txn.row_count(schema.activity).unwrap(), 0);
        assert_eq!(txn.row_count(schema.job_events).unwrap(), 0);
    }

    #[test]
    fn neighbor_records_land_in_routing() {
        let (db, schema, mut log, sniffer) = setup();
        log.append(
            t(5),
            GridEvent::NeighborAdded {
                neighbor: SourceId::new("m2"),
            },
        );
        sniffer.pump(&db, &schema, &mut log, t(100)).unwrap();
        let txn = db.begin_read();
        let rows = txn.scan(schema.routing).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::text("m1"));
        assert_eq!(rows[0][1], Value::text("m2"));
    }
}
