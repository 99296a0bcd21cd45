//! Embedded MVCC storage engine.
//!
//! The paper's prototype runs inside PostgreSQL and leans on two of its
//! properties: every statement sees a **consistent snapshot** (so the user
//! query and the generated recency query observe the same database state),
//! and **B-tree indexes** on data source columns make recency queries
//! cheap. This crate reproduces that substrate natively:
//!
//! * [`schema`] — table schemas with a designated *data source column*
//!   and per-column [`trac_types::ColumnDomain`]s (Section 3.3).
//! * [`txn`] — transaction ids, statuses and snapshots (a simplified
//!   PostgreSQL-style MVCC visibility model).
//! * [`table`] — versioned heap tables.
//! * [`index`] — ordered secondary indexes (equality and range probes).
//! * [`catalog`] — table/index name resolution, session temp tables.
//! * [`heartbeat`] — the system `Heartbeat(sid, recency)` table and the
//!   ingestion discipline that keeps it monotone (Section 3.1).
//! * [`changelog`] — the typed, sequenced change stream maintained
//!   reports fold (the database's freshness witness), with its coverage
//!   audit (diagnostic `TRAC028`).
//! * [`lockorder`] — the declared lock-acquisition order and the
//!   instrumented acquisition graph (diagnostic `TRAC020`).
//! * [`db`] — the [`Database`] facade tying it all together.

#![warn(missing_docs)]

pub mod catalog;
pub mod changelog;
pub mod db;
pub mod heartbeat;
pub mod index;
pub mod lockorder;
pub mod persist;
pub mod schema;
pub mod table;
pub mod txn;

pub use catalog::{Catalog, ColumnStats, IndexMeta, NdvSketch, TableId, TableStats};
pub use changelog::{
    set_publish_yield_hook, ChangeData, ChangeEvent, ChangeLog, RescanRequired, StreamObservation,
    DEFAULT_CHANGELOG_CAPACITY,
};
pub use db::{Database, IndexCensus, ReadTxn, TableCensus, VacuumStats, WriteTxn};
pub use heartbeat::{HEARTBEAT_RECENCY_COL, HEARTBEAT_SID_COL, HEARTBEAT_TABLE};
pub use lockorder::{LockId, LockToken};
pub use persist::{load_snapshot, save_snapshot};
pub use schema::{ColumnDef, TableSchema};
pub use table::{Row, RowSlot, Table};
pub use txn::{Snapshot, SnapshotBasis, TxnId, TxnManager, TxnStatus};
