//! TRAC: query-centric recency and consistency reporting.
//!
//! This crate is the paper's primary contribution. Given a user query
//! over a database fed by asynchronous distributed data sources, it
//!
//! 1. determines which sources are **relevant** — could change the
//!    query's answer with a single update (Definitions 1 & 2, Theorem 1);
//! 2. generates and runs a **recency query** over the `Heartbeat` table
//!    (Theorems 3 & 4, Corollaries 1–6), minimal except in the paper's
//!    two extreme cases (mixed predicates, unsatisfiable predicates),
//!    always a sound upper bound;
//! 3. reports **recency and consistency** statistics — least/most recent
//!    relevant source, the bound of inconsistency, and z-score-based
//!    "exceptional" source detection (Section 4.3) — transactionally
//!    consistent with the user query result (same MVCC snapshot);
//! 4. puts the detail in session temp tables named like the prototype's
//!    `sys_temp_a…`/`sys_temp_e…` tables (Section 5.1), materialized when
//!    a statement first names them.
//!
//! Entry point: [`Session::recency_report`]. The [`oracle`] module holds
//! the brute-force ground-truth computation used by the evaluation's
//! false-positive-rate metric, and [`metrics`] the fpr/overhead formulas
//! of Section 5.2.

#![warn(missing_docs)]

pub mod maintained;
pub mod metrics;
pub mod oracle;
pub mod relevance;
pub mod report;
pub mod session;
#[cfg(test)]
pub(crate) mod testutil;
pub mod zscore;

pub use maintained::{MaintainedReport, ServeKind};
pub use metrics::{false_positive_rate, overhead};
pub use relevance::{Guarantee, RecencyPlan, RecencySubquery, RelevanceConfig};
pub use report::{MemberPair, MemberPairs, RecencyReport, ReportConfig, StalenessSummary};
pub use session::{
    MaintenanceStats, Method, PlanCacheStats, ReportOutput, Session, StatementStats,
};
pub use zscore::{mean, population_std_dev, z_scores};
