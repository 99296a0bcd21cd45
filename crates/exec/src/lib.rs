//! Query execution: one columnar engine over physical plans, DML.
//!
//! The paper's evaluation depends on the engine exploiting B-tree indexes
//! on data source columns: the Focused recency query probes only the few
//! relevant sources while a naive scan touches everything (Section 5.2).
//! Planning lives in `trac-plan` ([`trac_plan::plan_select`] lowers a
//! bound `SELECT` into a [`trac_plan::PhysicalPlan`]); this crate
//! interprets those plans through one engine:
//!
//! * **columnar engine** — each operator produces a
//!   [`trac_expr::ColumnarBatch`] and predicates, join keys and
//!   projections evaluate vectorized over whole batches; joins keep
//!   their inner side lazy so empty inputs never touch downstream
//!   tables (`batch` and the shared leaf, dedup and aggregate helpers
//!   in `operators`, both private). The differential suite checks it
//!   against an independent naive evaluator;
//! * **morsel-driven parallelism** — a route inside the engine, not an
//!   operator in the plan: when [`ExecOptions::threads`] > 1 and the
//!   relational root is a FROM-order filter/join chain over a `Scan` or
//!   `IndexLookup`, a scoped-thread worker pool runs the serial source
//!   tree over each morsel of the driving leaf and merges the results
//!   in morsel order, byte-identical to serial (`parallel`, private);
//! * **entry points** — parse/bind/plan/execute glue plus the
//!   [`PlanInfo`] plan summary ([`executor`]);
//! * **DML/DDL interpretation** for `INSERT`/`UPDATE`/`DELETE`/`CREATE`
//!   and `EXPLAIN` ([`dml`]);
//! * **interleaving exploration** — a deterministic schedule controller
//!   that serializes the worker pool onto explicit yield points and
//!   explores bounded interleavings, proving the determinism and
//!   cache-soundness claims dynamically ([`schedule`]).

#![warn(missing_docs)]

mod batch;
pub mod dml;
pub mod executor;
mod operators;
mod parallel;
pub mod result;
pub mod schedule;

pub use dml::{execute_statement, StatementResult};
pub use executor::{
    debug_validate_plan, execute_plan_with, execute_select, execute_select_with, execute_sql,
    execute_sql_with, explain_select, install_explain_annotator, install_plan_check,
    render_explain, ExplainAnnotator, PlanCheck, PlanInfo,
};
pub use result::QueryResult;
// Re-exported so downstream crates keep a single import path for the
// execution-tuning types that moved into `trac-plan`.
pub use trac_plan::{AccessPath, ExecOptions};
