//! Physical query plans.
//!
//! This crate is the shared middle layer between binding
//! (`trac-expr`) and execution (`trac-exec`): [`plan_select`] lowers a
//! [`trac_expr::BoundSelect`] into a typed operator tree
//! ([`PlanNode`]) that the streaming executor interprets, EXPLAIN
//! renders, and the static analyzer inspects structurally.
//!
//! The IR deliberately mirrors the classic Volcano-style physical
//! algebra:
//!
//! * **Leaves** — [`PlanNode::Scan`] and [`PlanNode::IndexLookup`]
//!   read one table through an [`AccessPath`];
//! * **Joins** — [`PlanNode::NLJoin`], [`PlanNode::HashJoin`] and
//!   [`PlanNode::IndexNLJoin`] combine an outer subtree with one inner
//!   table, left-deep in FROM order;
//! * **Shapers** — [`PlanNode::Filter`], [`PlanNode::Sort`],
//!   [`PlanNode::Project`], [`PlanNode::Distinct`],
//!   [`PlanNode::Limit`] and [`PlanNode::Aggregate`] post-process the
//!   joined tuple stream into the final result;
//! * **Fast paths** — [`PlanNode::CountStar`],
//!   [`PlanNode::IndexMinMax`] and [`PlanNode::TopNIndex`] answer
//!   narrow single-table query shapes straight from the storage layer;
//!   each carries side conditions the analyzer re-derives and
//!   certifies.
//!
//! Plans carry per-operator estimated row counts and costs, computed by
//! the catalog-statistics cost model (`cost` module). Estimates drive
//! access-path choice, the optional cost-based join order and EXPLAIN
//! annotations — they never influence correctness: however wrong the
//! statistics are, every plan the lowering can emit computes the same
//! result.
//!
//! Parallelism is not part of the IR: a plan is the same at every
//! [`ExecOptions::threads`] and [`ExecOptions::batch_size`], and the
//! executor decides at run time whether to drive it through its
//! morsel-parallel route.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod access;
mod cost;
mod ir;
mod lower;
pub mod maintain;

pub use access::{
    choose_access_path, probe_candidate, AccessPath, ExecOptions, DEFAULT_BATCH_SIZE,
};
pub use ir::{PhysicalPlan, PlanNode};
pub use lower::{equi_key, plan_select, split_and};
pub use maintain::{classify_maintenance, MaintenanceLicense};
pub use trac_expr::{KernelCert, LaneCert};
