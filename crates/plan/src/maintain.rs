//! Maintenance licenses for delta-folded recency subqueries.
//!
//! A prepared recency plan can keep a **maintained report**: instead of
//! re-executing every generated subquery per report, the session folds
//! the storage layer's typed change stream into per-subquery member
//! sets. That fold is only sound when the subquery's membership is
//! *monotone and locally decidable* under the events the stream
//! publishes — a heartbeat upsert or a row insert may only ever **add**
//! members, and whether it does must be decidable from the event payload
//! plus O(1)-per-source state (never from rows the event doesn't carry).
//!
//! [`classify_maintenance`] derives the strongest license the subquery
//! shape supports. The result is a *claim*: the `trac-analyze`
//! maintenance pass (TRAC029) re-derives every license independently
//! from the bound query and errors on disagreement, and non-foldable
//! shapes are still served correctly — their license is
//! [`MaintenanceLicense::RescanOnly`], which forces a rescan whenever a
//! relevant event arrives instead of folding it.
//!
//! The licenses name three shapes of the generated query, which the
//! fold evaluates without running its plan:
//!
//! * **heartbeat-only** — `FROM heartbeat H WHERE P_s'`: membership is a
//!   predicate on `H.sid` alone, so a heartbeat upsert for a new source
//!   decides membership by evaluating `P_s'` on the event payload.
//! * **sid-equality** — `FROM H, R WHERE H.sid = R.w ∧ P_o`: an insert
//!   into `R` passing `P_o` nominates its witness value as a member; a
//!   heartbeat for a brand-new source probes `R` once.
//! * **existence** — `FROM H, R WHERE P_s' ∧ P_o` with no join terms:
//!   membership is `P_s'` gated on `∃ r ∈ R. P_o(r)`; an insert can only
//!   flip the gate from closed to open.
//!
//! Deletes and raw heartbeat DML are never folded — every license treats
//! them as rescan triggers, because removal is not monotone.

use trac_expr::{eval_predicate, BoundExpr, BoundSelect, ColRef, Truth};
use trac_sql::BinaryOp;

/// How a prepared recency subquery participates in delta maintenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceLicense {
    /// The subquery was proven empty at plan time (unsatisfiable
    /// selection over column domains) — domain facts, not data facts —
    /// so no data change can ever make it non-empty. The fold ignores
    /// it entirely.
    ProvenEmpty,
    /// `FROM heartbeat H WHERE P_s'` with `P_s'` over `H.sid` only:
    /// membership of a source is decided by evaluating `P_s'` on the
    /// source id carried by the heartbeat-upsert event.
    HeartbeatOnly,
    /// Two-relation shape whose every join term is
    /// `H.sid = <witness column>`: inserts into the witness relation
    /// nominate members, heartbeats for new sources probe it.
    SidEquality {
        /// Binding name of the witness relation (display only).
        witness: String,
    },
    /// Two-relation shape with no join terms: the other relation only
    /// gates existence. Inserts can open the gate, never close it.
    ExistenceProbe {
        /// Binding name of the gating relation (display only).
        witness: String,
    },
    /// Membership is not monotone or not locally decidable under the
    /// change stream; any relevant event forces a rescan of this plan.
    RescanOnly {
        /// Human-readable side condition that failed.
        reason: String,
    },
}

impl MaintenanceLicense {
    /// True when events can be folded into maintained state (as opposed
    /// to merely invalidating it).
    pub fn delta_foldable(&self) -> bool {
        !matches!(self, MaintenanceLicense::RescanOnly { .. })
    }

    /// Stable short tag used by diagnostics and JSON output.
    pub fn kind(&self) -> &'static str {
        match self {
            MaintenanceLicense::ProvenEmpty => "proven-empty",
            MaintenanceLicense::HeartbeatOnly => "heartbeat-only",
            MaintenanceLicense::SidEquality { .. } => "sid-equality",
            MaintenanceLicense::ExistenceProbe { .. } => "existence",
            MaintenanceLicense::RescanOnly { .. } => "rescan-only",
        }
    }

    /// EXPLAIN-style marker appended to the subquery line.
    pub fn marker(&self) -> String {
        match self {
            MaintenanceLicense::ProvenEmpty => "maintain: delta-fold (proven empty)".into(),
            MaintenanceLicense::HeartbeatOnly => "maintain: delta-fold (heartbeat-only)".into(),
            MaintenanceLicense::SidEquality { witness } => {
                format!("maintain: delta-fold (sid-equality via {witness})")
            }
            MaintenanceLicense::ExistenceProbe { witness } => {
                format!("maintain: delta-fold (existence via {witness})")
            }
            MaintenanceLicense::RescanOnly { reason } => format!("maintain: rescan — {reason}"),
        }
    }
}

fn rescan(reason: impl Into<String>) -> MaintenanceLicense {
    MaintenanceLicense::RescanOnly {
        reason: reason.into(),
    }
}

/// Derives the strongest maintenance license for one generated recency
/// subquery (table 0 is `Heartbeat`; membership is the set of `H.sid`
/// values the query returns).
///
/// Every accepting arm encodes a side condition of the fold's
/// correctness argument; anything unrecognized falls through to
/// [`MaintenanceLicense::RescanOnly`], which is always sound.
pub fn classify_maintenance(q: &BoundSelect) -> MaintenanceLicense {
    let sid = ColRef {
        table: 0,
        column: 0,
    };
    let mut conjuncts = Vec::new();
    if let Some(p) = &q.predicate {
        crate::split_and(p, &mut conjuncts);
    }
    let mut h_terms: Vec<&BoundExpr> = Vec::new();
    let mut cross_terms: Vec<&BoundExpr> = Vec::new();
    for t in conjuncts {
        let tables = t.tables();
        if tables.is_empty() {
            // A constant term is data-independent: FALSE/NULL empties
            // the result forever, TRUE restricts nothing.
            match eval_predicate(t, &[]) {
                Ok(Truth::True) => {}
                Ok(_) => return MaintenanceLicense::ProvenEmpty,
                Err(_) => return rescan("constant term does not evaluate"),
            }
        } else if !tables.contains(&0) {
            // P_o: evaluated against witness rows; no side condition
            // beyond not referencing H (guaranteed by the split).
        } else if tables.len() == 1 {
            // P_s' must read only H.sid. A predicate over H.recency is
            // not monotone under heartbeat upserts (advancing a
            // timestamp can evict a member), so it voids the fold.
            if t.references().iter().any(|c| *c != sid) {
                return rescan("heartbeat term reads a non-sid column");
            }
            h_terms.push(t);
        } else {
            // Join term between H and another relation.
            if t.references().iter().any(|c| c.table == 0 && *c != sid) {
                return rescan("join term reads a non-sid heartbeat column");
            }
            cross_terms.push(t);
        }
    }
    if q.tables.len() == 1 {
        return MaintenanceLicense::HeartbeatOnly;
    }
    if q.tables.len() > 2 {
        // Folding an insert into one of several witness relations would
        // require joining it against the others' rows — not locally
        // decidable from the event.
        return rescan("witness side spans multiple relations");
    }
    let witness = q.tables[1].binding.clone();
    if cross_terms.is_empty() {
        return MaintenanceLicense::ExistenceProbe { witness };
    }
    // Every join term must be `H.sid = <witness column>` (either
    // orientation) for an inserted witness row to nominate exactly one
    // candidate source id.
    for t in cross_terms {
        let BoundExpr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } = t
        else {
            return rescan("non-equality join shape");
        };
        let ok = matches!(
            (lhs.as_ref(), rhs.as_ref()),
            (BoundExpr::Column(a), BoundExpr::Column(b))
                if (*a == sid && b.table == 1) || (*b == sid && a.table == 1)
        );
        if !ok {
            return rescan("join term is not H.sid = witness column");
        }
    }
    MaintenanceLicense::SidEquality { witness }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trac_expr::{BoundTable, Projection};
    use trac_storage::{ColumnDef, TableId, TableSchema};
    use trac_types::DataType;

    fn hb_table() -> BoundTable {
        BoundTable {
            id: TableId(0),
            schema: TableSchema::new(
                "heartbeat",
                vec![
                    ColumnDef::new("sid", DataType::Text),
                    ColumnDef::new("recency", DataType::Timestamp),
                ],
                Some("sid"),
            )
            .unwrap()
            .into(),
            binding: "H".into(),
        }
    }

    fn other_table(name: &str, binding: &str) -> BoundTable {
        BoundTable {
            id: TableId(1),
            schema: TableSchema::new(
                name,
                vec![
                    ColumnDef::new("mach_id", DataType::Text),
                    ColumnDef::new("value", DataType::Text),
                ],
                Some("mach_id"),
            )
            .unwrap()
            .into(),
            binding: binding.into(),
        }
    }

    fn subquery(tables: Vec<BoundTable>, predicate: Option<BoundExpr>) -> BoundSelect {
        BoundSelect {
            tables,
            predicate,
            projections: vec![Projection::Scalar {
                expr: BoundExpr::col(0, 0),
                name: "sid".into(),
            }],
            group_by: vec![],
            having: None,
            distinct: true,
            order_by: vec![],
            limit: None,
        }
    }

    #[test]
    fn h_only_queries_are_heartbeat_only() {
        let q = subquery(
            vec![hb_table()],
            Some(BoundExpr::binary(
                BinaryOp::Eq,
                BoundExpr::col(0, 0),
                BoundExpr::lit("m1"),
            )),
        );
        assert_eq!(classify_maintenance(&q), MaintenanceLicense::HeartbeatOnly);
        assert!(classify_maintenance(&q).delta_foldable());
    }

    #[test]
    fn recency_predicates_void_the_fold() {
        // H.recency participates in membership: advancing a timestamp
        // could evict a member, which the monotone fold cannot express.
        let q = subquery(
            vec![hb_table()],
            Some(BoundExpr::binary(
                BinaryOp::Lt,
                BoundExpr::col(0, 1),
                BoundExpr::lit("2006-01-01 00:00:00"),
            )),
        );
        let lic = classify_maintenance(&q);
        assert!(!lic.delta_foldable(), "{lic:?}");
        assert_eq!(lic.kind(), "rescan-only");
    }

    #[test]
    fn sid_equality_join_is_licensed_both_orientations() {
        for (l, r) in [((0, 0), (1, 1)), ((1, 1), (0, 0))] {
            let q = subquery(
                vec![hb_table(), other_table("routing", "R")],
                Some(BoundExpr::binary(
                    BinaryOp::Eq,
                    BoundExpr::col(l.0, l.1),
                    BoundExpr::col(r.0, r.1),
                )),
            );
            assert_eq!(
                classify_maintenance(&q),
                MaintenanceLicense::SidEquality {
                    witness: "R".into()
                }
            );
        }
    }

    #[test]
    fn bare_existence_gate_is_licensed() {
        let q = subquery(
            vec![hb_table(), other_table("activity", "A")],
            Some(BoundExpr::binary(
                BinaryOp::Eq,
                BoundExpr::col(1, 1),
                BoundExpr::lit("idle"),
            )),
        );
        assert_eq!(
            classify_maintenance(&q),
            MaintenanceLicense::ExistenceProbe {
                witness: "A".into()
            }
        );
    }

    #[test]
    fn non_equality_joins_fall_back_to_rescan() {
        let q = subquery(
            vec![hb_table(), other_table("routing", "R")],
            Some(BoundExpr::binary(
                BinaryOp::Lt,
                BoundExpr::col(0, 0),
                BoundExpr::col(1, 0),
            )),
        );
        assert!(!classify_maintenance(&q).delta_foldable());
    }

    #[test]
    fn multi_witness_joins_fall_back_to_rescan() {
        let mut extra = other_table("activity", "A");
        extra.id = TableId(2);
        let q = subquery(
            vec![hb_table(), other_table("routing", "R"), extra],
            Some(BoundExpr::binary(
                BinaryOp::Eq,
                BoundExpr::col(0, 0),
                BoundExpr::col(1, 0),
            )),
        );
        let lic = classify_maintenance(&q);
        assert!(!lic.delta_foldable(), "{lic:?}");
    }

    #[test]
    fn false_constant_is_proven_empty() {
        let q = subquery(
            vec![hb_table()],
            Some(BoundExpr::binary(
                BinaryOp::Eq,
                BoundExpr::lit(1i64),
                BoundExpr::lit(2i64),
            )),
        );
        assert_eq!(classify_maintenance(&q), MaintenanceLicense::ProvenEmpty);
    }

    #[test]
    fn markers_are_stable() {
        assert_eq!(
            MaintenanceLicense::HeartbeatOnly.marker(),
            "maintain: delta-fold (heartbeat-only)"
        );
        assert_eq!(
            MaintenanceLicense::SidEquality {
                witness: "R".into()
            }
            .marker(),
            "maintain: delta-fold (sid-equality via R)"
        );
        assert!(MaintenanceLicense::RescanOnly { reason: "x".into() }
            .marker()
            .contains("rescan"));
    }
}
