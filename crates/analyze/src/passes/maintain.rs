//! Maintenance certification: delta-closure proofs for maintained
//! reports (`TRAC028`–`TRAC030`).
//!
//! A prepared recency plan may serve repeated reports by **folding the
//! typed change stream** into per-subquery member sets instead of
//! re-executing every generated subquery. That optimization rests on two
//! independent claims this pass re-proves:
//!
//! * **`TRAC028` stream coverage** — every committed mutation path of
//!   `crates/storage` must publish its typed change event
//!   ([`trac_storage::changelog::audit`]). A silent write path would let
//!   a delta-maintained report diverge from a rescan without any fold
//!   ever observing the change.
//! * **`TRAC029` license re-derivation** — every
//!   [`trac_plan::MaintenanceLicense`] the planner attached to a
//!   generated recency subquery is re-derived here, independently, from
//!   the bound subquery via [`trac_plan::classify_maintenance`]; any
//!   disagreement is an error. The license is what makes the fold sound
//!   (membership monotone and locally decidable from the event payload),
//!   so a wrong claim is an unsound report, not a missed optimization.
//! * **`TRAC030` forced-rescan fallback** — subqueries whose strongest
//!   license is [`trac_plan::MaintenanceLicense::RescanOnly`] are
//!   recorded as notes: repeated reports re-run them whenever a relevant
//!   event arrives, which is always sound.
//!
//! Like every pass, the fine-grained check functions take the claimed
//! artifact as an argument so tests can seed one violation and assert
//! the exact diagnostic; [`run`] and [`audit_stream_coverage`] recompute
//! the claims from the production code paths.

use crate::diag::{Diagnostic, MAINTENANCE_UNSOUND, RESCAN_LICENSED, STREAM_COVERAGE};
use trac_core::RecencyPlan;
use trac_plan::MaintenanceLicense;
use trac_storage::changelog::{self, StreamObservation};
use trac_types::Result;

/// Checks the claimed change-stream coverage observations (`TRAC028`):
/// each audited mutation path must have published exactly the event
/// sequence maintained consumers rely on.
pub fn check_stream_observations(observations: &[StreamObservation]) -> Vec<Diagnostic> {
    observations
        .iter()
        .filter(|o| o.violates_coverage())
        .map(|o| {
            Diagnostic::new(
                STREAM_COVERAGE,
                "crates/storage change-stream audit",
                format!(
                    "mutation path `{}` published {:?} but maintained reports rely on {:?}; \
                     a delta fold over the stream would miss this write and serve a report a \
                     rescan would not produce",
                    o.name, o.published, o.expected
                ),
            )
        })
        .collect()
}

/// Checks one claimed maintenance license against the independently
/// re-derived one (`TRAC029`). `what` names the subquery for the
/// message (e.g. `disjunct 0 via R`).
pub fn check_claim(
    claimed: &MaintenanceLicense,
    derived: &MaintenanceLicense,
    context: &str,
    what: &str,
) -> Option<Diagnostic> {
    if claimed == derived {
        return None;
    }
    Some(Diagnostic::new(
        MAINTENANCE_UNSOUND,
        context,
        format!(
            "{what} claims maintenance license `{}` but the analyzer derives `{}` from the \
             bound subquery; folding the change stream under the claimed license could serve \
             a report a rescan would not produce",
            claimed.marker(),
            derived.marker()
        ),
    ))
}

/// Re-derives the maintenance license of every generated recency
/// subquery in `plan` and diffs it against the claim (`TRAC029`),
/// recording a note for each rescan-licensed subquery (`TRAC030`).
pub fn run(plan: &RecencyPlan, name: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for sub in &plan.subqueries {
        let derived = match &sub.query {
            // An empty subquery was pruned at plan time; nothing to
            // fold, so its license must be the proven-empty one.
            None => MaintenanceLicense::ProvenEmpty,
            Some(q) => trac_plan::classify_maintenance(q),
        };
        let what = format!("disjunct {} via {}", sub.disjunct, sub.via_relation);
        out.extend(check_claim(&sub.maintenance, &derived, name, &what));
        if let MaintenanceLicense::RescanOnly { reason } = &sub.maintenance {
            let mut d = Diagnostic::new(
                RESCAN_LICENSED,
                name,
                format!(
                    "{what} is licensed rescan-only ({reason}); repeated reports re-run this \
                     subquery on any relevant change event instead of folding deltas"
                ),
            );
            d.source = sub.sql().to_string();
            out.push(d);
        }
    }
    out
}

/// Crate audit: exercises every mutation entry point of `crates/storage`
/// against scratch databases and checks that each published exactly the
/// typed change events maintained reports fold (`TRAC028`).
pub fn audit_stream_coverage() -> Result<Vec<Diagnostic>> {
    Ok(check_stream_observations(&changelog::audit()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trac_core::RelevanceConfig;
    use trac_expr::bind_select;
    use trac_workload::load_paper_tables;

    fn paper_plan(sql: &str) -> RecencyPlan {
        let tables = load_paper_tables().unwrap();
        let txn = tables.db.begin_read();
        let stmt = trac_sql::parse_select(sql).unwrap();
        let q = bind_select(&txn, &stmt).unwrap();
        RecencyPlan::build(&txn, &q, RelevanceConfig::default()).unwrap()
    }

    #[test]
    fn clean_stream_observations_yield_no_diagnostics() {
        let obs = StreamObservation {
            name: "user-table insert",
            expected: &["row-insert"],
            published: vec!["row-insert"],
        };
        assert!(check_stream_observations(&[obs]).is_empty());
    }

    #[test]
    fn a_silent_write_path_is_a_stream_coverage_error() {
        let obs = StreamObservation {
            name: "user-table insert",
            expected: &["row-insert"],
            published: vec![],
        };
        let diags = check_stream_observations(&[obs]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.id, "TRAC028");
        assert!(diags[0].is_error());
        assert!(diags[0].message.contains("user-table insert"));
    }

    #[test]
    fn the_production_stream_audit_is_clean() {
        assert!(audit_stream_coverage().unwrap().is_empty());
    }

    #[test]
    fn agreeing_claims_pass_and_planned_sample_claims_re_derive() {
        let plan = paper_plan(
            "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'",
        );
        assert!(!plan.subqueries.is_empty());
        let diags = run(&plan, "paper/Q1");
        assert!(
            diags.iter().all(|d| !d.is_error()),
            "sample plan claims must re-derive: {diags:?}"
        );
    }

    #[test]
    fn a_forged_foldable_claim_is_a_maintenance_error() {
        let claimed = MaintenanceLicense::HeartbeatOnly;
        let derived = MaintenanceLicense::RescanOnly {
            reason: "heartbeat term reads a non-sid column".into(),
        };
        let d = check_claim(&claimed, &derived, "Q1", "disjunct 0 via A").unwrap();
        assert_eq!(d.code.id, "TRAC029");
        assert!(d.is_error());
        assert!(d.message.contains("disjunct 0 via A"));
    }

    #[test]
    fn rescan_licensed_subqueries_are_noted_not_errors() {
        let mut plan = paper_plan("SELECT mach_id FROM Activity WHERE value = 'idle'");
        let sub = &mut plan.subqueries[0];
        sub.maintenance = MaintenanceLicense::RescanOnly {
            reason: "seeded for test".into(),
        };
        // Forge the claim *and* the query shape check by only asserting
        // on the TRAC030 note: the seeded claim also trips TRAC029.
        let diags = run(&plan, "seeded");
        let note = diags
            .iter()
            .find(|d| d.code.id == "TRAC030")
            .expect("rescan license must be noted");
        assert!(!note.is_error());
        assert!(note.message.contains("seeded for test"));
    }
}
