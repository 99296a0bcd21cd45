//! Relevant-source analysis and recency-query generation (Section 4).
//!
//! The pipeline implements the paper's Theorems 3 & 4 and Corollaries 1–6:
//!
//! 1. convert the user predicate to DNF (Corollary 1 unions the per-
//!    disjunct results) — with a blow-up budget whose violation falls
//!    back to the sound "all sources" upper bound;
//! 2. for each (disjunct, referenced relation `R_i`) pair, classify basic
//!    terms into `P_s/P_r/P_m/J_s/J_rm/P_o` (Notations 4 & 6);
//! 3. if the selection predicates on `R_i` are unsatisfiable over its
//!    column domains, `S(Q, R_i) = ∅` (Corollaries 2 & 6 specialized per
//!    relation) — no query needed;
//! 4. otherwise generate the recency subquery
//!    `SELECT DISTINCT H.sid FROM Heartbeat H, R_1, …, R_{i-1}, R_{i+1}, …, R_n
//!     WHERE P_s' AND J_s' AND P_o`
//!    (the substitution `R_i.c_s → H.sid` of Notations 5 & 7), which is
//!    **minimal** when `P_m`/`J_rm` are absent and `P_r` is provably
//!    satisfiable (Theorems 3 & 4), and an **upper bound** otherwise
//!    (Corollaries 3 & 5);
//! 5. execute every subquery and union the source sets (Corollaries 1 & 4).

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};
use trac_expr::{
    classify_conjunct, conjunct_satisfiable, to_dnf, unbind::UnbindCtx, unbind_expr, BoundExpr,
    BoundSelect, BoundTable, ColRef, Conjunct, Projection, Sat3,
};
use trac_sql::{SelectItem, SelectStmt, TableRef};
use trac_storage::{heartbeat, ReadTxn, HEARTBEAT_TABLE};
use trac_types::{ColumnDomain, Result, SourceId, TracError};

/// How strong the computed relevant-source set is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guarantee {
    /// `A(Q) = S(Q)`: exactly the relevant sources.
    Minimum,
    /// `A(Q) ⊇ S(Q)`: sound but possibly imprecise.
    UpperBound,
}

impl fmt::Display for Guarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Guarantee::Minimum => "minimum",
            Guarantee::UpperBound => "upper bound",
        })
    }
}

/// Status of one generated recency subquery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubqueryStatus {
    /// Theorem 3/4 conditions hold: this subquery returns exactly
    /// `S(Q^d, R_i)`.
    Minimum,
    /// Corollary 3/5: an upper bound (mixed predicates, `J_rm`, or
    /// undecided `P_r` satisfiability).
    UpperBound,
    /// Proven empty (unsatisfiable selection predicates on `R_i`); the
    /// subquery is not executed.
    Empty,
}

/// Tunables for the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelevanceConfig {
    /// DNF term budget before falling back to the all-sources bound.
    pub dnf_budget: usize,
}

impl Default for RelevanceConfig {
    fn default() -> RelevanceConfig {
        RelevanceConfig {
            dnf_budget: trac_expr::normalize::DEFAULT_DNF_BUDGET,
        }
    }
}

/// One generated recency subquery: `S(Q^disjunct, R_via)`.
#[derive(Debug, Clone)]
pub struct RecencySubquery {
    /// Which DNF disjunct (0-based) this subquery came from.
    pub disjunct: usize,
    /// The binding name of the relation `R_i` it covers.
    pub via_relation: String,
    /// Minimality status.
    pub status: SubqueryStatus,
    /// The executable query (absent when `status == Empty`).
    pub query: Option<BoundSelect>,
    /// Physical plan lowered from `query` once, at build time (absent
    /// when `status == Empty`). The static analyzer certifies it, and
    /// [`RecencyPlan::execute_with`] runs it as stored. Only its plan
    /// choices can go stale: an index is never dropped, and a dropped
    /// table breaks the bound `query` just as it breaks the plan.
    pub plan: Option<trac_plan::PhysicalPlan>,
    /// Printable SQL for the generated query, rendered on first read
    /// (see [`Self::sql`]); set at build for pruned subqueries.
    sql: OnceLock<String>,
    /// True when `status == Minimum` was obtained through the refinement
    /// pass (the `P_m`/`J_rm` terms were proved vacuous under the
    /// residual column domains) rather than through the structural
    /// Theorem 3/4 conditions. The analyzer re-derives and certifies
    /// refined claims independently (TRAC014/TRAC015).
    pub refined: bool,
    /// How this subquery participates in delta maintenance of a
    /// prepared report (claimed at build time from the generated query
    /// shape; the analyzer re-derives and certifies it — TRAC029).
    pub maintenance: trac_plan::MaintenanceLicense,
}

/// A compiled recency plan for one user query.
///
/// Building the plan performs all parsing-adjacent work (DNF conversion,
/// classification, satisfiability checks, query generation); executing it
/// only runs the generated queries. The paper's *Focused (hardcoded)*
/// variant corresponds to reusing a prebuilt plan.
#[derive(Debug, Clone)]
pub struct RecencyPlan {
    /// Generated subqueries, one per (disjunct, relation).
    pub subqueries: Vec<RecencySubquery>,
    /// True when the analysis gave up (inexact DNF) and every source must
    /// be reported.
    pub all_sources: bool,
    /// Overall guarantee (minimum iff every part is minimum/empty and the
    /// DNF was exact).
    pub guarantee: Guarantee,
}

impl RecencySubquery {
    /// Printable SQL for the generated query (`"-- empty: …"` when
    /// pruned), rendered from `query` the first time it is read.
    pub fn sql(&self) -> &str {
        self.sql.get_or_init(|| match &self.query {
            Some(q) => render_sql(q).unwrap_or_else(|e| format!("-- unrenderable: {e}")),
            None => "-- empty".into(),
        })
    }
}

impl RecencyPlan {
    /// Analyzes `q` and generates its recency subqueries, lowering them
    /// under the default [`trac_plan::ExecOptions`].
    pub fn build(txn: &ReadTxn, q: &BoundSelect, config: RelevanceConfig) -> Result<RecencyPlan> {
        RecencyPlan::build_with(txn, q, config, trac_plan::ExecOptions::default())
    }

    /// Like [`RecencyPlan::build`], but lowering every subquery under
    /// `opts` (with the cost-based join order forced on), so the stored
    /// plans are the ones a session executing under `opts` runs.
    pub fn build_with(
        txn: &ReadTxn,
        q: &BoundSelect,
        config: RelevanceConfig,
        opts: trac_plan::ExecOptions,
    ) -> Result<RecencyPlan> {
        let hb_id = txn.table_id(HEARTBEAT_TABLE)?;
        let hb_schema = Arc::new(txn.schema(hb_id)?);
        // Treat a missing predicate as a single empty conjunct: every
        // potential tuple satisfies it.
        let dnf = match &q.predicate {
            Some(p) => to_dnf(p, config.dnf_budget),
            None => trac_expr::Dnf {
                disjuncts: vec![vec![]],
                exact: true,
            },
        };
        if !dnf.exact {
            return Ok(RecencyPlan {
                subqueries: Vec::new(),
                all_sources: true,
                guarantee: Guarantee::UpperBound,
            });
        }
        let hb_binding = unique_binding("H", q);
        let mut subqueries = Vec::new();
        let mut minimal = true;
        for (d_idx, disjunct) in dnf.disjuncts.iter().enumerate() {
            for rel in 0..q.tables.len() {
                let mut sub =
                    build_subquery(q, disjunct, d_idx, rel, hb_id, &hb_schema, &hb_binding)?;
                // Lower the generated query to plan IR right here — no SQL
                // round-trip. The stored plan feeds analysis and every
                // execution.
                if let Some(query) = &sub.query {
                    // Generated subqueries opt into the cost-based join
                    // order: their output is consumed as a *set* of
                    // source ids (execution unions them into a BTreeSet),
                    // so the row-order pin that keeps user queries in
                    // FROM order does not apply, and the statistics can
                    // start the join from the smallest filtered table.
                    let plan = trac_plan::plan_select(
                        txn,
                        query,
                        trac_plan::ExecOptions {
                            cost_based_join_order: true,
                            ..opts
                        },
                    )?;
                    trac_exec::debug_validate_plan(query, &plan);
                    sub.plan = Some(plan);
                }
                match sub.status {
                    SubqueryStatus::Minimum | SubqueryStatus::Empty => {}
                    SubqueryStatus::UpperBound => minimal = false,
                }
                subqueries.push(sub);
            }
        }
        Ok(RecencyPlan {
            subqueries,
            all_sources: false,
            guarantee: if minimal {
                Guarantee::Minimum
            } else {
                Guarantee::UpperBound
            },
        })
    }

    /// Runs the plan's subqueries in `txn`'s snapshot, returning the
    /// union of relevant source ids.
    ///
    /// Every subquery runs its stored, certified `plan`. A relation no
    /// join term ties to `H` runs under an early-exit `Exists`: it only
    /// has to hold one row that passes `P_o` (Theorem 4's semijoin).
    pub fn execute(&self, txn: &ReadTxn) -> Result<BTreeSet<SourceId>> {
        self.execute_with(txn, trac_exec::ExecOptions::default())
    }

    /// Like [`RecencyPlan::execute`], but running every stored plan
    /// with `opts`, which [`RecencyPlan::build_with`] lowered under the
    /// same options (up to `threads` and `batch_size`, which never shape
    /// a plan).
    pub fn execute_with(
        &self,
        txn: &ReadTxn,
        opts: trac_exec::ExecOptions,
    ) -> Result<BTreeSet<SourceId>> {
        if self.all_sources {
            return Ok(heartbeat::all_recencies(txn)?
                .into_iter()
                .map(|(s, _)| s)
                .collect());
        }
        let mut out = BTreeSet::new();
        for sub in &self.subqueries {
            if sub.query.is_none() {
                continue;
            }
            let plan = sub.plan.as_ref().ok_or_else(|| {
                TracError::Analysis("recency subquery carries no physical plan".into())
            })?;
            let rows = trac_exec::execute_plan_with(txn, plan, opts)?.rows;
            out.extend(rows.iter().filter_map(|r| SourceId::from_value(&r[0])));
        }
        Ok(out)
    }

    /// The generated SQL strings (for display, like the prototype's
    /// generated recency query).
    pub fn generated_sql(&self) -> Vec<String> {
        self.subqueries
            .iter()
            .map(|s| s.sql().to_string())
            .collect()
    }
}

/// Picks a heartbeat binding name not clashing with the query's bindings.
fn unique_binding(base: &str, q: &BoundSelect) -> String {
    let mut name = base.to_string();
    while q
        .tables
        .iter()
        .any(|t| t.binding.eq_ignore_ascii_case(&name))
    {
        name.push('_');
    }
    name
}

fn domain_of(tables: &[BoundTable], c: ColRef) -> ColumnDomain {
    tables[c.table].schema.columns[c.column].domain.clone()
}

fn build_subquery(
    q: &BoundSelect,
    disjunct: &Conjunct,
    d_idx: usize,
    rel: usize,
    hb_id: trac_storage::TableId,
    hb_schema: &Arc<trac_storage::TableSchema>,
    hb_binding: &str,
) -> Result<RecencySubquery> {
    let via_relation = q.tables[rel].binding.clone();
    if q.tables[rel].schema.source_column.is_none() {
        // A relation with no data source column contributes no sources.
        return Ok(RecencySubquery {
            disjunct: d_idx,
            via_relation,
            status: SubqueryStatus::Empty,
            query: None,
            plan: None,
            sql: OnceLock::from("-- empty: relation has no data source column".to_string()),
            refined: false,
            maintenance: trac_plan::MaintenanceLicense::ProvenEmpty,
        });
    }
    // Section 3.4's constraint-aware rewrite Q → Q': potential tuples of
    // R_i must be *legal* rows, so conjoin R_i's CHECK constraints into
    // the disjunct before classification. (Constraints of the other
    // relations are vacuous here — their existing rows already satisfy
    // them.) The constraint terms sharpen the satisfiability pruning; a
    // mixed-column constraint degrades the minimality label exactly as a
    // mixed user predicate would, which is the sound reading.
    // The disjunct is copied only when a constraint joins it.
    let mut terms = Cow::Borrowed(disjunct.as_slice());
    for check in &q.tables[rel].schema.checks {
        if let Some(bc) = check.as_any().downcast_ref::<trac_expr::BoundCheck>() {
            terms.to_mut().push(bc.expr().map_columns(&|c| ColRef {
                table: rel,
                column: c.column,
            }));
        }
    }
    let cls = classify_conjunct(&terms, &q.tables, rel);
    let dom = |c: ColRef| domain_of(&q.tables, c);
    // Corollary 2/6 specialization: if the selection predicates on R_i
    // admit no potential tuple, S(Q^d, R_i) = ∅.
    let selection: Vec<BoundExpr> = cls
        .ps
        .iter()
        .chain(&cls.pr)
        .chain(&cls.pm)
        .cloned()
        .collect();
    if conjunct_satisfiable(&selection, &dom) == Sat3::Unsat {
        return Ok(RecencySubquery {
            disjunct: d_idx,
            via_relation,
            status: SubqueryStatus::Empty,
            query: None,
            plan: None,
            sql: OnceLock::from("-- empty: selection predicates unsatisfiable".to_string()),
            refined: false,
            maintenance: trac_plan::MaintenanceLicense::ProvenEmpty,
        });
    }
    // Theorem 3/4 minimality conditions, with a refinement fallback: when
    // the structural conditions fail only because of mixed terms, try to
    // prove every `P_m`/`J_rm` term vacuous under the residual domains
    // implied by the mixed-free remainder of the conjunct. A vacuous
    // mixed term restricts nothing, so Theorem 3/4 minimality is restored
    // and the Corollary 3/5 upper bound upgrades to an exact minimum.
    let pr_sat = conjunct_satisfiable(&cls.pr, &dom);
    let mut refined = false;
    let status = if cls.structurally_minimal() && pr_sat == Sat3::Sat {
        SubqueryStatus::Minimum
    } else if pr_sat == Sat3::Sat && trac_expr::mixed_terms_vacuous(&cls, &dom) {
        refined = true;
        SubqueryStatus::Minimum
    } else {
        SubqueryStatus::UpperBound
    };
    // FROM list of the generated query: Heartbeat first, then every other
    // relation of Q in order. Map old table positions to new ones.
    let mut new_tables = vec![BoundTable {
        id: hb_id,
        schema: Arc::clone(hb_schema),
        binding: hb_binding.to_string(),
    }];
    let mut remap = vec![usize::MAX; q.tables.len()];
    for (j, bt) in q.tables.iter().enumerate() {
        if j != rel {
            remap[j] = new_tables.len();
            new_tables.push(bt.clone());
        }
    }
    let source_col = q.tables[rel].schema.source_column.expect("checked above");
    let map = |c: ColRef| -> ColRef {
        if c.table == rel {
            debug_assert_eq!(
                c.column, source_col,
                "P_s'/J_s' terms reference only R_i.c_s"
            );
            ColRef {
                table: 0,
                column: 0,
            }
        } else {
            ColRef {
                table: remap[c.table],
                column: c.column,
            }
        }
    };
    // Predicate: P_s' ∧ J_s' ∧ P_o (R_i.c_s substituted with H.sid).
    let terms: Vec<BoundExpr> = cls
        .ps
        .iter()
        .chain(&cls.js)
        .chain(&cls.po)
        .map(|t| t.map_columns(&map))
        .collect();
    let predicate = BoundExpr::conjoin(terms);
    let query = BoundSelect {
        tables: new_tables,
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
    };
    let maintenance = trac_plan::classify_maintenance(&query);
    Ok(RecencySubquery {
        disjunct: d_idx,
        via_relation,
        status,
        query: Some(query),
        plan: None,
        sql: OnceLock::new(),
        refined,
        maintenance,
    })
}

/// Renders a bound recency query back to SQL text.
fn render_sql(q: &BoundSelect) -> Result<String> {
    let tables: Vec<(&str, &trac_storage::TableSchema)> = q
        .tables
        .iter()
        .map(|t| (t.binding.as_str(), &*t.schema))
        .collect();
    let ctx = UnbindCtx { tables: &tables };
    let items = q
        .projections
        .iter()
        .map(|p| match p {
            Projection::Scalar { expr, name } => Ok(SelectItem::Expr {
                expr: unbind_expr(expr, &ctx),
                alias: Some(name.clone()),
            }),
            Projection::Aggregate { .. } => Err(TracError::Analysis(
                "recency queries have no aggregates".into(),
            )),
        })
        .collect::<Result<Vec<_>>>()?;
    let stmt = SelectStmt {
        distinct: q.distinct,
        items,
        from: q
            .tables
            .iter()
            .map(|t| TableRef {
                table: t.schema.name.clone(),
                alias: Some(t.binding.clone()),
            })
            .collect(),
        where_clause: q.predicate.as_ref().map(|p| unbind_expr(p, &ctx)),
        group_by: vec![],
        having: None,
        order_by: vec![],
        limit: None,
    };
    Ok(stmt.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{paper_db, plan_for};
    use trac_exec::execute_statement;
    use trac_expr::bind_select;
    use trac_sql::parse_select;

    fn names(s: &BTreeSet<SourceId>) -> Vec<&str> {
        s.iter().map(trac_types::SourceId::as_str).collect()
    }

    #[test]
    fn paper_q1_example_minimum() {
        // Section 4.1.1: relevant sources are exactly {m1, m2}.
        let db = paper_db();
        let (plan, sources) = plan_for(
            &db,
            "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'",
        );
        assert_eq!(plan.guarantee, Guarantee::Minimum);
        assert_eq!(names(&sources), vec!["m1", "m2"]);
        assert_eq!(plan.subqueries.len(), 1);
        assert!(
            plan.subqueries[0].sql().contains("H.sid IN ('m1', 'm2')"),
            "sql: {}",
            plan.subqueries[0].sql()
        );
    }

    #[test]
    fn paper_q2_example_semijoin() {
        // Section 4.1.2: S(Q2) = S(Q2,R) ∪ S(Q2,A) = {m1} ∪ {m3}.
        let db = paper_db();
        let (plan, sources) = plan_for(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        );
        assert_eq!(names(&sources), vec!["m1", "m3"]);
        // Via R: J_rm present ⇒ upper bound. Via A: Theorem 4 ⇒ minimum.
        let (via_r, via_a) = (via(&plan, "R"), via(&plan, "A"));
        assert_eq!(via_r.status, SubqueryStatus::UpperBound);
        assert_eq!(via_a.status, SubqueryStatus::Minimum);
        assert_eq!(plan.guarantee, Guarantee::UpperBound);
        // The via-A query semijoins Heartbeat with Routing.
        assert!(via_a.sql().contains("routing"), "sql: {}", via_a.sql());
        assert!(
            via_a.sql().contains("R.neighbor = H.sid"),
            "sql: {}",
            via_a.sql()
        );
        // In this instance the upper bound is in fact exact (the paper
        // notes the bound equals the minimum when domains align).
        // Via R no join term ties H to Activity: the stored plan starts
        // from an Exists over A, then reads H.
        let mut head = &via_r.plan.as_ref().unwrap().root;
        while !matches!(head, trac_plan::PlanNode::Exists { .. }) {
            head = head.children()[0];
        }
        let via_r_run = run_stored(&db.begin_read(), via_r);
        assert_eq!(
            via_r_run,
            (vec![vec!["A".to_string()]], vec!["m1".to_string()])
        );
    }

    /// The bindings under each `Exists` of `sub`'s stored plan, and the
    /// sources that plan returns.
    fn run_stored(txn: &ReadTxn, sub: &RecencySubquery) -> (Vec<Vec<String>>, Vec<String>) {
        let (query, stored) = (sub.query.as_ref().unwrap(), sub.plan.as_ref().unwrap());
        let binding =
            |n: &trac_plan::PlanNode| n.leaf_pos().map(|p| query.tables[p].binding.clone());
        let mut covered = Vec::new();
        stored.root.visit(&mut |node| {
            if let trac_plan::PlanNode::Exists { input } = node {
                let mut leaves = Vec::new();
                input.visit(&mut |n| leaves.extend(binding(n)));
                leaves.sort();
                covered.push(leaves);
            }
        });
        let rows = trac_exec::execute_plan_with(txn, stored, Default::default());
        let sids: BTreeSet<String> = (rows.unwrap().rows.iter())
            .filter_map(|r| Some(SourceId::from_value(&r[0])?.as_str().into()))
            .collect();
        (covered, sids.into_iter().collect())
    }

    /// The subquery of `plan` via the relation bound as `binding`.
    fn via<'p>(plan: &'p RecencyPlan, binding: &str) -> &'p RecencySubquery {
        let mut subs = plan.subqueries.iter();
        subs.find(|s| s.via_relation == binding).unwrap()
    }

    #[test]
    fn one_exists_covers_two_joined_existence_only_relations() {
        // Via A, R and B are linked to each other but not to H: both
        // join under one Exists, which finds a witness (m1 → m3, idle)
        // for 'idle' and none for 'busy' (no neighbor is busy).
        let db = paper_db();
        let txn = db.begin_read();
        let rb = || vec![vec!["B".to_string(), "R".to_string()]];
        for (value, via_a) in [("idle", vec!["m1", "m2"]), ("busy", vec![])] {
            let sql = format!(
                "SELECT A.mach_id FROM Activity A, Routing R, Activity B \
                 WHERE A.mach_id IN ('m1', 'm2') AND R.neighbor = B.mach_id AND B.value = '{value}'"
            );
            let (plan, _) = plan_for(&db, &sql);
            let run = |v: &str| run_stored(&txn, via(&plan, v));
            assert_eq!(
                run("A"),
                (rb(), via_a.iter().map(ToString::to_string).collect()),
                "{value}"
            );
            if value == "idle" {
                assert_eq!(run("B").1, vec!["m3"]);
            }
        }
    }

    #[test]
    fn unsatisfiable_regular_predicate_prunes() {
        // 'value' domain is {idle, busy}: value = 'gone' is unsatisfiable,
        // so no source is relevant (Corollary 2).
        let db = paper_db();
        let (plan, sources) = plan_for(&db, "SELECT mach_id FROM Activity WHERE value = 'gone'");
        assert!(sources.is_empty());
        assert_eq!(plan.subqueries[0].status, SubqueryStatus::Empty);
        assert_eq!(plan.guarantee, Guarantee::Minimum);
    }

    #[test]
    fn vacuous_mixed_predicate_refines_to_minimum() {
        let db = paper_db();
        // mach_id <> value compares the source column to a regular column
        // (a mixed predicate, P_m). Corollary 3 alone would only give an
        // upper bound, but the machine-id domain {m1,m2,m3} and the value
        // domain {idle,busy} are disjoint, so the term can never be false
        // over potential tuples — the refinement pass proves it vacuous
        // and restores the Theorem 3 exact minimum.
        let (plan, sources) = plan_for(&db, "SELECT mach_id FROM Activity WHERE mach_id <> value");
        assert_eq!(plan.guarantee, Guarantee::Minimum);
        assert_eq!(plan.subqueries[0].status, SubqueryStatus::Minimum);
        assert!(plan.subqueries[0].refined);
        assert_eq!(names(&sources), vec!["m1", "m2", "m3"]);
    }

    #[test]
    fn overlapping_mixed_predicate_stays_upper_bound() {
        let db = paper_db();
        // Routing.neighbor shares the machine-id domain with the source
        // column, so mach_id <> neighbor genuinely restricts potential
        // tuples: the refinement pass must abstain and the analysis keeps
        // the sound Corollary 3 upper bound.
        let (plan, sources) =
            plan_for(&db, "SELECT mach_id FROM Routing WHERE mach_id <> neighbor");
        assert_eq!(plan.guarantee, Guarantee::UpperBound);
        assert_eq!(plan.subqueries[0].status, SubqueryStatus::UpperBound);
        assert!(!plan.subqueries[0].refined);
        assert_eq!(names(&sources), vec!["m1", "m2", "m3"]);
    }

    #[test]
    fn unsatisfiable_mixed_predicate_prunes_to_empty() {
        let db = paper_db();
        // mach_id = value can never hold: the machine-id domain
        // {m1,m2,m3} and the value domain {idle,busy} are disjoint, which
        // the exhaustive satisfiability engine proves. The correct answer
        // is ∅ — here we are *more* precise than Corollary 3's bound.
        let (plan, sources) = plan_for(&db, "SELECT mach_id FROM Activity WHERE mach_id = value");
        assert_eq!(plan.guarantee, Guarantee::Minimum);
        assert_eq!(plan.subqueries[0].status, SubqueryStatus::Empty);
        assert!(sources.is_empty());
    }

    #[test]
    fn no_predicate_means_all_sources() {
        let db = paper_db();
        let (plan, sources) = plan_for(&db, "SELECT mach_id FROM Activity");
        assert_eq!(plan.guarantee, Guarantee::Minimum);
        assert_eq!(names(&sources), vec!["m1", "m2", "m3"]);
    }

    #[test]
    fn disjunction_unions_per_corollary_1() {
        let db = paper_db();
        let (plan, sources) = plan_for(
            &db,
            "SELECT mach_id FROM Activity \
             WHERE mach_id = 'm1' AND value = 'idle' OR mach_id = 'm2' AND value = 'busy'",
        );
        assert_eq!(plan.guarantee, Guarantee::Minimum);
        assert_eq!(names(&sources), vec!["m1", "m2"]);
        assert_eq!(plan.subqueries.len(), 2);
    }

    #[test]
    fn dnf_blowup_falls_back_to_all_sources() {
        let db = paper_db();
        let txn = db.begin_read();
        // Build a predicate that blows past a tiny DNF budget.
        let mut clauses = Vec::new();
        for i in 0..12 {
            clauses.push(format!(
                "(mach_id = 'm{}' OR value = 'idle' AND event_time > TIMESTAMP '200{}-01-01')",
                i % 3 + 1,
                i % 7 + 1
            ));
        }
        let sql = format!(
            "SELECT mach_id FROM Activity WHERE {}",
            clauses.join(" AND ")
        );
        let stmt = parse_select(&sql).unwrap();
        let bound = bind_select(&txn, &stmt).unwrap();
        let plan = RecencyPlan::build(&txn, &bound, RelevanceConfig { dnf_budget: 64 }).unwrap();
        assert!(plan.all_sources);
        assert_eq!(plan.guarantee, Guarantee::UpperBound);
        let sources = plan.execute(&txn).unwrap();
        assert_eq!(names(&sources), vec!["m1", "m2", "m3"]);
    }

    #[test]
    fn join_with_empty_other_relation_yields_empty() {
        // Q4-style check of Definition 2: joining against an empty
        // relation means no existing tuples, so nothing is relevant via
        // the non-empty one.
        let db = paper_db();
        execute_statement(&db, "DELETE FROM routing").unwrap();
        let (_, sources) = plan_for(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.neighbor = A.mach_id AND A.value = 'idle'",
        );
        // Via A: semijoin H × Routing — Routing empty ⇒ ∅.
        // Via R: semijoin H × Activity with A.value='idle' ⇒ non-empty!
        // (a new Routing tuple could join with existing idle Activity
        // rows). All sources relevant via R because no P_s constrains R.
        assert_eq!(names(&sources), vec!["m1", "m2", "m3"]);
        // Now also empty Activity: nothing relevant anywhere.
        execute_statement(&db, "DELETE FROM activity").unwrap();
        let (_, sources) = plan_for(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.neighbor = A.mach_id AND A.value = 'idle'",
        );
        assert!(sources.is_empty());
    }

    #[test]
    fn heartbeat_binding_avoids_clashes() {
        let db = paper_db();
        let (plan, _) = plan_for(
            &db,
            "SELECT H.mach_id FROM Activity H WHERE H.mach_id = 'm1'",
        );
        assert!(plan.subqueries[0].sql().contains("heartbeat H_"));
    }

    #[test]
    fn source_only_join_stays_minimal() {
        let db = paper_db();
        // R.mach_id = A.mach_id touches only source columns: J_s for both
        // sides; Theorem 4 applies to both.
        let (plan, _) = plan_for(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = A.mach_id AND A.value = 'idle'",
        );
        assert_eq!(plan.guarantee, Guarantee::Minimum);
        for s in &plan.subqueries {
            assert_ne!(s.status, SubqueryStatus::UpperBound, "{s:?}");
        }
    }
}
