//! Basic-term classification (paper Notations 4 and 6).
//!
//! For a conjunct of basic terms and a chosen relation `R_i`, every term
//! falls into exactly one of:
//!
//! * `P_s^i` — selection referencing only `R_i.c_s` (source column),
//! * `P_r^i` — selection referencing only `R_i`'s regular columns,
//! * `P_m^i` — *mixed* selection referencing `R_i.c_s` and a regular
//!   column of `R_i`,
//! * `J_s^i` — join predicate whose `R_i` columns are only `c_s`,
//! * `J_rm^i` — join predicate referencing at least one regular column of
//!   `R_i` (the paper deliberately does not split "regular-only" from
//!   "mixed" join predicates — both defeat Theorem 4 the same way),
//! * `P_o^i` — predicates not referencing `R_i` at all.
//!
//! Terms referencing no columns (e.g. a constant `1 = 1`) are filed under
//! `P_r^i`: they do not mention the source column, and the satisfiability
//! check of Theorem 3/4 deals with constant falsehood.

use crate::bound::{BoundExpr, BoundTable};

/// Which class a term falls into relative to a chosen relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermClass {
    /// `P_s`: data-source-only selection predicate.
    SourceOnlySelection,
    /// `P_r`: regular-column-only selection predicate (or constant).
    RegularOnlySelection,
    /// `P_m`: mixed selection predicate.
    MixedSelection,
    /// `J_s`: join predicate using only `c_s` from this relation.
    SourceOnlyJoin,
    /// `J_rm`: join predicate using a regular column of this relation.
    RegularOrMixedJoin,
    /// `P_o`: does not reference this relation.
    Other,
}

/// The conjunct's terms partitioned for one relation.
#[derive(Debug, Clone, Default)]
pub struct ClassifiedPredicates {
    /// `P_s^i`.
    pub ps: Vec<BoundExpr>,
    /// `P_r^i`.
    pub pr: Vec<BoundExpr>,
    /// `P_m^i`.
    pub pm: Vec<BoundExpr>,
    /// `J_s^i`.
    pub js: Vec<BoundExpr>,
    /// `J_rm^i`.
    pub jrm: Vec<BoundExpr>,
    /// `P_o^i`.
    pub po: Vec<BoundExpr>,
}

impl ClassifiedPredicates {
    /// True when Theorem 3/4's structural precondition holds: no mixed
    /// selection predicates and no regular/mixed join predicates.
    pub fn structurally_minimal(&self) -> bool {
        self.pm.is_empty() && self.jrm.is_empty()
    }
}

/// Classifies one basic term with respect to relation `rel`.
pub fn classify_term(term: &BoundExpr, tables: &[BoundTable], rel: usize) -> TermClass {
    let refs = term.references();
    let mut touches_rel_source = false;
    let mut touches_rel_regular = false;
    let mut touches_other = false;
    for c in &refs {
        if c.table == rel {
            if tables[rel].is_source_column(c.column) {
                touches_rel_source = true;
            } else {
                touches_rel_regular = true;
            }
        } else {
            touches_other = true;
        }
    }
    match (touches_rel_source, touches_rel_regular, touches_other) {
        (false, false, false) => TermClass::RegularOnlySelection, // constant
        (false, false, true) => TermClass::Other,
        (true, false, false) => TermClass::SourceOnlySelection,
        (false, true, false) => TermClass::RegularOnlySelection,
        (true, true, false) => TermClass::MixedSelection,
        (true, false, true) => TermClass::SourceOnlyJoin,
        (_, true, true) => TermClass::RegularOrMixedJoin,
    }
}

/// Partitions a conjunct's terms for relation `rel`.
pub fn classify_conjunct(
    conjunct: &[BoundExpr],
    tables: &[BoundTable],
    rel: usize,
) -> ClassifiedPredicates {
    let mut out = ClassifiedPredicates::default();
    for term in conjunct {
        let bucket = match classify_term(term, tables, rel) {
            TermClass::SourceOnlySelection => &mut out.ps,
            TermClass::RegularOnlySelection => &mut out.pr,
            TermClass::MixedSelection => &mut out.pm,
            TermClass::SourceOnlyJoin => &mut out.js,
            TermClass::RegularOrMixedJoin => &mut out.jrm,
            TermClass::Other => &mut out.po,
        };
        bucket.push(term.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::BoundExpr as E;
    use trac_sql::BinaryOp;
    use trac_storage::{ColumnDef, TableId, TableSchema};
    use trac_types::DataType;

    /// Routing(mach_id*, neighbor, event_time), Activity(mach_id*, value,
    /// event_time) — `*` marks the source columns. Matches the paper's Q2.
    fn tables() -> Vec<BoundTable> {
        let routing = TableSchema::new(
            "routing",
            vec![
                ColumnDef::new("mach_id", DataType::Text),
                ColumnDef::new("neighbor", DataType::Text),
                ColumnDef::new("event_time", DataType::Timestamp),
            ],
            Some("mach_id"),
        )
        .unwrap();
        let activity = TableSchema::new(
            "activity",
            vec![
                ColumnDef::new("mach_id", DataType::Text),
                ColumnDef::new("value", DataType::Text),
                ColumnDef::new("event_time", DataType::Timestamp),
            ],
            Some("mach_id"),
        )
        .unwrap();
        vec![
            BoundTable {
                id: TableId(1),
                schema: routing.into(),
                binding: "R".into(),
            },
            BoundTable {
                id: TableId(2),
                schema: activity.into(),
                binding: "A".into(),
            },
        ]
    }

    #[test]
    fn classifies_paper_q2_for_routing() {
        let ts = tables();
        // R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id
        let conj = vec![
            E::binary(BinaryOp::Eq, E::col(0, 0), E::lit("m1")),
            E::binary(BinaryOp::Eq, E::col(1, 1), E::lit("idle")),
            E::binary(BinaryOp::Eq, E::col(0, 1), E::col(1, 0)),
        ];
        // Relative to R (relation 0): P_s = {R.mach_id='m1'},
        // P_o = {A.value='idle'}, J_rm = {R.neighbor=A.mach_id}.
        let c = classify_conjunct(&conj, &ts, 0);
        assert_eq!(c.ps.len(), 1);
        assert_eq!(c.po.len(), 1);
        assert_eq!(c.jrm.len(), 1);
        assert!(c.pr.is_empty() && c.pm.is_empty() && c.js.is_empty());
        assert!(!c.structurally_minimal());
        // Relative to A (relation 1): P_r = {A.value='idle'},
        // P_o = {R.mach_id='m1'}, J_s = {R.neighbor = A.mach_id} (A-side
        // columns are only A.mach_id, the source column).
        let c = classify_conjunct(&conj, &ts, 1);
        assert_eq!(c.pr.len(), 1);
        assert_eq!(c.po.len(), 1);
        assert_eq!(c.js.len(), 1);
        assert!(c.structurally_minimal());
    }

    #[test]
    fn mixed_selection_detected() {
        let ts = tables();
        // R.mach_id = R.neighbor is a mixed predicate (source vs regular).
        let term = E::binary(BinaryOp::Eq, E::col(0, 0), E::col(0, 1));
        assert_eq!(classify_term(&term, &ts, 0), TermClass::MixedSelection);
        // Relative to A it does not reference A at all.
        assert_eq!(classify_term(&term, &ts, 1), TermClass::Other);
    }

    #[test]
    fn source_only_join() {
        let ts = tables();
        // R.mach_id = A.mach_id references only source columns on both
        // sides: J_s for both relations.
        let term = E::binary(BinaryOp::Eq, E::col(0, 0), E::col(1, 0));
        assert_eq!(classify_term(&term, &ts, 0), TermClass::SourceOnlyJoin);
        assert_eq!(classify_term(&term, &ts, 1), TermClass::SourceOnlyJoin);
    }

    #[test]
    fn join_touching_rel_source_and_regular_is_jrm() {
        let ts = tables();
        // R.mach_id = A.value AND-combined into one term via arithmetic-ish
        // shape: use (R.mach_id = A.value) — for R it is J_s, for A it is
        // J_rm (A.value is regular).
        let term = E::binary(BinaryOp::Eq, E::col(0, 0), E::col(1, 1));
        assert_eq!(classify_term(&term, &ts, 0), TermClass::SourceOnlyJoin);
        assert_eq!(classify_term(&term, &ts, 1), TermClass::RegularOrMixedJoin);
    }

    #[test]
    fn constants_are_pr() {
        let ts = tables();
        let term = E::binary(BinaryOp::Eq, E::lit(1i64), E::lit(1i64));
        assert_eq!(
            classify_term(&term, &ts, 0),
            TermClass::RegularOnlySelection
        );
    }

    #[test]
    fn in_list_on_source_is_ps() {
        let ts = tables();
        let term = E::InList {
            expr: Box::new(E::col(1, 0)),
            list: vec![E::lit("m1"), E::lit("m2")],
            negated: false,
        };
        assert_eq!(classify_term(&term, &ts, 1), TermClass::SourceOnlySelection);
        assert_eq!(classify_term(&term, &ts, 0), TermClass::Other);
    }
}
