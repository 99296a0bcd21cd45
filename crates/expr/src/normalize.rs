//! Negation-normal-form and disjunctive-normal-form conversion.
//!
//! Section 4.1: "we first convert the predicate of a query to disjunctive
//! normal form (DNF), which is a disjunction consisting of one or more
//! conjunctive predicates … of basic terms that are free of ∧ or ∨
//! operators." Corollary 1 then lets the analyzer union the relevant
//! source sets computed per disjunct.
//!
//! DNF can explode exponentially, so [`to_dnf`] takes a budget; when it
//! would be exceeded the result is flagged inexact and the TRAC analyzer
//! falls back to the sound "all sources are relevant" upper bound.

use crate::bound::BoundExpr;
use trac_sql::BinaryOp;
use trac_types::Value;

/// A conjunction of basic terms (no ∧/∨ inside any term).
pub type Conjunct = Vec<BoundExpr>;

/// A predicate in disjunctive normal form.
#[derive(Debug, Clone)]
pub struct Dnf {
    /// The disjuncts; the predicate is their OR.
    pub disjuncts: Vec<Conjunct>,
    /// False when the conversion hit the size budget and `disjuncts` is
    /// NOT equivalent to the input (callers must fall back to an upper
    /// bound).
    pub exact: bool,
}

/// Default budget on the total number of basic terms across all disjuncts.
pub const DEFAULT_DNF_BUDGET: usize = 4096;

/// Converts a predicate to negation normal form: `NOT` appears only
/// around terms that cannot be rewritten (e.g. a bare boolean column).
pub fn to_nnf(expr: &BoundExpr) -> BoundExpr {
    nnf(expr, false)
}

fn nnf(expr: &BoundExpr, negate: bool) -> BoundExpr {
    match expr {
        BoundExpr::Not(inner) => nnf(inner, !negate),
        BoundExpr::Binary { op, lhs, rhs } => match op {
            BinaryOp::And | BinaryOp::Or => {
                let flipped = match (op, negate) {
                    (BinaryOp::And, false) | (BinaryOp::Or, true) => BinaryOp::And,
                    _ => BinaryOp::Or,
                };
                BoundExpr::binary(flipped, nnf(lhs, negate), nnf(rhs, negate))
            }
            _ if op.is_comparison() && negate => {
                let neg = op
                    .negate_comparison()
                    .expect("comparisons always have a negation");
                BoundExpr::Binary {
                    op: neg,
                    lhs: lhs.clone(),
                    rhs: rhs.clone(),
                }
            }
            _ if negate => BoundExpr::Not(Box::new(expr.clone())),
            _ => expr.clone(),
        },
        BoundExpr::InList {
            expr: e,
            list,
            negated,
        } => {
            let negated = *negated != negate;
            BoundExpr::InList {
                expr: e.clone(),
                list: list.clone(),
                negated,
            }
        }
        BoundExpr::IsNull { expr: e, negated } => BoundExpr::IsNull {
            expr: e.clone(),
            negated: *negated != negate,
        },
        BoundExpr::Literal(Value::Bool(b)) if negate => BoundExpr::lit(!*b),
        other => {
            if negate {
                BoundExpr::Not(Box::new(other.clone()))
            } else {
                other.clone()
            }
        }
    }
}

/// Converts a predicate to DNF within `budget` total basic terms.
pub fn to_dnf(expr: &BoundExpr, budget: usize) -> Dnf {
    let nnf = to_nnf(expr);
    match dnf(&nnf, budget) {
        Some(disjuncts) => Dnf {
            disjuncts: disjuncts.into_iter().map(distinct_terms).collect(),
            exact: true,
        },
        None => Dnf {
            // The whole (unnormalized) predicate as one opaque "term" is
            // still a valid formula, but classification cannot use it;
            // mark inexact so callers take the conservative path.
            disjuncts: vec![vec![nnf]],
            exact: false,
        },
    }
}

/// The DNF of an NNF predicate over borrowed terms, so distribution
/// copies pointers, not expressions.
fn dnf(expr: &BoundExpr, budget: usize) -> Option<Vec<Vec<&BoundExpr>>> {
    match expr {
        BoundExpr::Binary {
            op: BinaryOp::Or,
            lhs,
            rhs,
        } => {
            let mut l = dnf(lhs, budget)?;
            let r = dnf(rhs, budget)?;
            if term_count(&l) + term_count(&r) > budget {
                return None;
            }
            l.extend(r);
            Some(l)
        }
        BoundExpr::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } => {
            let l = dnf(lhs, budget)?;
            let r = dnf(rhs, budget)?;
            // Distribute: every pair of conjuncts merges.
            let mut out = Vec::with_capacity(l.len() * r.len());
            let mut total = 0usize;
            for a in &l {
                for b in &r {
                    total += a.len() + b.len();
                    if total > budget {
                        return None;
                    }
                    let mut c = Vec::with_capacity(a.len() + b.len());
                    c.extend_from_slice(a);
                    c.extend_from_slice(b);
                    out.push(c);
                }
            }
            Some(out)
        }
        term => Some(vec![vec![term]]),
    }
}

fn term_count(d: &[Vec<&BoundExpr>]) -> usize {
    d.iter().map(Vec::len).sum()
}

/// One owned conjunct: the distinct terms of `c`, in first-occurrence
/// order, each cloned once.
fn distinct_terms(c: Vec<&BoundExpr>) -> Conjunct {
    let mut out: Conjunct = Vec::with_capacity(c.len());
    for t in c {
        if !out.contains(t) {
            out.push(t.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::BoundExpr as E;

    fn cmp(op: BinaryOp, col: usize, v: i64) -> BoundExpr {
        E::binary(op, E::col(0, col), E::lit(v))
    }

    #[test]
    fn nnf_pushes_not_through_logic() {
        // NOT (a = 1 AND b = 2)  =>  a <> 1 OR b <> 2
        let e = E::Not(Box::new(E::binary(
            BinaryOp::And,
            cmp(BinaryOp::Eq, 0, 1),
            cmp(BinaryOp::Eq, 1, 2),
        )));
        let n = to_nnf(&e);
        match &n {
            E::Binary {
                op: BinaryOp::Or,
                lhs,
                rhs,
            } => {
                assert_eq!(**lhs, cmp(BinaryOp::NotEq, 0, 1));
                assert_eq!(**rhs, cmp(BinaryOp::NotEq, 1, 2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nnf_double_negation() {
        let e = E::Not(Box::new(E::Not(Box::new(cmp(BinaryOp::Lt, 0, 5)))));
        assert_eq!(to_nnf(&e), cmp(BinaryOp::Lt, 0, 5));
    }

    #[test]
    fn nnf_flips_in_and_is_null() {
        let inl = E::InList {
            expr: Box::new(E::col(0, 0)),
            list: vec![E::lit(1i64)],
            negated: false,
        };
        match to_nnf(&E::Not(Box::new(inl))) {
            E::InList { negated, .. } => assert!(negated),
            other => panic!("{other:?}"),
        }
        let isn = E::IsNull {
            expr: Box::new(E::col(0, 0)),
            negated: true,
        };
        match to_nnf(&E::Not(Box::new(isn))) {
            E::IsNull { negated, .. } => assert!(!negated),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nnf_negates_comparisons() {
        let e = E::Not(Box::new(cmp(BinaryOp::LtEq, 0, 3)));
        assert_eq!(to_nnf(&e), cmp(BinaryOp::Gt, 0, 3));
    }

    #[test]
    fn nnf_keeps_opaque_negations() {
        // NOT of a bare column has no rewrite.
        let e = E::Not(Box::new(E::col(0, 0)));
        assert_eq!(to_nnf(&e), e);
        // NOT TRUE folds to FALSE.
        assert_eq!(to_nnf(&E::Not(Box::new(E::lit(true)))), E::lit(false));
    }

    #[test]
    fn dnf_distributes() {
        // (a OR b) AND c => (a AND c) OR (b AND c)
        let a = cmp(BinaryOp::Eq, 0, 1);
        let b = cmp(BinaryOp::Eq, 1, 2);
        let c = cmp(BinaryOp::Eq, 2, 3);
        let e = E::binary(
            BinaryOp::And,
            E::binary(BinaryOp::Or, a.clone(), b.clone()),
            c.clone(),
        );
        let d = to_dnf(&e, DEFAULT_DNF_BUDGET);
        assert!(d.exact);
        assert_eq!(d.disjuncts.len(), 2);
        assert_eq!(d.disjuncts[0], vec![a, c.clone()]);
        assert_eq!(d.disjuncts[1], vec![b, c]);
    }

    #[test]
    fn dnf_of_conjunction_is_single_disjunct() {
        let e = E::binary(
            BinaryOp::And,
            cmp(BinaryOp::Eq, 0, 1),
            E::binary(
                BinaryOp::And,
                cmp(BinaryOp::Lt, 1, 5),
                cmp(BinaryOp::Gt, 2, 0),
            ),
        );
        let d = to_dnf(&e, DEFAULT_DNF_BUDGET);
        assert!(d.exact);
        assert_eq!(d.disjuncts.len(), 1);
        assert_eq!(d.disjuncts[0].len(), 3);
    }

    #[test]
    fn dnf_dedups_repeated_terms() {
        let a = cmp(BinaryOp::Eq, 0, 1);
        let e = E::binary(BinaryOp::And, a.clone(), a.clone());
        let d = to_dnf(&e, DEFAULT_DNF_BUDGET);
        assert_eq!(d.disjuncts[0], vec![a]);
    }

    #[test]
    fn dnf_budget_trips_on_blowup() {
        // (a1 OR b1) AND (a2 OR b2) AND … has 2^n disjuncts.
        let mut e = E::binary(
            BinaryOp::Or,
            cmp(BinaryOp::Eq, 0, 0),
            cmp(BinaryOp::Eq, 1, 0),
        );
        for i in 1..20 {
            e = E::binary(
                BinaryOp::And,
                e,
                E::binary(
                    BinaryOp::Or,
                    cmp(BinaryOp::Eq, 0, i),
                    cmp(BinaryOp::Eq, 1, i),
                ),
            );
        }
        let d = to_dnf(&e, 1000);
        assert!(!d.exact);
        assert_eq!(d.disjuncts.len(), 1, "inexact carries the raw predicate");
    }

    #[test]
    fn nested_or_flattens() {
        let e = E::binary(
            BinaryOp::Or,
            E::binary(
                BinaryOp::Or,
                cmp(BinaryOp::Eq, 0, 1),
                cmp(BinaryOp::Eq, 0, 2),
            ),
            cmp(BinaryOp::Eq, 0, 3),
        );
        let d = to_dnf(&e, DEFAULT_DNF_BUDGET);
        assert_eq!(d.disjuncts.len(), 3);
        assert!(d.disjuncts.iter().all(|c| c.len() == 1));
    }
}
