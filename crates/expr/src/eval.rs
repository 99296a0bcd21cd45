//! Three-valued evaluation of bound expressions.
//!
//! Predicates evaluate to [`Truth`] (true / false / unknown, SQL
//! semantics); scalar expressions evaluate to [`trac_types::Value`]. The
//! executor keeps only rows whose predicate is [`Truth::True`].

use crate::bound::BoundExpr;
use std::borrow::Cow;
use std::cmp::Ordering;
use trac_sql::BinaryOp;
use trac_storage::Row;
use trac_types::{Result, TracError, Value};

/// SQL three-valued logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// NULL-contaminated.
    Unknown,
}

impl Truth {
    pub(crate) fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Three-valued AND.
    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Three-valued OR.
    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Three-valued NOT.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// Value representation (`NULL` for unknown).
    pub fn to_value(self) -> Value {
        match self {
            Truth::True => Value::Bool(true),
            Truth::False => Value::Bool(false),
            Truth::Unknown => Value::Null,
        }
    }

    /// Truth of a value: NULL ⇒ unknown, bool ⇒ itself.
    pub fn of_value(v: &Value) -> Result<Truth> {
        match v {
            Value::Null => Ok(Truth::Unknown),
            Value::Bool(b) => Ok(Truth::from_bool(*b)),
            other => Err(TracError::Type(format!(
                "expected a boolean, got {}",
                other.type_name()
            ))),
        }
    }
}

/// Evaluates a scalar expression against a composite tuple: `tuple[t]` is
/// the row for the query's `t`-th table.
pub fn eval_expr(expr: &BoundExpr, tuple: &[Row]) -> Result<Value> {
    Ok(eval_ref(expr, tuple)?.into_owned())
}

/// Evaluates `expr` against `tuple` without cloning what already exists:
/// a column is borrowed from its row and a literal from the expression,
/// so only computed values (truths, arithmetic) are owned.
fn eval_ref<'a>(expr: &'a BoundExpr, tuple: &'a [Row]) -> Result<Cow<'a, Value>> {
    let owned = |v: Value| Ok(Cow::Owned(v));
    match expr {
        BoundExpr::Column(c) => {
            let row = tuple.get(c.table).ok_or_else(|| {
                TracError::Execution(format!("tuple has no table slot {}", c.table))
            })?;
            row.get(c.column)
                .map(Cow::Borrowed)
                .ok_or_else(|| TracError::Execution(format!("row has no column {}", c.column)))
        }
        BoundExpr::Literal(v) => Ok(Cow::Borrowed(v)),
        BoundExpr::Binary { op, lhs, rhs } => {
            if matches!(op, BinaryOp::And | BinaryOp::Or) {
                // Short-circuit-free 3VL evaluation (both sides are cheap).
                let l = eval_predicate(lhs, tuple)?;
                let r = eval_predicate(rhs, tuple)?;
                return owned(
                    match op {
                        BinaryOp::And => l.and(r),
                        _ => l.or(r),
                    }
                    .to_value(),
                );
            }
            let l = eval_ref(lhs, tuple)?;
            let r = eval_ref(rhs, tuple)?;
            if op.is_comparison() {
                return owned(compare(*op, &l, &r).to_value());
            }
            owned(arith(*op, &l, &r)?)
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval_ref(expr, tuple)?;
            let mut truth = Truth::False;
            for item in list {
                match needle.sql_eq(eval_ref(item, tuple)?.as_ref()) {
                    Some(true) => {
                        truth = Truth::True;
                        break;
                    }
                    Some(false) => {}
                    None => truth = Truth::Unknown,
                }
            }
            let truth = if *negated { truth.not() } else { truth };
            owned(truth.to_value())
        }
        BoundExpr::IsNull { expr, negated } => {
            owned(Value::Bool(eval_ref(expr, tuple)?.is_null() != *negated))
        }
        BoundExpr::Not(e) => owned(eval_predicate(e, tuple)?.not().to_value()),
        BoundExpr::Neg(e) => match eval_ref(e, tuple)?.as_ref() {
            Value::Null => owned(Value::Null),
            Value::Int(i) => owned(Value::Int(-i)),
            Value::Float(f) => owned(Value::Float(-f)),
            other => Err(TracError::Type(format!(
                "cannot negate {}",
                other.type_name()
            ))),
        },
    }
}

/// SQL comparison kernel: `Unknown` when either side is `NULL` or the
/// types are incomparable, the comparison's truth otherwise. Shared by
/// the scalar evaluator and the vectorized [`crate::columnar`] path so
/// both agree bit-for-bit.
pub(crate) fn compare(op: BinaryOp, l: &Value, r: &Value) -> Truth {
    l.sql_cmp(r)
        .map_or(Truth::Unknown, |ord| Truth::from_bool(ord_passes(op, ord)))
}

/// Whether `ord` satisfies the comparison `op` — the predicate core of
/// [`compare`] and of every typed comparison kernel.
pub(crate) fn ord_passes(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::NotEq => !ord.is_eq(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        BinaryOp::GtEq => ord.is_ge(),
        _ => unreachable!("comparison kernel called with {op:?}"),
    }
}

/// Arithmetic kernel shared by the scalar evaluator and the vectorized
/// [`crate::columnar`] path.
pub(crate) fn arith(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinaryOp::Add => Value::Int(a.wrapping_add(*b)),
            BinaryOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinaryOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinaryOp::Div => {
                if *b == 0 {
                    return Err(TracError::Execution("division by zero".into()));
                }
                Value::Int(a / b)
            }
            _ => unreachable!("arith called with {op:?}"),
        });
    }
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(TracError::Type(format!(
            "cannot apply {} to {} and {}",
            op.sql(),
            l.type_name(),
            r.type_name()
        )));
    };
    Ok(Value::Float(match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => a / b,
        _ => unreachable!(),
    }))
}

/// Evaluates a predicate to a [`Truth`].
pub fn eval_predicate(expr: &BoundExpr, tuple: &[Row]) -> Result<Truth> {
    Truth::of_value(eval_ref(expr, tuple)?.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::BoundExpr as E;
    use std::sync::Arc;

    fn tuple(vals: Vec<Value>) -> Vec<Row> {
        vec![Arc::from(vals.into_boxed_slice())]
    }

    #[test]
    fn comparisons() {
        let t = tuple(vec![Value::Int(5), Value::text("idle")]);
        let e = E::binary(BinaryOp::Lt, E::col(0, 0), E::lit(10i64));
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::True);
        let e = E::binary(BinaryOp::Eq, E::col(0, 1), E::lit("busy"));
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::False);
    }

    #[test]
    fn null_propagation() {
        let t = tuple(vec![Value::Null]);
        let e = E::binary(BinaryOp::Eq, E::col(0, 0), E::lit(1i64));
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::Unknown);
        // NULL = NULL is unknown.
        let e = E::binary(BinaryOp::Eq, E::col(0, 0), E::Literal(Value::Null));
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::Unknown);
        // x IS NULL is two-valued.
        let e = E::IsNull {
            expr: Box::new(E::col(0, 0)),
            negated: false,
        };
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::True);
    }

    #[test]
    fn three_valued_and_or() {
        let t = tuple(vec![Value::Null, Value::Int(1)]);
        let unknown = E::binary(BinaryOp::Eq, E::col(0, 0), E::lit(1i64));
        let tru = E::binary(BinaryOp::Eq, E::col(0, 1), E::lit(1i64));
        let fal = E::binary(BinaryOp::Eq, E::col(0, 1), E::lit(2i64));
        // unknown AND false = false
        let e = E::binary(BinaryOp::And, unknown.clone(), fal);
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::False);
        // unknown AND true = unknown
        let e = E::binary(BinaryOp::And, unknown.clone(), tru.clone());
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::Unknown);
        // unknown OR true = true
        let e = E::binary(BinaryOp::Or, unknown.clone(), tru);
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::True);
        // NOT unknown = unknown
        let e = E::Not(Box::new(unknown));
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::Unknown);
    }

    #[test]
    fn in_list_semantics() {
        let t = tuple(vec![Value::text("m1"), Value::Null]);
        let e = E::InList {
            expr: Box::new(E::col(0, 0)),
            list: vec![E::lit("m1"), E::lit("m2")],
            negated: false,
        };
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::True);
        // 'm3' IN ('m1', NULL) is unknown; NOT IN flips to unknown too.
        let e = E::InList {
            expr: Box::new(E::lit("m3")),
            list: vec![E::lit("m1"), E::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::Unknown);
        let e = E::InList {
            expr: Box::new(E::lit("m3")),
            list: vec![E::lit("m1"), E::lit("m2")],
            negated: true,
        };
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::True);
    }

    #[test]
    fn arithmetic() {
        let t = tuple(vec![Value::Int(7)]);
        let e = E::binary(
            BinaryOp::Add,
            E::binary(BinaryOp::Mul, E::col(0, 0), E::lit(2i64)),
            E::lit(1i64),
        );
        assert_eq!(eval_expr(&e, &t).unwrap(), Value::Int(15));
        let e = E::binary(BinaryOp::Div, E::col(0, 0), E::lit(0i64));
        assert!(eval_expr(&e, &t).is_err());
        let e = E::binary(BinaryOp::Div, E::lit(1.0f64), E::lit(2i64));
        assert_eq!(eval_expr(&e, &t).unwrap(), Value::Float(0.5));
        let e = E::Neg(Box::new(E::col(0, 0)));
        assert_eq!(eval_expr(&e, &t).unwrap(), Value::Int(-7));
    }

    #[test]
    fn multi_table_tuples() {
        let t: Vec<Row> = vec![
            Arc::from(vec![Value::text("m1")].into_boxed_slice()),
            Arc::from(vec![Value::text("m1"), Value::text("idle")].into_boxed_slice()),
        ];
        let e = E::binary(BinaryOp::Eq, E::col(0, 0), E::col(1, 0));
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::True);
    }

    #[test]
    fn type_errors_surface() {
        let t = tuple(vec![Value::text("x")]);
        let e = E::binary(BinaryOp::Add, E::col(0, 0), E::lit(1i64));
        assert!(eval_expr(&e, &t).is_err());
        let e = E::Not(Box::new(E::col(0, 0)));
        assert!(eval_expr(&e, &t).is_err());
        // Comparison of incompatible types is UNKNOWN, not an error.
        let e = E::binary(BinaryOp::Eq, E::col(0, 0), E::lit(1i64));
        assert_eq!(eval_predicate(&e, &t).unwrap(), Truth::Unknown);
    }
}
