//! Three-valued satisfiability of conjunctions over column domains.
//!
//! Theorem 3/4's minimality guarantee requires deciding whether `P_r` is
//! satisfiable over the cross product of column domains — NP-hard in
//! general (Theorem 2 reduces predicate satisfiability to relevant-source
//! computation). We therefore return a *three-valued* answer:
//!
//! * [`Sat3::Sat`] / [`Sat3::Unsat`] — proven either way;
//! * [`Sat3::Unknown`] — undecided; the TRAC analyzer then degrades the
//!   guarantee from "minimum" to "upper bound" (never losing soundness).
//!
//! Two engines layer on each other: exhaustive enumeration when every
//! referenced column has a small finite domain (this is exactly how the
//! paper's evaluation computes ground truth), and interval/set constraint
//! propagation with equality classes otherwise.

use crate::bound::{BoundExpr, ColRef};
use crate::eval::{eval_predicate, Truth};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;
use trac_sql::BinaryOp;
use trac_storage::Row;
use trac_types::{ColumnDomain, DataType, Value};

/// A three-valued satisfiability verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sat3 {
    /// A satisfying assignment exists.
    Sat,
    /// No satisfying assignment exists.
    Unsat,
    /// Could not decide within budget / supported fragment.
    Unknown,
}

/// Max number of assignments the exhaustive engine will enumerate.
pub const EXHAUSTIVE_BUDGET: u64 = 4096;

/// Decides satisfiability of `conjunct` (the AND of its terms) where each
/// referenced column `c` ranges over `dom(c)`.
pub fn conjunct_satisfiable(conjunct: &[BoundExpr], dom: &dyn Fn(ColRef) -> ColumnDomain) -> Sat3 {
    if conjunct.is_empty() {
        return Sat3::Sat;
    }
    // Engine 1: interval/set constraint propagation — linear in the
    // conjunct, independent of domain size, and definitive for the common
    // predicate shapes.
    let fast = propagate(conjunct, dom);
    if fast != Sat3::Unknown {
        return fast;
    }
    // Engine 2: exhaustive enumeration over small finite domains decides
    // the shapes propagation cannot (mixed/multi-column terms).
    let refs: BTreeSet<ColRef> = conjunct.iter().flat_map(BoundExpr::references).collect();
    exhaustive(conjunct, &refs, dom).unwrap_or(Sat3::Unknown)
}

/// DNF budget for negating a single term in [`term_implied`]. A basic
/// term's negation normalizes to a handful of disjuncts (one comparison,
/// an `IN` list, an `IS NULL`), so a small budget keeps implication
/// checks cheap while still bailing out on opaque shapes.
pub const IMPLICATION_DNF_BUDGET: usize = 64;

/// Decides whether `context ⊨ term` over the column domains: does every
/// potential tuple (non-NULL values drawn from `dom`) that satisfies the
/// conjunction of `context` also satisfy `term`?
///
/// `Some(true)` proves the implication (the negation of `term` is
/// unsatisfiable under `context` in every disjunct), `Some(false)`
/// exhibits a refutation, and `None` abstains (negation DNF over budget,
/// or a satisfiability verdict came back [`Sat3::Unknown`]). This is the
/// residual-domain entry point the refinement pass uses to prove
/// `P_m`/`J_rm` terms vacuous: an implied term never changes the
/// potential-tuple set, so removing it preserves Theorem 3/4 exactness.
pub fn term_implied(
    context: &[BoundExpr],
    term: &BoundExpr,
    dom: &dyn Fn(ColRef) -> ColumnDomain,
) -> Option<bool> {
    let negated = crate::normalize::to_dnf(
        &BoundExpr::Not(Box::new(term.clone())),
        IMPLICATION_DNF_BUDGET,
    );
    if !negated.exact {
        return None;
    }
    let mut decided = true;
    for disjunct in &negated.disjuncts {
        let mut conj: Vec<BoundExpr> = context.to_vec();
        conj.extend(disjunct.iter().cloned());
        match conjunct_satisfiable(&conj, dom) {
            Sat3::Sat => return Some(false),
            Sat3::Unsat => {}
            Sat3::Unknown => decided = false,
        }
    }
    decided.then_some(true)
}

/// The refinement question of Corollary 3/5 → Theorem 3/4 upgrades: are
/// *all* mixed terms (`P_m` and `J_rm`) of a classified conjunct implied
/// by its mixed-free remainder (`P_s ∧ P_r ∧ J_s ∧ P_o`)?
///
/// The context deliberately excludes the mixed terms themselves: two
/// mixed terms must never justify each other's removal (dropping both of
/// two identical mixed terms is unsound even though each is implied by a
/// context containing the other).
pub fn mixed_terms_vacuous(
    cls: &crate::classify::ClassifiedPredicates,
    dom: &dyn Fn(ColRef) -> ColumnDomain,
) -> bool {
    let context: Vec<BoundExpr> = cls
        .ps
        .iter()
        .chain(&cls.pr)
        .chain(&cls.js)
        .chain(&cls.po)
        .cloned()
        .collect();
    cls.pm
        .iter()
        .chain(&cls.jrm)
        .all(|t| term_implied(&context, t, dom) == Some(true))
}

/// Exhaustive check; `None` when domains are infinite or over budget.
fn exhaustive(
    conjunct: &[BoundExpr],
    refs: &BTreeSet<ColRef>,
    dom: &dyn Fn(ColRef) -> ColumnDomain,
) -> Option<Sat3> {
    let cols: Vec<ColRef> = refs.iter().copied().collect();
    let mut values: Vec<Vec<Value>> = Vec::with_capacity(cols.len());
    let mut product: u64 = 1;
    for c in &cols {
        let vals = dom(*c).enumerate(EXHAUSTIVE_BUDGET)?;
        product = product.checked_mul(vals.len().max(1) as u64)?;
        if product > EXHAUSTIVE_BUDGET {
            return None;
        }
        if vals.is_empty() {
            // An empty domain has no potential tuples at all.
            return Some(Sat3::Unsat);
        }
        values.push(vals);
    }
    // Tuple skeleton sized to the widest reference per table.
    let n_tables = cols.iter().map(|c| c.table + 1).max().unwrap_or(0);
    let mut widths = vec![0usize; n_tables];
    for c in &cols {
        widths[c.table] = widths[c.table].max(c.column + 1);
    }
    let mut scratch: Vec<Vec<Value>> = widths.iter().map(|w| vec![Value::Null; *w]).collect();
    let mut idx = vec![0usize; cols.len()];
    loop {
        for (k, c) in cols.iter().enumerate() {
            scratch[c.table][c.column] = values[k][idx[k]].clone();
        }
        let tuple: Vec<Row> = scratch
            .iter()
            .map(|r| Arc::from(r.clone().into_boxed_slice()))
            .collect();
        let ok = conjunct
            .iter()
            .all(|t| matches!(eval_predicate(t, &tuple), Ok(Truth::True)));
        if ok {
            return Some(Sat3::Sat);
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == cols.len() {
                return Some(Sat3::Unsat);
            }
            idx[k] += 1;
            if idx[k] < values[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// One end of an interval constraint, borrowing its literal.
#[derive(Debug, Clone)]
struct IntervalBound<'a> {
    value: &'a Value,
    closed: bool,
}

/// Accumulated constraints for one equality class of columns. The
/// values are borrowed from the conjunct's literals, never cloned.
#[derive(Debug, Clone)]
struct Constraints<'a> {
    domains: Vec<ColumnDomain>,
    lo: Option<IntervalBound<'a>>,
    hi: Option<IntervalBound<'a>>,
    /// Explicit allowed set (from `=` / `IN`); `None` = unconstrained.
    allowed: Option<BTreeSet<&'a Value>>,
    /// Excluded values (from `<>` / `NOT IN`).
    excluded: BTreeSet<&'a Value>,
}

impl<'a> Constraints<'a> {
    fn new() -> Constraints<'a> {
        Constraints {
            domains: Vec::new(),
            lo: None,
            hi: None,
            allowed: None,
            excluded: BTreeSet::new(),
        }
    }

    fn tighten_lo(&mut self, value: &'a Value, closed: bool) {
        let replace = match &self.lo {
            None => true,
            Some(cur) => match value.sql_cmp(cur.value) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => cur.closed && !closed,
                _ => false,
            },
        };
        if replace {
            self.lo = Some(IntervalBound { value, closed });
        }
    }

    fn tighten_hi(&mut self, value: &'a Value, closed: bool) {
        let replace = match &self.hi {
            None => true,
            Some(cur) => match value.sql_cmp(cur.value) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => cur.closed && !closed,
                _ => false,
            },
        };
        if replace {
            self.hi = Some(IntervalBound { value, closed });
        }
    }

    fn restrict_allowed(&mut self, set: BTreeSet<&'a Value>) {
        self.allowed = Some(match self.allowed.take() {
            None => set,
            Some(cur) => cur.intersection(&set).copied().collect(),
        });
    }

    fn passes_interval(&self, v: &Value) -> bool {
        if let Some(lo) = &self.lo {
            match v.sql_cmp(lo.value) {
                Some(Ordering::Greater) => {}
                Some(Ordering::Equal) if lo.closed => {}
                _ => return false,
            }
        }
        if let Some(hi) = &self.hi {
            match v.sql_cmp(hi.value) {
                Some(Ordering::Less) => {}
                Some(Ordering::Equal) if hi.closed => {}
                _ => return false,
            }
        }
        true
    }

    fn passes(&self, v: &Value) -> bool {
        self.domains.iter().all(|d| d.contains(v))
            && self.passes_interval(v)
            && !self.excluded.contains(v)
            && match v {
                // `excluded` uses storage equality; numeric cross-type
                // exclusions (e.g. `<> 2` vs Float(2.0)) are re-checked.
                Value::Int(_) | Value::Float(_) => {
                    !self.excluded.iter().any(|e| v.sql_eq(e) == Some(true))
                }
                _ => true,
            }
    }

    /// Emptiness decision: `Some(true)` non-empty, `Some(false)` empty,
    /// `None` undecidable.
    fn non_empty(&self) -> Option<bool> {
        // Case 1: explicit allowed set — filter it.
        if let Some(allowed) = &self.allowed {
            return Some(allowed.iter().any(|v| self.passes(v)));
        }
        // Case 2: some finite domain — enumerate the smallest.
        let finite = self
            .domains
            .iter()
            .filter(|d| d.cardinality().is_some())
            .min_by_key(|d| d.cardinality().unwrap());
        if let Some(d) = finite {
            if let Some(vals) = d.enumerate(EXHAUSTIVE_BUDGET) {
                return Some(vals.iter().any(|v| self.passes(v)));
            }
            // Finite but huge: excluded/interval rarely empty it; give up.
            return None;
        }
        // Case 3: infinite domain — reason about the interval by type.
        let ty = self.domains.first().map(ColumnDomain::data_type);
        match ty {
            Some(DataType::Int) => Some(self.int_interval_non_empty()),
            Some(DataType::Timestamp) => Some(self.ts_interval_non_empty()),
            Some(DataType::Float) => self.float_interval_non_empty(),
            Some(DataType::Text) => {
                match (&self.lo, &self.hi) {
                    // Unbounded above: infinitely many strings above any lo.
                    (_, None) => Some(true),
                    // Strings below a bound: "" and prefixes exist unless
                    // the bound is <= "".
                    (None, Some(hi)) => {
                        let empty = Value::text("");
                        Some(
                            self.passes(&empty)
                                || hi.value.sql_cmp(&empty) == Some(Ordering::Greater),
                        )
                    }
                    // Bounded string intervals are tricky (successor
                    // strings); stay conservative.
                    (Some(_), Some(_)) => None,
                }
            }
            Some(DataType::Bool) => Some(
                [Value::Bool(false), Value::Bool(true)]
                    .iter()
                    .any(|v| self.passes(v)),
            ),
            None => Some(true), // no domain info at all
        }
    }

    fn int_interval_non_empty(&self) -> bool {
        let lo = match &self.lo {
            None => i64::MIN,
            Some(b) => match &b.value {
                Value::Int(i) => {
                    if b.closed {
                        *i
                    } else {
                        i.saturating_add(1)
                    }
                }
                Value::Float(f) => {
                    let c = f.ceil();
                    // A fractional bound rounds up; an integral open
                    // bound steps past itself.
                    if c > *f || (b.closed && c == *f) {
                        c as i64
                    } else {
                        (c as i64).saturating_add(1)
                    }
                }
                _ => return false,
            },
        };
        let hi = match &self.hi {
            None => i64::MAX,
            Some(b) => match &b.value {
                Value::Int(i) => {
                    if b.closed {
                        *i
                    } else {
                        i.saturating_sub(1)
                    }
                }
                Value::Float(f) => {
                    let fl = f.floor();
                    if fl < *f || (b.closed && fl == *f) {
                        fl as i64
                    } else {
                        (fl as i64).saturating_sub(1)
                    }
                }
                _ => return false,
            },
        };
        if lo > hi {
            return false;
        }
        // The excluded set is finite; a span longer than it always has a
        // survivor. Otherwise test each candidate.
        let span = (hi as i128) - (lo as i128) + 1;
        if span > self.excluded.len() as i128 {
            return true;
        }
        (lo..=hi).any(|i| self.passes(&Value::Int(i)))
    }

    fn ts_interval_non_empty(&self) -> bool {
        let extract = |b: &IntervalBound| b.value.as_timestamp().map(trac_types::Timestamp::micros);
        let lo = match &self.lo {
            None => i64::MIN,
            Some(b) => match extract(b) {
                Some(m) => {
                    if b.closed {
                        m
                    } else {
                        m.saturating_add(1)
                    }
                }
                None => return false,
            },
        };
        let hi = match &self.hi {
            None => i64::MAX,
            Some(b) => match extract(b) {
                Some(m) => {
                    if b.closed {
                        m
                    } else {
                        m.saturating_sub(1)
                    }
                }
                None => return false,
            },
        };
        if lo > hi {
            return false;
        }
        let span = (hi as i128) - (lo as i128) + 1;
        if span > self.excluded.len() as i128 {
            return true;
        }
        (lo..=hi).any(|m| self.passes(&Value::Timestamp(trac_types::Timestamp(m))))
    }

    fn float_interval_non_empty(&self) -> Option<bool> {
        let lo = self.lo.as_ref().map(|b| (b.value.as_f64(), b.closed));
        let hi = self.hi.as_ref().map(|b| (b.value.as_f64(), b.closed));
        let lo_v = match lo {
            None => f64::NEG_INFINITY,
            Some((Some(v), _)) => v,
            Some((None, _)) => return Some(false),
        };
        let hi_v = match hi {
            None => f64::INFINITY,
            Some((Some(v), _)) => v,
            Some((None, _)) => return Some(false),
        };
        if lo_v > hi_v {
            return Some(false);
        }
        if lo_v == hi_v {
            let closed_both = self.lo.as_ref().is_none_or(|b| b.closed)
                && self.hi.as_ref().is_none_or(|b| b.closed);
            if !closed_both {
                return Some(false);
            }
            return Some(self.passes(&Value::Float(lo_v)));
        }
        // A non-degenerate real interval minus finitely many points is
        // never empty.
        Some(true)
    }
}

/// Simple union-find over column refs. A conjunct names a handful of
/// columns, so ids are found by a linear scan.
struct UnionFind {
    ids: Vec<ColRef>,
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> UnionFind {
        UnionFind {
            ids: Vec::new(),
            parent: Vec::new(),
        }
    }

    fn id(&mut self, c: ColRef) -> usize {
        if let Some(i) = self.ids.iter().position(|x| *x == c) {
            return i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.ids.push(c);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: ColRef, b: ColRef) {
        let (ia, ib) = (self.id(a), self.id(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// What shape a term has for the propagation engine, borrowing the
/// term's literals.
enum Shape<'a> {
    ColCmpLit(ColRef, BinaryOp, &'a Value),
    ColEqCol(ColRef, ColRef),
    ColInLits(ColRef, Vec<&'a Value>, bool),
    ColIsNull(bool),
    Constant(Truth),
    Unsupported,
}

fn shape_of(term: &BoundExpr) -> Shape<'_> {
    match term {
        BoundExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
            match (lhs.as_ref(), rhs.as_ref()) {
                (BoundExpr::Column(c), BoundExpr::Literal(v)) => Shape::ColCmpLit(*c, *op, v),
                (BoundExpr::Literal(v), BoundExpr::Column(c)) => Shape::ColCmpLit(*c, op.flip(), v),
                (BoundExpr::Column(a), BoundExpr::Column(b)) if *op == BinaryOp::Eq => {
                    Shape::ColEqCol(*a, *b)
                }
                _ => Shape::Unsupported,
            }
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            if let BoundExpr::Column(c) = expr.as_ref() {
                let mut lits = Vec::with_capacity(list.len());
                for item in list {
                    match item {
                        BoundExpr::Literal(v) => lits.push(v),
                        _ => return Shape::Unsupported,
                    }
                }
                Shape::ColInLits(*c, lits, *negated)
            } else {
                Shape::Unsupported
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            if matches!(expr.as_ref(), BoundExpr::Column(_)) {
                Shape::ColIsNull(*negated)
            } else {
                Shape::Unsupported
            }
        }
        BoundExpr::Literal(Value::Bool(b)) => {
            Shape::Constant(if *b { Truth::True } else { Truth::False })
        }
        term if term.references().is_empty() => match eval_predicate(term, &[]) {
            Ok(t) => Shape::Constant(t),
            Err(_) => Shape::Unsupported,
        },
        _ => Shape::Unsupported,
    }
}

fn propagate(conjunct: &[BoundExpr], dom: &dyn Fn(ColRef) -> ColumnDomain) -> Sat3 {
    let mut uf = UnionFind::new();
    let shapes: Vec<Shape> = conjunct.iter().map(shape_of).collect();
    // Pass 1: build equality classes and check constants.
    for s in &shapes {
        match s {
            Shape::ColEqCol(a, b) => uf.union(*a, *b),
            Shape::ColCmpLit(c, _, _) | Shape::ColInLits(c, _, _) => {
                uf.id(*c);
            }
            Shape::Constant(Truth::True) => {}
            Shape::Constant(_) => return Sat3::Unsat, // false or unknown: never True
            Shape::ColIsNull(false) => return Sat3::Unsat, // domains exclude NULL
            Shape::ColIsNull(true) => {}              // always true here
            Shape::Unsupported => {}
        }
    }
    // Register every referenced column so its domain participates (the
    // shapes above registered their own).
    for (t, s) in conjunct.iter().zip(&shapes) {
        if matches!(s, Shape::ColIsNull(_) | Shape::Unsupported) {
            for c in t.references() {
                uf.id(c);
            }
        }
    }
    // Pass 2: accumulate constraints per class, indexed by class root.
    let mut classes: Vec<Option<Constraints>> = (0..uf.ids.len()).map(|_| None).collect();
    for i in 0..uf.ids.len() {
        let root = uf.find(i);
        classes[root]
            .get_or_insert_with(Constraints::new)
            .domains
            .push(dom(uf.ids[i]));
    }
    let mut unknown = false;
    for s in &shapes {
        match s {
            Shape::ColCmpLit(c, op, v) => {
                if v.is_null() {
                    return Sat3::Unsat; // comparison with NULL is never True
                }
                let i = uf.id(*c);
                let root = uf.find(i);
                let k = classes[root].as_mut().expect("registered above");
                match op {
                    BinaryOp::Eq => k.restrict_allowed(BTreeSet::from([*v])),
                    BinaryOp::NotEq => {
                        k.excluded.insert(*v);
                    }
                    BinaryOp::Lt => k.tighten_hi(v, false),
                    BinaryOp::LtEq => k.tighten_hi(v, true),
                    BinaryOp::Gt => k.tighten_lo(v, false),
                    BinaryOp::GtEq => k.tighten_lo(v, true),
                    _ => unreachable!("shape_of only passes comparisons"),
                }
            }
            Shape::ColInLits(c, lits, negated) => {
                let i = uf.id(*c);
                let root = uf.find(i);
                let k = classes[root].as_mut().expect("registered above");
                if *negated {
                    if lits.iter().any(|v| v.is_null()) {
                        // x NOT IN (…, NULL, …) is never True.
                        return Sat3::Unsat;
                    }
                    k.excluded.extend(lits.iter().copied());
                } else {
                    let set: BTreeSet<&Value> =
                        lits.iter().filter(|v| !v.is_null()).copied().collect();
                    k.restrict_allowed(set);
                }
            }
            Shape::Unsupported => unknown = true,
            Shape::ColEqCol(_, _) | Shape::ColIsNull(_) | Shape::Constant(_) => {}
        }
    }
    // Pass 3: emptiness per class.
    for k in classes.iter().flatten() {
        match k.non_empty() {
            Some(false) => return Sat3::Unsat,
            Some(true) => {}
            None => unknown = true,
        }
    }
    if unknown {
        Sat3::Unknown
    } else {
        Sat3::Sat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::BoundExpr as E;
    use trac_types::Timestamp;

    fn text_dom(vals: &[&str]) -> ColumnDomain {
        ColumnDomain::text_set(vals.iter().copied())
    }

    fn dom_fn(doms: Vec<ColumnDomain>) -> impl Fn(ColRef) -> ColumnDomain {
        move |c: ColRef| doms[c.column].clone()
    }

    fn eq(col: usize, v: &str) -> BoundExpr {
        E::binary(BinaryOp::Eq, E::col(0, col), E::lit(v))
    }

    #[test]
    fn empty_conjunct_is_sat() {
        let d = dom_fn(vec![]);
        assert_eq!(conjunct_satisfiable(&[], &d), Sat3::Sat);
    }

    #[test]
    fn exhaustive_small_domains() {
        // value = 'idle' over domain {idle, busy}: Sat.
        let d = dom_fn(vec![text_dom(&["idle", "busy"])]);
        assert_eq!(conjunct_satisfiable(&[eq(0, "idle")], &d), Sat3::Sat);
        // value = 'gone' over the same domain: Unsat.
        assert_eq!(conjunct_satisfiable(&[eq(0, "gone")], &d), Sat3::Unsat);
        // Contradiction: value = 'idle' AND value = 'busy'.
        assert_eq!(
            conjunct_satisfiable(&[eq(0, "idle"), eq(0, "busy")], &d),
            Sat3::Unsat
        );
    }

    #[test]
    fn exhaustive_handles_weird_terms_exactly() {
        // Mixed predicate c0 = c1 over small finite domains — the
        // propagation engine would give up, the exhaustive engine decides.
        let d = dom_fn(vec![text_dom(&["a", "b"]), text_dom(&["b", "c"])]);
        let t = E::binary(BinaryOp::Eq, E::col(0, 0), E::col(0, 1));
        assert_eq!(conjunct_satisfiable(&[t], &d), Sat3::Sat);
        let d = dom_fn(vec![text_dom(&["a"]), text_dom(&["b", "c"])]);
        let t = E::binary(BinaryOp::Eq, E::col(0, 0), E::col(0, 1));
        assert_eq!(conjunct_satisfiable(&[t], &d), Sat3::Unsat);
    }

    #[test]
    fn propagation_int_intervals() {
        let d = dom_fn(vec![ColumnDomain::Any(DataType::Int)]);
        let gt = E::binary(BinaryOp::Gt, E::col(0, 0), E::lit(5i64));
        let lt = E::binary(BinaryOp::Lt, E::col(0, 0), E::lit(7i64));
        // 5 < x < 7 has x = 6.
        assert_eq!(conjunct_satisfiable(&[gt.clone(), lt], &d), Sat3::Sat);
        // 5 < x < 6 has no integer.
        let lt6 = E::binary(BinaryOp::Lt, E::col(0, 0), E::lit(6i64));
        assert_eq!(conjunct_satisfiable(&[gt.clone(), lt6], &d), Sat3::Unsat);
        // 5 < x <= 6 excluding 6 is empty.
        let le6 = E::binary(BinaryOp::LtEq, E::col(0, 0), E::lit(6i64));
        let ne6 = E::binary(BinaryOp::NotEq, E::col(0, 0), E::lit(6i64));
        assert_eq!(conjunct_satisfiable(&[gt, le6, ne6], &d), Sat3::Unsat);
    }

    #[test]
    fn propagation_timestamp_intervals() {
        let d = dom_fn(vec![ColumnDomain::Any(DataType::Timestamp)]);
        let t1 = Value::Timestamp(Timestamp::from_secs(100));
        let t2 = Value::Timestamp(Timestamp::from_secs(200));
        let a = E::binary(BinaryOp::GtEq, E::col(0, 0), E::Literal(t1.clone()));
        let b = E::binary(BinaryOp::LtEq, E::col(0, 0), E::Literal(t2));
        assert_eq!(conjunct_satisfiable(&[a.clone(), b], &d), Sat3::Sat);
        let before = E::binary(BinaryOp::Lt, E::col(0, 0), E::Literal(t1));
        assert_eq!(conjunct_satisfiable(&[a, before], &d), Sat3::Unsat);
    }

    #[test]
    fn propagation_float_intervals() {
        let d = dom_fn(vec![ColumnDomain::Any(DataType::Float)]);
        let a = E::binary(BinaryOp::Gt, E::col(0, 0), E::lit(1.0f64));
        let b = E::binary(BinaryOp::Lt, E::col(0, 0), E::lit(1.5f64));
        assert_eq!(conjunct_satisfiable(&[a.clone(), b], &d), Sat3::Sat);
        // Open degenerate interval (1.0, 1.0) is empty.
        let c = E::binary(BinaryOp::Lt, E::col(0, 0), E::lit(1.0f64));
        assert_eq!(conjunct_satisfiable(&[a, c], &d), Sat3::Unsat);
    }

    #[test]
    fn propagation_text_unbounded() {
        let d = dom_fn(vec![ColumnDomain::Any(DataType::Text)]);
        // mach_id = 'Tao1' over infinite text domain: Sat.
        assert_eq!(conjunct_satisfiable(&[eq(0, "Tao1")], &d), Sat3::Sat);
        // NOT IN over infinite domain: Sat (excluded set is finite).
        let ni = E::InList {
            expr: Box::new(E::col(0, 0)),
            list: vec![E::lit("a"), E::lit("b")],
            negated: true,
        };
        assert_eq!(conjunct_satisfiable(&[ni], &d), Sat3::Sat);
        // Bounded text interval is undecided.
        let a = E::binary(BinaryOp::Gt, E::col(0, 0), E::lit("a"));
        let b = E::binary(BinaryOp::Lt, E::col(0, 0), E::lit("b"));
        assert_eq!(conjunct_satisfiable(&[a, b], &d), Sat3::Unknown);
    }

    #[test]
    fn null_comparisons_are_unsat() {
        let d = dom_fn(vec![ColumnDomain::Any(DataType::Text)]);
        let e = E::binary(BinaryOp::Eq, E::col(0, 0), E::Literal(Value::Null));
        assert_eq!(conjunct_satisfiable(&[e], &d), Sat3::Unsat);
        let e = E::IsNull {
            expr: Box::new(E::col(0, 0)),
            negated: false,
        };
        assert_eq!(conjunct_satisfiable(&[e], &d), Sat3::Unsat);
        let e = E::IsNull {
            expr: Box::new(E::col(0, 0)),
            negated: true,
        };
        assert_eq!(conjunct_satisfiable(&[e], &d), Sat3::Sat);
        let e = E::InList {
            expr: Box::new(E::col(0, 0)),
            list: vec![E::lit("a"), E::Literal(Value::Null)],
            negated: true,
        };
        assert_eq!(conjunct_satisfiable(&[e], &d), Sat3::Unsat);
    }

    #[test]
    fn equality_classes_intersect_domains() {
        // c0 = c1 where c0 ∈ {a,b} … but make domains too large for the
        // exhaustive engine by using Any for one side with literal pins.
        let doms = vec![
            ColumnDomain::Any(DataType::Text),
            ColumnDomain::Any(DataType::Text),
        ];
        let d = dom_fn(doms);
        // c0 = c1 AND c0 = 'x' AND c1 = 'y': the class's allowed set is
        // {x} ∩ {y} = ∅.
        let t1 = E::binary(BinaryOp::Eq, E::col(0, 0), E::col(0, 1));
        let t2 = eq(0, "x");
        let t3 = E::binary(BinaryOp::Eq, E::col(0, 1), E::lit("y"));
        assert_eq!(conjunct_satisfiable(&[t1, t2, t3], &d), Sat3::Unsat);
    }

    #[test]
    fn constants() {
        let d = dom_fn(vec![ColumnDomain::Any(DataType::Text)]);
        assert_eq!(
            conjunct_satisfiable(&[E::lit(true), eq(0, "a")], &d),
            Sat3::Sat
        );
        assert_eq!(
            conjunct_satisfiable(&[E::lit(false), eq(0, "a")], &d),
            Sat3::Unsat
        );
        // Constant arithmetic folds: 1 = 2 is Unsat.
        let c = E::binary(BinaryOp::Eq, E::lit(1i64), E::lit(2i64));
        assert_eq!(conjunct_satisfiable(&[c], &d), Sat3::Unsat);
    }

    #[test]
    fn unsupported_terms_yield_unknown_not_wrong() {
        let d = dom_fn(vec![
            ColumnDomain::Any(DataType::Int),
            ColumnDomain::Any(DataType::Int),
        ]);
        // c0 < c1 over infinite domains: propagation can't decide.
        let t = E::binary(BinaryOp::Lt, E::col(0, 0), E::col(0, 1));
        assert_eq!(
            conjunct_satisfiable(std::slice::from_ref(&t), &d),
            Sat3::Unknown
        );
        // But an Unsat from supported terms still wins.
        let contradiction = E::binary(BinaryOp::Eq, E::col(0, 0), E::lit(1i64));
        let contradiction2 = E::binary(BinaryOp::Eq, E::col(0, 0), E::lit(2i64));
        assert_eq!(
            conjunct_satisfiable(&[t, contradiction, contradiction2], &d),
            Sat3::Unsat
        );
    }

    #[test]
    fn in_list_intersections() {
        let d = dom_fn(vec![ColumnDomain::Any(DataType::Text)]);
        let in1 = E::InList {
            expr: Box::new(E::col(0, 0)),
            list: vec![E::lit("a"), E::lit("b")],
            negated: false,
        };
        let in2 = E::InList {
            expr: Box::new(E::col(0, 0)),
            list: vec![E::lit("b"), E::lit("c")],
            negated: false,
        };
        assert_eq!(
            conjunct_satisfiable(&[in1.clone(), in2.clone()], &d),
            Sat3::Sat
        );
        let ne = E::binary(BinaryOp::NotEq, E::col(0, 0), E::lit("b"));
        assert_eq!(conjunct_satisfiable(&[in1, in2, ne], &d), Sat3::Unsat);
    }

    #[test]
    fn numeric_cross_type_exclusion() {
        let d = dom_fn(vec![ColumnDomain::Any(DataType::Float)]);
        // x = 2 (int literal) AND x <> 2.0 (float literal) is Unsat.
        let a = E::binary(BinaryOp::Eq, E::col(0, 0), E::lit(2i64));
        let b = E::binary(BinaryOp::NotEq, E::col(0, 0), E::lit(2.0f64));
        assert_eq!(conjunct_satisfiable(&[a, b], &d), Sat3::Unsat);
    }

    #[test]
    fn term_implied_over_disjoint_domains() {
        // c0 <> c1 where the domains never overlap: implied by the empty
        // context (its negation c0 = c1 has no model).
        let d = dom_fn(vec![text_dom(&["m1", "m2"]), text_dom(&["idle", "busy"])]);
        let ne = E::binary(BinaryOp::NotEq, E::col(0, 0), E::col(0, 1));
        assert_eq!(term_implied(&[], &ne, &d), Some(true));
        // Overlapping domains refute the same implication.
        let d = dom_fn(vec![text_dom(&["m1", "m2"]), text_dom(&["m2", "m3"])]);
        assert_eq!(term_implied(&[], &ne, &d), Some(false));
        // A context pinning c0 away from the overlap restores it.
        let pin = eq(0, "m1");
        assert_eq!(term_implied(&[pin], &ne, &d), Some(true));
    }

    #[test]
    fn term_implied_abstains_when_undecidable() {
        // c0 < c1 over infinite int domains: the negation c0 >= c1 is
        // Unknown to both engines, so the implication must abstain.
        let d = dom_fn(vec![
            ColumnDomain::Any(DataType::Int),
            ColumnDomain::Any(DataType::Int),
        ]);
        let lt = E::binary(BinaryOp::Lt, E::col(0, 0), E::col(0, 1));
        assert_eq!(term_implied(&[], &lt, &d), None);
    }

    #[test]
    fn mixed_terms_vacuous_excludes_mixed_context() {
        use crate::classify::ClassifiedPredicates;
        // Two identical mixed terms must NOT justify each other: with the
        // mixed-free context empty and overlapping domains, neither is
        // implied, so the conjunct is not vacuous.
        let d = dom_fn(vec![text_dom(&["m1", "m2"]), text_dom(&["m2", "m3"])]);
        let ne = E::binary(BinaryOp::NotEq, E::col(0, 0), E::col(0, 1));
        let cls = ClassifiedPredicates {
            pm: vec![ne.clone(), ne.clone()],
            ..Default::default()
        };
        assert!(!mixed_terms_vacuous(&cls, &d));
        // A genuine P_s context (c0 = 'm1') implies both copies.
        let cls = ClassifiedPredicates {
            ps: vec![eq(0, "m1")],
            pm: vec![ne.clone(), ne],
            ..Default::default()
        };
        assert!(mixed_terms_vacuous(&cls, &d));
    }
}
