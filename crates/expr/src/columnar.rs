//! Columnar batches and vectorized expression evaluation.
//!
//! A [`ColumnarBatch`] is the unit of data flow in the vectorized
//! executor: up to a morsel's worth of tuples stored column-major — one
//! `Vec<Row>` per FROM slot (a *column of row handles*) plus a
//! selection vector of live lanes. Filters never move data: they shrink
//! the selection vector. Expression evaluation reads borrowed lanes: a
//! column is a vector of `&Value` pointing into the batch's rows
//! ([`ColumnarBatch::lane_values`]) and a literal is one `&Value` shared
//! by every lane, so a predicate clones no `Value` — comparisons, `[NOT]
//! IN`, `IS NULL`, `NOT` and `AND`/`OR` yield bare [`Truth`]s, and only
//! arithmetic and negation own the values they compute. Every node
//! applies the same scalar kernels as [`crate::eval::eval_expr`], so both
//! paths agree bit-for-bit on every value they produce; [`eval_vec`]
//! clones once, at the root, for the projections, sort keys and group
//! keys that need owned values.
//!
//! Error semantics: `eval_vec` is strict — if any live lane errors, the
//! batch errors (matching the scalar evaluator, which errors on the
//! first bad row). When one expression tree contains several failing
//! subexpressions the *identity* of the reported error can differ from
//! the scalar order (vectorized evaluation finishes each subexpression
//! across all lanes before combining), but presence of an error never
//! does. Predicate lanes keep the historic filter contract exactly:
//! a lane passes iff the conjunct evaluates to `TRUE`, and evaluation
//! errors count as "not true" ([`ColumnarBatch::apply_filter`] falls
//! back to per-lane scalar evaluation whenever a conjunct errors).

use crate::bound::BoundExpr;
use crate::eval::{arith, compare, eval_predicate, ord_passes, Truth};
use crate::ColRef;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;
use trac_sql::BinaryOp;
use trac_storage::Row;
use trac_types::{DataType, Result, TracError, Value};

/// What the typeflow analysis certified about one column lane — the
/// static license an unboxed typed kernel needs before it may replace
/// the boxed [`Value`] path for that lane.
///
/// The claims are *proofs*, not hints: `ty` is the schema-declared type
/// every stored value was coerced to on the write path, `non_null`
/// means no NULL can surface in the lane (schema `NOT NULL`, or a
/// write-time null count of zero), and `nan_free` means the catalog
/// min/max bounds prove no NaN was ever inserted (trivially true for
/// non-float lanes). The analyzer re-derives every claim independently
/// and reports `TRAC023` when a plan carries one it cannot prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneCert {
    /// Declared column type, enforced by write-time coercion.
    pub ty: DataType,
    /// No NULL can surface in this lane.
    pub non_null: bool,
    /// No NaN can surface in this lane (always true for non-floats).
    pub nan_free: bool,
}

impl LaneCert {
    /// Compact EXPLAIN marker for this lane: the lowercase type name,
    /// `?`-suffixed when the lane may hold NULLs (null-bitmap kernel),
    /// `~`-suffixed for a float lane that may hold NaNs.
    pub fn marker(&self) -> String {
        let mut m = self.ty.sql_name().to_ascii_lowercase();
        if !self.non_null {
            m.push('?');
        }
        if !self.nan_free {
            m.push('~');
        }
        m
    }
}

/// Per-plan certificate mapping `(FROM position, column)` lanes to the
/// typed-kernel licenses the lowering derived from the schema and the
/// write-time catalog statistics. Threaded through [`plan_select`] onto
/// the physical plan; the executor consults it before dispatching an
/// unboxed kernel, and EXPLAIN renders it as `[typed:…]` leaf markers.
///
/// [`plan_select`]: https://docs.rs/trac-plan
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelCert {
    lanes: BTreeMap<(usize, usize), LaneCert>,
}

impl KernelCert {
    /// Records the certificate for lane `(pos, column)`.
    pub fn insert(&mut self, pos: usize, column: usize, cert: LaneCert) {
        self.lanes.insert((pos, column), cert);
    }

    /// The certificate for lane `(pos, column)`, if one was derived.
    pub fn get(&self, pos: usize, column: usize) -> Option<&LaneCert> {
        self.lanes.get(&(pos, column))
    }

    /// The certificate for the lane a column reference names.
    pub fn lane(&self, c: ColRef) -> Option<&LaneCert> {
        self.get(c.table, c.column)
    }

    /// True when no lane is certified.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Number of certified lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Iterates all certified lanes in `(pos, column)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize), &LaneCert)> {
        self.lanes.iter()
    }

    /// EXPLAIN marker for the leaf at FROM position `pos`:
    /// `[typed:text,int?]` listing each certified lane in column order,
    /// or `None` when no lane of the leaf is certified.
    pub fn marker(&self, pos: usize) -> Option<String> {
        let lanes: Vec<String> = self
            .lanes
            .range((pos, 0)..(pos + 1, 0))
            .map(|(_, c)| c.marker())
            .collect();
        if lanes.is_empty() {
            None
        } else {
            Some(format!("[typed:{}]", lanes.join(",")))
        }
    }
}

/// An unboxed integer lane extracted from a certified mono-typed
/// column. `values[i]` is meaningless where `nulls[i]` is set; a lane
/// certified `non_null` carries no null bitmap at all.
#[derive(Debug, Clone)]
pub struct IntVec {
    /// Unboxed lane values, in selection order.
    pub values: Vec<i64>,
    /// Null bitmap (selection order), absent for null-free lanes.
    pub nulls: Option<Vec<bool>>,
}

/// An unboxed float lane extracted from a certified mono-typed column.
#[derive(Debug, Clone)]
pub struct FloatVec {
    /// Unboxed lane values, in selection order.
    pub values: Vec<f64>,
    /// Null bitmap (selection order), absent for null-free lanes.
    pub nulls: Option<Vec<bool>>,
}

/// A borrowed text lane extracted from a certified mono-typed column:
/// the `&str`s point into the batch's rows, so no `String` is cloned.
#[derive(Debug)]
pub struct TextVec<'a> {
    /// Borrowed lane values, in selection order.
    pub values: Vec<&'a str>,
    /// Null bitmap (selection order), absent for null-free lanes.
    pub nulls: Option<Vec<bool>>,
}

/// The comparison `op` with its operands swapped: `lit op col` becomes
/// `col flip(op) lit`.
fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// The error a lane extraction raises when the data contradicts its
/// certificate (a value outside the certified domain, or a NULL in a
/// lane certified null-free).
fn lane_violation(expected: &str, got: &Value) -> TracError {
    TracError::Execution(format!(
        "lane certificate violated: expected {expected}, found {}",
        got.type_name()
    ))
}

/// Fold of one typed comparison into a pass mask: a lane passes iff it
/// is non-NULL and its comparison against the literal is `TRUE` —
/// NULL and incomparable (NaN) lanes are `Unknown`, which the filter
/// contract treats as "not true".
fn cmp_mask<T>(
    values: &[T],
    nulls: Option<&Vec<bool>>,
    op: BinaryOp,
    cmp: impl Fn(&T) -> Option<Ordering>,
) -> Vec<bool> {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if nulls.is_some_and(|n| n[i]) {
                return false;
            }
            cmp(v).is_some_and(|o| ord_passes(op, o))
        })
        .collect()
}

impl IntVec {
    /// Pass mask of `lane op rhs` (SQL semantics: NULL lanes fail).
    pub fn cmp_mask(&self, op: BinaryOp, rhs: i64) -> Vec<bool> {
        cmp_mask(&self.values, self.nulls.as_ref(), op, |v| Some(v.cmp(&rhs)))
    }

    /// Pass mask of `lane op rhs` against a float literal, via the same
    /// widening `sql_cmp` applies to mixed numeric comparisons.
    pub fn cmp_mask_f64(&self, op: BinaryOp, rhs: f64) -> Vec<bool> {
        cmp_mask(&self.values, self.nulls.as_ref(), op, |v| {
            (*v as f64).partial_cmp(&rhs)
        })
    }

    /// Pass mask of `lane IN (keys)` (NULL lanes fail).
    pub fn in_mask(&self, keys: &[i64]) -> Vec<bool> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| !self.nulls.as_ref().is_some_and(|n| n[i]) && keys.contains(v))
            .collect()
    }

    /// Number of non-NULL lanes.
    pub fn count_non_null(&self) -> usize {
        match &self.nulls {
            None => self.values.len(),
            Some(n) => n.iter().filter(|x| !**x).count(),
        }
    }

    /// Wrapping sum over non-NULL lanes plus the lane count — the
    /// unboxed `SUM`/`AVG` kernel (`None` parts when every lane is NULL
    /// are the caller's concern via the count).
    pub fn sum(&self) -> (i64, u64) {
        let mut s = 0i64;
        let mut n = 0u64;
        for (i, v) in self.values.iter().enumerate() {
            if self.nulls.as_ref().is_some_and(|m| m[i]) {
                continue;
            }
            s = s.wrapping_add(*v);
            n += 1;
        }
        (s, n)
    }

    /// Smallest / largest non-NULL lane — the unboxed `MIN`/`MAX`
    /// kernel.
    pub fn extreme(&self, max: bool) -> Option<i64> {
        let mut best: Option<i64> = None;
        for (i, v) in self.values.iter().enumerate() {
            if self.nulls.as_ref().is_some_and(|m| m[i]) {
                continue;
            }
            best = Some(match best {
                None => *v,
                Some(b) if (max && *v > b) || (!max && *v < b) => *v,
                Some(b) => b,
            });
        }
        best
    }
}

impl FloatVec {
    /// Pass mask of `lane op rhs` (SQL semantics: NULL lanes fail, and
    /// NaN lanes fail every comparison — `partial_cmp` returns `None`
    /// exactly where `sql_cmp` does).
    pub fn cmp_mask(&self, op: BinaryOp, rhs: f64) -> Vec<bool> {
        cmp_mask(&self.values, self.nulls.as_ref(), op, |v| {
            v.partial_cmp(&rhs)
        })
    }

    /// Sum over non-NULL lanes plus the lane count.
    pub fn sum(&self) -> (f64, u64) {
        let mut s = 0.0f64;
        let mut n = 0u64;
        for (i, v) in self.values.iter().enumerate() {
            if self.nulls.as_ref().is_some_and(|m| m[i]) {
                continue;
            }
            s += *v;
            n += 1;
        }
        (s, n)
    }

    /// Smallest / largest non-NULL lane under SQL comparison: a lane
    /// incomparable with the running extreme (NaN) never replaces it,
    /// mirroring the boxed `MIN`/`MAX` fold byte for byte. On a lane
    /// certified NaN-free this is the plain IEEE order.
    pub fn extreme(&self, max: bool) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (i, v) in self.values.iter().enumerate() {
            if self.nulls.as_ref().is_some_and(|m| m[i]) {
                continue;
            }
            best = Some(match best {
                None => *v,
                Some(b) => {
                    let keep_new =
                        v.partial_cmp(&b)
                            .is_some_and(|o| if max { o.is_gt() } else { o.is_lt() });
                    if keep_new {
                        *v
                    } else {
                        b
                    }
                }
            });
        }
        best
    }

    /// Number of non-NULL lanes.
    pub fn count_non_null(&self) -> usize {
        match &self.nulls {
            None => self.values.len(),
            Some(n) => n.iter().filter(|x| !**x).count(),
        }
    }
}

impl TextVec<'_> {
    /// Pass mask of `lane op rhs` (SQL semantics: NULL lanes fail).
    pub fn cmp_mask(&self, op: BinaryOp, rhs: &str) -> Vec<bool> {
        cmp_mask(&self.values, self.nulls.as_ref(), op, |v| Some(v.cmp(&rhs)))
    }

    /// Pass mask of `lane IN (keys)` (NULL lanes fail).
    pub fn in_mask(&self, keys: &[&str]) -> Vec<bool> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| !self.nulls.as_ref().is_some_and(|n| n[i]) && keys.contains(v))
            .collect()
    }
}

/// A column-major batch of composite tuples with a selection vector.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    /// Number of FROM slots a full tuple has.
    width: usize,
    /// One column of row handles per FROM slot; `None` until a leaf or
    /// join populates the slot.
    slots: Vec<Option<Vec<Row>>>,
    /// Live lane ids, ascending. Filters shrink this instead of moving
    /// rows.
    sel: Vec<u32>,
}

fn placeholder_row() -> Row {
    Arc::from(Vec::new().into_boxed_slice())
}

impl ColumnarBatch {
    /// An empty batch of the given tuple width.
    pub fn empty(width: usize) -> ColumnarBatch {
        ColumnarBatch {
            width,
            slots: vec![None; width],
            sel: Vec::new(),
        }
    }

    /// A leaf batch: `rows` fill FROM slot `pos`, one lane per row, all
    /// lanes live.
    pub fn from_rows(width: usize, pos: usize, rows: Vec<Row>) -> ColumnarBatch {
        let lanes = rows.len();
        let mut slots = vec![None; width.max(pos + 1)];
        slots[pos] = Some(rows);
        ColumnarBatch {
            width: width.max(pos + 1),
            slots,
            sel: (0..lanes as u32).collect(),
        }
    }

    /// Builds a batch from row-major tuples (shorter tuples are padded
    /// with placeholder rows). All lanes are live.
    pub fn from_tuples(width: usize, tuples: &[Vec<Row>]) -> ColumnarBatch {
        let lanes = tuples.len();
        let width = width.max(tuples.iter().map(Vec::len).max().unwrap_or(0));
        let mut slots: Vec<Option<Vec<Row>>> = vec![None; width];
        for (s, slot) in slots.iter_mut().enumerate() {
            if tuples.iter().any(|t| t.len() > s) {
                let empty = placeholder_row();
                *slot = Some(
                    tuples
                        .iter()
                        .map(|t| t.get(s).cloned().unwrap_or_else(|| empty.clone()))
                        .collect(),
                );
            }
        }
        ColumnarBatch {
            width,
            slots,
            sel: (0..lanes as u32).collect(),
        }
    }

    /// Number of live lanes.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// True when no lane is live.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Tuple width (number of FROM slots).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Materializes one lane as a full-width row-major tuple.
    pub fn lane_tuple(&self, lane: u32) -> Vec<Row> {
        self.slots
            .iter()
            .map(|s| match s {
                Some(col) => col[lane as usize].clone(),
                None => placeholder_row(),
            })
            .collect()
    }

    /// Materializes the live lanes as row-major tuples, in selection
    /// order.
    pub fn to_tuples(&self) -> Vec<Vec<Row>> {
        self.sel.iter().map(|&l| self.lane_tuple(l)).collect()
    }

    /// The live rows of FROM slot `pos`, in selection order: the slot's
    /// own column, uncloned, when every lane is live; empty when the
    /// slot is unpopulated.
    pub fn into_slot_rows(mut self, pos: usize) -> Vec<Row> {
        let Some(col) = self.slots.get_mut(pos).and_then(Option::take) else {
            return Vec::new();
        };
        if self.sel.len() == col.len() {
            // `sel` is ascending and duplicate-free: every lane is live.
            return col;
        }
        self.sel.iter().map(|&l| col[l as usize].clone()).collect()
    }

    /// Keeps only the live lanes whose entry in `keep` (dense, selection
    /// order) is true.
    pub fn retain_lanes(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.sel.len());
        let mut i = 0;
        self.sel.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    /// Shared outer-major expansion behind the join gathers: replicates
    /// every live outer lane `counts[i]` times into fresh column
    /// vectors and places `inner` (one row per output lane, already in
    /// outer-major order) in FROM slot `pos`.
    fn join_expand(&self, pos: usize, counts: &[usize], inner: Vec<Row>) -> ColumnarBatch {
        debug_assert_eq!(counts.len(), self.sel.len());
        debug_assert_eq!(counts.iter().sum::<usize>(), inner.len());
        let width = self.width.max(pos + 1);
        let lanes = inner.len();
        let mut slots: Vec<Option<Vec<Row>>> = vec![None; width];
        for (s, out) in slots.iter_mut().enumerate().take(self.width) {
            if s == pos {
                continue;
            }
            if let Some(col) = &self.slots[s] {
                let mut v = Vec::with_capacity(lanes);
                for (i, &l) in self.sel.iter().enumerate() {
                    for _ in 0..counts[i] {
                        v.push(col[l as usize].clone());
                    }
                }
                *out = Some(v);
            }
        }
        slots[pos] = Some(inner);
        ColumnarBatch {
            width,
            slots,
            sel: (0..lanes as u32).collect(),
        }
    }

    /// Joins this batch against per-lane match lists: the output batch
    /// has one lane per (live lane, match) pair in outer-major order —
    /// the serial nested-loop expansion order — with the match row
    /// placed in FROM slot `pos`. `matches` is dense over the live
    /// lanes; its rows move into the output batch uncloned.
    pub fn join_extend(&self, pos: usize, matches: Vec<Vec<Row>>) -> ColumnarBatch {
        let counts: Vec<usize> = matches.iter().map(Vec::len).collect();
        self.join_expand(pos, &counts, matches.into_iter().flatten().collect())
    }

    /// [`Self::join_extend`] over borrowed match lists: each matched row
    /// is cloned exactly once, into the output batch, so probes can hand
    /// out build-side buckets (or one shared inner row set) without
    /// materializing per-lane copies first.
    pub fn join_extend_ref(&self, pos: usize, matches: &[&[Row]]) -> ColumnarBatch {
        let counts: Vec<usize> = matches.iter().map(|m| m.len()).collect();
        let inner = matches.iter().flat_map(|m| m.iter().cloned()).collect();
        self.join_expand(pos, &counts, inner)
    }

    /// [`Self::join_extend`] against a shared build-side row store:
    /// `matches` holds per-lane index lists into `rows`, and each
    /// matched row is gathered (cloned) exactly once, into the output
    /// batch. This is the hash-join probe path — the build rows are
    /// stored once and the buckets are plain `u32` lists.
    pub fn join_extend_indexed(
        &self,
        pos: usize,
        rows: &[Row],
        matches: &[&[u32]],
    ) -> ColumnarBatch {
        let counts: Vec<usize> = matches.iter().map(|m| m.len()).collect();
        let inner = matches
            .iter()
            .flat_map(|m| m.iter().map(|&i| rows[i as usize].clone()))
            .collect();
        self.join_expand(pos, &counts, inner)
    }

    /// Extracts the column `c` refers to as an unboxed integer lane.
    /// Errs when any live lane violates the certificate (`non_null`
    /// promised but NULL found, or a non-integer value) — callers treat
    /// that as "certificate unusable" and fall back to the boxed path.
    pub fn int_lane(&self, c: ColRef, non_null: bool) -> Result<IntVec> {
        let mut values = Vec::with_capacity(self.sel.len());
        let mut nulls = if non_null {
            None
        } else {
            Some(Vec::with_capacity(self.sel.len()))
        };
        for v in self.lane_values(c)? {
            match (v, &mut nulls) {
                (Value::Int(i), m) => {
                    values.push(*i);
                    if let Some(m) = m {
                        m.push(false);
                    }
                }
                (Value::Null, Some(m)) => {
                    values.push(0);
                    m.push(true);
                }
                (other, _) => return Err(lane_violation("INT", other)),
            }
        }
        Ok(IntVec { values, nulls })
    }

    /// Extracts the column `c` refers to as an unboxed float lane; same
    /// certificate-violation contract as [`ColumnarBatch::int_lane`].
    pub fn float_lane(&self, c: ColRef, non_null: bool) -> Result<FloatVec> {
        let mut values = Vec::with_capacity(self.sel.len());
        let mut nulls = if non_null {
            None
        } else {
            Some(Vec::with_capacity(self.sel.len()))
        };
        for v in self.lane_values(c)? {
            match (v, &mut nulls) {
                (Value::Float(f), m) => {
                    values.push(*f);
                    if let Some(m) = m {
                        m.push(false);
                    }
                }
                (Value::Null, Some(m)) => {
                    values.push(0.0);
                    m.push(true);
                }
                (other, _) => return Err(lane_violation("FLOAT", other)),
            }
        }
        Ok(FloatVec { values, nulls })
    }

    /// Extracts the column `c` refers to as a borrowed text lane; same
    /// certificate-violation contract as [`ColumnarBatch::int_lane`].
    pub fn text_lane(&self, c: ColRef, non_null: bool) -> Result<TextVec<'_>> {
        let mut values = Vec::with_capacity(self.sel.len());
        let mut nulls = if non_null {
            None
        } else {
            Some(Vec::with_capacity(self.sel.len()))
        };
        for v in self.lane_values(c)? {
            match (v, &mut nulls) {
                (Value::Text(s), m) => {
                    values.push(s.as_str());
                    if let Some(m) = m {
                        m.push(false);
                    }
                }
                (Value::Null, Some(m)) => {
                    values.push("");
                    m.push(true);
                }
                (other, _) => return Err(lane_violation("TEXT", other)),
            }
        }
        Ok(TextVec { values, nulls })
    }

    /// Borrowed view of the column `c` refers to over the live lanes,
    /// in selection order (no `Value` clones). Errs when the batch has
    /// no such slot or a live row no such column.
    pub fn lane_values(&self, c: ColRef) -> Result<impl Iterator<Item = &Value>> {
        let col = self
            .slots
            .get(c.table)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| TracError::Execution(format!("tuple has no table slot {}", c.table)))?;
        if let Some(&l) = self
            .sel
            .iter()
            .find(|&&l| col[l as usize].len() <= c.column)
        {
            return Err(TracError::Execution(format!(
                "row {l} has no column {}",
                c.column
            )));
        }
        Ok(self.sel.iter().map(move |&l| &col[l as usize][c.column]))
    }

    /// Applies conjunctive filters by shrinking the selection vector: a
    /// lane survives iff every conjunct evaluates to `TRUE` on it
    /// (errors count as "not true", the historic filter contract). A
    /// conjunct of the shape `column op literal` (or `column IN (…)`)
    /// whose lane `cert` certifies runs through the unboxed kernel for
    /// the certified type; everything else takes the boxed mask, so an
    /// empty certificate is the boxed reference. Identical pass/fail
    /// semantics either way — debug builds cross-check every mask
    /// against the scalar evaluator lane by lane.
    pub fn apply_filter(&mut self, conjuncts: &[BoundExpr], cert: &KernelCert) {
        for c in conjuncts {
            if self.sel.is_empty() {
                return;
            }
            let mask = self
                .typed_mask(c, cert)
                .unwrap_or_else(|| self.filter_mask(c));
            #[cfg(debug_assertions)]
            for (i, &l) in self.sel.iter().enumerate() {
                let scalar = matches!(eval_predicate(c, &self.lane_tuple(l)), Ok(Truth::True));
                debug_assert_eq!(
                    mask[i], scalar,
                    "vectorized filter diverged from scalar eval on lane {l}"
                );
            }
            self.retain_lanes(&mask);
        }
    }

    /// The unboxed pass mask for one conjunct, or `None` when the
    /// conjunct's shape or lane certificate does not admit a typed
    /// kernel (including a certificate the data contradicts — the boxed
    /// path stays the reference in that case).
    fn typed_mask(&self, conjunct: &BoundExpr, cert: &KernelCert) -> Option<Vec<bool>> {
        match conjunct {
            BoundExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
                let (c, lit, op) = match (lhs.as_ref(), rhs.as_ref()) {
                    (BoundExpr::Column(c), BoundExpr::Literal(v)) => (*c, v, *op),
                    (BoundExpr::Literal(v), BoundExpr::Column(c)) => (*c, v, flip(*op)),
                    _ => return None,
                };
                let lane = cert.lane(c)?;
                match (lane.ty, lit) {
                    (DataType::Int, Value::Int(k)) => {
                        Some(self.int_lane(c, lane.non_null).ok()?.cmp_mask(op, *k))
                    }
                    (DataType::Int, Value::Float(k)) => {
                        Some(self.int_lane(c, lane.non_null).ok()?.cmp_mask_f64(op, *k))
                    }
                    (DataType::Float, lit) => {
                        let k = lit.as_f64()?;
                        Some(self.float_lane(c, lane.non_null).ok()?.cmp_mask(op, k))
                    }
                    (DataType::Text, Value::Text(s)) => {
                        Some(self.text_lane(c, lane.non_null).ok()?.cmp_mask(op, s))
                    }
                    _ => None,
                }
            }
            BoundExpr::InList {
                expr,
                list,
                negated: false,
            } => {
                let BoundExpr::Column(c) = expr.as_ref() else {
                    return None;
                };
                let lane = cert.lane(*c)?;
                match lane.ty {
                    DataType::Int => {
                        let keys: Vec<i64> = list
                            .iter()
                            .map(|e| match e {
                                BoundExpr::Literal(Value::Int(k)) => Some(*k),
                                _ => None,
                            })
                            .collect::<Option<_>>()?;
                        Some(self.int_lane(*c, lane.non_null).ok()?.in_mask(&keys))
                    }
                    DataType::Text => {
                        let keys: Vec<&str> = list
                            .iter()
                            .map(|e| match e {
                                BoundExpr::Literal(Value::Text(s)) => Some(s.as_str()),
                                _ => None,
                            })
                            .collect::<Option<_>>()?;
                        Some(self.text_lane(*c, lane.non_null).ok()?.in_mask(&keys))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// One conjunct's pass/fail mask over the live lanes, read straight
    /// off the borrowed evaluation. If any lane errors, falls back to
    /// per-lane scalar evaluation so error lanes (and only those) fail.
    fn filter_mask(&self, conjunct: &BoundExpr) -> Vec<bool> {
        match eval_lanes(conjunct, self) {
            Ok(lanes) => (0..self.len())
                .map(|i| matches!(lanes.truth(i), Ok(Truth::True)))
                .collect(),
            Err(_) => self
                .sel
                .iter()
                .map(|&l| {
                    matches!(
                        eval_predicate(conjunct, &self.lane_tuple(l)),
                        Ok(Truth::True)
                    )
                })
                .collect(),
        }
    }
}

/// One subexpression's values over the live lanes of a batch, in
/// selection order. Values that already exist are borrowed, never
/// cloned: a column reads its rows in place and a literal is one value
/// shared by every lane. Predicates carry bare [`Truth`]s; only
/// arithmetic and negation own the values they compute.
enum Lanes<'a> {
    /// One value broadcast to every lane (a literal).
    Splat(&'a Value),
    /// One borrowed value per lane (a column).
    Refs(Vec<&'a Value>),
    /// One computed value per lane.
    Owned(Vec<Value>),
    /// One truth value per lane (a predicate).
    Truths(Vec<Truth>),
}

/// The [`Value`]s a [`Truth`] lane reads as, for the consumers that
/// take a predicate as a value (`(a = b) IS NULL`, `eval_vec`'s root).
static TRUE: Value = Value::Bool(true);
static FALSE: Value = Value::Bool(false);
static NULL: Value = Value::Null;

impl Lanes<'_> {
    /// Lane `i`'s value.
    fn get(&self, i: usize) -> &Value {
        match self {
            Lanes::Splat(v) => v,
            Lanes::Refs(v) => v[i],
            Lanes::Owned(v) => &v[i],
            Lanes::Truths(t) => match t[i] {
                Truth::True => &TRUE,
                Truth::False => &FALSE,
                Truth::Unknown => &NULL,
            },
        }
    }

    /// Lane `i`'s truth value; errs where the value is not a boolean.
    fn truth(&self, i: usize) -> Result<Truth> {
        match self {
            Lanes::Truths(t) => Ok(t[i]),
            other => Truth::of_value(other.get(i)),
        }
    }

    /// The `n` lanes as owned values — the one place evaluation clones.
    fn into_values(self, n: usize) -> Vec<Value> {
        match self {
            Lanes::Splat(v) => vec![v.clone(); n],
            Lanes::Refs(v) => v.into_iter().cloned().collect(),
            Lanes::Owned(v) => v,
            Lanes::Truths(t) => t.into_iter().map(Truth::to_value).collect(),
        }
    }
}

/// Evaluates `expr` over the live lanes of `batch` as borrowed
/// [`Lanes`]. Strict: if any live lane errors, the whole evaluation
/// errors.
fn eval_lanes<'a>(expr: &'a BoundExpr, batch: &'a ColumnarBatch) -> Result<Lanes<'a>> {
    let n = batch.len();
    Ok(match expr {
        BoundExpr::Column(c) => Lanes::Refs(batch.lane_values(*c)?.collect()),
        BoundExpr::Literal(v) => Lanes::Splat(v),
        BoundExpr::Binary { op, lhs, rhs } => {
            let l = eval_lanes(lhs, batch)?;
            let r = eval_lanes(rhs, batch)?;
            if matches!(op, BinaryOp::And | BinaryOp::Or) {
                Lanes::Truths(
                    (0..n)
                        .map(|i| {
                            let (a, b) = (l.truth(i)?, r.truth(i)?);
                            Ok(match op {
                                BinaryOp::And => a.and(b),
                                _ => a.or(b),
                            })
                        })
                        .collect::<Result<_>>()?,
                )
            } else if op.is_comparison() {
                Lanes::Truths((0..n).map(|i| compare(*op, l.get(i), r.get(i))).collect())
            } else {
                Lanes::Owned(
                    (0..n)
                        .map(|i| arith(*op, l.get(i), r.get(i)))
                        .collect::<Result<_>>()?,
                )
            }
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let needles = eval_lanes(expr, batch)?;
            let items: Vec<Lanes<'_>> = list
                .iter()
                .map(|e| eval_lanes(e, batch))
                .collect::<Result<_>>()?;
            Lanes::Truths(
                (0..n)
                    .map(|i| {
                        let needle = needles.get(i);
                        let mut truth = Truth::False;
                        for item in &items {
                            match needle.sql_eq(item.get(i)) {
                                Some(true) => {
                                    truth = Truth::True;
                                    break;
                                }
                                Some(false) => {}
                                None => truth = Truth::Unknown,
                            }
                        }
                        if *negated {
                            truth.not()
                        } else {
                            truth
                        }
                    })
                    .collect(),
            )
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval_lanes(expr, batch)?;
            Lanes::Truths(
                (0..n)
                    .map(|i| Truth::from_bool(v.get(i).is_null() != *negated))
                    .collect(),
            )
        }
        BoundExpr::Not(e) => {
            let v = eval_lanes(e, batch)?;
            Lanes::Truths(
                (0..n)
                    .map(|i| Ok(v.truth(i)?.not()))
                    .collect::<Result<_>>()?,
            )
        }
        BoundExpr::Neg(e) => {
            let v = eval_lanes(e, batch)?;
            Lanes::Owned(
                (0..n)
                    .map(|i| match v.get(i) {
                        Value::Null => Ok(Value::Null),
                        Value::Int(x) => Ok(Value::Int(-x)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(TracError::Type(format!(
                            "cannot negate {}",
                            other.type_name()
                        ))),
                    })
                    .collect::<Result<_>>()?,
            )
        }
    })
}

/// Vectorized expression evaluation: one output [`Value`] per live lane
/// of `batch`, in selection order. The vectorized twin of
/// [`crate::eval::eval_expr`], built from the same scalar kernels over
/// borrowed lanes; the values are cloned once, here at the root.
pub fn eval_vec(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Vec<Value>> {
    Ok(eval_lanes(expr, batch)?.into_values(batch.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::BoundExpr as E;
    use crate::eval::eval_expr;

    fn row(vals: Vec<Value>) -> Row {
        Arc::from(vals.into_boxed_slice())
    }

    fn batch() -> ColumnarBatch {
        ColumnarBatch::from_rows(
            1,
            0,
            vec![
                row(vec![Value::Int(1), Value::text("idle")]),
                row(vec![Value::Int(2), Value::text("busy")]),
                row(vec![Value::Null, Value::text("idle")]),
                row(vec![Value::Int(4), Value::Null]),
            ],
        )
    }

    #[test]
    fn eval_vec_matches_scalar_eval() {
        let b = batch();
        let exprs = [
            E::binary(BinaryOp::Lt, E::col(0, 0), E::lit(3i64)),
            E::binary(BinaryOp::Eq, E::col(0, 1), E::lit("idle")),
            E::binary(BinaryOp::Add, E::col(0, 0), E::lit(10i64)),
            E::InList {
                expr: Box::new(E::col(0, 1)),
                list: vec![E::lit("idle"), E::lit("gone")],
                negated: false,
            },
            E::IsNull {
                expr: Box::new(E::col(0, 0)),
                negated: false,
            },
            E::Neg(Box::new(E::col(0, 0))),
            E::binary(
                BinaryOp::And,
                E::binary(BinaryOp::Gt, E::col(0, 0), E::lit(1i64)),
                E::binary(BinaryOp::Eq, E::col(0, 1), E::lit("busy")),
            ),
        ];
        for e in &exprs {
            let vec_vals = eval_vec(e, &b).unwrap();
            for (i, t) in b.to_tuples().iter().enumerate() {
                assert_eq!(vec_vals[i], eval_expr(e, t).unwrap(), "expr {e:?} lane {i}");
            }
        }
    }

    #[test]
    fn filter_shrinks_selection_only() {
        let mut b = batch();
        let p = E::binary(BinaryOp::Lt, E::col(0, 0), E::lit(4i64));
        b.apply_filter(std::slice::from_ref(&p), &KernelCert::default());
        // NULL lane is unknown (dropped), 4 fails, 1 and 2 survive.
        assert_eq!(b.len(), 2);
        let col = eval_vec(&E::col(0, 0), &b).unwrap();
        assert_eq!(col, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn erroring_conjunct_drops_only_error_lanes() {
        // col0 + 'x' errors on non-null lanes; scalar filter semantics
        // say those lanes are "not true". The text lane makes the whole
        // vector eval fail, exercising the per-lane fallback.
        let mut b = ColumnarBatch::from_rows(
            1,
            0,
            vec![
                row(vec![Value::Int(1)]),
                row(vec![Value::text("boom")]),
                row(vec![Value::Int(3)]),
            ],
        );
        let p = E::binary(
            BinaryOp::Gt,
            E::binary(BinaryOp::Add, E::col(0, 0), E::col(0, 0)),
            E::lit(2i64),
        );
        b.apply_filter(std::slice::from_ref(&p), &KernelCert::default());
        assert_eq!(b.len(), 1);
        assert_eq!(eval_vec(&E::col(0, 0), &b).unwrap(), vec![Value::Int(3)]);
    }

    /// Lanes `(a INT, b FLOAT, x INT)` with a NULL in `a`, a NULL and a
    /// NaN in `b`, and a zero divisor in `x`.
    fn mixed_batch() -> ColumnarBatch {
        ColumnarBatch::from_rows(
            1,
            0,
            vec![
                row(vec![Value::Int(1), Value::Float(1.0), Value::Int(0)]),
                row(vec![Value::Null, Value::Float(2.5), Value::Int(5)]),
                row(vec![Value::Int(3), Value::Null, Value::Int(2)]),
                row(vec![Value::Int(2), Value::Float(f64::NAN), Value::Int(10)]),
                row(vec![Value::Int(4), Value::Float(4.0), Value::Int(1)]),
            ],
        )
    }

    /// The borrowed mask for `p`, after checking it equals the scalar
    /// evaluator's verdict lane by lane.
    fn checked_mask(b: &ColumnarBatch, p: &BoundExpr) -> Vec<bool> {
        let mask = b.filter_mask(p);
        let scalar: Vec<bool> = b
            .to_tuples()
            .iter()
            .map(|t| matches!(eval_predicate(p, t), Ok(Truth::True)))
            .collect();
        assert_eq!(mask, scalar, "borrowed mask vs eval_predicate for {p:?}");
        mask
    }

    fn in_list(needle: BoundExpr, list: Vec<BoundExpr>, negated: bool) -> BoundExpr {
        E::InList {
            expr: Box::new(needle),
            list,
            negated,
        }
    }

    #[test]
    fn borrowed_in_masks_follow_three_valued_logic() {
        let b = mixed_batch();
        let null = E::Literal(Value::Null);
        // A NULL needle is unknown under NOT IN: lane 1 fails.
        let p = in_list(E::col(0, 0), vec![E::lit(1i64), E::lit(2i64)], true);
        assert_eq!(checked_mask(&b, &p), [false, false, true, false, true]);
        // A NULL list item makes NOT IN never TRUE.
        let p = in_list(E::col(0, 0), vec![E::lit(1i64), null.clone()], true);
        assert_eq!(checked_mask(&b, &p), [false; 5]);
        // …while IN still passes the lanes that hit a non-NULL item, and
        // compares INT needles against FLOAT items by value.
        let p = in_list(E::col(0, 0), vec![E::lit(3.0f64), null], false);
        assert_eq!(checked_mask(&b, &p), [false, false, true, false, false]);
    }

    #[test]
    fn borrowed_column_comparisons_fail_null_and_nan_lanes() {
        let b = mixed_batch();
        let (a, fb) = (E::col(0, 0), E::col(0, 1));
        // Column against column, INT against FLOAT: NULL on either side
        // (lanes 1, 2) and the NaN lane (3) are unknown.
        let p = E::binary(BinaryOp::Eq, a.clone(), fb.clone());
        assert_eq!(checked_mask(&b, &p), [true, false, false, false, true]);
        let p = E::binary(BinaryOp::LtEq, fb.clone(), a.clone());
        assert_eq!(checked_mask(&b, &p), [true, false, false, false, true]);
        let p = E::binary(BinaryOp::Lt, a, E::lit(2.5f64));
        assert_eq!(checked_mask(&b, &p), [true, false, false, true, false]);
        // NaN is incomparable even with itself: `b <> b` and
        // `NOT (b = b)` are unknown on lane 3, never TRUE.
        let p = E::binary(BinaryOp::NotEq, fb.clone(), fb.clone());
        assert_eq!(checked_mask(&b, &p), [false; 5]);
        let p = E::Not(Box::new(E::binary(BinaryOp::Eq, fb.clone(), fb.clone())));
        assert_eq!(checked_mask(&b, &p), [false; 5]);
        let p = E::binary(BinaryOp::Gt, fb, E::lit(2i64));
        assert_eq!(checked_mask(&b, &p), [false, true, false, false, true]);
    }

    #[test]
    fn erroring_conjunct_drops_only_its_own_lane() {
        let mut b = mixed_batch();
        // 10 / x errors on lane 0 only (x = 0).
        let p = E::binary(
            BinaryOp::Gt,
            E::binary(BinaryOp::Div, E::lit(10i64), E::col(0, 2)),
            E::lit(1i64),
        );
        assert!(eval_vec(&p, &b).is_err(), "the strict evaluation errs");
        assert_eq!(checked_mask(&b, &p), [false, true, true, false, true]);
        let guarded = E::binary(
            BinaryOp::And,
            E::IsNull {
                expr: Box::new(E::col(0, 0)),
                negated: true,
            },
            p.clone(),
        );
        assert_eq!(
            checked_mask(&b, &guarded),
            [false, false, true, false, true]
        );
        b.apply_filter(&[p], &KernelCert::default());
        assert_eq!(
            eval_vec(&E::col(0, 2), &b).unwrap(),
            [Value::Int(5), Value::Int(2), Value::Int(1)]
        );
    }

    #[test]
    fn eval_vec_projections_equal_eval_expr() {
        let b = mixed_batch();
        let projections = [
            E::col(0, 1),
            E::lit("k"),
            E::binary(BinaryOp::Add, E::col(0, 0), E::col(0, 2)),
            E::binary(BinaryOp::Mul, E::col(0, 1), E::lit(2i64)),
            E::Neg(Box::new(E::col(0, 1))),
            E::binary(BinaryOp::Lt, E::col(0, 0), E::col(0, 1)),
            in_list(
                E::col(0, 0),
                vec![E::lit(1i64), E::Literal(Value::Null)],
                false,
            ),
            E::IsNull {
                expr: Box::new(E::binary(BinaryOp::Eq, E::col(0, 1), E::col(0, 1))),
                negated: false,
            },
        ];
        for e in &projections {
            let got = eval_vec(e, &b).unwrap();
            let want: Vec<Value> = b
                .to_tuples()
                .iter()
                .map(|t| eval_expr(e, t).unwrap())
                .collect();
            assert_eq!(got, want, "expr {e:?}");
        }
    }

    fn cert_int_text() -> KernelCert {
        let mut cert = KernelCert::default();
        cert.insert(
            0,
            0,
            LaneCert {
                ty: DataType::Int,
                non_null: false,
                nan_free: true,
            },
        );
        cert.insert(
            0,
            1,
            LaneCert {
                ty: DataType::Text,
                non_null: false,
                nan_free: true,
            },
        );
        cert
    }

    #[test]
    fn typed_filter_matches_boxed_filter() {
        let cert = cert_int_text();
        let preds = [
            E::binary(BinaryOp::Lt, E::col(0, 0), E::lit(3i64)),
            E::binary(BinaryOp::Gt, E::lit(2i64), E::col(0, 0)),
            E::binary(BinaryOp::GtEq, E::col(0, 0), E::lit(2.5f64)),
            E::binary(BinaryOp::NotEq, E::col(0, 1), E::lit("idle")),
            E::InList {
                expr: Box::new(E::col(0, 0)),
                list: vec![E::lit(1i64), E::lit(4i64)],
                negated: false,
            },
            E::InList {
                expr: Box::new(E::col(0, 1)),
                list: vec![E::lit("idle"), E::lit("gone")],
                negated: false,
            },
        ];
        for p in &preds {
            let mut typed = batch();
            let mut boxed = batch();
            typed.apply_filter(std::slice::from_ref(p), &cert);
            boxed.apply_filter(std::slice::from_ref(p), &KernelCert::default());
            assert_eq!(typed.sel, boxed.sel, "pred {p:?}");
            // The shapes above must actually hit the typed kernels.
            assert!(batch().typed_mask(p, &cert).is_some(), "pred {p:?}");
        }
    }

    #[test]
    fn typed_mask_declines_uncertified_shapes() {
        let b = batch();
        let cert = cert_int_text();
        // Column-vs-column, negated IN, and uncertified lanes all fall
        // back to the boxed path.
        let col_col = E::binary(BinaryOp::Eq, E::col(0, 0), E::col(0, 0));
        assert!(b.typed_mask(&col_col, &cert).is_none());
        let negated = E::InList {
            expr: Box::new(E::col(0, 0)),
            list: vec![E::lit(1i64)],
            negated: true,
        };
        assert!(b.typed_mask(&negated, &cert).is_none());
        let other_lane = E::binary(BinaryOp::Eq, E::col(1, 0), E::lit(1i64));
        assert!(b.typed_mask(&other_lane, &cert).is_none());
    }

    #[test]
    fn lane_extraction_enforces_certificates() {
        let b = batch();
        let c0 = ColRef {
            table: 0,
            column: 0,
        };
        // Lane 2 is NULL: a non_null extraction must refuse it…
        assert!(b.int_lane(c0, true).is_err());
        // …while a null-bitmap extraction records it.
        let lane = b.int_lane(c0, false).unwrap();
        assert_eq!(lane.values.len(), 4);
        assert_eq!(
            lane.nulls.as_deref(),
            Some(&[false, false, true, false][..])
        );
        assert_eq!(lane.count_non_null(), 3);
        // Type mismatch (text column as int) is a violation either way.
        let c1 = ColRef {
            table: 0,
            column: 1,
        };
        assert!(b.int_lane(c1, false).is_err());
        let text = b.text_lane(c1, false).unwrap();
        assert_eq!(text.values[0], "idle");
    }

    #[test]
    fn typed_aggregate_kernels_match_scalar_folds() {
        let ints = IntVec {
            values: vec![5, 0, -2, 9],
            nulls: Some(vec![false, true, false, false]),
        };
        assert_eq!(ints.sum(), (12, 3));
        assert_eq!(ints.extreme(false), Some(-2));
        assert_eq!(ints.extreme(true), Some(9));
        let floats = FloatVec {
            values: vec![1.5, f64::NAN, -3.0],
            nulls: None,
        };
        // NaN never replaces a running extreme (SQL comparison order).
        assert_eq!(floats.extreme(false), Some(-3.0));
        assert_eq!(floats.extreme(true), Some(1.5));
        let (s, n) = floats.sum();
        assert!(s.is_nan());
        assert_eq!(n, 3);
        let all_null = IntVec {
            values: vec![0],
            nulls: Some(vec![true]),
        };
        assert_eq!(all_null.extreme(true), None);
        assert_eq!(all_null.sum(), (0, 0));
    }

    #[test]
    fn explain_markers_summarize_lanes() {
        let mut cert = cert_int_text();
        cert.insert(
            1,
            0,
            LaneCert {
                ty: DataType::Float,
                non_null: true,
                nan_free: false,
            },
        );
        assert_eq!(cert.marker(0).as_deref(), Some("[typed:int?,text?]"));
        assert_eq!(cert.marker(1).as_deref(), Some("[typed:float~]"));
        assert_eq!(cert.marker(2), None);
        assert_eq!(cert.len(), 3);
    }

    #[test]
    fn join_extend_expands_outer_major() {
        let outer = ColumnarBatch::from_rows(
            2,
            0,
            vec![row(vec![Value::Int(1)]), row(vec![Value::Int(2)])],
        );
        let m1 = row(vec![Value::text("a")]);
        let m2 = row(vec![Value::text("b")]);
        let joined = outer.join_extend(1, vec![vec![m1, m2.clone()], vec![m2]]);
        assert_eq!(joined.len(), 3);
        let outer_col = eval_vec(&E::col(0, 0), &joined).unwrap();
        assert_eq!(outer_col, vec![Value::Int(1), Value::Int(1), Value::Int(2)]);
        let inner_col = eval_vec(&E::col(1, 0), &joined).unwrap();
        assert_eq!(
            inner_col,
            vec![Value::text("a"), Value::text("b"), Value::text("b")]
        );
    }

    #[test]
    fn borrowed_and_indexed_gathers_match_the_owned_join() {
        let outer = ColumnarBatch::from_rows(
            2,
            0,
            vec![
                row(vec![Value::Int(1)]),
                row(vec![Value::Int(2)]),
                row(vec![Value::Int(3)]),
            ],
        );
        let store = [row(vec![Value::text("a")]), row(vec![Value::text("b")])];
        // Owned per-lane lists (the reference), borrowed slices, and
        // index lists into the shared store must gather identically.
        let owned = outer.join_extend(
            1,
            vec![
                vec![store[0].clone(), store[1].clone()],
                vec![],
                vec![store[1].clone()],
            ],
        );
        let refs: Vec<&[Row]> = vec![&store[..], &[], &store[1..]];
        let borrowed = outer.join_extend_ref(1, &refs);
        let idx: Vec<&[u32]> = vec![&[0, 1], &[], &[1]];
        let indexed = outer.join_extend_indexed(1, &store, &idx);
        for joined in [&borrowed, &indexed] {
            assert_eq!(joined.len(), owned.len());
            for col in [E::col(0, 0), E::col(1, 0)] {
                assert_eq!(
                    eval_vec(&col, joined).unwrap(),
                    eval_vec(&col, &owned).unwrap()
                );
            }
        }
    }
}
