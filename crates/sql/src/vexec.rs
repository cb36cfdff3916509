//! Vectorized columnar execution of [`SelectPlan`]s — the engine's one
//! production evaluator.
//!
//! The executor runs over the database's cached columnar form
//! ([`nli_core::ColumnBatch`]) instead of cloning `Vec<Value>` rows:
//! intermediate state is a *selection vector* per FROM entry (base-row
//! indices), and expression evaluation happens in typed batch kernels
//! ([`VCol`]) over chunks of [`batch_rows`] positions. It never reads the
//! row store.
//!
//! ## Conformance contract
//!
//! The tree-walk interpreter ([`crate::interp`]) defines the semantics,
//! up to the pushdown divergences it documents; this module must match
//! it *exactly* — same rows, same row order, same errors — because the
//! differential tests and the fuzz oracle compare results bit-for-bit.
//! Three rules make that hold by construction:
//!
//! 1. **Kernels are total and report the first failing position.**
//!    [`eval_vcol`] returns either a value for every position of the chunk
//!    or a [`Fail`]: the first position at which one expression node
//!    fails, with that node's error. Positions outside the typed fast
//!    paths — a non-numeric arithmetic operand, a non-boolean
//!    `AND`/`OR`/`NOT` operand, `Mixed` storage — go through the scalar
//!    operators the interpreter uses ([`exec::eval_binary`],
//!    [`exec::eval_not`]) in the generic [`VCol::Any`] lane, so they yield
//!    the same value or the same error text. Every evaluation site runs
//!    through [`eval_site`], which narrows a failure to the first failing
//!    position and reports the error row-at-a-time evaluation raises
//!    there; a statement's error therefore does not depend on the chunk
//!    size.
//! 2. **Join keys hash the legacy equality.** Typed `i64` keys are used
//!    only when both key columns are [`ColumnData::Int`]; every other
//!    combination falls back to [`Value::canonical`] string keys, which is
//!    precisely the equivalence the row executor hashed.
//! 3. **Row order is restored.** The legacy joined stream is ordered
//!    lexicographically by the tuple of per-FROM-entry base-row indices.
//!    When the cost-based `exec_order` (or a prefix-side hash build)
//!    perturbs that order, a final sort over those tuples restores it
//!    bit-exactly before the residual filter runs.
//!
//! Chunk size is [`DEFAULT_BATCH_ROWS`] rows, overridable per call tree
//! with [`with_batch_rows`] (used by the conformance tests to exercise odd
//! sizes).

use crate::ast::{AggFunc, BinOp};
use crate::exec::{self, ResultSet};
use crate::explain::{OpStats, SelectProfile};
use crate::plan::{BuildSide, DmlPlan, IndexProbe, JoinKind, PlanExpr, ScanNode, SelectPlan};
use nli_core::{
    obs, ColumnBatch, ColumnData, ColumnVector, Database, Date, DmlOp, NliError, Result, Value,
};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// Default number of positions per evaluation chunk.
pub(crate) const DEFAULT_BATCH_ROWS: usize = 4096;

thread_local! {
    static BATCH_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with the vectorized executor's chunk size forced to `n` rows
/// (minimum 1) on this thread. Used by tests to prove results are
/// invariant under chunking; nested calls restore the previous value.
pub fn with_batch_rows<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let prev = BATCH_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let out = f();
    BATCH_OVERRIDE.with(|c| c.set(prev));
    out
}

/// Effective chunk size: the thread override, else [`DEFAULT_BATCH_ROWS`].
fn batch_rows() -> usize {
    BATCH_OVERRIDE
        .with(|c| c.get())
        .unwrap_or(DEFAULT_BATCH_ROWS)
}

/// Number of chunks a stage over `rows` input rows processes (the
/// `batches` OpStats field); at least 1 so empty inputs still count the
/// single (empty) pass.
fn chunk_count(rows: usize) -> u64 {
    (rows.div_ceil(batch_rows())).max(1) as u64
}

/// `[a, b)` windows of at most [`batch_rows`] positions covering `0..len`.
fn windows(len: usize) -> impl Iterator<Item = (usize, usize)> {
    let bs = batch_rows();
    (0..len).step_by(bs).map(move |a| (a, (a + bs).min(len)))
}

// ---------------------------------------------------------------------------
// Chunks: a window of positions over selected base rows
// ---------------------------------------------------------------------------

/// Which base rows a chunk column reads: a contiguous base-row range
/// starting at the given row (scan stage; the chunk's `len` bounds it) or
/// a slice of a selection vector (post-join stages).
#[derive(Clone, Copy)]
enum Rows<'s> {
    Range(usize),
    Sel(&'s [u32]),
}

impl<'s> Rows<'s> {
    #[inline]
    fn get(&self, i: usize) -> usize {
        match self {
            Rows::Range(a) => a + i,
            Rows::Sel(s) => s[i] as usize,
        }
    }

    /// Positions `[a, b)` of these rows.
    fn window(self, a: usize, b: usize) -> Rows<'s> {
        match self {
            Rows::Range(start) => Rows::Range(start + a),
            Rows::Sel(s) => Rows::Sel(&s[a..b]),
        }
    }
}

/// One evaluation window: `len` positions, with one `(column, rows)` pair
/// per joined-row offset.
struct Chunk<'a> {
    len: usize,
    cols: Vec<(&'a ColumnVector, Rows<'a>)>,
}

impl<'a> Chunk<'a> {
    /// The first `width` columns of one table over `rows` (scan and DML
    /// stages, where joined-row offsets are table-local).
    fn table(batch: &'a ColumnBatch, width: usize, rows: Rows<'a>, len: usize) -> Chunk<'a> {
        Chunk {
            len,
            cols: batch.columns[..width].iter().map(|cv| (cv, rows)).collect(),
        }
    }

    /// Positions `[a, b)` of this chunk.
    fn window(&self, a: usize, b: usize) -> Chunk<'a> {
        Chunk {
            len: b - a,
            cols: self
                .cols
                .iter()
                .map(|&(cv, rows)| (cv, rows.window(a, b)))
                .collect(),
        }
    }

    /// The full joined row at position `i` (`SELECT *` output).
    fn row(&self, i: usize) -> Vec<Value> {
        self.cols
            .iter()
            .map(|(cv, rows)| cv.value_at(rows.get(i)))
            .collect()
    }
}

/// The joined stream after the join stage: per-FROM-entry selection
/// vectors (all `len` long) plus the column map in joined-row offset
/// order (`(column, owning FROM entry)`).
struct Frame<'a> {
    cols: Vec<(&'a ColumnVector, usize)>,
    sels: Vec<Vec<u32>>,
    len: usize,
}

impl<'a> Frame<'a> {
    fn chunk(&self, a: usize, b: usize) -> Chunk<'_> {
        Chunk {
            len: b - a,
            cols: self
                .cols
                .iter()
                .map(|&(cv, e)| (cv, Rows::Sel(&self.sels[e][a..b])))
                .collect(),
        }
    }

    /// The sub-frame of the given positions, in that order.
    fn pick(&self, positions: &[u32]) -> Frame<'a> {
        Frame {
            cols: self.cols.clone(),
            sels: self
                .sels
                .iter()
                .map(|s| positions.iter().map(|&p| s[p as usize]).collect())
                .collect(),
            len: positions.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized expression kernels
// ---------------------------------------------------------------------------

/// A batch of evaluated values: typed vectors with a parallel null mask
/// (`true` = NULL; the data slot then holds a placeholder), owned values
/// (the generic lane), or a single constant broadcast over the chunk.
enum VCol<'a> {
    Int(Vec<i64>, Vec<bool>),
    Float(Vec<f64>, Vec<bool>),
    Bool(Vec<bool>, Vec<bool>),
    Str(Vec<&'a str>, Vec<bool>),
    Date(Vec<Date>, Vec<bool>),
    /// The generic lane: `Mixed` storage, and the results of scalar
    /// operators applied to operands outside the typed fast paths.
    Any(Vec<Value>),
    Const(Value),
}

/// One position of a [`VCol`], borrowed; mirrors the [`Value`] variants.
#[derive(Clone, Copy)]
enum Slot<'s> {
    Null,
    I(i64),
    F(f64),
    B(bool),
    S(&'s str),
    D(Date),
}

#[inline]
fn slot_at<'s>(c: &'s VCol<'_>, i: usize) -> Slot<'s> {
    match c {
        VCol::Int(v, n) => {
            if n[i] {
                Slot::Null
            } else {
                Slot::I(v[i])
            }
        }
        VCol::Float(v, n) => {
            if n[i] {
                Slot::Null
            } else {
                Slot::F(v[i])
            }
        }
        VCol::Bool(v, n) => {
            if n[i] {
                Slot::Null
            } else {
                Slot::B(v[i])
            }
        }
        VCol::Str(v, n) => {
            if n[i] {
                Slot::Null
            } else {
                Slot::S(v[i])
            }
        }
        VCol::Date(v, n) => {
            if n[i] {
                Slot::Null
            } else {
                Slot::D(v[i])
            }
        }
        VCol::Any(v) => value_slot(&v[i]),
        VCol::Const(v) => value_slot(v),
    }
}

#[inline]
fn value_slot(v: &Value) -> Slot<'_> {
    match v {
        Value::Null => Slot::Null,
        Value::Int(x) => Slot::I(*x),
        Value::Float(x) => Slot::F(*x),
        Value::Bool(x) => Slot::B(*x),
        Value::Text(s) => Slot::S(s),
        Value::Date(d) => Slot::D(*d),
    }
}

fn slot_value(s: Slot<'_>) -> Value {
    match s {
        Slot::Null => Value::Null,
        Slot::I(x) => Value::Int(x),
        Slot::F(x) => Value::Float(x),
        Slot::B(x) => Value::Bool(x),
        Slot::S(x) => Value::Text(x.to_string()),
        Slot::D(x) => Value::Date(x),
    }
}

/// Rebuild the owned [`Value`] at position `i`.
fn vcol_value(c: &VCol<'_>, i: usize) -> Value {
    slot_value(slot_at(c, i))
}

/// Comparison outcome of one position pair, mirroring
/// [`Value::compare`]'s `Option<Ordering>` but distinguishing the NULL
/// case (→ NULL result) from genuinely incomparable non-NULL types
/// (→ `=` false / `!=` true).
#[derive(Clone, Copy)]
enum CmpRes {
    Null,
    Incmp,
    Ord(Ordering),
}

/// [`Value::compare`] over slots: NULL beats everything, numerics compare
/// as in the scalar path (Int–Int exact, any Float via `partial_cmp`, so
/// NaN is incomparable), same-type Text/Bool/Date compare naturally, and
/// every cross-type pair is incomparable.
#[inline]
fn cmp_slots(a: Slot<'_>, b: Slot<'_>) -> CmpRes {
    use Slot::*;
    match (a, b) {
        (Null, _) | (_, Null) => CmpRes::Null,
        (I(x), I(y)) => CmpRes::Ord(x.cmp(&y)),
        (I(x), F(y)) => float_cmp(x as f64, y),
        (F(x), I(y)) => float_cmp(x, y as f64),
        (F(x), F(y)) => float_cmp(x, y),
        (S(x), S(y)) => CmpRes::Ord(x.cmp(y)),
        (B(x), B(y)) => CmpRes::Ord(x.cmp(&y)),
        (D(x), D(y)) => CmpRes::Ord(x.cmp(&y)),
        _ => CmpRes::Incmp,
    }
}

fn float_cmp(a: f64, b: f64) -> CmpRes {
    match a.partial_cmp(&b) {
        Some(o) => CmpRes::Ord(o),
        None => CmpRes::Incmp,
    }
}

/// Whether a kernel output is a three-valued boolean stream (the typed
/// `AND`/`OR` path's operand contract; anything else takes the scalar
/// path).
fn is_tribool(c: &VCol<'_>) -> bool {
    matches!(
        c,
        VCol::Bool(..) | VCol::Const(Value::Bool(_)) | VCol::Const(Value::Null)
    )
}

fn tribool_at(c: &VCol<'_>, i: usize) -> Option<bool> {
    match slot_at(c, i) {
        Slot::Null => None,
        Slot::B(b) => Some(b),
        _ => unreachable!("tribool stream vetted by is_tribool"),
    }
}

/// Whether a kernel output is a numeric stream (the typed arithmetic
/// path's operand contract; anything else takes the scalar path).
fn is_numeric(c: &VCol<'_>) -> bool {
    matches!(
        c,
        VCol::Int(..)
            | VCol::Float(..)
            | VCol::Const(Value::Int(_) | Value::Float(_) | Value::Null)
    )
}

fn numeric_at(c: &VCol<'_>, i: usize) -> Option<f64> {
    match slot_at(c, i) {
        Slot::Null => None,
        Slot::I(x) => Some(x as f64),
        Slot::F(x) => Some(x),
        _ => unreachable!("numeric stream vetted by is_numeric"),
    }
}

/// A kernel failure: the first position of the chunk at which one
/// expression node failed, and that node's error. Nodes run one at a
/// time over the whole chunk, so this is not necessarily the position row
/// order fails at first; [`eval_site`] settles that.
struct Fail {
    pos: usize,
    err: NliError,
}

type KResult<T> = std::result::Result<T, Fail>;

/// The generic lane: apply the scalar operator `f` at every position, in
/// order, failing at the first position it errors at.
fn generic<'a>(n: usize, f: impl Fn(usize) -> Result<Value>) -> KResult<VCol<'a>> {
    (0..n)
        .map(|i| f(i).map_err(|err| Fail { pos: i, err }))
        .collect::<KResult<Vec<_>>>()
        .map(VCol::Any)
}

/// Evaluate `e` over a chunk, node at a time: the left operand's subtree,
/// then the right operand's, then the operator.
fn eval_vcol<'a>(e: &PlanExpr, ch: &Chunk<'a>) -> KResult<VCol<'a>> {
    let n = ch.len;
    match e {
        PlanExpr::Col(o) => {
            let (cv, rows) = &ch.cols[*o];
            Ok(gather(cv, *rows, n))
        }
        PlanExpr::Literal(v) => Ok(VCol::Const(v.clone())),
        PlanExpr::Binary { left, op, right } => {
            let l = eval_vcol(left, ch)?;
            let r = eval_vcol(right, ch)?;
            match op {
                BinOp::And | BinOp::Or if is_tribool(&l) && is_tribool(&r) => {
                    let mut vals = Vec::with_capacity(n);
                    let mut nulls = Vec::with_capacity(n);
                    for i in 0..n {
                        let lb = tribool_at(&l, i);
                        let rb = tribool_at(&r, i);
                        let out = match op {
                            BinOp::And => match (lb, rb) {
                                (Some(false), _) | (_, Some(false)) => Some(false),
                                (Some(true), Some(true)) => Some(true),
                                _ => None,
                            },
                            _ => match (lb, rb) {
                                (Some(true), _) | (_, Some(true)) => Some(true),
                                (Some(false), Some(false)) => Some(false),
                                _ => None,
                            },
                        };
                        vals.push(out.unwrap_or(false));
                        nulls.push(out.is_none());
                    }
                    Ok(VCol::Bool(vals, nulls))
                }
                BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let mut vals = Vec::with_capacity(n);
                    let mut nulls = Vec::with_capacity(n);
                    for i in 0..n {
                        let (v, null) = match cmp_slots(slot_at(&l, i), slot_at(&r, i)) {
                            CmpRes::Null => (false, true),
                            CmpRes::Incmp => match op {
                                BinOp::Eq => (false, false),
                                BinOp::Neq => (true, false),
                                _ => (false, true),
                            },
                            CmpRes::Ord(c) => (
                                match op {
                                    BinOp::Eq => c == Ordering::Equal,
                                    BinOp::Neq => c != Ordering::Equal,
                                    BinOp::Lt => c == Ordering::Less,
                                    BinOp::Le => c != Ordering::Greater,
                                    BinOp::Gt => c == Ordering::Greater,
                                    _ => c != Ordering::Less,
                                },
                                false,
                            ),
                        };
                        vals.push(v);
                        nulls.push(null);
                    }
                    Ok(VCol::Bool(vals, nulls))
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div
                    if is_numeric(&l) && is_numeric(&r) =>
                {
                    // The scalar path yields Int only when both operands are
                    // Int values (and the op isn't Div); with homogeneous
                    // columns that is a chunk-level property.
                    let int_operand =
                        |c: &VCol<'_>| matches!(c, VCol::Int(..) | VCol::Const(Value::Int(_)));
                    let int_result = int_operand(&l) && int_operand(&r) && *op != BinOp::Div;
                    let mut vals = Vec::with_capacity(n);
                    let mut nulls = Vec::with_capacity(n);
                    for i in 0..n {
                        let (Some(a), Some(b)) = (numeric_at(&l, i), numeric_at(&r, i)) else {
                            vals.push(0.0);
                            nulls.push(true);
                            continue;
                        };
                        let x = match op {
                            BinOp::Add => a + b,
                            BinOp::Sub => a - b,
                            BinOp::Mul => a * b,
                            _ => {
                                if b == 0.0 {
                                    vals.push(0.0);
                                    nulls.push(true); // division by zero is NULL
                                    continue;
                                }
                                a / b
                            }
                        };
                        vals.push(x);
                        nulls.push(false);
                    }
                    Ok(if int_result {
                        // Same f64 accumulation + cast as the scalar path.
                        VCol::Int(vals.into_iter().map(|x| x as i64).collect(), nulls)
                    } else {
                        VCol::Float(vals, nulls)
                    })
                }
                // Non-boolean AND/OR operands, non-numeric arithmetic
                // operands: the scalar operator, value or error alike.
                _ => generic(n, |i| {
                    exec::eval_binary(&vcol_value(&l, i), *op, &vcol_value(&r, i))
                }),
            }
        }
        PlanExpr::Not(inner) => match eval_vcol(inner, ch)? {
            VCol::Bool(v, nulls) => Ok(VCol::Bool(v.into_iter().map(|b| !b).collect(), nulls)),
            VCol::Const(Value::Bool(b)) => Ok(VCol::Const(Value::Bool(!b))),
            VCol::Const(Value::Null) => Ok(VCol::Const(Value::Null)),
            other => generic(n, |i| exec::eval_not(vcol_value(&other, i))),
        },
        PlanExpr::IsNull { expr, negated } => {
            let inner = eval_vcol(expr, ch)?;
            if let VCol::Const(v) = &inner {
                return Ok(VCol::Const(Value::Bool(v.is_null() != *negated)));
            }
            let vals = (0..n)
                .map(|i| matches!(slot_at(&inner, i), Slot::Null) != *negated)
                .collect();
            Ok(VCol::Bool(vals, vec![false; n]))
        }
        PlanExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let inner = eval_vcol(expr, ch)?;
            let pattern = exec::LikePattern::new(pattern);
            let mut vals = Vec::with_capacity(n);
            let mut nulls = Vec::with_capacity(n);
            for i in 0..n {
                match slot_at(&inner, i) {
                    Slot::Null => {
                        vals.push(false);
                        nulls.push(true);
                    }
                    Slot::S(s) => {
                        vals.push(pattern.matches(s) != *negated);
                        nulls.push(false);
                    }
                    other => {
                        // Non-text LIKE compares the canonical spelling.
                        let m = pattern.matches(&slot_value(other).canonical());
                        vals.push(m != *negated);
                        nulls.push(false);
                    }
                }
            }
            Ok(VCol::Bool(vals, nulls))
        }
        PlanExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_vcol(expr, ch)?;
            let lo = eval_vcol(low, ch)?;
            let hi = eval_vcol(high, ch)?;
            let mut vals = Vec::with_capacity(n);
            let mut nulls = Vec::with_capacity(n);
            for i in 0..n {
                let s = slot_at(&v, i);
                let a = cmp_slots(s, slot_at(&lo, i));
                let b = cmp_slots(s, slot_at(&hi, i));
                match (a, b) {
                    (CmpRes::Ord(x), CmpRes::Ord(y)) => {
                        let inside = x != Ordering::Less && y != Ordering::Greater;
                        vals.push(inside != *negated);
                        nulls.push(false);
                    }
                    _ => {
                        vals.push(false);
                        nulls.push(true);
                    }
                }
            }
            Ok(VCol::Bool(vals, nulls))
        }
        PlanExpr::InList {
            expr,
            list,
            negated,
        } => {
            let inner = eval_vcol(expr, ch)?;
            let mut vals = Vec::with_capacity(n);
            let mut nulls = Vec::with_capacity(n);
            for i in 0..n {
                let v = vcol_value(&inner, i);
                if v.is_null() {
                    vals.push(false);
                    nulls.push(true);
                } else {
                    let found = list.iter().any(|x| v.sql_eq(x) == Some(true));
                    vals.push(found != *negated);
                    nulls.push(false);
                }
            }
            Ok(VCol::Bool(vals, nulls))
        }
        // Never valid per row: `*` and aggregates error in row context,
        // and subplans must have been materialized away before evaluation.
        PlanExpr::Star => generic(n, |_| Err(row_error("`*` in scalar context"))),
        PlanExpr::Agg { .. } => generic(n, |_| {
            Err(row_error("aggregate in row context (missing GROUP BY?)"))
        }),
        PlanExpr::InPlan { .. } | PlanExpr::ScalarPlan(_) => generic(n, |_| {
            Err(row_error("unmaterialized subquery reached evaluation"))
        }),
    }
}

fn row_error(msg: &str) -> NliError {
    NliError::Execution(msg.into())
}

/// Evaluate `exprs` in order over a chunk.
fn eval_list<'a, 'e>(
    exprs: impl IntoIterator<Item = &'e PlanExpr>,
    ch: &Chunk<'a>,
) -> KResult<Vec<VCol<'a>>> {
    exprs.into_iter().map(|e| eval_vcol(e, ch)).collect()
}

/// Evaluate one site — the expressions a stage evaluates per position, in
/// row-at-a-time order — over `ch`, with row-at-a-time error behaviour:
/// the error is the one the first failing position raises. A failure at
/// `r` re-runs the site on `[0, r)` until that prefix succeeds; the
/// one-position chunk at the last `r` then fails exactly as row-at-a-time
/// evaluation does, because on one position node order is row order. A
/// re-run cannot fail at a node that failed before (each node reports its
/// first failing position), so there are at most as many re-runs as the
/// site has nodes — and only on the error path.
fn eval_site<'a, T>(ch: &Chunk<'a>, site: impl Fn(&Chunk<'a>) -> KResult<T>) -> Result<T> {
    let mut fail = match site(ch) {
        Ok(v) => return Ok(v),
        Err(f) => f,
    };
    if ch.len == 1 {
        return Err(fail.err);
    }
    while fail.pos > 0 {
        match site(&ch.window(0, fail.pos)) {
            Ok(_) => break,
            Err(f) => fail = f,
        }
    }
    let r = fail.pos;
    match site(&ch.window(r, r + 1)) {
        Err(f) => Err(f.err),
        // Unreachable: position r failed on a wider chunk.
        Ok(_) => Err(fail.err),
    }
}

/// Gather one stored column over a chunk's rows: a typed [`VCol`], or the
/// generic lane for `Mixed` (mistyped) storage.
fn gather<'a>(cv: &'a ColumnVector, rows: Rows<'a>, n: usize) -> VCol<'a> {
    macro_rules! pull {
        ($src:expr, $variant:ident, $map:expr) => {{
            let src = $src;
            let mut vals = Vec::with_capacity(n);
            let mut nulls = Vec::with_capacity(n);
            for i in 0..n {
                let ri = rows.get(i);
                nulls.push(cv.is_null(ri));
                #[allow(clippy::redundant_closure_call)]
                vals.push($map(&src[ri]));
            }
            VCol::$variant(vals, nulls)
        }};
    }
    match &cv.data {
        ColumnData::Int(v) => pull!(v, Int, |x: &i64| *x),
        ColumnData::Float(v) => pull!(v, Float, |x: &f64| *x),
        ColumnData::Bool(v) => pull!(v, Bool, |x: &bool| *x),
        ColumnData::Text(v) => pull!(v, Str, |x: &'a String| x.as_str()),
        ColumnData::Date(v) => pull!(v, Date, |x: &Date| *x),
        ColumnData::Mixed(_) => VCol::Any((0..n).map(|i| cv.value_at(rows.get(i))).collect()),
    }
}

/// Predicate truthiness of a kernel output at position `i`: only a
/// non-NULL `true` passes (SQL three-valued logic); non-boolean streams
/// pass nothing, like the scalar `truthy`.
#[inline]
fn truthy_at(c: &VCol<'_>, i: usize) -> bool {
    match c {
        VCol::Bool(v, n) => v[i] && !n[i],
        VCol::Any(v) => exec::truthy(&v[i]),
        VCol::Const(v) => exec::truthy(v),
        _ => false,
    }
}

/// Append `id(i)` for every position `i` of `ch` at which `pred` holds.
fn keep_passing(
    pred: &PlanExpr,
    ch: &Chunk<'_>,
    id: impl Fn(usize) -> u32,
    out: &mut Vec<u32>,
) -> Result<()> {
    let mask = eval_site(ch, |ch| eval_vcol(pred, ch))?;
    out.extend((0..ch.len).filter(|&i| truthy_at(&mask, i)).map(id));
    Ok(())
}

// ---------------------------------------------------------------------------
// Scan stage
// ---------------------------------------------------------------------------

/// Cached handle for the `sql.index.probes` counter: bumped once per scan
/// served through an index probe (deterministic at any thread count — the
/// plan, not a race, decides the access path).
fn index_probes() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::global().counter("sql.index.probes"))
}

/// Selection vector of base rows surviving a scan's pushed-down filter,
/// plus the candidate count when an index probe served the scan (`None`
/// for full scans — the `index_candidates` OpStats counter).
///
/// The index path materializes the probe's posting lists into a candidate
/// selection (ascending base-row order, same as a full scan visits rows)
/// and then re-applies the FULL pushed-down filter over the candidates —
/// so the survivors are byte-identical to the full scan by construction,
/// per the superset-probe contract on [`IndexProbe`]. Falls back to the
/// full scan when the column has no usable index (e.g. mistyped `Mixed`
/// storage refuses to build one).
fn scan_indices(
    node: &ScanNode,
    batch: &ColumnBatch,
    db: &Database,
) -> Result<(Vec<u32>, Option<u64>)> {
    let n = batch.rows;
    assert!(n <= u32::MAX as usize, "table too large for u32 selections");
    let filter = match &node.filter {
        None => return Ok(((0..n as u32).collect(), None)),
        Some(f) => f,
    };

    if let Some(access) = &node.index {
        if let Some(idx) = db.index(node.table, access.column) {
            index_probes().inc();
            let cand = match &access.probe {
                IndexProbe::Eq(v) => idx.eq_rows(v),
                IndexProbe::In(vs) => idx.in_rows(vs),
                IndexProbe::Range { lo, hi } => idx.range_rows(
                    lo.as_ref().map(|(v, inc)| (v, *inc)),
                    hi.as_ref().map(|(v, inc)| (v, *inc)),
                ),
                IndexProbe::IsNull => idx.null_rows().to_vec(),
            };
            let mut out = Vec::new();
            for window in cand.chunks(batch_rows()) {
                let ch = Chunk::table(batch, node.width, Rows::Sel(window), window.len());
                keep_passing(filter, &ch, |i| window[i], &mut out)?;
            }
            return Ok((out, Some(cand.len() as u64)));
        }
    }

    let mut out = Vec::new();
    for (a, b) in windows(n) {
        let ch = Chunk::table(batch, node.width, Rows::Range(a), b - a);
        keep_passing(filter, &ch, |i| (a + i) as u32, &mut out)?;
    }
    Ok((out, None))
}

// ---------------------------------------------------------------------------
// DML: compile a DmlPlan into a physical DmlOp
// ---------------------------------------------------------------------------

/// Matching row indices for a DML scan, ascending: the scan's filter (and
/// index probe, when planned) runs through [`scan_indices`] exactly as a
/// read would, then the residual — the conjuncts pushdown could not place,
/// i.e. subqueries — is applied over the survivors.
fn dml_selection(
    scan: &ScanNode,
    residual: &Option<PlanExpr>,
    batch: &ColumnBatch,
    db: &Database,
) -> Result<Vec<u32>> {
    let (mut sel, _) = scan_indices(scan, batch, db)?;
    // Index probes may surface candidates in index order; the DmlOp
    // contract wants ascending row ids.
    sel.sort_unstable();
    sel.dedup();
    if let Some(r) = residual {
        let r = exec::materialize_subplans(r, db)?;
        let mut keep = Vec::with_capacity(sel.len());
        for window in sel.chunks(batch_rows()) {
            let ch = Chunk::table(batch, scan.width, Rows::Sel(window), window.len());
            keep_passing(&r, &ch, |i| window[i], &mut keep)?;
        }
        sel = keep;
    }
    Ok(sel)
}

/// Evaluate a [`DmlPlan`] against `db` into the physical [`DmlOp`] it
/// denotes — the vectorized leg of the DML pipeline. Pure: the database is
/// not modified; applying (and journaling) the op is the caller's job, so
/// live execution and WAL replay share one mutation path
/// ([`Database::apply_op`]).
pub(crate) fn compute_dml(plan: &DmlPlan, db: &Database) -> Result<DmlOp> {
    match plan {
        DmlPlan::Insert { table, rows, .. } => Ok(DmlOp::Insert {
            table: *table,
            rows: rows.clone(),
        }),
        DmlPlan::Update {
            scan,
            residual,
            set,
        } => {
            let batch = db.columnar(scan.table);
            let sel = dml_selection(scan, residual, &batch, db)?;
            let set = set
                .iter()
                .map(|(ci, e)| Ok((*ci as u32, exec::materialize_subplans(e, db)?)))
                .collect::<Result<Vec<_>>>()?;
            let mut updates = Vec::with_capacity(sel.len());
            for window in sel.chunks(batch_rows()) {
                let ch = Chunk::table(&batch, scan.width, Rows::Sel(window), window.len());
                // Every SET rhs sees the pre-update row; per row, the pairs
                // evaluate in order.
                let cols = eval_site(&ch, |ch| eval_list(set.iter().map(|(_, e)| e), ch))?;
                for (i, &ri) in window.iter().enumerate() {
                    let cells = set
                        .iter()
                        .zip(&cols)
                        .map(|((ci, _), c)| (*ci, vcol_value(c, i)))
                        .collect();
                    updates.push((u64::from(ri), cells));
                }
            }
            Ok(DmlOp::Update {
                table: scan.table,
                updates,
            })
        }
        DmlPlan::Delete { scan, residual } => {
            let batch = db.columnar(scan.table);
            let sel = dml_selection(scan, residual, &batch, db)?;
            Ok(DmlOp::Delete {
                table: scan.table,
                rows: sel.into_iter().map(u64::from).collect(),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Join stage
// ---------------------------------------------------------------------------

/// Resolve a joined-row offset to `(FROM entry, table-local column)`.
fn entry_col_of(p: &SelectPlan, off: usize) -> (usize, usize) {
    for (e, s) in p.scans.iter().enumerate() {
        if off >= s.offset && off < s.offset + s.width {
            return (e, off - s.offset);
        }
    }
    unreachable!("join key offset {off} outside the joined row");
}

/// Typed join keys: `Some(i64)` per selected row, `None` for NULL. Only
/// valid when the stored column is `Int` (canonical equality is then the
/// `i64` equality).
fn int_keys(cv: &ColumnVector, sel: &[u32]) -> Vec<Option<i64>> {
    let ColumnData::Int(v) = &cv.data else {
        unreachable!("int_keys on non-Int column");
    };
    sel.iter()
        .map(|&i| {
            let i = i as usize;
            if cv.is_null(i) {
                None
            } else {
                Some(v[i])
            }
        })
        .collect()
}

/// Canonical-string join keys: the exact equivalence classes the legacy
/// hash join used, for every column type (including `Mixed`).
fn canon_keys(cv: &ColumnVector, sel: &[u32]) -> Vec<Option<String>> {
    sel.iter()
        .map(|&i| {
            let i = i as usize;
            if cv.is_null(i) {
                None
            } else {
                Some(cv.value_at(i).canonical())
            }
        })
        .collect()
}

/// Hash-join two key streams. Returns `(distinct build keys, NULL build
/// keys, matched (prefix position, new position) pairs)`. With
/// [`BuildSide::New`] the pairs come out prefix-major in probe order —
/// exactly the legacy row order; with [`BuildSide::Prefix`] they are
/// new-major (the executor restores order afterwards).
fn join_pairs<K: Eq + std::hash::Hash>(
    prefix_keys: &[Option<K>],
    new_keys: &[Option<K>],
    side: BuildSide,
) -> (u64, u64, Vec<(u32, u32)>) {
    let (build, probe) = match side {
        BuildSide::New => (new_keys, prefix_keys),
        BuildSide::Prefix => (prefix_keys, new_keys),
    };
    let mut table: HashMap<&K, Vec<u32>> = HashMap::new();
    let mut null_build = 0u64;
    for (i, k) in build.iter().enumerate() {
        match k {
            Some(k) => table.entry(k).or_default().push(i as u32),
            None => null_build += 1,
        }
    }
    let mut pairs = Vec::new();
    for (i, k) in probe.iter().enumerate() {
        let Some(k) = k.as_ref() else { continue };
        if let Some(hits) = table.get(k) {
            for &h in hits {
                pairs.push(match side {
                    BuildSide::New => (i as u32, h),
                    BuildSide::Prefix => (h, i as u32),
                });
            }
        }
    }
    (table.len() as u64, null_build, pairs)
}

/// Gather a typed key column over a selection, verifying it is NULL-free
/// and non-decreasing (the merge-join precondition the planner assumed
/// from statistics). `None` = precondition no longer holds → hash fall
/// back.
fn sorted_gather<T: Copy + PartialOrd>(
    vals: &[T],
    cv: &ColumnVector,
    sel: &[u32],
) -> Option<Vec<T>> {
    let mut out: Vec<T> = Vec::with_capacity(sel.len());
    for &i in sel {
        let i = i as usize;
        if cv.is_null(i) {
            return None;
        }
        let x = vals[i];
        if let Some(&prev) = out.last() {
            if x < prev {
                return None;
            }
        }
        out.push(x);
    }
    Some(out)
}

/// Merge two sorted key streams: equal-run cross products, probe-major —
/// the same pair order a prefix-probing hash join emits.
fn merge_runs<T: Ord>(probe: &[T], build: &[T]) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < probe.len() && j < build.len() {
        match probe[i].cmp(&build[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let mut i2 = i;
                while i2 < probe.len() && probe[i2] == probe[i] {
                    i2 += 1;
                }
                let mut j2 = j;
                while j2 < build.len() && build[j2] == build[j] {
                    j2 += 1;
                }
                for p in i..i2 {
                    for q in j..j2 {
                        pairs.push((p as u32, q as u32));
                    }
                }
                i = i2;
                j = j2;
            }
        }
    }
    pairs
}

/// Try the merge strategy; `None` if the runtime data no longer satisfies
/// the sortedness/type precondition.
fn merge_pairs(
    pcv: &ColumnVector,
    psel: &[u32],
    bcv: &ColumnVector,
    bsel: &[u32],
) -> Option<Vec<(u32, u32)>> {
    match (&pcv.data, &bcv.data) {
        (ColumnData::Int(pv), ColumnData::Int(bv)) => {
            let p = sorted_gather(pv, pcv, psel)?;
            let b = sorted_gather(bv, bcv, bsel)?;
            Some(merge_runs(&p, &b))
        }
        (ColumnData::Date(pv), ColumnData::Date(bv)) => {
            let p = sorted_gather(pv, pcv, psel)?;
            let b = sorted_gather(bv, bcv, bsel)?;
            Some(merge_runs(&p, &b))
        }
        _ => None,
    }
}

/// Hash-join dispatch on key column types: typed `i64` keys only when
/// *both* stored columns are `Int` (otherwise canonical strings, which
/// match legacy equality even across Int/Float canonical collisions).
fn hash_pairs(
    pcv: &ColumnVector,
    psel: &[u32],
    bcv: &ColumnVector,
    bsel: &[u32],
    side: BuildSide,
) -> (u64, u64, Vec<(u32, u32)>) {
    if matches!(&pcv.data, ColumnData::Int(_)) && matches!(&bcv.data, ColumnData::Int(_)) {
        join_pairs(&int_keys(pcv, psel), &int_keys(bcv, bsel), side)
    } else {
        join_pairs(&canon_keys(pcv, psel), &canon_keys(bcv, bsel), side)
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Group the frame's positions by the GROUP BY key, first-seen order.
/// With no GROUP BY, everything (possibly nothing) is one group — the
/// "aggregates over empty input still produce one row" rule.
fn group_positions(p: &SelectPlan, fr: &Frame) -> Result<Vec<Vec<u32>>> {
    if p.group_by.is_empty() {
        return Ok(vec![(0..fr.len as u32).collect()]);
    }
    // Single stored-Int or stored-Text key: group on the typed value
    // without canonicalizing.
    if let [PlanExpr::Col(off)] = p.group_by.as_slice() {
        let (cv, e) = fr.cols[*off];
        fn by_key<K: Eq + std::hash::Hash>(
            fr: &Frame,
            e: usize,
            cv: &ColumnVector,
            key_at: impl Fn(usize) -> K,
        ) -> Vec<Vec<u32>> {
            let mut index: HashMap<Option<K>, usize> = HashMap::new();
            let mut groups: Vec<Vec<u32>> = Vec::new();
            for pos in 0..fr.len {
                let ri = fr.sels[e][pos] as usize;
                let key = if cv.is_null(ri) {
                    None
                } else {
                    Some(key_at(ri))
                };
                let gi = *index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[gi].push(pos as u32);
            }
            groups
        }
        match &cv.data {
            ColumnData::Int(data) => {
                // Dense-range keys (the common FK/ID case) skip hashing
                // entirely: one min/max pass, then direct slot indexing.
                let mut lo = i64::MAX;
                let mut hi = i64::MIN;
                for pos in 0..fr.len {
                    let ri = fr.sels[e][pos] as usize;
                    if !cv.is_null(ri) {
                        lo = lo.min(data[ri]);
                        hi = hi.max(data[ri]);
                    }
                }
                let dense = lo <= hi && ((hi - lo) as u128) < 4 * fr.len as u128 + 1024;
                if dense {
                    let width = (hi - lo) as usize + 1;
                    // one extra slot at the end collects the NULL group
                    let mut slot: Vec<u32> = vec![u32::MAX; width + 1];
                    let mut groups: Vec<Vec<u32>> = Vec::new();
                    for pos in 0..fr.len {
                        let ri = fr.sels[e][pos] as usize;
                        let k = if cv.is_null(ri) {
                            width
                        } else {
                            (data[ri] - lo) as usize
                        };
                        let gi = if slot[k] == u32::MAX {
                            slot[k] = groups.len() as u32;
                            groups.push(Vec::new());
                            slot[k]
                        } else {
                            slot[k]
                        };
                        groups[gi as usize].push(pos as u32);
                    }
                    return Ok(groups);
                }
                return Ok(by_key(fr, e, cv, |ri| data[ri]));
            }
            ColumnData::Text(data) => return Ok(by_key(fr, e, cv, |ri| data[ri].as_str())),
            _ => {}
        }
    }
    // General path: canonical key strings, kernel-evaluated per chunk.
    let mut index: HashMap<Vec<String>, usize> = HashMap::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for (a, b) in windows(fr.len) {
        let ch = fr.chunk(a, b);
        let cols = eval_site(&ch, |ch| eval_list(&p.group_by, ch))?;
        for i in 0..ch.len {
            let key = cols.iter().map(|c| vcol_value(c, i).canonical()).collect();
            let gi = *index.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push((a + i) as u32);
        }
    }
    Ok(groups)
}

/// Group-context evaluation over frame positions; the structural twin of
/// the legacy `eval_group` (aggregates consume the group, bare
/// expressions take the group's first row).
fn eval_group_v(e: &PlanExpr, fr: &Frame, positions: &[u32]) -> Result<Value> {
    match e {
        PlanExpr::Agg {
            func,
            arg,
            distinct,
        } => eval_agg_v(*func, arg, *distinct, fr, positions),
        PlanExpr::Binary { left, op, right } => {
            let l = eval_group_v(left, fr, positions)?;
            let r = eval_group_v(right, fr, positions)?;
            exec::eval_binary(&l, *op, &r)
        }
        PlanExpr::Not(inner) => exec::eval_not(eval_group_v(inner, fr, positions)?),
        other => match positions.first() {
            Some(&p) => {
                let ch = fr.chunk(p as usize, p as usize + 1);
                eval_site(&ch, |ch| eval_vcol(other, ch)).map(|c| vcol_value(&c, 0))
            }
            None => Ok(Value::Null),
        },
    }
}

fn eval_agg_v(
    func: AggFunc,
    arg: &PlanExpr,
    distinct: bool,
    fr: &Frame,
    positions: &[u32],
) -> Result<Value> {
    if matches!(arg, PlanExpr::Star) {
        if func != AggFunc::Count {
            return Err(NliError::Execution(format!(
                "{}(*) is invalid",
                func.name()
            )));
        }
        return Ok(Value::Int(positions.len() as i64));
    }
    if let PlanExpr::Col(off) = arg {
        let (cv, e) = fr.cols[*off];
        let sel = &fr.sels[e];
        match &cv.data {
            ColumnData::Int(data) => {
                let mut vals: Vec<i64> = Vec::with_capacity(positions.len());
                for &pos in positions {
                    let ri = sel[pos as usize] as usize;
                    if !cv.is_null(ri) {
                        vals.push(data[ri]);
                    }
                }
                if distinct {
                    let mut seen = HashSet::new();
                    vals.retain(|v| seen.insert(*v));
                }
                return Ok(match func {
                    AggFunc::Count => Value::Int(vals.len() as i64),
                    AggFunc::Sum | AggFunc::Avg => {
                        if vals.is_empty() {
                            Value::Null
                        } else {
                            // Accumulate in f64 in row order — the exact
                            // arithmetic of the scalar path.
                            let mut sum = 0.0;
                            for &v in &vals {
                                sum += v as f64;
                            }
                            if func == AggFunc::Avg {
                                Value::Float(sum / vals.len() as f64)
                            } else {
                                Value::Int(sum as i64)
                            }
                        }
                    }
                    AggFunc::Min => vals.iter().copied().min().map_or(Value::Null, Value::Int),
                    AggFunc::Max => vals.iter().copied().max().map_or(Value::Null, Value::Int),
                });
            }
            ColumnData::Float(data) => {
                let mut vals: Vec<f64> = Vec::with_capacity(positions.len());
                for &pos in positions {
                    let ri = sel[pos as usize] as usize;
                    if !cv.is_null(ri) {
                        vals.push(data[ri]);
                    }
                }
                if distinct {
                    let mut seen = HashSet::new();
                    vals.retain(|v| seen.insert(Value::Float(*v).canonical()));
                }
                return Ok(match func {
                    AggFunc::Count => Value::Int(vals.len() as i64),
                    AggFunc::Sum | AggFunc::Avg => {
                        if vals.is_empty() {
                            Value::Null
                        } else {
                            let mut sum = 0.0;
                            for &v in &vals {
                                sum += v;
                            }
                            if func == AggFunc::Avg {
                                Value::Float(sum / vals.len() as f64)
                            } else {
                                Value::Float(sum)
                            }
                        }
                    }
                    AggFunc::Min | AggFunc::Max => {
                        // Fold with the scalar take-new rule so NaN (which
                        // compares as "neither") keeps the incumbent.
                        let mut best: Option<f64> = None;
                        for &v in &vals {
                            best = Some(match best {
                                None => v,
                                Some(b) => {
                                    let take_new = match v.partial_cmp(&b) {
                                        Some(Ordering::Less) => func == AggFunc::Min,
                                        Some(Ordering::Greater) => func == AggFunc::Max,
                                        _ => false,
                                    };
                                    if take_new {
                                        v
                                    } else {
                                        b
                                    }
                                }
                            });
                        }
                        best.map_or(Value::Null, Value::Float)
                    }
                });
            }
            _ => {
                let mut vals = Vec::with_capacity(positions.len());
                for &pos in positions {
                    let v = cv.value_at(sel[pos as usize] as usize);
                    if !v.is_null() {
                        vals.push(v);
                    }
                }
                return exec::agg_from_values(func, vals, distinct);
            }
        }
    }
    // Computed argument: kernels over the group's positions, then the
    // shared aggregate body.
    let group = fr.pick(positions);
    let mut vals = Vec::with_capacity(positions.len());
    for (a, b) in windows(group.len) {
        let col = eval_site(&group.chunk(a, b), |ch| eval_vcol(arg, ch))?;
        vals.extend(
            (0..b - a)
                .map(|i| vcol_value(&col, i))
                .filter(|v| !v.is_null()),
        );
    }
    exec::agg_from_values(func, vals, distinct)
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// Execute one SELECT block over the database's columnar form, as one
/// `sql.vectorize` stage per block (subquery materialization nests).
pub(crate) fn exec_select(
    p: &SelectPlan,
    db: &Database,
    mut prof: Option<&mut SelectProfile>,
) -> Result<ResultSet> {
    let _span = crate::exec::sql_obs().vectorize.time();
    let profiling = prof.is_some();

    // -- Scan: one selection vector per FROM entry --------------------------
    let batches: Vec<_> = p.scans.iter().map(|s| db.columnar(s.table)).collect();
    let mut scan_sels: Vec<Option<Vec<u32>>> = Vec::with_capacity(p.scans.len());
    for (e, node) in p.scans.iter().enumerate() {
        let start = exec::tick(profiling);
        let (sel, candidates) = scan_indices(node, &batches[e], db)?;
        if let Some(pr) = prof.as_deref_mut() {
            let mut st = OpStats::flow(batches[e].rows, sel.len());
            // Index probes touch only the candidate chunks, not the table.
            st.batches = chunk_count(candidates.map_or(batches[e].rows, |c| c as usize));
            st.wall_micros = exec::tock(start);
            if let Some(c) = candidates {
                st.counters.push(("index_candidates", c));
            }
            pr.scans.push(st);
        }
        scan_sels.push(Some(sel));
    }

    // -- Join: pair up selection vectors in exec_order ----------------------
    // `prefix` lists the FROM entries already joined (exec order);
    // `cur_sels[i]` is the selection vector of `prefix[i]`, all `len` long.
    let mut prefix: Vec<usize> = Vec::new();
    let mut cur_sels: Vec<Vec<u32>> = Vec::new();
    let mut needs_restore = p.exec_order.iter().enumerate().any(|(i, &e)| i != e);
    if let Some(&first) = p.exec_order.first() {
        prefix.push(first);
        cur_sels.push(scan_sels[first].take().expect("first scan consumed once"));
    }
    for (k, step) in p.joins.iter().enumerate() {
        let start = exec::tick(profiling);
        let new_e = p.exec_order[k + 1];
        let new_sel = scan_sels[new_e].take().expect("each scan consumed once");
        let prefix_len = cur_sels.first().map_or(0, Vec::len);
        let rows_in = prefix_len + new_sel.len();
        let mut counters: Vec<(&'static str, u64)> = Vec::new();
        let pairs = match step.kind {
            JoinKind::Cross => {
                let mut pairs = Vec::new();
                for ppos in 0..prefix_len as u32 {
                    for npos in 0..new_sel.len() as u32 {
                        pairs.push((ppos, npos));
                    }
                }
                pairs
            }
            JoinKind::Hash {
                probe_off,
                build_col,
                build_side,
            } => {
                let (pe, plocal) = entry_col_of(p, probe_off);
                let pi = prefix.iter().position(|&e| e == pe).expect("probe joined");
                let pcv = &batches[pe].columns[plocal];
                let bcv = &batches[new_e].columns[build_col];
                if build_side == BuildSide::Prefix {
                    needs_restore = true;
                }
                let (build_keys, null_build, pairs) =
                    hash_pairs(pcv, &cur_sels[pi], bcv, &new_sel, build_side);
                if profiling {
                    let (build_rows, probe_rows) = match build_side {
                        BuildSide::New => (new_sel.len(), prefix_len),
                        BuildSide::Prefix => (prefix_len, new_sel.len()),
                    };
                    counters.push(("build_rows", build_rows as u64));
                    counters.push(("build_keys", build_keys));
                    counters.push(("null_build_keys", null_build));
                    counters.push(("probe_rows", probe_rows as u64));
                }
                pairs
            }
            JoinKind::Merge {
                probe_off,
                build_col,
            } => {
                let (pe, plocal) = entry_col_of(p, probe_off);
                let pi = prefix.iter().position(|&e| e == pe).expect("probe joined");
                let pcv = &batches[pe].columns[plocal];
                let bcv = &batches[new_e].columns[build_col];
                match merge_pairs(pcv, &cur_sels[pi], bcv, &new_sel) {
                    Some(pairs) => {
                        if profiling {
                            counters.push(("build_rows", new_sel.len() as u64));
                            counters.push(("probe_rows", prefix_len as u64));
                            counters.push(("merge_fallback", 0));
                        }
                        pairs
                    }
                    None => {
                        // Data drifted from the stats the plan was costed
                        // on; degrade to the order-preserving hash join.
                        let (build_keys, null_build, pairs) =
                            hash_pairs(pcv, &cur_sels[pi], bcv, &new_sel, BuildSide::New);
                        if profiling {
                            counters.push(("build_rows", new_sel.len() as u64));
                            counters.push(("build_keys", build_keys));
                            counters.push(("null_build_keys", null_build));
                            counters.push(("probe_rows", prefix_len as u64));
                            counters.push(("merge_fallback", 1));
                        }
                        pairs
                    }
                }
            }
        };
        // Apply the pair list to every joined selection vector.
        assert!(pairs.len() <= u32::MAX as usize, "join output too large");
        for sel in &mut cur_sels {
            *sel = pairs.iter().map(|&(ppos, _)| sel[ppos as usize]).collect();
        }
        cur_sels.push(
            pairs
                .iter()
                .map(|&(_, npos)| new_sel[npos as usize])
                .collect(),
        );
        prefix.push(new_e);
        if let Some(pr) = prof.as_deref_mut() {
            let mut st = OpStats::flow(rows_in, pairs.len());
            st.batches = chunk_count(rows_in);
            st.wall_micros = exec::tock(start);
            st.counters = counters;
            pr.joins.push(st);
        }
    }

    // Back to FROM order, restoring legacy row order when the cost pass
    // (or a prefix-side build) perturbed it: the legacy joined stream is
    // lexicographic in the per-entry base-row index tuples.
    let n_entries = p.scans.len();
    let len = cur_sels.first().map_or(0, Vec::len);
    let mut sels: Vec<Vec<u32>> = vec![Vec::new(); n_entries];
    for (i, &e) in prefix.iter().enumerate() {
        sels[e] = std::mem::take(&mut cur_sels[i]);
    }
    if needs_restore && n_entries > 1 && len > 1 {
        let mut perm: Vec<u32> = (0..len as u32).collect();
        perm.sort_unstable_by(|&x, &y| {
            for s in &sels {
                match s[x as usize].cmp(&s[y as usize]) {
                    Ordering::Equal => continue,
                    o => return o,
                }
            }
            Ordering::Equal
        });
        for s in &mut sels {
            *s = perm.iter().map(|&pos| s[pos as usize]).collect();
        }
    }

    let mut frame_cols = Vec::with_capacity(p.joined_columns.len());
    for (e, node) in p.scans.iter().enumerate() {
        for c in 0..node.width {
            frame_cols.push((&batches[e].columns[c], e));
        }
    }
    let mut frame = Frame {
        cols: frame_cols,
        sels,
        len,
    };

    // -- Residual filter (subqueries materialized per database) -------------
    let residual_start = exec::tick(profiling);
    let residual_subplans = if profiling {
        p.residual.as_ref().map_or(0, |r| r.count_subplans())
    } else {
        0
    };
    let materialized_residual;
    let residual: Option<&PlanExpr> = match &p.residual {
        Some(r) if r.has_subplan() => {
            materialized_residual = exec::materialize_subplans(r, db)?;
            Some(&materialized_residual)
        }
        Some(r) => Some(r),
        None => None,
    };
    let materialized_having;
    let having: Option<&PlanExpr> = match &p.having {
        Some(h) if h.has_subplan() => {
            materialized_having = exec::materialize_subplans(h, db)?;
            Some(&materialized_having)
        }
        Some(h) => Some(h),
        None => None,
    };

    if let Some(w) = residual {
        let rows_in = frame.len;
        let mut kept: Vec<u32> = Vec::new();
        for (a, b) in windows(frame.len) {
            keep_passing(w, &frame.chunk(a, b), |i| (a + i) as u32, &mut kept)?;
        }
        frame = frame.pick(&kept);
        if let Some(pr) = prof.as_deref_mut() {
            let mut st = OpStats::flow(rows_in, frame.len);
            st.batches = chunk_count(rows_in);
            st.wall_micros = exec::tock(residual_start);
            if residual_subplans > 0 {
                st.counters.push(("subplans", residual_subplans));
            }
            pr.residual = Some(st);
        }
    }

    // -- Aggregate / project ------------------------------------------------
    let mut out_rows: Vec<Vec<Value>> = Vec::new();
    let mut sort_keys: Vec<Vec<Value>> = Vec::new();
    let need_sort = !p.order_by.is_empty();
    let stage_start = exec::tick(profiling);
    let stage_rows_in = frame.len;

    if p.aggregate {
        let groups = group_positions(p, &frame)?;
        let n_groups = groups.len() as u64;
        let mut having_rejected = 0u64;
        for g in &groups {
            if let Some(h) = having {
                if !exec::truthy(&eval_group_v(h, &frame, g)?) {
                    having_rejected += 1;
                    continue;
                }
            }
            let mut out = Vec::with_capacity(p.items.len());
            for item in &p.items {
                out.push(eval_group_v(item, &frame, g)?);
            }
            if need_sort {
                let mut keys = Vec::with_capacity(p.order_by.len());
                for o in &p.order_by {
                    keys.push(eval_group_v(&o.expr, &frame, g)?);
                }
                sort_keys.push(keys);
            }
            out_rows.push(out);
        }
        if let Some(pr) = prof.as_deref_mut() {
            let mut st = OpStats::flow(stage_rows_in, out_rows.len());
            st.batches = chunk_count(stage_rows_in);
            st.wall_micros = exec::tock(stage_start);
            st.counters.push(("groups", n_groups));
            if p.having.is_some() {
                st.counters.push(("having_rejected", having_rejected));
            }
            pr.aggregate = Some(st);
        }
    } else {
        for (a, b) in windows(frame.len) {
            let ch = frame.chunk(a, b);
            // Per row: the ORDER BY keys, then the projection.
            let (kc, ic) = eval_site(&ch, |ch| {
                let kc = eval_list(p.order_by.iter().map(|o| &o.expr), ch)?;
                let ic = if p.star {
                    Vec::new()
                } else {
                    eval_list(&p.items, ch)?
                };
                Ok((kc, ic))
            })?;
            for i in 0..ch.len {
                if need_sort {
                    sort_keys.push(kc.iter().map(|c| vcol_value(c, i)).collect());
                }
                out_rows.push(if p.star {
                    ch.row(i)
                } else {
                    ic.iter().map(|c| vcol_value(c, i)).collect()
                });
            }
        }
        if let Some(pr) = prof.as_deref_mut() {
            let mut st = OpStats::flow(stage_rows_in, out_rows.len());
            st.batches = chunk_count(stage_rows_in);
            st.wall_micros = exec::tock(stage_start);
            pr.project = Some(st);
        }
    }

    // -- Sort / distinct / limit (row-at-a-time tail, identical to legacy) --
    if need_sort {
        let sort_start = exec::tick(profiling);
        let n = out_rows.len();
        let mut order: Vec<usize> = (0..out_rows.len()).collect();
        order.sort_by(|&a, &b| {
            for (o, (ka, kb)) in p
                .order_by
                .iter()
                .zip(sort_keys[a].iter().zip(sort_keys[b].iter()))
            {
                let c = ka.total_cmp(kb);
                let c = if o.desc { c.reverse() } else { c };
                if c != Ordering::Equal {
                    return c;
                }
            }
            Ordering::Equal
        });
        out_rows = order
            .into_iter()
            .map(|i| std::mem::take(&mut out_rows[i]))
            .collect();
        if let Some(pr) = prof.as_deref_mut() {
            let mut st = OpStats::flow(n, n);
            st.wall_micros = exec::tock(sort_start);
            pr.sort = Some(st);
        }
    }

    if p.distinct {
        let distinct_start = exec::tick(profiling);
        let rows_in = out_rows.len();
        let mut seen = HashSet::new();
        out_rows.retain(|r| seen.insert(exec::canonical_row(r)));
        if let Some(pr) = prof.as_deref_mut() {
            let mut st = OpStats::flow(rows_in, out_rows.len());
            st.wall_micros = exec::tock(distinct_start);
            pr.distinct = Some(st);
        }
    }

    if let Some(l) = p.limit {
        let rows_in = out_rows.len();
        out_rows.truncate(l as usize);
        if let Some(pr) = prof {
            pr.limit = Some(OpStats::flow(rows_in, out_rows.len()));
        }
    }

    Ok(ResultSet {
        columns: p.columns.clone(),
        rows: out_rows,
        ordered: need_sort,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_rows_override_nests_and_restores() {
        let outer = batch_rows();
        with_batch_rows(7, || {
            assert_eq!(batch_rows(), 7);
            with_batch_rows(1, || assert_eq!(batch_rows(), 1));
            assert_eq!(batch_rows(), 7);
        });
        assert_eq!(batch_rows(), outer);
        // zero clamps to one rather than dividing by zero
        with_batch_rows(0, || assert_eq!(batch_rows(), 1));
    }

    #[test]
    fn chunk_count_covers_empty_and_non_divisible_inputs() {
        with_batch_rows(4, || {
            assert_eq!(chunk_count(0), 1);
            assert_eq!(chunk_count(4), 1);
            assert_eq!(chunk_count(5), 2);
            assert_eq!(chunk_count(9), 3);
        });
    }

    #[test]
    fn merge_runs_cross_products_equal_runs_probe_major() {
        let pairs = merge_runs(&[1, 2, 2, 5], &[2, 2, 3, 5]);
        assert_eq!(
            pairs,
            vec![(1, 0), (1, 1), (2, 0), (2, 1), (3, 3)],
            "equal runs must pair every probe row with every build row"
        );
    }

    #[test]
    fn join_pairs_order_matches_the_legacy_probe_major_stream() {
        let prefix = vec![Some(1i64), None, Some(2), Some(1)];
        let new = vec![Some(2i64), Some(1), None, Some(1)];
        let (keys, nulls, pairs) = join_pairs(&prefix, &new, BuildSide::New);
        assert_eq!((keys, nulls), (2, 1));
        // prefix-major, bucket insertion order: the legacy row order.
        assert_eq!(pairs, vec![(0, 1), (0, 3), (2, 0), (3, 1), (3, 3)]);
        let (keys, nulls, flipped) = join_pairs(&prefix, &new, BuildSide::Prefix);
        assert_eq!((keys, nulls), (2, 1));
        let mut sorted = flipped.clone();
        sorted.sort_unstable();
        let mut expect = pairs.clone();
        expect.sort_unstable();
        assert_eq!(
            sorted, expect,
            "both build sides must emit the same pair set"
        );
    }
}
