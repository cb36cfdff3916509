//! Vectorized columnar execution of [`SelectPlan`]s — the engine's one
//! production evaluator.
//!
//! The executor runs over the database's cached columnar form
//! ([`nli_core::ColumnBatch`]) instead of cloning `Vec<Value>` rows:
//! intermediate state is a *selection vector* per FROM entry (base-row
//! indices), and expression evaluation happens in typed batch kernels
//! ([`VCol`]) over chunks of [`batch_rows`] positions. It never reads the
//! row store. A scan whose filter cannot fail narrows its selection one
//! `AND` conjunct at a time, in loops over the stored typed slices, or by
//! binary search on a column stored sorted ([`scan_indices`]).
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
//! 2. **Join and group keys have canonical equality.** Two keys are equal
//!    exactly when their [`Value::canonical`] spellings are, the
//!    equivalence the interpreter hashes. `GROUP BY` keys each stored
//!    column by a typed value with that equality, read straight from the
//!    column ([`Key`]). A join does so only for Int⋈Int, the one pair the
//!    workloads join on; every other pair joins on the canonical string:
//!
//!    | key column | group key | join key |
//!    |---|---|---|
//!    | Int | `i64` | `i64` (both sides Int) |
//!    | Float | [`float_key`], as `i64`: `-0.0` = `0.0`, NaN = NaN | canonical string |
//!    | Bool, Date | `i64` (0/1; packed year, month, day) | canonical string |
//!    | Text | its bytes; NULL groups with `'NULL'` | canonical string |
//!    | `Mixed`, or computed | canonical string | canonical string |
//!
//!    An integral float of 1e15 or more is spelled by its digits, so no
//!    typed key joins an Int with a Float. `i64` keys go through a
//!    direct-address table when their range is dense next to the rows the
//!    operator reads ([`Dense::over`]), a hash table otherwise.
//! 3. **Joins keep the legacy row order by construction.** The legacy
//!    joined stream is ordered lexicographically by the tuple of
//!    per-FROM-entry base-row indices. Joins run in FROM order, each
//!    probing with the joined prefix and building over the attached table
//!    ([`join_pairs`]), so the pairs come out prefix-major with each
//!    probe's hits in build order: that order, with no sort.
//!
//! Chunk size is [`DEFAULT_BATCH_ROWS`] rows, overridable per call tree
//! with [`with_batch_rows`] (used by the conformance tests to exercise odd
//! sizes).

use crate::ast::{AggFunc, BinOp};
use crate::exec::{self, ResultSet};
use crate::explain::{OpStats, SelectProfile};
use crate::plan::{
    filter_infallible, flatten_plan_and, flip_cmp, DmlPlan, IndexProbe, JoinKind, PlanExpr,
    ScanNode, SelectPlan,
};
use nli_core::stats::float_key;
use nli_core::{
    obs, ColumnBatch, ColumnData, ColumnVector, Database, Date, DmlOp, NliError, NullBitmap,
    Result, Value,
};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
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

/// [`Value::compare`] for one pair of non-NULL typed values: Int–Int
/// exactly, any pair involving a Float as `f64` (NaN compares with
/// nothing, `-0.0 = 0.0`), same-type Text/Bool/Date naturally.
trait SqlCmp<R> {
    fn sql_cmp(self, r: R) -> Option<Ordering>;
}

impl SqlCmp<f64> for i64 {
    #[inline]
    fn sql_cmp(self, r: f64) -> Option<Ordering> {
        (self as f64).partial_cmp(&r)
    }
}

impl SqlCmp<i64> for f64 {
    #[inline]
    fn sql_cmp(self, r: i64) -> Option<Ordering> {
        self.partial_cmp(&(r as f64))
    }
}

impl SqlCmp<f64> for f64 {
    #[inline]
    fn sql_cmp(self, r: f64) -> Option<Ordering> {
        self.partial_cmp(&r)
    }
}

macro_rules! sql_cmp_by_ord {
    ($($t:ty),*) => {$(
        impl SqlCmp<$t> for $t {
            #[inline]
            fn sql_cmp(self, r: $t) -> Option<Ordering> {
                Some(self.cmp(&r))
            }
        }
    )*};
}
sql_cmp_by_ord!(i64, bool, &str, Date);

/// [`Value::compare`] over slots: NULL beats everything, a typed pair
/// compares by [`SqlCmp`], and every cross-type pair is incomparable.
#[inline]
fn cmp_slots(a: Slot<'_>, b: Slot<'_>) -> CmpRes {
    use Slot::*;
    let o = match (a, b) {
        (Null, _) | (_, Null) => return CmpRes::Null,
        (I(x), I(y)) => x.sql_cmp(y),
        (I(x), F(y)) => x.sql_cmp(y),
        (F(x), I(y)) => x.sql_cmp(y),
        (F(x), F(y)) => x.sql_cmp(y),
        (S(x), S(y)) => x.sql_cmp(y),
        (B(x), B(y)) => x.sql_cmp(y),
        (D(x), D(y)) => x.sql_cmp(y),
        _ => None,
    };
    o.map_or(CmpRes::Incmp, CmpRes::Ord)
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
            // A typed lane asks the list split by type, as the narrowing
            // scan does; NULL positions keep their mask.
            let keys = InKeys::new(list);
            let neg = *negated;
            let hits = |v: Vec<bool>, nulls| Ok(VCol::Bool(v, nulls));
            match eval_vcol(expr, ch)? {
                VCol::Int(v, nulls) => {
                    hits(v.iter().map(|&x| keys.has_int(x) != neg).collect(), nulls)
                }
                VCol::Float(v, nulls) => {
                    hits(v.iter().map(|&x| keys.has_float(x) != neg).collect(), nulls)
                }
                VCol::Bool(v, nulls) => hits(
                    v.iter().map(|x| keys.bools.contains(x) != neg).collect(),
                    nulls,
                ),
                VCol::Str(v, nulls) => hits(
                    v.iter().map(|x| keys.texts.contains(x) != neg).collect(),
                    nulls,
                ),
                VCol::Date(v, nulls) => hits(
                    v.iter().map(|x| keys.dates.contains(x) != neg).collect(),
                    nulls,
                ),
                inner => {
                    let mut vals = Vec::with_capacity(n);
                    let mut nulls = Vec::with_capacity(n);
                    for i in 0..n {
                        let v = vcol_value(&inner, i);
                        if v.is_null() {
                            vals.push(false);
                            nulls.push(true);
                        } else {
                            let found = list.iter().any(|x| v.sql_eq(x) == Some(true));
                            vals.push(found != neg);
                            nulls.push(false);
                        }
                    }
                    Ok(VCol::Bool(vals, nulls))
                }
            }
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
            let vals = match rows {
                // A contiguous range is one slice copy.
                Rows::Range(a) => src[a..a + n].iter().map($map).collect(),
                Rows::Sel(s) => s.iter().map(|&r| $map(&src[r as usize])).collect(),
            };
            let nulls = if cv.nulls.any_null() {
                (0..n).map(|i| cv.is_null(rows.get(i))).collect()
            } else {
                vec![false; n]
            };
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

/// Append `id(i)` for every position `i` of `ch` at which `pred` holds:
/// only a non-NULL `true` passes (SQL three-valued logic); non-boolean
/// values pass nothing, like the scalar `truthy`.
fn keep_passing(
    pred: &PlanExpr,
    ch: &Chunk<'_>,
    id: impl Fn(usize) -> u32,
    out: &mut Vec<u32>,
) -> Result<()> {
    match eval_site(ch, |ch| eval_vcol(pred, ch))? {
        VCol::Bool(v, nulls) => out.extend(
            v.iter()
                .zip(&nulls)
                .enumerate()
                .filter(|&(_, (&b, &null))| b && !null)
                .map(|(i, _)| id(i)),
        ),
        VCol::Any(v) => out.extend((0..ch.len).filter(|&i| exec::truthy(&v[i])).map(id)),
        VCol::Const(v) if exec::truthy(&v) => out.extend((0..ch.len).map(id)),
        _ => {}
    }
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

/// The base rows a scan keeps while its filter narrows them: a run of
/// rows `[a, b)` — the whole table, or what binary searches on columns
/// stored sorted kept of it — or an ascending selection.
enum Selection {
    Run(usize, usize),
    Rows(Vec<u32>),
}

impl Selection {
    fn len(&self) -> usize {
        match self {
            Selection::Run(a, b) => b - a,
            Selection::Rows(rows) => rows.len(),
        }
    }

    fn into_rows(self) -> Vec<u32> {
        match self {
            Selection::Run(a, b) => (a as u32..b as u32).collect(),
            Selection::Rows(rows) => rows,
        }
    }

    fn clear(&mut self) {
        *self = Selection::Rows(Vec::new());
    }

    /// Keep the rows at which `keep` holds.
    fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        match self {
            Selection::Run(a, b) => {
                *self = Selection::Rows(
                    (*a as u32..*b as u32)
                        .filter(|&r| keep(r as usize))
                        .collect(),
                )
            }
            Selection::Rows(rows) => rows.retain(|&r| keep(r as usize)),
        }
    }

    /// Keep the non-NULL rows of a column whose stored value passes
    /// `pass`; over a run, in one loop over the typed slice. NULL slots
    /// hold placeholders, so the bitmap decides for every row that passes.
    fn narrow<T>(&mut self, data: &[T], nulls: &NullBitmap, pass: impl Fn(&T) -> bool) {
        let has_nulls = nulls.any_null();
        let keep = |r: usize, x: &T| pass(x) && !(has_nulls && nulls.is_null(r));
        match self {
            Selection::Run(a, b) => {
                let rows = data[*a..*b].iter().zip(*a..).filter(|&(x, r)| keep(r, x));
                *self = Selection::Rows(rows.map(|(_, r)| r as u32).collect());
            }
            Selection::Rows(rows) => rows.retain(|&r| keep(r as usize, &data[r as usize])),
        }
    }

    /// Keep, of a run of a column stored sorted (so NULL-free), the rows
    /// from the first whose outcome `ord(x)` `starts` to the first whose
    /// outcome `stops`, by binary search. Along a sorted column the
    /// [`SqlCmp`] outcomes against a literal go `Less`, `Equal`, `Greater`
    /// (or are all `None`, against a NaN, which must start nothing), so
    /// every comparison but `<>` keeps one run. Returns whether it
    /// searched; a selection vector, or an unsorted column, is left alone.
    fn search<T, O>(
        &mut self,
        data: &[T],
        sorted: bool,
        ord: impl Fn(&T) -> O,
        starts: impl Fn(O) -> bool,
        stops: impl Fn(O) -> bool,
    ) -> bool {
        let Selection::Run(a, b) = *self else {
            return false;
        };
        if !sorted {
            return false;
        }
        let run = &data[a..b];
        let start = a + run.partition_point(|x| !starts(ord(x)));
        let stop = a + run.partition_point(|x| !stops(ord(x)));
        *self = Selection::Run(start, stop.max(start));
        true
    }

    /// Keep the non-NULL rows whose value `x` satisfies `x <op> k`, given
    /// `ord(x)`, the [`SqlCmp`] of `x` against `k`. The operator reads
    /// that outcome as `exec::eval_binary` reads [`Value::compare`]'s, so
    /// an incomparable pair satisfies only `<>`; it is matched once,
    /// outside the loop.
    fn narrow_cmp<T>(
        &mut self,
        data: &[T],
        nulls: &NullBitmap,
        sorted: bool,
        op: BinOp,
        ord: impl Fn(&T) -> Option<Ordering>,
    ) -> bool {
        use Ordering::{Equal, Greater, Less};
        let searched = match op {
            BinOp::Eq => self.search(
                data,
                sorted,
                &ord,
                |o| matches!(o, Some(Equal | Greater)),
                |o| o == Some(Greater),
            ),
            BinOp::Lt => self.search(data, sorted, &ord, |_| true, |o| o != Some(Less)),
            BinOp::Le => self.search(
                data,
                sorted,
                &ord,
                |_| true,
                |o| !matches!(o, Some(Less | Equal)),
            ),
            BinOp::Gt => self.search(data, sorted, &ord, |o| o == Some(Greater), |_| false),
            BinOp::Ge => self.search(
                data,
                sorted,
                &ord,
                |o| matches!(o, Some(Greater | Equal)),
                |_| false,
            ),
            _ => false,
        };
        if searched {
            return true;
        }
        match op {
            BinOp::Eq => self.narrow(data, nulls, |x| ord(x) == Some(Equal)),
            BinOp::Neq => self.narrow(data, nulls, |x| ord(x) != Some(Equal)),
            BinOp::Lt => self.narrow(data, nulls, |x| ord(x) == Some(Less)),
            BinOp::Le => self.narrow(data, nulls, |x| matches!(ord(x), Some(Less | Equal))),
            BinOp::Gt => self.narrow(data, nulls, |x| ord(x) == Some(Greater)),
            _ => self.narrow(data, nulls, |x| matches!(ord(x), Some(Greater | Equal))),
        }
        false
    }

    /// Keep the non-NULL rows whose value lies between two bounds, or
    /// outside them when `negated`, given `ord(x)`, the [`SqlCmp`] of `x`
    /// against each bound. A value incomparable with either bound is
    /// NULL, kept by neither.
    fn narrow_between<T>(
        &mut self,
        data: &[T],
        nulls: &NullBitmap,
        sorted: bool,
        negated: bool,
        ord: impl Fn(&T) -> (Option<Ordering>, Option<Ordering>),
    ) -> bool {
        use Ordering::{Equal, Greater, Less};
        if !negated
            && self.search(
                data,
                sorted,
                &ord,
                |(lo, _)| matches!(lo, Some(Greater | Equal)),
                |(_, hi)| !matches!(hi, Some(Less | Equal)),
            )
        {
            return true;
        }
        let inside = |x: &T| match ord(x) {
            (Some(lo), Some(hi)) => Some(lo != Less && hi != Greater),
            _ => None,
        };
        if negated {
            self.narrow(data, nulls, |x| inside(x) == Some(false))
        } else {
            self.narrow(data, nulls, |x| inside(x) == Some(true))
        }
        false
    }

    /// Keep the rows at which `pred` holds, through the node kernels, one
    /// chunk of the selection at a time.
    fn keep_passing(&mut self, pred: &PlanExpr, batch: &ColumnBatch, width: usize) -> Result<()> {
        let (rows, len) = match self {
            Selection::Run(a, b) => (Rows::Range(*a), *b - *a),
            Selection::Rows(sel) => (Rows::Sel(sel), sel.len()),
        };
        let mut out = Vec::new();
        for (a, b) in windows(len) {
            let w = rows.window(a, b);
            let ch = Chunk::table(batch, width, w, b - a);
            keep_passing(pred, &ch, |i| w.get(i) as u32, &mut out)?;
        }
        *self = Selection::Rows(out);
        Ok(())
    }
}

/// Narrow `sel` by one conjunct of an infallible scan filter, in a loop
/// specialised to the column's storage type, or by binary search on a
/// column stored sorted. Returns whether it searched, or `None`, leaving
/// `sel` alone, for a shape or storage without a loop (`LIKE`, `OR`/`NOT`
/// trees, `Mixed` columns); the node kernels evaluate those.
fn narrow_typed(e: &PlanExpr, batch: &ColumnBatch, sel: &mut Selection) -> Option<bool> {
    use PlanExpr::{Col, Literal};
    let col = |c: &usize| &batch.columns[*c];
    match e {
        PlanExpr::Binary {
            left,
            op: op @ (BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (Col(c), Literal(k)) => narrow_cmp(sel, col(c), *op, k),
            (Literal(k), Col(c)) => narrow_cmp(sel, col(c), flip_cmp(*op), k),
            _ => None,
        },
        PlanExpr::Between {
            expr,
            low,
            high,
            negated,
        } => match (expr.as_ref(), low.as_ref(), high.as_ref()) {
            (Col(c), Literal(lo), Literal(hi)) => narrow_between(sel, col(c), lo, hi, *negated),
            _ => None,
        },
        PlanExpr::InList {
            expr,
            list,
            negated,
        } => match expr.as_ref() {
            Col(c) => narrow_in(sel, col(c), list, *negated),
            _ => None,
        },
        _ => None,
    }
}

/// `col <op> literal`, the literal coerced once.
fn narrow_cmp(sel: &mut Selection, cv: &ColumnVector, op: BinOp, k: &Value) -> Option<bool> {
    let (nulls, sorted) = (&cv.nulls, cv.sorted_asc());
    Some(match (&cv.data, k) {
        // A NULL literal passes no row.
        (_, Value::Null) => {
            sel.clear();
            false
        }
        (ColumnData::Mixed(_), _) => return None,
        (ColumnData::Int(v), Value::Int(k)) => {
            sel.narrow_cmp(v, nulls, sorted, op, |&x| x.sql_cmp(*k))
        }
        (ColumnData::Int(v), Value::Float(k)) => {
            sel.narrow_cmp(v, nulls, sorted, op, |&x| x.sql_cmp(*k))
        }
        (ColumnData::Float(v), Value::Int(k)) => {
            sel.narrow_cmp(v, nulls, sorted, op, |&x| x.sql_cmp(*k))
        }
        (ColumnData::Float(v), Value::Float(k)) => {
            sel.narrow_cmp(v, nulls, sorted, op, |&x| x.sql_cmp(*k))
        }
        (ColumnData::Bool(v), Value::Bool(k)) => {
            sel.narrow_cmp(v, nulls, sorted, op, |&x| x.sql_cmp(*k))
        }
        (ColumnData::Text(v), Value::Text(k)) => {
            sel.narrow_cmp(v, nulls, sorted, op, |x| x.as_str().sql_cmp(k.as_str()))
        }
        (ColumnData::Date(v), Value::Date(k)) => {
            sel.narrow_cmp(v, nulls, sorted, op, |&x| x.sql_cmp(*k))
        }
        // Incomparable types: only `<>` holds, for every non-NULL row.
        _ if op == BinOp::Neq => {
            if nulls.any_null() {
                sel.retain(|r| !nulls.is_null(r));
            }
            false
        }
        _ => {
            sel.clear();
            false
        }
    })
}

/// `col [NOT] BETWEEN lo AND hi` over literal bounds.
fn narrow_between(
    sel: &mut Selection,
    cv: &ColumnVector,
    lo: &Value,
    hi: &Value,
    negated: bool,
) -> Option<bool> {
    let (nulls, sorted, neg) = (&cv.nulls, cv.sorted_asc(), negated);
    Some(match (&cv.data, lo, hi) {
        (_, Value::Null, _) | (_, _, Value::Null) => {
            sel.clear();
            false
        }
        (ColumnData::Mixed(_), ..) => return None,
        (ColumnData::Int(v), Value::Int(lo), Value::Int(hi)) => {
            sel.narrow_between(v, nulls, sorted, neg, |&x| (x.sql_cmp(*lo), x.sql_cmp(*hi)))
        }
        (ColumnData::Int(v), Value::Float(lo), Value::Float(hi)) => {
            sel.narrow_between(v, nulls, sorted, neg, |&x| (x.sql_cmp(*lo), x.sql_cmp(*hi)))
        }
        // One Int and one Float bound: the node kernels.
        (ColumnData::Int(_), Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            return None
        }
        (ColumnData::Float(v), lo, hi) => match (lo.as_f64(), hi.as_f64()) {
            (Some(lo), Some(hi)) => {
                sel.narrow_between(v, nulls, sorted, neg, |&x| (x.sql_cmp(lo), x.sql_cmp(hi)))
            }
            _ => {
                sel.clear();
                false
            }
        },
        (ColumnData::Bool(v), Value::Bool(lo), Value::Bool(hi)) => {
            sel.narrow_between(v, nulls, sorted, neg, |&x| (x.sql_cmp(*lo), x.sql_cmp(*hi)))
        }
        (ColumnData::Text(v), Value::Text(lo), Value::Text(hi)) => {
            sel.narrow_between(v, nulls, sorted, neg, |x| {
                (
                    x.as_str().sql_cmp(lo.as_str()),
                    x.as_str().sql_cmp(hi.as_str()),
                )
            })
        }
        (ColumnData::Date(v), Value::Date(lo), Value::Date(hi)) => {
            sel.narrow_between(v, nulls, sorted, neg, |&x| (x.sql_cmp(*lo), x.sql_cmp(*hi)))
        }
        // A bound of another type is incomparable: every row is NULL.
        _ => {
            sel.clear();
            false
        }
    })
}

/// An `IN` list split by item type once per call. A NULL item, or one of
/// another type than the probe, matches nothing.
#[derive(Default)]
struct InKeys<'l> {
    ints: Vec<i64>,
    floats: Vec<f64>,
    bools: Vec<bool>,
    texts: Vec<&'l str>,
    dates: Vec<Date>,
}

impl<'l> InKeys<'l> {
    fn new(list: &'l [Value]) -> InKeys<'l> {
        let mut k = InKeys::default();
        for v in list {
            match v {
                Value::Int(x) => k.ints.push(*x),
                Value::Float(x) => k.floats.push(*x),
                Value::Bool(x) => k.bools.push(*x),
                Value::Text(x) => k.texts.push(x),
                Value::Date(x) => k.dates.push(*x),
                Value::Null => {}
            }
        }
        k.ints.sort_unstable();
        k
    }

    /// Whether some item equals the Int `x`: an Int item exactly (the
    /// sorted list's bounds reject most rows at once), a Float item as
    /// `f64`.
    #[inline]
    fn has_int(&self, x: i64) -> bool {
        let int_hit = match (self.ints.first(), self.ints.last()) {
            (Some(&lo), Some(&hi)) => lo <= x && x <= hi && self.ints.binary_search(&x).is_ok(),
            _ => false,
        };
        int_hit || (!self.floats.is_empty() && self.floats.contains(&(x as f64)))
    }

    /// Whether some item equals the Float `x` as `f64`.
    #[inline]
    fn has_float(&self, x: f64) -> bool {
        self.floats.contains(&x) || self.ints.iter().any(|&k| k as f64 == x)
    }
}

/// `col [NOT] IN (literals)`, the list split by type once.
fn narrow_in(
    sel: &mut Selection,
    cv: &ColumnVector,
    list: &[Value],
    negated: bool,
) -> Option<bool> {
    let keys = InKeys::new(list);
    let nulls = &cv.nulls;
    match &cv.data {
        ColumnData::Int(v) => sel.narrow(v, nulls, |&x| keys.has_int(x) != negated),
        ColumnData::Float(v) => sel.narrow(v, nulls, |&x| keys.has_float(x) != negated),
        ColumnData::Bool(v) => sel.narrow(v, nulls, |x| keys.bools.contains(x) != negated),
        ColumnData::Text(v) => {
            sel.narrow(v, nulls, |x| keys.texts.contains(&x.as_str()) != negated)
        }
        ColumnData::Date(v) => sel.narrow(v, nulls, |x| keys.dates.contains(x) != negated),
        ColumnData::Mixed(_) => return None,
    }
    Some(false)
}

/// The rows an index probe or a binary search left a scan's filter, as
/// the OpStats counter that reports them.
type Candidates = Option<(&'static str, u64)>;

/// Selection vector of base rows surviving a scan's pushed-down filter,
/// plus, when an index probe or a binary search found the rows the filter
/// then ran over, their count as an OpStats counter (`index_candidates`
/// or `search_candidates`; `None` for full scans).
///
/// The selection starts as the whole table, or as the index probe's
/// candidates (ascending row ids, per the superset-probe contract on
/// [`IndexProbe`]; a column without a usable index, e.g. mistyped `Mixed`
/// storage, keeps the whole table). The FULL pushed-down filter then runs
/// over it, so the survivors are byte-identical to a full scan.
///
/// A filter that can never raise an error ([`filter_infallible`]) narrows
/// the selection one `AND` conjunct at a time: first every conjunct with a
/// typed loop ([`narrow_typed`]), in the order the filter names them, then
/// the rest through the node kernels over the rows still selected. A
/// comparison on a column stored sorted binary-searches only while the
/// selection is still a run of rows, that is, while no earlier conjunct
/// has looped: `id = 5 AND amount > 100` searches, while `amount > 100
/// AND id = 5` loops over the table and then over the rows it kept.
/// Skipping rows is sound only because no row can fail; any other filter
/// runs whole, chunk by chunk, under [`eval_site`], so its error is the
/// one row-at-a-time evaluation raises.
fn scan_indices(
    node: &ScanNode,
    batch: &ColumnBatch,
    db: &Database,
) -> Result<(Vec<u32>, Candidates)> {
    let n = batch.rows;
    assert!(n <= u32::MAX as usize, "table too large for u32 selections");
    let mut sel = Selection::Run(0, n);
    let Some(filter) = &node.filter else {
        return Ok((sel.into_rows(), None));
    };
    let mut candidates = None;
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
            candidates = Some(("index_candidates", cand.len() as u64));
            sel = Selection::Rows(cand);
        }
    }
    if filter_infallible(filter) {
        let mut conjuncts = Vec::new();
        flatten_plan_and(filter, &mut conjuncts);
        conjuncts.retain(|c| match narrow_typed(c, batch, &mut sel) {
            Some(searched) => {
                if searched {
                    candidates = Some(("search_candidates", sel.len() as u64));
                }
                false
            }
            None => true,
        });
        for c in conjuncts {
            if sel.len() == 0 {
                break;
            }
            sel.keep_passing(c, batch, node.width)?;
        }
    } else {
        sel.keep_passing(filter, batch, node.width)?;
    }
    Ok((sel.into_rows(), candidates))
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
    let mut sel = Selection::Rows(scan_indices(scan, batch, db)?.0);
    if let Some(r) = residual {
        sel.keep_passing(&exec::materialize_subplans(r, db)?, batch, scan.width)?;
    }
    Ok(sel.into_rows())
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
// Keys: typed join and group keys with canonical equality
// ---------------------------------------------------------------------------

/// A stored value as a group key (an Int also as a join key): two values
/// share a key exactly when their [`Value::canonical`] spellings are
/// equal. Ints, bools, dates and floats ([`float_key`]) key as `i64`, text
/// as its bytes.
trait Key<'a> {
    type K: Eq + Hash;
    fn key(&'a self) -> Self::K;
}

impl Key<'_> for i64 {
    type K = i64;
    #[inline]
    fn key(&self) -> i64 {
        *self
    }
}

impl Key<'_> for bool {
    type K = i64;
    #[inline]
    fn key(&self) -> i64 {
        i64::from(*self)
    }
}

impl Key<'_> for f64 {
    type K = i64;
    #[inline]
    fn key(&self) -> i64 {
        float_key(*self) as i64
    }
}

impl Key<'_> for Date {
    type K = i64;
    #[inline]
    fn key(&self) -> i64 {
        i64::from(self.year) << 16 | i64::from(self.month) << 8 | i64::from(self.day)
    }
}

impl<'a> Key<'a> for String {
    type K = &'a str;
    #[inline]
    fn key(&'a self) -> &'a str {
        self
    }
}

/// The key of a stored column at each position of `sel`, `None` for NULL.
fn keys_at<'a, T: Key<'a>>(
    vals: &'a [T],
    cv: &'a ColumnVector,
    sel: &'a [u32],
) -> impl Fn(usize) -> Option<T::K> + 'a {
    let has_nulls = cv.nulls.any_null();
    move |pos| {
        let r = sel[pos] as usize;
        if has_nulls && cv.is_null(r) {
            None
        } else {
            Some(vals[r].key())
        }
    }
}

/// The canonical spelling at each position of `sel`, `None` for NULL: the
/// join key of every column pair but Int⋈Int.
fn canonical_at<'a>(cv: &'a ColumnVector, sel: &'a [u32]) -> impl Fn(usize) -> Option<String> + 'a {
    move |pos| {
        let r = sel[pos] as usize;
        (!cv.is_null(r)).then(|| cv.value_at(r).canonical())
    }
}

/// Numbered slots for keys: one per distinct key, from 1; slot 0 is left
/// for NULL.
trait Slots<K> {
    /// The slot of `k`, allocated on first sight.
    fn insert(&mut self, k: K) -> usize;
    /// The slot of `k`, if it has one.
    fn find(&self, k: &K) -> Option<usize>;
    /// One more than the largest slot.
    fn len(&self) -> usize;
}

/// Direct addressing over the key range `[lo, hi]`: key `k` is slot
/// `k - lo + 1`.
struct Dense {
    lo: i64,
    hi: i64,
}

impl Dense {
    /// The dense-range rule joins and `GROUP BY` share: address keys
    /// directly when they span fewer than four slots per row the operator
    /// reads, plus 1024, so the table stays small next to its input.
    /// `None` when the keys are sparser, or there are none.
    fn over(keys: impl Iterator<Item = i64>, rows: usize) -> Option<Dense> {
        let (lo, hi) = keys.fold((i64::MAX, i64::MIN), |(lo, hi), k| (lo.min(k), hi.max(k)));
        (lo <= hi && hi.abs_diff(lo) < 4 * rows as u64 + 1024).then_some(Dense { lo, hi })
    }
}

impl Slots<i64> for Dense {
    /// `k` must lie in the range the table was sized over.
    #[inline]
    fn insert(&mut self, k: i64) -> usize {
        debug_assert!(self.lo <= k && k <= self.hi);
        k.abs_diff(self.lo) as usize + 1
    }

    #[inline]
    fn find(&self, k: &i64) -> Option<usize> {
        (self.lo <= *k && *k <= self.hi).then(|| k.abs_diff(self.lo) as usize + 1)
    }

    fn len(&self) -> usize {
        self.hi.abs_diff(self.lo) as usize + 2
    }
}

/// Hash-table slots, numbered in insertion order.
struct Hashed<K>(HashMap<K, usize>);

impl<K> Hashed<K> {
    fn new() -> Hashed<K> {
        Hashed(HashMap::new())
    }
}

impl<K: Eq + Hash> Slots<K> for Hashed<K> {
    #[inline]
    fn insert(&mut self, k: K) -> usize {
        let next = self.0.len() + 1;
        *self.0.entry(k).or_insert(next)
    }

    #[inline]
    fn find(&self, k: &K) -> Option<usize> {
        self.0.get(k).copied()
    }

    fn len(&self) -> usize {
        self.0.len() + 1
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

/// A hash join's outcome: distinct build keys, NULL build keys, and the
/// matched (prefix position, new position) pairs.
type Joined = (u64, u64, Vec<(u32, u32)>);

/// No chained build position.
const NONE: u32 = u32::MAX;

/// Hash-join the `np` probe keys of the joined prefix against the `nb`
/// build keys of the attached table, building over the latter. The pairs
/// come out prefix-major in probe order, each probe's hits in build
/// order: exactly the legacy row order.
fn join_pairs<K, F: Fn(usize) -> Option<K>>(
    mut slots: impl Slots<K>,
    (probe, np): (F, usize),
    (build, nb): (F, usize),
) -> Joined {
    // Each slot chains its build positions; inserting the last position
    // first leaves every chain ascending.
    let mut head: Vec<u32> = Vec::new();
    let mut next = vec![NONE; nb];
    let mut null_build = 0u64;
    for i in (0..nb).rev() {
        let Some(k) = build(i) else {
            null_build += 1;
            continue;
        };
        let s = slots.insert(k);
        if s >= head.len() {
            head.resize(s + 1, NONE);
        }
        next[i] = head[s];
        head[s] = i as u32;
    }
    head.resize(slots.len(), NONE);
    let keys = head.iter().filter(|&&h| h != NONE).count() as u64;
    let mut pairs = Vec::new();
    for i in 0..np {
        let Some(s) = probe(i).and_then(|k| slots.find(&k)) else {
            continue;
        };
        let mut h = head[s];
        while h != NONE {
            pairs.push((i as u32, h));
            h = next[h as usize];
        }
    }
    (keys, null_build, pairs)
}

/// Hash-join two stored key columns through their selections. Int⋈Int
/// joins on the stored `i64`s, directly addressed when the build keys are
/// dense next to the rows both sides read ([`Dense::over`]), hashed
/// otherwise. Every other pair joins on the canonical spelling, the key
/// the tree-walk hashes: `Mixed` storage and pairs of two types
/// (Int⋈Float among them) need it, and no workload joins on another
/// type.
fn hash_pairs(pcv: &ColumnVector, psel: &[u32], bcv: &ColumnVector, bsel: &[u32]) -> Joined {
    let (np, nb) = (psel.len(), bsel.len());
    let (ColumnData::Int(p), ColumnData::Int(b)) = (&pcv.data, &bcv.data) else {
        return join_pairs(
            Hashed::new(),
            (canonical_at(pcv, psel), np),
            (canonical_at(bcv, bsel), nb),
        );
    };
    let probe = (keys_at(p, pcv, psel), np);
    let build = (keys_at(b, bcv, bsel), nb);
    match Dense::over((0..nb).filter_map(&build.0), np + nb) {
        Some(dense) => join_pairs(dense, probe, build),
        None => join_pairs(Hashed::new(), probe, build),
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Code the key `key(i)` of each of `n` positions through `slots`:
/// positions share a code exactly when their keys are equal, and code 0 is
/// NULL's. Returns the codes and their number.
fn codes_with<K>(
    mut slots: impl Slots<K>,
    n: usize,
    key: impl Fn(usize) -> Option<K>,
) -> (Vec<u32>, usize) {
    let codes = (0..n)
        .map(|i| key(i).map_or(0, |k| slots.insert(k) as u32))
        .collect();
    (codes, slots.len())
}

/// Code `i64` keys by the dense-range rule ([`Dense::over`]).
fn int_codes(n: usize, key: impl Fn(usize) -> Option<i64>) -> (Vec<u32>, usize) {
    match Dense::over((0..n).filter_map(&key), n) {
        Some(dense) => codes_with(dense, n, key),
        None => codes_with(Hashed::new(), n, key),
    }
}

/// Code a stored key column at the positions `sel`; `None` for `Mixed`
/// storage. A Text NULL takes the code of the text `'NULL'`, which has the
/// same canonical spelling.
fn column_codes(cv: &ColumnVector, sel: &[u32]) -> Option<(Vec<u32>, usize)> {
    if cv.len() < sel.len() {
        // A table with fewer rows than the frame has positions (a
        // dimension joined to its facts) is coded once over its rows;
        // each position reads its row's code.
        let rows: Vec<u32> = (0..cv.len() as u32).collect();
        let (base, k) = column_codes(cv, &rows)?;
        return Some((sel.iter().map(|&r| base[r as usize]).collect(), k));
    }
    let n = sel.len();
    Some(match &cv.data {
        ColumnData::Int(v) => int_codes(n, keys_at(v, cv, sel)),
        ColumnData::Float(v) => int_codes(n, keys_at(v, cv, sel)),
        ColumnData::Bool(v) => int_codes(n, keys_at(v, cv, sel)),
        ColumnData::Date(v) => int_codes(n, keys_at(v, cv, sel)),
        ColumnData::Text(v) => {
            let text = keys_at(v, cv, sel);
            codes_with(Hashed::new(), n, |i| Some(text(i).unwrap_or("NULL")))
        }
        ColumnData::Mixed(_) => return None,
    })
}

/// Group the frame's positions by the GROUP BY key, first-seen order.
/// With no GROUP BY, everything (possibly nothing) is one group — the
/// "aggregates over empty input still produce one row" rule.
///
/// The key is coded part by part: each stored typed column on its own
/// ([`column_codes`]), the rest — computed keys, and `Mixed` columns —
/// evaluated together by the kernels and coded by their canonical
/// spellings (a stored column cannot fail, so their error is the one
/// row-at-a-time evaluation raises). The parts' codes combine into one
/// per key tuple, and groups are numbered as their codes are first seen.
fn group_positions(p: &SelectPlan, fr: &Frame) -> Result<Vec<Vec<u32>>> {
    if p.group_by.is_empty() {
        return Ok(vec![(0..fr.len as u32).collect()]);
    }
    let mut parts: Vec<(Vec<u32>, usize)> = Vec::new();
    let mut computed: Vec<&PlanExpr> = Vec::new();
    for g in &p.group_by {
        let codes = match g {
            PlanExpr::Col(off) => {
                let (cv, e) = fr.cols[*off];
                column_codes(cv, &fr.sels[e])
            }
            _ => None,
        };
        match codes {
            Some(codes) => parts.push(codes),
            None => computed.push(g),
        }
    }
    if !computed.is_empty() {
        let mut slots = Hashed::new();
        let mut codes = Vec::with_capacity(fr.len);
        for (a, b) in windows(fr.len) {
            let ch = fr.chunk(a, b);
            let cols = eval_site(&ch, |ch| eval_list(computed.iter().copied(), ch))?;
            for i in 0..ch.len {
                let key: Vec<String> = cols.iter().map(|c| vcol_value(c, i).canonical()).collect();
                codes.push(slots.insert(key) as u32);
            }
        }
        parts.push((codes, slots.len()));
    }
    let (codes, k) = parts
        .into_iter()
        .reduce(|(a, _), (b, kb)| {
            int_codes(fr.len, |i| {
                Some((u64::from(a[i]) * kb as u64 + u64::from(b[i])) as i64)
            })
        })
        .expect("GROUP BY has a key");
    let mut group_of = vec![NONE; k];
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for (pos, &c) in codes.iter().enumerate() {
        let g = &mut group_of[c as usize];
        if *g == NONE {
            *g = groups.len() as u32;
            groups.push(Vec::new());
        }
        groups[*g as usize].push(pos as u32);
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
                    vals.retain(|v| seen.insert(float_key(*v)));
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
    let mut scan_sels: Vec<Vec<u32>> = Vec::with_capacity(p.scans.len());
    for (e, node) in p.scans.iter().enumerate() {
        let start = exec::tick(profiling);
        let (sel, candidates) = scan_indices(node, &batches[e], db)?;
        if let Some(pr) = prof.as_deref_mut() {
            let mut st = OpStats::flow(batches[e].rows, sel.len());
            // Index probes and binary searches leave only the candidate
            // chunks to filter, not the table.
            st.batches = chunk_count(candidates.map_or(batches[e].rows, |(_, c)| c as usize));
            st.wall_micros = exec::tock(start);
            st.counters.extend(candidates);
            pr.scans.push(st);
        }
        scan_sels.push(sel);
    }

    // -- Join: attach each FROM entry to the prefix, in FROM order ----------
    // `sels[e]` is the selection vector of joined entry `e`, all `len` long.
    let mut scan_sels = scan_sels.into_iter();
    let mut sels: Vec<Vec<u32>> = scan_sels.next().into_iter().collect();
    for (k, step) in p.joins.iter().enumerate() {
        let start = exec::tick(profiling);
        let new_e = k + 1;
        let new_sel = scan_sels.next().expect("one scan per join step");
        let prefix_len = sels[0].len();
        let rows_in = prefix_len + new_sel.len();
        let mut counters: Vec<(&'static str, u64)> = Vec::new();
        let pairs = match *step {
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
            } => {
                let (pe, plocal) = entry_col_of(p, probe_off);
                let pcv = &batches[pe].columns[plocal];
                let bcv = &batches[new_e].columns[build_col];
                let (build_keys, null_build, pairs) = hash_pairs(pcv, &sels[pe], bcv, &new_sel);
                if profiling {
                    counters.push(("build_rows", new_sel.len() as u64));
                    counters.push(("build_keys", build_keys));
                    counters.push(("null_build_keys", null_build));
                    counters.push(("probe_rows", prefix_len as u64));
                }
                pairs
            }
        };
        // Apply the pair list to every joined selection vector.
        assert!(pairs.len() <= u32::MAX as usize, "join output too large");
        for sel in &mut sels {
            *sel = pairs.iter().map(|&(ppos, _)| sel[ppos as usize]).collect();
        }
        sels.push(
            pairs
                .iter()
                .map(|&(_, npos)| new_sel[npos as usize])
                .collect(),
        );
        if let Some(pr) = prof.as_deref_mut() {
            let mut st = OpStats::flow(rows_in, pairs.len());
            st.batches = chunk_count(rows_in);
            st.wall_micros = exec::tock(start);
            st.counters = counters;
            pr.joins.push(st);
        }
    }
    let len = sels.first().map_or(0, Vec::len);

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
        // An ORDER BY key that is also a select item takes the item's value.
        let order_items: Vec<Option<usize>> = p
            .order_by
            .iter()
            .map(|o| p.items.iter().position(|it| *it == o.expr))
            .collect();
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
                for (o, item) in p.order_by.iter().zip(&order_items) {
                    keys.push(match item {
                        Some(j) => out[*j].clone(),
                        None => eval_group_v(&o.expr, &frame, g)?,
                    });
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

    fn keys(v: &[Option<i64>]) -> (impl Fn(usize) -> Option<i64> + '_, usize) {
        (move |i| v[i], v.len())
    }

    #[test]
    fn join_pairs_order_matches_the_legacy_probe_major_stream() {
        let prefix = [Some(1i64), None, Some(2), Some(1)];
        let new = [Some(2i64), Some(1), None, Some(1)];
        for dense in [false, true] {
            let (n_keys, nulls, pairs) = if dense {
                join_pairs(Dense { lo: 1, hi: 2 }, keys(&prefix), keys(&new))
            } else {
                join_pairs(Hashed::new(), keys(&prefix), keys(&new))
            };
            assert_eq!((n_keys, nulls), (2, 1));
            // prefix-major, hits in build order: the legacy row order.
            assert_eq!(pairs, vec![(0, 1), (0, 3), (2, 0), (3, 1), (3, 3)]);
        }
    }
}
