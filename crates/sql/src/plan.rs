//! Logical query plans: schema-bound, database-independent.
//!
//! [`plan_query`] compiles an AST [`Query`] against a [`Schema`] into a
//! [`QueryPlan`]: every column reference is resolved to an offset in the
//! joined row, join conditions become explicit [`JoinKind::Hash`] steps,
//! and single-table WHERE conjuncts are pushed below the join into their
//! [`ScanNode`]. Because a plan never touches row *data*, one plan can
//! execute against any database whose schema shares the same
//! [`Schema::fingerprint`] — the property the prepared-query cache and
//! test-suite evaluation are built on.
//!
//! Two planning rules do the heavy lifting:
//!
//! 1. **Join-condition extraction.** Explicit `JOIN ... ON a = b` conditions
//!    and top-level `WHERE` conjuncts of the shape `t1.x = t2.y` both
//!    become equi-join steps, so the comma-FROM spelling (`FROM a, b WHERE
//!    a.x = b.y`) no longer pays for a cartesian product.
//! 2. **Predicate pushdown.** A remaining conjunct that mentions only one
//!    FROM entry (and no subquery or aggregate) filters that table's scan
//!    before the join instead of the joined stream after it.
//!
//! Every plan joins in FROM order, each hash join building over the table
//! it attaches. Given table statistics ([`nli_core::DatabaseStats`]),
//! [`plan_query`] also runs a **cost pass** over the scans: it estimates
//! each scan's output cardinality from per-column NDV/min/max
//! ([`ScanNode::est_rows`]) and prices the scan's filter to choose an
//! index probe ([`ScanNode::index`]). Nothing else differs from the
//! rule-based plan, which is what makes the two plans result-equivalent
//! by construction.

use crate::ast::{
    AggFunc, BinOp, ColName, DeleteStmt, Expr, InsertStmt, Query, Select, SelectItem, SetOp,
    Statement, UpdateStmt,
};
use nli_core::{DataType, DatabaseStats, NliError, Result, Schema, TableStats, Value};
use std::cmp::Ordering;

/// A bound expression: structurally an [`Expr`], but with every column
/// resolved to a row offset and every subquery compiled to its own plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanExpr {
    /// Offset into the joined row.
    Col(usize),
    Literal(Value),
    /// `*` — legal only as the sole select item or inside `COUNT(*)`.
    Star,
    Agg {
        func: AggFunc,
        arg: Box<PlanExpr>,
        distinct: bool,
    },
    Binary {
        left: Box<PlanExpr>,
        op: BinOp,
        right: Box<PlanExpr>,
    },
    Not(Box<PlanExpr>),
    Like {
        expr: Box<PlanExpr>,
        pattern: String,
        negated: bool,
    },
    Between {
        expr: Box<PlanExpr>,
        low: Box<PlanExpr>,
        high: Box<PlanExpr>,
        negated: bool,
    },
    InList {
        expr: Box<PlanExpr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// `IN (SELECT ...)` with the subquery compiled; materialized to an
    /// [`PlanExpr::InList`] per database at execution time.
    InPlan {
        expr: Box<PlanExpr>,
        plan: Box<QueryPlan>,
        negated: bool,
    },
    /// Scalar subquery, materialized to a [`PlanExpr::Literal`] per
    /// database at execution time.
    ScalarPlan(Box<QueryPlan>),
    IsNull {
        expr: Box<PlanExpr>,
        negated: bool,
    },
}

impl PlanExpr {
    /// Visit every node (pre-order).
    fn visit(&self, f: &mut impl FnMut(&PlanExpr)) {
        f(self);
        match self {
            PlanExpr::Agg { arg: e, .. }
            | PlanExpr::Not(e)
            | PlanExpr::Like { expr: e, .. }
            | PlanExpr::InList { expr: e, .. }
            | PlanExpr::InPlan { expr: e, .. }
            | PlanExpr::IsNull { expr: e, .. } => e.visit(f),
            PlanExpr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            PlanExpr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            PlanExpr::Col(_) | PlanExpr::Literal(_) | PlanExpr::Star | PlanExpr::ScalarPlan(_) => {}
        }
    }

    /// Rewrite every column offset (used to rebase pushed-down predicates
    /// to table-local offsets).
    fn map_cols(self, f: &impl Fn(usize) -> usize) -> PlanExpr {
        match self {
            PlanExpr::Col(o) => PlanExpr::Col(f(o)),
            PlanExpr::Agg {
                func,
                arg,
                distinct,
            } => PlanExpr::Agg {
                func,
                arg: Box::new(arg.map_cols(f)),
                distinct,
            },
            PlanExpr::Binary { left, op, right } => PlanExpr::Binary {
                left: Box::new(left.map_cols(f)),
                op,
                right: Box::new(right.map_cols(f)),
            },
            PlanExpr::Not(e) => PlanExpr::Not(Box::new(e.map_cols(f))),
            PlanExpr::Like {
                expr,
                pattern,
                negated,
            } => PlanExpr::Like {
                expr: Box::new(expr.map_cols(f)),
                pattern,
                negated,
            },
            PlanExpr::Between {
                expr,
                low,
                high,
                negated,
            } => PlanExpr::Between {
                expr: Box::new(expr.map_cols(f)),
                low: Box::new(low.map_cols(f)),
                high: Box::new(high.map_cols(f)),
                negated,
            },
            PlanExpr::InList {
                expr,
                list,
                negated,
            } => PlanExpr::InList {
                expr: Box::new(expr.map_cols(f)),
                list,
                negated,
            },
            PlanExpr::InPlan {
                expr,
                plan,
                negated,
            } => PlanExpr::InPlan {
                expr: Box::new(expr.map_cols(f)),
                plan,
                negated,
            },
            other @ (PlanExpr::Literal(_) | PlanExpr::Star | PlanExpr::ScalarPlan(_)) => other,
            PlanExpr::IsNull { expr, negated } => PlanExpr::IsNull {
                expr: Box::new(expr.map_cols(f)),
                negated,
            },
        }
    }

    /// Column offsets referenced anywhere in this expression.
    fn col_offsets(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let PlanExpr::Col(o) = e {
                out.push(*o);
            }
        });
        out
    }

    pub(crate) fn has_subplan(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, PlanExpr::InPlan { .. } | PlanExpr::ScalarPlan(_)) {
                found = true;
            }
        });
        found
    }

    /// Number of compiled subquery nodes (the `subplans` OpStats counter).
    pub(crate) fn count_subplans(&self) -> u64 {
        let mut n = 0;
        self.visit(&mut |e| {
            if matches!(e, PlanExpr::InPlan { .. } | PlanExpr::ScalarPlan(_)) {
                n += 1;
            }
        });
        n
    }

    fn has_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, PlanExpr::Agg { .. }) {
                found = true;
            }
        });
        found
    }
}

/// How an index probe narrows a scan to a candidate row set. Extracted
/// from one sargable AND-level conjunct of the pushed-down filter (or the
/// intersection of several range conjuncts over the same column); the scan
/// still re-applies the FULL filter over the candidates, so a probe only
/// has to yield a *superset* of the matching rows to be byte-identical to
/// the full scan.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexProbe {
    /// `col = literal`.
    Eq(Value),
    /// `col IN (v1, ..., vn)`.
    In(Vec<Value>),
    /// Range with optional bounds; the `bool` is bound inclusivity.
    Range {
        lo: Option<(Value, bool)>,
        hi: Option<(Value, bool)>,
    },
    /// `col IS NULL` — served from the index's segregated NULL list.
    IsNull,
}

/// The index access path chosen for a scan: which column of the scanned
/// table to probe (table-local offset) and how.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexAccess {
    /// Table-local column offset (`0..scan.width`).
    pub column: usize,
    pub probe: IndexProbe,
}

/// Index policy the engine hands the cost-based planner: which columns may
/// serve an index probe (see [`plan_query`]).
#[derive(Debug, Clone, Default)]
pub struct IndexOptions {
    /// Auto-index mode: any Int/Date/Text column qualifies; the executor
    /// builds its index lazily on first probe.
    pub auto: bool,
    /// Explicitly declared indexes as `(table, column)` schema positions
    /// ([`nli_core::Database::index_declarations`]); these qualify even
    /// with `auto` off.
    pub declared: std::collections::BTreeSet<(usize, usize)>,
}

/// One base-table access: which table, where its columns land in the joined
/// row, and the predicate (over *table-local* offsets) applied during the
/// scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanNode {
    /// Index into `schema.tables`.
    pub table: usize,
    /// The scanned table's name, captured at plan time so EXPLAIN can
    /// print the tree without re-consulting a schema.
    pub table_name: String,
    /// Column offset of this table's first column in the joined row.
    pub offset: usize,
    /// Number of columns.
    pub width: usize,
    /// Pushed-down filter over this table's own columns (offsets 0..width).
    pub filter: Option<PlanExpr>,
    /// Planner estimate of rows surviving the scan filter; `None` for
    /// rule-based plans (no statistics consulted).
    pub est_rows: Option<u64>,
    /// Index access path chosen by the cost pass; `None` for rule-based
    /// plans and non-sargable filters. The full `filter` is applied either
    /// way — the probe only narrows which rows are inspected.
    pub index: Option<IndexAccess>,
}

/// How join step `k` attaches FROM entry `k + 1` to the already-joined
/// prefix of entries `0..=k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Equi-join via a hash table built over the attached entry:
    /// `probe_off` is the prefix-side key as an offset into the joined row,
    /// `build_col` is table-local to the attached entry.
    Hash { probe_off: usize, build_col: usize },
    /// No connecting condition found: cartesian product.
    Cross,
}

/// Sort key: bound expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: PlanExpr,
    pub desc: bool,
}

/// A compiled SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    pub scans: Vec<ScanNode>,
    /// One step per scan after the first (`joins.len() == scans.len() - 1`),
    /// in FROM order: `joins[k]` attaches `scans[k + 1]`.
    pub joins: Vec<JoinKind>,
    /// WHERE conjuncts that survived extraction and pushdown, re-folded
    /// with AND; evaluated against the joined row.
    pub residual: Option<PlanExpr>,
    /// Whether the query is grouped/aggregated (same detection rule the
    /// AST interpreter uses).
    pub aggregate: bool,
    pub group_by: Vec<PlanExpr>,
    pub having: Option<PlanExpr>,
    /// `SELECT *` as the only item (projection is the identity).
    pub star: bool,
    pub items: Vec<PlanExpr>,
    /// Output column names, fixed at plan time.
    pub columns: Vec<String>,
    /// Name of every column of the joined row (qualified when ambiguous
    /// across FROM entries); lets EXPLAIN print bound offsets as names.
    pub joined_columns: Vec<String>,
    pub order_by: Vec<SortKey>,
    pub distinct: bool,
    pub limit: Option<u64>,
}

/// A compiled query: a select plan plus optional compound set operation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    pub select: SelectPlan,
    pub compound: Option<(SetOp, Box<QueryPlan>)>,
}

impl QueryPlan {
    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.select.columns.len()
    }
}

/// Compile `q` against `schema`. All name resolution happens here;
/// execution never consults names again.
///
/// Without `cost` the plan is rule-based. With `cost = Some((stats,
/// opts))` the cost pass runs too: the same plan, but each scan carries
/// its cardinality estimate for `EXPLAIN` and may probe an index chosen
/// from `stats`, where `opts` decides which columns may serve one.
/// A cost-based plan is only valid to *reuse* for databases at the same
/// stats epoch (key the plan cache on it; see
/// [`nli_core::Database::stats_epoch`]) — though running it against any
/// same-schema database still produces correct results, because cost
/// choices never change query semantics. Subqueries are always planned
/// rule-based.
pub fn plan_query(
    q: &Query,
    schema: &Schema,
    cost: Option<(&DatabaseStats, &IndexOptions)>,
) -> Result<QueryPlan> {
    let select = plan_select(&q.select, schema, cost)?;
    let compound = match &q.compound {
        Some((op, rhs)) => Some((*op, Box::new(plan_query(rhs, schema, cost)?))),
        None => None,
    };
    Ok(QueryPlan { select, compound })
}

// ---------------------------------------------------------------------------
// DML plans
// ---------------------------------------------------------------------------

/// A compiled DML statement. Like [`QueryPlan`], a `DmlPlan` is bound to a
/// [`Schema`] but independent of row data: UPDATE/DELETE carry an ordinary
/// [`ScanNode`] (so the WHERE clause inherits predicate pushdown and
/// index-access selection from the SELECT planner), and executors turn the
/// plan into a physical [`nli_core::DmlOp`] without consulting names again.
#[derive(Debug, Clone, PartialEq)]
pub enum DmlPlan {
    Insert {
        /// Schema index of the target table.
        table: usize,
        table_name: String,
        /// Rows already widened to full schema column order; columns the
        /// statement did not name hold [`Value::Null`].
        rows: Vec<Vec<Value>>,
    },
    Update {
        /// WHERE clause compiled as a single-table scan (column offsets are
        /// table-local, exactly as in a one-table [`SelectPlan`]).
        scan: ScanNode,
        /// WHERE conjuncts the pushdown could not place in the scan
        /// (subqueries); evaluated row-wise over scan survivors.
        residual: Option<PlanExpr>,
        /// `(column index, bound rhs)` per SET pair; every rhs is evaluated
        /// against the *pre-update* row, so `SET a = b, b = a` swaps.
        set: Vec<(usize, PlanExpr)>,
    },
    Delete {
        scan: ScanNode,
        residual: Option<PlanExpr>,
    },
}

impl DmlPlan {
    /// Schema index of the table this plan mutates.
    pub fn table(&self) -> usize {
        match self {
            DmlPlan::Insert { table, .. } => *table,
            DmlPlan::Update { scan, .. } | DmlPlan::Delete { scan, .. } => scan.table,
        }
    }
}

/// Compile a DML statement against `schema`. The UPDATE/DELETE `WHERE`
/// clause is planned exactly like `SELECT * FROM t WHERE ...` through
/// [`plan_query`]'s machinery, so it reuses pushdown and, given `cost`,
/// the same index access paths a read would use.
pub fn plan_dml(
    stmt: &Statement,
    schema: &Schema,
    cost: Option<(&DatabaseStats, &IndexOptions)>,
) -> Result<DmlPlan> {
    match stmt {
        Statement::Select(_) => Err(NliError::Execution(
            "plan_dml expects a DML statement; use plan_query for SELECT".into(),
        )),
        Statement::Insert(ins) => plan_insert(ins, schema),
        Statement::Update(upd) => plan_update(upd, schema, cost),
        Statement::Delete(del) => plan_delete(del, schema, cost),
    }
}

fn dml_table_index(schema: &Schema, name: &str) -> Result<usize> {
    schema
        .table_index(name)
        .ok_or_else(|| NliError::UnknownTable(name.to_string()))
}

fn plan_insert(ins: &InsertStmt, schema: &Schema) -> Result<DmlPlan> {
    let ti = dml_table_index(schema, &ins.table)?;
    let table = &schema.tables[ti];
    let width = table.columns.len();

    // Resolve the optional column list to schema positions, rejecting
    // duplicates; absent, rows must cover the full schema order.
    let positions: Vec<usize> = match &ins.columns {
        Some(cols) => {
            let mut seen = vec![false; width];
            let mut out = Vec::with_capacity(cols.len());
            for c in cols {
                let ci = table
                    .column_index(c)
                    .ok_or_else(|| NliError::UnknownColumn(format!("{}.{c}", table.name)))?;
                if seen[ci] {
                    return Err(NliError::Execution(format!(
                        "duplicate column {} in INSERT column list",
                        table.columns[ci].name
                    )));
                }
                seen[ci] = true;
                out.push(ci);
            }
            out
        }
        None => (0..width).collect(),
    };

    let mut rows = Vec::with_capacity(ins.rows.len());
    for r in &ins.rows {
        if r.len() != positions.len() {
            return Err(NliError::Execution(format!(
                "INSERT row has {} values, expected {}",
                r.len(),
                positions.len()
            )));
        }
        let mut full = vec![Value::Null; width];
        for (p, v) in positions.iter().zip(r) {
            full[*p] = v.clone();
        }
        rows.push(full);
    }
    Ok(DmlPlan::Insert {
        table: ti,
        table_name: table.name.clone(),
        rows,
    })
}

/// Plan a DML WHERE clause by compiling the synthetic query
/// `SELECT * FROM <table> WHERE <predicate>` — a single-table select, so
/// the resulting [`ScanNode`] has offset 0 and table-local column offsets,
/// and pushdown/index selection behave identically to reads.
fn plan_dml_scan(
    table_name: &str,
    where_clause: &Option<Expr>,
    schema: &Schema,
    stats: Option<(&DatabaseStats, &IndexOptions)>,
) -> Result<(ScanNode, Option<PlanExpr>)> {
    let mut synthetic = Select::simple(table_name, vec![SelectItem::plain(Expr::Star)]);
    synthetic.where_clause = where_clause.clone();
    let plan = plan_select(&synthetic, schema, stats)?;
    debug_assert_eq!(plan.scans.len(), 1);
    let scan = plan.scans.into_iter().next().expect("single-table scan");
    if let Some(r) = &plan.residual {
        if r.has_aggregate() {
            return Err(NliError::Execution(
                "aggregates are not allowed in a DML WHERE clause".into(),
            ));
        }
    }
    Ok((scan, plan.residual))
}

fn plan_update(
    upd: &UpdateStmt,
    schema: &Schema,
    stats: Option<(&DatabaseStats, &IndexOptions)>,
) -> Result<DmlPlan> {
    let ti = dml_table_index(schema, &upd.table)?;
    let table = &schema.tables[ti];
    let (scan, residual) = plan_dml_scan(&table.name, &upd.where_clause, schema, stats)?;

    // Bind SET right-hand sides in the same single-table scope as the WHERE
    // clause, so column offsets in the rhs are table-local too.
    let synthetic = Select::simple(&table.name, vec![SelectItem::plain(Expr::Star)]);
    let binder = Binder::bind(schema, &synthetic)?;
    let mut seen = vec![false; table.columns.len()];
    let mut set = Vec::with_capacity(upd.set.len());
    for (col, rhs) in &upd.set {
        let ci = table
            .column_index(col)
            .ok_or_else(|| NliError::UnknownColumn(format!("{}.{col}", table.name)))?;
        if seen[ci] {
            return Err(NliError::Execution(format!(
                "duplicate column {} in SET list",
                table.columns[ci].name
            )));
        }
        seen[ci] = true;
        let bound = binder.bind_expr(rhs)?;
        let mut bad = None;
        bound.visit(&mut |e| match e {
            PlanExpr::Agg { .. } => bad = bad.or(Some("an aggregate")),
            PlanExpr::Star => bad = bad.or(Some("*")),
            _ => {}
        });
        if let Some(what) = bad {
            return Err(NliError::Execution(format!(
                "SET {col} = ... may not contain {what}"
            )));
        }
        set.push((ci, bound));
    }
    Ok(DmlPlan::Update {
        scan,
        residual,
        set,
    })
}

fn plan_delete(
    del: &DeleteStmt,
    schema: &Schema,
    stats: Option<(&DatabaseStats, &IndexOptions)>,
) -> Result<DmlPlan> {
    let ti = dml_table_index(schema, &del.table)?;
    let (scan, residual) =
        plan_dml_scan(&schema.tables[ti].name, &del.where_clause, schema, stats)?;
    Ok(DmlPlan::Delete { scan, residual })
}

/// Plan-time binding environment; the schema-only analogue of the
/// interpreter's row scope.
struct Binder<'a> {
    schema: &'a Schema,
    /// `(lowercased FROM name, schema table index, column offset)`.
    bound: Vec<(String, usize, usize)>,
    width: usize,
}

impl<'a> Binder<'a> {
    fn bind(schema: &'a Schema, select: &Select) -> Result<Binder<'a>> {
        let mut bound = Vec::new();
        let mut offset = 0;
        for t in &select.from {
            let ti = schema
                .table_index(&t.name)
                .ok_or_else(|| NliError::UnknownTable(t.name.clone()))?;
            bound.push((t.name.to_lowercase(), ti, offset));
            offset += schema.tables[ti].columns.len();
        }
        Ok(Binder {
            schema,
            bound,
            width: offset,
        })
    }

    /// Resolve a column name to an offset in the joined row; same rules as
    /// the interpreter (qualified names match the FROM spelling, unqualified
    /// names must be unambiguous across FROM entries).
    fn resolve(&self, c: &ColName) -> Result<usize> {
        match &c.table {
            Some(t) => {
                let (_, ti, off) = self
                    .bound
                    .iter()
                    .find(|(name, _, _)| name == &t.to_lowercase())
                    .ok_or_else(|| NliError::UnknownTable(t.clone()))?;
                let ci = self.schema.tables[*ti]
                    .column_index(&c.column)
                    .ok_or_else(|| NliError::UnknownColumn(format!("{t}.{}", c.column)))?;
                Ok(off + ci)
            }
            None => {
                let mut hit = None;
                for (_, ti, off) in &self.bound {
                    if let Some(ci) = self.schema.tables[*ti].column_index(&c.column) {
                        if hit.is_some() {
                            return Err(NliError::AmbiguousColumn(c.column.clone()));
                        }
                        hit = Some(off + ci);
                    }
                }
                hit.ok_or_else(|| NliError::UnknownColumn(c.column.clone()))
            }
        }
    }

    /// Data type of the column at a joined-row offset.
    fn dtype_at(&self, offset: usize) -> DataType {
        for (_, ti, off) in self.bound.iter().rev() {
            if offset >= *off {
                return self.schema.tables[*ti].columns[offset - off].dtype;
            }
        }
        unreachable!("offset outside bound range")
    }

    /// FROM-entry index whose column range contains `offset`.
    fn entry_of(&self, offset: usize) -> usize {
        for (i, (_, _, off)) in self.bound.iter().enumerate().rev() {
            if offset >= *off {
                return i;
            }
        }
        unreachable!("offset outside bound range")
    }

    /// All output column names for `SELECT *`, qualified when ambiguous.
    fn output_columns(&self) -> Vec<String> {
        let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for (_, ti, _) in &self.bound {
            for c in &self.schema.tables[*ti].columns {
                *counts.entry(c.name.as_str()).or_insert(0) += 1;
            }
        }
        let mut out = Vec::with_capacity(self.width);
        for (name, ti, _) in &self.bound {
            for c in &self.schema.tables[*ti].columns {
                if counts[c.name.as_str()] > 1 {
                    out.push(format!("{name}.{}", c.name));
                } else {
                    out.push(c.name.clone());
                }
            }
        }
        out
    }

    /// Bind an AST expression: resolve columns, compile subqueries.
    fn bind_expr(&self, e: &Expr) -> Result<PlanExpr> {
        Ok(match e {
            Expr::Column(c) => PlanExpr::Col(self.resolve(c)?),
            Expr::Literal(v) => PlanExpr::Literal(v.clone()),
            Expr::Star => PlanExpr::Star,
            Expr::Agg {
                func,
                arg,
                distinct,
            } => PlanExpr::Agg {
                func: *func,
                arg: Box::new(self.bind_expr(arg)?),
                distinct: *distinct,
            },
            Expr::Binary { left, op, right } => PlanExpr::Binary {
                left: Box::new(self.bind_expr(left)?),
                op: *op,
                right: Box::new(self.bind_expr(right)?),
            },
            Expr::Not(inner) => PlanExpr::Not(Box::new(self.bind_expr(inner)?)),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => PlanExpr::Like {
                expr: Box::new(self.bind_expr(expr)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => PlanExpr::Between {
                expr: Box::new(self.bind_expr(expr)?),
                low: Box::new(self.bind_expr(low)?),
                high: Box::new(self.bind_expr(high)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => PlanExpr::InList {
                expr: Box::new(self.bind_expr(expr)?),
                list: list.clone(),
                negated: *negated,
            },
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => PlanExpr::InPlan {
                expr: Box::new(self.bind_expr(expr)?),
                plan: Box::new(plan_query(query, self.schema, None)?),
                negated: *negated,
            },
            Expr::ScalarSubquery(q) => {
                PlanExpr::ScalarPlan(Box::new(plan_query(q, self.schema, None)?))
            }
            Expr::IsNull { expr, negated } => PlanExpr::IsNull {
                expr: Box::new(self.bind_expr(expr)?),
                negated: *negated,
            },
        })
    }
}

/// Flatten a WHERE tree into its top-level AND conjuncts (in evaluation
/// order).
fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        other => out.push(other),
    }
}

/// `col = col` shape, the candidate for hash-join extraction.
fn as_column_equality(e: &Expr) -> Option<(&ColName, &ColName)> {
    match e {
        Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (Expr::Column(a), Expr::Column(b)) => Some((a, b)),
            _ => None,
        },
        _ => None,
    }
}

/// Whether an equality on these column types can be keyed by
/// [`Value::canonical`] without changing semantics: same type always works,
/// and Int/Float mix works because integral floats canonicalize to the
/// integer spelling. Mixed text/number stays a residual filter (SQL `=`
/// calls those incomparable; a canonical hash key would not).
fn hash_compatible(a: DataType, b: DataType) -> bool {
    a == b || (a.is_numeric() && b.is_numeric())
}

fn plan_select(
    select: &Select,
    schema: &Schema,
    stats: Option<(&DatabaseStats, &IndexOptions)>,
) -> Result<SelectPlan> {
    let binder = Binder::bind(schema, select)?;
    let n = binder.bound.len();

    let mut conjuncts: Vec<&Expr> = Vec::new();
    if let Some(w) = &select.where_clause {
        flatten_and(w, &mut conjuncts);
    }
    let mut used = vec![false; conjuncts.len()];

    // -- Join extraction ----------------------------------------------------
    // For each FROM entry after the first, find an equi-join condition
    // connecting it to the FROM-order prefix: explicit ON conditions first
    // (mirroring the interpreter's probe order exactly), then top-level
    // WHERE conjuncts of the shape `prefix_col = new_col`. An entry with
    // no such condition joins as a cartesian product.
    let mut joins = Vec::with_capacity(n.saturating_sub(1));
    for i in 1..n {
        let new_off = binder.bound[i].2;
        let new_width = schema.tables[binder.bound[i].1].columns.len();
        let new_range = new_off..new_off + new_width;
        let prefix_width = new_off;

        let mut step = None;
        for j in &select.joins {
            let l = binder.resolve(&j.left)?;
            let r = binder.resolve(&j.right)?;
            let (inner, outer) = if new_range.contains(&l) {
                (l, r)
            } else if new_range.contains(&r) {
                (r, l)
            } else {
                continue;
            };
            if outer < prefix_width {
                step = Some((outer, inner - new_off));
                break;
            }
        }
        if step.is_none() {
            for (ci, c) in conjuncts.iter().enumerate() {
                if used[ci] {
                    continue;
                }
                let Some((a, b)) = as_column_equality(c) else {
                    continue;
                };
                let (l, r) = (binder.resolve(a)?, binder.resolve(b)?);
                let (inner, outer) = if new_range.contains(&l) && r < prefix_width {
                    (l, r)
                } else if new_range.contains(&r) && l < prefix_width {
                    (r, l)
                } else {
                    continue;
                };
                if hash_compatible(binder.dtype_at(inner), binder.dtype_at(outer)) {
                    step = Some((outer, inner - new_off));
                    used[ci] = true;
                    break;
                }
            }
        }
        joins.push(match step {
            Some((probe_off, build_col)) => JoinKind::Hash {
                probe_off,
                build_col,
            },
            None => JoinKind::Cross,
        });
    }

    // -- Predicate pushdown -------------------------------------------------
    // Bind the surviving conjuncts; a conjunct that references exactly one
    // FROM entry (and no subquery or aggregate) filters that entry's scan.
    let mut scan_filters: Vec<Vec<PlanExpr>> = vec![Vec::new(); n];
    let mut residual_parts: Vec<PlanExpr> = Vec::new();
    for (ci, c) in conjuncts.iter().enumerate() {
        if used[ci] {
            continue;
        }
        let bound = binder.bind_expr(c)?;
        let offsets = bound.col_offsets();
        let single_entry = match offsets.as_slice() {
            [] => None,
            [first, rest @ ..] => {
                let entry = binder.entry_of(*first);
                rest.iter()
                    .all(|o| binder.entry_of(*o) == entry)
                    .then_some(entry)
            }
        };
        match single_entry {
            Some(k) if !bound.has_subplan() && !bound.has_aggregate() => {
                let base = binder.bound[k].2;
                scan_filters[k].push(bound.map_cols(&|o| o - base));
            }
            _ => residual_parts.push(bound),
        }
    }
    let residual = residual_parts
        .into_iter()
        .reduce(|acc, next| PlanExpr::Binary {
            left: Box::new(acc),
            op: BinOp::And,
            right: Box::new(next),
        });

    let mut scans = binder
        .bound
        .iter()
        .map(|(_, ti, off)| {
            let width = schema.tables[*ti].columns.len();
            let filter = scan_filters[binder.entry_of(*off)]
                .clone()
                .into_iter()
                .reduce(|acc, next| PlanExpr::Binary {
                    left: Box::new(acc),
                    op: BinOp::And,
                    right: Box::new(next),
                });
            ScanNode {
                table: *ti,
                table_name: schema.tables[*ti].name.clone(),
                offset: *off,
                width,
                filter,
                est_rows: None,
                index: None,
            }
        })
        .collect::<Vec<_>>();

    // -- Scan estimates and index access paths ------------------------------
    // Cost-based plans only: estimate each scan's output, and price the
    // best sargable probe of its filter against the vectorized full scan
    // (see `choose_index_probe`).
    if let Some((st, opts)) = stats {
        for scan in &mut scans {
            let ts = &st.tables[scan.table];
            let sel = scan.filter.as_ref().map_or(1.0, |f| selectivity(f, ts));
            scan.est_rows = Some((ts.row_count as f64 * sel).round() as u64);
            scan.index = choose_index_probe(schema, scan, ts, opts);
        }
    }

    // -- Aggregation, projection, ordering ----------------------------------
    let aggregate = !select.group_by.is_empty()
        || select.items.iter().any(|i| i.expr.contains_aggregate())
        || select
            .having
            .as_ref()
            .is_some_and(|h| h.contains_aggregate());

    let group_by = select
        .group_by
        .iter()
        .map(|g| binder.bind_expr(g))
        .collect::<Result<Vec<_>>>()?;
    let having = select
        .having
        .as_ref()
        .map(|h| binder.bind_expr(h))
        .transpose()?;

    let star = !aggregate && select.items.len() == 1 && matches!(select.items[0].expr, Expr::Star);
    let mut columns = Vec::with_capacity(select.items.len());
    let mut items = Vec::with_capacity(select.items.len());
    if star {
        columns = binder.output_columns();
        items.push(PlanExpr::Star);
    } else {
        for item in &select.items {
            if !aggregate && matches!(item.expr, Expr::Star) {
                return Err(NliError::Execution(
                    "`*` must be the only select item".into(),
                ));
            }
            columns.push(
                item.alias
                    .clone()
                    .unwrap_or_else(|| item.expr.to_string().to_lowercase()),
            );
            items.push(binder.bind_expr(&item.expr)?);
        }
    }

    let order_by = select
        .order_by
        .iter()
        .map(|o| {
            Ok(SortKey {
                expr: binder.bind_expr(&o.expr)?,
                desc: o.desc,
            })
        })
        .collect::<Result<Vec<_>>>()?;

    Ok(SelectPlan {
        scans,
        joins,
        residual,
        aggregate,
        group_by,
        having,
        star,
        items,
        columns,
        joined_columns: binder.output_columns(),
        order_by,
        distinct: select.distinct,
        limit: select.limit,
    })
}

/// Fallback selectivity for predicates the model has no shape for.
const DEFAULT_SEL: f64 = 1.0 / 3.0;

/// Selectivity above which an index probe loses to the vectorized full
/// scan: probing materializes candidate row-ids and re-evaluates the
/// filter row-wise, which beats the columnar kernels only while the
/// candidate set stays well under half the table.
const INDEX_SEL_CUTOFF: f64 = 0.5;

/// Flatten a bound filter into its top-level AND conjuncts.
pub(crate) fn flatten_plan_and<'e>(e: &'e PlanExpr, out: &mut Vec<&'e PlanExpr>) {
    match e {
        PlanExpr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            flatten_plan_and(left, out);
            flatten_plan_and(right, out);
        }
        other => out.push(other),
    }
}

/// Whether evaluating `e` as a row filter can never raise an execution
/// error, for any row. This is the soundness gate for index probes and
/// for the executor's conjunct-at-a-time narrowing scan: both skip rows,
/// and skipping a row the tree-walk reference would have *errored* on
/// would diverge. Comparisons, LIKE, BETWEEN, IN-list, and IS
/// NULL over bare columns/literals never error (incomparable types compare
/// unequal, LIKE canonicalizes non-text); AND/OR/NOT are safe when every
/// operand is itself one of those boolean shapes. Arithmetic (errors on
/// non-numeric operands) and subqueries disqualify the whole filter.
pub(crate) fn filter_infallible(e: &PlanExpr) -> bool {
    let scalar = |e: &PlanExpr| matches!(e, PlanExpr::Col(_) | PlanExpr::Literal(_));
    match e {
        PlanExpr::Binary { left, op, right } => match op {
            BinOp::And | BinOp::Or => filter_infallible(left) && filter_infallible(right),
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                scalar(left) && scalar(right)
            }
            _ => false, // arithmetic may error on non-numeric operands
        },
        PlanExpr::Not(inner) => filter_infallible(inner),
        PlanExpr::Like { expr, .. } => scalar(expr),
        PlanExpr::Between {
            expr, low, high, ..
        } => scalar(expr) && scalar(low) && scalar(high),
        PlanExpr::InList { expr, .. } => scalar(expr),
        PlanExpr::IsNull { expr, .. } => scalar(expr),
        _ => false,
    }
}

/// A sargable shape pulled out of one conjunct: an exact-key probe, one
/// range bound, a closed BETWEEN range, or an IS NULL.
enum Sarg {
    Eq(Value),
    In(Vec<Value>),
    Lo(Value, bool),
    Hi(Value, bool),
    Both(Value, Value),
    IsNull,
}

/// Classify one AND-level conjunct as a sargable predicate over a single
/// table-local column, if it has one of the probe-able shapes.
fn classify_sargable(e: &PlanExpr) -> Option<(usize, Sarg)> {
    match e {
        PlanExpr::Binary { left, op, right } => {
            let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
                (PlanExpr::Col(c), PlanExpr::Literal(v)) => (*c, v.clone(), *op),
                (PlanExpr::Literal(v), PlanExpr::Col(c)) => (*c, v.clone(), flip_cmp(*op)),
                _ => return None,
            };
            let sarg = match op {
                BinOp::Eq => Sarg::Eq(lit),
                BinOp::Lt => Sarg::Hi(lit, false),
                BinOp::Le => Sarg::Hi(lit, true),
                BinOp::Gt => Sarg::Lo(lit, false),
                BinOp::Ge => Sarg::Lo(lit, true),
                _ => return None,
            };
            Some((col, sarg))
        }
        PlanExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match (expr.as_ref(), low.as_ref(), high.as_ref()) {
            (PlanExpr::Col(c), PlanExpr::Literal(lo), PlanExpr::Literal(hi)) => {
                Some((*c, Sarg::Both(lo.clone(), hi.clone())))
            }
            _ => None,
        },
        PlanExpr::InList {
            expr,
            list,
            negated: false,
        } => match expr.as_ref() {
            PlanExpr::Col(c) => Some((*c, Sarg::In(list.clone()))),
            _ => None,
        },
        PlanExpr::IsNull {
            expr,
            negated: false,
        } => match expr.as_ref() {
            PlanExpr::Col(c) => Some((*c, Sarg::IsNull)),
            _ => None,
        },
        _ => None,
    }
}

/// The comparison that holds with its operands swapped: `a < b` is
/// `b > a`.
pub(crate) fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Whether a probe key literal matches the indexed column's declared type.
/// Only exact matches qualify: cross-type comparisons (`int_col = 5.0`,
/// Int/Float widening, `-0.0 = 0.0`) are valid SQL but cannot be
/// reproduced by the index's typed key order, so they stay on the full
/// scan.
fn key_matches(dtype: DataType, v: &Value) -> bool {
    matches!(
        (dtype, v),
        (DataType::Int, Value::Int(_))
            | (DataType::Date, Value::Date(_))
            | (DataType::Text, Value::Text(_))
    )
}

/// Extract the best-priced index probe for one scan, or `None` when the
/// filter is not index-safe or no probe is selective enough.
///
/// What makes the chosen probe byte-identical to the full scan by
/// construction: the executor re-applies the scan's FULL filter over the
/// candidates, so a probe is sound iff (a) its candidate set is a superset
/// of the rows where the whole filter is TRUE — guaranteed because the
/// probe comes from one AND-level conjunct (a conjunction is TRUE only
/// where every conjunct is) — and (b) skipping non-candidate rows cannot
/// suppress an evaluation error, guaranteed by [`filter_infallible`].
///
/// Pricing is [`selectivity`]'s: eq costs `1/ndv`, a comparison with a
/// literal interpolates between the column's min and max, `BETWEEN` costs
/// a flat quarter, IN-lists cost `len/ndv`, IS NULL the observed null
/// fraction. Multiple range conjuncts over one column intersect
/// (AND-of-range) before pricing. The cheapest probe wins, and only if its
/// selectivity beats [`INDEX_SEL_CUTOFF`] — otherwise the vectorized full
/// scan is priced faster and the scan keeps `index: None`.
fn choose_index_probe(
    schema: &Schema,
    scan: &ScanNode,
    ts: &TableStats,
    opts: &IndexOptions,
) -> Option<IndexAccess> {
    let filter = scan.filter.as_ref()?;
    if !filter_infallible(filter) {
        return None;
    }
    let dtype_of = |col: usize| schema.tables[scan.table].columns[col].dtype;
    let eligible = |col: usize| {
        matches!(
            dtype_of(col),
            DataType::Int | DataType::Date | DataType::Text
        ) && (opts.auto || opts.declared.contains(&(scan.table, col)))
    };

    let mut conjuncts = Vec::new();
    flatten_plan_and(filter, &mut conjuncts);

    // (column, probe, estimated selectivity) candidates; range conjuncts
    // accumulate per column first so `2000 <= id AND id < 2100` becomes one
    // two-bounded probe priced as the product of its conjuncts.
    let mut candidates: Vec<(usize, IndexProbe, f64)> = Vec::new();
    type Bound = Option<(Value, bool)>;
    let mut ranges: std::collections::BTreeMap<usize, (Bound, Bound, f64)> = Default::default();
    // Tighter of two same-typed bounds; `keep_less` picks upper bounds.
    let tighten = |cur: Bound, new: (Value, bool), keep_less: bool| -> Bound {
        Some(match cur {
            None => new,
            Some(cur) => match cur.0.compare(&new.0) {
                Some(Ordering::Less) => {
                    if keep_less {
                        cur
                    } else {
                        new
                    }
                }
                Some(Ordering::Greater) => {
                    if keep_less {
                        new
                    } else {
                        cur
                    }
                }
                // equal keys: the exclusive bound is the tighter one
                _ => (cur.0, cur.1 && new.1),
            },
        })
    };

    for c in &conjuncts {
        let Some((col, sarg)) = classify_sargable(c) else {
            continue;
        };
        if !eligible(col) {
            continue;
        }
        let dtype = dtype_of(col);
        let sel = selectivity(c, ts);
        match sarg {
            Sarg::Eq(v) if key_matches(dtype, &v) => {
                candidates.push((col, IndexProbe::Eq(v), sel));
            }
            Sarg::In(vs) if !vs.is_empty() && vs.iter().all(|v| key_matches(dtype, v)) => {
                candidates.push((col, IndexProbe::In(vs), sel));
            }
            Sarg::IsNull => candidates.push((col, IndexProbe::IsNull, sel)),
            Sarg::Lo(v, inc) if key_matches(dtype, &v) => {
                let e = ranges.entry(col).or_insert((None, None, 1.0));
                e.0 = tighten(e.0.take(), (v, inc), false);
                e.2 *= sel;
            }
            Sarg::Hi(v, inc) if key_matches(dtype, &v) => {
                let e = ranges.entry(col).or_insert((None, None, 1.0));
                e.1 = tighten(e.1.take(), (v, inc), true);
                e.2 *= sel;
            }
            Sarg::Both(lo, hi) if key_matches(dtype, &lo) && key_matches(dtype, &hi) => {
                let e = ranges.entry(col).or_insert((None, None, 1.0));
                e.0 = tighten(e.0.take(), (lo, true), false);
                e.1 = tighten(e.1.take(), (hi, true), true);
                e.2 *= sel;
            }
            _ => {}
        }
    }
    for (col, (lo, hi, sel)) in ranges {
        candidates.push((col, IndexProbe::Range { lo, hi }, sel));
    }

    let (col, probe, sel) = candidates.into_iter().min_by(|a, b| a.2.total_cmp(&b.2))?;
    (sel < INDEX_SEL_CUTOFF).then_some(IndexAccess { column: col, probe })
}

/// Estimated fraction of a table's rows satisfying a pushed-down scan
/// filter (expression over table-local column offsets). Crude by design:
/// the result only steers cost choices, never semantics. A comparison
/// with a literal interpolates between the column's min and max
/// ([`range_selectivity`]); `[NOT] BETWEEN` and `[NOT] LIKE` keep a flat
/// 1/4 (3/4).
fn selectivity(e: &PlanExpr, ts: &TableStats) -> f64 {
    let ndv = |c: usize| (ts.columns[c].ndv as f64).max(1.0);
    let col_of = |e: &PlanExpr| match e {
        PlanExpr::Col(c) => Some(*c),
        _ => None,
    };
    let s = match e {
        PlanExpr::Binary { left, op, right } => match op {
            BinOp::And => selectivity(left, ts) * selectivity(right, ts),
            BinOp::Or => selectivity(left, ts) + selectivity(right, ts),
            BinOp::Eq | BinOp::Neq => {
                let eq = match (col_of(left), col_of(right)) {
                    (Some(c), _) | (None, Some(c)) => 1.0 / ndv(c),
                    _ => DEFAULT_SEL,
                };
                if *op == BinOp::Eq {
                    eq
                } else {
                    1.0 - eq
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                range_selectivity(left, *op, right, ts)
            }
            _ => DEFAULT_SEL,
        },
        PlanExpr::Not(inner) => 1.0 - selectivity(inner, ts),
        PlanExpr::Like { negated, .. } | PlanExpr::Between { negated, .. } => {
            if *negated {
                0.75
            } else {
                0.25
            }
        }
        PlanExpr::InList {
            expr,
            list,
            negated,
        } => {
            let hit = match col_of(expr) {
                Some(c) => (list.len() as f64 / ndv(c)).min(1.0),
                None => DEFAULT_SEL,
            };
            if *negated {
                1.0 - hit
            } else {
                hit
            }
        }
        PlanExpr::IsNull { expr, negated } => {
            let frac = match col_of(expr) {
                Some(c) => ts.columns[c].null_fraction(ts.row_count),
                None => DEFAULT_SEL,
            };
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        _ => DEFAULT_SEL,
    };
    s.clamp(0.0, 1.0)
}

/// Selectivity of a `<`, `<=`, `>` or `>=` comparison between a column
/// and a literal, by linear interpolation between the column's min and
/// max (numeric columns only; everything else gets the default third).
fn range_selectivity(left: &PlanExpr, op: BinOp, right: &PlanExpr, ts: &TableStats) -> f64 {
    // Normalize to `col OP literal` by flipping the comparison if needed.
    let (col, lit, op) = match (left, right) {
        (PlanExpr::Col(c), PlanExpr::Literal(v)) => (*c, v, op),
        (PlanExpr::Literal(v), PlanExpr::Col(c)) => (*c, v, flip_cmp(op)),
        _ => return DEFAULT_SEL,
    };
    let num = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    let stats = &ts.columns[col];
    let (Some(lo), Some(hi), Some(v)) = (
        stats.min.as_ref().and_then(num),
        stats.max.as_ref().and_then(num),
        num(lit),
    ) else {
        return DEFAULT_SEL;
    };
    if hi <= lo {
        return DEFAULT_SEL;
    }
    let below = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    match op {
        BinOp::Lt | BinOp::Le => below,
        BinOp::Gt | BinOp::Ge => 1.0 - below,
        _ => DEFAULT_SEL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use nli_core::{Column, Schema, Table};

    fn schema() -> Schema {
        let mut s = Schema::new(
            "shop",
            vec![
                Table::new(
                    "products",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("name", DataType::Text),
                        Column::new("category", DataType::Text),
                        Column::new("price", DataType::Float),
                    ],
                ),
                Table::new(
                    "sales",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("product_id", DataType::Int),
                        Column::new("amount", DataType::Float),
                    ],
                ),
            ],
        );
        s.add_foreign_key("sales", "product_id", "products", "id")
            .unwrap();
        s
    }

    fn plan(sql: &str) -> QueryPlan {
        plan_query(&parse_query(sql).unwrap(), &schema(), None).unwrap()
    }

    /// A hash step building over the attached table.
    fn hash(probe_off: usize, build_col: usize) -> JoinKind {
        JoinKind::Hash {
            probe_off,
            build_col,
        }
    }

    #[test]
    fn explicit_join_becomes_hash_step() {
        let p =
            plan("SELECT products.name FROM sales JOIN products ON sales.product_id = products.id");
        // sales occupies offsets 0..3, products 3..7
        assert_eq!(p.select.joins, vec![hash(1, 0)]);
        assert!(p.select.residual.is_none());
    }

    #[test]
    fn where_equijoin_is_extracted_into_hash_step() {
        let p =
            plan("SELECT products.name FROM sales, products WHERE sales.product_id = products.id");
        assert_eq!(p.select.joins, vec![hash(1, 0)]);
        assert!(
            p.select.residual.is_none(),
            "the extracted conjunct must leave the WHERE clause"
        );
    }

    #[test]
    fn single_table_predicates_push_into_the_scan() {
        let p = plan(
            "SELECT products.name FROM sales, products \
             WHERE sales.product_id = products.id AND products.price > 10 AND sales.amount < 5",
        );
        assert_eq!(p.select.joins.len(), 1);
        assert!(matches!(p.select.joins[0], JoinKind::Hash { .. }));
        assert!(p.select.residual.is_none());
        // sales scan keeps `amount < 5` rebased to its own offsets
        let sales_filter = p.select.scans[0].filter.as_ref().unwrap();
        assert_eq!(sales_filter.col_offsets(), vec![2]);
        // products scan keeps `price > 10` rebased to its own offsets
        let products_filter = p.select.scans[1].filter.as_ref().unwrap();
        assert_eq!(products_filter.col_offsets(), vec![3]);
    }

    #[test]
    fn cross_entry_disjunction_stays_residual() {
        let p = plan(
            "SELECT products.name FROM sales JOIN products ON sales.product_id = products.id \
             WHERE products.price > 10 OR sales.amount < 5",
        );
        assert!(p.select.scans.iter().all(|s| s.filter.is_none()));
        assert!(p.select.residual.is_some());
    }

    #[test]
    fn text_number_equality_is_not_extracted() {
        // name = id is incomparable under SQL `=` (always filters all rows);
        // keying a hash join on canonical text would wrongly match "1" to 1.
        let p = plan("SELECT products.name FROM sales, products WHERE products.name = sales.id");
        assert_eq!(p.select.joins, vec![JoinKind::Cross]);
        assert!(p.select.residual.is_some());
    }

    #[test]
    fn subquery_conjunct_is_never_pushed_down() {
        let p = plan(
            "SELECT name FROM products WHERE id IN (SELECT product_id FROM sales) \
             AND price > 1",
        );
        // `price > 1` pushes into the scan; the IN-subquery stays residual
        // for per-database materialization.
        assert!(p.select.scans[0].filter.is_some());
        let residual = p.select.residual.as_ref().unwrap();
        assert!(residual.has_subplan());
    }

    #[test]
    fn plan_is_schema_bound_and_errors_at_plan_time() {
        let q = parse_query("SELECT nope FROM products").unwrap();
        assert!(matches!(
            plan_query(&q, &schema(), None),
            Err(NliError::UnknownColumn(_))
        ));
        let q = parse_query("SELECT id FROM sales JOIN products ON sales.product_id = products.id")
            .unwrap();
        assert!(matches!(
            plan_query(&q, &schema(), None),
            Err(NliError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn columns_are_fixed_at_plan_time() {
        let p = plan("SELECT name, SUM(price) AS total FROM products GROUP BY name");
        assert_eq!(p.select.columns, vec!["name", "total"]);
        assert!(p.select.aggregate);
        let p = plan("SELECT * FROM sales JOIN products ON sales.product_id = products.id");
        // `id` appears in both tables → qualified; others stay bare
        assert_eq!(
            p.select.columns,
            vec![
                "sales.id",
                "product_id",
                "amount",
                "products.id",
                "name",
                "category",
                "price"
            ]
        );
    }

    #[test]
    fn set_op_arity_is_visible_on_the_plan() {
        let p = plan("SELECT id, name FROM products UNION SELECT id, amount FROM sales");
        assert_eq!(p.arity(), 2);
        let (op, rhs) = p.compound.as_ref().unwrap();
        assert_eq!(*op, SetOp::Union);
        assert_eq!(rhs.arity(), 2);
    }

    /// A populated database over the test schema: `products_rows` products
    /// with serial ids, `sales_rows` sales whose `product_id` cycles.
    fn stats_db(products_rows: i64, sales_rows: i64) -> nli_core::Database {
        let mut db = nli_core::Database::empty(schema());
        for i in 0..products_rows {
            db.insert(
                "products",
                vec![
                    Value::Int(i + 1),
                    Value::Text(format!("p{i}")),
                    Value::Text("cat".into()),
                    Value::Float(i as f64),
                ],
            )
            .unwrap();
        }
        for i in 0..sales_rows {
            db.insert(
                "sales",
                vec![
                    Value::Int(i + 1),
                    Value::Int(i % products_rows + 1),
                    Value::Float(i as f64),
                ],
            )
            .unwrap();
        }
        db
    }

    fn plan_with_stats(sql: &str, db: &nli_core::Database) -> QueryPlan {
        let auto = IndexOptions {
            auto: true,
            ..Default::default()
        };
        plan_query(
            &parse_query(sql).unwrap(),
            &db.schema,
            Some((&db.stats(), &auto)),
        )
        .unwrap()
    }

    #[test]
    fn cost_pass_keeps_the_rule_based_predicate_placement() {
        // The cost pass only annotates scans: without their estimates and
        // probes, the plan is the rule-based one, joins included.
        let db = stats_db(5, 200);
        let sql = "SELECT products.name FROM sales, products \
             WHERE sales.product_id = products.id AND products.price > 2 AND sales.amount < 50";
        let rule = plan(sql);
        let mut cost = plan_with_stats(sql, &db);
        assert!(cost.select.scans.iter().all(|sc| sc.est_rows.is_some()));
        for sc in &mut cost.select.scans {
            sc.est_rows = None;
            sc.index = None;
        }
        assert_eq!(cost, rule);
    }

    #[test]
    fn selective_eq_gets_an_index_probe_only_on_cost_plans() {
        let db = stats_db(100, 1);
        let sql = "SELECT name FROM products WHERE id = 7";
        let cost = plan_with_stats(sql, &db);
        assert_eq!(
            cost.select.scans[0].index,
            Some(IndexAccess {
                column: 0,
                probe: IndexProbe::Eq(Value::Int(7)),
            })
        );
        // Rule-based plans never consult statistics, so never probe.
        assert_eq!(plan(sql).select.scans[0].index, None);
    }

    #[test]
    fn and_of_ranges_intersects_into_one_two_bounded_probe() {
        let db = stats_db(100, 1);
        let p = plan_with_stats("SELECT name FROM products WHERE id >= 10 AND 20 > id", &db);
        assert_eq!(
            p.select.scans[0].index,
            Some(IndexAccess {
                column: 0,
                probe: IndexProbe::Range {
                    lo: Some((Value::Int(10), true)),
                    hi: Some((Value::Int(20), false)),
                },
            })
        );
    }

    #[test]
    fn unselective_fallible_and_cross_typed_filters_keep_the_full_scan() {
        let db = stats_db(100, 1);
        // `id >= 1` matches everything: the full scan is priced cheaper.
        let p = plan_with_stats("SELECT name FROM products WHERE id >= 1", &db);
        assert_eq!(p.select.scans[0].index, None);
        // Arithmetic can error on non-numeric rows, so the probe may not
        // skip any row the tree-walk reference would have errored on.
        let p = plan_with_stats("SELECT name FROM products WHERE id + 0 = 7", &db);
        assert_eq!(p.select.scans[0].index, None);
        // Float keys never probe: `price = 7.0` could match Int 7 under
        // SQL `=` but not under the index's typed key order.
        let p = plan_with_stats("SELECT name FROM products WHERE price = 7.0", &db);
        assert_eq!(p.select.scans[0].index, None);
    }

    #[test]
    fn declared_only_policy_gates_probe_extraction() {
        let db = stats_db(100, 1);
        let q = parse_query("SELECT name FROM products WHERE id = 7").unwrap();
        let st = db.stats();
        let off = IndexOptions::default();
        let p = plan_query(&q, &db.schema, Some((&st, &off))).unwrap();
        assert_eq!(p.select.scans[0].index, None, "auto off, nothing declared");
        let declared = IndexOptions {
            auto: false,
            declared: [(0, 0)].into_iter().collect(),
        };
        let p = plan_query(&q, &db.schema, Some((&st, &declared))).unwrap();
        assert!(
            p.select.scans[0].index.is_some(),
            "declared index qualifies"
        );
    }

    #[test]
    fn range_selectivity_interpolates_between_min_and_max() {
        let db = stats_db(100, 1);
        // price spans 0..99; `price > 74` keeps ~a quarter of the rows.
        let p = plan_with_stats("SELECT name FROM products WHERE price > 74", &db);
        let est = p.select.scans[0].est_rows.unwrap();
        assert!((20..=30).contains(&est), "est {est} for a 25% range filter");
        // Equality keeps ~1/ndv of the rows.
        let p = plan_with_stats("SELECT name FROM products WHERE id = 7", &db);
        assert_eq!(p.select.scans[0].est_rows, Some(1));
    }
}
