//! The original tree-walking SQL interpreter, kept as a reference
//! implementation.
//!
//! This is the engine the plan-based pipeline in [`crate::plan`] /
//! [`crate::exec`] replaced: it resolves names per row against the
//! database's schema and walks the AST directly. It is retained verbatim
//! (minus the engine plumbing) for one purpose — differential testing. The
//! property suite executes generated queries through both engines and
//! requires identical results, which pins the planner's rewrites
//! (hash-join extraction, predicate pushdown, plan-time binding) to the
//! original semantics.
//!
//! Value-level semantics (`LIKE`, three-valued logic, arithmetic,
//! aggregation) are shared with the physical executor rather than
//! duplicated, so the two engines can only diverge in *query structure*
//! handling — exactly what the differential test is after.
//!
//! Known, accepted divergences of the plan pipeline from this reference:
//! name-resolution errors surface at plan time even when a table is empty
//! (the interpreter only resolves names while evaluating rows), and
//! pushed-down predicates may surface type errors on rows a join would
//! have discarded.

use crate::ast::{AggFunc, ColName, Expr, Query, Select, SelectItem, Statement};
use crate::exec::{
    apply_set_op, canonical_row, eval_binary, eval_not, like_match, truthy, ResultSet,
};
use nli_core::{Database, DmlOp, NliError, Result, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Execute `q` with the reference tree-walking interpreter.
pub fn run_tree_walk(q: &Query, db: &Database) -> Result<ResultSet> {
    exec_query(q, db)
}

fn exec_query(q: &Query, db: &Database) -> Result<ResultSet> {
    let left = exec_select(&q.select, db)?;
    match &q.compound {
        Some((op, rhs)) => {
            let right = exec_query(rhs, db)?;
            apply_set_op(left, *op, right)
        }
        None => Ok(left),
    }
}

/// Binding environment: which tables are in scope and at which row offset.
struct Scope<'a> {
    db: &'a Database,
    /// `(table name, schema table index, column offset)` per FROM entry.
    bound: Vec<(String, usize, usize)>,
    width: usize,
}

impl<'a> Scope<'a> {
    fn bind(db: &'a Database, select: &Select) -> Result<Scope<'a>> {
        let mut bound = Vec::new();
        let mut offset = 0;
        for t in &select.from {
            let ti = db
                .schema
                .table_index(&t.name)
                .ok_or_else(|| NliError::UnknownTable(t.name.clone()))?;
            bound.push((t.name.to_lowercase(), ti, offset));
            offset += db.schema.tables[ti].columns.len();
        }
        Ok(Scope {
            db,
            bound,
            width: offset,
        })
    }

    /// Resolve a column name to an offset in the joined row.
    fn resolve(&self, c: &ColName) -> Result<usize> {
        match &c.table {
            Some(t) => {
                let (_, ti, off) = self
                    .bound
                    .iter()
                    .find(|(name, _, _)| name == &t.to_lowercase())
                    .ok_or_else(|| NliError::UnknownTable(t.clone()))?;
                let ci = self.db.schema.tables[*ti]
                    .column_index(&c.column)
                    .ok_or_else(|| NliError::UnknownColumn(format!("{t}.{}", c.column)))?;
                Ok(off + ci)
            }
            None => {
                let mut hit = None;
                for (_, ti, off) in &self.bound {
                    if let Some(ci) = self.db.schema.tables[*ti].column_index(&c.column) {
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

    /// All column names in scope, qualified when a name is ambiguous.
    fn output_columns(&self) -> Vec<String> {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for (_, ti, _) in &self.bound {
            for c in &self.db.schema.tables[*ti].columns {
                *counts.entry(c.name.as_str()).or_insert(0) += 1;
            }
        }
        let mut out = Vec::with_capacity(self.width);
        for (name, ti, _) in &self.bound {
            for c in &self.db.schema.tables[*ti].columns {
                if counts[c.name.as_str()] > 1 {
                    out.push(format!("{name}.{}", c.name));
                } else {
                    out.push(c.name.clone());
                }
            }
        }
        out
    }
}

fn exec_select(select: &Select, db: &Database) -> Result<ResultSet> {
    let scope = Scope::bind(db, select)?;
    let mut rows = join_from(select, db, &scope)?;

    // Materialize subqueries in WHERE/HAVING so row evaluation is pure.
    let where_clause = select
        .where_clause
        .as_ref()
        .map(|w| materialize_subqueries(w, db))
        .transpose()?;
    let having = select
        .having
        .as_ref()
        .map(|h| materialize_subqueries(h, db))
        .transpose()?;

    if let Some(w) = &where_clause {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if truthy(&eval_scalar(w, &row, &scope)?) {
                kept.push(row);
            }
        }
        rows = kept;
    }

    let is_aggregate = !select.group_by.is_empty()
        || select.items.iter().any(|i| i.expr.contains_aggregate())
        || having.as_ref().is_some_and(|h| h.contains_aggregate());

    let mut out_columns: Vec<String> = Vec::new();
    let mut out_rows: Vec<Vec<Value>> = Vec::new();
    // Sort keys aligned with out_rows, computed in the right context.
    let mut sort_keys: Vec<Vec<Value>> = Vec::new();
    let need_sort = !select.order_by.is_empty();

    if is_aggregate {
        // Group rows by the GROUP BY key (single group when absent).
        let mut groups: Vec<(Vec<String>, Vec<Vec<Value>>)> = Vec::new();
        let mut index: HashMap<Vec<String>, usize> = HashMap::new();
        for row in rows {
            let mut key = Vec::with_capacity(select.group_by.len());
            for g in &select.group_by {
                key.push(eval_scalar(g, &row, &scope)?.canonical());
            }
            match index.get(&key) {
                Some(&gi) => groups[gi].1.push(row),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![row]));
                }
            }
        }
        if groups.is_empty() && select.group_by.is_empty() {
            // Aggregates over an empty input still produce one row.
            groups.push((Vec::new(), Vec::new()));
        }
        for item in &select.items {
            out_columns.push(
                item.alias
                    .clone()
                    .unwrap_or_else(|| item.expr.to_string().to_lowercase()),
            );
        }
        for (_, grows) in &groups {
            if let Some(h) = &having {
                if !truthy(&eval_group(h, grows, &scope)?) {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(select.items.len());
            for item in &select.items {
                out.push(eval_group(&item.expr, grows, &scope)?);
            }
            if need_sort {
                let mut keys = Vec::with_capacity(select.order_by.len());
                for o in &select.order_by {
                    keys.push(eval_group(&o.expr, grows, &scope)?);
                }
                sort_keys.push(keys);
            }
            out_rows.push(out);
        }
    } else {
        // Plain projection.
        let star = select.items.len() == 1 && matches!(select.items[0].expr, Expr::Star);
        if star {
            out_columns = scope.output_columns();
        } else {
            for item in &select.items {
                if matches!(item.expr, Expr::Star) {
                    return Err(NliError::Execution(
                        "`*` must be the only select item".into(),
                    ));
                }
                out_columns.push(
                    item.alias
                        .clone()
                        .unwrap_or_else(|| item.expr.to_string().to_lowercase()),
                );
            }
        }
        for row in rows {
            if need_sort {
                let mut keys = Vec::with_capacity(select.order_by.len());
                for o in &select.order_by {
                    keys.push(eval_scalar(&o.expr, &row, &scope)?);
                }
                sort_keys.push(keys);
            }
            if star {
                out_rows.push(row);
            } else {
                let mut out = Vec::with_capacity(select.items.len());
                for item in &select.items {
                    out.push(eval_scalar(&item.expr, &row, &scope)?);
                }
                out_rows.push(out);
            }
        }
    }

    if need_sort {
        let mut order: Vec<usize> = (0..out_rows.len()).collect();
        order.sort_by(|&a, &b| {
            for (o, (ka, kb)) in select
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
    }

    if select.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|r| seen.insert(canonical_row(r)));
    }

    if let Some(l) = select.limit {
        out_rows.truncate(l as usize);
    }

    Ok(ResultSet {
        columns: out_columns,
        rows: out_rows,
        ordered: need_sort,
    })
}

/// Build the joined row stream for the FROM clause. Explicit ON conditions
/// become hash joins; tables without a connecting condition are
/// cross-joined (their predicates, if any, live in WHERE).
fn join_from(select: &Select, db: &Database, scope: &Scope) -> Result<Vec<Vec<Value>>> {
    let mut rows: Vec<Vec<Value>> = db.rows(scope.bound[0].1).to_vec();
    let mut bound_width = db.schema.tables[scope.bound[0].1].columns.len();

    for (i, (_, ti, _)) in scope.bound.iter().enumerate().skip(1) {
        let new_rows = db.rows(*ti);
        let new_off = scope.bound[i].2;
        let new_width = db.schema.tables[*ti].columns.len();

        // Find a join condition connecting the new table to the bound part.
        let mut probe: Option<(usize, usize)> = None; // (bound offset, new-side column)
        for j in &select.joins {
            let l = scope.resolve(&j.left)?;
            let r = scope.resolve(&j.right)?;
            let (inner, outer) = if (new_off..new_off + new_width).contains(&l) {
                (l, r)
            } else if (new_off..new_off + new_width).contains(&r) {
                (r, l)
            } else {
                continue;
            };
            if outer < bound_width {
                probe = Some((outer, inner - new_off));
                break;
            }
        }

        let mut joined = Vec::new();
        match probe {
            Some((outer_off, inner_ci)) => {
                let mut table: HashMap<String, Vec<&Vec<Value>>> = HashMap::new();
                for nr in new_rows {
                    if nr[inner_ci].is_null() {
                        continue;
                    }
                    table.entry(nr[inner_ci].canonical()).or_default().push(nr);
                }
                for row in &rows {
                    let key = &row[outer_off];
                    if key.is_null() {
                        continue;
                    }
                    if let Some(matches) = table.get(&key.canonical()) {
                        for nr in matches {
                            let mut combined = row.clone();
                            combined.extend((*nr).clone());
                            joined.push(combined);
                        }
                    }
                }
            }
            None => {
                for row in &rows {
                    for nr in new_rows {
                        let mut combined = row.clone();
                        combined.extend(nr.clone());
                        joined.push(combined);
                    }
                }
            }
        }
        rows = joined;
        bound_width += new_width;
    }
    Ok(rows)
}

/// Replace uncorrelated subqueries with their materialized values.
fn materialize_subqueries(e: &Expr, db: &Database) -> Result<Expr> {
    Ok(match e {
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let rs = exec_query(query, db)?;
            if rs.columns.len() != 1 && !rs.rows.is_empty() && rs.rows[0].len() != 1 {
                return Err(NliError::Execution(
                    "IN subquery must produce one column".into(),
                ));
            }
            let list = rs.rows.into_iter().filter_map(|mut r| {
                if r.is_empty() {
                    None
                } else {
                    Some(r.swap_remove(0))
                }
            });
            Expr::InList {
                expr: Box::new(materialize_subqueries(expr, db)?),
                list: list.collect(),
                negated: *negated,
            }
        }
        Expr::ScalarSubquery(q) => {
            let rs = exec_query(q, db)?;
            let v = rs
                .rows
                .first()
                .and_then(|r| r.first())
                .cloned()
                .unwrap_or(Value::Null);
            Expr::Literal(v)
        }
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(materialize_subqueries(left, db)?),
            op: *op,
            right: Box::new(materialize_subqueries(right, db)?),
        },
        Expr::Not(inner) => Expr::Not(Box::new(materialize_subqueries(inner, db)?)),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(materialize_subqueries(expr, db)?),
            low: Box::new(materialize_subqueries(low, db)?),
            high: Box::new(materialize_subqueries(high, db)?),
            negated: *negated,
        },
        other => other.clone(),
    })
}

/// Evaluate an expression in scalar (per-row) context.
fn eval_scalar(e: &Expr, row: &[Value], scope: &Scope) -> Result<Value> {
    match e {
        Expr::Column(c) => Ok(row[scope.resolve(c)?].clone()),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Star => Err(NliError::Execution("`*` in scalar context".into())),
        Expr::Agg { .. } => Err(NliError::Execution(
            "aggregate in row context (missing GROUP BY?)".into(),
        )),
        Expr::Binary { left, op, right } => {
            let l = eval_scalar(left, row, scope)?;
            let r = eval_scalar(right, row, scope)?;
            eval_binary(&l, *op, &r)
        }
        Expr::Not(inner) => eval_not(eval_scalar(inner, row, scope)?),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_scalar(expr, row, scope)?;
            Ok(match v {
                Value::Null => Value::Null,
                Value::Text(s) => {
                    let m = like_match(pattern, &s);
                    Value::Bool(m != *negated)
                }
                other => {
                    // LIKE over non-text compares the canonical spelling,
                    // matching SQLite's affinity-light behaviour.
                    let m = like_match(pattern, &other.canonical());
                    Value::Bool(m != *negated)
                }
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_scalar(expr, row, scope)?;
            let lo = eval_scalar(low, row, scope)?;
            let hi = eval_scalar(high, row, scope)?;
            match (v.compare(&lo), v.compare(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != Ordering::Less && b != Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_scalar(expr, row, scope)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let found = list.iter().any(|x| v.sql_eq(x) == Some(true));
            Ok(Value::Bool(found != *negated))
        }
        Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => Err(NliError::Execution(
            "unmaterialized subquery reached evaluation".into(),
        )),
        Expr::IsNull { expr, negated } => {
            let v = eval_scalar(expr, row, scope)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

/// Evaluate an expression in group context: aggregates consume the group's
/// rows; bare columns take the group's first row (SQLite-style).
fn eval_group(e: &Expr, rows: &[Vec<Value>], scope: &Scope) -> Result<Value> {
    match e {
        Expr::Agg {
            func,
            arg,
            distinct,
        } => eval_agg(*func, arg, *distinct, rows, scope),
        Expr::Binary { left, op, right } => {
            let l = eval_group(left, rows, scope)?;
            let r = eval_group(right, rows, scope)?;
            eval_binary(&l, *op, &r)
        }
        Expr::Not(inner) => eval_not(eval_group(inner, rows, scope)?),
        other => match rows.first() {
            Some(first) => eval_scalar(other, first, scope),
            None => Ok(Value::Null),
        },
    }
}

fn eval_agg(
    func: AggFunc,
    arg: &Expr,
    distinct: bool,
    rows: &[Vec<Value>],
    scope: &Scope,
) -> Result<Value> {
    if matches!(arg, Expr::Star) {
        if func != AggFunc::Count {
            return Err(NliError::Execution(format!(
                "{}(*) is invalid",
                func.name()
            )));
        }
        return Ok(Value::Int(rows.len() as i64));
    }
    let mut vals = Vec::with_capacity(rows.len());
    for row in rows {
        let v = eval_scalar(arg, row, scope)?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    if distinct {
        let mut seen = std::collections::HashSet::new();
        vals.retain(|v| seen.insert(v.canonical()));
    }
    Ok(match func {
        AggFunc::Count => Value::Int(vals.len() as i64),
        AggFunc::Sum | AggFunc::Avg => {
            if vals.is_empty() {
                Value::Null
            } else {
                let mut sum = 0.0;
                let mut all_int = true;
                for v in &vals {
                    match v {
                        Value::Int(i) => sum += *i as f64,
                        Value::Float(f) => {
                            sum += f;
                            all_int = false;
                        }
                        other => {
                            return Err(NliError::Execution(format!(
                                "{} over non-numeric value {other}",
                                func.name()
                            )))
                        }
                    }
                }
                if func == AggFunc::Avg {
                    Value::Float(sum / vals.len() as f64)
                } else if all_int {
                    Value::Int(sum as i64)
                } else {
                    Value::Float(sum)
                }
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in vals {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take_new = match v.compare(&b) {
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
            best.unwrap_or(Value::Null)
        }
    })
}

// ---------------------------------------------------------------------------
// DML: the reference tree-walking leg
// ---------------------------------------------------------------------------

/// AST-level scan for aggregate and `*` nodes, mirroring the planner's
/// pre-binding guards (subqueries are *not* descended into — an aggregate
/// inside `IN (SELECT ...)` is legal).
fn scan_ast(e: &Expr, agg: &mut bool, star: &mut bool) {
    match e {
        Expr::Column(_) | Expr::Literal(_) | Expr::ScalarSubquery(_) => {}
        Expr::Star => *star = true,
        Expr::Agg { arg, .. } => {
            *agg = true;
            scan_ast(arg, agg, star);
        }
        Expr::Binary { left, right, .. } => {
            scan_ast(left, agg, star);
            scan_ast(right, agg, star);
        }
        Expr::Not(inner) => scan_ast(inner, agg, star),
        Expr::Like { expr, .. }
        | Expr::InList { expr, .. }
        | Expr::InSubquery { expr, .. }
        | Expr::IsNull { expr, .. } => scan_ast(expr, agg, star),
        Expr::Between {
            expr, low, high, ..
        } => {
            scan_ast(expr, agg, star);
            scan_ast(low, agg, star);
            scan_ast(high, agg, star);
        }
    }
}

/// Row indices matching a DML WHERE clause, ascending — the reference
/// semantics: materialize subqueries once, then evaluate the predicate
/// against every row of the table in storage order.
fn dml_matches(
    table: &str,
    where_clause: &Option<Expr>,
    db: &Database,
) -> Result<(usize, Vec<usize>)> {
    let ti = db
        .schema
        .table_index(table)
        .ok_or_else(|| NliError::UnknownTable(table.to_string()))?;
    let select = Select::simple(
        &db.schema.tables[ti].name,
        vec![SelectItem::plain(Expr::Star)],
    );
    let scope = Scope::bind(db, &select)?;
    let pred = match where_clause {
        Some(w) => {
            let (mut agg, mut star) = (false, false);
            scan_ast(w, &mut agg, &mut star);
            if agg {
                return Err(NliError::Execution(
                    "aggregates are not allowed in a DML WHERE clause".into(),
                ));
            }
            Some(materialize_subqueries(w, db)?)
        }
        None => None,
    };
    let mut out = Vec::new();
    for (ri, row) in db.rows(ti).iter().enumerate() {
        let keep = match &pred {
            Some(p) => truthy(&eval_scalar(p, row, &scope)?),
            None => true,
        };
        if keep {
            out.push(ri);
        }
    }
    Ok((ti, out))
}

/// Evaluate a DML [`Statement`] against `db` into the physical
/// [`nli_core::DmlOp`] it denotes — the reference tree-walking leg,
/// independent of the planner and the vectorized executor. Pure (the
/// database is not modified); the differential suite requires this leg and
/// the planned leg to produce identical ops.
pub fn compute_dml_tree_walk(stmt: &Statement, db: &Database) -> Result<DmlOp> {
    match stmt {
        Statement::Select(_) => Err(NliError::Execution(
            "compute_dml_tree_walk expects a DML statement".into(),
        )),
        Statement::Insert(ins) => {
            let ti = db
                .schema
                .table_index(&ins.table)
                .ok_or_else(|| NliError::UnknownTable(ins.table.clone()))?;
            let table = &db.schema.tables[ti];
            let width = table.columns.len();
            let positions: Vec<usize> = match &ins.columns {
                Some(cols) => {
                    let mut seen = vec![false; width];
                    let mut out = Vec::with_capacity(cols.len());
                    for c in cols {
                        let ci = table.column_index(c).ok_or_else(|| {
                            NliError::UnknownColumn(format!("{}.{c}", table.name))
                        })?;
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
            Ok(DmlOp::Insert { table: ti, rows })
        }
        Statement::Update(upd) => {
            let (ti, matches) = dml_matches(&upd.table, &upd.where_clause, db)?;
            let table = &db.schema.tables[ti];
            let select = Select::simple(&table.name, vec![SelectItem::plain(Expr::Star)]);
            let scope = Scope::bind(db, &select)?;
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
                let (mut agg, mut star) = (false, false);
                scan_ast(rhs, &mut agg, &mut star);
                if agg || star {
                    return Err(NliError::Execution(format!(
                        "SET {col} = ... may not contain {}",
                        if agg { "an aggregate" } else { "*" }
                    )));
                }
                set.push((ci, materialize_subqueries(rhs, db)?));
            }
            let rows = db.rows(ti);
            let mut updates = Vec::with_capacity(matches.len());
            for ri in matches {
                // Every SET rhs sees the pre-update row.
                let row = &rows[ri];
                let mut cells = Vec::with_capacity(set.len());
                for (ci, e) in &set {
                    cells.push((*ci as u32, eval_scalar(e, row, &scope)?));
                }
                updates.push((ri as u64, cells));
            }
            Ok(DmlOp::Update { table: ti, updates })
        }
        Statement::Delete(del) => {
            let (ti, matches) = dml_matches(&del.table, &del.where_clause, db)?;
            Ok(DmlOp::Delete {
                table: ti,
                rows: matches.into_iter().map(|r| r as u64).collect(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SqlEngine;
    use crate::parser::parse_query;
    use nli_core::{Column, DataType, Schema, Table};

    /// Sanity anchor: the reference interpreter and the plan pipeline agree
    /// on a query exercising join + aggregate + sort (the broad agreement
    /// guarantee lives in the differential property test).
    #[test]
    fn tree_walk_matches_plan_pipeline() {
        let mut schema = Schema::new(
            "shop",
            vec![
                Table::new(
                    "products",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("name", DataType::Text),
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
        schema
            .add_foreign_key("sales", "product_id", "products", "id")
            .unwrap();
        let mut db = Database::empty(schema);
        db.insert_all(
            "products",
            vec![
                vec![1.into(), "Widget".into(), 9.5.into()],
                vec![2.into(), "Gadget".into(), 19.0.into()],
            ],
        )
        .unwrap();
        db.insert_all(
            "sales",
            vec![
                vec![1.into(), 1.into(), 100.0.into()],
                vec![2.into(), 2.into(), 150.0.into()],
                vec![3.into(), Value::Null, 75.0.into()],
            ],
        )
        .unwrap();

        let q = parse_query(
            "SELECT products.name, SUM(sales.amount) FROM sales, products \
             WHERE sales.product_id = products.id GROUP BY products.name \
             ORDER BY SUM(sales.amount) DESC",
        )
        .unwrap();
        let reference = run_tree_walk(&q, &db).unwrap();
        let planned = SqlEngine::new()
            .prepare_ast(&q, &db.schema)
            .unwrap()
            .execute(&db)
            .unwrap();
        assert_eq!(reference.columns, planned.columns);
        assert!(reference.same_result(&planned));
        assert_eq!(reference.rows, planned.rows);
    }
}
