//! `EXPLAIN` / `EXPLAIN ANALYZE` for prepared statements.
//!
//! The crate-private `render_plan` pretty-prints a compiled [`QueryPlan`] as an indented
//! operator tree (executor order, root first): `Limit` > `Distinct` >
//! `Sort` > `Aggregate`/`Project` > `Filter` > the left-deep join chain >
//! `Scan` leaves, with set operations as an extra root. The text is a pure
//! function of the plan — offsets are printed back as column names via
//! [`SelectPlan::joined_columns`] — so the output is stable across runs and
//! suitable for golden tests (`tests/golden/explain_*`).
//!
//! `EXPLAIN ANALYZE` reuses the same tree and annotates every operator with
//! the [`OpStats`] collected by the instrumented execution path: rows
//! in/out, batches, operator-specific counters (hash-build keys, groups,
//! HAVING rejections, ...) and wall-clock µs. Row counts and counters are
//! deterministic (byte-identical across worker counts — pinned by
//! `tests/obs_determinism.rs`); timings are not, so [`AnalyzedSql::render`]
//! omits them and [`AnalyzedSql::render_with_timings`] opts in.

use crate::ast::SetOp;
use crate::exec::ResultSet;
use crate::plan::{
    BuildSide, DmlPlan, IndexProbe, JoinKind, PlanExpr, QueryPlan, ScanNode, SelectPlan,
};
use nli_core::{Schema, Value};
use std::sync::Arc;

/// Per-operator execution statistics, collected only when a plan runs under
/// the instrumented path ([`crate::PreparedSql::explain_analyze`]); the
/// normal hot path carries a single `Option` check per operator, not per
/// row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Rows entering the operator (for joins: prefix rows + new-table rows).
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Evaluation chunks the operator's input was processed in (input rows
    /// divided by the vectorized executor's batch size, minimum 1).
    /// Operators that work on a materialized whole (sort, distinct, limit,
    /// set ops) report `1`.
    pub batches: u64,
    /// Wall-clock time inside the operator, µs (monotonic clock;
    /// non-deterministic).
    pub wall_micros: u64,
    /// Operator-specific counters (hash-build keys, groups, ...), sorted by
    /// name at render time.
    pub counters: Vec<(&'static str, u64)>,
}

impl OpStats {
    pub(crate) fn flow(rows_in: usize, rows_out: usize) -> OpStats {
        OpStats {
            rows_in: rows_in as u64,
            rows_out: rows_out as u64,
            batches: 1,
            ..OpStats::default()
        }
    }
}

/// Stats for one executed SELECT block, slot-per-operator; `None` means the
/// plan had no such operator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectProfile {
    /// One entry per [`SelectPlan::scans`] node, in order.
    pub scans: Vec<OpStats>,
    /// One entry per [`SelectPlan::joins`] step, in order.
    pub joins: Vec<OpStats>,
    pub residual: Option<OpStats>,
    pub aggregate: Option<OpStats>,
    pub project: Option<OpStats>,
    pub sort: Option<OpStats>,
    pub distinct: Option<OpStats>,
    pub limit: Option<OpStats>,
}

/// Stats for a whole executed query: the SELECT block, the optional set
/// operator joining it to a compound right-hand side, and that side's own
/// profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProfile {
    pub select: SelectProfile,
    pub set_op: Option<OpStats>,
    pub compound: Option<Box<PlanProfile>>,
}

impl PlanProfile {
    /// Visit every collected operator stat, labelled by operator kind.
    /// `nlibench` sums the scans' `rows_in` over this.
    pub fn each_op(&self, f: &mut impl FnMut(&'static str, &OpStats)) {
        for s in &self.select.scans {
            f("scan", s);
        }
        for s in &self.select.joins {
            f("join", s);
        }
        let slots = [
            ("filter", &self.select.residual),
            ("aggregate", &self.select.aggregate),
            ("project", &self.select.project),
            ("sort", &self.select.sort),
            ("distinct", &self.select.distinct),
            ("limit", &self.select.limit),
        ];
        for (label, slot) in slots {
            if let Some(s) = slot {
                f(label, s);
            }
        }
        if let Some(s) = &self.set_op {
            f("set_op", s);
        }
        if let Some(c) = &self.compound {
            c.each_op(f);
        }
    }
}

/// The outcome of [`crate::PreparedSql::explain_analyze`]: the result set
/// plus the instrumented plan, renderable as an annotated operator tree.
#[derive(Debug, Clone)]
pub struct AnalyzedSql {
    pub(crate) plan: Arc<QueryPlan>,
    /// Per-operator stats collected during this execution.
    pub profile: PlanProfile,
    /// The query result (identical to what [`crate::PreparedSql::execute`]
    /// returns).
    pub result: ResultSet,
}

impl AnalyzedSql {
    /// The analyzed plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Deterministic annotated tree: rows in/out, batches, and operator
    /// counters, *without* wall-clock timings. Byte-identical across runs
    /// and worker counts for the same query + database.
    pub fn render(&self) -> String {
        render_plan(&self.plan, Some(&self.profile), false)
    }

    /// Like [`AnalyzedSql::render`] plus `time=..us` per operator.
    /// Non-deterministic; for human eyes, not for golden tests.
    pub fn render_with_timings(&self) -> String {
        render_plan(&self.plan, Some(&self.profile), true)
    }
}

/// Render a plan as an indented operator tree; with `prof`, annotate each
/// operator with its stats (plus timings when `timings`).
pub(crate) fn render_plan(plan: &QueryPlan, prof: Option<&PlanProfile>, timings: bool) -> String {
    let mut out = String::new();
    render_query(&mut out, plan, prof, 0, timings);
    out
}

fn render_query(
    out: &mut String,
    plan: &QueryPlan,
    prof: Option<&PlanProfile>,
    depth: usize,
    timings: bool,
) {
    match &plan.compound {
        Some((op, rhs)) => {
            let label = match op {
                SetOp::Union => "Union",
                SetOp::Intersect => "Intersect",
                SetOp::Except => "Except",
            };
            line(
                out,
                depth,
                label.to_string(),
                prof.and_then(|p| p.set_op.as_ref()),
                timings,
            );
            render_select(
                out,
                &plan.select,
                prof.map(|p| &p.select),
                depth + 1,
                timings,
            );
            render_query(
                out,
                rhs,
                prof.and_then(|p| p.compound.as_deref()),
                depth + 1,
                timings,
            );
        }
        None => render_select(out, &plan.select, prof.map(|p| &p.select), depth, timings),
    }
}

fn render_select(
    out: &mut String,
    p: &SelectPlan,
    prof: Option<&SelectProfile>,
    mut depth: usize,
    timings: bool,
) {
    let names = &p.joined_columns;
    if let Some(l) = p.limit {
        line(
            out,
            depth,
            format!("Limit {l}"),
            prof.and_then(|s| s.limit.as_ref()),
            timings,
        );
        depth += 1;
    }
    if p.distinct {
        line(
            out,
            depth,
            "Distinct".to_string(),
            prof.and_then(|s| s.distinct.as_ref()),
            timings,
        );
        depth += 1;
    }
    if !p.order_by.is_empty() {
        let keys: Vec<String> = p
            .order_by
            .iter()
            .map(|k| {
                format!(
                    "{} {}",
                    expr_str(&k.expr, names, 0),
                    if k.desc { "DESC" } else { "ASC" }
                )
            })
            .collect();
        line(
            out,
            depth,
            format!("Sort [{}]", keys.join(", ")),
            prof.and_then(|s| s.sort.as_ref()),
            timings,
        );
        depth += 1;
    }
    if p.aggregate {
        let mut label = String::from("Aggregate");
        if !p.group_by.is_empty() {
            let keys: Vec<String> = p.group_by.iter().map(|g| expr_str(g, names, 0)).collect();
            label.push_str(&format!(" group_by=[{}]", keys.join(", ")));
        }
        let items: Vec<String> = p.items.iter().map(|i| expr_str(i, names, 0)).collect();
        label.push_str(&format!(" items=[{}]", items.join(", ")));
        if let Some(h) = &p.having {
            label.push_str(&format!(" having={}", expr_str(h, names, 0)));
        }
        line(
            out,
            depth,
            label,
            prof.and_then(|s| s.aggregate.as_ref()),
            timings,
        );
        depth += 1;
    } else {
        let label = if p.star {
            format!("Project * (arity={})", p.columns.len())
        } else {
            let items: Vec<String> = p.items.iter().map(|i| expr_str(i, names, 0)).collect();
            format!("Project [{}]", items.join(", "))
        };
        line(
            out,
            depth,
            label,
            prof.and_then(|s| s.project.as_ref()),
            timings,
        );
        depth += 1;
    }
    if let Some(r) = &p.residual {
        line(
            out,
            depth,
            format!("Filter {}", expr_str(r, names, 0)),
            prof.and_then(|s| s.residual.as_ref()),
            timings,
        );
        depth += 1;
    }
    render_joins(out, p, prof, p.joins.len(), depth, timings);
}

/// Render the left-deep join chain rooted at join step `k - 1` (the subtree
/// covering execution steps `0..=k`); `k == 0` is the bare first scan.
/// The tree follows [`SelectPlan::exec_order`]: step `k - 1` attaches FROM
/// entry `exec_order[k]`, so a cost-reordered plan prints in the order it
/// actually executes.
fn render_joins(
    out: &mut String,
    p: &SelectPlan,
    prof: Option<&SelectProfile>,
    k: usize,
    depth: usize,
    timings: bool,
) {
    if k == 0 {
        match p.exec_order.first().map(|&e| (e, &p.scans[e])) {
            Some((e, node)) => render_scan(
                out,
                &p.joined_columns,
                node,
                prof.and_then(|s| s.scans.get(e)),
                depth,
                timings,
            ),
            None => line(out, depth, "Empty".to_string(), None, timings),
        }
        return;
    }
    let step = &p.joins[k - 1];
    let build_entry = p.exec_order[k];
    let build_scan = &p.scans[build_entry];
    let key_names = |probe_off: usize, build_col: usize| {
        let probe = name_at(&p.joined_columns, probe_off).to_string();
        let build = name_at(&p.joined_columns, build_scan.offset + build_col);
        let build = if build.contains('.') {
            build.to_string()
        } else {
            format!("{}.{build}", build_scan.table_name)
        };
        (probe, build)
    };
    let mut label = match step.kind {
        JoinKind::Hash {
            probe_off,
            build_col,
            build_side,
        } => {
            let (probe, build) = key_names(probe_off, build_col);
            let mut s = format!("HashJoin ({probe} = {build})");
            if build_side == BuildSide::Prefix {
                s.push_str(" [build=prefix]");
            }
            s
        }
        JoinKind::Merge {
            probe_off,
            build_col,
        } => {
            let (probe, build) = key_names(probe_off, build_col);
            format!("MergeJoin ({probe} = {build})")
        }
        JoinKind::Cross => "CrossJoin".to_string(),
    };
    if let Some(est) = step.est_rows {
        label.push_str(&format!(" est={est}"));
    }
    line(
        out,
        depth,
        label,
        prof.and_then(|s| s.joins.get(k - 1)),
        timings,
    );
    render_joins(out, p, prof, k - 1, depth + 1, timings);
    render_scan(
        out,
        &p.joined_columns,
        build_scan,
        prof.and_then(|s| s.scans.get(build_entry)),
        depth + 1,
        timings,
    );
}

fn render_scan(
    out: &mut String,
    names: &[String],
    node: &ScanNode,
    st: Option<&OpStats>,
    depth: usize,
    timings: bool,
) {
    // Access path: an index probe renders as IndexEqScan/IndexRangeScan
    // with the probe predicate; the filter= clause still shows the full
    // pushed-down filter the probe's candidates are re-checked against.
    let mut label = match &node.index {
        None => format!("Scan {} (cols={}", node.table_name, node.width),
        Some(access) => {
            let op = match access.probe {
                IndexProbe::Range { .. } => "IndexRangeScan",
                _ => "IndexEqScan",
            };
            let col = name_at(names, node.offset + access.column);
            format!(
                "{op} {} (probe={}, cols={}",
                node.table_name,
                probe_str(col, &access.probe),
                node.width
            )
        }
    };
    if let Some(f) = &node.filter {
        // Pushed-down filters use table-local offsets; rebase onto the
        // joined-row names via the scan's offset.
        label.push_str(&format!(", filter={}", expr_str(f, names, node.offset)));
    }
    if let Some(est) = node.est_rows {
        label.push_str(&format!(", est={est}"));
    }
    label.push(')');
    line(out, depth, label, st, timings);
}

/// Render a compiled DML plan as the same indented operator tree
/// `render_plan` emits for reads: an `Insert` leaf, or an `Update`/`Delete`
/// root over the Scan/IndexScan leaf its WHERE clause planned to (plus a
/// `Filter` line when subquery conjuncts stayed residual). Pure function of
/// the plan, so golden-testable.
pub(crate) fn render_dml_plan(plan: &DmlPlan, schema: &Schema) -> String {
    let mut out = String::new();
    match plan {
        DmlPlan::Insert {
            table_name, rows, ..
        } => {
            line(
                &mut out,
                0,
                format!("Insert {table_name} (rows={})", rows.len()),
                None,
                false,
            );
        }
        DmlPlan::Update {
            scan,
            residual,
            set,
        } => {
            let names: Vec<String> = schema.tables[scan.table]
                .columns
                .iter()
                .map(|c| c.name.clone())
                .collect();
            let sets: Vec<String> = set
                .iter()
                .map(|(ci, e)| format!("{} = {}", name_at(&names, *ci), expr_str(e, &names, 0)))
                .collect();
            line(
                &mut out,
                0,
                format!("Update {} set=[{}]", scan.table_name, sets.join(", ")),
                None,
                false,
            );
            render_dml_where(&mut out, scan, residual, &names);
        }
        DmlPlan::Delete { scan, residual } => {
            let names: Vec<String> = schema.tables[scan.table]
                .columns
                .iter()
                .map(|c| c.name.clone())
                .collect();
            line(
                &mut out,
                0,
                format!("Delete {}", scan.table_name),
                None,
                false,
            );
            render_dml_where(&mut out, scan, residual, &names);
        }
    }
    out
}

fn render_dml_where(
    out: &mut String,
    scan: &ScanNode,
    residual: &Option<PlanExpr>,
    names: &[String],
) {
    let mut depth = 1;
    if let Some(r) = residual {
        line(
            out,
            depth,
            format!("Filter {}", expr_str(r, names, 0)),
            None,
            false,
        );
        depth += 1;
    }
    render_scan(out, names, scan, None, depth, false);
}

/// Render an index probe predicate over the named key column.
fn probe_str(col: &str, probe: &IndexProbe) -> String {
    match probe {
        IndexProbe::Eq(v) => format!("{col} = {}", literal_str(v)),
        IndexProbe::In(vs) => {
            let vals: Vec<String> = vs.iter().map(literal_str).collect();
            format!("{col} IN ({})", vals.join(", "))
        }
        IndexProbe::IsNull => format!("{col} IS NULL"),
        IndexProbe::Range { lo, hi } => {
            let lo_s = lo
                .as_ref()
                .map(|(v, inc)| format!("{} {} ", literal_str(v), if *inc { "<=" } else { "<" }));
            let hi_s = hi
                .as_ref()
                .map(|(v, inc)| format!(" {} {}", if *inc { "<=" } else { "<" }, literal_str(v)));
            format!(
                "{}{col}{}",
                lo_s.unwrap_or_default(),
                hi_s.unwrap_or_default()
            )
        }
    }
}

fn line(out: &mut String, depth: usize, label: String, st: Option<&OpStats>, timings: bool) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&label);
    if let Some(st) = st {
        out.push_str(&format!(
            " {{rows_in={} rows_out={} batches={}",
            st.rows_in, st.rows_out, st.batches
        ));
        let mut counters = st.counters.clone();
        counters.sort_unstable();
        for (name, v) in counters {
            out.push_str(&format!(" {name}={v}"));
        }
        if timings {
            out.push_str(&format!(" time={}us", st.wall_micros));
        }
        out.push('}');
    }
    out.push('\n');
}

fn name_at(names: &[String], offset: usize) -> &str {
    names.get(offset).map(String::as_str).unwrap_or("?")
}

fn literal_str(v: &Value) -> String {
    match v {
        Value::Text(_) | Value::Date(_) => format!("'{}'", v.canonical()),
        other => other.canonical(),
    }
}

/// Print a bound expression with offsets resolved back to column names.
/// `base` rebases table-local offsets (pushed-down scan filters) onto the
/// joined row.
pub(crate) fn expr_str(e: &PlanExpr, names: &[String], base: usize) -> String {
    match e {
        PlanExpr::Col(o) => name_at(names, base + o).to_string(),
        PlanExpr::Literal(v) => literal_str(v),
        PlanExpr::Star => "*".to_string(),
        PlanExpr::Agg {
            func,
            arg,
            distinct,
        } => format!(
            "{}({}{})",
            func.name(),
            if *distinct { "DISTINCT " } else { "" },
            expr_str(arg, names, base)
        ),
        PlanExpr::Binary { left, op, right } => {
            let paren = |side: &PlanExpr| {
                let s = expr_str(side, names, base);
                if matches!(side, PlanExpr::Binary { .. }) {
                    format!("({s})")
                } else {
                    s
                }
            };
            format!("{} {} {}", paren(left), op.symbol(), paren(right))
        }
        PlanExpr::Not(inner) => format!("NOT ({})", expr_str(inner, names, base)),
        PlanExpr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{}{} LIKE '{pattern}'",
            expr_str(expr, names, base),
            if *negated { " NOT" } else { "" }
        ),
        PlanExpr::Between {
            expr,
            low,
            high,
            negated,
        } => format!(
            "{}{} BETWEEN {} AND {}",
            expr_str(expr, names, base),
            if *negated { " NOT" } else { "" },
            expr_str(low, names, base),
            expr_str(high, names, base)
        ),
        PlanExpr::InList {
            expr,
            list,
            negated,
        } => {
            let vals: Vec<String> = list.iter().map(literal_str).collect();
            format!(
                "{}{} IN ({})",
                expr_str(expr, names, base),
                if *negated { " NOT" } else { "" },
                vals.join(", ")
            )
        }
        PlanExpr::InPlan { expr, negated, .. } => format!(
            "{}{} IN (<subquery>)",
            expr_str(expr, names, base),
            if *negated { " NOT" } else { "" }
        ),
        PlanExpr::ScalarPlan(_) => "<subquery>".to_string(),
        PlanExpr::IsNull { expr, negated } => format!(
            "{} IS{} NULL",
            expr_str(expr, names, base),
            if *negated { " NOT" } else { "" }
        ),
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::SqlEngine;
    use nli_core::{Column, DataType, Database, Schema, Table, Value};

    /// Three joinable tables: stores, products, sales (FKs from sales).
    fn retail_db() -> Database {
        let mut schema = Schema::new(
            "retail",
            vec![
                Table::new(
                    "stores",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("city", DataType::Text),
                    ],
                ),
                Table::new(
                    "products",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("category", DataType::Text),
                        Column::new("price", DataType::Float),
                    ],
                ),
                Table::new(
                    "sales",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("store_id", DataType::Int),
                        Column::new("product_id", DataType::Int),
                        Column::new("amount", DataType::Float),
                    ],
                ),
            ],
        );
        schema
            .add_foreign_key("sales", "store_id", "stores", "id")
            .unwrap();
        schema
            .add_foreign_key("sales", "product_id", "products", "id")
            .unwrap();
        let mut db = Database::empty(schema);
        db.insert_all(
            "stores",
            vec![
                vec![1.into(), "Oslo".into()],
                vec![2.into(), "Bergen".into()],
            ],
        )
        .unwrap();
        db.insert_all(
            "products",
            vec![
                vec![1.into(), "Tools".into(), 9.5.into()],
                vec![2.into(), "Tools".into(), 19.0.into()],
                vec![3.into(), "Toys".into(), 4.25.into()],
            ],
        )
        .unwrap();
        db.insert_all(
            "sales",
            vec![
                vec![1.into(), 1.into(), 1.into(), 100.0.into()],
                vec![2.into(), 1.into(), 2.into(), 200.0.into()],
                vec![3.into(), 2.into(), 2.into(), 150.0.into()],
                vec![4.into(), 2.into(), 3.into(), 50.0.into()],
                vec![5.into(), Value::Null, 1.into(), 75.0.into()],
            ],
        )
        .unwrap();
        db
    }

    const THREE_WAY: &str = "SELECT stores.city, SUM(sales.amount) FROM sales \
         JOIN stores ON sales.store_id = stores.id \
         JOIN products ON sales.product_id = products.id \
         WHERE products.price > 5 GROUP BY stores.city \
         ORDER BY SUM(sales.amount) DESC";

    #[test]
    fn explain_renders_the_full_operator_tree() {
        let engine = SqlEngine::new();
        let stmt = engine.prepare(THREE_WAY, &retail_db().schema).unwrap();
        let text = stmt.explain();
        for needle in [
            "Sort [SUM(amount) DESC]",
            "Aggregate group_by=[city] items=[city, SUM(amount)]",
            "HashJoin (store_id = stores.id)",
            "HashJoin (product_id = products.id)",
            "Scan sales (cols=4)",
            "Scan stores (cols=2)",
            "Scan products (cols=3, filter=price > 5)",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // The pushed-down filter must not survive as a residual Filter node.
        assert!(!text.contains("\nFilter"), "unexpected residual:\n{text}");
    }

    #[test]
    fn explain_analyze_reports_per_operator_row_counts() {
        let db = retail_db();
        let engine = SqlEngine::new();
        let stmt = engine.prepare(THREE_WAY, &db.schema).unwrap();
        let analyzed = stmt.explain_analyze(&db).unwrap();

        // The result is exactly what plain execute produces.
        assert!(analyzed.result.same_result(&stmt.execute(&db).unwrap()));

        let p = &analyzed.profile.select;
        assert_eq!(p.scans.len(), 3);
        // sales scan: unfiltered, 5 rows in and out.
        assert_eq!((p.scans[0].rows_in, p.scans[0].rows_out), (5, 5));
        // products scan: price > 5 drops one of three.
        assert_eq!((p.scans[2].rows_in, p.scans[2].rows_out), (3, 2));
        // first join: 5 sales + 2 stores in, the NULL store_id row drops.
        assert_eq!(p.joins.len(), 2);
        assert_eq!((p.joins[0].rows_in, p.joins[0].rows_out), (7, 4));
        assert!(p.joins[0].counters.contains(&("build_keys", 2)));
        // second join: 4 + 2 in, the Toys sale (price 4.25) drops.
        assert_eq!((p.joins[1].rows_in, p.joins[1].rows_out), (6, 3));
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!((agg.rows_in, agg.rows_out), (3, 2));
        assert!(agg.counters.contains(&("groups", 2)));
        assert_eq!(p.sort.as_ref().unwrap().rows_out, 2);
        assert!(p.residual.is_none(), "filter was pushed below the joins");

        // Deterministic render: a second instrumented run is byte-identical.
        let again = stmt.explain_analyze(&db).unwrap();
        assert_eq!(analyzed.render(), again.render());
        // ...and the timed render only adds time=..us annotations.
        let timed = analyzed.render_with_timings();
        assert_eq!(timed.replace(" time=", "#").matches('#').count(), {
            let mut n = 0;
            analyzed.profile.each_op(&mut |_, _| n += 1);
            n
        });
    }

    #[test]
    fn explain_analyze_covers_set_ops_and_compound_profiles() {
        let db = retail_db();
        let engine = SqlEngine::new();
        let stmt = engine
            .prepare(
                "SELECT id FROM products UNION SELECT product_id FROM sales",
                &db.schema,
            )
            .unwrap();
        let analyzed = stmt.explain_analyze(&db).unwrap();
        let set = analyzed.profile.set_op.as_ref().unwrap();
        assert_eq!((set.rows_in, set.rows_out), (8, 3));
        let rhs = analyzed.profile.compound.as_ref().unwrap();
        assert_eq!(rhs.select.scans[0].rows_out, 5);
        assert!(analyzed.render().starts_with("Union {rows_in=8 rows_out=3"));
    }
}
