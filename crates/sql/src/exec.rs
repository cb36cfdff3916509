//! Physical SQL execution over compiled plans.
//!
//! Implements the survey's `E(e, D) → r` for the SQL task as a two-stage
//! pipeline: [`crate::plan::plan_query`] compiles an AST into a schema-bound
//! [`QueryPlan`] (name resolution, hash-join extraction, predicate
//! pushdown), and this module executes plans: scan (with pushed-down
//! filters), hash/cross join, residual filter, group/aggregate, project,
//! sort, de-duplicate, limit, and set operators.
//!
//! [`SqlEngine`] fronts the pipeline with a schema-fingerprinted LRU
//! [`PlanCache`], so re-running one query text across many database
//! variants that share a schema (test-suite evaluation) parses and plans
//! exactly once. [`SqlEngine::run_sql`] keeps the original parse-and-go
//! signature as a thin shim over `prepare` + `execute`.
//!
//! Semantics follow SQLite where SQL leaves room: `LIKE` is
//! case-insensitive, non-aggregated select items in a grouped query take
//! the group's first row, aggregates over empty inputs yield `NULL`
//! (`COUNT` yields 0). The seed tree-walking interpreter survives as
//! [`crate::interp`] and is held equivalent by a differential property
//! test.

use crate::ast::{AggFunc, BinOp, Query, SetOp, Statement};
use crate::explain::{render_plan, AnalyzedSql, OpStats, PlanProfile};
use crate::plan::{plan_dml, plan_query, DmlPlan, IndexOptions, PlanExpr, QueryPlan};
use nli_core::{
    obs, CacheStats, Database, DmlOp, ExecutionEngine, NliError, PlanCache, Result, Schema, Value,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cached stage handles for the pipeline (DESIGN.md §3.3), resolved
/// together so every export that ran a query lists all six stages:
/// `sql.parse` and `sql.plan` are timed inside the plan-cache build
/// closure, so they fire once per cache miss; `sql.execute` fires on every
/// [`PreparedSql::execute`], `sql.explain_analyze` on every instrumented
/// run, `sql.vectorize` once per select block the columnar executor runs,
/// and `sql.dml` once per DML statement evaluated.
pub(crate) struct SqlObs {
    parse: obs::Histogram,
    plan: obs::Histogram,
    execute: obs::Histogram,
    explain_analyze: obs::Histogram,
    pub(crate) vectorize: obs::Histogram,
    dml: obs::Histogram,
}

pub(crate) fn sql_obs() -> &'static SqlObs {
    static OBS: OnceLock<SqlObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = obs::global();
        SqlObs {
            parse: r.span_histogram("sql.parse"),
            plan: r.span_histogram("sql.plan"),
            execute: r.span_histogram("sql.execute"),
            explain_analyze: r.span_histogram("sql.explain_analyze"),
            vectorize: r.span_histogram("sql.vectorize"),
            dml: r.span_histogram("sql.dml"),
        }
    })
}

/// Outcome of running one SQL [`Statement`] (see
/// [`SqlEngine::run_statement`]).
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// A SELECT's result table.
    Rows(ResultSet),
    /// A DML statement's affected-row count (rows inserted, updated, or
    /// deleted; `CREATE INDEX` reports whether the declaration was new).
    Affected(u64),
}

/// An executed result table `r`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    /// Whether row order is semantically meaningful (the query had a
    /// top-level ORDER BY). Execution-match comparison is order-sensitive
    /// only when this is set.
    pub ordered: bool,
}

impl ResultSet {
    pub fn empty() -> Self {
        ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
            ordered: false,
        }
    }

    /// Canonical multiset representation: each row canonicalized, then rows
    /// sorted. Two results with the same multiset of rows compare equal.
    pub fn canonical_rows(&self) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.canonical()).collect())
            .collect();
        rows.sort();
        rows
    }

    /// Execution-match comparison: order-sensitive iff either side is
    /// ordered; column *names* are ignored (only positions/values matter),
    /// mirroring standard execution-accuracy evaluation.
    pub fn same_result(&self, other: &ResultSet) -> bool {
        if self.ordered || other.ordered {
            if self.rows.len() != other.rows.len() {
                return false;
            }
            self.rows
                .iter()
                .zip(&other.rows)
                .all(|(a, b)| canonical_row(a) == canonical_row(b))
        } else {
            self.canonical_rows() == other.canonical_rows()
        }
    }
}

pub(crate) fn canonical_row(r: &[Value]) -> Vec<String> {
    r.iter().map(|v| v.canonical()).collect()
}

/// A result's comparison form, canonicalized once. Built for one-vs-many
/// comparison loops (test-suite matching compares one gold result per
/// variant against predictions): the owning side pays canonicalization a
/// single time instead of once per [`ResultSet::same_result`] call.
#[derive(Debug, Clone)]
pub struct CanonicalResult {
    ordered: bool,
    /// Canonical rows in result order (ordered comparison).
    sequence: Vec<Vec<String>>,
    /// Canonical rows sorted (multiset comparison).
    multiset: Vec<Vec<String>>,
}

impl ResultSet {
    /// Precompute this result's canonical comparison form.
    pub fn to_canonical(&self) -> CanonicalResult {
        let sequence: Vec<Vec<String>> = self.rows.iter().map(|r| canonical_row(r)).collect();
        let mut multiset = sequence.clone();
        multiset.sort();
        CanonicalResult {
            ordered: self.ordered,
            sequence,
            multiset,
        }
    }

    /// Exactly [`ResultSet::same_result`], but the other side is already
    /// canonical.
    pub fn matches_canonical(&self, other: &CanonicalResult) -> bool {
        if self.ordered || other.ordered {
            self.rows.len() == other.sequence.len()
                && self
                    .rows
                    .iter()
                    .zip(&other.sequence)
                    .all(|(a, b)| &canonical_row(a) == b)
        } else {
            self.canonical_rows() == other.multiset
        }
    }
}

/// A query compiled against one schema, executable on any database whose
/// schema shares the same [`Schema::fingerprint`]. Cheap to clone (the plan
/// is shared).
#[derive(Debug, Clone)]
pub struct PreparedSql {
    plan: Arc<QueryPlan>,
    fingerprint: u64,
}

impl PreparedSql {
    /// The compiled plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Fingerprint of the schema this statement was prepared against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Output column names (fixed at plan time).
    pub fn columns(&self) -> &[String] {
        &self.plan.select.columns
    }

    /// Run the plan. The database must match the prepared schema
    /// structurally; executing against a different schema is a misuse the
    /// engine reports rather than silently mis-resolving columns.
    pub fn execute(&self, db: &Database) -> Result<ResultSet> {
        self.check_fingerprint(db)?;
        let _span = sql_obs().execute.time();
        exec_plan(&self.plan, db)
    }

    /// Pretty-print the compiled plan as an operator tree (no execution).
    /// Deterministic text, stable across runs — the `EXPLAIN` side of the
    /// golden tests.
    pub fn explain(&self) -> String {
        render_plan(&self.plan, None, false)
    }

    /// Execute under the instrumented path, collecting per-operator
    /// [`OpStats`], and return the result together with the profile
    /// ([`AnalyzedSql`]). Row counts and counters in the profile are
    /// deterministic; wall-clock timings are not.
    pub fn explain_analyze(&self, db: &Database) -> Result<AnalyzedSql> {
        self.check_fingerprint(db)?;
        let _span = sql_obs().explain_analyze.time();
        let mut profile = PlanProfile::default();
        let result = exec_plan_profiled(&self.plan, db, Some(&mut profile))?;
        Ok(AnalyzedSql {
            plan: Arc::clone(&self.plan),
            profile,
            result,
        })
    }

    fn check_fingerprint(&self, db: &Database) -> Result<()> {
        if db.schema.fingerprint() != self.fingerprint {
            return Err(NliError::Execution(
                "prepared statement executed against a structurally different schema".into(),
            ));
        }
        Ok(())
    }
}

/// What a prepare compiles: SQL text, parsed on a cache miss, or an
/// already-parsed query.
#[derive(Clone, Copy)]
enum Source<'q> {
    Text(&'q str),
    Ast(&'q Query),
}

/// The SQL execution engine: parse → plan → execute, with a
/// schema-fingerprinted plan cache in front of the first two stages.
/// Cloning shares the cache.
#[derive(Debug, Clone)]
pub struct SqlEngine {
    cache: Arc<PlanCache<QueryPlan>>,
    /// Number of times a query string was actually parsed (cache misses in
    /// [`SqlEngine::prepare`]); lets tests pin "parse once per
    /// (query, schema)" down exactly.
    parses: Arc<AtomicU64>,
    /// Auto-index policy for cost-based prepares (see
    /// [`SqlEngine::with_auto_index`]); shared across clones like the cache.
    auto_index: Arc<AtomicBool>,
}

impl SqlEngine {
    pub fn new() -> Self {
        SqlEngine::from_cache(PlanCache::default())
    }

    /// An engine whose plan cache holds at most `capacity` entries.
    pub fn with_cache_capacity(capacity: usize) -> Self {
        SqlEngine::from_cache(PlanCache::with_capacity(capacity))
    }

    /// Every engine mirrors its cache counters into the global [`obs`]
    /// registry under `plan_cache.*`; engines sharing a process aggregate
    /// there, while [`SqlEngine::cache_stats`] stays per-engine.
    fn from_cache(cache: PlanCache<QueryPlan>) -> Self {
        cache.attach_obs(obs::global(), "plan_cache");
        SqlEngine {
            cache: Arc::new(cache),
            parses: Arc::new(AtomicU64::new(0)),
            auto_index: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Set the auto-index policy (builder style). On — the default — the
    /// cost-based planner may extract an index probe for any Int/Date/Text
    /// column, and the executor builds the index lazily on first use. Off,
    /// only columns explicitly declared via
    /// [`SqlEngine::create_index`]/[`Database::create_index`] qualify.
    /// Either way the policy picks access paths only; results are
    /// byte-identical.
    pub fn with_auto_index(self, on: bool) -> Self {
        self.auto_index.store(on, AtomicOrdering::Relaxed);
        self
    }

    /// The current auto-index policy.
    pub fn auto_index(&self) -> bool {
        self.auto_index.load(AtomicOrdering::Relaxed)
    }

    /// Declare a secondary index on `table.column` (the engine-level face
    /// of [`Database::create_index`]). Returns whether the declaration is
    /// new; a new declaration bumps the stats epoch, so cached cost-based
    /// plans for `db` re-plan on next prepare and can use the index.
    pub fn create_index(&self, db: &mut Database, table: &str, column: &str) -> Result<bool> {
        db.create_index(table, column)
    }

    /// The index policy a cost-based prepare hands the planner for `db`.
    fn index_options(&self, db: &Database) -> IndexOptions {
        IndexOptions {
            auto: self.auto_index(),
            declared: db.index_declarations().clone(),
        }
    }

    /// Compile `sql` against `schema`, reusing a cached plan when this
    /// engine has seen the same `(sql, schema fingerprint)` before.
    pub fn prepare(&self, sql: &str, schema: &Schema) -> Result<PreparedSql> {
        self.prepare_source(Source::Text(sql), schema, None)
    }

    /// Whether [`SqlEngine::prepare`] would currently hit the plan cache
    /// for `(sql, schema)` — a read-only probe: no insertion, no hit/miss
    /// accounting, no plan built. The server's per-tenant plan-cache
    /// metering asks this before executing a batched statement.
    pub fn plan_cached(&self, sql: &str, schema: &Schema) -> bool {
        self.cache.contains(sql, schema.fingerprint(), 0)
    }

    /// Compile an already-parsed query, skipping the parser entirely. The
    /// cache key is the query's canonical SQL rendering, so semantically
    /// identical ASTs share one plan.
    pub fn prepare_ast(&self, q: &Query, schema: &Schema) -> Result<PreparedSql> {
        self.prepare_source(Source::Ast(q), schema, None)
    }

    /// Compile `sql` with the cost-based planner, consulting `db`'s table
    /// statistics. The cached plan is keyed on `(sql, schema fingerprint,
    /// stats epoch)`, so mutating the database re-plans on next prepare
    /// while unmutated databases keep hitting the cache.
    pub fn prepare_on(&self, sql: &str, db: &Database) -> Result<PreparedSql> {
        self.prepare_source(Source::Text(sql), &db.schema, Some(db))
    }

    /// [`SqlEngine::prepare_on`] for an already-parsed query: cost-based
    /// planning over `db`'s statistics, keyed by the canonical SQL
    /// rendering plus the stats epoch.
    pub fn prepare_ast_on(&self, q: &Query, db: &Database) -> Result<PreparedSql> {
        self.prepare_source(Source::Ast(q), &db.schema, Some(db))
    }

    /// The one body behind the four `prepare*` methods. Without `db` the
    /// plan is rule-based and cached under stats epoch 0; with `db` it is
    /// cost-based over `db`'s statistics and cached under its epoch. A
    /// non-default auto-index policy prefixes the key so the two policies
    /// never share a cached plan (declared-index changes need no marker —
    /// they bump the stats epoch). Only SQL text counts a parse.
    fn prepare_source(
        &self,
        src: Source<'_>,
        schema: &Schema,
        db: Option<&Database>,
    ) -> Result<PreparedSql> {
        let fingerprint = schema.fingerprint();
        let text = match src {
            Source::Text(sql) => Cow::Borrowed(sql),
            Source::Ast(q) => Cow::Owned(q.to_string()),
        };
        let opts = db.map(|db| self.index_options(db));
        let key = match &opts {
            Some(o) if !o.auto => Cow::Owned(format!("#noindex#{text}")),
            _ => text,
        };
        let epoch = db.map_or(0, Database::stats_epoch);
        let plan = self.cache.get_or_insert(&key, fingerprint, epoch, || {
            let parsed;
            let q = match src {
                Source::Ast(q) => q,
                Source::Text(sql) => {
                    self.parses.fetch_add(1, AtomicOrdering::Relaxed);
                    let _span = sql_obs().parse.time();
                    parsed = crate::parser::parse_query(sql)?;
                    &parsed
                }
            };
            let _span = sql_obs().plan.time();
            let stats = db.map(Database::stats);
            plan_query(q, schema, stats.as_deref().zip(opts.as_ref()))
        })?;
        Ok(PreparedSql { plan, fingerprint })
    }

    /// Execute a query string (parse + plan + execute). Compatibility shim
    /// over [`SqlEngine::prepare`]; repeated calls with the same text and
    /// schema hit the plan cache.
    pub fn run_sql(&self, sql: &str, db: &Database) -> Result<ResultSet> {
        self.prepare(sql, &db.schema)?.execute(db)
    }

    /// Evaluate a DML statement against `db` into the physical
    /// [`DmlOp`] it denotes, without modifying anything: cost-based plan
    /// (WHERE clauses may use index probes, like reads) followed by the
    /// vectorized executor. The caller decides what to do with the op —
    /// apply it directly ([`Database::apply_op`]) or journal it first
    /// (`nli_core::Store::commit`).
    pub fn compute_dml_op(&self, stmt: &Statement, db: &Database) -> Result<DmlOp> {
        let _span = sql_obs().dml.time();
        crate::vexec::compute_dml(&self.plan_dml_on(stmt, db)?, db)
    }

    /// Cost-based DML plan over `db`'s statistics and index policy. An
    /// INSERT scans nothing, so it is planned without statistics: the
    /// write before it dropped its table's views, and rebuilding them here
    /// would cost a columnar pass and a `TableStats` per INSERT.
    fn plan_dml_on(&self, stmt: &Statement, db: &Database) -> Result<DmlPlan> {
        if let Statement::Insert(_) = stmt {
            return plan_dml(stmt, &db.schema, None);
        }
        plan_dml(
            stmt,
            &db.schema,
            Some((&db.stats(), &self.index_options(db))),
        )
    }

    /// `EXPLAIN` for an arbitrary statement: a SELECT renders its prepared
    /// plan ([`PreparedSql::explain`]); DML renders the operator tree the
    /// op computation will execute — an UPDATE/DELETE shows the same
    /// Scan/IndexScan leaf a read with that WHERE clause would use.
    pub fn explain_statement(&self, sql: &str, db: &Database) -> Result<String> {
        let stmt = crate::parser::parse_statement(sql)?;
        match &stmt {
            Statement::Select(q) => Ok(self.prepare_ast_on(q, db)?.explain()),
            _ => Ok(crate::explain::render_dml_plan(
                &self.plan_dml_on(&stmt, db)?,
                &db.schema,
            )),
        }
    }

    /// Parse and run one statement. A SELECT goes through the ordinary
    /// prepared pipeline (cost-based, plan-cached) and yields
    /// [`StatementResult::Rows`]; DML computes its op and applies it to
    /// `db` in place, yielding [`StatementResult::Affected`]. Durable
    /// deployments journal instead — see `nli_core::Store::commit`.
    pub fn run_statement(&self, sql: &str, db: &mut Database) -> Result<StatementResult> {
        let stmt = crate::parser::parse_statement(sql)?;
        match &stmt {
            Statement::Select(q) => {
                let rs = self.prepare_ast_on(q, db)?.execute(db)?;
                Ok(StatementResult::Rows(rs))
            }
            _ => {
                let op = self.compute_dml_op(&stmt, db)?;
                let n = db.apply_op(&op)?;
                Ok(StatementResult::Affected(n))
            }
        }
    }

    /// Plan-cache effectiveness counters for this engine.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// How many times [`SqlEngine::prepare`] actually invoked the parser.
    pub fn parse_count(&self) -> u64 {
        self.parses.load(AtomicOrdering::Relaxed)
    }
}

impl Default for SqlEngine {
    fn default() -> Self {
        SqlEngine::new()
    }
}

impl ExecutionEngine for SqlEngine {
    type Expr = Query;
    type Output = ResultSet;

    fn execute(&self, expr: &Query, db: &Database) -> Result<ResultSet> {
        self.prepare_ast(expr, &db.schema)?.execute(db)
    }
}

pub(crate) fn exec_plan(plan: &QueryPlan, db: &Database) -> Result<ResultSet> {
    exec_plan_profiled(plan, db, None)
}

/// Start a stage timer only when profiling.
pub(crate) fn tick(profiling: bool) -> Option<Instant> {
    profiling.then(Instant::now)
}

/// Elapsed µs since [`tick`], 0 when not profiling.
pub(crate) fn tock(start: Option<Instant>) -> u64 {
    start.map_or(0, |s| s.elapsed().as_micros() as u64)
}

pub(crate) fn exec_plan_profiled(
    plan: &QueryPlan,
    db: &Database,
    mut prof: Option<&mut PlanProfile>,
) -> Result<ResultSet> {
    let left =
        crate::vexec::exec_select(&plan.select, db, prof.as_deref_mut().map(|p| &mut p.select))?;
    match &plan.compound {
        Some((op, rhs)) => {
            let mut rhs_prof = prof.is_some().then(PlanProfile::default);
            let right = exec_plan_profiled(rhs, db, rhs_prof.as_mut())?;
            let start = tick(prof.is_some());
            let rows_in = left.rows.len() + right.rows.len();
            let merged = apply_set_op(left, *op, right)?;
            if let Some(p) = prof {
                let mut st = OpStats::flow(rows_in, merged.rows.len());
                st.wall_micros = tock(start);
                p.set_op = Some(st);
                p.compound = rhs_prof.map(Box::new);
            }
            Ok(merged)
        }
        None => Ok(left),
    }
}

/// Apply a set operator. The arity check is deliberately lenient — it only
/// fires when both sides produced rows — matching the reference
/// interpreter.
pub(crate) fn apply_set_op(mut left: ResultSet, op: SetOp, right: ResultSet) -> Result<ResultSet> {
    if !left.rows.is_empty() && !right.rows.is_empty() && left.columns.len() != right.columns.len()
    {
        return Err(NliError::Execution(format!(
            "{} arity mismatch: {} vs {}",
            op.name(),
            left.columns.len(),
            right.columns.len()
        )));
    }
    let mut set: Vec<Vec<Value>> = Vec::new();
    let key = |r: &[Value]| canonical_row(r);
    match op {
        SetOp::Union => {
            let mut seen = std::collections::HashSet::new();
            for row in left.rows.into_iter().chain(right.rows) {
                if seen.insert(key(&row)) {
                    set.push(row);
                }
            }
        }
        SetOp::Intersect => {
            let rkeys: std::collections::HashSet<_> = right.rows.iter().map(|r| key(r)).collect();
            let mut seen = std::collections::HashSet::new();
            for row in left.rows {
                let k = key(&row);
                if rkeys.contains(&k) && seen.insert(k) {
                    set.push(row);
                }
            }
        }
        SetOp::Except => {
            let rkeys: std::collections::HashSet<_> = right.rows.iter().map(|r| key(r)).collect();
            let mut seen = std::collections::HashSet::new();
            for row in left.rows {
                let k = key(&row);
                if !rkeys.contains(&k) && seen.insert(k) {
                    set.push(row);
                }
            }
        }
    }
    left.rows = set;
    left.ordered = false; // set ops discard ordering
    Ok(left)
}

/// Replace compiled subquery plans with their materialized values for one
/// database. Recursion mirrors the reference interpreter exactly: only
/// `AND`/`OR`/comparison trees, `NOT`, and `BETWEEN` are descended.
pub(crate) fn materialize_subplans(e: &PlanExpr, db: &Database) -> Result<PlanExpr> {
    Ok(match e {
        PlanExpr::InPlan {
            expr,
            plan,
            negated,
        } => {
            let rs = exec_plan(plan, db)?;
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
            PlanExpr::InList {
                expr: Box::new(materialize_subplans(expr, db)?),
                list: list.collect(),
                negated: *negated,
            }
        }
        PlanExpr::ScalarPlan(plan) => {
            let rs = exec_plan(plan, db)?;
            let v = rs
                .rows
                .first()
                .and_then(|r| r.first())
                .cloned()
                .unwrap_or(Value::Null);
            PlanExpr::Literal(v)
        }
        PlanExpr::Binary { left, op, right } => PlanExpr::Binary {
            left: Box::new(materialize_subplans(left, db)?),
            op: *op,
            right: Box::new(materialize_subplans(right, db)?),
        },
        PlanExpr::Not(inner) => PlanExpr::Not(Box::new(materialize_subplans(inner, db)?)),
        PlanExpr::Between {
            expr,
            low,
            high,
            negated,
        } => PlanExpr::Between {
            expr: Box::new(materialize_subplans(expr, db)?),
            low: Box::new(materialize_subplans(low, db)?),
            high: Box::new(materialize_subplans(high, db)?),
            negated: *negated,
        },
        other => other.clone(),
    })
}

/// Truthiness of a predicate value: only `Bool(true)` passes (NULL and
/// everything else fails, per SQL three-valued logic).
pub(crate) fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// Fold already-collected non-NULL aggregate inputs. This is the shared
/// aggregate body: the vectorized executor's typed fast paths reproduce
/// it for Int/Float columns, and every other case funnels through here.
pub(crate) fn agg_from_values(
    func: AggFunc,
    mut vals: Vec<Value>,
    distinct: bool,
) -> Result<Value> {
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

pub(crate) fn eval_binary(l: &Value, op: BinOp, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        And | Or => {
            let lb = as_tribool(l)?;
            let rb = as_tribool(r)?;
            Ok(match (op, lb, rb) {
                (And, Some(false), _) | (And, _, Some(false)) => Value::Bool(false),
                (And, Some(true), Some(true)) => Value::Bool(true),
                (Or, Some(true), _) | (Or, _, Some(true)) => Value::Bool(true),
                (Or, Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            })
        }
        Eq | Neq | Lt | Le | Gt | Ge => {
            let cmp = match l.compare(r) {
                Some(c) => c,
                None => {
                    // NULL operand → NULL; genuinely incomparable types are
                    // simply unequal (so `=` is false, `!=` true).
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    return Ok(match op {
                        Eq => Value::Bool(false),
                        Neq => Value::Bool(true),
                        _ => Value::Null,
                    });
                }
            };
            let b = match op {
                Eq => cmp == Ordering::Equal,
                Neq => cmp != Ordering::Equal,
                Lt => cmp == Ordering::Less,
                Le => cmp != Ordering::Greater,
                Gt => cmp == Ordering::Greater,
                Ge => cmp != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(NliError::Execution(format!(
                        "arithmetic on non-numeric operands: {l} {} {r}",
                        op.symbol()
                    )))
                }
            };
            let both_int = matches!(l, Value::Int(_)) && matches!(r, Value::Int(_)) && op != Div;
            let x = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Ok(Value::Null); // SQLite: division by zero is NULL
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(if both_int {
                Value::Int(x as i64)
            } else {
                Value::Float(x)
            })
        }
    }
}

pub(crate) fn as_tribool(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(NliError::Execution(format!(
            "expected boolean, got {other}"
        ))),
    }
}

/// SQL `NOT` over one value: NULL stays NULL, anything but a boolean is
/// an error.
pub(crate) fn eval_not(v: Value) -> Result<Value> {
    match v {
        Value::Bool(b) => Ok(Value::Bool(!b)),
        Value::Null => Ok(Value::Null),
        other => Err(NliError::Execution(format!("NOT applied to {other}"))),
    }
}

/// SQL LIKE with `%` (any run) and `_` (one char), case-insensitive.
pub(crate) fn like_match(pattern: &str, text: &str) -> bool {
    LikePattern::new(pattern).matches(text)
}

/// A LIKE pattern lower-cased once, for matching many texts.
pub(crate) struct LikePattern(Vec<char>);

impl LikePattern {
    pub(crate) fn new(pattern: &str) -> Self {
        LikePattern(pattern.to_lowercase().chars().collect())
    }

    /// Iterative wildcard match in O(|pattern| · |text|): on a mismatch it
    /// backtracks only to the most recent `%`, which then absorbs one more
    /// character. Earlier `%`s never need revisiting, because the latest
    /// one can already absorb anything they could.
    pub(crate) fn matches(&self, text: &str) -> bool {
        let p = &self.0;
        let t: Vec<char> = text.to_lowercase().chars().collect();
        let (mut pi, mut ti) = (0, 0);
        // (pattern index after the latest `%`, text index it resumes at)
        let mut resume: Option<(usize, usize)> = None;
        while ti < t.len() {
            if pi < p.len() && p[pi] == '%' {
                pi += 1;
                resume = Some((pi, ti));
            } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
                pi += 1;
                ti += 1;
            } else if let Some((rp, rt)) = resume {
                pi = rp;
                ti = rt + 1;
                resume = Some((rp, ti));
            } else {
                return false;
            }
        }
        p[pi..].iter().all(|&c| c == '%')
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_core::{Column, DataType, Date, Schema, Table};

    /// The Fig. 2 sales database, plus a disconnected stores table.
    fn sales_db() -> Database {
        let mut schema = Schema::new(
            "sales_db",
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
                        Column::new("sold_on", DataType::Date),
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
                vec![1.into(), "Widget".into(), "Tools".into(), 9.5.into()],
                vec![2.into(), "Gadget".into(), "Tools".into(), 19.0.into()],
                vec![3.into(), "Doohickey".into(), "Toys".into(), 4.25.into()],
            ],
        )
        .unwrap();
        db.insert_all(
            "sales",
            vec![
                vec![
                    1.into(),
                    1.into(),
                    100.0.into(),
                    Date::new(2024, 1, 15).into(),
                ],
                vec![
                    2.into(),
                    1.into(),
                    150.0.into(),
                    Date::new(2024, 2, 20).into(),
                ],
                vec![
                    3.into(),
                    2.into(),
                    200.0.into(),
                    Date::new(2024, 4, 2).into(),
                ],
                vec![
                    4.into(),
                    3.into(),
                    50.0.into(),
                    Date::new(2024, 4, 9).into(),
                ],
                vec![
                    5.into(),
                    Value::Null,
                    75.0.into(),
                    Date::new(2024, 5, 1).into(),
                ],
            ],
        )
        .unwrap();
        db
    }

    fn run(sql: &str) -> ResultSet {
        SqlEngine::new().run_sql(sql, &sales_db()).unwrap()
    }

    #[test]
    fn select_star() {
        let r = run("SELECT * FROM products");
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.columns, vec!["id", "name", "category", "price"]);
    }

    #[test]
    fn where_filtering() {
        let r = run("SELECT name FROM products WHERE price > 5");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn count_star_and_count_column() {
        let r = run("SELECT COUNT(*) FROM sales");
        assert_eq!(r.rows[0][0], Value::Int(5));
        // COUNT(col) skips NULLs
        let r = run("SELECT COUNT(product_id) FROM sales");
        assert_eq!(r.rows[0][0], Value::Int(4));
    }

    #[test]
    fn group_by_with_aggregates() {
        let r = run("SELECT category, SUM(price) FROM products GROUP BY category");
        let rows = r.canonical_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&vec!["Tools".to_string(), "28.5".to_string()]));
        assert!(rows.contains(&vec!["Toys".to_string(), "4.25".to_string()]));
    }

    #[test]
    fn having_filters_groups() {
        let r = run("SELECT category FROM products GROUP BY category HAVING COUNT(*) > 1");
        assert_eq!(r.rows, vec![vec![Value::from("Tools")]]);
    }

    #[test]
    fn join_on_fk() {
        let r = run(
            "SELECT products.name, sales.amount FROM sales JOIN products \
             ON sales.product_id = products.id",
        );
        assert_eq!(r.rows.len(), 4, "NULL product_id must not join");
    }

    #[test]
    fn join_grouped_revenue_by_category() {
        let r = run(
            "SELECT products.category, SUM(sales.amount) FROM sales JOIN products \
             ON sales.product_id = products.id GROUP BY products.category \
             ORDER BY SUM(sales.amount) DESC",
        );
        assert_eq!(
            r.canonical_rows(),
            vec![
                vec!["Tools".to_string(), "450".to_string()],
                vec!["Toys".to_string(), "50".to_string()],
            ]
        );
        assert!(r.ordered);
        assert_eq!(r.rows[0][0], Value::from("Tools"));
    }

    #[test]
    fn comma_from_with_where_equijoin_matches_explicit_join() {
        let a =
            run("SELECT products.name FROM sales JOIN products ON sales.product_id = products.id");
        let b =
            run("SELECT products.name FROM sales, products WHERE sales.product_id = products.id");
        assert!(a.same_result(&b));
    }

    #[test]
    fn order_by_and_limit() {
        let r = run("SELECT name FROM products ORDER BY price DESC LIMIT 2");
        assert_eq!(
            r.rows,
            vec![vec![Value::from("Gadget")], vec![Value::from("Widget")]]
        );
    }

    #[test]
    fn distinct() {
        let r = run("SELECT DISTINCT category FROM products");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn like_patterns() {
        let r = run("SELECT name FROM products WHERE name LIKE '%get%'");
        assert_eq!(r.rows.len(), 2); // Widget, Gadget
        let r = run("SELECT name FROM products WHERE name LIKE '_adget'");
        assert_eq!(r.rows, vec![vec![Value::from("Gadget")]]);
        let r = run("SELECT name FROM products WHERE name NOT LIKE '%e%'");
        assert_eq!(r.rows.len(), 0);
    }

    /// The recursive matcher the iterative one replaced, kept as the
    /// reference: it tries every split at every `%`, so its running time
    /// grows exponentially with the number of `%`s.
    fn like_reference(pattern: &str, text: &str) -> bool {
        fn rec(p: &[char], t: &[char]) -> bool {
            match p.first() {
                None => t.is_empty(),
                Some('%') => (0..=t.len()).any(|k| rec(&p[1..], &t[k..])),
                Some('_') => !t.is_empty() && rec(&p[1..], &t[1..]),
                Some(&c) => !t.is_empty() && t[0] == c && rec(&p[1..], &t[1..]),
            }
        }
        let p: Vec<char> = pattern.to_lowercase().chars().collect();
        let t: Vec<char> = text.to_lowercase().chars().collect();
        rec(&p, &t)
    }

    proptest::proptest! {
        /// Short strings over an alphabet with both wildcards, case pairs,
        /// and `İ`, whose lower-case form is two `char`s.
        #[test]
        fn like_agrees_with_the_recursive_reference(
            pattern in "[aAbi%_\u{130}]{0,8}",
            text in "[aAbi%_\u{130}]{0,10}",
        ) {
            proptest::prop_assert_eq!(
                like_match(&pattern, &text),
                like_reference(&pattern, &text),
                "pattern {:?} text {:?}", pattern, text
            );
        }
    }

    #[test]
    fn like_stays_fast_on_many_wildcards() {
        // The recursive reference needs over 5 s for this in a debug build.
        let text = "a".repeat(40);
        let pattern = format!("{}%b", "%a".repeat(8));
        let start = std::time::Instant::now();
        assert!(!like_match(&pattern, &text));
        assert!(like_match(&pattern.replace('b', "a"), &text));
        let took = start.elapsed();
        assert!(
            took < std::time::Duration::from_millis(50),
            "LIKE took {took:?}"
        );
    }

    #[test]
    fn between_and_in_list() {
        let r = run("SELECT name FROM products WHERE price BETWEEN 5 AND 10");
        assert_eq!(r.rows, vec![vec![Value::from("Widget")]]);
        let r = run("SELECT name FROM products WHERE category IN ('Toys', 'Food')");
        assert_eq!(r.rows, vec![vec![Value::from("Doohickey")]]);
        let r = run("SELECT name FROM products WHERE category NOT IN ('Toys')");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn in_subquery() {
        let r = run("SELECT name FROM products WHERE id IN \
             (SELECT product_id FROM sales WHERE amount > 120)");
        let names = r.canonical_rows();
        assert_eq!(
            names,
            vec![vec!["Gadget".to_string()], vec!["Widget".to_string()]]
        );
    }

    #[test]
    fn scalar_subquery() {
        let r = run("SELECT name FROM products WHERE price = (SELECT MAX(price) FROM products)");
        assert_eq!(r.rows, vec![vec![Value::from("Gadget")]]);
    }

    #[test]
    fn set_operations() {
        let db = sales_db();
        let e = SqlEngine::new();
        let union = e
            .run_sql(
                "SELECT category FROM products UNION SELECT name FROM products",
                &db,
            )
            .unwrap();
        assert_eq!(union.rows.len(), 5); // 2 categories + 3 names
        let intersect = e
            .run_sql(
                "SELECT id FROM products INTERSECT SELECT product_id FROM sales",
                &db,
            )
            .unwrap();
        assert_eq!(intersect.rows.len(), 3);
        let except = e
            .run_sql(
                "SELECT id FROM products EXCEPT SELECT product_id FROM sales WHERE amount > 120",
                &db,
            )
            .unwrap();
        assert_eq!(except.rows.len(), 1); // only product 3
    }

    #[test]
    fn null_semantics_in_where() {
        // NULL product_id row must not satisfy either branch.
        let pos = run("SELECT COUNT(*) FROM sales WHERE product_id = 1");
        let neg = run("SELECT COUNT(*) FROM sales WHERE product_id != 1");
        let total = run("SELECT COUNT(*) FROM sales");
        assert_eq!(pos.rows[0][0], Value::Int(2));
        assert_eq!(neg.rows[0][0], Value::Int(2));
        assert_eq!(total.rows[0][0], Value::Int(5));
        let isnull = run("SELECT COUNT(*) FROM sales WHERE product_id IS NULL");
        assert_eq!(isnull.rows[0][0], Value::Int(1));
    }

    #[test]
    fn avg_and_min_max() {
        let r = run("SELECT AVG(price), MIN(price), MAX(price) FROM products");
        assert_eq!(r.rows[0][1], Value::Float(4.25));
        assert_eq!(r.rows[0][2], Value::Float(19.0));
        match &r.rows[0][0] {
            Value::Float(f) => assert!((f - 10.916_666_666_666_666).abs() < 1e-9),
            other => panic!("avg not float: {other:?}"),
        }
    }

    #[test]
    fn aggregates_over_empty_input() {
        let r = run("SELECT COUNT(*), SUM(price), MAX(price) FROM products WHERE price > 100");
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert!(r.rows[0][1].is_null());
        assert!(r.rows[0][2].is_null());
    }

    #[test]
    fn empty_group_by_produces_no_rows() {
        let r = run("SELECT category, COUNT(*) FROM products WHERE price > 100 GROUP BY category");
        assert!(r.rows.is_empty());
    }

    #[test]
    fn arithmetic_in_projection() {
        let r = run("SELECT price * 2 FROM products WHERE id = 1");
        assert_eq!(r.rows[0][0], Value::Float(19.0));
        let r = run("SELECT id + 1 FROM products WHERE id = 1");
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn division_by_zero_is_null() {
        let r = run("SELECT price / 0 FROM products WHERE id = 1");
        assert!(r.rows[0][0].is_null());
    }

    #[test]
    fn date_comparison() {
        let r = run("SELECT COUNT(*) FROM sales WHERE sold_on >= '2024-04-01'");
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn execution_errors_surface() {
        let e = SqlEngine::new();
        let db = sales_db();
        assert!(e.run_sql("SELECT x FROM products", &db).is_err());
        assert!(e.run_sql("SELECT name FROM nope", &db).is_err());
        assert!(e.run_sql("SELECT SUM(name) FROM products", &db).is_err());
        assert!(e
            .run_sql("SELECT id FROM products WHERE name + 1 = 2", &db)
            .is_err());
        // ambiguous unqualified column across joined tables
        assert!(e
            .run_sql(
                "SELECT id FROM products JOIN sales ON sales.product_id = products.id",
                &db
            )
            .is_err());
    }

    #[test]
    fn result_set_comparison_semantics() {
        let a = ResultSet {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            ordered: false,
        };
        let b = ResultSet {
            columns: vec!["y".into()],
            rows: vec![vec![Value::Int(2)], vec![Value::Int(1)]],
            ordered: false,
        };
        assert!(a.same_result(&b), "unordered results compare as multisets");
        let c = ResultSet {
            ordered: true,
            ..b.clone()
        };
        assert!(!a.same_result(&c), "ordered comparison is positional");
        // the precomputed form must reach the same verdicts in both
        // directions and both orderedness regimes
        for (x, y) in [(&a, &b), (&b, &a), (&a, &c), (&c, &a), (&c, &c)] {
            assert_eq!(x.same_result(y), x.matches_canonical(&y.to_canonical()));
        }
    }

    #[test]
    fn count_distinct_execution() {
        let r = run("SELECT COUNT(DISTINCT category) FROM products");
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn union_arity_mismatch_errors() {
        let e = SqlEngine::new();
        let db = sales_db();
        assert!(e
            .run_sql(
                "SELECT id, name FROM products UNION SELECT id FROM products",
                &db
            )
            .is_err());
    }

    // ---- prepared-pipeline tests ------------------------------------------

    /// Operator-level check: a hand-built hash-join step (sales ⋈ products
    /// on product_id = id) joins exactly the matching rows and drops NULL
    /// keys on both sides.
    #[test]
    fn hash_join_operator_joins_matching_rows() {
        use crate::plan::{JoinKind, ScanNode, SelectPlan};
        let p = SelectPlan {
            scans: vec![
                ScanNode {
                    table: 1,
                    table_name: "sales".into(),
                    offset: 0,
                    width: 4,
                    filter: None,
                    est_rows: None,
                    index: None,
                },
                ScanNode {
                    table: 0,
                    table_name: "products".into(),
                    offset: 4,
                    width: 4,
                    filter: None,
                    est_rows: None,
                    index: None,
                },
            ],
            joins: vec![JoinKind::Hash {
                probe_off: 1,
                build_col: 0,
            }],
            residual: None,
            aggregate: false,
            group_by: Vec::new(),
            having: None,
            star: true,
            items: vec![PlanExpr::Star],
            columns: (0..8).map(|i| format!("c{i}")).collect(),
            joined_columns: (0..8).map(|i| format!("c{i}")).collect(),
            order_by: Vec::new(),
            distinct: false,
            limit: None,
        };
        let rs = crate::vexec::exec_select(&p, &sales_db(), None).unwrap();
        assert_eq!(
            rs.rows.len(),
            4,
            "4 sales match a product; the NULL key joins nothing"
        );
        for row in &rs.rows {
            assert_eq!(row.len(), 8);
            assert_eq!(
                row[1].canonical(),
                row[4].canonical(),
                "every joined row must satisfy the equi-join key"
            );
        }
    }

    /// The acceptance property of the plan cache: one parse + one plan per
    /// (query text, schema fingerprint), however many databases the
    /// statement runs against.
    #[test]
    fn prepared_cache_parses_once_per_query_and_schema() {
        let engine = SqlEngine::new();
        let db = sales_db();
        let sql = "SELECT name FROM products WHERE price > 5";
        let baseline = run(sql);
        for _ in 0..32 {
            let r = engine.run_sql(sql, &db).unwrap();
            assert!(r.same_result(&baseline));
        }
        assert_eq!(
            engine.parse_count(),
            1,
            "32 executions must share one parse"
        );
        let s = engine.cache_stats();
        assert_eq!((s.misses, s.hits), (1, 31));

        // A structurally different schema is a different cache key: the
        // same text re-parses exactly once more.
        let mut wide_schema = db.schema.clone();
        wide_schema.tables[1]
            .columns
            .push(Column::new("channel", DataType::Text));
        let mut wide_db = Database::empty(wide_schema);
        wide_db.insert_all("products", db.rows(0).to_vec()).unwrap();
        engine.run_sql(sql, &wide_db).unwrap();
        assert_eq!(
            engine.parse_count(),
            2,
            "schema change must invalidate by key miss"
        );
    }

    #[test]
    fn auto_index_policy_gates_probes_and_splits_the_cache_key() {
        let db = sales_db();
        let sql = "SELECT name FROM products WHERE id = 2";

        let on = SqlEngine::new();
        let p = on.prepare_on(sql, &db).unwrap();
        assert!(
            p.plan().select.scans[0].index.is_some(),
            "auto-index on: selective eq must probe"
        );

        let off = SqlEngine::new().with_auto_index(false);
        let p = off.prepare_on(sql, &db).unwrap();
        assert!(
            p.plan().select.scans[0].index.is_none(),
            "auto-index off with nothing declared: full scan"
        );
        // The two policies must not share one cached plan: preparing with
        // the opposite policy on the same engine is a fresh cache miss.
        off.auto_index.store(true, AtomicOrdering::Relaxed);
        let p = off.prepare_on(sql, &db).unwrap();
        assert!(p.plan().select.scans[0].index.is_some());
        assert_eq!(off.cache_stats().misses, 2);

        // Declaring the index brings the probe back under auto-off, via a
        // stats-epoch bump rather than a cache-key marker.
        let mut db = db;
        let off = SqlEngine::new().with_auto_index(false);
        assert!(off.create_index(&mut db, "products", "id").unwrap());
        let p = off.prepare_on(sql, &db).unwrap();
        assert!(
            p.plan().select.scans[0].index.is_some(),
            "declared index qualifies with auto off"
        );
        // Results are identical either way.
        let want = run(sql);
        assert!(p.execute(&db).unwrap().same_result(&want));
    }

    #[test]
    fn prepare_surfaces_binding_errors_before_execution() {
        let engine = SqlEngine::new();
        let schema = sales_db().schema;
        assert!(engine
            .prepare("SELECT nope FROM products", &schema)
            .is_err());
        assert!(engine.prepare("SELECT name FROM nowhere", &schema).is_err());
        // errors are not cached: both attempts parse
        assert_eq!(engine.parse_count(), 2);
    }

    #[test]
    fn prepared_statement_rejects_mismatched_schema() {
        let engine = SqlEngine::new();
        let db = sales_db();
        let prepared = engine
            .prepare("SELECT name FROM products", &db.schema)
            .unwrap();
        assert_eq!(prepared.columns(), ["name"]);

        let other = Database::empty(Schema::new(
            "other",
            vec![Table::new(
                "products",
                vec![Column::new("name", DataType::Text)],
            )],
        ));
        let err = prepared.execute(&other).unwrap_err();
        assert!(matches!(err, NliError::Execution(_)));
        // against the right database it runs fine
        let rs = prepared.execute(&db).unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    // ---- set-operation edge cases -----------------------------------------

    #[test]
    fn set_op_arity_check_skips_empty_sides() {
        let e = SqlEngine::new();
        let db = sales_db();
        // Left side is empty: the lenient runtime check must not fire even
        // though the arities (2 vs 1) disagree.
        let r = e
            .run_sql(
                "SELECT id, name FROM products WHERE price > 100 UNION SELECT id FROM products",
                &db,
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        // Same mismatch with the right side empty.
        let r = e
            .run_sql(
                "SELECT id, name FROM products UNION SELECT id FROM products WHERE price > 100",
                &db,
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn set_ops_reset_the_ordered_flag() {
        let r = run("SELECT id FROM products ORDER BY id UNION SELECT id FROM products");
        assert!(
            !r.ordered,
            "set ops discard ordering even with an inner ORDER BY"
        );
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn set_ops_eliminate_duplicates() {
        // UNION dedups across sides...
        let r = run("SELECT category FROM products UNION SELECT category FROM products");
        assert_eq!(r.rows.len(), 2);
        // ...INTERSECT and EXCEPT dedup within the left side.
        let r = run("SELECT category FROM products INTERSECT SELECT category FROM products");
        assert_eq!(r.rows.len(), 2, "duplicate 'Tools' rows must collapse");
        let r = run("SELECT category FROM products EXCEPT SELECT name FROM products");
        assert_eq!(r.rows.len(), 2);
    }

    // -- DML ----------------------------------------------------------------

    fn affected(r: StatementResult) -> u64 {
        match r {
            StatementResult::Affected(n) => n,
            StatementResult::Rows(_) => panic!("expected an affected count"),
        }
    }

    #[test]
    fn insert_update_delete_round_trip() {
        let engine = SqlEngine::new();
        let mut db = sales_db();
        let n = affected(
            engine
                .run_statement(
                    "INSERT INTO products VALUES (4, 'Gizmo', 'Toys', 12.5), \
                     (5, 'Sprocket', 'Tools', 3.0)",
                    &mut db,
                )
                .unwrap(),
        );
        assert_eq!(n, 2);
        assert_eq!(db.rows_of("products").unwrap().len(), 5);

        let n = affected(
            engine
                .run_statement(
                    "UPDATE products SET price = price * 2 WHERE category = 'Toys'",
                    &mut db,
                )
                .unwrap(),
        );
        assert_eq!(n, 2, "Doohickey and Gizmo");
        let r = engine
            .run_sql("SELECT price FROM products WHERE name = 'Gizmo'", &db)
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Float(25.0)]]);

        let n = affected(
            engine
                .run_statement("DELETE FROM products WHERE price < 10", &mut db)
                .unwrap(),
        );
        assert_eq!(
            n, 3,
            "Widget (9.5), doubled Doohickey (8.5), Sprocket (3.0)"
        );
        assert_eq!(db.rows_of("products").unwrap().len(), 2);
    }

    #[test]
    fn insert_with_column_list_null_fills_the_rest() {
        let engine = SqlEngine::new();
        let mut db = sales_db();
        engine
            .run_statement(
                "INSERT INTO products (id, name) VALUES (9, 'Bare')",
                &mut db,
            )
            .unwrap();
        let row = db.rows_of("products").unwrap().last().unwrap().clone();
        assert_eq!(row, vec![9.into(), "Bare".into(), Value::Null, Value::Null]);
    }

    #[test]
    fn set_sees_the_pre_update_row() {
        let engine = SqlEngine::new();
        let schema = Schema::new(
            "pairs",
            vec![Table::new(
                "t",
                vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Int),
                ],
            )],
        );
        let mut db = Database::empty(schema);
        db.insert("t", vec![1.into(), 2.into()]).unwrap();
        engine
            .run_statement("UPDATE t SET a = b, b = a", &mut db)
            .unwrap();
        assert_eq!(db.rows_of("t").unwrap()[0], vec![2.into(), 1.into()]);
    }

    #[test]
    fn dml_statements_surface_validation_errors_without_mutating() {
        let engine = SqlEngine::new();
        let mut db = sales_db();
        let before = db.rows_of("products").unwrap().to_vec();
        // Type error in the second row: nothing from the statement lands.
        let err = engine
            .run_statement(
                "INSERT INTO products VALUES (7, 'A', 'T', 1.0), (8, 'B', 'T', 'oops')",
                &mut db,
            )
            .unwrap_err();
        assert!(err.to_string().contains("expects"), "{err}");
        assert_eq!(db.rows_of("products").unwrap(), &before[..]);
        // Planner guards: duplicate SET column, aggregate in WHERE.
        assert!(engine
            .run_statement("UPDATE products SET price = 1.0, price = 2.0", &mut db)
            .is_err());
        assert!(engine
            .run_statement("DELETE FROM products WHERE COUNT(*) > 1", &mut db)
            .is_err());
        assert_eq!(db.rows_of("products").unwrap(), &before[..]);
    }

    #[test]
    fn tree_walk_and_planned_legs_compute_identical_ops() {
        let engine = SqlEngine::new();
        let db = sales_db();
        for sql in [
            "INSERT INTO sales (id, product_id, amount) VALUES (9, 2, 10.0)",
            "UPDATE products SET price = price + 1 WHERE id IN (SELECT product_id FROM sales WHERE amount > 120)",
            "DELETE FROM sales WHERE amount BETWEEN 60 AND 160",
            "UPDATE products SET category = 'Misc' WHERE name LIKE '%get'",
            "DELETE FROM products WHERE id = 2",
        ] {
            let stmt = crate::parser::parse_statement(sql).unwrap();
            let planned = engine.compute_dml_op(&stmt, &db).unwrap();
            let walked = crate::interp::compute_dml_tree_walk(&stmt, &db).unwrap();
            assert_eq!(planned, walked, "legs disagree on {sql}");
        }
    }

    #[test]
    fn explain_statement_covers_dml() {
        let engine = SqlEngine::new();
        let mut db = sales_db();
        db.create_index("products", "id").unwrap();
        let text = engine
            .explain_statement("DELETE FROM products WHERE id = 2", &db)
            .unwrap();
        assert!(text.starts_with("Delete products"), "{text}");
        assert!(text.contains("IndexEqScan"), "{text}");
        let text = engine
            .explain_statement(
                "UPDATE products SET price = 0.0 WHERE category = 'Toys'",
                &db,
            )
            .unwrap();
        assert!(text.contains("Update products set=[price = 0]"), "{text}");
        assert!(text.contains("filter="), "{text}");
    }
}
