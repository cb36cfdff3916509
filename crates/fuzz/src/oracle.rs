//! The two oracle families, plus the bug injector used by negative tests.
//!
//! **Differential** (`check_differential`): three independent execution
//! paths run the same query on the same database —
//!
//! 1. the reference tree-walk interpreter ([`run_tree_walk`]),
//! 2. the planned pipeline via a shared, cached [`SqlEngine`]
//!    (`prepare_ast_on` → execute: stats-aware, so cost-based join
//!    ordering and strategy choice are under test, with the plan cache
//!    exercised at whatever worker count the batch runs at), and
//! 3. a *reparse* leg: the query is printed to canonical SQL, re-parsed,
//!    and prepared from text by a fresh engine with rule-based planning
//!    (so the parse actually happens instead of aliasing into the shared
//!    plan cache, and the default plan shape stays covered too).
//!
//! All three must agree: same error-ness, and for `Ok` results the same
//! [`nli_sql::CanonicalResult`]. The reparse leg compares *executions*,
//! not ASTs —
//! printing `12.0` as `12` legitimately reparses to an integer literal.
//!
//! **Metamorphic** (`check_metamorphic`): each eligible [`Rule`] rewrite
//! must preserve results under the rule's [`CompareMode`].

use crate::fuzz_obs;
use crate::gen::DmlCase;
use crate::rewrite::{apply_rule, CompareMode, Rule};
use nli_core::obs::span;
use nli_core::{Database, FailpointFs, Store};
use nli_sql::ast::{BinOp, Expr, Query, Statement};
use nli_sql::interp::run_tree_walk;
use nli_sql::parser::{parse_query, parse_statement};
use nli_sql::{compute_dml_tree_walk, ResultSet, SqlEngine};
use std::path::Path;

/// One oracle violation: everything needed to reproduce and triage.
#[derive(Debug, Clone)]
pub struct Violation {
    pub case_index: u64,
    pub oracle: String,
    pub sql: String,
    pub detail: String,
}

/// Per-case outcome: a digest contribution plus any violations.
#[derive(Debug, Clone)]
pub struct CaseReport {
    pub index: u64,
    pub violations: Vec<Violation>,
    pub rewrites_checked: u32,
    /// Canonical text of the interpreter outcome, folded into the batch
    /// digest to detect any cross-thread nondeterminism.
    pub digest_text: String,
}

fn outcome_text(r: &Result<ResultSet, nli_core::NliError>) -> String {
    match r {
        Ok(rs) => {
            let mut s = String::from("ok:");
            if rs.ordered {
                s.push_str("ordered:");
                for row in &rs.rows {
                    for v in row {
                        s.push_str(&v.canonical());
                        s.push('|');
                    }
                    s.push(';');
                }
            } else {
                for row in rs.canonical_rows() {
                    for v in row {
                        s.push_str(&v);
                        s.push('|');
                    }
                    s.push(';');
                }
            }
            s
        }
        Err(e) => format!("err:{e}"),
    }
}

/// Run the full oracle battery for one generated case.
pub fn check_case(index: u64, q: &Query, db: &Database, engine: &SqlEngine) -> CaseReport {
    let obs = fuzz_obs();
    let _span = span!("fuzz.case");
    obs.cases.inc();

    let mut violations = Vec::new();
    let interp = {
        let _leg = span!("fuzz.leg.interp");
        run_tree_walk(q, db)
    };
    violations.extend(check_differential(index, q, db, engine, &interp));

    let mut rewrites_checked = 0;
    if let Ok(base) = &interp {
        for rule in Rule::ALL {
            // the salt ties rewrite choices to the case, replayably
            let salt = index.wrapping_mul(0x9E37_79B9).wrapping_add(rule as u64);
            if apply_rule(rule, q, &db.schema, salt).is_none() {
                continue; // rule ineligible for this query shape
            }
            rewrites_checked += 1;
            obs.rewrites.inc();
            if let Some(v) = check_metamorphic(index, q, db, engine, rule, salt, base) {
                violations.push(v);
                obs.violations.inc();
            }
        }
    }
    CaseReport {
        index,
        violations,
        rewrites_checked,
        digest_text: outcome_text(&interp),
    }
}

/// Differential oracle: interp vs planned vs reparse-from-text.
pub fn check_differential(
    index: u64,
    q: &Query,
    db: &Database,
    engine: &SqlEngine,
    interp: &Result<ResultSet, nli_core::NliError>,
) -> Vec<Violation> {
    let obs = fuzz_obs();
    let sql = q.to_string();
    // The planned leg prepares *against the database*, so the planner sees
    // table statistics and the fuzz corpus exercises cost-based join
    // ordering and strategy choice, not just the rule-based defaults.
    let planned = {
        let _leg = span!("fuzz.leg.plan");
        engine.prepare_ast_on(q, db).and_then(|p| p.execute(db))
    };
    let reparsed = {
        let _leg = span!("fuzz.leg.reparse");
        parse_query(&sql)
            .and_then(|q2| SqlEngine::new().prepare_ast(&q2, &db.schema))
            .and_then(|p| p.execute(db))
    };

    let mut out = Vec::new();
    let mut mismatch = |leg: &str, other: &Result<ResultSet, nli_core::NliError>| {
        out.push(Violation {
            case_index: index,
            oracle: format!("differential/{leg}"),
            sql: sql.clone(),
            detail: format!(
                "interp: {} ;; {leg}: {}",
                outcome_text(interp),
                outcome_text(other)
            ),
        });
        obs.violations.inc();
    };

    match (interp, &planned) {
        (Ok(a), Ok(b)) => {
            if !b.matches_canonical(&a.to_canonical()) {
                mismatch("plan", &planned);
            }
        }
        (Err(_), Err(_)) => {}
        _ => mismatch("plan", &planned),
    }
    match (interp, &reparsed) {
        (Ok(a), Ok(b)) => {
            if !b.matches_canonical(&a.to_canonical()) {
                mismatch("reparse", &reparsed);
            }
        }
        (Err(_), Err(_)) => {}
        _ => mismatch("reparse", &reparsed),
    }
    out
}

/// Metamorphic oracle for one rule. `base` is the original query's result
/// (the caller already has it). Returns `None` when the rule is
/// ineligible for `q` or the rewrite agrees.
pub fn check_metamorphic(
    index: u64,
    q: &Query,
    db: &Database,
    engine: &SqlEngine,
    rule: Rule,
    salt: u64,
    base: &ResultSet,
) -> Option<Violation> {
    let rw = apply_rule(rule, q, &db.schema, salt)?;
    let _leg = span!("fuzz.leg.metamorphic");
    let rewritten_result = engine
        .prepare_ast(&rw.rewritten, &db.schema)
        .and_then(|p| p.execute(db));
    let agree = match &rewritten_result {
        Err(_) => false,
        Ok(rb) => results_agree(base, rb, &rw.compare),
    };
    if agree {
        return None;
    }
    Some(Violation {
        case_index: index,
        oracle: format!("metamorphic/{}", rule.name()),
        sql: q.to_string(),
        detail: format!(
            "rewritten: {} ;; original: {} ;; rewritten-result: {}",
            rw.rewritten,
            outcome_text(&Ok(base.clone())),
            outcome_text(&rewritten_result),
        ),
    })
}

/// Run the DML oracle battery for one generated [`DmlCase`]: the
/// statement sequence is applied through four independent legs —
///
/// 1. **tree-walk** — `compute_dml_tree_walk` + `apply_op` (reference),
/// 2. **planned** — `SqlEngine::compute_dml_op` (cost-based WHERE
///    planning, index probes) + `apply_op`,
/// 3. **reparse** — each statement printed to canonical SQL, re-parsed,
///    and planned from the reparsed AST (execution-compared, not
///    AST-compared: `12.0` printing as `12` is legitimate),
/// 4. **persist** — the planned ops committed through a real [`Store`]
///    under `scratch/case-{index}`, reopened at the end; the recovered
///    image must match the live one cell for cell.
///
/// After the sequence, the case's probe query must agree across legs.
/// The scratch subdirectory is removed before returning.
pub fn check_dml_case(
    index: u64,
    case: &DmlCase,
    engine: &SqlEngine,
    scratch: &Path,
) -> CaseReport {
    let obs = fuzz_obs();
    let _span = span!("fuzz.dml_case");
    obs.cases.inc();

    let mut violations = Vec::new();
    let mut digest = String::from("dml:");
    let fail = |oracle: &str, sql: String, detail: String| -> Violation {
        obs.violations.inc();
        Violation {
            case_index: index,
            oracle: format!("dml/{oracle}"),
            sql,
            detail,
        }
    };

    let mut tree_db = case.db.clone();
    let mut plan_db = case.db.clone();
    let mut reparse_db = case.db.clone();
    let dir = scratch.join(format!("case-{index}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = match Store::create_with_fs(&dir, case.db.clone(), FailpointFs::unlimited()) {
        Ok(s) => Some(s),
        Err(e) => {
            violations.push(fail("persist", String::new(), format!("store create: {e}")));
            None
        }
    };

    for stmt in &case.statements {
        let sql = stmt.to_string();
        let tree = compute_dml_tree_walk(stmt, &tree_db);
        let plan = engine.compute_dml_op(stmt, &plan_db);
        let plan_ok = plan.is_ok();
        match (&tree, &plan) {
            (Ok(a), Ok(b)) => {
                if a != b {
                    violations.push(fail(
                        "differential",
                        sql.clone(),
                        format!("tree-walk op {a:?} != planned op {b:?}"),
                    ));
                }
                match (tree_db.apply_op(a), plan_db.apply_op(b)) {
                    (Ok(na), Ok(nb)) => {
                        if na != nb {
                            violations.push(fail(
                                "differential",
                                sql.clone(),
                                format!("affected {na} != {nb}"),
                            ));
                        }
                        digest.push_str(&format!("{na};"));
                    }
                    (ra, rb) => violations.push(fail(
                        "apply",
                        sql.clone(),
                        format!("computed op failed to apply: {ra:?} / {rb:?}"),
                    )),
                }
            }
            (Err(_), Err(_)) => digest.push_str("err;"),
            _ => violations.push(fail(
                "differential",
                sql.clone(),
                format!(
                    "error-ness diverged: tree-walk {} ;; planned {}",
                    tree.as_ref()
                        .map(|op| format!("ok {op:?}"))
                        .unwrap_or_else(|e| format!("err {e}")),
                    plan.as_ref()
                        .map(|op| format!("ok {op:?}"))
                        .unwrap_or_else(|e| format!("err {e}")),
                ),
            )),
        }

        // reparse leg: printed DML must parse back and execute identically
        match parse_statement(&sql) {
            Ok(stmt2) => match engine.compute_dml_op(&stmt2, &reparse_db) {
                Ok(op) => {
                    if let Err(e) = reparse_db.apply_op(&op) {
                        violations.push(fail("reparse", sql.clone(), format!("apply: {e}")));
                    } else if !plan_ok {
                        violations.push(fail(
                            "reparse",
                            sql.clone(),
                            "reparse leg succeeded where planned leg errored".to_string(),
                        ));
                    }
                }
                Err(e) => {
                    if plan_ok {
                        violations.push(fail("reparse", sql.clone(), format!("plan: {e}")));
                    }
                }
            },
            Err(e) => violations.push(fail(
                "reparse",
                sql.clone(),
                format!("printed DML failed to reparse: {e}"),
            )),
        }

        // persist leg: commit the op computed against the store's image
        if let Some(st) = &mut store {
            match engine.compute_dml_op(stmt, st.db()) {
                Ok(op) => {
                    if let Err(e) = st.commit(&op) {
                        violations.push(fail("persist", sql.clone(), format!("commit: {e}")));
                    }
                }
                Err(_) if !plan_ok => {}
                Err(e) => violations.push(fail("persist", sql.clone(), format!("plan: {e}"))),
            }
        }
    }

    // final state: every leg's tables must be cell-identical
    for (label, other) in [("reparse", &reparse_db), ("tree-walk", &tree_db)] {
        for ti in 0..plan_db.schema.tables.len() {
            if plan_db.rows(ti) != other.rows(ti) {
                violations.push(fail(
                    "final-state",
                    case.statements
                        .iter()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                        .join("; "),
                    format!(
                        "{label} leg diverged on table {}",
                        plan_db.schema.tables[ti].name
                    ),
                ));
                break;
            }
        }
    }

    // probe the mutated state differentially (error texts may differ
    // between engines; only error-ness must agree)
    let probe_ref = run_tree_walk(&case.probe, &tree_db);
    let probe_plan = engine
        .prepare_ast_on(&case.probe, &plan_db)
        .and_then(|p| p.execute(&plan_db));
    match (&probe_ref, &probe_plan) {
        (Ok(a), Ok(b)) => {
            if !b.matches_canonical(&a.to_canonical()) {
                violations.push(fail(
                    "probe",
                    case.probe.to_string(),
                    format!(
                        "probe diverged after DML: {} ;; {}",
                        outcome_text(&probe_ref),
                        outcome_text(&probe_plan)
                    ),
                ));
            }
        }
        (Err(_), Err(_)) => {}
        _ => violations.push(fail(
            "probe",
            case.probe.to_string(),
            format!(
                "probe error-ness diverged: {} ;; {}",
                outcome_text(&probe_ref),
                outcome_text(&probe_plan)
            ),
        )),
    }
    digest.push_str(&outcome_text(&probe_ref));

    // persist → reopen: recovery must reproduce the live image exactly
    if let Some(st) = store {
        drop(st);
        match Store::open_with_fs(&dir, FailpointFs::unlimited()) {
            Ok(re) => {
                for ti in 0..plan_db.schema.tables.len() {
                    if re.db().rows(ti) != plan_db.rows(ti) {
                        violations.push(fail(
                            "persist",
                            case.probe.to_string(),
                            format!(
                                "reopened store diverged on table {}",
                                plan_db.schema.tables[ti].name
                            ),
                        ));
                        break;
                    }
                }
                let probe_re = engine
                    .prepare_ast_on(&case.probe, re.db())
                    .and_then(|p| p.execute(re.db()));
                let agree = match (&probe_plan, &probe_re) {
                    (Ok(a), Ok(b)) => b.matches_canonical(&a.to_canonical()),
                    (Err(_), Err(_)) => true,
                    _ => false,
                };
                if !agree {
                    violations.push(fail(
                        "persist",
                        case.probe.to_string(),
                        format!(
                            "probe diverged after reopen: {} ;; {}",
                            outcome_text(&probe_plan),
                            outcome_text(&probe_re)
                        ),
                    ));
                }
            }
            Err(e) => violations.push(fail(
                "persist",
                String::new(),
                format!("clean store failed to reopen: {e}"),
            )),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    CaseReport {
        index,
        violations,
        rewrites_checked: 0,
        digest_text: digest,
    }
}

/// Apply `statements` through a fresh [`Store`] at `dir`, then truncate
/// the last WAL record (`drop_last_wal_record_for_test`) and reopen.
/// Returns `None` when no statement committed (nothing to lose), else
/// whether the recovered image *visibly diverges* from the live one —
/// the `--inject-wal-bug` negative oracle. The directory is removed.
pub fn persist_divergence_with_dropped_tail(
    db: &Database,
    statements: &[Statement],
    engine: &SqlEngine,
    dir: &Path,
) -> Option<bool> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = Store::create_with_fs(dir, db.clone(), FailpointFs::unlimited()).ok()?;
    let mut committed = 0u32;
    for stmt in statements {
        if let Ok(op) = engine.compute_dml_op(stmt, store.db()) {
            if store.commit(&op).is_ok() {
                committed += 1;
            }
        }
    }
    let live = store.into_db();
    if committed == 0 {
        let _ = std::fs::remove_dir_all(dir);
        return None;
    }
    let dropped = nli_core::storage::drop_last_wal_record_for_test(dir).ok()?;
    if !dropped {
        let _ = std::fs::remove_dir_all(dir);
        return None;
    }
    let diverged = match Store::open_with_fs(dir, FailpointFs::unlimited()) {
        Ok(re) => (0..live.schema.tables.len()).any(|ti| re.db().rows(ti) != live.rows(ti)),
        // refusing to open at all also counts as catching the lost write
        Err(_) => true,
    };
    let _ = std::fs::remove_dir_all(dir);
    Some(diverged)
}

/// Compare two results under a [`CompareMode`].
pub fn results_agree(a: &ResultSet, b: &ResultSet, mode: &CompareMode) -> bool {
    match mode {
        CompareMode::Multiset => a.canonical_rows() == b.canonical_rows(),
        CompareMode::MultisetPermuted(perm) => {
            // original items[i] == rewritten items[j] where perm[j] == i
            let mut inverse = vec![0usize; perm.len()];
            for (j, &i) in perm.iter().enumerate() {
                inverse[i] = j;
            }
            let remapped = ResultSet {
                columns: a.columns.clone(),
                rows: b
                    .rows
                    .iter()
                    .map(|row| inverse.iter().map(|&j| row[j].clone()).collect())
                    .collect(),
                ordered: false,
            };
            a.canonical_rows() == remapped.canonical_rows()
        }
        CompareMode::OrderedPrefix(n) => {
            let prefix: Vec<Vec<String>> = b
                .rows
                .iter()
                .take(*n)
                .map(|row| row.iter().map(|v| v.canonical()).collect())
                .collect();
            let own: Vec<Vec<String>> = a
                .rows
                .iter()
                .map(|row| row.iter().map(|v| v.canonical()).collect())
                .collect();
            own == prefix
        }
    }
}

/// Inject an engine-level miscompare: flip the first comparison operator
/// in WHERE (`<`↔`<=`, `>`↔`>=`, `=`↔`!=`). Returns `None` when the query
/// has no comparison to mutate — negative tests use this to prove the
/// differential oracle actually fires.
pub fn mutate_comparison(q: &Query) -> Option<Query> {
    fn flip(op: BinOp) -> Option<BinOp> {
        match op {
            BinOp::Lt => Some(BinOp::Le),
            BinOp::Le => Some(BinOp::Lt),
            BinOp::Gt => Some(BinOp::Ge),
            BinOp::Ge => Some(BinOp::Gt),
            BinOp::Eq => Some(BinOp::Neq),
            BinOp::Neq => Some(BinOp::Eq),
            _ => None,
        }
    }
    fn mutate(e: &mut Expr) -> bool {
        match e {
            Expr::Binary { left, op, right } => {
                if let Some(f) = flip(*op) {
                    *op = f;
                    return true;
                }
                mutate(left) || mutate(right)
            }
            Expr::Not(inner) => mutate(inner),
            _ => false,
        }
    }
    let mut out = q.clone();
    let w = out.select.where_clause.as_mut()?;
    if mutate(w) {
        Some(out)
    } else {
        None
    }
}
