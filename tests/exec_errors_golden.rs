//! Golden snapshot of the SQL engine's execution errors.
//!
//! Ill-typed SQL is ordinary input for an engine that scores generated
//! queries by running them, so the error a statement raises — its exact
//! text, and therefore the row it names — is part of the engine's
//! contract. Each case below runs at batch sizes 1, 7 and the default;
//! all three must render identically, and the rendering must match
//! `tests/golden/exec_errors.txt` byte for byte. Regenerate after an
//! intentional change with:
//!
//! ```text
//! NLI_UPDATE_GOLDEN=1 cargo test -p nli-sql --test exec_errors_golden
//! ```
//!
//! The table is 5000 rows, so the default chunk size splits it in two.
//! Text columns are NULL except at chosen rows; arithmetic on a NULL is
//! NULL, so each column errors exactly at its chosen rows:
//!
//! | column | non-NULL rows |
//! |--------|---------------|
//! | `p`    | 13, 4100      |
//! | `q`    | 7, 4200       |
//! | `r`    | 6             |
//! | `w`    | 6, 4500       |
//! | `z`    | 4100, 4999    |
//!
//! The `mixed` database overwrites a few cells with values of the wrong
//! type straight through `Database::data` (as the fuzzer's NULL injector
//! writes), so those columns are stored as `Mixed` rather than typed
//! vectors.

use nli_core::{Column, DataType, Database, Date, DmlOp, Schema, Table, Value};
use nli_sql::{parse_statement, with_batch_rows, SqlEngine, Statement};
use std::path::PathBuf;

const ROWS: i64 = 5000;

fn text_at(id: i64, name: &str, rows: &[i64]) -> Value {
    if rows.contains(&id) {
        Value::Text(format!("{name}{id}"))
    } else {
        Value::Null
    }
}

fn clean_db() -> Database {
    let schema = Schema::new(
        "errors",
        vec![
            Table::new(
                "t",
                vec![
                    Column::new("id", DataType::Int).primary(),
                    Column::new("x", DataType::Int),
                    Column::new("f", DataType::Float),
                    Column::new("b", DataType::Bool),
                    Column::new("d", DataType::Date),
                    Column::new("p", DataType::Text),
                    Column::new("q", DataType::Text),
                    Column::new("r", DataType::Text),
                    Column::new("w", DataType::Text),
                    Column::new("z", DataType::Text),
                ],
            ),
            Table::new(
                "u",
                vec![
                    Column::new("id", DataType::Int).primary(),
                    Column::new("t_id", DataType::Int),
                    Column::new("n", DataType::Int),
                    Column::new("label", DataType::Text),
                ],
            ),
        ],
    );
    let mut db = Database::empty(schema);
    let t: Vec<Vec<Value>> = (0..ROWS)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(id % 10),
                Value::Float(id as f64 * 0.5),
                if id % 5 == 4 {
                    Value::Null
                } else {
                    Value::Bool(id % 3 == 0)
                },
                Value::Date(Date::new(2024, 1 + (id % 12) as u8, 1 + (id % 28) as u8)),
                text_at(id, "p", &[13, 4100]),
                text_at(id, "q", &[7, 4200]),
                text_at(id, "r", &[6]),
                text_at(id, "w", &[6, 4500]),
                text_at(id, "z", &[4100, 4999]),
            ]
        })
        .collect();
    db.insert_all("t", t).unwrap();
    let u: Vec<Vec<Value>> = (0..60)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int((id * 7) % 50),
                Value::Int(id % 4),
                if id % 6 == 5 {
                    Value::Text(format!("L{id}"))
                } else {
                    Value::Null
                },
            ]
        })
        .collect();
    db.insert_all("u", u).unwrap();
    db
}

/// The clean database with wrong-typed cells written directly into the
/// row store, bypassing `Database::insert`'s type check.
fn mixed_db() -> Database {
    let mut db = clean_db();
    let t = &mut db.data[0].rows;
    t[9][1] = Value::Text("bad9".into()); // x: Int column
    t[4300][1] = Value::Text("bad4300".into());
    t[2][2] = Value::Int(3); // f: Float column
    t[5][3] = Value::Text("yes".into()); // b: Bool column
    t[4][5] = Value::Int(42); // p: Text column
    let u = &mut db.data[1].rows;
    u[3][1] = Value::Text("21".into()); // t_id: Int column
    u[8][1] = Value::Float(7.0);
    db.invalidate_derived();
    db
}

/// `(database, statement)` per case; `true` selects the mixed database.
const CASES: &[(bool, &str)] = &[
    // -- pushed-down scan filters
    (false, "SELECT id FROM t WHERE p + 1 > 0"),
    (false, "SELECT id FROM t WHERE (p + 1) + (q + 1) > 0"),
    (false, "SELECT id FROM t WHERE (r + 1) + (w + 1) > 0"),
    (false, "SELECT id FROM t WHERE z * 2 = 1"),
    (false, "SELECT id FROM t WHERE x > 3 AND w - 1 < 0"),
    (false, "SELECT id FROM t WHERE d + 1 > 0"),
    // -- residual filters over a join
    (
        false,
        "SELECT t.id FROM t JOIN u ON t.x = u.n WHERE t.p + u.n > 0",
    ),
    (
        false,
        "SELECT t.id FROM t, u WHERE t.id = u.t_id AND (u.label + t.x > 0 OR t.q + 1 > 0)",
    ),
    (
        false,
        "SELECT t.id FROM t, u WHERE t.x = u.n AND t.z - u.id > 0",
    ),
    // -- projections and ORDER BY
    (false, "SELECT id, p * 2 FROM t"),
    (false, "SELECT p + 1, q + 1 FROM t"),
    (false, "SELECT id FROM t ORDER BY q - 1"),
    (false, "SELECT p + 1 FROM t ORDER BY q + 1"),
    (false, "SELECT q + 1 FROM t ORDER BY p + 1"),
    (false, "SELECT r + 1 FROM t ORDER BY w + 1"),
    (false, "SELECT id FROM t WHERE id > 4000 ORDER BY z / 2"),
    // -- GROUP BY keys
    (false, "SELECT COUNT(*) FROM t GROUP BY p + 1"),
    (false, "SELECT COUNT(*) FROM t GROUP BY p + 1, q + 1"),
    (false, "SELECT COUNT(*) FROM t GROUP BY x, z * 1"),
    // -- HAVING, group items and group ORDER BY keys
    (
        false,
        "SELECT x, COUNT(*) FROM t GROUP BY x HAVING MAX(p) + 1 > 0",
    ),
    (
        false,
        "SELECT x, MAX(q) + 1 FROM t GROUP BY x HAVING MAX(p) + 1 > 0",
    ),
    (
        false,
        "SELECT x, MAX(q) + 1 FROM t GROUP BY x ORDER BY MAX(p) + 1",
    ),
    (false, "SELECT x, p + 1 FROM t WHERE id > 10 GROUP BY x"),
    (false, "SELECT x FROM t GROUP BY x HAVING NOT COUNT(*)"),
    // -- aggregate arguments
    (false, "SELECT SUM(p + 1) FROM t"),
    (false, "SELECT x, SUM(q * 2) FROM t GROUP BY x"),
    (false, "SELECT SUM((p + 1) + (q + 1)) FROM t"),
    (false, "SELECT AVG(z - 1) FROM t WHERE id > 4000"),
    (false, "SELECT SUM(p) FROM t"),
    (false, "SELECT COUNT(NOT x) FROM t"),
    // -- AND / OR / NOT over non-booleans
    (false, "SELECT id FROM t WHERE x AND b"),
    (false, "SELECT id FROM t WHERE NOT x"),
    (false, "SELECT id FROM t WHERE b OR p"),
    (false, "SELECT NOT p FROM t"),
    (false, "SELECT id FROM t WHERE (p AND b) OR (q AND b)"),
    (false, "SELECT id FROM t WHERE NOT (f OR b)"),
    (false, "SELECT id FROM t WHERE z AND id > 4096"),
    // -- UPDATE SET and DML residuals
    (false, "UPDATE t SET x = p + 1 WHERE id < 20"),
    (false, "UPDATE t SET x = p + 1, f = q + 1"),
    (false, "UPDATE t SET x = r + 1, f = w + 1"),
    (false, "UPDATE t SET x = z * 2 WHERE id > 100"),
    (false, "UPDATE t SET x = x + 1 WHERE id < 5"),
    (false, "DELETE FROM t WHERE p + 1 > (SELECT MIN(id) FROM u)"),
    (
        false,
        "UPDATE t SET x = 0 WHERE q * 2 > (SELECT MIN(n) FROM u)",
    ),
    (false, "DELETE FROM t WHERE z - 1 > 0"),
    (false, "DELETE FROM t WHERE NOT p"),
    // -- mistyped (Mixed) storage
    (true, "SELECT id FROM t WHERE x + 1 > 3"),
    (true, "SELECT id FROM t WHERE x > 3 AND id < 12"),
    (true, "SELECT x * 2 FROM t"),
    (true, "SELECT id, x FROM t WHERE id > 4290 AND x - 1 > 0"),
    (true, "SELECT f + 1, f * 2 FROM t WHERE id < 4"),
    (true, "SELECT id FROM t WHERE b"),
    (true, "SELECT id FROM t WHERE b AND x > 1"),
    (true, "SELECT id FROM t WHERE NOT b"),
    (true, "SELECT id, p FROM t WHERE p + 1 > 0"),
    (true, "SELECT id, p LIKE '4%' FROM t WHERE id < 8"),
    (
        true,
        "SELECT t.id, u.id FROM t JOIN u ON t.x = u.t_id WHERE t.id < 30",
    ),
    (true, "SELECT u.id, t.id FROM u JOIN t ON u.t_id = t.id"),
    (true, "SELECT x, COUNT(*) FROM t GROUP BY x"),
    (true, "SELECT COUNT(*) FROM t GROUP BY x + 1"),
    (true, "SELECT x, SUM(f) FROM t WHERE id < 20 GROUP BY x"),
    (true, "SELECT SUM(x) FROM t"),
    (true, "SELECT MAX(x), MIN(f) FROM t"),
    (true, "UPDATE t SET f = x + 1 WHERE id < 12"),
    (true, "DELETE FROM t WHERE x * 1 > 5"),
    (true, "UPDATE t SET f = x + 1 WHERE id > 4200"),
    (true, "SELECT x + 1 FROM t WHERE id > 4200"),
    (
        true,
        "SELECT t.id FROM t JOIN u ON t.id = u.t_id WHERE t.x + u.n > 0",
    ),
    (
        true,
        "SELECT x, f FROM t WHERE id < 40 GROUP BY x, f HAVING COUNT(*) > 0",
    ),
];

/// At most this many result rows (or DML entries) are rendered per case.
const SHOWN: usize = 4;

fn render_ok_rows(rows: &[Vec<Value>]) -> String {
    let shown: Vec<String> = rows
        .iter()
        .take(SHOWN)
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|v| format!("{v:?}")).collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    format!("ok {} rows: {}", rows.len(), shown.join(" "))
}

fn render_op(op: &DmlOp) -> String {
    match op {
        DmlOp::Update { updates, .. } => {
            let shown: Vec<String> = updates
                .iter()
                .take(SHOWN)
                .map(|u| format!("{u:?}"))
                .collect();
            format!("ok update {} rows: {}", updates.len(), shown.join(" "))
        }
        DmlOp::Delete { rows, .. } => {
            let shown: Vec<String> = rows.iter().take(SHOWN).map(|r| r.to_string()).collect();
            format!("ok delete {} rows: {}", rows.len(), shown.join(" "))
        }
        other => format!("ok {other:?}"),
    }
}

/// Run one statement the way the server would (stats-aware prepare for
/// reads, the planned DML op for writes) and render the outcome.
fn outcome(db: &Database, sql: &str) -> String {
    let engine = SqlEngine::new();
    let stmt = parse_statement(sql).unwrap();
    let rendered = match &stmt {
        Statement::Select(q) => engine
            .prepare_ast_on(q, db)
            .and_then(|p| p.execute(db))
            .map(|rs| render_ok_rows(&rs.rows)),
        _ => engine.compute_dml_op(&stmt, db).map(|op| render_op(&op)),
    };
    rendered.unwrap_or_else(|e| format!("error: {e}"))
}

fn render_all() -> String {
    let clean = clean_db();
    let mixed = mixed_db();
    let mut out = String::new();
    for (i, (is_mixed, sql)) in CASES.iter().enumerate() {
        let db = if *is_mixed { &mixed } else { &clean };
        let default = outcome(db, sql);
        for n in [1, 7] {
            let chunked = with_batch_rows(n, || outcome(db, sql));
            assert_eq!(
                chunked, default,
                "case {i} ({sql}) renders differently at batch size {n}"
            );
        }
        let label = if *is_mixed { "mixed" } else { "clean" };
        out.push_str(&format!("[{i:02}] {label}: {sql}\n  => {default}\n"));
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/exec_errors.txt")
}

#[test]
fn execution_errors_match_the_golden_at_every_batch_size() {
    let rendered = render_all();
    let path = golden_path();
    if std::env::var_os("NLI_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path:?} ({e}); run with NLI_UPDATE_GOLDEN=1 to create it")
    });
    if let Some((got, expected)) = rendered.lines().zip(want.lines()).find(|(g, w)| g != w) {
        panic!(
            "execution-error golden mismatch:\n  got:      {got}\n  expected: {expected}\n\
             if the change is intentional rerun with NLI_UPDATE_GOLDEN=1"
        );
    }
    assert_eq!(rendered, want, "execution-error golden differs in length");
}

#[test]
fn the_golden_covers_at_least_thirty_errors() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden fixture committed");
    let errors = golden
        .lines()
        .filter(|l| l.trim_start().starts_with("=> error:"))
        .count();
    assert!(errors >= 30, "only {errors} erroring cases");
}
