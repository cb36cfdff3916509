//! Golden-snapshot tests for the VQL renderer (ISSUE 4 satellite).
//!
//! Each case executes a VQL program on a fixed hand-built database and
//! compares the full rendered artifact — the ASCII chart plus the
//! Vega-Lite-style spec JSON — against a committed plain-text fixture in
//! `tests/golden/`. Regenerate fixtures after an intentional renderer
//! change with:
//!
//! ```text
//! NLI_UPDATE_GOLDEN=1 cargo test -p nli-fuzz --test vql_render_golden
//! ```
//!
//! Coverage: every chart kind (bar, line, pie, scatter), the BIN
//! transform, and the axis/encoding edge cases — empty result, single
//! row, all-NULL y column, NULL x labels, quantitative vs nominal vs
//! temporal x inference.

use nli_core::{Column, DataType, Database, Date, Schema, Table, Value};
use nli_vql::VisEngine;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compare (or, under NLI_UPDATE_GOLDEN=1, rewrite) one fixture.
fn assert_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var_os("NLI_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path:?} ({e}); run with NLI_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        expected, rendered,
        "golden mismatch for {name}; if the change is intentional rerun with NLI_UPDATE_GOLDEN=1"
    );
}

/// Full rendered artifact: ASCII chart, then the spec JSON.
fn artifact(vql: &str, db: &Database) -> String {
    let chart = VisEngine::new().run_vql(vql, db).unwrap();
    format!(
        "{}\n---\n{}\n",
        chart.render_ascii().trim_end(),
        chart.spec.to_vega_lite()
    )
}

/// A fixed retail-flavoured database exercising every value type, with
/// NULLs in both a measure column and a dimension column.
fn db() -> Database {
    let schema = Schema::new(
        "golden_shop",
        vec![Table::new(
            "sales",
            vec![
                Column::new("id", DataType::Int).primary(),
                Column::new("category", DataType::Text),
                Column::new("amount", DataType::Float),
                Column::new("rating", DataType::Float),
                Column::new("sold_on", DataType::Date),
            ],
        )],
    );
    let mut db = Database::empty(schema);
    let rows: Vec<Vec<Value>> = vec![
        vec![
            Value::Int(1),
            Value::Text("Tools".into()),
            Value::Float(120.0),
            Value::Null,
            Value::Date(Date::new(2024, 1, 5)),
        ],
        vec![
            Value::Int(2),
            Value::Text("Tools".into()),
            Value::Float(80.5),
            Value::Null,
            Value::Date(Date::new(2024, 2, 11)),
        ],
        vec![
            Value::Int(3),
            Value::Text("Toys".into()),
            Value::Float(45.25),
            Value::Null,
            Value::Date(Date::new(2024, 2, 20)),
        ],
        vec![
            Value::Int(4),
            Value::Null,
            Value::Float(10.0),
            Value::Null,
            Value::Date(Date::new(2024, 4, 2)),
        ],
        vec![
            Value::Int(5),
            Value::Text("Garden".into()),
            Value::Float(64.0),
            Value::Null,
            Value::Date(Date::new(2024, 4, 19)),
        ],
    ];
    db.insert_all("sales", rows).unwrap();
    db
}

#[test]
fn golden_bar_sum_by_category() {
    // nominal x with a NULL dimension label among the groups
    assert_golden(
        "bar_sum_by_category",
        &artifact(
            "VISUALIZE BAR SELECT category, SUM(amount) FROM sales GROUP BY category",
            &db(),
        ),
    );
}

#[test]
fn golden_line_amount_over_dates() {
    // temporal x inference (all-Date column), unordered input sorted by x
    assert_golden(
        "line_amount_over_dates",
        &artifact("VISUALIZE LINE SELECT sold_on, amount FROM sales", &db()),
    );
}

#[test]
fn golden_line_month_bin() {
    // BIN transform: buckets summed and ordered, time_unit in the spec
    assert_golden(
        "line_month_bin",
        &artifact(
            "VISUALIZE LINE SELECT sold_on, amount FROM sales BIN sold_on BY month",
            &db(),
        ),
    );
}

#[test]
fn golden_pie_count_by_category() {
    assert_golden(
        "pie_count_by_category",
        &artifact(
            "VISUALIZE PIE SELECT category, COUNT(*) FROM sales GROUP BY category",
            &db(),
        ),
    );
}

#[test]
fn golden_scatter_amount_vs_id() {
    // quantitative x inference
    assert_golden(
        "scatter_amount_vs_id",
        &artifact("VISUALIZE SCATTER SELECT id, amount FROM sales", &db()),
    );
}

#[test]
fn golden_bar_empty_result() {
    // empty result: renderer must produce the "(no data)" form, and the
    // spec must still carry the declared encodings
    assert_golden(
        "bar_empty_result",
        &artifact(
            "VISUALIZE BAR SELECT category, amount FROM sales WHERE amount < 0",
            &db(),
        ),
    );
}

#[test]
fn golden_scatter_empty_result() {
    // scatter's quantitative-x validation must not fire on zero points
    assert_golden(
        "scatter_empty_result",
        &artifact(
            "VISUALIZE SCATTER SELECT category, amount FROM sales WHERE amount < 0",
            &db(),
        ),
    );
}

#[test]
fn golden_bar_single_row() {
    assert_golden(
        "bar_single_row",
        &artifact(
            "VISUALIZE BAR SELECT category, amount FROM sales WHERE id = 1",
            &db(),
        ),
    );
}

#[test]
fn golden_bar_all_null_y() {
    // all-NULL measure column: every y renders as 0 with no bar glyphs
    assert_golden(
        "bar_all_null_y",
        &artifact("VISUALIZE BAR SELECT category, rating FROM sales", &db()),
    );
}

#[test]
fn golden_pie_all_null_y() {
    // zero total: percentages are all 0.0% with the minimum one glyph
    assert_golden(
        "pie_all_null_y",
        &artifact("VISUALIZE PIE SELECT category, rating FROM sales", &db()),
    );
}

#[test]
fn golden_bar_weekday_bin() {
    assert_golden(
        "bar_weekday_bin",
        &artifact(
            "VISUALIZE BAR SELECT sold_on, amount FROM sales BIN sold_on BY weekday",
            &db(),
        ),
    );
}

#[test]
fn fixtures_are_committed_for_every_case() {
    // guard against a fixture silently vanishing from the repo: the
    // directory must contain exactly the cases above (explain_* fixtures
    // belong to tests/explain_golden.rs, which carries its own guard, and
    // exec_errors.txt to tests/exec_errors_golden.rs)
    let mut names: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden missing")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| !n.starts_with("explain_") && n != "exec_errors.txt")
        .collect();
    names.sort();
    let expected = [
        "bar_all_null_y.txt",
        "bar_empty_result.txt",
        "bar_single_row.txt",
        "bar_sum_by_category.txt",
        "bar_weekday_bin.txt",
        "line_amount_over_dates.txt",
        "line_month_bin.txt",
        "pie_all_null_y.txt",
        "pie_count_by_category.txt",
        "scatter_amount_vs_id.txt",
        "scatter_empty_result.txt",
    ];
    assert_eq!(names, expected);
}
