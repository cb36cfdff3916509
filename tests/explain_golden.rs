//! Golden-snapshot tests for `PreparedSql::explain()` and the
//! deterministic `EXPLAIN ANALYZE` render (ISSUE 5 satellite; cost-based
//! cases and the stale-fixture guard added in ISSUE 6).
//!
//! Every fixture under `tests/golden/explain_*` is declared once in
//! [`CASES`], compared byte-for-byte. Regenerate after an intentional
//! format change with:
//!
//! ```text
//! NLI_UPDATE_GOLDEN=1 cargo test -p nli-sql --test explain_golden
//! ```
//!
//! The update path is guarded: rewriting the fixtures fails loudly if the
//! golden directory holds an `explain_*` file no [`CASES`] entry
//! references (e.g. a renamed case leaving its old fixture behind), so a
//! stale snapshot can never linger and green-wash a later rename.
//!
//! The `EXPLAIN ANALYZE` fixtures use [`nli_sql::AnalyzedSql::render`],
//! which carries rows in/out, batches, and operator counters but no
//! wall-clock timings — the whole render is a pure function of
//! (query, database), so it goldens like any other plan text.
//!
//! The `explain_cost_*` and `explain_index_*` cases prepare *against the
//! database* (`SqlEngine::prepare_on`), so the planner sees table
//! statistics: their fixtures pin the scans' `est=` cardinality
//! annotations and index probes, the only places a cost-based plan
//! differs from the rule-based one.

use nli_core::{Column, DataType, Database, Schema, Table, Value};
use nli_sql::{QueryPlan, SqlEngine};
use std::path::PathBuf;

/// The three-way join + aggregate ladder query both ANALYZE fixtures use.
const THREE_WAY: &str = "SELECT stores.city, SUM(sales.amount) FROM sales \
     JOIN stores ON sales.store_id = stores.id \
     JOIN products ON sales.product_id = products.id \
     WHERE products.price > 5 GROUP BY stores.city \
     ORDER BY SUM(sales.amount) DESC";

/// Every golden case: fixture name → rendered plan text. The guard test
/// derives the set of legal fixture files from this table.
type Case = (&'static str, fn() -> String);
const CASES: &[Case] = &[
    ("explain_scan", || explain("SELECT * FROM products")),
    // both conjuncts reference one table: pushed into the scan, no
    // residual Filter node
    ("explain_filter_pushdown", || {
        explain("SELECT category FROM products WHERE price > 5 AND category LIKE 'To%'")
    }),
    // left-deep two-step hash-join chain over three tables
    ("explain_hash_join", || {
        explain(
            "SELECT stores.city, products.category FROM sales \
             JOIN stores ON sales.store_id = stores.id \
             JOIN products ON sales.product_id = products.id",
        )
    }),
    // comma FROM without a connecting condition plus a residual predicate
    // that references both tables (not pushable, not hashable)
    ("explain_cross_join", || {
        explain("SELECT * FROM stores, products WHERE stores.id != products.id")
    }),
    ("explain_aggregate_having", || {
        explain(
            "SELECT category, AVG(price) FROM products \
             GROUP BY category HAVING COUNT(*) > 1",
        )
    }),
    ("explain_sort_distinct_limit", || {
        explain("SELECT DISTINCT category FROM products ORDER BY category ASC LIMIT 2")
    }),
    ("explain_set_op", || {
        explain("SELECT id FROM products UNION SELECT product_id FROM sales")
    }),
    // IN (SELECT ...) stays a residual filter with a <subquery> placeholder
    ("explain_subquery", || {
        explain(
            "SELECT category FROM products WHERE id IN \
             (SELECT product_id FROM sales WHERE amount > 120)",
        )
    }),
    // the deterministic EXPLAIN ANALYZE render: per-operator rows in/out,
    // batches, and counters for the 3-table join + aggregate
    ("explain_analyze_three_way", || {
        let db = retail_db();
        SqlEngine::new()
            .prepare(THREE_WAY, &db.schema)
            .unwrap()
            .explain_analyze(&db)
            .unwrap()
            .render()
    }),
    // the same ladder query prepared against the database: the cost pass
    // sees row counts/NDVs and annotates every scan with `est=`; the join
    // chain stays in FROM order
    ("explain_cost_three_way", || {
        let db = retail_db();
        SqlEngine::new()
            .prepare_on(THREE_WAY, &db)
            .unwrap()
            .explain_analyze(&db)
            .unwrap()
            .render()
    }),
    // selective point predicate on an Int key: the cost pass prices the
    // probe at 1/ndv and picks IndexEqScan; the ANALYZE render pins
    // est-vs-actual rows and the index_candidates counter
    ("explain_index_eq", || {
        let db = retail_db();
        SqlEngine::new()
            .prepare_on("SELECT amount FROM sales WHERE id = 3", &db)
            .unwrap()
            .explain_analyze(&db)
            .unwrap()
            .render()
    }),
    // BETWEEN over the same key: priced at a flat quarter of the rows, under
    // the index cutoff, so the scan becomes an IndexRangeScan with both bounds
    ("explain_index_range", || {
        let db = retail_db();
        SqlEngine::new()
            .prepare_on("SELECT amount FROM sales WHERE id BETWEEN 2 AND 3", &db)
            .unwrap()
            .explain_analyze(&db)
            .unwrap()
            .render()
    }),
    // the cost-divergence pair: the same shape of range predicate flips
    // between the index path and the vectorized full scan purely on
    // estimated selectivity (id spans 1..5, cutoff 0.5)
    ("explain_index_cost_divergence", || {
        let db = retail_db();
        let engine = SqlEngine::new();
        let selective = engine
            .prepare_on("SELECT amount FROM sales WHERE id < 2", &db)
            .unwrap()
            .explain();
        let unselective = engine
            .prepare_on("SELECT amount FROM sales WHERE id >= 2", &db)
            .unwrap()
            .explain();
        format!(
            "-- id < 2: est 25% of rows, under the cutoff -> index probe\n{selective}\
             -- id >= 2: est 75% of rows, over the cutoff -> full scan\n{unselective}"
        )
    }),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compare (or, under NLI_UPDATE_GOLDEN=1, rewrite) one fixture.
fn assert_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var_os("NLI_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        assert_no_stale_fixtures();
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

/// Fail loudly if the golden directory holds an `explain_*` fixture no
/// [`CASES`] entry references. Runs on every update-mode write, so a
/// renamed or deleted case can't silently leave its old snapshot behind.
fn assert_no_stale_fixtures() {
    let stale: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden missing")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("explain_"))
        .filter(|n| {
            !CASES
                .iter()
                .any(|(case, _)| format!("{case}.txt") == n.as_str())
        })
        .collect();
    assert!(
        stale.is_empty(),
        "stale golden fixtures not referenced by any CASES entry: {stale:?}; \
         delete them (or re-add their cases) before updating"
    );
}

/// Three joinable retail tables with a handful of fixed rows; the same
/// shape the crate's explain unit tests use.
fn retail_db() -> Database {
    let mut schema = Schema::new(
        "retail_golden",
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

fn explain(sql: &str) -> String {
    SqlEngine::new()
        .prepare(sql, &retail_db().schema)
        .unwrap()
        .explain()
}

#[test]
fn golden_explain_cases() {
    for (name, render) in CASES {
        assert_golden(name, &render());
    }
}

#[test]
fn cost_plan_is_the_rule_plan_plus_scan_estimates_and_probes() {
    // Every SELECT the cases above render, a join whose FROM order starts
    // from the smaller table, and a join of two sorted key columns: with
    // each scan's estimate and index probe stripped, the plan prepared
    // against the database is exactly the rule-based plan, joins included.
    let selects = [
        "SELECT * FROM products",
        "SELECT category FROM products WHERE price > 5 AND category LIKE 'To%'",
        "SELECT stores.city, products.category FROM sales \
         JOIN stores ON sales.store_id = stores.id \
         JOIN products ON sales.product_id = products.id",
        "SELECT * FROM stores, products WHERE stores.id != products.id",
        "SELECT category, AVG(price) FROM products GROUP BY category HAVING COUNT(*) > 1",
        "SELECT DISTINCT category FROM products ORDER BY category ASC LIMIT 2",
        "SELECT id FROM products UNION SELECT product_id FROM sales",
        "SELECT category FROM products WHERE id IN \
         (SELECT product_id FROM sales WHERE amount > 120)",
        THREE_WAY,
        "SELECT amount FROM sales WHERE id = 3",
        "SELECT amount FROM sales WHERE id BETWEEN 2 AND 3",
        "SELECT amount FROM sales WHERE id < 2",
        "SELECT amount FROM sales WHERE id >= 2",
        "SELECT products.category, COUNT(*) FROM products \
         JOIN sales ON sales.product_id = products.id GROUP BY products.category",
        "SELECT stores.city, products.category FROM stores \
         JOIN products ON stores.id = products.id",
    ];
    let db = retail_db();
    let engine = SqlEngine::new();
    for sql in selects {
        let rule = engine.prepare(sql, &db.schema).unwrap();
        let cost = engine.prepare_on(sql, &db).unwrap();
        assert_eq!(
            &strip_scan_annotations(cost.plan().clone()),
            rule.plan(),
            "{sql}"
        );
    }
}

/// `plan` without its scans' estimates and index probes, through every
/// compound.
fn strip_scan_annotations(mut plan: QueryPlan) -> QueryPlan {
    for scan in &mut plan.select.scans {
        scan.est_rows = None;
        scan.index = None;
    }
    plan.compound = plan
        .compound
        .map(|(op, rhs)| (op, Box::new(strip_scan_annotations(*rhs))));
    plan
}

#[test]
fn explain_fixtures_are_committed_for_every_case() {
    // mirror of the VQL golden guard, scoped to the explain_* namespace
    let mut names: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden missing")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("explain_"))
        .collect();
    names.sort();
    let mut expected: Vec<String> = CASES
        .iter()
        .map(|(case, _)| format!("{case}.txt"))
        .collect();
    expected.sort();
    assert_eq!(names, expected);
}
