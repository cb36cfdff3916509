//! Batch-size conformance for the vectorized executor.
//!
//! The columnar pipeline chunks every stage into batches of 4096 rows.
//! Chunking must be invisible: for any generated query, running the
//! cost-based plan at batch size 1 (degenerate row-at-a-time), 7 (prime,
//! never divides the row counts), and the default must each produce a
//! result byte-identical to the reference tree-walk interpreter — same
//! columns, same rows in the same order, same `ordered` flag, or an error
//! in both, with the same error text at every batch size. A kernel that
//! mishandles a chunk boundary (carry-over state, off-by-one at the seam,
//! partial-batch nulls) diverges at one of the odd sizes even when the
//! default size happens to hide it.
//!
//! A second corpus writes wrong-typed cells straight into the row store,
//! so columns are stored `Mixed` and evaluate through the executor's
//! generic lane.
//!
//! A third input is a fixed sweep of predicate shapes over a hand-built
//! table whose cells sit on the edges a typed scan loop can get wrong,
//! run under both the rule-based plan and the cost-based one.

use nli_core::{Column, ColumnData, DataType, Database, Date, Prng, Schema, Table, Value};
use nli_data::spider_like::{self, SpiderConfig};
use nli_data::sql_gen::{plan_to_query, sample_plan, SqlProfile};
use nli_sql::ast::Query;
use nli_sql::interp::run_tree_walk;
use nli_sql::{parse_query, with_batch_rows, ResultSet, SqlEngine};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Batch sizes under test: degenerate, prime/non-divisible, default.
const BATCH_SIZES: &[Option<usize>] = &[Some(1), Some(7), None];

fn corpus_databases() -> &'static Vec<Database> {
    static DBS: OnceLock<Vec<Database>> = OnceLock::new();
    DBS.get_or_init(|| {
        spider_like::build(&SpiderConfig {
            n_databases: 8,
            n_dev_databases: 2,
            n_train: 0,
            n_dev: 0,
            ..Default::default()
        })
        .databases
    })
}

/// A wrong-typed value for a column declared `dtype`. Text never spells a
/// number, so canonical join keys and SQL equality still agree.
fn mistyped(dtype: DataType, row: usize) -> Value {
    match dtype {
        DataType::Int | DataType::Date => Value::Text(format!("~{row}")),
        DataType::Float => Value::Int(row as i64),
        DataType::Text => Value::Float(row as f64 + 0.25),
        DataType::Bool => Value::Int(1),
    }
}

/// The corpus with roughly one row in nine carrying a wrong-typed cell in
/// a non-key column, written past `Database::insert`'s type check the way
/// the fuzzer's NULL injector writes.
fn mistyped_databases() -> &'static Vec<Database> {
    static DBS: OnceLock<Vec<Database>> = OnceLock::new();
    DBS.get_or_init(|| {
        corpus_databases()
            .iter()
            .map(|db| {
                let mut db = db.clone();
                for (ti, table) in db.schema.tables.clone().iter().enumerate() {
                    let width = table.columns.len();
                    for (ri, row) in db.data[ti].rows.iter_mut().enumerate() {
                        let ci = (ri + ti) % width;
                        if (ri * 7 + ti) % 9 == 0 && !table.columns[ci].primary_key {
                            row[ci] = mistyped(table.columns[ci].dtype, ri);
                        }
                    }
                }
                db.invalidate_derived();
                db
            })
            .collect()
    })
}

/// Run one generated query through the tree-walk reference and through the
/// stats-aware planned pipeline at every batch size; assert all agree.
/// Returns whether a query was actually drawn for this seed.
fn check_one(engine: &SqlEngine, dbs: &[Database], seed: u64) -> bool {
    let db = &dbs[(seed % dbs.len() as u64) as usize];
    let mut rng = Prng::new(seed);
    let Some(plan) = sample_plan(db, &SqlProfile::spider(), &mut rng) else {
        return false;
    };
    let q = plan_to_query(db, &plan);
    let reference = run_tree_walk(&q, db);
    let label = format!("db {}", db.schema.name);
    assert_leg_agrees(&q, &reference, &label, || {
        engine.prepare_ast_on(&q, db).and_then(|p| p.execute(db))
    });
    true
}

/// Run one leg at every batch size and assert it agrees with the
/// tree-walk `reference`: the same columns, rows in the same order and
/// `ordered` flag, or an error in both with one error text at every size.
fn assert_leg_agrees(
    q: &Query,
    reference: &nli_core::Result<ResultSet>,
    leg: &str,
    run: impl Fn() -> nli_core::Result<ResultSet>,
) {
    let mut first_error: Option<String> = None;
    for &batch in BATCH_SIZES {
        let vectorized = match batch {
            Some(n) => with_batch_rows(n, &run),
            None => run(),
        };
        let label = batch.map_or("default".to_string(), |n| n.to_string());
        match (reference, vectorized) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.columns, b.columns,
                    "columns diverged on {q} (batch={label}, {leg})"
                );
                assert_eq!(
                    a.ordered, b.ordered,
                    "ordered flag diverged on {q} (batch={label}, {leg})"
                );
                assert_eq!(
                    a.rows, b.rows,
                    "rows diverged on {q} (batch={label}, {leg})"
                );
            }
            (Err(_), Err(e)) => {
                let text = e.to_string();
                let first = first_error.get_or_insert_with(|| text.clone());
                assert_eq!(
                    *first, text,
                    "error text diverged across batch sizes on {q} (batch={label}, {leg})"
                );
            }
            (Ok(_), Err(e)) => panic!(
                "vectorized failed where tree-walk succeeded on {q} (batch={label}, {leg}): {e}"
            ),
            (Err(e), Ok(_)) => panic!(
                "tree-walk failed where vectorized succeeded on {q} (batch={label}, {leg}): {e}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// For any seed, the sampled query agrees between the reference
    /// interpreter and the vectorized executor at every batch size.
    #[test]
    fn vectorized_executor_is_batch_size_invariant(seed in any::<u64>()) {
        let engine = SqlEngine::new();
        check_one(&engine, corpus_databases(), seed);
    }
}

/// Deterministic floor: a fixed seed sweep that always draws enough
/// queries, independent of proptest's shrink/skip behavior.
#[test]
fn batch_size_sweep_covers_a_fixed_corpus() {
    let engine = SqlEngine::new();
    let mut drawn = 0usize;
    for seed in 0..256u64 {
        if check_one(
            &engine,
            corpus_databases(),
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ) {
            drawn += 1;
        }
    }
    assert!(drawn >= 96, "only {drawn} queries drawn (need >= 96)");
}

/// The same fixed sweep over the mistyped corpus: `Mixed` columns in
/// filters, join keys, group keys, aggregates and projections must agree
/// with the tree-walk reference at every batch size.
#[test]
fn mistyped_storage_agrees_with_the_tree_walk() {
    let dbs = mistyped_databases();
    let mixed_columns = dbs
        .iter()
        .flat_map(|db| (0..db.schema.tables.len()).map(|ti| db.columnar(ti)))
        .flat_map(|batch| batch.columns.clone())
        .filter(|c| matches!(c.data, ColumnData::Mixed(_)))
        .count();
    assert!(mixed_columns >= 16, "only {mixed_columns} Mixed columns");
    let engine = SqlEngine::new();
    let mut drawn = 0usize;
    for seed in 0..256u64 {
        if check_one(&engine, dbs, seed.wrapping_mul(0xD1B5_4A32_D192_ED03)) {
            drawn += 1;
        }
    }
    assert!(drawn >= 96, "only {drawn} queries drawn (need >= 96)");
}

/// A hand-built table on the edges of typed scan loops: an all-NULL row,
/// NULLs whose slots hold placeholders next to non-NULL cells equal to
/// those placeholders (`0`, `0.0`, `''`, `false`, `1970-01-01`), NaN,
/// `±0.0`, infinity, and an Int above 2^53 beside the Float it rounds to.
/// Strides coprime to each pool size mix the columns' edges across rows.
fn edge_db() -> Database {
    let schema = Schema::new(
        "edges",
        vec![Table::new(
            "t",
            vec![
                Column::new("id", DataType::Int).primary(),
                Column::new("i", DataType::Int),
                Column::new("f", DataType::Float),
                Column::new("s", DataType::Text),
                Column::new("b", DataType::Bool),
                Column::new("d", DataType::Date),
            ],
        )],
    );
    let big = (1i64 << 53) + 1;
    let ints = [
        None,
        Some(0),
        Some(4),
        Some(5),
        Some(-1),
        Some(1),
        Some(big),
        Some(4),
        Some(0),
    ];
    let floats = [
        None,
        Some(0.0),
        Some(-0.0),
        Some(f64::NAN),
        Some(4.5),
        Some(-2.5),
        Some(5.0),
        Some(f64::INFINITY),
        Some(0.5),
        Some((1u64 << 53) as f64),
        Some(4.0),
    ];
    let texts = [
        None,
        Some(""),
        Some("a"),
        Some("abc"),
        Some("b"),
        Some("zz"),
        Some("A"),
        Some("ab"),
    ];
    let bools = [None, Some(false), Some(true)];
    let dates = [
        None,
        Some(Date::new(1970, 1, 1)),
        Some(Date::new(2020, 1, 1)),
        Some(Date::new(2021, 6, 15)),
        Some(Date::new(1969, 12, 31)),
    ];
    fn cell<T: Copy>(pool: &[Option<T>], k: usize, wrap: fn(T) -> Value) -> Value {
        pool[k % pool.len()].map_or(Value::Null, wrap)
    }
    let mut db = Database::empty(schema);
    db.insert_all(
        "t",
        (0..40usize).map(|r| {
            vec![
                Value::Int(r as i64),
                cell(&ints, r, Value::Int),
                cell(&floats, r * 7, Value::Float),
                cell(&texts, r * 5, |s: &str| Value::Text(s.to_string())),
                cell(&bools, r * 2, Value::Bool),
                cell(&dates, r * 3, Value::Date),
            ]
        }),
    )
    .unwrap();
    db
}

/// Every predicate shape the narrowing scan has a typed loop for, each
/// against every literal kind (same type, Int against Float, cross-type,
/// NULL); `IS [NOT] NULL` and column-to-column comparisons, which it
/// leaves to the node kernels; and conjunctions that mix typed conjuncts
/// with `LIKE`, `OR`, `NOT` and fallible arithmetic.
fn predicate_sweep() -> Vec<String> {
    const COLS: [&str; 5] = ["i", "f", "s", "b", "d"];
    const LITS: [&str; 16] = [
        "0",
        "4",
        "5",
        "-1",
        "4.5",
        "-2.5",
        "0.5",
        "''",
        "'abc'",
        "'a'",
        "true",
        "false",
        "'1970-01-01'",
        "'2020-01-01'",
        "NULL",
        "9007199254740992",
    ];
    const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
    const BOUNDS: [(&str, &str); 12] = [
        ("0", "5"),
        ("-1", "4.5"),
        ("4.5", "5"),
        ("-2.5", "0.5"),
        ("5", "0"),
        ("'a'", "'b'"),
        ("''", "'abc'"),
        ("false", "true"),
        ("'1970-01-01'", "'2020-01-01'"),
        ("0", "'a'"),
        ("NULL", "5"),
        ("0", "NULL"),
    ];
    const LISTS: [&str; 7] = [
        "0, 4",
        "4.5, 5, NULL",
        "'a', '', NULL",
        "true",
        "'2020-01-01', NULL",
        "0, 'a', 4.5, -0.5",
        "NULL",
    ];
    let mut out = Vec::new();
    for col in COLS {
        for lit in LITS {
            for op in OPS {
                out.push(format!("SELECT id FROM t WHERE {col} {op} {lit}"));
                out.push(format!("SELECT id FROM t WHERE {lit} {op} {col}"));
            }
        }
        for (lo, hi) in BOUNDS {
            for not in ["", "NOT "] {
                out.push(format!(
                    "SELECT id FROM t WHERE {col} {not}BETWEEN {lo} AND {hi}"
                ));
            }
        }
        for list in LISTS {
            for not in ["", "NOT "] {
                out.push(format!("SELECT id FROM t WHERE {col} {not}IN ({list})"));
            }
        }
        for not in ["", "NOT "] {
            out.push(format!("SELECT id FROM t WHERE {col} IS {not}NULL"));
        }
        for other in COLS {
            for op in OPS {
                out.push(format!("SELECT id FROM t WHERE {col} {op} {other}"));
            }
        }
    }
    out.extend(
        [
            "i <> 5 AND s LIKE 'a%'",
            "s LIKE '%b%' AND f >= 0 AND i IS NOT NULL",
            "(i = 4 OR f > 1) AND s <> ''",
            "i BETWEEN 0 AND 5 AND (s = 'a' OR b = true) AND d > '1970-01-01'",
            "NOT (i = 5) AND f IS NOT NULL AND f <> 0",
            "f <> 0 AND f = f",
            "i IN (0, 4, NULL) AND s NOT IN ('', NULL) AND b <> false",
            "id >= 3 AND id < 30 AND i NOT BETWEEN 0 AND 4",
            "i > 4.5 AND i < 9007199254740992",
            "f IS NULL OR i IS NULL",
            "i = 1 AND NULL",
            "b AND i > 0",
            "i + 1 > 3 AND s = 'a'",
            "s = 'a' AND s + 1 > 0",
            "i > 0 AND f / 0 IS NULL",
        ]
        .map(|w| format!("SELECT id FROM t WHERE {w}")),
    );
    out
}

/// The predicate sweep over the edge table, and over a copy with a
/// wrong-typed cell in `i` and in `f` (stored `Mixed`): the rule-based
/// plan the server runs and the cost-based plan (index probes on `i`,
/// `s` and `d` declared) must each agree with the tree-walk reference at
/// every batch size.
#[test]
fn predicate_shapes_agree_with_the_tree_walk() {
    let mut mixed = edge_db();
    mixed.data[0].rows[6][1] = Value::Text("x".into());
    mixed.data[0].rows[9][2] = Value::Int(7);
    mixed.invalidate_derived();
    assert!(matches!(
        mixed.columnar(0).columns[1].data,
        ColumnData::Mixed(_)
    ));
    let sweep = predicate_sweep();
    for mut db in [edge_db(), mixed] {
        let engine = SqlEngine::new();
        for col in ["i", "s", "d"] {
            engine.create_index(&mut db, "t", col).unwrap();
        }
        let mut errors = 0;
        for sql in &sweep {
            let q = parse_query(sql).unwrap();
            let reference = run_tree_walk(&q, &db);
            errors += usize::from(reference.is_err());
            assert_leg_agrees(&q, &reference, "rule-based", || {
                engine
                    .prepare_ast(&q, &db.schema)
                    .and_then(|p| p.execute(&db))
            });
            assert_leg_agrees(&q, &reference, "cost-based", || {
                engine.prepare_ast_on(&q, &db).and_then(|p| p.execute(&db))
            });
        }
        assert!(
            errors < sweep.len() / 10,
            "{errors} of {} queries failed",
            sweep.len()
        );
    }
}
