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
//! Two fixed sweeps run over hand-built tables whose cells sit on the
//! edges a typed scan loop or a typed key can get wrong: predicate shapes,
//! binary searches on sorted columns among them, and joins and `GROUP BY`
//! on every column pair. Both run under the rule-based plan and the
//! cost-based one.

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

/// Two hand-built tables on the edges of typed scan loops and typed keys.
///
/// `t` has an all-NULL row, NULLs whose slots hold placeholders next to
/// non-NULL cells equal to those placeholders (`0`, `0.0`, `''`, `false`,
/// `1970-01-01`), NaN, `±0.0`, infinity, `i64::MIN` and `i64::MAX`, an Int
/// above 2^53 beside the Float it rounds to, the Int 10^15, and the text
/// `'NULL'` (whose canonical spelling is NULL's). Strides coprime to each pool size mix
/// the columns' edges across rows. Its `id` is stored sorted, and so is
/// `g`, a Float with runs of duplicates that interleave `-0.0` and `0.0`.
///
/// `u` has the same column types with repeated keys: duplicate and NULL
/// join keys, both NaNs, `2^53` beside `t`'s `2^53 + 1`, and floats at and
/// above 1e15, whose canonical spellings are integer digits (so `1e15`
/// joins `t`'s Int 10^15 and `2^53` does not join `2^53 + 1`).
fn edge_db() -> Database {
    let columns = |extra: Option<Column>| {
        let mut cols = vec![
            Column::new("id", DataType::Int).primary(),
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("s", DataType::Text),
            Column::new("b", DataType::Bool),
            Column::new("d", DataType::Date),
        ];
        cols.extend(extra);
        cols
    };
    let schema = Schema::new(
        "edges",
        vec![
            Table::new("t", columns(Some(Column::new("g", DataType::Float)))),
            Table::new("u", columns(None)),
        ],
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
        Some(i64::MIN),
        Some(i64::MAX),
        Some(1_000_000_000_000_000),
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
        Some("NULL"),
    ];
    let bools = [None, Some(false), Some(true)];
    let dates = [
        None,
        Some(Date::new(1970, 1, 1)),
        Some(Date::new(2020, 1, 1)),
        Some(Date::new(2021, 6, 15)),
        Some(Date::new(1969, 12, 31)),
    ];
    let sorted = [
        -2.5,
        -0.0,
        0.0,
        -0.0,
        0.5,
        4.0,
        4.5,
        5.0,
        (1u64 << 53) as f64,
        f64::INFINITY,
    ];
    fn cell<T: Copy>(pool: &[Option<T>], k: usize, wrap: fn(T) -> Value) -> Value {
        pool[k % pool.len()].map_or(Value::Null, wrap)
    }
    let text = |s: &str| Value::Text(s.to_string());
    let mut db = Database::empty(schema);
    db.insert_all(
        "t",
        (0..40usize).map(|r| {
            vec![
                Value::Int(r as i64),
                cell(&ints, r, Value::Int),
                cell(&floats, r * 7, Value::Float),
                cell(&texts, r * 5, text),
                cell(&bools, r * 2, Value::Bool),
                cell(&dates, r * 3, Value::Date),
                Value::Float(sorted[r / 4]),
            ]
        }),
    )
    .unwrap();
    let u_ints = [
        None,
        Some(4),
        Some(0),
        Some(1 << 53),
        Some(1_000_000_000_000_000),
        Some(i64::MIN),
        Some(-1),
    ];
    let u_floats = [
        None,
        Some(-0.0),
        Some(4.0),
        Some(f64::NAN),
        Some(-f64::NAN),
        Some(0.0),
        Some((1u64 << 53) as f64),
        Some(1e15),
        Some(1e15 + 2.0),
        Some(4.5),
    ];
    let u_texts = [
        None,
        Some("a"),
        Some("NULL"),
        Some(""),
        Some("zz"),
        Some("a"),
    ];
    let u_dates = [
        None,
        Some(Date::new(2020, 1, 1)),
        Some(Date::new(1969, 12, 31)),
    ];
    db.insert_all(
        "u",
        (0..24usize).map(|r| {
            vec![
                Value::Int(r as i64 / 2),
                cell(&u_ints, r * 3, Value::Int),
                cell(&u_floats, r, Value::Float),
                cell(&u_texts, r * 5, text),
                cell(&bools, r, Value::Bool),
                cell(&u_dates, r * 2, Value::Date),
            ]
        }),
    )
    .unwrap();
    db
}

/// The edge tables, and a copy with wrong-typed cells in `t.i`, `t.f` and
/// `u.f` (stored `Mixed`), each with indexes declared on `t.i`, `t.s` and
/// `t.d` so the cost-based plans can probe them.
fn edge_dbs(engine: &SqlEngine) -> Vec<Database> {
    let mut mixed = edge_db();
    mixed.data[0].rows[6][1] = Value::Text("x".into());
    mixed.data[0].rows[9][2] = Value::Int(7);
    mixed.data[1].rows[3][2] = Value::Int(4);
    mixed.invalidate_derived();
    for (table, col) in [(0, 1), (0, 2), (1, 2)] {
        assert!(matches!(
            mixed.columnar(table).columns[col].data,
            ColumnData::Mixed(_)
        ));
    }
    let mut dbs = vec![edge_db(), mixed];
    for db in &mut dbs {
        for col in ["i", "s", "d"] {
            engine.create_index(db, "t", col).unwrap();
        }
    }
    dbs
}

/// Every predicate shape the narrowing scan has a typed loop for, each
/// against every literal kind (same type, Int against Float, cross-type,
/// NULL) and on the sorted columns `id` and `g`, where comparisons and
/// `BETWEEN` binary-search; `IS [NOT] NULL` and column-to-column
/// comparisons, which it leaves to the node kernels; `IN` lists as a
/// projection, through the node kernels' typed lanes; and conjunctions
/// that mix typed conjuncts with `LIKE`, `OR`, `NOT` and fallible
/// arithmetic.
fn predicate_sweep() -> Vec<String> {
    const COLS: [&str; 7] = ["id", "i", "f", "g", "s", "b", "d"];
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
    const BOUNDS: [(&str, &str); 13] = [
        ("0", "5"),
        ("-1", "4.5"),
        ("4.5", "5"),
        ("-2.5", "0.5"),
        ("5", "0"),
        ("4", "4"),
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
                out.push(format!("SELECT id, {col} {not}IN ({list}) FROM t"));
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
            "id > 5 AND g <= 4.5 AND id BETWEEN 0 AND 30 AND s <> 'a'",
            "g = 0 AND id >= 4",
            "id BETWEEN 10 AND 20 AND i IN (0, 4)",
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

/// Joins of `t` and `u` on every pair of their columns (Int⋈Int keys
/// typed, every other pair canonically), in both FROM orders; `GROUP BY`
/// on every column, on column pairs, and on a `u` column after a join
/// that repeats `u`'s rows (so the key is coded over `u`'s rows);
/// `COUNT(DISTINCT)` per column; and ORDER BY an aggregate that is also a
/// select item.
fn key_sweep() -> Vec<String> {
    const COLS: [&str; 6] = ["id", "i", "f", "s", "b", "d"];
    let mut out = Vec::new();
    for a in COLS {
        for b in COLS {
            out.push(format!("SELECT t.id, u.id FROM t JOIN u ON t.{a} = u.{b}"));
            out.push(format!("SELECT u.id, t.id FROM u JOIN t ON u.{a} = t.{b}"));
            out.push(format!(
                "SELECT t.{a}, t.{b}, COUNT(*) FROM t GROUP BY t.{a}, t.{b}"
            ));
        }
        for table in ["t", "u"] {
            out.push(format!(
                "SELECT {a}, COUNT(*), MIN(id) FROM {table} GROUP BY {a}"
            ));
            out.push(format!(
                "SELECT COUNT(DISTINCT {a}), COUNT({a}) FROM {table}"
            ));
            out.push(format!(
                "SELECT {a}, SUM(id) FROM {table} GROUP BY {a} ORDER BY SUM(id) DESC, {a}"
            ));
        }
        out.push(format!(
            "SELECT u.{a}, COUNT(*), SUM(t.id) FROM t JOIN u ON t.b = u.b GROUP BY u.{a}"
        ));
        out.push(format!(
            "SELECT u.{a}, t.b, COUNT(*) FROM t JOIN u ON t.b = u.b GROUP BY u.{a}, t.b"
        ));
        out.push(format!(
            "SELECT t.{a}, u.{a}, COUNT(*) FROM t JOIN u ON t.{a} = u.{a} \
             WHERE t.id > 3 GROUP BY t.{a}, u.{a} ORDER BY COUNT(*)"
        ));
    }
    out
}

/// Run `sweep` over `db` through the rule-based plan the server runs and
/// the cost-based plan (the same plan, plus index probes), asserting each
/// agrees with the tree-walk reference at every batch size, and that the
/// reference rejects under a tenth of the sweep.
fn sweep_agrees(engine: &SqlEngine, db: &Database, sweep: &[String]) {
    let mut errors = 0;
    for sql in sweep {
        let q = parse_query(sql).unwrap();
        let reference = run_tree_walk(&q, db);
        errors += usize::from(reference.is_err());
        assert_leg_agrees(&q, &reference, "rule-based", || {
            engine
                .prepare_ast(&q, &db.schema)
                .and_then(|p| p.execute(db))
        });
        assert_leg_agrees(&q, &reference, "cost-based", || {
            engine.prepare_ast_on(&q, db).and_then(|p| p.execute(db))
        });
    }
    assert!(
        errors < sweep.len() / 10,
        "{errors} of {} queries failed",
        sweep.len()
    );
}

/// The predicate sweep over the edge table and its `Mixed` copy, before
/// and after writes that leave the sorted columns `id` and `g` unsorted
/// (the scan then loops over them instead of searching): `id` out of
/// order, `g` holding NULLs.
#[test]
fn predicate_shapes_agree_with_the_tree_walk() {
    let engine = SqlEngine::new();
    let sweep = predicate_sweep();
    for mut db in edge_dbs(&engine) {
        let sorted = |db: &Database| {
            let t = db.columnar(0);
            (t.columns[0].sorted_asc(), t.columns[6].sorted_asc())
        };
        assert_eq!(sorted(&db), (true, true));
        sweep_agrees(&engine, &db, &sweep);
        // `g`'s NULL placeholders (0.0) still sort among `-0.0` and `0.0`
        for write in [
            "UPDATE t SET id = 100 WHERE id = 20",
            "UPDATE t SET g = NULL WHERE id < 4",
        ] {
            engine.run_statement(write, &mut db).unwrap();
        }
        assert_eq!(sorted(&db), (false, false));
        sweep_agrees(&engine, &db, &sweep);
    }
}

/// Joins and `GROUP BY` on every column pair of the edge tables and their
/// `Mixed` copy: typed keys must fold exactly what `Value::canonical`
/// folds (`-0.0` with `0.0`, every NaN, a Text NULL with `'NULL'` when
/// grouping) and nothing more (`2^53` and `2^53 + 1`, an integral float
/// and an Int across the 1e15 spelling change), in the reference's row
/// and group order.
#[test]
fn join_and_group_keys_agree_with_the_tree_walk() {
    let engine = SqlEngine::new();
    let sweep = key_sweep();
    for db in edge_dbs(&engine) {
        sweep_agrees(&engine, &db, &sweep);
    }
}
