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

use nli_core::{ColumnData, DataType, Database, Prng, Value};
use nli_data::spider_like::{self, SpiderConfig};
use nli_data::sql_gen::{plan_to_query, sample_plan, SqlProfile};
use nli_sql::interp::run_tree_walk;
use nli_sql::{with_batch_rows, SqlEngine};
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
    let mut first_error: Option<String> = None;
    for &batch in BATCH_SIZES {
        let run = || engine.prepare_ast_on(&q, db).and_then(|p| p.execute(db));
        let vectorized = match batch {
            Some(n) => with_batch_rows(n, run),
            None => run(),
        };
        let label = batch.map_or("default".to_string(), |n| n.to_string());
        match (&reference, vectorized) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.columns, b.columns,
                    "columns diverged on {q} (batch={label})"
                );
                assert_eq!(
                    a.ordered, b.ordered,
                    "ordered flag diverged on {q} (batch={label})"
                );
                assert_eq!(
                    a.rows, b.rows,
                    "rows diverged on {q} (batch={label}, db {})",
                    db.schema.name
                );
            }
            (Err(_), Err(e)) => {
                let text = e.to_string();
                let first = first_error.get_or_insert_with(|| text.clone());
                assert_eq!(
                    *first, text,
                    "error text diverged across batch sizes on {q} (batch={label})"
                );
            }
            (Ok(_), Err(e)) => {
                panic!("vectorized failed where tree-walk succeeded on {q} (batch={label}): {e}")
            }
            (Err(e), Ok(_)) => {
                panic!("tree-walk failed where vectorized succeeded on {q} (batch={label}): {e}")
            }
        }
    }
    true
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
