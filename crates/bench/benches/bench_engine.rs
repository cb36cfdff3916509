//! Criterion micro-benchmarks for the SQL execution engine: the
//! baseline seven-query ladder (`sql_engine`), the scaled ladder through
//! its three executor legs at 10k and 100k rows (`sql_scaled`), the
//! front end, prepared-plan reuse, and the parallel test-suite path.

use criterion::{criterion_group, criterion_main, Criterion};
use nli_bench::{baseline, scaled};
use nli_core::{with_threads, Prng};
use nli_data::domains;
use nli_data::schema_gen::{generate_database, DbGenConfig};
use nli_metrics::{test_suite_match_with, TestSuite};
use nli_sql::interp::run_tree_walk;
use nli_sql::parser::parse_query;
use nli_sql::SqlEngine;
use std::hint::black_box;

fn engine_benches(c: &mut Criterion) {
    let db = baseline::baseline_db();
    let engine = SqlEngine::new();

    let mut group = c.benchmark_group("sql_engine");
    for (name, sql) in baseline::QUERIES {
        // validate once so a broken query fails loudly, not silently
        engine.run_sql(sql, &db).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(engine.run_sql(black_box(sql), &db).unwrap()))
        });
    }
    group.finish();

    // parse-only vs parse+execute split
    let mut group = c.benchmark_group("sql_frontend");
    group.bench_function("parse_complex", |b| {
        b.iter(|| {
            black_box(
                nli_sql::parse_query(
                    "SELECT products.category, SUM(sales.amount) FROM sales JOIN products \
                     ON sales.product_id = products.id WHERE sales.amount > 10 \
                     GROUP BY products.category HAVING COUNT(*) > 1 \
                     ORDER BY SUM(sales.amount) DESC LIMIT 5",
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("normalize", |b| {
        b.iter(|| {
            black_box(nli_sql::normalize(
                "select  NAME from products where PRICE>5",
            ))
        })
    });
    group.finish();
}

/// The scaled ladder at 10k and 100k sales rows, each query through the
/// tree-walk reference (`interp`), the indexed vectorized default
/// (`vectorized`), and the vectorized pipeline with auto-indexing off
/// (`fullscan`). interp/vectorized is the batching win (DESIGN.md §3.5),
/// fullscan/vectorized the index access-path win (§3.6). That the three
/// legs agree is a unit test of `nli_bench::scaled`.
fn scaled_ladder(c: &mut Criterion) {
    let engine = SqlEngine::new();
    let fullscan_engine = SqlEngine::new().with_auto_index(false);
    let mut group = c.benchmark_group("sql_scaled");
    for rows in [10_000, 100_000] {
        let db = scaled::scaled_db(rows);
        for (name, sql) in scaled::QUERIES {
            let q = parse_query(sql).unwrap();
            let indexed = engine.prepare_ast_on(&q, &db).unwrap();
            let fullscan = fullscan_engine.prepare_ast_on(&q, &db).unwrap();
            // one untimed run per leg builds the indexes the timed runs
            // reuse, so calibration does not count an index build
            run_tree_walk(&q, &db).unwrap();
            indexed.execute(&db).unwrap();
            fullscan.execute(&db).unwrap();
            group.bench_function(format!("{rows}/{name}/interp"), |b| {
                b.iter(|| black_box(run_tree_walk(&q, &db).unwrap()))
            });
            group.bench_function(format!("{rows}/{name}/vectorized"), |b| {
                b.iter(|| black_box(indexed.execute(&db).unwrap()))
            });
            group.bench_function(format!("{rows}/{name}/fullscan"), |b| {
                b.iter(|| black_box(fullscan.execute(&db).unwrap()))
            });
        }
    }
    group.finish();
}

/// Prepared-plan execution vs the string round-trip, over one query and a
/// test suite of 32 fuzzed database variants sharing a schema — the exact
/// access pattern of test-suite matching, where the prepared API pays one
/// parse+plan for the whole suite instead of one per variant.
fn prepared_vs_string(c: &mut Criterion) {
    let domain = domains::domain("retail").unwrap();
    let cfg = DbGenConfig {
        min_tables: 3,
        optional_col_p: 1.0,
        rows: (64, 64),
    };
    let base = generate_database(domain, 0, &cfg, &mut Prng::new(7));
    let suite = TestSuite::build(&base, 32, 0xBEEF);
    let sql = "SELECT products.category, SUM(sales.amount) FROM sales JOIN products \
               ON sales.product_id = products.id GROUP BY products.category \
               ORDER BY SUM(sales.amount) DESC";
    // validate once against every variant
    SqlEngine::new().run_sql(sql, &base).unwrap();

    let mut group = c.benchmark_group("prepared_pipeline");
    // string round-trip with a cold engine per call — the pre-refactor
    // consumer pattern: every execution pays parse + plan
    group.bench_function("string_roundtrip_x32", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for db in &suite.variants {
                let engine = SqlEngine::new();
                rows += black_box(engine.run_sql(sql, db).unwrap()).rows.len();
            }
            rows
        })
    });
    // prepared once, executed per variant: 1 parse + 1 plan
    group.bench_function("prepare_once_execute_x32", |b| {
        b.iter(|| {
            let engine = SqlEngine::new();
            let prepared = engine.prepare(sql, &base.schema).unwrap();
            let mut rows = 0usize;
            for db in &suite.variants {
                rows += black_box(prepared.execute(db).unwrap()).rows.len();
            }
            rows
        })
    });
    // warm plan cache (the steady state inside evaluation loops)
    let warm = SqlEngine::new();
    warm.run_sql(sql, &base).unwrap();
    group.bench_function("warm_cache_run_sql_x32", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for db in &suite.variants {
                rows += black_box(warm.run_sql(sql, db).unwrap()).rows.len();
            }
            rows
        })
    });
    group.finish();
}

/// The table3 test-suite path — [`test_suite_match_with`] over a large
/// fuzzed suite — at 1 vs 4 worker threads. The parallel runtime's
/// determinism contract makes both runs return the same verdict; the
/// speedup is the acceptance check for the `nli_core::par` fan-out.
fn par_speedup(c: &mut Criterion) {
    let domain = domains::domain("retail").unwrap();
    let cfg = DbGenConfig {
        min_tables: 3,
        optional_col_p: 1.0,
        rows: (96, 96),
    };
    let base = generate_database(domain, 0, &cfg, &mut Prng::new(7));
    let suite = TestSuite::build(&base, 64, 0xBEEF);
    let sql = "SELECT products.category, SUM(sales.amount) FROM sales JOIN products \
               ON sales.product_id = products.id GROUP BY products.category \
               ORDER BY SUM(sales.amount) DESC";
    let engine = SqlEngine::new();
    assert!(test_suite_match_with(&engine, sql, sql, &suite));

    let mut group = c.benchmark_group("par_test_suite_match");
    group.bench_function("threads_1", |b| {
        b.iter(|| {
            with_threads(1, || {
                black_box(test_suite_match_with(&engine, sql, sql, &suite))
            })
        })
    });
    group.bench_function("threads_4", |b| {
        b.iter(|| {
            with_threads(4, || {
                black_box(test_suite_match_with(&engine, sql, sql, &suite))
            })
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = engine_benches, prepared_vs_string, par_speedup
}
// fewer samples: one 100k-row tree-walk iteration takes over 0.1 s
criterion_group! {
    name = scaled_benches;
    config = Criterion::default().sample_size(10);
    targets = scaled_ladder
}
criterion_main!(benches, scaled_benches);
