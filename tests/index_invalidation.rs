//! Index-invalidation regressions.
//!
//! PR 6 fixed a stale-columnar-cache bug: direct data mutation bypassing
//! `Database::insert` left the vectorized executor answering from
//! pre-mutation columnar views. Secondary indexes are cached on the same
//! `Derived` state and keyed by the same stats epoch, so the same bug
//! class applies: a table mutated after planning must drop both the cached
//! cost-based plan (epoch in the cache key) and the cached index (cleared
//! by `invalidate_derived`), and a stale index must never serve a read.
//!
//! These tests assert through engine-local cache stats, `stats_epoch`, and
//! observable query results — never through global obs counters, which are
//! shared across in-process tests.

use nli_core::{Column, DataType, Database, Prng, Schema, Table, Value};
use nli_sql::interp::run_tree_walk;
use nli_sql::{parse_query, SqlEngine};
use std::sync::Arc;

fn db() -> Database {
    let schema = Schema::new(
        "inval",
        vec![Table::new(
            "orders",
            vec![
                Column::new("id", DataType::Int).primary(),
                Column::new("qty", DataType::Int),
            ],
        )],
    );
    let mut db = Database::empty(schema);
    db.insert_all(
        "orders",
        (0..64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 8)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    db
}

const POINT: &str = "SELECT id FROM orders WHERE qty = 3";

fn run(engine: &SqlEngine, db: &Database, sql: &str) -> Vec<Vec<Value>> {
    engine
        .prepare_on(sql, db)
        .and_then(|p| p.execute(db))
        .unwrap()
        .rows
}

/// `insert` moves the stats epoch, which both re-keys the plan cache
/// (fresh miss) and rebuilds the index, so the new row is visible through
/// the index path immediately.
#[test]
fn insert_drops_the_cached_plan_and_the_stale_index() {
    let mut d = db();
    let engine = SqlEngine::new();

    let before = run(&engine, &d, POINT);
    assert_eq!(before.len(), 8);
    let stmt = engine.prepare_on(POINT, &d).unwrap();
    assert!(
        stmt.plan().select.scans[0].index.is_some(),
        "the point query must take the index path for this test to bite"
    );
    let misses_before = engine.cache_stats().misses;
    let e1 = d.stats_epoch();
    // the index is cached on the database by now
    assert!(d.index(0, 1).is_some());

    d.insert("orders", vec![Value::Int(64), Value::Int(3)])
        .unwrap();
    assert_ne!(d.stats_epoch(), e1, "insert must move the stats epoch");

    let after = run(&engine, &d, POINT);
    assert_eq!(after.len(), 9, "index path must see the inserted row");
    assert!(after.contains(&vec![Value::Int(64)]));
    assert!(
        engine.cache_stats().misses > misses_before,
        "the epoch change must re-key the cached cost-based plan"
    );
    // and the rebuilt index itself carries the new row id
    let idx = d.index(0, 1).expect("index rebuilds after invalidation");
    assert!(idx.eq_rows(&Value::Int(3)).contains(&64));
}

/// The test-suite / fuzz NULL-injector path mutates `db.data` directly and
/// then calls `invalidate_derived()`. That call must drop the cached index
/// too: the NULLed key leaves the eq postings and joins the segregated
/// NULL list, and planned results keep matching the tree-walk reference.
#[test]
fn direct_mutation_plus_invalidate_derived_rebuilds_the_index() {
    let mut d = db();
    let engine = SqlEngine::new();

    // Prime plan + index, then NULL out every qty=3 cell the way the
    // null injector does (bypassing insert).
    assert_eq!(run(&engine, &d, POINT).len(), 8);
    let e1 = d.stats_epoch();
    for row in d.data[0].rows.iter_mut() {
        if row[1] == Value::Int(3) {
            row[1] = Value::Null;
        }
    }
    d.invalidate_derived();
    assert_ne!(
        d.stats_epoch(),
        e1,
        "invalidate_derived must move the epoch"
    );

    for sql in [POINT, "SELECT id FROM orders WHERE qty IS NULL"] {
        let q = parse_query(sql).unwrap();
        let reference = run_tree_walk(&q, &d).unwrap();
        assert_eq!(
            run(&engine, &d, sql),
            reference.rows,
            "planned result diverged from tree-walk after NULL injection on {sql}"
        );
    }
    let idx = d.index(0, 1).expect("index rebuilds after invalidation");
    assert!(idx.eq_rows(&Value::Int(3)).is_empty());
    assert_eq!(idx.null_rows().len(), 8);
}

/// A corrupted cached index *is* read (the control: planned output
/// visibly diverges from the reference), but the very next invalidation
/// discards it — staleness can never outlive an epoch change.
#[test]
fn a_stale_index_cannot_outlive_an_epoch_change() {
    let mut d = db();
    let engine = SqlEngine::new();

    let honest = run(&engine, &d, POINT);
    assert_eq!(honest.len(), 8);
    assert!(
        d.corrupt_index_for_test(0, 1),
        "index must be cached after the first indexed read"
    );
    let corrupted = run(&engine, &d, POINT);
    assert_eq!(
        corrupted.len(),
        7,
        "control: a corrupted cached index must visibly serve reads"
    );

    // Any epoch-moving mutation discards the corrupted index.
    d.insert("orders", vec![Value::Int(64), Value::Int(5)])
        .unwrap();
    let repaired = run(&engine, &d, POINT);
    assert_eq!(
        repaired, honest,
        "invalidation must discard the stale index"
    );

    // Same via the direct-mutation path.
    assert!(d.corrupt_index_for_test(0, 1));
    d.data[0].rows.push(vec![Value::Int(65), Value::Int(5)]);
    d.invalidate_derived();
    assert_eq!(
        run(&engine, &d, POINT),
        honest,
        "invalidate_derived must discard the stale index"
    );
}

/// Declaring an index moves the epoch too (plans may change access path),
/// and a declared-only engine picks it up without auto-indexing.
#[test]
fn declaring_an_index_rekeys_plans_for_declared_only_engines() {
    let mut d = db();
    let engine = SqlEngine::new().with_auto_index(false);

    let stmt = engine.prepare_on(POINT, &d).unwrap();
    assert!(
        stmt.plan().select.scans[0].index.is_none(),
        "auto-index off and nothing declared: full scan"
    );
    let e1 = d.stats_epoch();
    assert!(engine.create_index(&mut d, "orders", "qty").unwrap());
    assert_ne!(d.stats_epoch(), e1, "declaration must re-key cached plans");

    let stmt = engine.prepare_on(POINT, &d).unwrap();
    assert!(
        stmt.plan().select.scans[0].index.is_some(),
        "declared index must be planned without auto-indexing"
    );
    assert_eq!(run(&engine, &d, POINT).len(), 8);
}

/// `orders` plus a second table, `customers`, that the cross-table tests
/// never write.
fn two_table_db() -> Database {
    let mut schema = db().schema;
    schema.tables.push(Table::new(
        "customers",
        vec![
            Column::new("id", DataType::Int).primary(),
            Column::new("tier", DataType::Int),
            Column::new("name", DataType::Text),
        ],
    ));
    let mut d = Database::empty(schema);
    d.data[0] = db().data[0].clone();
    d.insert_all(
        "customers",
        (0..32)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::Text(format!("c{i}")),
                ]
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    d
}

const CUSTOMER_POINT: &str = "SELECT id FROM customers WHERE tier = 2";

/// A write to `orders` rebuilds only `orders`' views: `customers` keeps
/// the very same columnar batch, statistics and index, while the epoch
/// still moves, so a plan cached before the write misses after it.
#[test]
fn dml_on_one_table_keeps_the_other_tables_views() {
    let writes: [fn(&SqlEngine, &mut Database); 4] = [
        |_, d| {
            d.insert("orders", vec![Value::Int(64), Value::Int(3)])
                .unwrap()
        },
        |e, d| {
            drop(
                e.run_statement("INSERT INTO orders (id, qty) VALUES (70, 3)", d)
                    .unwrap(),
            )
        },
        |e, d| {
            drop(
                e.run_statement("UPDATE orders SET qty = 3 WHERE id = 5", d)
                    .unwrap(),
            )
        },
        |e, d| {
            drop(
                e.run_statement("DELETE FROM orders WHERE id = 11", d)
                    .unwrap(),
            )
        },
    ];
    for write in writes {
        let mut d = two_table_db();
        let engine = SqlEngine::new();
        assert_eq!(run(&engine, &d, CUSTOMER_POINT).len(), 8);
        assert_eq!(run(&engine, &d, POINT).len(), 8);
        let customers = (d.columnar(1), d.table_stats(1), d.index(1, 1).unwrap());
        let orders = (d.columnar(0), d.table_stats(0), d.index(0, 1).unwrap());
        let e1 = d.stats_epoch();
        let misses = engine.cache_stats().misses;

        write(&engine, &mut d);

        assert_ne!(d.stats_epoch(), e1, "any write must move the epoch");
        assert!(Arc::ptr_eq(&customers.0, &d.columnar(1)));
        assert!(Arc::ptr_eq(&customers.1, &d.table_stats(1)));
        assert!(Arc::ptr_eq(&customers.2, &d.index(1, 1).unwrap()));
        let snapshot = d.clone();
        assert!(Arc::ptr_eq(&customers.0, &snapshot.columnar(1)));
        assert!(Arc::ptr_eq(&customers.1, &snapshot.table_stats(1)));
        assert!(!Arc::ptr_eq(&orders.0, &d.columnar(0)));
        assert!(!Arc::ptr_eq(&orders.1, &d.table_stats(0)));
        assert!(!Arc::ptr_eq(&orders.2, &d.index(0, 1).unwrap()));
        assert_eq!(d.columnar(0).rows, d.rows(0).len(), "orders rebuilt");
        assert_eq!(d.table_stats(0).row_count, d.rows(0).len() as u64);

        assert_eq!(run(&engine, &d, CUSTOMER_POINT).len(), 8);
        assert_eq!(
            engine.cache_stats().misses,
            misses + 1,
            "a plan cached under the old epoch must miss"
        );
        let q = parse_query(POINT).unwrap();
        assert_eq!(run(&engine, &d, POINT), run_tree_walk(&q, &d).unwrap().rows);
    }
}

/// Per-table invalidation leaves nothing stale: after every step of a
/// seeded run of inserts, updates and deletes on either table, the cached
/// views equal those of a clone rebuilt from scratch.
#[test]
fn per_table_views_match_a_full_rebuild_after_seeded_dml() {
    let mut d = two_table_db();
    let engine = SqlEngine::new();
    let mut rng = Prng::new(13);
    for step in 0..120 {
        let key = rng.below(80);
        let n = rng.below(8);
        let sql = match (rng.below(2), rng.below(3)) {
            (0, 0) => format!("INSERT INTO orders (id, qty) VALUES ({}, {n})", 100 + step),
            (0, 1) => format!(
                "UPDATE orders SET qty = {n} WHERE id < {key} AND qty = {}",
                n / 2
            ),
            (0, _) => format!("DELETE FROM orders WHERE id = {key}"),
            (_, 0) => format!(
                "INSERT INTO customers (id, tier, name) VALUES ({}, {}, 'n{n}')",
                100 + step,
                n % 4
            ),
            (_, 1) => format!("UPDATE customers SET name = 'u{n}' WHERE tier = {}", n % 4),
            (_, _) => format!("DELETE FROM customers WHERE id = {key}"),
        };
        engine.run_statement(&sql, &mut d).unwrap();
        // read every view, so the next step starts with a full cache
        let stats = d.stats();
        let mut fresh = d.clone();
        fresh.invalidate_derived();
        assert_eq!(*stats, *fresh.stats(), "step {step}: {sql}");
        for ti in 0..2 {
            assert_eq!(*d.columnar(ti), *fresh.columnar(ti), "step {step}: {sql}");
            for ci in 0..d.schema.tables[ti].columns.len() {
                assert_eq!(d.index(ti, ci), fresh.index(ti, ci), "step {step}: {sql}");
            }
        }
    }
}
