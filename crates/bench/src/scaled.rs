//! The scaled retail databases and their eight-query ladder.
//!
//! Where [`crate::baseline`] is one small fixed database, [`scaled_db`]
//! builds synthetic retail databases of any size, fully deterministic in
//! the sales row count. The ladder mixes joins and aggregates, where
//! vectorized batching pays (DESIGN.md §3.5), with three
//! index-favourable shapes (point lookup, 0.1% range, selective join),
//! where the secondary-index probe pays (DESIGN.md §3.6).
//!
//! The criterion `sql_scaled` group (`benches/bench_engine.rs`) times
//! every query at 10k and 100k rows through three legs: the tree-walk
//! reference, the indexed vectorized default, and the vectorized pipeline
//! with auto-indexing off. The test below checks that the three legs
//! agree at 10k rows; the `nlibench` `dashboard` workload serves five of
//! the shapes at 100k rows.

use nli_core::{Column, DataType, Database, Prng, Schema, Table, Value};

/// The ladder: joins and aggregates where batching pays, plus three
/// index-favourable shapes (point lookup, 0.1% range, selective join)
/// where the secondary-index probe is the whole story.
pub const QUERIES: [(&str, &str); 8] = [
    (
        "filter",
        "SELECT amount FROM sales WHERE amount > 450 AND amount < 460",
    ),
    (
        "group",
        "SELECT store_id, COUNT(*), SUM(amount) FROM sales GROUP BY store_id",
    ),
    (
        "join",
        "SELECT products.category, sales.amount FROM sales JOIN products \
         ON sales.product_id = products.id WHERE products.price > 450",
    ),
    (
        "join_group",
        "SELECT products.category, SUM(sales.amount) FROM sales JOIN products \
         ON sales.product_id = products.id GROUP BY products.category \
         ORDER BY SUM(sales.amount) DESC",
    ),
    (
        "three_way",
        "SELECT stores.city, SUM(sales.amount) FROM sales \
         JOIN stores ON sales.store_id = stores.id \
         JOIN products ON sales.product_id = products.id \
         WHERE products.price > 100 GROUP BY stores.city",
    ),
    ("point", "SELECT amount FROM sales WHERE id = 7411"),
    (
        "range",
        "SELECT id FROM sales WHERE id BETWEEN 5000 AND 5099",
    ),
    (
        "index_join",
        "SELECT products.category, sales.amount FROM sales JOIN products \
         ON sales.product_id = products.id WHERE sales.id BETWEEN 2000 AND 2049",
    ),
];

/// Build one rung's database: `rows` sales facts over `rows / 50` products
/// and `max(rows / 1000, 8)` stores, fully deterministic in `rows`.
pub fn scaled_db(rows: usize) -> Database {
    let n_products = (rows / 50).max(8);
    let n_stores = (rows / 1000).max(8);
    let mut schema = Schema::new(
        "retail_scaled",
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
    let mut rng = Prng::new(rows as u64 ^ 0x005C_A1ED);
    const CITIES: [&str; 6] = ["Oslo", "Bergen", "Trondheim", "Tromso", "Stavanger", "Bodo"];
    const CATEGORIES: [&str; 5] = ["Tools", "Toys", "Food", "Office", "Garden"];
    db.insert_all(
        "stores",
        (1..=n_stores).map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Text(format!("{}-{}", CITIES[i % CITIES.len()], i % 97)),
            ]
        }),
    )
    .unwrap();
    db.insert_all(
        "products",
        (1..=n_products).map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Text(CATEGORIES[i % CATEGORIES.len()].to_string()),
                // multiplicative hash spreads prices over (0, 500] at every
                // table size, so selectivity of a fixed threshold is
                // rung-independent
                Value::Float((i.wrapping_mul(7919) % 500) as f64 + 0.5),
            ]
        }),
    )
    .unwrap();
    db.insert_all(
        "sales",
        (1..=rows).map(|i| {
            let store = if rng.chance(0.01) {
                Value::Null
            } else {
                Value::Int(rng.below(n_stores) as i64 + 1)
            };
            vec![
                Value::Int(i as i64),
                store,
                Value::Int(rng.below(n_products) as i64 + 1),
                Value::Float((rng.below(100_000) as f64) / 100.0),
            ]
        }),
    )
    .unwrap();
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_sql::interp::run_tree_walk;
    use nli_sql::parser::parse_query;
    use nli_sql::SqlEngine;

    #[test]
    fn three_legs_agree_on_every_query_at_10k_rows() {
        let db = scaled_db(10_000);
        let engine = SqlEngine::new();
        let fullscan_engine = SqlEngine::new().with_auto_index(false);
        for (name, sql) in QUERIES {
            let q = parse_query(sql).expect(sql);
            let reference = run_tree_walk(&q, &db).expect(sql).to_canonical();
            let indexed = engine.prepare_ast_on(&q, &db).expect(sql);
            let fullscan = fullscan_engine.prepare_ast_on(&q, &db).expect(sql);
            assert!(
                indexed
                    .execute(&db)
                    .expect(sql)
                    .matches_canonical(&reference),
                "indexed vectorized leg disagrees with the tree-walk on {name}"
            );
            assert!(
                fullscan
                    .execute(&db)
                    .expect(sql)
                    .matches_canonical(&reference),
                "full-scan vectorized leg disagrees with the tree-walk on {name}"
            );
        }
    }

    #[test]
    fn scaled_db_is_deterministic_and_fk_clean() {
        let a = scaled_db(1_000);
        let b = scaled_db(1_000);
        assert_eq!(a, b);
        a.check_foreign_keys().unwrap();
    }
}
