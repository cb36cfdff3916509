//! The baseline retail database and its seven-query cost ladder.
//!
//! One fixed workload, measured and checked in several places: the
//! criterion `sql_engine` group (`benches/bench_engine.rs`) times it, the
//! `nli-server` load generator walks it over the wire, the `nlibench`
//! `analyst` workload prepares and `EXEC`s it, and the test below checks
//! that a store persisted from it answers it unchanged after journaled
//! DML, a checkpoint, a reopen, and a crash at any fault point.

use nli_core::{Database, Prng};
use nli_data::domains;
use nli_data::schema_gen::{generate_database, DbGenConfig};

/// The ladder: scan, filter, join, aggregate, join + aggregate + order,
/// an `IN` subquery, and a `UNION`, in rising cost.
pub const QUERIES: [(&str, &str); 7] = [
    ("scan", "SELECT * FROM products"),
    ("filter", "SELECT name FROM products WHERE price > 100"),
    (
        "join",
        "SELECT products.name, sales.amount FROM sales JOIN products \
         ON sales.product_id = products.id",
    ),
    (
        "group",
        "SELECT category, AVG(price) FROM products GROUP BY category",
    ),
    (
        "join_group_order",
        "SELECT products.category, SUM(sales.amount) FROM sales JOIN products \
         ON sales.product_id = products.id GROUP BY products.category \
         ORDER BY SUM(sales.amount) DESC",
    ),
    (
        "nested",
        "SELECT name FROM products WHERE id IN \
         (SELECT product_id FROM sales WHERE amount > 500)",
    ),
    (
        "set_op",
        "SELECT category FROM products UNION SELECT city FROM stores",
    ),
];

/// The generated retail database the ladder runs against: three or more
/// tables of 200 rows each, seed 42.
pub fn baseline_db() -> Database {
    let domain = domains::domain("retail").unwrap();
    let cfg = DbGenConfig {
        min_tables: 3,
        optional_col_p: 1.0,
        rows: (200, 200),
    };
    generate_database(domain, 0, &cfg, &mut Prng::new(42))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_core::{DmlOp, FailpointFs, Store};
    use nli_sql::SqlEngine;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// DML journaled on top of the persisted baseline. The statements only
    /// touch columns the retail generator always emits.
    const DML: [&str; 5] = [
        "INSERT INTO products VALUES (9001, 'bench gadget', 'Tools', 42.5, 100, 4.5)",
        "INSERT INTO products VALUES (9002, 'bench widget', 'Toys', 17.0, 25, 3.0)",
        "UPDATE products SET price = price * 1.1 WHERE category = 'Tools'",
        "DELETE FROM products WHERE price < 5.0",
        "UPDATE products SET name = 'renamed' WHERE id = 9002",
    ];

    /// A fresh directory per call, so concurrent tests never share one.
    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("nli-bench-ladder-{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every ladder answer, rows in result order, as one string.
    fn ladder_transcript(engine: &SqlEngine, db: &Database) -> String {
        let mut out = String::new();
        for (name, sql) in QUERIES {
            let rs = engine.run_sql(sql, db).expect(sql);
            out.push_str(&format!(
                "{name}: cols={:?} ordered={} rows={:?}\n",
                rs.columns, rs.ordered, rs.rows
            ));
        }
        out
    }

    /// Drive the DML against a fresh store under `fs`. `None` if creating
    /// the store crashed, else the ops acknowledged before any crash.
    fn drive(dir: &PathBuf, fs: FailpointFs, engine: &SqlEngine) -> Option<Vec<DmlOp>> {
        let mut store = Store::create_with_fs(dir, baseline_db(), fs).ok()?;
        let mut acked = Vec::new();
        for sql in DML {
            let stmt = nli_sql::parse_statement(sql).expect(sql);
            let op = engine.compute_dml_op(&stmt, store.db()).expect(sql);
            match store.commit(&op) {
                Ok(_) => acked.push(op),
                Err(_) => break,
            }
        }
        Some(acked)
    }

    /// The baseline with `acked` applied in order: what a store must hold.
    fn model_of(acked: &[DmlOp]) -> Database {
        let mut db = baseline_db();
        for op in acked {
            db.apply_op(op).unwrap();
        }
        db
    }

    #[test]
    fn reopened_store_answers_the_ladder_byte_for_byte() {
        let engine = SqlEngine::new();

        // persist, journal, reopen (WAL replay), checkpoint, reopen
        // (segments only): each image answers like the in-memory one
        let dir = temp_dir("roundtrip");
        let acked = drive(&dir, FailpointFs::unlimited(), &engine).unwrap();
        assert_eq!(acked.len(), DML.len());
        let want = ladder_transcript(&engine, &model_of(&acked));
        let mut replayed = Store::open(&dir).unwrap();
        assert_eq!(
            ladder_transcript(&engine, replayed.db()),
            want,
            "after WAL replay"
        );
        replayed.checkpoint().unwrap();
        drop(replayed);
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(
            ladder_transcript(&engine, reopened.db()),
            want,
            "after checkpoint"
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);

        // crash matrix: crash after every possible number of filesystem
        // mutations, up to the first budget the workload completes under;
        // each crash recovers to exactly the acknowledged prefix, or (if
        // creation crashed) to nothing
        for budget in 0.. {
            let dir = temp_dir("crash");
            let acked = drive(&dir, FailpointFs::with_budget(budget), &engine);
            match &acked {
                None => assert!(
                    Store::open(&dir).is_err(),
                    "budget {budget} opened without a completed creation"
                ),
                Some(acked) => {
                    let recovered = Store::open(&dir)
                        .unwrap_or_else(|e| panic!("budget {budget}: recovery failed: {e}"));
                    let model = model_of(acked);
                    for ti in 0..model.schema.tables.len() {
                        assert_eq!(
                            recovered.db().rows(ti),
                            model.rows(ti),
                            "budget {budget} ({} acks): table {} is not the acknowledged prefix",
                            acked.len(),
                            model.schema.tables[ti].name
                        );
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
            if acked.is_some_and(|a| a.len() == DML.len()) {
                break;
            }
            assert!(budget < 10_000, "runaway fault-free mutation count");
        }
    }
}
