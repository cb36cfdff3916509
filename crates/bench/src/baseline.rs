//! Headless benchmark baseline emitter (`cargo run -p nli-bench --bin
//! baseline`).
//!
//! Runs the criterion `sql_engine` query ladder without the criterion
//! harness and writes `BENCH_baseline.json`: per-benchmark wall-time
//! summary statistics (median/p95/min/mean µs over `--iters` timed
//! executions of a prepared statement) plus the per-operator row-flow
//! aggregates from one instrumented [`nli_sql::PreparedSql::explain_analyze`]
//! run. The file is the first point of the perf trajectory the ROADMAP's
//! north star needs; timings are machine-dependent, row counts are not.
//!
//! [`validate`] is the checked-in schema check: `scripts/ci.sh` emits a
//! smoke baseline and re-reads it through this
//! validator, so the emitter and the schema cannot drift apart silently.

use nli_core::{Database, Prng};
use nli_data::domains;
use nli_data::schema_gen::{generate_database, DbGenConfig};
use nli_sql::SqlEngine;
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

/// Bumped whenever the emitted document shape changes.
pub const SCHEMA_VERSION: i64 = 1;

/// The benchmark queries: the same seven-step cost ladder
/// `benches/bench_engine.rs` measures under criterion, so the two harnesses
/// stay comparable.
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

/// The generated retail database every baseline run measures against
/// (identical generator arguments to the criterion suite).
pub fn baseline_db() -> Database {
    let domain = domains::domain("retail").unwrap();
    let cfg = DbGenConfig {
        min_tables: 3,
        optional_col_p: 1.0,
        rows: (200, 200),
    };
    generate_database(domain, 0, &cfg, &mut Prng::new(42))
}

use crate::summary::percentile;

/// Run every benchmark for `iters` timed iterations and build the
/// `BENCH_baseline.json` document.
pub fn run(iters: usize) -> Value {
    let iters = iters.max(1);
    let db = baseline_db();
    let engine = SqlEngine::new();
    let mut benchmarks = Vec::new();
    for (name, sql) in QUERIES {
        let stmt = engine
            .prepare(sql, &db.schema)
            .expect("baseline query must prepare");
        // Warm up once (and fail loudly on a broken query) before timing.
        let warm = stmt.execute(&db).expect("baseline query must execute");
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            black_box(stmt.execute(&db).unwrap());
            samples.push(start.elapsed().as_micros() as f64);
        }
        samples.sort_by(f64::total_cmp);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;

        // Row-flow aggregates from one instrumented run, summed per
        // operator kind. Deterministic across machines and worker counts.
        let analyzed = stmt.explain_analyze(&db).unwrap();
        let mut ops: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        analyzed.profile.each_op(
            &mut |kind, st| match ops.iter_mut().find(|(k, ..)| *k == kind) {
                Some((_, n, rows_in, rows_out)) => {
                    *n += 1;
                    *rows_in += st.rows_in;
                    *rows_out += st.rows_out;
                }
                None => ops.push((kind, 1, st.rows_in, st.rows_out)),
            },
        );
        let op_stats: Vec<Value> = ops
            .into_iter()
            .map(|(kind, count, rows_in, rows_out)| {
                Value::obj([
                    ("op", Value::from(kind)),
                    ("count", Value::from(count)),
                    ("rows_in", Value::from(rows_in)),
                    ("rows_out", Value::from(rows_out)),
                ])
            })
            .collect();

        benchmarks.push(Value::obj([
            ("name", Value::from(name)),
            ("sql", Value::from(sql)),
            ("iters", Value::from(iters)),
            ("median_micros", Value::from(percentile(&samples, 50.0))),
            ("p95_micros", Value::from(percentile(&samples, 95.0))),
            ("min_micros", Value::from(samples[0])),
            ("mean_micros", Value::from(mean)),
            ("rows_out", Value::from(warm.rows.len())),
            ("op_stats", Value::Array(op_stats)),
        ]));
    }
    Value::obj([
        ("schema_version", Value::from(SCHEMA_VERSION)),
        ("suite", Value::from("sql_engine")),
        (
            "database",
            Value::obj([
                ("domain", Value::from("retail")),
                ("rows_per_table", Value::from(200i64)),
                ("seed", Value::from(42i64)),
            ]),
        ),
        ("benchmarks", Value::Array(benchmarks)),
    ])
}

fn require_number(entry: &Value, key: &str, name: &str) -> Result<f64, String> {
    entry
        .get(key)
        .and_then(Value::as_f64)
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("benchmark {name:?}: missing or invalid {key}"))
}

/// The schema check for an emitted baseline document. Returns the first
/// problem found, or `Ok` for a well-formed baseline with at least six
/// benchmarks.
pub fn validate(doc: &Value) -> Result<(), String> {
    match doc.get("schema_version").and_then(Value::as_i64) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(v) => return Err(format!("schema_version {v} != {SCHEMA_VERSION}")),
        None => return Err("missing schema_version".into()),
    }
    if doc.get("suite").and_then(Value::as_str).is_none() {
        return Err("missing suite".into());
    }
    let benchmarks = doc
        .get("benchmarks")
        .and_then(Value::as_array)
        .ok_or("missing benchmarks array")?;
    if benchmarks.len() < 6 {
        return Err(format!("only {} benchmarks (need >= 6)", benchmarks.len()));
    }
    let mut names: Vec<&str> = Vec::new();
    for entry in benchmarks {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .filter(|n| !n.is_empty())
            .ok_or("benchmark with missing name")?;
        if names.contains(&name) {
            return Err(format!("duplicate benchmark name {name:?}"));
        }
        names.push(name);
        let iters = entry
            .get("iters")
            .and_then(Value::as_i64)
            .ok_or_else(|| format!("benchmark {name:?}: missing iters"))?;
        if iters < 1 {
            return Err(format!("benchmark {name:?}: iters < 1"));
        }
        let median = require_number(entry, "median_micros", name)?;
        let p95 = require_number(entry, "p95_micros", name)?;
        let min = require_number(entry, "min_micros", name)?;
        require_number(entry, "mean_micros", name)?;
        require_number(entry, "rows_out", name)?;
        if min > median || median > p95 {
            return Err(format!(
                "benchmark {name:?}: percentiles out of order (min={min} median={median} p95={p95})"
            ));
        }
        let ops = entry
            .get("op_stats")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("benchmark {name:?}: missing op_stats"))?;
        if ops.is_empty() {
            return Err(format!("benchmark {name:?}: empty op_stats"));
        }
        for op in ops {
            let kind = op
                .get("op")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("benchmark {name:?}: op_stats entry missing op"))?;
            for key in ["count", "rows_in", "rows_out"] {
                require_number(op, key, name).map_err(|e| format!("{e} (op {kind:?})"))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_baseline_passes_its_own_schema_check() {
        let doc = run(2);
        validate(&doc).unwrap();
        let benchmarks = doc.get("benchmarks").and_then(Value::as_array).unwrap();
        assert_eq!(benchmarks.len(), QUERIES.len());
        // every benchmark carries a scan aggregate — the ladder always
        // touches at least one base table
        for b in benchmarks {
            let ops = b.get("op_stats").and_then(Value::as_array).unwrap();
            assert!(ops
                .iter()
                .any(|o| o.get("op").and_then(Value::as_str) == Some("scan")));
        }
        // the document round-trips through the vendored JSON printer/parser
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let reparsed = serde_json::from_str(&text).unwrap();
        validate(&reparsed).unwrap();
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        let mut doc = run(1);
        doc.set("schema_version", 99i64);
        assert!(validate(&doc).unwrap_err().contains("schema_version"));

        let doc = Value::obj([("schema_version", Value::from(SCHEMA_VERSION))]);
        assert!(validate(&doc).is_err());

        let mut doc = run(1);
        if let Some(Value::Array(benchmarks)) = doc.get("benchmarks").cloned() {
            let mut short = benchmarks;
            short.truncate(3);
            doc.set("benchmarks", Value::Array(short));
        }
        assert!(validate(&doc).unwrap_err().contains("need >= 6"));
    }
}
