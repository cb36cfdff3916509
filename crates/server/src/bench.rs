//! The `BENCH_server.json` document: builder and schema check.
//!
//! The load generator ([`crate::loadgen`]) measures per-request wall-time
//! under N concurrent closed-loop clients and reduces the samples here —
//! through the same [`nli_bench::summary`] percentile helpers the other
//! benchmark emitters use, so "p95" means the same thing in every
//! committed `BENCH_*.json`. [`validate`] is wired into the emitter and
//! into `scripts/ci.sh`'s server smoke, so the document shape
//! cannot drift from the check silently. Wall-times are machine-dependent;
//! the document records them as a trajectory, not a contract.

use crate::loadgen::LoadgenConfig;
use nli_bench::summary::Summary;
use serde_json::Value;
use std::collections::BTreeMap;

/// Bumped whenever the emitted document shape changes.
pub const SCHEMA_VERSION: i64 = 2;

/// Aggregate outcome of one load-generator run.
pub struct RunTotals {
    /// Requests issued (excluding `BUSY` retries).
    pub requests: u64,
    /// Completed (non-`BUSY`) responses received.
    pub responses: u64,
    /// `BUSY` rejections the closed loop retried, across all clients
    /// (scheduling-dependent; recorded for capacity analysis, never
    /// byte-compared). Renamed from `rejected_busy` in schema v2 to make
    /// the retry semantics explicit.
    pub rejected_busy_retries: u64,
    /// Wall-clock for the whole client phase, µs.
    pub elapsed_micros: f64,
}

/// Build the `BENCH_server.json` document from per-query-name latency
/// samples (µs). The `"all"` entry aggregates every sample.
pub fn build_doc(
    cfg: &LoadgenConfig,
    samples_by_name: &BTreeMap<String, Vec<f64>>,
    totals: &RunTotals,
) -> Value {
    let mut benchmarks = Vec::new();
    let all: Vec<f64> = samples_by_name.values().flatten().copied().collect();
    let mut entries: Vec<(&str, Vec<f64>)> = vec![("all", all)];
    for (name, samples) in samples_by_name {
        entries.push((name, samples.clone()));
    }
    for (name, samples) in entries {
        let n = samples.len();
        let s = Summary::from_samples(samples);
        benchmarks.push(Value::obj([
            ("name", Value::from(name)),
            ("requests", Value::from(n)),
            ("p50_micros", Value::from(s.p50)),
            ("p95_micros", Value::from(s.p95)),
            ("p99_micros", Value::from(s.p99)),
            ("min_micros", Value::from(s.min)),
            ("max_micros", Value::from(s.max)),
            ("mean_micros", Value::from(s.mean)),
        ]));
    }
    let throughput = if totals.elapsed_micros > 0.0 {
        totals.responses as f64 / (totals.elapsed_micros / 1_000_000.0)
    } else {
        0.0
    };
    Value::obj([
        ("schema_version", Value::from(SCHEMA_VERSION)),
        ("suite", Value::from("server_loadgen")),
        (
            "server",
            Value::obj([
                ("admission_limit", Value::from(cfg.admission_limit)),
                ("batch_max", Value::from(cfg.batch_max)),
                ("exec_workers", Value::from(cfg.exec_workers)),
            ]),
        ),
        (
            "workload",
            Value::obj([
                ("clients", Value::from(cfg.clients)),
                ("requests_per_client", Value::from(cfg.requests_per_client)),
                ("mode", Value::from("closed")),
            ]),
        ),
        (
            "totals",
            Value::obj([
                ("requests", Value::from(totals.requests)),
                ("responses", Value::from(totals.responses)),
                (
                    "rejected_busy_retries",
                    Value::from(totals.rejected_busy_retries),
                ),
                ("elapsed_micros", Value::from(totals.elapsed_micros)),
                ("throughput_rps", Value::from(throughput)),
            ]),
        ),
        ("benchmarks", Value::Array(benchmarks)),
    ])
}

fn require_number(entry: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    entry
        .get(key)
        .and_then(Value::as_f64)
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("{ctx}: missing or invalid {key}"))
}

/// Schema check for an emitted server-benchmark document. Returns the
/// first problem found.
pub fn validate(doc: &Value) -> Result<(), String> {
    match doc.get("schema_version").and_then(Value::as_i64) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(v) => return Err(format!("schema_version {v} != {SCHEMA_VERSION}")),
        None => return Err("missing schema_version".into()),
    }
    if doc.get("suite").and_then(Value::as_str) != Some("server_loadgen") {
        return Err("missing or wrong suite".into());
    }
    let server = doc.get("server").ok_or("missing server object")?;
    for key in ["admission_limit", "batch_max", "exec_workers"] {
        if require_number(server, key, "server")? < 1.0 {
            return Err(format!("server: {key} < 1"));
        }
    }
    let workload = doc.get("workload").ok_or("missing workload object")?;
    for key in ["clients", "requests_per_client"] {
        if require_number(workload, key, "workload")? < 1.0 {
            return Err(format!("workload: {key} < 1"));
        }
    }
    if workload.get("mode").and_then(Value::as_str) != Some("closed") {
        return Err("workload: mode must be \"closed\"".into());
    }
    let totals = doc.get("totals").ok_or("missing totals object")?;
    let requests = require_number(totals, "requests", "totals")?;
    let responses = require_number(totals, "responses", "totals")?;
    require_number(totals, "rejected_busy_retries", "totals")?;
    require_number(totals, "elapsed_micros", "totals")?;
    let throughput = require_number(totals, "throughput_rps", "totals")?;
    if requests < 1.0 || responses < 1.0 {
        return Err("totals: no completed requests".into());
    }
    if responses > requests {
        return Err("totals: more responses than requests".into());
    }
    if throughput <= 0.0 {
        return Err("totals: throughput_rps must be positive".into());
    }
    let benchmarks = doc
        .get("benchmarks")
        .and_then(Value::as_array)
        .ok_or("missing benchmarks array")?;
    if benchmarks.is_empty() {
        return Err("empty benchmarks array".into());
    }
    let mut names: Vec<&str> = Vec::new();
    let mut saw_all = false;
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
        saw_all |= name == "all";
        if require_number(entry, "requests", name)? < 1.0 {
            return Err(format!("benchmark {name:?}: requests < 1"));
        }
        let p50 = require_number(entry, "p50_micros", name)?;
        let p95 = require_number(entry, "p95_micros", name)?;
        let p99 = require_number(entry, "p99_micros", name)?;
        let min = require_number(entry, "min_micros", name)?;
        let max = require_number(entry, "max_micros", name)?;
        require_number(entry, "mean_micros", name)?;
        if !(min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= max) {
            return Err(format!(
                "benchmark {name:?}: percentiles out of order \
                 (min={min} p50={p50} p95={p95} p99={p99} max={max})"
            ));
        }
    }
    if !saw_all {
        return Err("missing the \"all\" aggregate benchmark".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Value {
        let mut by_name = BTreeMap::new();
        by_name.insert("scan".to_string(), vec![10.0, 20.0, 30.0, 40.0]);
        by_name.insert("exec_hot".to_string(), vec![1.0, 2.0, 3.0]);
        build_doc(
            &LoadgenConfig::default(),
            &by_name,
            &RunTotals {
                requests: 7,
                responses: 7,
                rejected_busy_retries: 2,
                elapsed_micros: 3_500.0,
            },
        )
    }

    #[test]
    fn built_documents_pass_their_own_schema_check() {
        let doc = sample_doc();
        validate(&doc).unwrap();
        // throughput: 7 responses over 3.5 ms = 2000 rps
        let rps = doc
            .get("totals")
            .and_then(|t| t.get("throughput_rps"))
            .and_then(Value::as_f64)
            .unwrap();
        assert!((rps - 2000.0).abs() < 1e-6, "{rps}");
        // round-trips through the vendored JSON printer/parser
        let text = serde_json::to_string_pretty(&doc).unwrap();
        validate(&serde_json::from_str(&text).unwrap()).unwrap();
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        let mut doc = sample_doc();
        doc.set("schema_version", 99i64);
        assert!(validate(&doc).unwrap_err().contains("schema_version"));

        let mut doc = sample_doc();
        doc.set("benchmarks", Value::Array(Vec::new()));
        assert!(validate(&doc).unwrap_err().contains("empty benchmarks"));

        let mut doc = sample_doc();
        if let Some(Value::Array(mut benchmarks)) = doc.get("benchmarks").cloned() {
            benchmarks.retain(|b| b.get("name").and_then(Value::as_str) != Some("all"));
            doc.set("benchmarks", Value::Array(benchmarks));
        }
        assert!(validate(&doc).unwrap_err().contains("\"all\""));
    }
}
