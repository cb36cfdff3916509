//! Storage-engine smoke harness (`cargo run -p nli-bench --bin storage`).
//!
//! The executable form of the DESIGN.md §3.8 acceptance claims, run by
//! `scripts/ci.sh`:
//!
//! 1. **Persist → reopen conformance.** The baseline retail database
//!    (`nli_bench::baseline::baseline_db`, the same generator arguments
//!    the criterion suite uses) is persisted to a store, mutated through
//!    a handful of journaled DML statements, dropped, and reopened. The
//!    recovered image must answer the full seven-query
//!    `BENCH_baseline.json` ladder **byte-identically** to the in-memory
//!    database that applied the same ops — transcripts are compared as
//!    strings, not approximately.
//! 2. **Reduced crash matrix.** The same workload is re-driven under a
//!    [`FailpointFs`] at a strided subset of fault budgets (`--stride`,
//!    default 3; the exhaustive every-budget sweep lives in
//!    `tests/crash_recovery.rs`): each run crashes after exactly n
//!    filesystem mutations, recovers, and must land on exactly the
//!    acknowledged commit prefix.
//!
//! Timings for create / commit / checkpoint / reopen are printed for the
//! perf trajectory but nothing gates on them; the byte-compares and the
//! matrix are the pass/fail signal (exit code 1 on any divergence).

use nli_bench::baseline::{baseline_db, QUERIES};
use nli_core::{Database, DmlOp, FailpointFs, Store};
use nli_sql::SqlEngine;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// DML applied on top of the persisted baseline so reopen exercises WAL
/// replay, not just segment loading. Statements only touch columns the
/// retail generator always emits.
const DML: [&str; 5] = [
    "INSERT INTO products VALUES (9001, 'bench gadget', 'Tools', 42.5, 100, 4.5)",
    "INSERT INTO products VALUES (9002, 'bench widget', 'Toys', 17.0, 25, 3.0)",
    "UPDATE products SET price = price * 1.1 WHERE category = 'Tools'",
    "DELETE FROM products WHERE price < 5.0",
    "UPDATE products SET name = 'renamed' WHERE id = 9002",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nli-bench-storage-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The seven-query ladder as one canonical transcript string.
fn ladder_transcript(engine: &SqlEngine, db: &Database) -> String {
    let mut out = String::new();
    for (name, sql) in QUERIES {
        let rs = engine.run_sql(sql, db).expect(sql);
        out.push_str(&format!(
            "{name}: cols={:?} ordered={} rows={:?}\n",
            rs.columns,
            rs.ordered,
            rs.to_canonical()
        ));
    }
    out
}

/// Drive the DML workload against a store under `fs`; returns the ops
/// acknowledged before the injected crash (if any) fired.
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

fn main() -> ExitCode {
    let mut stride = 3usize;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--stride" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => stride = v,
                _ => {
                    eprintln!("storage: --stride needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("storage: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let engine = SqlEngine::new();
    let mut failed = false;

    // -- 1. persist → mutate → reopen, ladder byte-compare ---------------
    let dir = temp_dir("roundtrip");
    let t0 = Instant::now();
    let mut store = Store::create(&dir, baseline_db()).expect("create store");
    let create_us = t0.elapsed().as_micros();

    let mut live = baseline_db();
    let t0 = Instant::now();
    for sql in DML {
        let stmt = nli_sql::parse_statement(sql).expect(sql);
        let op = engine.compute_dml_op(&stmt, store.db()).expect(sql);
        store.commit(&op).expect(sql);
        live.apply_op(&op).expect(sql);
    }
    let commit_us = t0.elapsed().as_micros();

    let t0 = Instant::now();
    store.checkpoint().expect("checkpoint");
    let checkpoint_us = t0.elapsed().as_micros();

    drop(store);
    let t0 = Instant::now();
    let reopened = Store::open(&dir).expect("reopen store");
    let reopen_us = t0.elapsed().as_micros();

    let live_transcript = ladder_transcript(&engine, &live);
    let reopened_transcript = ladder_transcript(&engine, reopened.db());
    if live_transcript == reopened_transcript {
        println!(
            "roundtrip: PASS ({} ladder queries byte-identical after persist+{} DML+checkpoint+reopen)",
            QUERIES.len(),
            DML.len()
        );
    } else {
        println!("roundtrip: FAIL — reopened store diverged from the in-memory build");
        println!("--- live ---\n{live_transcript}--- reopened ---\n{reopened_transcript}");
        failed = true;
    }
    println!(
        "timings_us: create={create_us} commit_total={commit_us} checkpoint={checkpoint_us} reopen={reopen_us}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // -- 2. reduced crash matrix ----------------------------------------
    // find the fault-free mutation total (smallest completing budget)
    let full_acks = DML.len();
    let mut total = 1u64;
    loop {
        let dir = temp_dir("probe");
        let acked = drive(&dir, FailpointFs::with_budget(total), &engine);
        let _ = std::fs::remove_dir_all(&dir);
        if acked.map(|a| a.len()) == Some(full_acks) {
            break;
        }
        total *= 2;
        if total > 1 << 20 {
            eprintln!("storage: runaway fault-free mutation count");
            return ExitCode::FAILURE;
        }
    }

    let mut points = 0u64;
    for budget in (0..=total).step_by(stride) {
        let dir = temp_dir(&format!("crash{budget}"));
        let acked = drive(&dir, FailpointFs::with_budget(budget), &engine);
        match acked {
            None => {
                // creation itself crashed: nothing may be openable
                if Store::open_with_fs(&dir, FailpointFs::unlimited()).is_ok() {
                    println!(
                        "crash_matrix: FAIL — budget {budget} opened without a completed creation"
                    );
                    failed = true;
                }
            }
            Some(acked) => {
                let recovered = Store::open_with_fs(&dir, FailpointFs::unlimited())
                    .expect("recovery after injected crash");
                let mut model = baseline_db();
                for op in &acked {
                    model.apply_op(op).expect("acked op replays");
                }
                let same = (0..model.schema.tables.len())
                    .all(|ti| recovered.db().rows(ti) == model.rows(ti));
                if !same {
                    println!(
                        "crash_matrix: FAIL — budget {budget} ({} acks) did not recover to the acknowledged prefix",
                        acked.len()
                    );
                    failed = true;
                }
            }
        }
        points += 1;
        let _ = std::fs::remove_dir_all(&dir);
    }
    if !failed {
        println!(
            "crash_matrix: PASS ({points} fault points, stride {stride}, fault-free total {total})"
        );
    }

    if failed {
        println!("FAIL");
        ExitCode::FAILURE
    } else {
        println!("PASS");
        ExitCode::SUCCESS
    }
}
