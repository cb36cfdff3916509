//! The crash-recovery matrix: a fixed scripted workload is run against a
//! [`Store`] under a [`FailpointFs`] armed to crash after exactly `n`
//! successful filesystem mutations, for *every* `n` from 0 through one
//! past the fault-free total. After each injected crash the directory is
//! recovered with a clean filesystem and the recovered database must
//! equal the model rebuilt from the acknowledged prefix — every commit
//! whose `Ok` the workload observed is present, every other statement is
//! absent, with nothing in between.
//!
//! This is the storage engine's central durability claim (DESIGN.md §3.8)
//! made exhaustive: no fault point anywhere in segment writes, WAL
//! appends, checkpoint folds, or manifest renames loses an acknowledged
//! write or resurrects an unacknowledged one.

use nli_core::{Column, DataType, Database, DmlOp, FailpointFs, Prng, Schema, Store, Table};
use nli_sql::{parse_statement, SqlEngine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn seed_db() -> Database {
    let schema = Schema::new(
        "crashdb",
        vec![
            Table::new(
                "accounts",
                vec![
                    Column::new("id", DataType::Int).primary(),
                    Column::new("owner", DataType::Text),
                    Column::new("balance", DataType::Float),
                ],
            ),
            Table::new(
                "log",
                vec![
                    Column::new("seq", DataType::Int),
                    Column::new("note", DataType::Text),
                ],
            ),
        ],
    );
    let mut db = Database::empty(schema);
    db.insert_all(
        "accounts",
        vec![
            vec![1.into(), "ada".into(), 100.0.into()],
            vec![2.into(), "grace".into(), 250.0.into()],
            vec![3.into(), "alan".into(), 75.0.into()],
        ],
    )
    .unwrap();
    db
}

/// The scripted workload: a deterministic mix of inserts, updates,
/// deletes, an index declaration, and mid-stream checkpoints — every
/// storage mutation kind the engine has, in one script.
fn workload() -> Vec<Step> {
    let mut steps = vec![
        Step::Sql("INSERT INTO accounts VALUES (4, 'edsger', 10.0)"),
        Step::Sql("UPDATE accounts SET balance = balance + 5.0 WHERE id <= 2"),
        Step::Checkpoint,
        Step::Sql("INSERT INTO log VALUES (1, 'first'), (2, 'second')"),
        Step::Sql("DELETE FROM accounts WHERE balance < 50.0"),
        Step::Index("accounts", "owner"),
        Step::Sql("UPDATE accounts SET owner = 'unknown' WHERE balance > 200.0"),
        Step::Checkpoint,
        Step::Sql("INSERT INTO accounts VALUES (5, 'barbara', 42.5)"),
        Step::Sql("DELETE FROM log WHERE seq = 1"),
    ];
    // pad with generated traffic so the WAL grows past one block of ops
    let mut rng = Prng::new(0x000C_4A54);
    for i in 0..6 {
        let id = 10 + i;
        let bal = rng.range(1, 99) as f64;
        steps.push(Step::SqlOwned(format!(
            "INSERT INTO accounts VALUES ({id}, 'gen', {bal})"
        )));
        if i % 2 == 1 {
            steps.push(Step::SqlOwned(format!(
                "UPDATE accounts SET balance = {bal} WHERE owner = 'gen'"
            )));
        }
    }
    steps
}

enum Step {
    Sql(&'static str),
    SqlOwned(String),
    Index(&'static str, &'static str),
    Checkpoint,
}

impl Step {
    fn sql(&self) -> Option<&str> {
        match self {
            Step::Sql(s) => Some(s),
            Step::SqlOwned(s) => Some(s),
            _ => None,
        }
    }
}

/// A fresh directory per call: tests running at the same time never share
/// (and so never remove) each other's stores.
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nli-crash-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Outcome of driving the workload against a store until the injected
/// crash fires (or the script completes).
struct DriveResult {
    /// Ops the store acknowledged (`commit` returned `Ok`), in order.
    acked: Vec<DmlOp>,
    /// Whether the store was even created (budget 0 can kill creation).
    created: bool,
}

/// Drive the scripted workload against `dir` under `fs`. Each statement's
/// op is computed against the store's live image right before commit, so
/// the acknowledged-prefix model replays exactly what the store applied.
fn drive(dir: &PathBuf, fs: FailpointFs) -> DriveResult {
    let engine = SqlEngine::new();
    let mut acked = Vec::new();
    let Ok(mut store) = Store::create_with_fs(dir, seed_db(), fs) else {
        return DriveResult {
            acked,
            created: false,
        };
    };
    for step in workload() {
        match &step {
            Step::Checkpoint => {
                // a failed checkpoint loses nothing — the old generation
                // and its WAL stay the recovery source
                if store.checkpoint().is_err() {
                    break;
                }
            }
            Step::Index(t, c) => {
                let ti = store.db().schema.table_index(t).unwrap();
                let ci = store.db().schema.tables[ti]
                    .columns
                    .iter()
                    .position(|col| col.name == *c)
                    .unwrap();
                let op = DmlOp::CreateIndex {
                    table: ti,
                    column: ci,
                };
                match store.commit(&op) {
                    Ok(_) => acked.push(op),
                    Err(_) => break,
                }
            }
            _ => {
                let sql = step.sql().unwrap();
                let stmt = parse_statement(sql).expect(sql);
                let op = engine.compute_dml_op(&stmt, store.db()).expect(sql);
                match store.commit(&op) {
                    Ok(_) => acked.push(op),
                    Err(_) => break,
                }
            }
        }
    }
    DriveResult {
        acked,
        created: true,
    }
}

/// The model: seed + every acknowledged op, applied in order.
fn model_of(acked: &[DmlOp]) -> Database {
    let mut db = seed_db();
    for op in acked {
        db.apply_op(op).expect("acked op replays on the model");
    }
    db
}

fn assert_same_database(recovered: &Database, model: &Database, ctx: &str) {
    assert_eq!(
        recovered.schema.fingerprint(),
        model.schema.fingerprint(),
        "schema diverged {ctx}"
    );
    for ti in 0..model.schema.tables.len() {
        assert_eq!(
            recovered.rows(ti),
            model.rows(ti),
            "table {} diverged {ctx}",
            model.schema.tables[ti].name
        );
    }
    assert_eq!(
        recovered.index_declarations(),
        model.index_declarations(),
        "index declarations diverged {ctx}"
    );
}

/// How many filesystem mutations the fault-free run performs — the
/// matrix's upper bound, measured rather than hard-coded so workload
/// edits can't silently shrink coverage.
fn fault_free_total() -> u64 {
    let dir = temp_dir("total");
    let fs = FailpointFs::with_budget(u64::MAX);
    let r = drive(&dir, fs);
    assert!(r.created, "fault-free run must complete");
    // recount by re-running with a generous budget and binary-searching
    // is overkill: drive() again, counting via successive budgets below.
    let _ = std::fs::remove_dir_all(&dir);
    // find the smallest budget at which the full script completes
    let full_acks = r.acked.len();
    let mut n = 1u64;
    loop {
        let dir = temp_dir("probe");
        let r = drive(&dir, FailpointFs::with_budget(n));
        let _ = std::fs::remove_dir_all(&dir);
        if r.created && r.acked.len() == full_acks {
            return n;
        }
        n = (n * 2).max(n + 1);
        assert!(n < 1 << 20, "runaway fault-free mutation count");
    }
}

#[test]
fn every_fault_point_recovers_to_the_acknowledged_prefix() {
    let total = fault_free_total();
    assert!(total >= 20, "workload too small to be interesting: {total}");
    let mut distinct_ack_counts = std::collections::BTreeSet::new();

    for budget in 0..=total {
        let dir = temp_dir(&format!("m{budget}"));
        let result = drive(&dir, FailpointFs::with_budget(budget));
        distinct_ack_counts.insert(result.acked.len());
        if !result.created {
            // creation died before the first manifest rename: there must
            // be no openable store, and nothing was acknowledged
            assert!(
                Store::open_with_fs(&dir, FailpointFs::unlimited()).is_err(),
                "budget {budget}: store opened but creation never acked"
            );
            assert!(result.acked.is_empty());
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        // recover with a clean filesystem and compare to the model
        let store = Store::open_with_fs(&dir, FailpointFs::unlimited())
            .unwrap_or_else(|e| panic!("budget {budget}: recovery failed: {e}"));
        let model = model_of(&result.acked);
        assert_same_database(
            store.db(),
            &model,
            &format!("(budget {budget}, {} acks)", result.acked.len()),
        );
        // and the recovered store keeps working: one more commit lands
        let mut store = store;
        let engine = SqlEngine::new();
        let stmt = parse_statement("INSERT INTO log VALUES (999, 'post-recovery')").unwrap();
        let op = engine.compute_dml_op(&stmt, store.db()).unwrap();
        assert_eq!(store.commit(&op).unwrap(), 1, "budget {budget}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // sanity: the matrix actually swept through distinct prefixes, from
    // nothing acknowledged up to the full script
    assert!(distinct_ack_counts.contains(&0));
    assert!(
        distinct_ack_counts.len() >= 5,
        "matrix collapsed: {distinct_ack_counts:?}"
    );
}

#[test]
fn double_recovery_is_idempotent() {
    // crash mid-script, recover, recover again without writing: the
    // second recovery must see exactly what the first one saw (torn-tail
    // truncation happens once and is stable)
    let total = fault_free_total();
    for budget in [total / 3, total / 2, total - 1] {
        let dir = temp_dir(&format!("idem{budget}"));
        let result = drive(&dir, FailpointFs::with_budget(budget));
        if !result.created {
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        let first = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap();
        let image = first.db().clone();
        drop(first);
        let second = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap();
        assert_same_database(
            second.db(),
            &image,
            &format!("(idempotence, budget {budget})"),
        );
        assert_eq!(
            second.recovery().truncated_bytes,
            0,
            "second recovery must be clean"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovered_stores_answer_queries_identically_to_the_model() {
    let engine = SqlEngine::new();
    let total = fault_free_total();
    let probes = [
        "SELECT COUNT(*) FROM accounts",
        "SELECT owner, SUM(balance) FROM accounts GROUP BY owner ORDER BY owner",
        "SELECT note FROM log ORDER BY seq",
    ];
    for budget in (0..=total).step_by(7) {
        let dir = temp_dir(&format!("q{budget}"));
        let result = drive(&dir, FailpointFs::with_budget(budget));
        if result.created {
            let store = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap();
            let model = model_of(&result.acked);
            for sql in probes {
                let a = engine.run_sql(sql, store.db()).unwrap();
                let b = engine.run_sql(sql, &model).unwrap();
                assert!(
                    a.matches_canonical(&b.to_canonical()),
                    "probe {sql} diverged at budget {budget}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
