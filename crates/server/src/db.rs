//! The server's view of the database: an atomically-swappable snapshot
//! plus (optionally) the durable [`Store`] behind it.
//!
//! Reads never block writes and writes never block reads: every read
//! path (`ASK`, `SQL` selects, `EXEC`, `PREPARE`) clones an
//! `Arc<Database>` out of [`DbHandle::snapshot`] and runs against that
//! immutable image for its whole request — a DML statement that lands
//! mid-request is simply not visible to it. DML serializes on the store
//! lock (compute op → journal → apply → publish a fresh snapshot), so
//! acknowledged writes are durable *before* they become visible, and the
//! published image always equals segments + WAL (see DESIGN.md §3.8).
//!
//! Without `--data-dir` there is no store and the handle is read-only:
//! DML frames are refused with an execution error instead of mutating
//! state that would vanish on restart.

use nli_core::{Database, NliError, Result, Store};
use nli_sql::{parse_statement, SqlEngine, Statement};
use std::sync::{Arc, Mutex};

/// What one committed DML statement did: rows affected and the WAL
/// record bytes its journal ack cost. The server charges `wal_bytes` to
/// the issuing tenant's accounting (`STATS TENANT <id>` → `wal_bytes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmlReceipt {
    pub affected: u64,
    pub wal_bytes: u64,
}

/// Shared database handle: the current snapshot and, when the server is
/// durable, the [`Store`] every DML statement commits through.
pub struct DbHandle {
    current: Mutex<Arc<Database>>,
    store: Option<Mutex<Store>>,
}

impl DbHandle {
    /// A read-only handle over a fixed database (no `--data-dir`).
    pub fn read_only(db: Arc<Database>) -> DbHandle {
        DbHandle {
            current: Mutex::new(db),
            store: None,
        }
    }

    /// A durable handle: the snapshot starts as the store's recovered
    /// image and every committed DML publishes a fresh one.
    pub fn durable(store: Store) -> DbHandle {
        DbHandle {
            current: Mutex::new(Arc::new(store.db().clone())),
            store: Some(Mutex::new(store)),
        }
    }

    /// Whether DML is accepted (a store is attached).
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// The current consistent snapshot. Cheap (one `Arc` clone); the
    /// returned image never changes, no matter what commits afterwards.
    pub fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&self.current.lock().unwrap())
    }

    /// Parse and commit one DML statement: plan and compute the physical
    /// op against the store's live image, journal it (the `Ok` is the
    /// durability acknowledgement), then publish the post-image snapshot.
    /// Returns rows affected.
    pub fn execute_dml(&self, engine: &SqlEngine, sql: &str) -> Result<u64> {
        self.execute_dml_metered(engine, sql).map(|r| r.affected)
    }

    /// [`DbHandle::execute_dml`] plus accounting: how many WAL record
    /// bytes this particular commit appended. The delta is read under the
    /// store lock (before/after the commit), so concurrent DML from other
    /// connections cannot be misattributed.
    pub fn execute_dml_metered(&self, engine: &SqlEngine, sql: &str) -> Result<DmlReceipt> {
        let stmt = parse_statement(sql)?;
        if matches!(stmt, Statement::Select(_)) {
            return Err(NliError::Execution(
                "not a DML statement; SELECT goes through the query path".to_string(),
            ));
        }
        let Some(store) = &self.store else {
            return Err(NliError::Execution(
                "server is read-only: restart with --data-dir to enable DML".to_string(),
            ));
        };
        let mut store = store.lock().unwrap();
        let wal_before = store.wal_bytes_appended();
        let op = engine.compute_dml_op(&stmt, store.db())?;
        let affected = store.commit(&op)?;
        let wal_bytes = store.wal_bytes_appended() - wal_before;
        // Publish only after the journal ack: a snapshot can trail the
        // WAL but must never run ahead of it.
        let fresh = Arc::new(store.db().clone());
        let replaced = std::mem::replace(
            &mut *self.current.lock().expect("snapshot lock poisoned"),
            fresh,
        );
        drop(store);
        // Often the last reference to the old image: free it row by row
        // only after both locks are released.
        drop(replaced);
        Ok(DmlReceipt {
            affected,
            wal_bytes,
        })
    }

    /// Fold the WAL into fresh segments (see [`Store::checkpoint`]).
    /// No-op error on a read-only handle.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(store) = &self.store else {
            return Err(NliError::Execution(
                "server is read-only: nothing to checkpoint".to_string(),
            ));
        };
        store.lock().unwrap().checkpoint()
    }
}

/// Does this statement text start with a DML keyword? The server routes
/// on this *before* parsing: DML runs inline on the connection thread
/// under the store lock, never through the identical-statement batcher
/// (batching dedups identical texts — correct for reads, catastrophic
/// for `INSERT`: two clients inserting the same row must insert twice).
pub fn is_dml_text(sql: &str) -> bool {
    let first = sql.split_whitespace().next().unwrap_or("");
    first.eq_ignore_ascii_case("insert")
        || first.eq_ignore_ascii_case("update")
        || first.eq_ignore_ascii_case("delete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_core::{Column, DataType, Schema, Table, Value};

    fn tiny_db() -> Database {
        let schema = Schema::new(
            "shop",
            vec![Table::new(
                "items",
                vec![
                    Column::new("id", DataType::Int).primary(),
                    Column::new("qty", DataType::Int),
                ],
            )],
        );
        let mut d = Database::empty(schema);
        d.insert_all(
            "items",
            (1..=3).map(|i| vec![Value::Int(i), Value::Int(10 * i)]),
        )
        .unwrap();
        d
    }

    #[test]
    fn dml_detection_is_keyword_prefix_case_insensitive() {
        assert!(is_dml_text("INSERT INTO t VALUES (1)"));
        assert!(is_dml_text("  update t set a = 1"));
        assert!(is_dml_text("\tDelete FROM t"));
        assert!(!is_dml_text("SELECT * FROM t"));
        assert!(!is_dml_text("EXPLAIN SELECT 1"));
        assert!(!is_dml_text(""));
    }

    #[test]
    fn read_only_handle_refuses_dml_but_snapshots() {
        let h = DbHandle::read_only(Arc::new(tiny_db()));
        assert!(!h.is_durable());
        assert_eq!(h.snapshot().rows(0).len(), 3);
        let err = h
            .execute_dml(&SqlEngine::new(), "DELETE FROM items")
            .unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
        assert_eq!(h.snapshot().rows(0).len(), 3, "nothing mutated");
    }

    #[test]
    fn durable_handle_publishes_snapshots_after_commit() {
        let dir =
            std::env::temp_dir().join(format!("nli-dbhandle-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = DbHandle::durable(Store::create(&dir, tiny_db()).unwrap());
        let engine = SqlEngine::new();
        let before = h.snapshot();
        let n = h
            .execute_dml(&engine, "UPDATE items SET qty = 0 WHERE id >= 2")
            .unwrap();
        assert_eq!(n, 2);
        // the old snapshot is untouched; the new one sees the write
        assert_eq!(before.rows(0)[1][1], Value::Int(20));
        assert_eq!(h.snapshot().rows(0)[1][1], Value::Int(0));
        // the write survives reopen
        drop(h);
        let reopened = DbHandle::durable(Store::open(&dir).unwrap());
        assert_eq!(reopened.snapshot().rows(0)[2][1], Value::Int(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metered_dml_charges_wal_bytes_per_commit() {
        let dir =
            std::env::temp_dir().join(format!("nli-dbhandle-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = DbHandle::durable(Store::create(&dir, tiny_db()).unwrap());
        let engine = SqlEngine::new();
        let r1 = h
            .execute_dml_metered(&engine, "INSERT INTO items (id, qty) VALUES (4, 40)")
            .unwrap();
        assert_eq!(r1.affected, 1);
        assert!(r1.wal_bytes > 0, "a commit appends a WAL record");
        let r2 = h
            .execute_dml_metered(&engine, "DELETE FROM items WHERE id <= 2")
            .unwrap();
        assert_eq!(r2.affected, 2);
        assert!(r2.wal_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn select_text_is_rejected_by_execute_dml() {
        let h = DbHandle::read_only(Arc::new(tiny_db()));
        let err = h
            .execute_dml(&SqlEngine::new(), "SELECT * FROM items")
            .unwrap_err();
        assert!(err.to_string().contains("not a DML"), "{err}");
    }
}
