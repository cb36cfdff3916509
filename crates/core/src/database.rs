//! In-memory databases: a [`Schema`] plus row data per table.
//!
//! This is the `D` in the survey's `E(e, D) → r`. Storage is deliberately a
//! plain row store — the workloads in this reproduction are small dev sets,
//! and a row store keeps execution semantics auditable.

use crate::batch::ColumnBatch;
use crate::error::{NliError, Result};
use crate::index::ColumnIndex;
use crate::schema::Schema;
use crate::stats::{DatabaseStats, TableStats};
use crate::value::DataType;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Row data for one table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TableData {
    pub rows: Vec<Vec<Value>>,
}

/// Process-wide source of stats epochs. Epochs are globally unique (never
/// reused across databases), so a plan cached under `(source, schema
/// fingerprint, epoch)` can only ever be served for row data identical to
/// what it was costed against.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Cached handle for the deterministic `sql.index.builds` counter: one
/// bump per secondary index actually constructed (builds happen under the
/// views lock, exactly once per `(database, column)` until that column's
/// table is written).
fn index_builds() -> &'static crate::obs::Counter {
    static BUILDS: std::sync::OnceLock<crate::obs::Counter> = std::sync::OnceLock::new();
    BUILDS.get_or_init(|| crate::obs::global().counter("sql.index.builds"))
}

/// A derived-view lock is poisoned only if a build panicked while holding
/// it, which is a bug in this crate.
const POISONED: &str = "derived-view lock poisoned";

/// Cached index slot: `None` records a column that cannot be indexed
/// (Mixed data), so the build is not retried on every probe.
type IndexSlot = Option<Arc<ColumnIndex>>;

/// One table's cached views.
#[derive(Clone, Default)]
struct TableViews {
    columnar: Option<Arc<ColumnBatch>>,
    stats: Option<Arc<TableStats>>,
    /// Secondary indexes keyed by column.
    indexes: BTreeMap<usize, IndexSlot>,
}

/// Derived, lazily computed views of the row store, kept per table: the
/// columnar form, the table statistics and the secondary indexes, plus the
/// database's stats epoch. A write through [`Database::insert`] or
/// [`Database::apply_op`] drops only the written table's views (and moves
/// the epoch); code that mutates `Database::data` directly must call
/// [`Database::invalidate_derived`] itself.
#[derive(Default)]
pub(crate) struct Derived {
    /// 0 = not yet assigned (assigned on first read, or on mutation).
    epoch: AtomicU64,
    /// Index-aligned with `Database::data`; grown on first use.
    tables: Mutex<Vec<TableViews>>,
    /// [`DatabaseStats`] assembled from the per-table statistics.
    stats: Mutex<Option<Arc<DatabaseStats>>>,
}

impl Clone for Derived {
    fn clone(&self) -> Self {
        // A clone starts with identical row data, so it may keep the epoch
        // and share the cached views; the sides diverge (and re-key) only
        // when one of them is mutated, and then only for the written table.
        Derived {
            epoch: AtomicU64::new(self.epoch.load(Ordering::Relaxed)),
            tables: Mutex::new(self.tables.lock().expect(POISONED).clone()),
            stats: Mutex::new(self.stats.lock().expect(POISONED).clone()),
        }
    }
}

impl std::fmt::Debug for Derived {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Derived")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A populated database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Database {
    pub schema: Schema,
    /// One [`TableData`] per `schema.tables` entry, index-aligned.
    pub data: Vec<TableData>,
    /// Columns with an explicitly declared secondary index, as sorted
    /// `(table, column)` schema indices. Engines whose auto-index policy
    /// is off consult exactly this set when extracting index access paths
    /// (see [`Database::create_index`]).
    #[serde(default)]
    index_decls: std::collections::BTreeSet<(usize, usize)>,
    /// Cached derived views (columnar form, statistics, secondary
    /// indexes) plus the stats epoch; never serialized, rebuilt on demand.
    #[serde(skip, default)]
    pub(crate) derived: Derived,
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        // Derived state is a cache of (schema, data); it never
        // participates in equality.
        self.schema == other.schema
            && self.data == other.data
            && self.index_decls == other.index_decls
    }
}

impl Database {
    /// An empty database over `schema`.
    pub fn empty(schema: Schema) -> Self {
        let data = vec![TableData::default(); schema.tables.len()];
        Database {
            schema,
            data,
            index_decls: Default::default(),
            derived: Derived::default(),
        }
    }

    /// Assemble a database from recovered parts (the storage layer's
    /// constructor — segment rows are trusted via their checksums, WAL
    /// replay then goes through [`Database::apply_op`]).
    pub(crate) fn from_parts(
        schema: Schema,
        data: Vec<TableData>,
        index_decls: std::collections::BTreeSet<(usize, usize)>,
    ) -> Self {
        Database {
            schema,
            data,
            index_decls,
            derived: Derived::default(),
        }
    }

    /// The database's *stats epoch*: a process-unique version number for
    /// its row data. Every mutation through [`Database::insert`] or
    /// [`Database::apply_op`] (and every [`Database::invalidate_derived`])
    /// moves it to a fresh value, whichever table was written, so
    /// `(schema fingerprint, stats epoch)` identifies the exact data a
    /// cost-based plan was built against — the plan-cache key
    /// ([`crate::PlanCache`]).
    pub fn stats_epoch(&self) -> u64 {
        let cur = self.derived.epoch.load(Ordering::Relaxed);
        if cur != 0 {
            return cur;
        }
        let fresh = fresh_epoch();
        match self
            .derived
            .epoch
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(won) => won,
        }
    }

    /// Drop all cached derived views and return the stats epoch to the
    /// unassigned state — the next [`Database::stats_epoch`] read draws a
    /// fresh, never-before-seen value. Call after mutating
    /// [`Database::data`] directly; [`Database::insert`] and
    /// [`Database::apply_op`] drop what they changed for you.
    pub fn invalidate_derived(&mut self) {
        *self.derived.epoch.get_mut() = 0;
        self.derived.tables.get_mut().expect(POISONED).clear();
        *self.derived.stats.get_mut().expect(POISONED) = None;
    }

    /// Drop the cached views of the table at schema index `ti` (and the
    /// assembled [`DatabaseStats`]) and move the stats epoch; the other
    /// tables keep theirs. Every write path calls this for the table it
    /// wrote.
    pub(crate) fn invalidate_table(&mut self, ti: usize) {
        *self.derived.epoch.get_mut() = 0;
        if let Some(views) = self.derived.tables.get_mut().expect(POISONED).get_mut(ti) {
            *views = TableViews::default();
        }
        *self.derived.stats.get_mut().expect(POISONED) = None;
    }

    /// Run `f` on the cached views of the table at schema index `ti`,
    /// under the views lock.
    fn with_views<R>(&self, ti: usize, f: impl FnOnce(&mut TableViews) -> R) -> R {
        let mut tables = self.derived.tables.lock().expect(POISONED);
        if tables.len() < self.data.len() {
            tables.resize(self.data.len(), TableViews::default());
        }
        f(&mut tables[ti])
    }

    /// `views.columnar` for the table at schema index `ti`, built from its
    /// rows on first use.
    fn columnar_in(&self, ti: usize, views: &mut TableViews) -> Arc<ColumnBatch> {
        Arc::clone(views.columnar.get_or_insert_with(|| {
            let dtypes: Vec<_> = self.schema.tables[ti]
                .columns
                .iter()
                .map(|c| c.dtype)
                .collect();
            Arc::new(ColumnBatch::from_rows(&dtypes, &self.data[ti].rows))
        }))
    }

    /// The columnar form ([`ColumnBatch`]) of the table at schema index
    /// `ti`, built on first use and cached until the table is written.
    pub fn columnar(&self, ti: usize) -> Arc<ColumnBatch> {
        self.with_views(ti, |views| self.columnar_in(ti, views))
    }

    /// Statistics of the table at schema index `ti`, computed on first use
    /// (from the columnar form) and cached until the table is written.
    pub fn table_stats(&self, ti: usize) -> Arc<TableStats> {
        self.with_views(ti, |views| {
            if let Some(stats) = &views.stats {
                return Arc::clone(stats);
            }
            let stats = Arc::new(TableStats::compute(&self.columnar_in(ti, views)));
            views.stats = Some(Arc::clone(&stats));
            stats
        })
    }

    /// Table statistics for the whole database, assembled from the
    /// per-table statistics ([`Database::table_stats`]) and cached until
    /// any table is written.
    pub fn stats(&self) -> Arc<DatabaseStats> {
        // Lock order: the stats lock, then the views lock (table_stats).
        let mut slot = self.derived.stats.lock().expect(POISONED);
        Arc::clone(slot.get_or_insert_with(|| {
            let tables = (0..self.data.len())
                .map(|ti| TableStats::clone(&self.table_stats(ti)))
                .collect();
            Arc::new(DatabaseStats { tables })
        }))
    }

    /// Declare a secondary index on `table.column`. Returns `Ok(true)` if
    /// the declaration is new, `Ok(false)` if it already existed. A new
    /// declaration invalidates derived state (and so the stats epoch), so
    /// cached plans built against the old declaration set re-plan.
    ///
    /// The index itself is built lazily, on the first probe that needs it
    /// (see [`Database::index`]); declaring is cheap.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<bool> {
        let ti = self
            .schema
            .table_index(table)
            .ok_or_else(|| NliError::UnknownTable(table.to_string()))?;
        let ci = self.schema.tables[ti]
            .columns
            .iter()
            .position(|c| c.name == column)
            .ok_or_else(|| NliError::UnknownColumn(format!("{table}.{column}")))?;
        Ok(self.create_index_at(ti, ci))
    }

    /// [`Database::create_index`] by schema indices (the storage layer's
    /// replay path; bounds are the caller's responsibility). Returns
    /// whether the declaration is new.
    pub fn create_index_at(&mut self, ti: usize, ci: usize) -> bool {
        if !self.index_decls.insert((ti, ci)) {
            return false;
        }
        self.invalidate_derived();
        true
    }

    /// The explicitly declared secondary indexes, as sorted
    /// `(table, column)` schema indices.
    pub fn index_declarations(&self) -> &std::collections::BTreeSet<(usize, usize)> {
        &self.index_decls
    }

    /// The secondary index over column `ci` of the table at schema index
    /// `ti`, built on first use (from the cached columnar form) and cached
    /// until the table is written — exactly the lifecycle of
    /// [`Database::columnar`] and [`Database::table_stats`], so a stale
    /// index can never serve a read. Returns `None` for columns whose
    /// stored values degraded to [`crate::ColumnData::Mixed`].
    ///
    /// Builds happen under the views lock, so each `(ti, ci)` pair builds
    /// exactly once until its table is written and the
    /// `sql.index.builds` counter is deterministic at any worker count.
    pub fn index(&self, ti: usize, ci: usize) -> Option<Arc<ColumnIndex>> {
        self.with_views(ti, |views| {
            if let Some(slot) = views.indexes.get(&ci) {
                return slot.clone();
            }
            let batch = self.columnar_in(ti, views);
            let built = ColumnIndex::build(&batch.columns[ci]).map(Arc::new);
            if built.is_some() {
                index_builds().inc();
            }
            views.indexes.insert(ci, built.clone());
            built
        })
    }

    /// Replace the cached index for `(ti, ci)` with a corrupted copy
    /// (first row id dropped from every posting list) *without* moving the
    /// stats epoch — the fuzz harness's negative-test hook. Returns whether
    /// an index existed to corrupt.
    #[doc(hidden)]
    pub fn corrupt_index_for_test(&self, ti: usize, ci: usize) -> bool {
        let Some(idx) = self.index(ti, ci) else {
            return false;
        };
        let mut corrupted = (*idx).clone();
        corrupted.corrupt_postings_for_test();
        self.with_views(ti, |views| {
            views.indexes.insert(ci, Some(Arc::new(corrupted)))
        });
        true
    }

    /// Insert a row into the named table, checking arity and (non-NULL)
    /// column types.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        let ti = self
            .schema
            .table_index(table)
            .ok_or_else(|| NliError::UnknownTable(table.to_string()))?;
        self.validate_row(ti, &row)?;
        let row = self.coerce_row(ti, row);
        self.data[ti].rows.push(row);
        self.invalidate_table(ti);
        Ok(())
    }

    /// Check one row's arity and (non-NULL) cell types against the table
    /// at schema index `ti` — the insert-path validation, shared with
    /// [`Database::validate_op`].
    pub(crate) fn validate_row(&self, ti: usize, row: &[Value]) -> Result<()> {
        let t = &self.schema.tables[ti];
        if row.len() != t.columns.len() {
            return Err(NliError::Execution(format!(
                "table {} expects {} values, got {}",
                t.name,
                t.columns.len(),
                row.len()
            )));
        }
        for (ci, v) in row.iter().enumerate() {
            self.validate_cell(ti, ci, v)?;
        }
        Ok(())
    }

    /// Check one value against the declared type of column `ci` of the
    /// table at schema index `ti`. NULL is accepted in any column, and an
    /// `Int` is accepted by a `Float` column — the write-side face of the
    /// engine's canonical-equality rule that integral floats and ints are
    /// the same value (the parser prints/parses `3.0` as `3`); the stored
    /// cell is widened by [`Database::coerce_row`] at apply time.
    pub(crate) fn validate_cell(&self, ti: usize, ci: usize, v: &Value) -> Result<()> {
        let t = &self.schema.tables[ti];
        let c = &t.columns[ci];
        if let Some(dt) = v.data_type() {
            if dt != c.dtype && !(dt == DataType::Int && c.dtype == DataType::Float) {
                return Err(NliError::Execution(format!(
                    "column {}.{} expects {}, got {}",
                    t.name,
                    c.name,
                    c.dtype.name(),
                    dt.name()
                )));
            }
        }
        Ok(())
    }

    /// Widen cells to their column's declared type where validation allows
    /// the narrower spelling (`Int` landing in a `Float` column). Runs on
    /// every mutation path — [`Database::insert`] and
    /// [`Database::apply_op`] — so live execution and WAL replay store
    /// byte-identical cells.
    pub(crate) fn coerce_row(&self, ti: usize, mut row: Vec<Value>) -> Vec<Value> {
        for (ci, v) in row.iter_mut().enumerate() {
            *v = self.coerce_cell(ti, ci, std::mem::replace(v, Value::Null));
        }
        row
    }

    /// [`Database::coerce_row`] for a single cell.
    pub(crate) fn coerce_cell(&self, ti: usize, ci: usize, v: Value) -> Value {
        match (self.schema.tables[ti].columns[ci].dtype, v) {
            (DataType::Float, Value::Int(i)) => Value::Float(i as f64),
            (_, v) => v,
        }
    }

    /// Insert many rows; stops at the first error.
    pub fn insert_all(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<()> {
        for row in rows {
            self.insert(table, row)?;
        }
        Ok(())
    }

    /// Rows of the table at schema index `ti`.
    pub fn rows(&self, ti: usize) -> &[Vec<Value>] {
        &self.data[ti].rows
    }

    /// Rows of the named table.
    pub fn rows_of(&self, table: &str) -> Result<&[Vec<Value>]> {
        let ti = self
            .schema
            .table_index(table)
            .ok_or_else(|| NliError::UnknownTable(table.to_string()))?;
        Ok(&self.data[ti].rows)
    }

    /// Total number of stored rows.
    pub fn row_count(&self) -> usize {
        self.data.iter().map(|t| t.rows.len()).sum()
    }

    /// Distinct non-NULL values of one column, in first-seen order. Schema
    /// linking and value-grounded parsing use this to match question tokens
    /// against database *content* (the BIRD-style challenge).
    pub fn distinct_values(&self, table: usize, column: usize) -> Vec<Value> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for row in &self.data[table].rows {
            let v = &row[column];
            if v.is_null() {
                continue;
            }
            if seen.insert(v.canonical()) {
                out.push(v.clone());
            }
        }
        out
    }

    /// Verify referential integrity of all declared foreign keys.
    pub fn check_foreign_keys(&self) -> Result<()> {
        for fk in &self.schema.foreign_keys {
            let targets: std::collections::HashSet<String> = self.data[fk.to.table]
                .rows
                .iter()
                .map(|r| r[fk.to.column].canonical())
                .collect();
            for row in &self.data[fk.from.table].rows {
                let v = &row[fk.from.column];
                if v.is_null() {
                    continue;
                }
                if !targets.contains(&v.canonical()) {
                    return Err(NliError::Execution(format!(
                        "dangling foreign key {} = {}",
                        self.schema.qualified_name(fk.from),
                        v
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Table};
    use crate::value::DataType;

    fn db() -> Database {
        let mut schema = Schema::new(
            "shop",
            vec![
                Table::new(
                    "products",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("name", DataType::Text),
                    ],
                ),
                Table::new(
                    "sales",
                    vec![
                        Column::new("product_id", DataType::Int),
                        Column::new("amount", DataType::Float),
                    ],
                ),
            ],
        );
        schema
            .add_foreign_key("sales", "product_id", "products", "id")
            .unwrap();
        Database::empty(schema)
    }

    #[test]
    fn insert_checks_arity_and_types() {
        let mut d = db();
        d.insert("products", vec![1.into(), "ball".into()]).unwrap();
        assert!(d.insert("products", vec![1.into()]).is_err());
        assert!(d
            .insert("products", vec!["oops".into(), "ball".into()])
            .is_err());
        assert!(d.insert("nope", vec![]).is_err());
    }

    #[test]
    fn null_is_accepted_in_any_column() {
        let mut d = db();
        d.insert("products", vec![Value::Null, Value::Null])
            .unwrap();
        assert_eq!(d.row_count(), 1);
    }

    #[test]
    fn distinct_values_dedup_in_order() {
        let mut d = db();
        d.insert_all(
            "products",
            vec![
                vec![1.into(), "ball".into()],
                vec![2.into(), "bat".into()],
                vec![3.into(), "ball".into()],
                vec![4.into(), Value::Null],
            ],
        )
        .unwrap();
        let vals = d.distinct_values(0, 1);
        assert_eq!(vals, vec![Value::from("ball"), Value::from("bat")]);
    }

    #[test]
    fn create_index_declares_once_and_bumps_the_epoch() {
        let mut d = db();
        d.insert("products", vec![1.into(), "ball".into()]).unwrap();
        let e1 = d.stats_epoch();
        assert!(d.create_index("products", "name").unwrap());
        assert_ne!(d.stats_epoch(), e1, "a new declaration must re-key plans");
        let e2 = d.stats_epoch();
        assert!(!d.create_index("products", "name").unwrap());
        assert_eq!(d.stats_epoch(), e2, "re-declaring is a no-op");
        assert_eq!(
            d.index_declarations().iter().copied().collect::<Vec<_>>(),
            vec![(0, 1)]
        );
        assert!(d.create_index("nope", "name").is_err());
        assert!(d.create_index("products", "nope").is_err());
    }

    #[test]
    fn index_is_cached_per_epoch_and_dropped_on_mutation() {
        let mut d = db();
        d.insert_all(
            "products",
            vec![vec![1.into(), "ball".into()], vec![2.into(), "bat".into()]],
        )
        .unwrap();
        let idx = d.index(0, 1).unwrap();
        assert_eq!(idx.eq_rows(&Value::from("bat")), vec![1]);
        assert!(
            Arc::ptr_eq(&idx, &d.index(0, 1).unwrap()),
            "second probe must serve the cached index"
        );
        d.insert("products", vec![3.into(), "bat".into()]).unwrap();
        let fresh = d.index(0, 1).unwrap();
        assert!(
            !Arc::ptr_eq(&idx, &fresh),
            "mutation must drop the cached index"
        );
        assert_eq!(fresh.eq_rows(&Value::from("bat")), vec![1, 2]);
    }

    #[test]
    fn corruption_hook_survives_until_the_next_invalidation() {
        let mut d = db();
        d.insert_all(
            "products",
            vec![vec![1.into(), "ball".into()], vec![2.into(), "ball".into()]],
        )
        .unwrap();
        assert!(d.corrupt_index_for_test(0, 1));
        assert_eq!(
            d.index(0, 1).unwrap().eq_rows(&Value::from("ball")),
            vec![1],
            "corrupted index must serve (that is the point of the hook)"
        );
        d.invalidate_derived();
        assert_eq!(
            d.index(0, 1).unwrap().eq_rows(&Value::from("ball")),
            vec![0, 1],
            "invalidation must rebuild an honest index"
        );
    }

    #[test]
    fn foreign_key_check_detects_dangles() {
        let mut d = db();
        d.insert("products", vec![1.into(), "ball".into()]).unwrap();
        d.insert("sales", vec![1.into(), 9.5.into()]).unwrap();
        d.check_foreign_keys().unwrap();
        d.insert("sales", vec![99.into(), 1.0.into()]).unwrap();
        assert!(d.check_foreign_keys().is_err());
    }
}
