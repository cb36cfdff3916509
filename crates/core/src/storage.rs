//! Durable storage: append-only columnar segment files plus a
//! length-prefixed, checksummed write-ahead log (WAL).
//!
//! This is the substrate a persistent NLIDB sits on (the engine sketched in
//! SNIPPETS' Volcano-model notes assumes exactly this split): bulk state
//! lives in immutable, per-table **segment files** written at checkpoint
//! time, and every mutation between checkpoints is journaled as a logical
//! [`DmlOp`] record in the WAL *before* it is applied in memory. Opening a
//! directory replays the journal over the segments, so the recovered
//! [`Database`] equals the last acknowledged state exactly.
//!
//! The byte-level layout of both files is specified field-by-field in
//! `docs/storage-format.md`; this module is the reference implementation.
//!
//! ## Commit and recovery contract
//!
//! * [`Store::commit`] appends the op to the WAL (one length-prefixed,
//!   CRC-protected record), syncs, then applies it to the in-memory
//!   database through [`Database::apply_op`]. Only a committed record is
//!   acknowledged — a crash between append and apply is invisible because
//!   replay applies the same op.
//! * [`Store::open`] loads the manifest's segments, then replays WAL
//!   records in sequence. A *torn tail* (a record that stops at
//!   end-of-file, or fails its checksum with nothing after it) is the
//!   expected signature of a crash mid-append: recovery truncates to the
//!   last good record and reports it. A checksum failure with more data
//!   *after* it is mid-file corruption — a hard [`NliError::Storage`]
//!   error, never silent data loss. Duplicate or out-of-order sequence
//!   numbers are likewise hard errors.
//! * [`Store::checkpoint`] rewrites the segments at the current state
//!   under a new generation number and commits by atomically renaming a
//!   fresh manifest over the old one; a crash at any point leaves either
//!   the old generation (plus its full WAL) or the new one intact.
//!
//! Snapshot consistency comes for free from the stats-epoch scheme:
//! [`Database::apply_op`] drops the written table's derived views and
//! moves the epoch, so cached columnar batches, statistics, indexes, and
//! cost-based plans are pinned to the data they were built from
//! (DESIGN.md §3.8).
//!
//! ## Deterministic fault injection
//!
//! [`FailpointFs`] gates every commit-path filesystem mutation (WAL
//! append, segment write, manifest write, rename, WAL create). With a
//! budget of `N`, the first `N` mutations succeed, and the `N+1`-th
//! simulates a crash: data writes persist only a prefix (a torn write),
//! renames do nothing, and the store refuses all further work. The
//! crash-recovery matrix (`tests/crash_recovery.rs`) drives a scripted
//! workload once per budget in `0..=total` and proves every prefix
//! recovers to exactly the acknowledged state.

use crate::database::{Database, TableData};
use crate::error::{NliError, Result};
use crate::obs;
use crate::schema::{Column, ColumnRef, ForeignKey, Schema, Table};
use crate::value::{DataType, Date, Value};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"NLISEG1\n";
/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"NLIWAL1\n";
/// Magic bytes opening the manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"NLIMAN1\n";
/// Manifest format version this build reads and writes.
pub const MANIFEST_VERSION: u32 = 1;
/// Upper bound on one WAL record's payload; a length prefix above this is
/// treated as corruption, not an allocation request.
pub const MAX_WAL_PAYLOAD: u32 = 1 << 30;

fn corrupt(msg: impl Into<String>) -> NliError {
    NliError::Storage(msg.into())
}

fn io_err(what: &str, e: std::io::Error) -> NliError {
    NliError::Storage(format!("{what}: {e}"))
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 of `bytes` (IEEE polynomial, the checksum both file formats use).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Binary encoding of values and ops
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append one value: a type tag byte followed by the fixed- or
/// length-prefixed payload (`docs/storage-format.md` §values).
fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(2);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            buf.push(3);
            put_u32(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.push(4);
            buf.push(u8::from(*b));
        }
        Value::Date(d) => {
            buf.push(5);
            buf.extend_from_slice(&d.year.to_le_bytes());
            buf.push(d.month);
            buf.push(d.day);
        }
    }
}

/// Bounds-checked reader over an encoded byte slice; every decode error is
/// a [`NliError::Storage`] so callers surface corruption, never panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("encoded record truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            2 => Value::Float(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            3 => {
                let n = self.u32()? as usize;
                let bytes = self.take(n)?;
                Value::Text(
                    std::str::from_utf8(bytes)
                        .map_err(|_| corrupt("text value is not valid UTF-8"))?
                        .to_string(),
                )
            }
            4 => Value::Bool(self.u8()? != 0),
            5 => {
                let year = i32::from_le_bytes(self.take(4)?.try_into().unwrap());
                let month = self.u8()?;
                let day = self.u8()?;
                Value::Date(Date { year, month, day })
            }
            tag => return Err(corrupt(format!("unknown value tag {tag}"))),
        })
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// One logical mutation, the unit both the WAL journals and
/// [`Database::apply_op`] applies. Ops carry *post-image* data (the rows
/// to insert, the cell values to store, the row positions to delete), so
/// replay is a pure function of the op sequence — it never re-evaluates
/// predicates or expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum DmlOp {
    /// Append `rows` to table `table` (schema index), in order.
    Insert { table: usize, rows: Vec<Vec<Value>> },
    /// Overwrite cells of existing rows: for each `(row, cells)` entry,
    /// store `value` at `(row, column)` for every `(column, value)` cell.
    /// Row positions are ascending and refer to the pre-op state.
    Update {
        table: usize,
        updates: Vec<(u64, Vec<(u32, Value)>)>,
    },
    /// Remove the rows at the given positions (strictly ascending,
    /// pre-op positions); remaining rows keep their relative order.
    Delete { table: usize, rows: Vec<u64> },
    /// Declare a secondary index on `(table, column)` schema indices.
    CreateIndex { table: usize, column: usize },
}

impl DmlOp {
    /// Encode to the WAL payload form (`docs/storage-format.md` §wal).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            DmlOp::Insert { table, rows } => {
                buf.push(1);
                put_u32(&mut buf, *table as u32);
                put_u32(&mut buf, rows.len() as u32);
                for row in rows {
                    put_u32(&mut buf, row.len() as u32);
                    for v in row {
                        put_value(&mut buf, v);
                    }
                }
            }
            DmlOp::Update { table, updates } => {
                buf.push(2);
                put_u32(&mut buf, *table as u32);
                put_u32(&mut buf, updates.len() as u32);
                for (row, cells) in updates {
                    put_u64(&mut buf, *row);
                    put_u32(&mut buf, cells.len() as u32);
                    for (col, v) in cells {
                        put_u32(&mut buf, *col);
                        put_value(&mut buf, v);
                    }
                }
            }
            DmlOp::Delete { table, rows } => {
                buf.push(3);
                put_u32(&mut buf, *table as u32);
                put_u32(&mut buf, rows.len() as u32);
                for r in rows {
                    put_u64(&mut buf, *r);
                }
            }
            DmlOp::CreateIndex { table, column } => {
                buf.push(4);
                put_u32(&mut buf, *table as u32);
                put_u32(&mut buf, *column as u32);
            }
        }
        buf
    }

    /// Decode a WAL payload. The whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<DmlOp> {
        let mut r = Reader::new(payload);
        let op = match r.u8()? {
            1 => {
                let table = r.u32()? as usize;
                let nrows = r.u32()? as usize;
                let mut rows = Vec::with_capacity(nrows.min(1 << 20));
                for _ in 0..nrows {
                    let ncols = r.u32()? as usize;
                    let mut row = Vec::with_capacity(ncols.min(1 << 16));
                    for _ in 0..ncols {
                        row.push(r.value()?);
                    }
                    rows.push(row);
                }
                DmlOp::Insert { table, rows }
            }
            2 => {
                let table = r.u32()? as usize;
                let n = r.u32()? as usize;
                let mut updates = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let row = r.u64()?;
                    let ncells = r.u32()? as usize;
                    let mut cells = Vec::with_capacity(ncells.min(1 << 16));
                    for _ in 0..ncells {
                        let col = r.u32()?;
                        cells.push((col, r.value()?));
                    }
                    updates.push((row, cells));
                }
                DmlOp::Update { table, updates }
            }
            3 => {
                let table = r.u32()? as usize;
                let n = r.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    rows.push(r.u64()?);
                }
                DmlOp::Delete { table, rows }
            }
            4 => DmlOp::CreateIndex {
                table: r.u32()? as usize,
                column: r.u32()? as usize,
            },
            tag => return Err(corrupt(format!("unknown op tag {tag}"))),
        };
        if !r.done() {
            return Err(corrupt("trailing bytes after op payload"));
        }
        Ok(op)
    }
}

// ---------------------------------------------------------------------------
// Applying ops to a database
// ---------------------------------------------------------------------------

impl Database {
    /// Check that `op` would apply cleanly against the current state
    /// (table/column/row bounds, ascending row positions, cell types) and
    /// return the number of rows it would affect. Mutates nothing — this
    /// is what [`Store::commit`] runs *before* journaling, so an op the
    /// database would reject never reaches the WAL.
    pub fn validate_op(&self, op: &DmlOp) -> Result<u64> {
        match op {
            DmlOp::Insert { table, rows } => {
                let ti = *table;
                self.check_table(ti)?;
                for row in rows {
                    self.validate_row(ti, row)?;
                }
                Ok(rows.len() as u64)
            }
            DmlOp::Update { table, updates } => {
                let ti = *table;
                self.check_table(ti)?;
                let ncols = self.schema.tables[ti].columns.len();
                let nrows = self.data[ti].rows.len();
                let mut prev: Option<u64> = None;
                for (row, cells) in updates {
                    if *row as usize >= nrows {
                        return Err(NliError::Execution(format!(
                            "update row {row} out of range (table has {nrows} rows)"
                        )));
                    }
                    if prev.is_some_and(|p| p >= *row) {
                        return Err(NliError::Execution(
                            "update rows must be strictly ascending".into(),
                        ));
                    }
                    prev = Some(*row);
                    for (col, v) in cells {
                        if *col as usize >= ncols {
                            return Err(NliError::Execution(format!(
                                "update column {col} out of range"
                            )));
                        }
                        self.validate_cell(ti, *col as usize, v)?;
                    }
                }
                Ok(updates.len() as u64)
            }
            DmlOp::Delete { table, rows } => {
                let ti = *table;
                self.check_table(ti)?;
                let nrows = self.data[ti].rows.len();
                let mut prev: Option<u64> = None;
                for row in rows {
                    if *row as usize >= nrows {
                        return Err(NliError::Execution(format!(
                            "delete row {row} out of range (table has {nrows} rows)"
                        )));
                    }
                    if prev.is_some_and(|p| p >= *row) {
                        return Err(NliError::Execution(
                            "delete rows must be strictly ascending".into(),
                        ));
                    }
                    prev = Some(*row);
                }
                Ok(rows.len() as u64)
            }
            DmlOp::CreateIndex { table, column } => {
                self.check_table(*table)?;
                if *column >= self.schema.tables[*table].columns.len() {
                    return Err(NliError::Execution(format!(
                        "index column {column} out of range"
                    )));
                }
                Ok(1)
            }
        }
    }

    /// Apply one [`DmlOp`] and return the number of rows affected. The
    /// single mutation entry point shared by live execution (both the
    /// tree-walk and the vectorized DML paths build ops and apply them
    /// here) and WAL replay — so recovered state goes through exactly the
    /// live code path, type checks included. Validates fully before
    /// touching data (a failed op leaves the database unchanged), then
    /// drops the written table's derived views and moves the stats epoch;
    /// the other tables keep their columnar forms, statistics and indexes.
    pub fn apply_op(&mut self, op: &DmlOp) -> Result<u64> {
        let affected = self.validate_op(op)?;
        match op {
            DmlOp::Insert { table, rows } => {
                for row in rows {
                    let row = self.coerce_row(*table, row.clone());
                    self.data[*table].rows.push(row);
                }
                self.invalidate_table(*table);
            }
            DmlOp::Update { table, updates } => {
                for (row, cells) in updates {
                    for (col, v) in cells {
                        let v = self.coerce_cell(*table, *col as usize, v.clone());
                        self.data[*table].rows[*row as usize][*col as usize] = v;
                    }
                }
                if !updates.is_empty() {
                    self.invalidate_table(*table);
                }
            }
            DmlOp::Delete { table, rows } => {
                // Back to front so earlier positions stay valid.
                for row in rows.iter().rev() {
                    self.data[*table].rows.remove(*row as usize);
                }
                if !rows.is_empty() {
                    self.invalidate_table(*table);
                }
            }
            DmlOp::CreateIndex { table, column } => {
                return Ok(u64::from(self.create_index_at(*table, *column)));
            }
        }
        Ok(affected)
    }

    fn check_table(&self, ti: usize) -> Result<()> {
        if ti >= self.schema.tables.len() {
            return Err(NliError::Execution(format!(
                "table index {ti} out of range"
            )));
        }
        Ok(())
    }

    /// Load a persisted database from `dir` (recovering the WAL), dropping
    /// the write handle — the read-only convenience over [`Store::open`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Ok(Store::open(dir)?.into_db())
    }

    /// Persist a full snapshot of this database to `dir` (creating it),
    /// ready to be reloaded with [`Database::open`] or [`Store::open`].
    /// Overwrites any store already in the directory.
    pub fn persist(&self, dir: impl AsRef<Path>) -> Result<()> {
        Store::create(dir, self.clone()).map(drop)
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

struct FailState {
    /// Successful mutations remaining before the injected crash.
    remaining: Mutex<u64>,
    /// Set once the crash fired; everything afterwards fails.
    tripped: AtomicBool,
}

/// The filesystem gate every commit-path mutation goes through. Cloning
/// shares the budget (one store, one budget). An unlimited gate
/// ([`FailpointFs::unlimited`]) compiles to plain I/O.
#[derive(Clone)]
pub struct FailpointFs {
    state: Option<Arc<FailState>>,
}

impl std::fmt::Debug for FailpointFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            None => f.write_str("FailpointFs(unlimited)"),
            Some(s) => f
                .debug_struct("FailpointFs")
                .field("remaining", &*s.remaining.lock().unwrap())
                .field("tripped", &s.tripped.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

fn failpoint_trips() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::global().counter("storage.failpoint.trips"))
}

impl FailpointFs {
    /// No injection: every mutation succeeds.
    pub fn unlimited() -> Self {
        FailpointFs { state: None }
    }

    /// Crash deterministically after `budget` successful mutations: the
    /// `budget + 1`-th mutation persists at most a prefix (torn write) and
    /// fails, as does everything after it.
    pub fn with_budget(budget: u64) -> Self {
        FailpointFs {
            state: Some(Arc::new(FailState {
                remaining: Mutex::new(budget),
                tripped: AtomicBool::new(false),
            })),
        }
    }

    /// Whether the injected crash has fired.
    pub fn tripped(&self) -> bool {
        self.state
            .as_ref()
            .is_some_and(|s| s.tripped.load(Ordering::Relaxed))
    }

    /// Charge one mutation. `Ok(true)` = proceed in full, `Ok(false)` =
    /// this is the crashing mutation (caller applies the torn-write rule
    /// and then errors via [`FailpointFs::crash_err`]).
    fn charge(&self) -> Result<bool> {
        let Some(s) = &self.state else {
            return Ok(true);
        };
        if s.tripped.load(Ordering::Relaxed) {
            return Err(self.crash_err());
        }
        let mut remaining = s.remaining.lock().unwrap();
        if *remaining == 0 {
            s.tripped.store(true, Ordering::Relaxed);
            failpoint_trips().inc();
            return Ok(false);
        }
        *remaining -= 1;
        Ok(true)
    }

    fn crash_err(&self) -> NliError {
        corrupt("injected crash: storage failpoint tripped")
    }

    /// Write `bytes` to a fresh file at `path` and sync it. The crashing
    /// call persists only the first half of `bytes` (a torn write).
    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let full = self.charge()?;
        let effective = if full {
            bytes
        } else {
            &bytes[..bytes.len() / 2]
        };
        let mut f = File::create(path).map_err(|e| io_err("create file", e))?;
        f.write_all(effective)
            .map_err(|e| io_err("write file", e))?;
        f.sync_all().map_err(|e| io_err("sync file", e))?;
        if full {
            Ok(())
        } else {
            Err(self.crash_err())
        }
    }

    /// Append `bytes` to an open file and sync. Same torn-write rule.
    fn append(&self, f: &mut File, bytes: &[u8]) -> Result<()> {
        let full = self.charge()?;
        let effective = if full {
            bytes
        } else {
            &bytes[..bytes.len() / 2]
        };
        f.write_all(effective).map_err(|e| io_err("append", e))?;
        f.sync_data().map_err(|e| io_err("sync append", e))?;
        if full {
            Ok(())
        } else {
            Err(self.crash_err())
        }
    }

    /// Atomic rename (the manifest commit point). The crashing call does
    /// nothing — renames are all-or-nothing, never torn.
    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        if !self.charge()? {
            return Err(self.crash_err());
        }
        std::fs::rename(from, to).map_err(|e| io_err("rename", e))
    }

    /// Create a file with initial contents and keep it open for appends.
    fn create_open(&self, path: &Path, header: &[u8]) -> Result<File> {
        let full = self.charge()?;
        let effective = if full {
            header
        } else {
            &header[..header.len() / 2]
        };
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create wal", e))?;
        f.write_all(effective)
            .map_err(|e| io_err("write wal header", e))?;
        f.sync_all().map_err(|e| io_err("sync wal", e))?;
        if full {
            Ok(f)
        } else {
            Err(self.crash_err())
        }
    }
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

/// Encode one table as a columnar segment: header, then all values of
/// column 0, column 1, ... (each column length-prefixed so readers can
/// skip), then a trailing CRC over everything before it.
fn encode_segment(ti: usize, table: &TableData, width: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SEGMENT_MAGIC);
    put_u32(&mut buf, ti as u32);
    put_u32(&mut buf, width as u32);
    put_u64(&mut buf, table.rows.len() as u64);
    for c in 0..width {
        let mut col = Vec::new();
        for row in &table.rows {
            put_value(&mut col, &row[c]);
        }
        put_u32(&mut buf, col.len() as u32);
        buf.extend_from_slice(&col);
    }
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Decode a segment file back into row form, verifying magic, table
/// index, arity, row count, and the trailing CRC.
fn decode_segment(bytes: &[u8], ti: usize, width: usize, file: &str) -> Result<TableData> {
    if bytes.len() < SEGMENT_MAGIC.len() + 4 {
        return Err(corrupt(format!("segment {file}: too short")));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored {
        return Err(corrupt(format!("segment {file}: checksum mismatch")));
    }
    let mut r = Reader::new(body);
    if r.take(8)? != SEGMENT_MAGIC {
        return Err(corrupt(format!("segment {file}: bad magic")));
    }
    if r.u32()? as usize != ti {
        return Err(corrupt(format!("segment {file}: table index mismatch")));
    }
    if r.u32()? as usize != width {
        return Err(corrupt(format!("segment {file}: column count mismatch")));
    }
    let nrows = r.u64()? as usize;
    let mut cols: Vec<Vec<Value>> = Vec::with_capacity(width);
    for _ in 0..width {
        let _len = r.u32()?;
        let mut col = Vec::with_capacity(nrows.min(1 << 24));
        for _ in 0..nrows {
            col.push(r.value()?);
        }
        cols.push(col);
    }
    if !r.done() {
        return Err(corrupt(format!("segment {file}: trailing bytes")));
    }
    let rows = (0..nrows)
        .map(|i| cols.iter().map(|c| c[i].clone()).collect())
        .collect();
    Ok(TableData { rows })
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SegmentMeta {
    table: usize,
    file: String,
    rows: u64,
    crc: u32,
}

#[derive(Debug, Clone)]
struct Manifest {
    version: u32,
    /// Checkpoint generation; segment and WAL file names embed it.
    generation: u64,
    /// Sequence number of the first record the WAL may contain; records
    /// at or below `first_seq - 1` are folded into the segments.
    first_seq: u64,
    schema: Schema,
    index_decls: Vec<(usize, usize)>,
    segments: Vec<SegmentMeta>,
    wal: String,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

impl<'a> Reader<'a> {
    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        Ok(std::str::from_utf8(bytes)
            .map_err(|_| corrupt("string is not valid UTF-8"))?
            .to_string())
    }
}

/// Column-type tags reuse the value tags (1=int … 5=date; 0 is NULL,
/// which is not a column type).
fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Bool => 4,
        DataType::Date => 5,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Bool,
        5 => DataType::Date,
        _ => return Err(corrupt(format!("unknown column type tag {tag}"))),
    })
}

/// Encode the manifest (`docs/storage-format.md` §manifest): magic,
/// header, full schema (names, display labels, types, keys, foreign
/// keys), declared indexes, the segment list, the WAL name, and a
/// trailing CRC over everything before it.
fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut buf, m.version);
    put_u64(&mut buf, m.generation);
    put_u64(&mut buf, m.first_seq);
    put_str(&mut buf, &m.schema.name);
    put_str(&mut buf, &m.schema.domain);
    put_u32(&mut buf, m.schema.tables.len() as u32);
    for t in &m.schema.tables {
        put_str(&mut buf, &t.name);
        put_str(&mut buf, &t.display);
        put_u32(&mut buf, t.columns.len() as u32);
        for c in &t.columns {
            put_str(&mut buf, &c.name);
            put_str(&mut buf, &c.display);
            buf.push(dtype_tag(c.dtype));
            buf.push(u8::from(c.primary_key));
        }
    }
    put_u32(&mut buf, m.schema.foreign_keys.len() as u32);
    for fk in &m.schema.foreign_keys {
        put_u32(&mut buf, fk.from.table as u32);
        put_u32(&mut buf, fk.from.column as u32);
        put_u32(&mut buf, fk.to.table as u32);
        put_u32(&mut buf, fk.to.column as u32);
    }
    put_u32(&mut buf, m.index_decls.len() as u32);
    for (ti, ci) in &m.index_decls {
        put_u32(&mut buf, *ti as u32);
        put_u32(&mut buf, *ci as u32);
    }
    put_u32(&mut buf, m.segments.len() as u32);
    for s in &m.segments {
        put_u32(&mut buf, s.table as u32);
        put_str(&mut buf, &s.file);
        put_u64(&mut buf, s.rows);
        put_u32(&mut buf, s.crc);
    }
    put_str(&mut buf, &m.wal);
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest> {
    if bytes.len() < MANIFEST_MAGIC.len() + 4 {
        return Err(corrupt("manifest: too short"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored {
        return Err(corrupt("manifest: checksum mismatch"));
    }
    let mut r = Reader::new(body);
    if r.take(8)? != MANIFEST_MAGIC {
        return Err(corrupt("manifest: bad magic"));
    }
    let version = r.u32()?;
    let generation = r.u64()?;
    let first_seq = r.u64()?;
    let name = r.string()?;
    let domain = r.string()?;
    let ntables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1 << 16));
    for _ in 0..ntables {
        let tname = r.string()?;
        let tdisplay = r.string()?;
        let ncols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1 << 16));
        for _ in 0..ncols {
            let cname = r.string()?;
            let cdisplay = r.string()?;
            let dtype = dtype_from_tag(r.u8()?)?;
            let primary_key = r.u8()? != 0;
            columns.push(Column {
                name: cname,
                display: cdisplay,
                dtype,
                primary_key,
            });
        }
        tables.push(Table {
            name: tname,
            display: tdisplay,
            columns,
        });
    }
    let nfks = r.u32()? as usize;
    let mut foreign_keys = Vec::with_capacity(nfks.min(1 << 16));
    for _ in 0..nfks {
        foreign_keys.push(ForeignKey {
            from: ColumnRef {
                table: r.u32()? as usize,
                column: r.u32()? as usize,
            },
            to: ColumnRef {
                table: r.u32()? as usize,
                column: r.u32()? as usize,
            },
        });
    }
    let schema = Schema {
        name,
        domain,
        tables,
        foreign_keys,
    };
    let ndecls = r.u32()? as usize;
    let mut index_decls = Vec::with_capacity(ndecls.min(1 << 16));
    for _ in 0..ndecls {
        index_decls.push((r.u32()? as usize, r.u32()? as usize));
    }
    let nsegs = r.u32()? as usize;
    let mut segments = Vec::with_capacity(nsegs.min(1 << 16));
    for _ in 0..nsegs {
        segments.push(SegmentMeta {
            table: r.u32()? as usize,
            file: r.string()?,
            rows: r.u64()?,
            crc: r.u32()?,
        });
    }
    let wal = r.string()?;
    if !r.done() {
        return Err(corrupt("manifest: trailing bytes"));
    }
    Ok(Manifest {
        version,
        generation,
        first_seq,
        schema,
        index_decls,
        segments,
        wal,
    })
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

/// Assemble one WAL record: `len | seq | crc | payload`, CRC over the
/// seq bytes and payload.
fn encode_wal_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + payload.len());
    put_u32(&mut buf, payload.len() as u32);
    put_u64(&mut buf, seq);
    let mut sum = Vec::with_capacity(8 + payload.len());
    put_u64(&mut sum, seq);
    sum.extend_from_slice(payload);
    put_u32(&mut buf, crc32(&sum));
    buf.extend_from_slice(payload);
    buf
}

/// Result of scanning a WAL file.
struct WalScan {
    ops: Vec<(u64, DmlOp)>,
    /// Byte offset of the end of the last good record.
    good_len: u64,
    /// Bytes discarded from a torn tail (0 = clean shutdown).
    truncated_bytes: u64,
}

/// Read every record of a WAL file body, distinguishing a torn tail
/// (truncate and report) from mid-file corruption (hard error). `expect`
/// is the sequence number the first record must carry; records must then
/// increase by exactly one — a repeat is a duplicate replay, a jump a
/// lost record, both hard errors.
fn scan_wal(bytes: &[u8], file: &str, mut expect: u64) -> Result<WalScan> {
    // A WAL shorter than its magic is itself a torn creation; recover to
    // the empty journal.
    if bytes.len() < WAL_MAGIC.len() {
        return Ok(WalScan {
            ops: Vec::new(),
            good_len: 0,
            truncated_bytes: bytes.len() as u64,
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(corrupt(format!("wal {file}: bad magic")));
    }
    let mut ops = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        if pos == bytes.len() {
            // Clean end exactly after the last record.
            return Ok(WalScan {
                ops,
                good_len: pos as u64,
                truncated_bytes: 0,
            });
        }
        let rest = &bytes[pos..];
        if rest.len() < 16 {
            // Torn header at end-of-file.
            return Ok(WalScan {
                ops,
                good_len: pos as u64,
                truncated_bytes: rest.len() as u64,
            });
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        let seq = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[12..16].try_into().unwrap());
        if len > MAX_WAL_PAYLOAD {
            return Err(corrupt(format!(
                "wal {file}: record at offset {pos} claims {len} payload bytes"
            )));
        }
        let total = 16 + len as usize;
        if rest.len() < total {
            // The record never finished being written: torn tail.
            return Ok(WalScan {
                ops,
                good_len: pos as u64,
                truncated_bytes: rest.len() as u64,
            });
        }
        let payload = &rest[16..total];
        let mut sum = Vec::with_capacity(8 + payload.len());
        put_u64(&mut sum, seq);
        sum.extend_from_slice(payload);
        if crc32(&sum) != crc {
            if rest.len() == total {
                // Checksum failure on the final record: torn tail (the
                // classic crash-mid-append signature).
                return Ok(WalScan {
                    ops,
                    good_len: pos as u64,
                    truncated_bytes: rest.len() as u64,
                });
            }
            // Data follows the bad record, so the append that wrote it
            // completed — this is mid-file corruption, a hard error.
            return Err(corrupt(format!(
                "wal {file}: checksum mismatch at offset {pos} with {} bytes after it \
                 (mid-file corruption, refusing to recover)",
                rest.len() - total
            )));
        }
        if seq != expect {
            return Err(corrupt(if seq < expect {
                format!(
                    "wal {file}: duplicate replay — record at offset {pos} carries seq {seq}, \
                     already applied (expected {expect})"
                )
            } else {
                format!("wal {file}: sequence gap at offset {pos} — got {seq}, expected {expect}")
            }));
        }
        expect += 1;
        let op = DmlOp::decode(payload)
            .map_err(|e| corrupt(format!("wal {file}: record seq {seq}: {e}")))?;
        ops.push((seq, op));
        pos += total;
    }
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// What [`Store::open`] found and did; exposed for tests, logs, and the
/// crash matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Checkpoint generation loaded.
    pub generation: u64,
    /// Segment files loaded.
    pub segments_loaded: usize,
    /// WAL records replayed over the segments.
    pub wal_replayed: u64,
    /// Bytes discarded from a torn WAL tail (0 = clean shutdown).
    pub truncated_bytes: u64,
}

struct StorageObs {
    commits: obs::Counter,
    commit_bytes: obs::Counter,
    replayed: obs::Counter,
    recoveries: obs::Counter,
    torn_tails: obs::Counter,
    checkpoints: obs::Counter,
    segments_written: obs::Counter,
}

fn storage_obs() -> &'static StorageObs {
    static OBS: OnceLock<StorageObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = obs::global();
        StorageObs {
            commits: r.counter("storage.wal.commits"),
            commit_bytes: r.counter("storage.wal.bytes_appended"),
            replayed: r.counter("storage.wal.replayed"),
            recoveries: r.counter("storage.recoveries"),
            torn_tails: r.counter("storage.wal.torn_tails"),
            checkpoints: r.counter("storage.checkpoints"),
            segments_written: r.counter("storage.segments.written"),
        }
    })
}

/// A durable [`Database`]: segments + WAL in one directory, with the
/// in-memory image kept in lockstep by [`Store::commit`].
pub struct Store {
    dir: PathBuf,
    fs: FailpointFs,
    manifest: Manifest,
    wal: File,
    next_seq: u64,
    /// WAL record bytes appended through *this handle* (not recovered
    /// ones): the metering the server's per-tenant accounting reads.
    wal_bytes_appended: u64,
    db: Database,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("generation", &self.manifest.generation)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

fn segment_file(generation: u64, ti: usize) -> String {
    format!("seg-{generation:06}-{ti:03}.seg")
}

fn wal_file(generation: u64) -> String {
    format!("wal-{generation:06}.log")
}

impl Store {
    /// Whether `dir` holds a store (has a manifest).
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        manifest_path(dir.as_ref()).is_file()
    }

    /// Create a store at `dir` holding a full snapshot of `db`, replacing
    /// any store already there.
    pub fn create(dir: impl AsRef<Path>, db: Database) -> Result<Store> {
        Store::create_with_fs(dir, db, FailpointFs::unlimited())
    }

    /// [`Store::create`] under an explicit fault-injection gate.
    pub fn create_with_fs(dir: impl AsRef<Path>, db: Database, fs: FailpointFs) -> Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create data dir", e))?;
        let (manifest, wal) = write_generation(&dir, &fs, 1, &db, 1)?;
        Ok(Store {
            dir,
            fs,
            manifest,
            wal,
            next_seq: 1,
            wal_bytes_appended: 0,
            db,
            recovery: RecoveryReport {
                generation: 1,
                ..Default::default()
            },
        })
    }

    /// Open the store at `dir`, replaying the WAL over the segments.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store> {
        Store::open_with_fs(dir, FailpointFs::unlimited())
    }

    /// [`Store::open`] under an explicit fault-injection gate. Recovery
    /// itself only reads (plus one uncounted truncation of a torn tail);
    /// the gate applies to subsequent commits and checkpoints.
    pub fn open_with_fs(dir: impl AsRef<Path>, fs: FailpointFs) -> Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        let mpath = manifest_path(&dir);
        let mbytes = std::fs::read(&mpath)
            .map_err(|e| corrupt(format!("no store at {}: {e}", dir.display())))?;
        let manifest = decode_manifest(&mbytes)?;
        if manifest.version != MANIFEST_VERSION {
            return Err(corrupt(format!(
                "manifest version {} unsupported (this build reads {MANIFEST_VERSION})",
                manifest.version
            )));
        }
        let schema = manifest.schema.clone();
        if manifest.segments.len() != schema.tables.len() {
            return Err(corrupt(format!(
                "manifest lists {} segments for {} tables",
                manifest.segments.len(),
                schema.tables.len()
            )));
        }

        // Load segments.
        let mut data = vec![TableData::default(); schema.tables.len()];
        for seg in &manifest.segments {
            if seg.table >= schema.tables.len() {
                return Err(corrupt(format!(
                    "segment {} names table {} of {}",
                    seg.file,
                    seg.table,
                    schema.tables.len()
                )));
            }
            let bytes = std::fs::read(dir.join(&seg.file))
                .map_err(|e| corrupt(format!("segment {}: {e}", seg.file)))?;
            let width = schema.tables[seg.table].columns.len();
            let table = decode_segment(&bytes, seg.table, width, &seg.file)?;
            if table.rows.len() as u64 != seg.rows {
                return Err(corrupt(format!(
                    "segment {}: manifest says {} rows, file holds {}",
                    seg.file,
                    seg.rows,
                    table.rows.len()
                )));
            }
            if seg.crc != crc32(&bytes) {
                return Err(corrupt(format!(
                    "segment {}: manifest checksum mismatch",
                    seg.file
                )));
            }
            data[seg.table] = table;
        }

        let mut db =
            Database::from_parts(schema, data, manifest.index_decls.iter().copied().collect());

        // Replay the WAL.
        let wpath = dir.join(&manifest.wal);
        let wbytes =
            std::fs::read(&wpath).map_err(|e| corrupt(format!("wal {}: {e}", manifest.wal)))?;
        let scan = scan_wal(&wbytes, &manifest.wal, manifest.first_seq)?;
        let replayed = scan.ops.len() as u64;
        for (seq, op) in &scan.ops {
            db.apply_op(op).map_err(|e| {
                corrupt(format!(
                    "wal {}: replay of record seq {seq} failed: {e}",
                    manifest.wal
                ))
            })?;
        }
        let next_seq = manifest.first_seq + replayed;

        // Trim the torn tail (uncounted: recovery repairs, commits pay)
        // and reopen for appends.
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&wpath)
            .map_err(|e| io_err("open wal", e))?;
        if scan.truncated_bytes > 0 {
            if scan.good_len < WAL_MAGIC.len() as u64 {
                // A torn creation lost even the magic; restore the header.
                wal.set_len(0).map_err(|e| io_err("truncate wal", e))?;
                wal.seek(SeekFrom::Start(0))
                    .map_err(|e| io_err("seek wal", e))?;
                wal.write_all(WAL_MAGIC)
                    .map_err(|e| io_err("rewrite wal header", e))?;
            } else {
                wal.set_len(scan.good_len)
                    .map_err(|e| io_err("truncate wal", e))?;
            }
            wal.sync_all().map_err(|e| io_err("sync wal", e))?;
            storage_obs().torn_tails.inc();
        }
        wal.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek wal", e))?;

        let report = RecoveryReport {
            generation: manifest.generation,
            segments_loaded: manifest.segments.len(),
            wal_replayed: replayed,
            truncated_bytes: scan.truncated_bytes,
        };
        let o = storage_obs();
        o.recoveries.inc();
        o.replayed.add(replayed);
        Ok(Store {
            dir,
            fs,
            manifest,
            wal,
            next_seq,
            wal_bytes_appended: 0,
            db,
            recovery: report,
        })
    }

    /// The in-memory image, always equal to segments + applied WAL.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Consume the store, keeping only the in-memory database.
    pub fn into_db(self) -> Database {
        self.db
    }

    /// What the last [`Store::open`] recovered.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of WAL records appended since the manifest's checkpoint.
    pub fn wal_records(&self) -> u64 {
        self.next_seq - self.manifest.first_seq
    }

    /// Total WAL record bytes appended through this handle since it was
    /// created/opened (record framing included; recovered bytes not
    /// counted). Monotone across checkpoints — a pure function of the
    /// committed ops, so callers may meter with before/after reads.
    pub fn wal_bytes_appended(&self) -> u64 {
        self.wal_bytes_appended
    }

    /// Journal `op`, sync, then apply it in memory. Returns rows
    /// affected. An `Ok` return is the acknowledgement: the op is durable
    /// and will survive any crash. On `Err` nothing was applied in memory
    /// (a torn append is truncated away by the next recovery).
    pub fn commit(&mut self, op: &DmlOp) -> Result<u64> {
        // Validate against the live image first: an op the database would
        // reject must not reach the journal (replay applies unchecked).
        self.db.validate_op(op)?;
        let record = encode_wal_record(self.next_seq, &op.encode());
        self.fs.append(&mut self.wal, &record)?;
        self.next_seq += 1;
        self.wal_bytes_appended += record.len() as u64;
        let o = storage_obs();
        o.commits.inc();
        o.commit_bytes.add(record.len() as u64);
        self.db
            .apply_op(op)
            .map_err(|e| corrupt(format!("op applied to journal but not memory: {e}")))
    }

    /// Declare a secondary index durably (journals a
    /// [`DmlOp::CreateIndex`]). Returns whether the declaration is new.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<bool> {
        let ti = self
            .db
            .schema
            .table_index(table)
            .ok_or_else(|| NliError::UnknownTable(table.to_string()))?;
        let ci = self.db.schema.tables[ti]
            .columns
            .iter()
            .position(|c| c.name == column)
            .ok_or_else(|| NliError::UnknownColumn(format!("{table}.{column}")))?;
        Ok(self.commit(&DmlOp::CreateIndex {
            table: ti,
            column: ci,
        })? == 1)
    }

    /// Fold the WAL into fresh segments: write generation `g+1` segments
    /// and an empty WAL, commit by renaming the new manifest into place,
    /// then delete the old generation's files (best-effort). Crashing at
    /// any point leaves a recoverable store: either the old generation
    /// plus its intact WAL, or the new one.
    pub fn checkpoint(&mut self) -> Result<()> {
        let generation = self.manifest.generation + 1;
        let (manifest, wal) =
            write_generation(&self.dir, &self.fs, generation, &self.db, self.next_seq)?;
        let old_segments: Vec<String> = self
            .manifest
            .segments
            .iter()
            .map(|s| s.file.clone())
            .collect();
        let old_wal = self.manifest.wal.clone();
        self.manifest = manifest;
        self.wal = wal;
        storage_obs().checkpoints.inc();
        // Old generation is garbage now; removal failures are harmless
        // (recovery only reads files the manifest names).
        for f in old_segments {
            let _ = std::fs::remove_file(self.dir.join(f));
        }
        let _ = std::fs::remove_file(self.dir.join(old_wal));
        Ok(())
    }
}

/// Write the full snapshot for `generation`: one segment per table, an
/// empty WAL, and the manifest (written to a temp name and renamed — the
/// atomic commit point). Returns the manifest and the open WAL handle.
fn write_generation(
    dir: &Path,
    fs: &FailpointFs,
    generation: u64,
    db: &Database,
    first_seq: u64,
) -> Result<(Manifest, File)> {
    let mut segments = Vec::with_capacity(db.schema.tables.len());
    for (ti, table) in db.data.iter().enumerate() {
        let width = db.schema.tables[ti].columns.len();
        let bytes = encode_segment(ti, table, width);
        let file = segment_file(generation, ti);
        fs.write_file(&dir.join(&file), &bytes)?;
        storage_obs().segments_written.inc();
        segments.push(SegmentMeta {
            table: ti,
            file,
            rows: table.rows.len() as u64,
            crc: crc32(&bytes),
        });
    }
    let wal_name = wal_file(generation);
    let wal = fs.create_open(&dir.join(&wal_name), WAL_MAGIC)?;
    let manifest = Manifest {
        version: MANIFEST_VERSION,
        generation,
        first_seq,
        schema: db.schema.clone(),
        index_decls: db.index_declarations().iter().copied().collect(),
        segments,
        wal: wal_name,
    };
    let bytes = encode_manifest(&manifest);
    let tmp = dir.join("MANIFEST.tmp");
    fs.write_file(&tmp, &bytes)?;
    fs.rename(&tmp, &manifest_path(dir))?;
    Ok((manifest, wal))
}

/// Truncate the final WAL record of the store at `dir`, simulating an
/// acknowledged-but-lost write — the fuzzer's `--inject-wal-bug` hook and
/// nothing else. Returns whether a record was there to drop.
#[doc(hidden)]
pub fn drop_last_wal_record_for_test(dir: impl AsRef<Path>) -> Result<bool> {
    let dir = dir.as_ref();
    let mbytes = std::fs::read(manifest_path(dir)).map_err(|e| io_err("read manifest", e))?;
    let manifest = decode_manifest(&mbytes)?;
    let wpath = dir.join(&manifest.wal);
    let bytes = std::fs::read(&wpath).map_err(|e| io_err("read wal", e))?;
    let scan = scan_wal(&bytes, &manifest.wal, manifest.first_seq)?;
    let Some((last_seq, _)) = scan.ops.last() else {
        return Ok(false);
    };
    // Re-scan to find the offset where the last record starts.
    let mut pos = WAL_MAGIC.len() as u64;
    for (seq, op) in &scan.ops {
        if seq == last_seq {
            break;
        }
        pos += 16 + op.encode().len() as u64;
    }
    let f = OpenOptions::new()
        .write(true)
        .open(&wpath)
        .map_err(|e| io_err("open wal", e))?;
    f.set_len(pos).map_err(|e| io_err("truncate wal", e))?;
    f.sync_all().map_err(|e| io_err("sync wal", e))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Table};
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(
            "shop",
            vec![
                Table::new(
                    "products",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("name", DataType::Text),
                        Column::new("price", DataType::Float),
                    ],
                ),
                Table::new(
                    "sales",
                    vec![
                        Column::new("id", DataType::Int).primary(),
                        Column::new("product_id", DataType::Int),
                        Column::new("amount", DataType::Float),
                    ],
                ),
            ],
        )
    }

    fn seed_db() -> Database {
        let mut db = Database::empty(schema());
        db.insert_all(
            "products",
            vec![
                vec![1.into(), "Widget".into(), 9.5.into()],
                vec![2.into(), "Gadget".into(), 19.0.into()],
                vec![3.into(), Value::Null, 4.25.into()],
            ],
        )
        .unwrap();
        db.insert_all(
            "sales",
            vec![
                vec![1.into(), 1.into(), 100.0.into()],
                vec![2.into(), 2.into(), 150.0.into()],
            ],
        )
        .unwrap();
        db
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nli_storage_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn value_encoding_round_trips() {
        let vals = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Text("héllo 'quoted'".into()),
            Value::Bool(true),
            Value::Date(Date {
                year: 2024,
                month: 2,
                day: 29,
            }),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &vals {
            let got = r.value().unwrap();
            match (v, &got) {
                (Value::Float(a), Value::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "floats must round-trip bitwise")
                }
                _ => assert_eq!(v, &got),
            }
        }
        assert!(r.done());
    }

    #[test]
    fn op_encoding_round_trips() {
        let ops = vec![
            DmlOp::Insert {
                table: 1,
                rows: vec![vec![Value::Int(7), Value::Null, Value::Float(1.5)]],
            },
            DmlOp::Update {
                table: 0,
                updates: vec![
                    (0, vec![(2, Value::Float(8.0))]),
                    (2, vec![(1, "x".into())]),
                ],
            },
            DmlOp::Delete {
                table: 0,
                rows: vec![0, 2],
            },
            DmlOp::CreateIndex {
                table: 1,
                column: 1,
            },
        ];
        for op in ops {
            assert_eq!(DmlOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(DmlOp::decode(&[9]).is_err(), "unknown tag must error");
        let mut padded = DmlOp::CreateIndex {
            table: 0,
            column: 0,
        }
        .encode();
        padded.push(0);
        assert!(DmlOp::decode(&padded).is_err(), "trailing bytes must error");
    }

    #[test]
    fn create_open_commit_reopen_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut store = Store::create_with_fs(&dir, seed_db(), FailpointFs::unlimited()).unwrap();
        assert_eq!(
            store
                .commit(&DmlOp::Insert {
                    table: 0,
                    rows: vec![vec![4.into(), "Doohickey".into(), 2.0.into()]],
                })
                .unwrap(),
            1
        );
        assert_eq!(
            store
                .commit(&DmlOp::Update {
                    table: 0,
                    updates: vec![(1, vec![(2, Value::Float(21.0))])],
                })
                .unwrap(),
            1
        );
        assert_eq!(
            store
                .commit(&DmlOp::Delete {
                    table: 1,
                    rows: vec![0],
                })
                .unwrap(),
            1
        );
        let want = store.db().clone();
        drop(store);

        let store = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap();
        assert_eq!(store.recovery().wal_replayed, 3);
        assert_eq!(store.recovery().truncated_bytes, 0);
        assert_eq!(store.db(), &want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_meters_wal_bytes_through_this_handle_only() {
        let dir = tmp_dir("walbytes");
        let mut store = Store::create_with_fs(&dir, seed_db(), FailpointFs::unlimited()).unwrap();
        assert_eq!(store.wal_bytes_appended(), 0);
        let op = DmlOp::Delete {
            table: 1,
            rows: vec![0],
        };
        store.commit(&op).unwrap();
        let after_one = store.wal_bytes_appended();
        assert!(after_one > 0, "a commit must append bytes");
        store
            .commit(&DmlOp::Insert {
                table: 0,
                rows: vec![vec![4.into(), "Doohickey".into(), 2.0.into()]],
            })
            .unwrap();
        assert!(
            store.wal_bytes_appended() > after_one,
            "metering is monotone"
        );
        drop(store);
        // Reopen replays the records but meters nothing: the counter is
        // per-handle appends, not recovered history.
        let store = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap();
        assert_eq!(store.recovery().wal_replayed, 2);
        assert_eq!(store.wal_bytes_appended(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_folds_wal_and_survives_reopen() {
        let dir = tmp_dir("checkpoint");
        let mut store = Store::create_with_fs(&dir, seed_db(), FailpointFs::unlimited()).unwrap();
        store
            .commit(&DmlOp::Delete {
                table: 0,
                rows: vec![2],
            })
            .unwrap();
        store.checkpoint().unwrap();
        assert_eq!(store.wal_records(), 0, "checkpoint folds the journal");
        store
            .commit(&DmlOp::Insert {
                table: 1,
                rows: vec![vec![3.into(), 1.into(), 42.0.into()]],
            })
            .unwrap();
        let want = store.db().clone();
        drop(store);
        let store = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap();
        assert_eq!(store.recovery().generation, 2);
        assert_eq!(store.recovery().wal_replayed, 1);
        assert_eq!(store.db(), &want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_recovers_to_last_good_record() {
        let dir = tmp_dir("torn_tail");
        let mut store = Store::create_with_fs(&dir, seed_db(), FailpointFs::unlimited()).unwrap();
        store
            .commit(&DmlOp::Insert {
                table: 0,
                rows: vec![vec![4.into(), "A".into(), 1.0.into()]],
            })
            .unwrap();
        let want = store.db().clone();
        store
            .commit(&DmlOp::Insert {
                table: 0,
                rows: vec![vec![5.into(), "B".into(), 2.0.into()]],
            })
            .unwrap();
        let wal_path = dir.join(&store.manifest.wal);
        drop(store);

        // Chop bytes off the final record: every prefix length must
        // recover to the first commit only.
        let full = std::fs::read(&wal_path).unwrap();
        for cut in 1..30 {
            std::fs::write(&wal_path, &full[..full.len() - cut]).unwrap();
            let store = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap();
            assert_eq!(store.recovery().wal_replayed, 1, "cut {cut}");
            assert!(store.recovery().truncated_bytes > 0, "cut {cut}");
            assert_eq!(store.db(), &want, "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_mid_file_is_a_hard_error() {
        let dir = tmp_dir("bit_flip");
        let mut store = Store::create_with_fs(&dir, seed_db(), FailpointFs::unlimited()).unwrap();
        for i in 0..3i64 {
            store
                .commit(&DmlOp::Insert {
                    table: 0,
                    rows: vec![vec![(10 + i).into(), "x".into(), 1.0.into()]],
                })
                .unwrap();
        }
        let wal_path = dir.join(&store.manifest.wal);
        drop(store);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        // Flip a payload byte of the FIRST record (well before the tail).
        let target = WAL_MAGIC.len() + 16 + 2;
        bytes[target] ^= 0x40;
        std::fs::write(&wal_path, &bytes).unwrap();
        let err = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap_err();
        assert!(
            matches!(&err, NliError::Storage(m) if m.contains("mid-file corruption")),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_last_record_is_a_torn_tail() {
        let dir = tmp_dir("tail_flip");
        let mut store = Store::create_with_fs(&dir, seed_db(), FailpointFs::unlimited()).unwrap();
        store
            .commit(&DmlOp::Insert {
                table: 0,
                rows: vec![vec![4.into(), "A".into(), 1.0.into()]],
            })
            .unwrap();
        let want_rows = seed_db().rows(0).len();
        let wal_path = dir.join(&store.manifest.wal);
        drop(store);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        std::fs::write(&wal_path, &bytes).unwrap();
        let store = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap();
        assert_eq!(store.recovery().wal_replayed, 0);
        assert!(store.recovery().truncated_bytes > 0);
        assert_eq!(store.db().rows(0).len(), want_rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_replay_is_detected_and_reported() {
        let dir = tmp_dir("duplicate");
        let mut store = Store::create_with_fs(&dir, seed_db(), FailpointFs::unlimited()).unwrap();
        store
            .commit(&DmlOp::Insert {
                table: 0,
                rows: vec![vec![4.into(), "A".into(), 1.0.into()]],
            })
            .unwrap();
        let wal_path = dir.join(&store.manifest.wal);
        drop(store);
        // Append a byte-identical copy of the record: same seq twice.
        let bytes = std::fs::read(&wal_path).unwrap();
        let record = bytes[WAL_MAGIC.len()..].to_vec();
        let mut doubled = bytes;
        doubled.extend_from_slice(&record);
        std::fs::write(&wal_path, &doubled).unwrap();
        let err = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap_err();
        assert!(
            matches!(&err, NliError::Storage(m) if m.contains("duplicate replay")),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_corruption_is_a_hard_error() {
        let dir = tmp_dir("segment_flip");
        let store = Store::create_with_fs(&dir, seed_db(), FailpointFs::unlimited()).unwrap();
        let seg = store.manifest.segments[0].file.clone();
        drop(store);
        let path = dir.join(&seg);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap_err();
        assert!(
            matches!(&err, NliError::Storage(m) if m.contains("checksum mismatch")),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_ops_never_reach_the_journal() {
        let dir = tmp_dir("rejects");
        let mut store = Store::create_with_fs(&dir, seed_db(), FailpointFs::unlimited()).unwrap();
        // Type error: Text into the Float column.
        assert!(store
            .commit(&DmlOp::Update {
                table: 0,
                updates: vec![(0, vec![(2, "oops".into())])],
            })
            .is_err());
        // Out-of-range delete.
        assert!(store
            .commit(&DmlOp::Delete {
                table: 0,
                rows: vec![99],
            })
            .is_err());
        assert_eq!(store.wal_records(), 0, "failed ops must not be journaled");
        let want = store.db().clone();
        drop(store);
        let store = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap();
        assert_eq!(store.db(), &want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn database_open_persist_round_trips() {
        let dir = tmp_dir("db_convenience");
        let db = seed_db();
        db.persist(&dir).unwrap();
        let reopened = Database::open(&dir).unwrap();
        assert_eq!(reopened, db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failpoint_budget_crashes_then_refuses() {
        let dir = tmp_dir("failpoint");
        // create() needs 2 segments + wal + manifest + rename = 5 ops.
        let err = Store::create_with_fs(&dir, seed_db(), FailpointFs::with_budget(2)).unwrap_err();
        assert!(matches!(err, NliError::Storage(_)));
        let fs = FailpointFs::with_budget(0);
        assert!(!fs.tripped());
        let err = fs.write_file(&dir.join("x"), b"hello world").unwrap_err();
        assert!(matches!(err, NliError::Storage(_)));
        assert!(fs.tripped());
        // Torn write persisted exactly half.
        assert_eq!(std::fs::read(dir.join("x")).unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_last_wal_record_hook_removes_one_commit() {
        let dir = tmp_dir("drop_tail");
        let mut store = Store::create_with_fs(&dir, seed_db(), FailpointFs::unlimited()).unwrap();
        assert!(!drop_last_wal_record_for_test(&dir).unwrap());
        let before = store.db().clone();
        store
            .commit(&DmlOp::Insert {
                table: 0,
                rows: vec![vec![4.into(), "A".into(), 1.0.into()]],
            })
            .unwrap();
        drop(store);
        assert!(drop_last_wal_record_for_test(&dir).unwrap());
        let store = Store::open_with_fs(&dir, FailpointFs::unlimited()).unwrap();
        assert_eq!(store.db(), &before, "the dropped commit must be gone");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
