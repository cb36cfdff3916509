//! Columnar storage: typed column vectors with null bitmaps.
//!
//! [`ColumnBatch`] is the columnar twin of one table's row store
//! ([`crate::database::TableData`]): one [`ColumnVector`] per schema
//! column, each a typed Rust vector (`Vec<i64>`, `Vec<f64>`, ...) plus a
//! [`NullBitmap`]. The vectorized executor in `nli-sql` reads these
//! directly — filters, join keys, and aggregates run over typed slices
//! instead of cloning `Vec<Value>` rows.
//!
//! Conversion is strictly derived data: [`ColumnBatch::from_rows`] never
//! mutates the row store, and [`crate::Database::columnar`] caches the
//! result per table until that table is written. Each column also records
//! whether it is stored ascending ([`ColumnVector::sorted_asc`]), which
//! the executor's scans binary-search on. A column whose values disagree
//! with the declared [`DataType`] (possible only by mutating
//! `Database::data` directly, bypassing `insert`'s type check) falls back
//! to [`ColumnData::Mixed`], which keeps `Value` semantics exact at
//! row-store speed.

use crate::value::{DataType, Date, Value};

/// Packed validity bitmap: bit *i* set means row *i* is NULL.
///
/// Stored per column next to the typed data vector; the typed vector holds
/// an arbitrary placeholder at null slots (readers must consult the bitmap
/// first, which [`ColumnVector::value_at`] does).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    null_count: usize,
}

impl NullBitmap {
    /// An all-valid bitmap over `len` rows.
    pub fn new(len: usize) -> Self {
        NullBitmap {
            words: vec![0; len.div_ceil(64)],
            len,
            null_count: 0,
        }
    }

    /// Mark row `i` NULL.
    pub fn set_null(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.null_count += 1;
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Whether any row is NULL (cheap: a counter, not a scan).
    pub fn any_null(&self) -> bool {
        self.null_count > 0
    }
}

/// The typed payload of one column. Null slots hold a type-default
/// placeholder; the owning [`ColumnVector`]'s bitmap is authoritative.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Text(Vec<String>),
    Date(Vec<Date>),
    /// Fallback for a column whose stored values disagree with its declared
    /// type; keeps exact `Value` semantics.
    Mixed(Vec<Value>),
}

/// One column: typed data plus null bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVector {
    pub data: ColumnData,
    pub nulls: NullBitmap,
    /// Derived from the two fields above when the column is built.
    sorted_asc: bool,
}

impl ColumnVector {
    fn new(data: ColumnData, nulls: NullBitmap) -> ColumnVector {
        fn ascending<T: PartialOrd>(v: &[T]) -> bool {
            v.windows(2).all(|w| w[0] <= w[1])
        }
        let sorted_asc = !nulls.any_null()
            && match &data {
                ColumnData::Int(v) => ascending(v),
                ColumnData::Float(v) => !v.iter().any(|f| f.is_nan()) && ascending(v),
                ColumnData::Bool(v) => ascending(v),
                ColumnData::Text(v) => ascending(v),
                ColumnData::Date(v) => ascending(v),
                ColumnData::Mixed(_) => false,
            };
        ColumnVector {
            data,
            nulls,
            sorted_asc,
        }
    }

    /// Whether the column is NULL-free and non-decreasing in storage order
    /// (serial primary keys are). Floats with NaN and `Mixed` columns
    /// report unsorted: nothing orders them.
    pub fn sorted_asc(&self) -> bool {
        self.sorted_asc
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    /// Whether the column covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.nulls.is_empty()
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.is_null(i)
    }

    /// Rebuild the owned [`Value`] at row `i` (clones text).
    pub fn value_at(&self, i: usize) -> Value {
        if self.nulls.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Text(v) => Value::Text(v[i].clone()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Build one column from row-major data, as declared type `dtype`.
    /// Falls back to [`ColumnData::Mixed`] if any non-NULL value disagrees
    /// with the declaration.
    pub fn from_rows(dtype: DataType, rows: &[Vec<Value>], col: usize) -> ColumnVector {
        let clean = rows
            .iter()
            .all(|r| matches!(r[col], Value::Null) || r[col].data_type() == Some(dtype));
        let mut nulls = NullBitmap::new(rows.len());
        if !clean {
            let data = ColumnData::Mixed(rows.iter().map(|r| r[col].clone()).collect());
            for (i, r) in rows.iter().enumerate() {
                if r[col].is_null() {
                    nulls.set_null(i);
                }
            }
            return ColumnVector::new(data, nulls);
        }
        macro_rules! build {
            ($variant:ident, $default:expr, $pat:pat => $val:expr) => {{
                let mut out = Vec::with_capacity(rows.len());
                for (i, r) in rows.iter().enumerate() {
                    match &r[col] {
                        $pat => out.push($val),
                        _ => {
                            nulls.set_null(i);
                            out.push($default);
                        }
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match dtype {
            DataType::Int => build!(Int, 0, Value::Int(x) => *x),
            DataType::Float => build!(Float, 0.0, Value::Float(x) => *x),
            DataType::Bool => build!(Bool, false, Value::Bool(x) => *x),
            DataType::Text => build!(Text, String::new(), Value::Text(x) => x.clone()),
            DataType::Date => build!(Date, Date::new(1970, 1, 1), Value::Date(x) => *x),
        };
        ColumnVector::new(data, nulls)
    }
}

/// One table in columnar form: a [`ColumnVector`] per schema column, all
/// the same length.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    pub columns: Vec<ColumnVector>,
    /// Row count (every column vector has this length).
    pub rows: usize,
}

impl ColumnBatch {
    /// Convert one table's row store. `dtypes` are the declared column
    /// types in schema order; every row must have `dtypes.len()` values
    /// (guaranteed by `Database::insert`).
    pub fn from_rows(dtypes: &[DataType], rows: &[Vec<Value>]) -> ColumnBatch {
        let columns = dtypes
            .iter()
            .enumerate()
            .map(|(c, dt)| ColumnVector::from_rows(*dt, rows, c))
            .collect();
        ColumnBatch {
            columns,
            rows: rows.len(),
        }
    }

    /// Rebuild the owned [`Value`] at (`col`, `row`).
    pub fn value_at(&self, col: usize, row: usize) -> Value {
        self.columns[col].value_at(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1), Value::Text("a".into()), Value::Float(1.5)],
            vec![Value::Null, Value::Text("b".into()), Value::Null],
            vec![Value::Int(3), Value::Null, Value::Float(-2.0)],
        ]
    }

    #[test]
    fn conversion_round_trips_values_and_nulls() {
        let batch =
            ColumnBatch::from_rows(&[DataType::Int, DataType::Text, DataType::Float], &rows());
        assert_eq!(batch.rows, 3);
        for (ri, row) in rows().iter().enumerate() {
            for (ci, v) in row.iter().enumerate() {
                assert_eq!(&batch.value_at(ci, ri), v, "({ci},{ri})");
            }
        }
        assert!(matches!(batch.columns[0].data, ColumnData::Int(_)));
        assert!(matches!(batch.columns[1].data, ColumnData::Text(_)));
        assert_eq!(batch.columns[0].nulls.null_count(), 1);
        assert!(batch.columns[0].is_null(1));
        assert!(!batch.columns[0].is_null(2));
    }

    #[test]
    fn mistyped_column_falls_back_to_mixed() {
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Text("oops".into())], // violates the declared Int
        ];
        let batch = ColumnBatch::from_rows(&[DataType::Int], &rows);
        assert!(matches!(batch.columns[0].data, ColumnData::Mixed(_)));
        assert_eq!(batch.value_at(0, 1), Value::Text("oops".into()));
    }

    #[test]
    fn sorted_flag_allows_duplicates_and_rejects_nulls() {
        let sorted = |vals: &[Option<i64>]| {
            let rows: Vec<Vec<Value>> = vals
                .iter()
                .map(|v| vec![v.map_or(Value::Null, Value::Int)])
                .collect();
            ColumnVector::from_rows(DataType::Int, &rows, 0).sorted_asc()
        };
        assert!(sorted(&[Some(1), Some(2), Some(2), Some(7)]), "1,2,2,7");
        assert!(!sorted(&[Some(1), Some(3), Some(2)]));
        assert!(
            !sorted(&[Some(1), None, Some(2)]),
            "a NULL makes a column unsorted"
        );
        assert!(sorted(&[]), "vacuously sorted");
    }

    #[test]
    fn bitmap_counts_and_crosses_word_boundaries() {
        let mut bm = NullBitmap::new(130);
        bm.set_null(0);
        bm.set_null(64);
        bm.set_null(129);
        bm.set_null(129); // idempotent
        assert_eq!(bm.null_count(), 3);
        assert!(bm.is_null(64) && bm.is_null(129) && !bm.is_null(63));
        assert!(bm.any_null());
        assert!(!NullBitmap::new(8).any_null());
    }
}
