//! Table statistics for cost-based planning.
//!
//! [`DatabaseStats`] carries one [`TableStats`] per table — row count plus
//! per-column [`ColumnStats`] (null count, estimated NDV, min/max).
//! Statistics are derived data, computed from the columnar
//! form ([`crate::ColumnBatch`]) and cached per table on the
//! [`crate::Database`] (see [`crate::Database::table_stats`]); a write
//! drops the written table's statistics and advances the database's
//! *stats epoch*, which invalidates stats-keyed plan-cache entries
//! ([`crate::PlanCache`]).
//!
//! The numbers feed a planner cost model, not query results: a stale or
//! crude estimate can only produce a slower plan, never a wrong answer.

use crate::batch::{ColumnBatch, ColumnData, ColumnVector};
use crate::value::Value;

/// Rows sampled (evenly strided) for NDV estimation; columns in tables at
/// or below this row count get an exact distinct count.
pub const NDV_SAMPLE_CAP: usize = 4096;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// NULL rows in the column.
    pub null_count: u64,
    /// Estimated number of distinct non-NULL values (canonical equality).
    /// Exact for tables with at most [`NDV_SAMPLE_CAP`] rows; otherwise a
    /// linear scale-up of a strided sample, clamped to the row count.
    pub ndv: u64,
    /// Smallest non-NULL value (by [`Value::total_cmp`]); `None` when the
    /// column has no non-NULL values.
    pub min: Option<Value>,
    /// Largest non-NULL value.
    pub max: Option<Value>,
}

impl ColumnStats {
    /// Fraction of rows that are NULL, given the table's `row_count`.
    pub fn null_fraction(&self, row_count: u64) -> f64 {
        if row_count == 0 {
            0.0
        } else {
            self.null_count as f64 / row_count as f64
        }
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub row_count: u64,
    /// One entry per schema column, index-aligned.
    pub columns: Vec<ColumnStats>,
}

/// Statistics for a whole database, tables index-aligned with
/// `schema.tables`.
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseStats {
    pub tables: Vec<TableStats>,
}

impl TableStats {
    /// Compute statistics from a table's columnar form.
    pub fn compute(batch: &ColumnBatch) -> TableStats {
        TableStats {
            row_count: batch.rows as u64,
            columns: batch.columns.iter().map(column_stats).collect(),
        }
    }
}

fn column_stats(col: &ColumnVector) -> ColumnStats {
    ColumnStats {
        null_count: col.nulls.null_count() as u64,
        ndv: estimate_ndv(col),
        min: min_max(col, false),
        max: min_max(col, true),
    }
}

/// Distinct non-NULL values under canonical equality, exact up to
/// [`NDV_SAMPLE_CAP`] rows, then estimated from an evenly strided sample.
///
/// Typed columns count typed keys; only [`ColumnData::Mixed`] pays for a
/// [`Value::canonical`] string per sampled cell. Each typed key is equal
/// exactly when the canonical strings are, so the estimate is the same.
fn estimate_ndv(col: &ColumnVector) -> u64 {
    match &col.data {
        ColumnData::Int(v) => count_distinct(col, |i| v[i]),
        ColumnData::Float(v) => count_distinct(col, |i| float_key(v[i])),
        ColumnData::Bool(v) => count_distinct(col, |i| v[i]),
        ColumnData::Text(v) => count_distinct(col, |i| v[i].as_str()),
        ColumnData::Date(v) => count_distinct(col, |i| v[i]),
        ColumnData::Mixed(v) => count_distinct(col, |i| v[i].canonical()),
    }
}

/// The NDV estimator over the non-NULL rows of `col`, keyed by `key`.
///
/// It scales by sample *singletons* (values seen exactly once):
/// `d + f1 * (n - s) / s`. An all-distinct sample (key column)
/// extrapolates to the full row count; a sample dominated by repeats
/// (small enum) stays at the observed distinct count.
///
/// The sampled keys are sorted and counted in runs: `d` runs, `f1` of
/// length one.
fn count_distinct<K: Ord>(col: &ColumnVector, key: impl Fn(usize) -> K) -> u64 {
    let n = col.len();
    // every row, or a deterministic even stride over the column
    let row = |k: usize| {
        if n <= NDV_SAMPLE_CAP {
            k
        } else {
            k * n / NDV_SAMPLE_CAP
        }
    };
    let mut keys: Vec<K> = (0..n.min(NDV_SAMPLE_CAP))
        .map(row)
        .filter(|&i| !col.is_null(i))
        .map(key)
        .collect();
    keys.sort_unstable();
    let (mut d, mut f1) = (0u64, 0u64);
    for (i, k) in keys.iter().enumerate() {
        let starts = i == 0 || keys[i - 1] != *k;
        let ends = i + 1 == keys.len() || keys[i + 1] != *k;
        d += u64::from(starts);
        f1 += u64::from(starts && ends);
    }
    if n <= NDV_SAMPLE_CAP {
        return d;
    }
    let (n, s) = (n as u64, NDV_SAMPLE_CAP as u64);
    (d + f1 * (n - s) / s).clamp(d, n)
}

/// An `f64` key with [`Value::canonical`]'s equality. Canonical spells an
/// integral float below 1e15 as an integer, which folds `-0.0` into
/// `0.0`, and every NaN as `NaN`; any other float has its own shortest
/// round-trip spelling, so its bits are its key.
pub fn float_key(f: f64) -> u64 {
    if f == 0.0 {
        0
    } else if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

/// Typed min-or-max fold over the non-NULL values.
fn min_max(col: &ColumnVector, want_max: bool) -> Option<Value> {
    fn fold<T: Copy, F: Fn(T, T) -> bool>(
        col: &ColumnVector,
        data: &[T],
        better: F,
        wrap: fn(T) -> Value,
    ) -> Option<Value> {
        let mut best: Option<T> = None;
        for (i, &x) in data.iter().enumerate() {
            if col.is_null(i) {
                continue;
            }
            best = Some(match best {
                None => x,
                Some(b) => {
                    if better(x, b) {
                        x
                    } else {
                        b
                    }
                }
            });
        }
        best.map(wrap)
    }
    match &col.data {
        ColumnData::Int(v) => fold(col, v, |a, b| (a > b) == want_max && a != b, Value::Int),
        ColumnData::Float(v) => fold(
            col,
            v,
            |a, b| {
                let gt = a.total_cmp(&b) == std::cmp::Ordering::Greater;
                gt == want_max && a.total_cmp(&b) != std::cmp::Ordering::Equal
            },
            Value::Float,
        ),
        ColumnData::Date(v) => fold(col, v, |a, b| (a > b) == want_max && a != b, Value::Date),
        ColumnData::Bool(v) => fold(col, v, |a, b| (a & !b) == want_max && a != b, Value::Bool),
        ColumnData::Text(v) => {
            let mut best: Option<&str> = None;
            for (i, s) in v.iter().enumerate() {
                if col.is_null(i) {
                    continue;
                }
                best = Some(match best {
                    None => s,
                    Some(b) => {
                        if (s.as_str() > b) == want_max && s.as_str() != b {
                            s
                        } else {
                            b
                        }
                    }
                });
            }
            best.map(|s| Value::Text(s.to_string()))
        }
        ColumnData::Mixed(v) => {
            let mut best: Option<&Value> = None;
            for (i, x) in v.iter().enumerate() {
                if col.is_null(i) {
                    continue;
                }
                best = Some(match best {
                    None => x,
                    Some(b) => {
                        let gt = x.total_cmp(b) == std::cmp::Ordering::Greater;
                        if gt == want_max && x.total_cmp(b) != std::cmp::Ordering::Equal {
                            x
                        } else {
                            b
                        }
                    }
                });
            }
            best.cloned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;
    use crate::value::{DataType, Date};
    use proptest::prelude::*;

    fn batch(vals: Vec<Vec<Value>>, dtypes: &[DataType]) -> ColumnBatch {
        ColumnBatch::from_rows(dtypes, &vals)
    }

    /// The reference count: one [`Value::canonical`] string per sampled
    /// cell, whatever the column's storage.
    fn estimate_ndv_canonical(col: &ColumnVector) -> u64 {
        count_distinct(col, |i| col.value_at(i).canonical())
    }

    /// Floats whose canonical spellings fold or sit on a boundary.
    const FLOAT_EDGES: [f64; 14] = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        999_999_999_999_999.0,
        -999_999_999_999_999.0,
        1e15,
        -1e15,
        1e15 + 2.0,
        9_007_199_254_740_992.0,
        0.5,
        -2.5,
    ];

    /// The `j`-th value of a column of `kind` (0 Int, 1 Float, 2 Bool,
    /// 3 Text, 4 Date, 5 a Bool column holding no bools, stored Mixed).
    fn pool_value(kind: usize, j: u64) -> Value {
        match kind {
            0 => Value::Int(j as i64 - 1000),
            1 => Value::Float(match j % 4 {
                0 => FLOAT_EDGES[(j / 4) as usize % FLOAT_EDGES.len()],
                1 => j as f64 * 0.5 - 100.0,
                2 => 1e15 + j as f64,
                _ => f64::from_bits(f64::NAN.to_bits() | j),
            }),
            2 => Value::Bool(j.is_multiple_of(2)),
            3 => Value::Text(format!("t{j}")),
            4 => Value::Date(Date::new(
                1990 + (j % 40) as i32,
                (j / 40 % 12) as u8 + 1,
                (j / 480 % 28) as u8 + 1,
            )),
            // equal canonical spellings across types: 1, 1.0 and "1"
            _ => match j % 3 {
                0 => Value::Int((j / 3) as i64),
                1 => Value::Float((j / 3) as f64),
                _ => Value::Text(format!("{}", j / 3)),
            },
        }
    }

    fn column(kind: usize, len: usize, pool: u64, seed: u64) -> ColumnVector {
        const DTYPES: [DataType; 6] = [
            DataType::Int,
            DataType::Float,
            DataType::Bool,
            DataType::Text,
            DataType::Date,
            DataType::Bool,
        ];
        let mut rng = Prng::new(seed);
        let rows: Vec<Vec<Value>> = (0..len)
            .map(|_| match rng.below(8) {
                0 => vec![Value::Null],
                _ => vec![pool_value(kind, rng.below(pool as usize) as u64)],
            })
            .collect();
        ColumnVector::from_rows(DTYPES[kind], &rows, 0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn typed_ndv_equals_the_canonical_string_count(
            kind in 0usize..6,
            len in prop_oneof![0usize..200, 4090usize..4100, 4097usize..12_000],
            pool in prop_oneof![1u64..4, 4u64..100, 1000u64..100_000],
            seed in any::<u64>(),
        ) {
            let col = column(kind, len, pool, seed);
            if kind == 5 && col.nulls.null_count() < col.len() {
                prop_assert!(matches!(col.data, ColumnData::Mixed(_)));
            }
            prop_assert_eq!(estimate_ndv(&col), estimate_ndv_canonical(&col));
        }
    }

    #[test]
    fn float_keys_fold_exactly_where_canonical_does() {
        let rows: Vec<Vec<Value>> = FLOAT_EDGES.iter().map(|&f| vec![Value::Float(f)]).collect();
        let col = ColumnVector::from_rows(DataType::Float, &rows, 0);
        // 0.0/-0.0 and the two NaNs fold; every other edge is its own value
        assert_eq!(estimate_ndv(&col), FLOAT_EDGES.len() as u64 - 2);
        assert_eq!(estimate_ndv(&col), estimate_ndv_canonical(&col));
    }

    #[test]
    fn exact_stats_on_a_small_table() {
        let b = batch(
            vec![
                vec![Value::Int(1), Value::Text("b".into())],
                vec![Value::Int(2), Value::Text("a".into())],
                vec![Value::Int(2), Value::Null],
                vec![Value::Int(7), Value::Text("a".into())],
            ],
            &[DataType::Int, DataType::Text],
        );
        let t = TableStats::compute(&b);
        assert_eq!(t.row_count, 4);
        let id = &t.columns[0];
        assert_eq!((id.null_count, id.ndv), (0, 3));
        assert_eq!(id.min, Some(Value::Int(1)));
        assert_eq!(id.max, Some(Value::Int(7)));
        let name = &t.columns[1];
        assert_eq!((name.null_count, name.ndv), (1, 2));
        assert_eq!(name.min, Some(Value::Text("a".into())));
        assert_eq!(name.max, Some(Value::Text("b".into())));
    }

    #[test]
    fn sampled_ndv_extrapolates_unique_keys_to_row_count() {
        let rows: Vec<Vec<Value>> = (0..20_000).map(|i| vec![Value::Int(i)]).collect();
        let t = TableStats::compute(&batch(rows, &[DataType::Int]));
        // strided sample is all-distinct → scaled estimate hits the clamp
        assert_eq!(t.columns[0].ndv, 20_000);
    }

    #[test]
    fn sampled_ndv_stays_low_for_low_cardinality_columns() {
        let rows: Vec<Vec<Value>> = (0..20_000).map(|i| vec![Value::Int(i % 5)]).collect();
        let t = TableStats::compute(&batch(rows, &[DataType::Int]));
        assert_eq!(t.columns[0].ndv, 5, "no sample singletons → no scale-up");
    }

    #[test]
    fn empty_table_stats_are_all_zero() {
        let t = TableStats::compute(&batch(Vec::new(), &[DataType::Float]));
        assert_eq!(t.row_count, 0);
        assert_eq!(t.columns[0].ndv, 0);
        assert_eq!(t.columns[0].min, None);
    }
}
