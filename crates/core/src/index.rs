//! Secondary ordered column indexes (DESIGN.md §3.6).
//!
//! A [`ColumnIndex`] maps every distinct non-NULL value of one column to
//! the ascending list of row ids holding it: sorted keys, one posting
//! list per key, NULL rows segregated into their own ascending list (3VL:
//! no comparison probe ever matches a NULL; `IS NULL` is served straight
//! from the null list). Keys take a typed fast path for `Int` and `Date`
//! columns and raw strings for `Text`; everything else falls back to the
//! canonical string form ([`Value::canonical`]), and columns that
//! degraded to [`ColumnData::Mixed`] build no index at all.
//!
//! Probes return *candidate row ids* in ascending storage order — always
//! a superset of the rows the originating predicate accepts (for the
//! probes the planner extracts they are exact, but the executor re-applies
//! the full scan filter over the candidates regardless, so a conservative
//! probe can never change a result, only its speed).
//!
//! Indexes are derived data, cached lazily on [`crate::Database`] next to
//! the columnar views and dropped with them when their table is written
//! (see [`crate::Database::index`]); a mutation can therefore never leave
//! a stale index serving reads.

use crate::batch::{ColumnData, ColumnVector};
use crate::value::{Date, Value};

/// The sorted distinct keys of one index, in the column's comparison
/// order. `Str` keys sort by `String` ordering, which coincides with
/// [`Value::compare`] on `Text` — the property that makes string range
/// probes sound.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexKeys {
    Int(Vec<i64>),
    Date(Vec<Date>),
    Str(Vec<String>),
}

impl IndexKeys {
    fn len(&self) -> usize {
        match self {
            IndexKeys::Int(v) => v.len(),
            IndexKeys::Date(v) => v.len(),
            IndexKeys::Str(v) => v.len(),
        }
    }
}

/// An ordered secondary index over one column: sorted distinct keys, an
/// ascending posting list per key, and the NULL rows on the side.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnIndex {
    keys: IndexKeys,
    /// `postings[k]` holds the ascending row ids whose value is `keys[k]`.
    postings: Vec<Vec<u32>>,
    /// Ascending row ids whose value is NULL.
    nulls: Vec<u32>,
    /// Total rows of the indexed column (NULLs included).
    rows: usize,
}

/// Group `(key, row)` pairs — row ids pushed in ascending order — into
/// sorted distinct keys plus ascending posting lists.
fn group<K: Ord>(mut pairs: Vec<(K, u32)>) -> (Vec<K>, Vec<Vec<u32>>) {
    // Stable sort by key alone keeps each key's rows in insertion
    // (ascending) order.
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut keys: Vec<K> = Vec::new();
    let mut postings: Vec<Vec<u32>> = Vec::new();
    for (k, row) in pairs {
        match keys.last() {
            Some(last) if *last == k => postings.last_mut().unwrap().push(row),
            _ => {
                keys.push(k);
                postings.push(vec![row]);
            }
        }
    }
    (keys, postings)
}

/// The string key a non-NULL value indexes under: `Text` uses the raw
/// string (so ordering matches [`Value::compare`]), everything else the
/// canonical form.
fn str_key(v: &Value) -> String {
    match v {
        Value::Text(s) => s.clone(),
        other => other.canonical(),
    }
}

impl ColumnIndex {
    /// Build the index for one column. Returns `None` for `Mixed` columns
    /// (heterogeneous values have no single comparison order an ordered
    /// index could rely on).
    pub fn build(col: &ColumnVector) -> Option<ColumnIndex> {
        let n = col.len();
        let mut nulls = Vec::new();
        let (keys, postings) = match &col.data {
            ColumnData::Mixed(_) => return None,
            ColumnData::Int(vals) => {
                let mut pairs = Vec::with_capacity(n);
                for (i, &v) in vals.iter().enumerate() {
                    if col.is_null(i) {
                        nulls.push(i as u32);
                    } else {
                        pairs.push((v, i as u32));
                    }
                }
                let (k, p) = group(pairs);
                (IndexKeys::Int(k), p)
            }
            ColumnData::Date(vals) => {
                let mut pairs = Vec::with_capacity(n);
                for (i, &v) in vals.iter().enumerate() {
                    if col.is_null(i) {
                        nulls.push(i as u32);
                    } else {
                        pairs.push((v, i as u32));
                    }
                }
                let (k, p) = group(pairs);
                (IndexKeys::Date(k), p)
            }
            ColumnData::Text(vals) => {
                let mut pairs = Vec::with_capacity(n);
                for (i, v) in vals.iter().enumerate() {
                    if col.is_null(i) {
                        nulls.push(i as u32);
                    } else {
                        pairs.push((v.clone(), i as u32));
                    }
                }
                let (k, p) = group(pairs);
                (IndexKeys::Str(k), p)
            }
            ColumnData::Float(_) | ColumnData::Bool(_) => {
                let mut pairs = Vec::with_capacity(n);
                for i in 0..n {
                    if col.is_null(i) {
                        nulls.push(i as u32);
                    } else {
                        pairs.push((str_key(&col.value_at(i)), i as u32));
                    }
                }
                let (k, p) = group(pairs);
                (IndexKeys::Str(k), p)
            }
        };
        Some(ColumnIndex {
            keys,
            postings,
            nulls,
            rows: n,
        })
    }

    /// Total rows of the indexed column (NULLs included).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of distinct non-NULL keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Ascending row ids whose value is NULL (`IS NULL` probes).
    pub fn null_rows(&self) -> &[u32] {
        &self.nulls
    }

    /// Position of the exact key for `v`, or `None` when absent or when
    /// the probe value's type does not match the key representation.
    fn key_pos(&self, v: &Value) -> Option<usize> {
        match (&self.keys, v) {
            (IndexKeys::Int(ks), Value::Int(x)) => ks.binary_search(x).ok(),
            (IndexKeys::Date(ks), Value::Date(d)) => ks.binary_search(d).ok(),
            (IndexKeys::Str(ks), v) if !v.is_null() => ks
                .binary_search_by(|k| k.as_str().cmp(str_key(v).as_str()))
                .ok(),
            _ => None,
        }
    }

    /// First key position not below the bound (`inclusive`) or strictly
    /// above it; `keys.len()` when every key is below. A type-mismatched
    /// bound yields an empty range.
    fn lower_bound(&self, v: &Value, inclusive: bool) -> Option<usize> {
        fn lb<K: Ord>(ks: &[K], v: &K, inclusive: bool) -> usize {
            if inclusive {
                ks.partition_point(|k| k < v)
            } else {
                ks.partition_point(|k| k <= v)
            }
        }
        match (&self.keys, v) {
            (IndexKeys::Int(ks), Value::Int(x)) => Some(lb(ks, x, inclusive)),
            (IndexKeys::Date(ks), Value::Date(d)) => Some(lb(ks, d, inclusive)),
            (IndexKeys::Str(ks), v) if !v.is_null() => Some(lb(ks, &str_key(v), inclusive)),
            _ => None,
        }
    }

    /// One past the last key position not above the bound (`inclusive`) or
    /// strictly below it.
    fn upper_bound(&self, v: &Value, inclusive: bool) -> Option<usize> {
        fn ub<K: Ord>(ks: &[K], v: &K, inclusive: bool) -> usize {
            if inclusive {
                ks.partition_point(|k| k <= v)
            } else {
                ks.partition_point(|k| k < v)
            }
        }
        match (&self.keys, v) {
            (IndexKeys::Int(ks), Value::Int(x)) => Some(ub(ks, x, inclusive)),
            (IndexKeys::Date(ks), Value::Date(d)) => Some(ub(ks, d, inclusive)),
            (IndexKeys::Str(ks), v) if !v.is_null() => Some(ub(ks, &str_key(v), inclusive)),
            _ => None,
        }
    }

    /// Ascending row ids whose value equals `v` (empty when `v` is NULL,
    /// absent, or type-mismatched — equality with NULL is never true).
    pub fn eq_rows(&self, v: &Value) -> Vec<u32> {
        match self.key_pos(v) {
            Some(k) => self.postings[k].clone(),
            None => Vec::new(),
        }
    }

    /// Ascending row ids whose value lies in the (optionally half-open)
    /// range. Each bound is `(value, inclusive)`; a missing bound is
    /// unbounded on that side. NULL rows never match.
    pub fn range_rows(&self, lo: Option<(&Value, bool)>, hi: Option<(&Value, bool)>) -> Vec<u32> {
        let start = match lo {
            Some((v, incl)) => match self.lower_bound(v, incl) {
                Some(s) => s,
                None => return Vec::new(),
            },
            None => 0,
        };
        let end = match hi {
            Some((v, incl)) => match self.upper_bound(v, incl) {
                Some(e) => e,
                None => return Vec::new(),
            },
            None => self.keys.len(),
        };
        if start >= end {
            return Vec::new();
        }
        let mut out: Vec<u32> = self.postings[start..end].concat();
        // Posting lists are each ascending, but rows interleave across
        // keys; restore global storage order for the selection vector.
        out.sort_unstable();
        out
    }

    /// Ascending row ids whose value equals any of `vals` (IN-list probe).
    pub fn in_rows(&self, vals: &[Value]) -> Vec<u32> {
        let mut out = Vec::new();
        for v in vals {
            out.extend_from_slice(&self.eq_rows(v));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Drop the first row id of every posting list and of the NULL list —
    /// the fuzz harness's negative-test hook (`--inject-index-bug`): a
    /// corrupted index must make the planned pipeline visibly diverge from
    /// the tree-walk reference.
    #[doc(hidden)]
    pub fn corrupt_postings_for_test(&mut self) {
        for p in &mut self.postings {
            if !p.is_empty() {
                p.remove(0);
            }
        }
        if !self.nulls.is_empty() {
            self.nulls.remove(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn col(vals: Vec<Value>, dt: DataType) -> ColumnVector {
        let rows: Vec<Vec<Value>> = vals.into_iter().map(|v| vec![v]).collect();
        crate::batch::ColumnBatch::from_rows(&[dt], &rows)
            .columns
            .remove(0)
    }

    #[test]
    fn int_index_groups_duplicates_and_segregates_nulls() {
        let c = col(
            vec![
                Value::Int(5),
                Value::Null,
                Value::Int(2),
                Value::Int(5),
                Value::Null,
                Value::Int(9),
            ],
            DataType::Int,
        );
        let idx = ColumnIndex::build(&c).unwrap();
        assert_eq!(idx.rows(), 6);
        assert_eq!(idx.key_count(), 3);
        assert_eq!(idx.null_rows(), &[1, 4]);
        assert_eq!(idx.eq_rows(&Value::Int(5)), vec![0, 3]);
        assert_eq!(idx.eq_rows(&Value::Int(7)), Vec::<u32>::new());
        assert_eq!(idx.eq_rows(&Value::Null), Vec::<u32>::new());
    }

    #[test]
    fn range_probes_cover_every_bound_shape_in_storage_order() {
        let c = col(
            vec![
                Value::Int(30),
                Value::Int(10),
                Value::Int(20),
                Value::Int(10),
                Value::Null,
            ],
            DataType::Int,
        );
        let idx = ColumnIndex::build(&c).unwrap();
        let v = Value::Int(10);
        assert_eq!(idx.range_rows(Some((&v, true)), None), vec![0, 1, 2, 3]);
        assert_eq!(idx.range_rows(Some((&v, false)), None), vec![0, 2]);
        assert_eq!(
            idx.range_rows(None, Some((&Value::Int(20), true))),
            vec![1, 2, 3]
        );
        assert_eq!(
            idx.range_rows(None, Some((&Value::Int(20), false))),
            vec![1, 3]
        );
        assert_eq!(
            idx.range_rows(
                Some((&Value::Int(10), false)),
                Some((&Value::Int(30), false))
            ),
            vec![2]
        );
        assert_eq!(idx.range_rows(None, None), vec![0, 1, 2, 3]);
        assert!(idx
            .range_rows(Some((&Value::Int(31), true)), None)
            .is_empty());
        // crossed bounds: empty, not a panic
        assert!(idx
            .range_rows(Some((&Value::Int(20), true)), Some((&Value::Int(10), true)))
            .is_empty());
    }

    #[test]
    fn text_keys_use_raw_string_order() {
        let c = col(
            vec![
                Value::Text("pear".into()),
                Value::Text("apple".into()),
                Value::Text("fig".into()),
            ],
            DataType::Text,
        );
        let idx = ColumnIndex::build(&c).unwrap();
        assert_eq!(idx.eq_rows(&Value::Text("fig".into())), vec![2]);
        assert_eq!(
            idx.range_rows(Some((&Value::Text("b".into()), true)), None),
            vec![0, 2]
        );
    }

    #[test]
    fn in_probe_dedups_and_sorts() {
        let c = col(
            vec![Value::Int(3), Value::Int(1), Value::Int(3)],
            DataType::Int,
        );
        let idx = ColumnIndex::build(&c).unwrap();
        assert_eq!(
            idx.in_rows(&[Value::Int(3), Value::Int(1), Value::Int(3), Value::Int(8)]),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn type_mismatched_probes_are_empty_not_wrong() {
        let c = col(vec![Value::Int(1), Value::Int(2)], DataType::Int);
        let idx = ColumnIndex::build(&c).unwrap();
        assert!(idx.eq_rows(&Value::Float(1.0)).is_empty());
        assert!(idx
            .range_rows(Some((&Value::Text("1".into()), true)), None)
            .is_empty());
    }

    #[test]
    fn mixed_columns_build_no_index() {
        let rows = vec![vec![Value::Int(1)], vec![Value::Text("x".into())]];
        let batch = crate::batch::ColumnBatch::from_rows(&[DataType::Int], &rows);
        assert!(matches!(batch.columns[0].data, ColumnData::Mixed(_)));
        assert!(ColumnIndex::build(&batch.columns[0]).is_none());
    }

    #[test]
    fn corruption_hook_drops_rows() {
        let c = col(
            vec![Value::Int(4), Value::Int(4), Value::Null],
            DataType::Int,
        );
        let mut idx = ColumnIndex::build(&c).unwrap();
        idx.corrupt_postings_for_test();
        assert_eq!(idx.eq_rows(&Value::Int(4)), vec![1]);
        assert!(idx.null_rows().is_empty());
    }
}
