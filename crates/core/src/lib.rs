//! # nli-core
//!
//! Shared problem definition for natural language interfaces (NLIs) to
//! tabular data, following the formalization of the survey:
//!
//! > given an input `x = {q, s}` with a natural language query `q` and a
//! > database schema `s`, a semantic parser `P` translates `q` into a
//! > functional expression `e`, which an execution engine `E` evaluates on
//! > the database `D` to produce a result `r`: `E(e, D) → r`.
//!
//! This crate hosts everything both tasks (Text-to-SQL and Text-to-Vis)
//! share: dynamically typed [`Value`]s, [`Schema`]s with primary/foreign
//! keys, in-memory [`Database`]s, natural-language [`NlQuestion`]s and
//! multi-turn [`Dialogue`]s, deterministic random sampling ([`Prng`]), the
//! deterministic parallel runtime ([`par`]), the observability registry
//! ([`obs`]), and the [`SemanticParser`] / [`ExecutionEngine`] traits that
//! the rest of the workspace implements.
//!
//! ## Example
//!
//! ```
//! use nli_core::{Column, DataType, Database, Schema, Table, Value};
//!
//! // The shared problem input: a schema `s` and the database `D` behind it.
//! let schema = Schema::new(
//!     "shop",
//!     vec![Table::new(
//!         "sales",
//!         vec![
//!             Column::new("id", DataType::Int).primary(),
//!             Column::new("amount", DataType::Float),
//!         ],
//!     )],
//! );
//! let mut db = Database::empty(schema);
//! db.insert_all(
//!     "sales",
//!     vec![
//!         vec![Value::Int(1), Value::Float(10.0)],
//!         vec![Value::Int(2), Value::Float(30.0)],
//!     ],
//! )
//! .unwrap();
//! assert_eq!(db.rows_of("sales").unwrap().len(), 2);
//!
//! // Deterministic fan-out: the same output at any worker count.
//! let doubled = nli_core::par_map(&[1u64, 2, 3], |_idx, x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//! ```

pub mod batch;
pub mod cache;
pub mod database;
pub mod error;
pub mod index;
pub mod obs;
pub mod par;
pub mod question;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod storage;
pub mod traits;
pub mod value;

pub use batch::{ColumnBatch, ColumnData, ColumnVector, NullBitmap};
pub use cache::{CacheStats, PlanCache};
pub use database::{Database, TableData};
pub use error::{NliError, Result};
pub use index::{ColumnIndex, IndexKeys};
pub use par::{par_map, par_map_threads, thread_count, with_threads};
pub use question::{Dialogue, Language, NlQuestion, Turn};
pub use rng::Prng;
pub use schema::{Column, ColumnRef, ForeignKey, Schema, Table};
pub use stats::{ColumnStats, DatabaseStats, TableStats};
pub use storage::{DmlOp, FailpointFs, RecoveryReport, Store};
pub use traits::{ExecutionEngine, SemanticParser};
pub use value::{DataType, Date, Value};
