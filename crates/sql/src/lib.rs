//! # nli-sql
//!
//! The SQL side of the survey's problem definition: the functional
//! expression `e` is a [`ast::Query`], and the execution engine `E` is
//! [`exec::SqlEngine`], which evaluates queries on an in-memory
//! [`nli_core::Database`] to produce a [`exec::ResultSet`] `r`.
//!
//! Execution is a two-stage pipeline: [`plan::plan_query`] compiles a
//! parsed query against a [`nli_core::Schema`] into a logical
//! [`plan::QueryPlan`] (name resolution, hash-join extraction, predicate
//! pushdown, and, given table statistics, scan estimates and index
//! probes), and [`exec`] runs plans against databases through one
//! vectorized evaluator. [`exec::SqlEngine`] fronts both stages with a
//! schema-fingerprinted plan cache, so one prepared statement
//! ([`exec::PreparedSql`]) can run across many database variants that
//! share a schema. The original tree-walking interpreter survives in
//! [`interp`] as the reference implementation for differential testing.
//!
//! The dialect is the cross-domain benchmark subset (Spider-class):
//! `SELECT [DISTINCT] ... FROM ... [JOIN ... ON ...] [WHERE ...]
//! [GROUP BY ... [HAVING ...]] [ORDER BY ... [ASC|DESC]] [LIMIT n]` with
//! aggregates, arithmetic, `AND`/`OR`/`NOT`, `LIKE`, `BETWEEN`, `IN
//! (list|subquery)`, scalar subqueries, and `UNION`/`INTERSECT`/`EXCEPT`.
//! Uncorrelated subqueries only — the same restriction the Spider grammar
//! enforces in practice.
//!
//! Besides parsing and execution, the crate provides what *evaluation*
//! needs: a canonical printer ([`normalize::normalize`]) for exact-match
//! scoring and a Spider-style component decomposition
//! ([`components::decompose`]) for exact-set-match scoring.
//!
//! ## Example
//!
//! ```
//! use nli_core::{Column, DataType, Database, Schema, Table, Value};
//! use nli_sql::SqlEngine;
//!
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
//! let mut db = Database::empty(schema.clone());
//! db.insert_all(
//!     "sales",
//!     vec![
//!         vec![Value::Int(1), Value::Float(10.0)],
//!         vec![Value::Int(2), Value::Float(30.0)],
//!     ],
//! )
//! .unwrap();
//!
//! // Prepare once (parse + plan, cached by schema fingerprint)...
//! let engine = SqlEngine::new();
//! let stmt = engine
//!     .prepare("SELECT COUNT(*) FROM sales WHERE amount > 15", &schema)
//!     .unwrap();
//! // ...then execute on any database sharing that schema.
//! let rs = stmt.execute(&db).unwrap();
//! assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
//! ```

pub mod ast;
pub mod components;
pub mod exec;
pub mod explain;
pub mod interp;
pub mod normalize;
pub mod parser;
pub mod plan;
pub mod token;
mod vexec;

pub use ast::{
    AggFunc, BinOp, ColName, DeleteStmt, Expr, InsertStmt, JoinCond, OrderItem, Query, Select,
    SelectItem, SetOp, Statement, TableRef, UpdateStmt,
};
pub use components::{decompose, QueryComponents};
pub use exec::{CanonicalResult, PreparedSql, ResultSet, SqlEngine, StatementResult};
pub use explain::{AnalyzedSql, OpStats, PlanProfile, SelectProfile};
pub use interp::compute_dml_tree_walk;
pub use normalize::normalize;
pub use parser::{parse_query, parse_statement};
pub use plan::{plan_dml, plan_query, DmlPlan, IndexAccess, IndexOptions, IndexProbe, QueryPlan};
pub use vexec::with_batch_rows;
