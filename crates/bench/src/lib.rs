//! # nli-bench
//!
//! Shared harness machinery for the table/figure binaries (see
//! DESIGN.md §4 for the per-experiment index):
//!
//! * `table1` — dataset statistics (generated corpora vs. paper-reported),
//! * `table2` — approach comparison on WikiSQL-/Spider-/nvBench-like dev,
//! * `table3` — evaluation-metric meta-analysis,
//! * `table4` — system-architecture comparison,
//! * `table5` — Text-to-SQL vs Text-to-Vis landscape,
//! * `fig1_workflow` — the interactive workflow demo,
//! * `fig4_timeline` — the approach-evolution timeline.
//!
//! [`suite`] builds the standard benchmark set and the trained parser
//! registry so every binary measures the same artifacts. [`baseline`]
//! and [`scaled`] hold the fixed SQL query ladders and their databases,
//! shared by the criterion engine benches, the `nli-server` load
//! generator, `nlibench`, and the tests that check the ladders' answers.

pub mod baseline;
pub mod scaled;
pub mod suite;
pub mod summary;
pub mod timeline;
