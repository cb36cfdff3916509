//! Benchmark-level evaluation: run a parser over a dev split and score it
//! with every automatic metric at once.
//!
//! Per-example scoring fans out over [`nli_core::par`]: examples are
//! independent, the engine (and its plan cache) is shared across workers,
//! and the per-example rows are reduced in dev-split order, so scores are
//! bit-identical at any `NLI_THREADS` setting (only the wall-clock
//! `avg_micros` field varies).

use crate::component::{component_f1, exact_set_match};
use crate::execution::execution_match_with;
use crate::string_match::exact_match;
use crate::vis::{vis_component_accuracy, vis_exact_match, vis_execution_match};
use nli_core::{obs, par, SemanticParser};
use nli_data::{SqlBenchmark, VisBenchmark};
use nli_sql::{Query, SqlEngine};
use nli_vql::VisQuery;

/// Aggregate scores of one Text-to-SQL parser on one benchmark dev split.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlScores {
    pub parser: String,
    pub benchmark: String,
    pub n: usize,
    /// Exact (normalized) string match rate — the strict EM.
    pub exact: f64,
    /// Spider-style exact set match rate — the reported "EM".
    pub exact_set: f64,
    /// Execution accuracy — the reported "EX".
    pub execution: f64,
    /// Mean partial component credit.
    pub component: f64,
    /// Fraction of predictions that parse and execute.
    pub valid: f64,
    /// Mean wall-clock per question, microseconds.
    pub avg_micros: f64,
}

impl SqlScores {
    /// Fixed-width report row.
    pub fn row(&self) -> String {
        format!(
            "{:<26} {:>5}  EM={:>5.1}%  EX={:>5.1}%  comp={:>5.1}%  valid={:>5.1}%  {:>7.0}us",
            self.parser,
            self.n,
            100.0 * self.exact_set,
            100.0 * self.execution,
            100.0 * self.component,
            100.0 * self.valid,
            self.avg_micros
        )
    }
}

/// Per-example metric row, reduced in dev-split order.
struct SqlRow {
    valid: usize,
    exact: usize,
    set: usize,
    exec: usize,
    comp: f64,
}

/// Evaluate a parser on a benchmark's dev split. Examples are scored in
/// parallel (see the module docs for the determinism contract).
pub fn evaluate_sql(
    parser: &(dyn SemanticParser<Expr = Query> + Sync),
    bench: &SqlBenchmark,
) -> SqlScores {
    // One engine for the whole split, shared across workers: gold queries
    // repeat across examples and share schemas, so the plan cache amortizes
    // parsing once for everyone.
    let engine = SqlEngine::new();
    let registry = obs::global();
    let timing = obs::span!("eval.sql");
    registry.counter("eval.sql.runs").inc();
    registry
        .counter("eval.sql.examples")
        .add(bench.dev.len() as u64);
    let rows = par::par_map(&bench.dev, |_, ex| {
        // One tree per example: `par_map` detaches items from the run's
        // `eval.sql` guard, so the shape is the same at any worker count.
        let _span = obs::span!("eval.sql.example");
        let db = bench.db_of(ex);
        let gold = ex.gold.to_string();
        match parser.parse(&ex.question, db) {
            Ok(pred) => {
                let pred = pred.to_string();
                SqlRow {
                    valid: usize::from(engine.run_sql(&pred, db).is_ok()),
                    exact: usize::from(exact_match(&pred, &gold)),
                    set: usize::from(exact_set_match(&pred, &gold)),
                    exec: usize::from(execution_match_with(&engine, &pred, &gold, db)),
                    comp: component_f1(&pred, &gold),
                }
            }
            Err(_) => SqlRow {
                valid: 0,
                exact: 0,
                set: 0,
                exec: 0,
                comp: 0.0,
            },
        }
    });
    let n = bench.dev.len().max(1);
    SqlScores {
        parser: parser.name().to_string(),
        benchmark: bench.name.clone(),
        n: bench.dev.len(),
        exact: rows.iter().map(|r| r.exact).sum::<usize>() as f64 / n as f64,
        exact_set: rows.iter().map(|r| r.set).sum::<usize>() as f64 / n as f64,
        execution: rows.iter().map(|r| r.exec).sum::<usize>() as f64 / n as f64,
        component: rows.iter().map(|r| r.comp).sum::<f64>() / n as f64,
        valid: rows.iter().map(|r| r.valid).sum::<usize>() as f64 / n as f64,
        avg_micros: timing.finish() as f64 / n as f64,
    }
}

/// Aggregate scores of one Text-to-Vis parser on one benchmark dev split.
#[derive(Debug, Clone, PartialEq)]
pub struct VisScores {
    pub parser: String,
    pub benchmark: String,
    pub n: usize,
    /// Overall accuracy (exact VQL match) — the reported "Acc.".
    pub overall: f64,
    /// Mean per-component accuracy.
    pub component: f64,
    /// Chart execution match rate.
    pub execution: f64,
    pub avg_micros: f64,
}

impl VisScores {
    pub fn row(&self) -> String {
        format!(
            "{:<26} {:>5}  Acc={:>5.1}%  comp={:>5.1}%  exec={:>5.1}%  {:>7.0}us",
            self.parser,
            self.n,
            100.0 * self.overall,
            100.0 * self.component,
            100.0 * self.execution,
            self.avg_micros
        )
    }
}

/// Evaluate a vis parser on a benchmark's dev split. Examples are scored
/// in parallel (see the module docs for the determinism contract).
pub fn evaluate_vis(
    parser: &(dyn SemanticParser<Expr = VisQuery> + Sync),
    bench: &VisBenchmark,
) -> VisScores {
    let registry = obs::global();
    let timing = obs::span!("eval.vis");
    registry.counter("eval.vis.runs").inc();
    registry
        .counter("eval.vis.examples")
        .add(bench.dev.len() as u64);
    let rows = par::par_map(&bench.dev, |_, ex| {
        let _span = obs::span!("eval.vis.example");
        let db = bench.db_of(ex);
        match parser.parse(&ex.question, db) {
            Ok(pred) => (
                usize::from(vis_exact_match(&pred, &ex.gold)),
                vis_component_accuracy(&pred, &ex.gold),
                usize::from(vis_execution_match(&pred, &ex.gold, db)),
            ),
            Err(_) => (0, 0.0, 0),
        }
    });
    let n = bench.dev.len().max(1);
    VisScores {
        parser: parser.name().to_string(),
        benchmark: bench.name.clone(),
        n: bench.dev.len(),
        overall: rows.iter().map(|r| r.0).sum::<usize>() as f64 / n as f64,
        component: rows.iter().map(|r| r.1).sum::<f64>() / n as f64,
        execution: rows.iter().map(|r| r.2).sum::<usize>() as f64 / n as f64,
        avg_micros: timing.finish() as f64 / n as f64,
    }
}

/// A "gold echo" parser used to sanity-check the harness: it always returns
/// the gold program, so every metric must report 100%.
pub struct OracleSql<'a> {
    bench: &'a SqlBenchmark,
}

impl<'a> OracleSql<'a> {
    pub fn new(bench: &'a SqlBenchmark) -> Self {
        OracleSql { bench }
    }
}

impl SemanticParser for OracleSql<'_> {
    type Expr = Query;
    fn parse(
        &self,
        question: &nli_core::NlQuestion,
        _db: &nli_core::Database,
    ) -> nli_core::Result<Query> {
        self.bench
            .dev
            .iter()
            .chain(&self.bench.train)
            .find(|e| e.question.text == question.text)
            .map(|e| e.gold.clone())
            .ok_or_else(|| nli_core::NliError::Parse("unknown question".into()))
    }
    fn name(&self) -> &str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_data::spider_like::{self, SpiderConfig};

    fn bench() -> SqlBenchmark {
        spider_like::build(&SpiderConfig {
            n_databases: 13,
            n_dev_databases: 3,
            n_train: 10,
            n_dev: 30,
            ..Default::default()
        })
    }

    #[test]
    fn oracle_scores_perfectly() {
        let b = bench();
        let oracle = OracleSql::new(&b);
        let s = evaluate_sql(&oracle, &b);
        assert_eq!(s.n, 30);
        assert!((s.exact - 1.0).abs() < 1e-9, "{s:?}");
        assert!((s.exact_set - 1.0).abs() < 1e-9);
        assert!((s.execution - 1.0).abs() < 1e-9);
        assert!((s.valid - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rows_render() {
        let b = bench();
        let s = evaluate_sql(&OracleSql::new(&b), &b);
        let row = s.row();
        assert!(row.contains("oracle"));
        assert!(row.contains("EM=100.0%"));
    }
}
