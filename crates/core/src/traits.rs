//! The survey's two abstract components: the semantic parser `P` and the
//! execution engine `E`.
//!
//! Text-to-SQL instantiates `Expr = nli_sql::ast::Query` with
//! `Output = nli_sql::exec::ResultSet`; Text-to-Vis instantiates
//! `Expr = nli_vql::ast::VisQuery` with `Output = nli_vql::render::Chart`.

use crate::database::Database;
use crate::error::Result;
use crate::question::NlQuestion;

/// A semantic parser `P`: translates a natural-language question over a
/// database into a functional expression (SQL query, visualization query,
/// ...).
pub trait SemanticParser {
    /// The functional expression type `e` this parser emits.
    type Expr;

    /// Translate `question` against `db`'s schema (parsers may also consult
    /// database *content*, e.g. for value grounding).
    fn parse(&self, question: &NlQuestion, db: &Database) -> Result<Self::Expr>;

    /// Short stable identifier used in evaluation reports (e.g. `"nalir"`,
    /// `"din-sql"`).
    fn name(&self) -> &str;
}

/// An execution engine `E`: evaluates a functional expression on a database,
/// `E(e, D) → r`.
pub trait ExecutionEngine {
    type Expr;
    type Output;

    fn execute(&self, expr: &Self::Expr, db: &Database) -> Result<Self::Output>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    /// The traits must be object-safe enough for heterogeneous parser
    /// registries (Table 2's harness stores `Box<dyn SemanticParser<...>>`).
    struct Echo;
    impl SemanticParser for Echo {
        type Expr = String;
        fn parse(&self, q: &NlQuestion, _db: &Database) -> Result<String> {
            Ok(q.text.clone())
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    #[test]
    fn boxed_parsers_work() {
        let p: Box<dyn SemanticParser<Expr = String>> = Box::new(Echo);
        let db = Database::empty(Schema::new("empty", vec![]));
        let out = p.parse(&NlQuestion::new("hi"), &db).unwrap();
        assert_eq!(out, "hi");
        assert_eq!(p.name(), "echo");
    }
}
