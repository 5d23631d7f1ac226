//! # evdb-expr
//!
//! The EventDB expression language — the concrete realization of the
//! paper's "supporting **expressions as data** allows databases to
//! significantly extend traditional publish/subscribe technology"
//! (Chandy & Gawlick, SIGMOD'07, §2.2.c).
//!
//! Expressions are:
//!
//! * **parsed** from a SQL-flavoured textual form ([`parse`]),
//! * **printed** back losslessly (`Display` on [`Expr`]; print→parse is a
//!   proptest invariant), which is what makes them storable *data*,
//! * **type-checked and bound** against a schema ([`Expr::bind`]),
//!   resolving field names to positions once so per-event evaluation does
//!   no string lookups,
//! * **evaluated** with SQL three-valued logic ([`BoundExpr::eval`]),
//! * **compiled** into flat bytecode ([`CompiledExpr::compile`]) with
//!   constant folding, conjunct reordering and an allocation-free eval
//!   loop — the hot path for rule verification, CQ filters and detector
//!   conditions; the tree-walking interpreter remains the semantics
//!   oracle (DESIGN.md D11),
//! * **analyzed** into indexable conjunctive constraints plus a residual
//!   ([`analysis::analyze`]) — the foundation of the rule matcher's
//!   scalability on large rule sets.
//!
//! Grammar sketch (keywords case-insensitive):
//!
//! ```text
//! expr     := or
//! or       := and (OR and)*
//! and      := not (AND not)*
//! not      := NOT not | predicate
//! pred     := add ((= | != | <> | < | <= | > | >=) add
//!            | IS [NOT] NULL | [NOT] BETWEEN add AND add
//!            | [NOT] IN '(' expr {',' expr} ')' | [NOT] LIKE add)?
//! add      := mul ((+ | -) mul)*
//! mul      := unary ((* | / | %) unary)*
//! unary    := - unary | primary
//! primary  := literal | field | func '(' args ')' | '(' expr ')' | case
//! case     := CASE [expr] (WHEN expr THEN expr)+ [ELSE expr] END
//! literal  := 123 | 1.5 | 'text' | TRUE | FALSE | NULL | @123
//! ```

pub mod analysis;
pub mod ast;
pub mod bind;
pub mod compile;
pub mod eval;
pub mod functions;
pub mod like;
pub mod parser;
pub mod token;
pub mod typecheck;

pub use analysis::{analyze, ConjunctiveForm, Constraint, KeyConstraint};
pub use ast::{BinaryOp, Expr, UnaryOp};
pub use bind::BoundExpr;
pub use compile::{batch_stats, compiler_stats, BatchScratch, CompiledExpr, CompilerStats, FoldStats};
pub use like::LikePattern;
pub use parser::parse;

use evdb_types::{Record, Result, Schema, Value};

/// Parse, bind and evaluate an expression against a single record in one
/// call. Convenient for tests and one-off evaluation; hot paths should
/// [`parse`] once, [`Expr::bind`] once and reuse the [`BoundExpr`].
pub fn eval_once(text: &str, schema: &Schema, record: &Record) -> Result<Value> {
    let expr = parse(text)?;
    let bound = expr.bind(schema)?;
    bound.eval(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_types::DataType;

    #[test]
    fn end_to_end_eval() {
        let schema = Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]);
        let rec = Record::from_iter([Value::from("IBM"), Value::Float(101.5)]);
        let v = eval_once("sym = 'IBM' AND px > 100", &schema, &rec).unwrap();
        assert_eq!(v, Value::Bool(true));
    }
}
