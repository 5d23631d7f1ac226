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
//! * **compiled** into flat bytecode ([`CompiledExpr::compile`]) with
//!   constant folding, conjunct reordering and an allocation-free eval
//!   loop, evaluated with SQL three-valued logic — the one production
//!   evaluator: rule verification, CQ filters, detector conditions, and
//!   constant folding itself ([`typecheck::const_eval`]) all run on it,
//! * **interpreted** by a tree walker ([`BoundExpr::eval`]) that nothing
//!   outside tests and the experiments calls: it is the independent
//!   reference the compiler's differential tests compare against
//!   (DESIGN.md D11),
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

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_types::{DataType, Record, Schema, Value};

    #[test]
    fn end_to_end_eval() {
        let schema = Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]);
        let rec = Record::from_iter([Value::from("IBM"), Value::Float(101.5)]);
        let bound = parse("sym = 'IBM' AND px > 100").unwrap().bind(&schema).unwrap();
        assert_eq!(CompiledExpr::compile(&bound).eval(&rec).unwrap(), Value::Bool(true));
    }
}
