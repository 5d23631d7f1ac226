//! Static type checking of expressions against a schema.
//!
//! `infer` returns `Ok(Some(t))` for a well-typed expression of type `t`,
//! `Ok(None)` when the type is unknowable statically (a bare `NULL`
//! literal, or `coalesce(NULL, NULL)`), and `Err` for type errors. The
//! checker is strict about *categories* (you cannot compare a BOOL to an
//! INT) but permissive inside the numeric category (INT and FLOAT mix
//! freely, as the evaluator promotes).

use evdb_types::{DataType, Error, Result, Schema, Value};

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::compile::CompiledExpr;
use crate::functions;

/// Infer the result type of `expr` over records of `schema`.
pub fn infer(expr: &Expr, schema: &Schema) -> Result<Option<DataType>> {
    match expr {
        Expr::Literal(v) => Ok(v.data_type()),
        Expr::Field(name) => {
            let f = schema
                .field(name)
                .ok_or_else(|| Error::Type(format!("unknown field '{name}'")))?;
            Ok(Some(f.dtype))
        }
        Expr::Unary { op, expr } => {
            let t = infer(expr, schema)?;
            match op {
                UnaryOp::Not => {
                    expect_category(t, Category::Bool, "NOT")?;
                    Ok(Some(DataType::Bool))
                }
                UnaryOp::Neg => {
                    expect_category(t, Category::Numeric, "unary -")?;
                    Ok(t.or(Some(DataType::Float)))
                }
            }
        }
        Expr::Binary { op, left, right } => {
            let lt = infer(left, schema)?;
            let rt = infer(right, schema)?;
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    expect_category(lt, Category::Bool, op.symbol())?;
                    expect_category(rt, Category::Bool, op.symbol())?;
                    Ok(Some(DataType::Bool))
                }
                _ if op.is_comparison() => {
                    expect_comparable(lt, rt, op.symbol())?;
                    Ok(Some(DataType::Bool))
                }
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                    expect_category(lt, Category::Numeric, op.symbol())?;
                    expect_category(rt, Category::Numeric, op.symbol())?;
                    // INT op INT stays INT except true division.
                    match (lt, rt, op) {
                        (_, _, BinaryOp::Div) => Ok(Some(DataType::Float)),
                        (Some(DataType::Int), Some(DataType::Int), _) => Ok(Some(DataType::Int)),
                        (None, None, _) => Ok(None),
                        _ => Ok(Some(DataType::Float)),
                    }
                }
                _ => unreachable!("comparison handled above"),
            }
        }
        Expr::IsNull { expr, .. } => {
            infer(expr, schema)?; // operand just has to be well-typed
            Ok(Some(DataType::Bool))
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            let t = infer(expr, schema)?;
            let lo = infer(low, schema)?;
            let hi = infer(high, schema)?;
            expect_comparable(t, lo, "BETWEEN")?;
            expect_comparable(t, hi, "BETWEEN")?;
            Ok(Some(DataType::Bool))
        }
        Expr::InList { expr, list, .. } => {
            let t = infer(expr, schema)?;
            for e in list {
                let et = infer(e, schema)?;
                expect_comparable(t, et, "IN")?;
            }
            Ok(Some(DataType::Bool))
        }
        Expr::Like { expr, pattern, .. } => {
            let t = infer(expr, schema)?;
            let pt = infer(pattern, schema)?;
            expect_category(t, Category::Str, "LIKE")?;
            expect_category(pt, Category::Str, "LIKE pattern")?;
            Ok(Some(DataType::Bool))
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let op_ty = match operand {
                Some(o) => Some(infer(o, schema)?),
                None => None,
            };
            let mut result: Option<DataType> = None;
            for (w, t) in branches {
                let wt = infer(w, schema)?;
                match &op_ty {
                    Some(ot) => expect_comparable(*ot, wt, "CASE WHEN")?,
                    None => expect_category(wt, Category::Bool, "CASE WHEN")?,
                }
                let tt = infer(t, schema)?;
                unify_result(&mut result, tt)?;
            }
            if let Some(e) = else_expr {
                let et = infer(e, schema)?;
                unify_result(&mut result, et)?;
            }
            Ok(result)
        }
        Expr::Func { name, args } => {
            let f = functions::lookup(name).ok_or_else(|| {
                Error::Type(format!("unknown function '{name}'"))
            })?;
            if args.len() < f.min_args
                || (f.max_args != usize::MAX && args.len() > f.max_args)
            {
                return Err(Error::Type(format!(
                    "{name} expects {}..{} arguments, got {}",
                    f.min_args,
                    if f.max_args == usize::MAX {
                        "∞".to_string()
                    } else {
                        f.max_args.to_string()
                    },
                    args.len()
                )));
            }
            let arg_types: Vec<Option<DataType>> = args
                .iter()
                .map(|a| infer(a, schema))
                .collect::<Result<_>>()?;
            (f.ret)(&arg_types)
        }
    }
}

/// Require that the full expression is a boolean predicate (rule bodies,
/// WHERE clauses, trigger conditions).
pub fn check_predicate(expr: &Expr, schema: &Schema) -> Result<()> {
    match infer(expr, schema)? {
        Some(DataType::Bool) | None => Ok(()),
        Some(t) => Err(Error::Type(format!(
            "predicate must be BOOL, got {t}: {expr}"
        ))),
    }
}

/// Merge a branch result type into the CASE result type (numerics mix
/// to FLOAT; anything else must agree).
fn unify_result(acc: &mut Option<DataType>, t: Option<DataType>) -> Result<()> {
    match (&acc, t) {
        (_, None) => {}
        (None, Some(d)) => *acc = Some(d),
        (Some(a), Some(d)) if *a == d => {}
        (Some(a), Some(d)) if a.is_numeric() && d.is_numeric() => *acc = Some(DataType::Float),
        (Some(a), Some(d)) => {
            return Err(Error::Type(format!(
                "CASE branches disagree: {a} vs {d}"
            )))
        }
    }
    Ok(())
}

#[derive(Clone, Copy)]
enum Category {
    Bool,
    Numeric,
    Str,
}

fn expect_category(t: Option<DataType>, cat: Category, ctx: &str) -> Result<()> {
    let ok = match (t, cat) {
        (None, _) => true,
        (Some(DataType::Bool), Category::Bool) => true,
        (Some(d), Category::Numeric) if d.is_numeric() => true,
        (Some(DataType::Str), Category::Str) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(Error::Type(format!(
            "{ctx} applied to {}",
            t.map(|d| d.name()).unwrap_or("NULL")
        )))
    }
}

fn expect_comparable(a: Option<DataType>, b: Option<DataType>, ctx: &str) -> Result<()> {
    match (a, b) {
        (None, _) | (_, None) => Ok(()),
        (Some(x), Some(y)) if x == y => Ok(()),
        (Some(x), Some(y)) if x.is_numeric() && y.is_numeric() => Ok(()),
        (Some(x), Some(y)) => Err(Error::Type(format!(
            "{ctx}: cannot compare {x} with {y}"
        ))),
    }
}

/// Evaluate an expression that references no fields to a constant, on
/// the VM; `None` if it reads a field or raises an error. Used for
/// constant folding in the analyzer and the CQL planner.
pub fn const_eval(expr: &Expr) -> Option<Value> {
    if let Expr::Literal(v) = expr {
        return Some(v.clone());
    }
    if !expr.referenced_fields().is_empty() {
        return None;
    }
    let bound = expr.bind(&Schema::of(&[])).ok()?;
    CompiledExpr::eval_const(&bound).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn schema() -> std::sync::Arc<Schema> {
        Schema::of(&[
            ("qty", DataType::Int),
            ("px", DataType::Float),
            ("sym", DataType::Str),
            ("ok", DataType::Bool),
            ("ts", DataType::Timestamp),
        ])
    }

    fn ty(src: &str) -> Result<Option<DataType>> {
        infer(&parse(src).unwrap(), &schema())
    }

    #[test]
    fn arithmetic_types() {
        assert_eq!(ty("qty + 1").unwrap(), Some(DataType::Int));
        assert_eq!(ty("qty + px").unwrap(), Some(DataType::Float));
        assert_eq!(ty("qty / 2").unwrap(), Some(DataType::Float));
        assert_eq!(ty("-px").unwrap(), Some(DataType::Float));
        assert!(ty("sym + 1").is_err());
        assert!(ty("-sym").is_err());
    }

    #[test]
    fn boolean_types() {
        assert_eq!(ty("ok AND qty > 0").unwrap(), Some(DataType::Bool));
        assert!(ty("qty AND ok").is_err());
        assert!(ty("NOT sym").is_err());
        assert_eq!(ty("NOT ok").unwrap(), Some(DataType::Bool));
    }

    #[test]
    fn comparisons() {
        assert_eq!(ty("qty > px").unwrap(), Some(DataType::Bool));
        assert_eq!(ty("ts >= @100").unwrap(), Some(DataType::Bool));
        assert!(ty("sym = 1").is_err());
        assert!(ty("ok < 1").is_err());
        assert_eq!(ty("sym = NULL").unwrap(), Some(DataType::Bool));
    }

    #[test]
    fn predicates() {
        assert_eq!(ty("qty BETWEEN 1 AND 10").unwrap(), Some(DataType::Bool));
        assert!(ty("qty BETWEEN 'a' AND 10").is_err());
        assert_eq!(ty("sym IN ('a', 'b')").unwrap(), Some(DataType::Bool));
        assert!(ty("sym IN (1, 2)").is_err());
        assert_eq!(ty("sym LIKE 'a%'").unwrap(), Some(DataType::Bool));
        assert!(ty("qty LIKE 'a%'").is_err());
        assert_eq!(ty("px IS NOT NULL").unwrap(), Some(DataType::Bool));
    }

    #[test]
    fn functions_and_unknown_fields() {
        assert_eq!(ty("abs(qty)").unwrap(), Some(DataType::Int));
        assert_eq!(ty("sqrt(qty)").unwrap(), Some(DataType::Float));
        assert!(ty("sqrt(sym)").is_err());
        assert!(ty("nope(1)").is_err());
        assert!(ty("ghost > 1").is_err());
        assert!(ty("substr(sym)").is_err()); // arity
    }

    #[test]
    fn predicate_gate() {
        assert!(check_predicate(&parse("qty > 1").unwrap(), &schema()).is_ok());
        assert!(check_predicate(&parse("qty + 1").unwrap(), &schema()).is_err());
        assert!(check_predicate(&parse("NULL").unwrap(), &schema()).is_ok());
    }

    #[test]
    fn const_folding() {
        assert_eq!(const_eval(&parse("1 + 2 * 3").unwrap()), Some(Value::Int(7)));
        assert_eq!(const_eval(&parse("upper('ab')").unwrap()), Some(Value::from("AB")));
        assert_eq!(const_eval(&parse("qty + 1").unwrap()), None);
    }
}
