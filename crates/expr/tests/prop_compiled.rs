//! Differential property tests: the bytecode engine against the tree
//! interpreter it replaced (D11). For random expression trees and random
//! records — including NULLs, i64 overflow edges, division/modulo by
//! zero, and Unicode LIKE patterns — the compiled result (value *or*
//! error) must be identical to the interpreted one. The interpreter is
//! the oracle; any divergence is a compiler bug. Constant folding runs on
//! the VM too, so `const_eval` of a field-free tree is checked against
//! the interpreter as well.

use proptest::prelude::*;

use evdb_expr::typecheck::const_eval;
use evdb_expr::{BinaryOp, CompiledExpr, Expr, UnaryOp};
use evdb_types::{DataType, FieldDef, Record, Schema, Value};

/// Literal leaves, with overflow-edge integers and Unicode strings.
fn arb_literal() -> BoxedStrategy<Expr> {
    prop_oneof![
        (-1000i64..1000).prop_map(Expr::lit),
        // Overflow edges: +, -, *, unary - and % must error (not wrap)
        // identically in both engines.
        Just(Expr::lit(i64::MAX)),
        Just(Expr::lit(i64::MIN)),
        Just(Expr::lit(-1i64)),
        Just(Expr::lit(0i64)),
        (-1000.0f64..1000.0).prop_map(|f| Expr::lit((f * 100.0).round() / 100.0)),
        "[a-zà-ö%_]{0,6}".prop_map(|s| Expr::lit(s.as_str())),
        Just(Expr::lit(true)),
        Just(Expr::lit(false)),
        Just(Expr::Literal(Value::Null)),
    ]
    .boxed()
}

/// Leaves: literals and fields of the test schema
/// `(a INT, b FLOAT, s STR, flag BOOL)`.
fn arb_leaf() -> BoxedStrategy<Expr> {
    prop_oneof![
        10 => arb_literal(),
        4 => prop_oneof![
            Just(Expr::field("a")),
            Just(Expr::field("b")),
            Just(Expr::field("s")),
            Just(Expr::field("flag")),
        ],
    ]
    .boxed()
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    arb_tree(arb_leaf())
}

/// Trees over literal leaves only (a LIKE node may still read the field
/// `s` as its pattern).
fn arb_const_expr() -> impl Strategy<Value = Expr> {
    arb_tree(arb_literal())
}

fn arb_tree(leaf: BoxedStrategy<Expr>) -> impl Strategy<Value = Expr> {
    leaf.prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            // Logic (three-valued, short-circuiting in both engines).
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.and(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.or(r)),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::binary(BinaryOp::Lt, l, r)),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::binary(BinaryOp::Ge, l, r)),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::binary(BinaryOp::Eq, l, r)),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::binary(BinaryOp::Ne, l, r)),
            // Arithmetic: checked overflow, Div/Mod by zero ⇒ NULL.
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::binary(BinaryOp::Add, l, r)),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::binary(BinaryOp::Sub, l, r)),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::binary(BinaryOp::Mul, l, r)),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::binary(BinaryOp::Div, l, r)),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::binary(BinaryOp::Mod, l, r)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e)
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(e)
            }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated,
            }),
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, lo, hi, negated)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated,
                }
            ),
            (
                inner.clone(),
                proptest::collection::vec(inner.clone(), 1..4),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }),
            // LIKE with Unicode text and patterns; constant patterns
            // exercise the precompiled shapes, field patterns the
            // generic path.
            (inner.clone(), arb_like_pattern(), any::<bool>()).prop_map(
                |(e, p, negated)| Expr::Like {
                    expr: Box::new(e),
                    pattern: Box::new(p),
                    negated,
                }
            ),
            // Functions: fallible (abs/substr) and string ones.
            inner.clone().prop_map(|e| Expr::Func {
                name: "abs".into(),
                args: vec![e]
            }),
            inner.clone().prop_map(|e| Expr::Func {
                name: "lower".into(),
                args: vec![e]
            }),
            (inner.clone(), inner.clone()).prop_map(|(e, n)| Expr::Func {
                name: "substr".into(),
                args: vec![e, n]
            }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Func {
                name: "coalesce".into(),
                args: vec![a, b]
            }),
            // Searched CASE.
            (
                proptest::collection::vec((inner.clone(), inner.clone()), 1..3),
                proptest::option::of(inner.clone()),
            )
                .prop_map(|(branches, else_expr)| Expr::Case {
                    operand: None,
                    branches,
                    else_expr: else_expr.map(Box::new),
                }),
            // Operand CASE.
            (
                inner.clone(),
                proptest::collection::vec((inner.clone(), inner), 1..3),
            )
                .prop_map(|(op, branches)| Expr::Case {
                    operand: Some(Box::new(op)),
                    branches,
                    else_expr: None,
                }),
        ]
    })
}

/// LIKE patterns: mostly constant strings heavy in `%`/`_`/Unicode (so
/// the compiler's shape classifier is exercised), sometimes a field.
fn arb_like_pattern() -> impl Strategy<Value = Expr> {
    prop_oneof![
        4 => "[a-cé%_]{0,5}".prop_map(|s| Expr::lit(s.as_str())),
        1 => Just(Expr::field("s")),
    ]
}

fn schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        FieldDef::nullable("a", DataType::Int),
        FieldDef::nullable("b", DataType::Float),
        FieldDef::nullable("s", DataType::Str),
        FieldDef::nullable("flag", DataType::Bool),
    ])
    .unwrap()
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        proptest::option::of(prop_oneof![
            -1000i64..1000,
            Just(i64::MAX),
            Just(i64::MIN),
            Just(0i64),
        ]),
        proptest::option::of(-1000.0f64..1000.0),
        proptest::option::of("[a-zà-ö]{0,6}"),
        proptest::option::of(any::<bool>()),
    )
        .prop_map(|(a, b, s, f)| {
            Record::new(vec![
                a.map(Value::Int).unwrap_or(Value::Null),
                b.map(Value::Float).unwrap_or(Value::Null),
                s.map(|x| Value::from(x.as_str())).unwrap_or(Value::Null),
                f.map(Value::Bool).unwrap_or(Value::Null),
            ])
        })
}

/// Interpreted and compiled evaluation must agree exactly — same value
/// on success, both-error on failure.
fn assert_agree(expr: &Expr, record: &Record) -> Result<(), TestCaseError> {
    let schema = schema();
    let Ok(bound) = expr.bind(&schema) else {
        return Ok(()); // ill-typed tree: nothing to compare
    };
    let compiled = CompiledExpr::compile(&bound);
    let interpreted = bound.eval(record);
    let vm = compiled.eval(record);
    match (interpreted, vm) {
        (Ok(a), Ok(b)) => prop_assert_eq!(
            &a, &b,
            "engines diverge on `{}` over {:?}", expr, record
        ),
        (Err(_), Err(_)) => {} // e.g. integer overflow, in both engines
        (a, b) => prop_assert!(
            false,
            "one engine errored on `{}` over {:?}: interpreted={:?} compiled={:?}",
            expr, record, a, b
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The core differential property.
    #[test]
    fn compiled_agrees_with_interpreter(e in arb_expr(), r in arb_record()) {
        assert_agree(&e, &r)?;
    }

    /// `matches` (NULL ⇒ false) agrees too, through the candidate-verify
    /// entry point the rule matchers use.
    #[test]
    fn compiled_matches_agrees(e in arb_expr(), r in arb_record()) {
        let schema = schema();
        let Ok(bound) = e.bind_predicate(&schema) else { return Ok(()) };
        let compiled = CompiledExpr::compile(&bound);
        match (bound.matches(&r), compiled.matches(&r)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "matches diverges on `{}` over {:?}", e, r),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "one engine errored on `{}` over {:?}: interpreted={:?} compiled={:?}",
                e, r, a, b
            ),
        }
    }

    /// Folding evaluates field-free subtrees on the VM: `const_eval`
    /// gives the interpreter's value, and `None` where the interpreter
    /// errors (overflow, a non-string LIKE operand, …) or the tree does
    /// not type-check — NULLs, CASE, IN lists and LIKE included.
    #[test]
    fn const_eval_agrees_with_interpreter(e in arb_const_expr()) {
        if !e.referenced_fields().is_empty() {
            return Ok(()); // a LIKE with a field pattern
        }
        let walked = e.bind(&Schema::of(&[])).and_then(|b| b.eval(&Record::empty())).ok();
        prop_assert_eq!(const_eval(&e), walked, "`{}`", e);
    }
}

/// A constant subtree that overflows folds to nothing, and the error is
/// still raised when the compiled expression runs.
#[test]
fn overflowing_constants_stay_runtime_errors() {
    let text = "a > 9223372036854775807 + 1";
    let expr = evdb_expr::parse(text).unwrap();
    let Expr::Binary { right, .. } = &expr else { panic!("{text}") };
    assert_eq!(const_eval(right), None);
    let compiled = CompiledExpr::compile(&expr.bind(&schema()).unwrap());
    let r = Record::new(vec![Value::Int(1), Value::Null, Value::Null, Value::Null]);
    assert!(compiled.eval(&r).is_err());
}

/// Regressions distilled from past differential runs (the seed file
/// `prop_compiled.proptest-regressions` documents their provenance).
/// Each is re-checked explicitly so the cases survive shim changes.
#[test]
fn regression_cases() {
    let records: &[&[Value]] = &[
        &[Value::Null, Value::Null, Value::Null, Value::Null],
        &[
            Value::Int(i64::MIN),
            Value::Float(0.0),
            Value::from("é"),
            Value::Bool(false),
        ],
        &[
            Value::Int(-1),
            Value::Float(-0.5),
            Value::from("αβ%"),
            Value::Bool(true),
        ],
    ];
    let cases = [
        // i64::MIN % -1 overflows in hardware; both engines must error.
        "a % -1 = 0",
        // Division by NULL and by zero stay NULL through the fold.
        "1 / (a - a) IS NULL",
        "b / NULL IS NULL",
        // Unicode LIKE: '_' is one *character*, not one byte.
        "s LIKE '_'",
        "s LIKE '%é%'",
        "s LIKE 'α_'",
        // Constant BETWEEN bounds fold; NULL operand stays NULL.
        "a BETWEEN 0 AND 10",
        "(NULL BETWEEN 0 AND 10) IS NULL",
        // IN with NULLs: x IN (…) is NULL, never false, when x is NULL.
        "(a IN (1, 2, NULL)) IS NULL OR a IS NOT NULL",
        // Short-circuit keeps the erroring conjunct unevaluated.
        "1 = 2 AND abs(a) > 0",
        // CASE with NULL scrutinee never matches a WHEN.
        "CASE a WHEN 1 THEN 'x' ELSE 'y' END = 'y' OR a = 1",
    ];
    for text in cases {
        let expr = evdb_expr::parse(text).unwrap();
        for vals in records {
            let r = Record::new(vals.to_vec());
            assert_agree(&expr, &r).unwrap_or_else(|e| panic!("{text}: {e:?}"));
        }
    }
}
