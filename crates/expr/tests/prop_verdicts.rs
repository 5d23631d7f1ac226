//! Differential property test for the fused-compare verdict path of
//! `CompiledExpr::matches_batch`: a predicate whose every conjunct is
//! one `field ⋈ const` or `field [NOT] BETWEEN const AND const` is
//! evaluated straight into verdicts, and must agree with the generic
//! batch VM (`eval_batch`) and with per-record `matches` — same
//! verdicts, same errors, same selection vector, and the same per-block
//! feedback counters, so `resequence` reorders all three alike.
//!
//! Records do not have to match the schema the predicate was bound
//! against: a string or NaN in a numeric field, NULLs, and Int/Float
//! mixes reach every comparison, and a string compared with a number
//! raises the per-record path's type error.

use proptest::prelude::*;

use evdb_expr::{BatchScratch, BinaryOp, CompiledExpr, Expr};
use evdb_types::{DataType, FieldDef, Record, Schema, Value};

fn schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        FieldDef::nullable("a", DataType::Int),
        FieldDef::nullable("b", DataType::Float),
        FieldDef::nullable("s", DataType::Str),
    ])
    .unwrap()
}

/// A field value of any type the comparisons meet.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-4i64..4).prop_map(Value::Int),
        Just(Value::Int(i64::MAX)),
        (-4.0f64..4.0).prop_map(|f| Value::Float((f * 2.0).round() / 2.0)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::from("x")),
        Just(Value::from("b")),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_value(), arb_value(), arb_value()).prop_map(|(a, b, s)| Record::new(vec![a, b, s]))
}

/// A constant of the kind the field's type binds against.
fn arb_const(field: usize) -> BoxedStrategy<Expr> {
    match field {
        2 => prop_oneof![
            Just(Expr::lit("b")),
            Just(Expr::lit("x")),
            Just(Expr::lit(""))
        ]
        .boxed(),
        _ => prop_oneof![
            (-4i64..4).prop_map(Expr::lit),
            (-4.0f64..4.0).prop_map(|f| Expr::lit((f * 2.0).round() / 2.0)),
            Just(Expr::lit(f64::NAN)),
        ]
        .boxed(),
    }
}

const OPS: [BinaryOp; 6] = [
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
];

/// One conjunct on field `f`: `f ⋈ k`, `k ⋈ f` (fused mirrored), or
/// `f [NOT] BETWEEN k AND k`.
fn conjunct_on(f: usize) -> BoxedStrategy<Expr> {
    let field = Expr::field(["a", "b", "s"][f]);
    (0usize..6, arb_const(f), arb_const(f), 0u8..3, any::<bool>())
        .prop_map(move |(op, k, k2, shape, negated)| match shape {
            0 => Expr::binary(OPS[op], field.clone(), k),
            1 => Expr::binary(OPS[op], k, field.clone()),
            _ => Expr::Between {
                expr: Box::new(field.clone()),
                low: Box::new(k),
                high: Box::new(k2),
                negated,
            },
        })
        .boxed()
}

fn arb_conjunct() -> impl Strategy<Value = Expr> {
    prop_oneof![conjunct_on(0), conjunct_on(1), conjunct_on(2)]
}

fn arb_predicate() -> impl Strategy<Value = Expr> {
    proptest::collection::vec(arb_conjunct(), 1..5).prop_map(|cs| {
        let mut it = cs.into_iter();
        let first = it.next().expect("one conjunct at least");
        it.fold(first, Expr::and)
    })
}

/// Verdicts as comparable text: `Ok(bool)` or the error's message.
fn text(r: &evdb_types::Result<bool>) -> String {
    match r {
        Ok(b) => b.to_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// The three paths over one batch: (verdicts, selection) each.
fn run_all(
    paths: &[CompiledExpr; 3],
    rs: &[Record],
    scratch: &mut BatchScratch,
) -> [(Vec<String>, Vec<u32>); 3] {
    // The verdict path.
    let mut out = Vec::new();
    paths[0].matches_batch(rs, |r| r, scratch, &mut out);
    let fused = (out.iter().map(text).collect(), scratch.selection().to_vec());
    // The generic batch VM.
    let mut vals = Vec::new();
    paths[1].eval_batch(rs, |r| r, scratch, &mut vals);
    let generic: Vec<evdb_types::Result<bool>> = vals
        .into_iter()
        .map(|v| v.map(|v| v.as_bool().unwrap_or(false)))
        .collect();
    let selection = |verdicts: &[evdb_types::Result<bool>]| {
        (0..verdicts.len() as u32)
            .filter(|&i| matches!(verdicts[i as usize], Ok(true)))
            .collect()
    };
    let generic = (generic.iter().map(text).collect(), selection(&generic));
    // Per record.
    let each: Vec<evdb_types::Result<bool>> = rs.iter().map(|r| paths[2].matches(r)).collect();
    let each = (each.iter().map(text).collect(), selection(&each));
    [fused, generic, each]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn verdicts_match_the_generic_batch_path(
        e in arb_predicate(),
        batches in proptest::collection::vec(proptest::collection::vec(arb_record(), 0..48), 1..5),
    ) {
        let Ok(bound) = e.bind_predicate(&schema()) else { return Ok(()) };
        let paths = [
            CompiledExpr::compile(&bound),
            CompiledExpr::compile(&bound),
            CompiledExpr::compile(&bound),
        ];
        // Every conjunct fused into one instruction: the verdict path's
        // shape, not the generic VM's.
        prop_assert_eq!(paths[0].inst_count(), paths[0].block_count(), "`{}` did not fuse", &e);
        for p in &paths {
            p.enable_feedback();
        }
        let mut paths = paths;
        let mut scratch = BatchScratch::new();
        for (round, rs) in batches.iter().enumerate() {
            let [fused, generic, each] = run_all(&paths, rs, &mut scratch);
            prop_assert_eq!(&fused, &generic, "`{}` batch {} vs the batch VM over {:?}", &e, round, rs);
            prop_assert_eq!(&fused, &each, "`{}` batch {} vs per record over {:?}", &e, round, rs);
            let feedback = paths[0].block_feedback();
            prop_assert_eq!(&feedback, &paths[1].block_feedback(), "`{}` feedback vs the batch VM", &e);
            prop_assert_eq!(&feedback, &paths[2].block_feedback(), "`{}` feedback vs per record", &e);
            // Equal counters reorder the blocks alike.
            for p in &mut paths {
                p.resequence();
            }
        }
    }
}
