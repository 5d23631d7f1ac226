//! Property test: the indexed matcher is exactly equivalent to the scan
//! baseline on randomly generated rule sets and events — the correctness
//! half of the E3/E4 scalability claims — and its two entry points
//! (`match_record`, `match_batch`) are equivalent to each other. The
//! grammar covers every shape the index treats specially (D1): equality
//! clusters with a second range/equality constraint, IN lists posted
//! into several clusters, LIKE prefixes as string ranges, NULL fields,
//! and expression keys (`qty % 5 = k`: a computed left side shared by
//! many rules) as access path, as second constraint and over a nullable
//! operand. A record whose key evaluation fails mid-batch fails alone:
//! its first error is `match_record`'s, and its batch-mates read what
//! they read without it.

use std::sync::Arc;

use proptest::prelude::*;

use evdb::rules::{IndexedMatcher, MatchScratch, Matcher, Rule, RuleId, ScanMatcher};
use evdb::types::{DataType, FieldDef, Record, Schema, Value};

fn schema() -> Arc<Schema> {
    Schema::new(vec![
        FieldDef::nullable("sym", DataType::Str),
        FieldDef::nullable("px", DataType::Float),
        FieldDef::required("qty", DataType::Int),
    ])
    .unwrap()
}

/// Generate rule predicate text from a constrained template grammar so
/// every rule parses and type-checks by construction.
fn arb_rule_text() -> impl Strategy<Value = String> {
    let sym = 0u8..6;
    let px = 0.0f64..200.0;
    let qty = 0i64..100;
    prop_oneof![
        (sym.clone()).prop_map(|s| format!("sym = 'S{s}'")),
        (px.clone()).prop_map(|p| format!("px > {p:.2}")),
        (px.clone()).prop_map(|p| format!("px <= {p:.2}")),
        (px.clone(), 0.1f64..50.0)
            .prop_map(|(lo, w)| format!("px BETWEEN {lo:.2} AND {:.2}", lo + w)),
        (qty.clone()).prop_map(|q| format!("qty = {q}")),
        (sym.clone(), sym.clone()).prop_map(|(a, b)| format!("sym IN ('S{a}', 'S{b}')")),
        (sym.clone(), px.clone()).prop_map(|(s, p)| format!("sym = 'S{s}' AND px > {p:.2}")),
        // Clustered shapes: equality access path + a second constraint.
        (sym.clone(), px.clone(), 0.0f64..50.0).prop_map(|(s, lo, w)| format!(
            "sym = 'S{s}' AND px BETWEEN {lo:.2} AND {:.2}",
            lo + w
        )),
        (sym.clone(), sym.clone(), px.clone())
            .prop_map(|(a, b, p)| format!("sym IN ('S{a}', 'S{b}') AND px < {p:.2}")),
        (sym.clone(), qty.clone()).prop_map(|(s, q)| format!("qty = {q} AND sym = 'S{s}'")),
        (sym.clone(), qty.clone(), px.clone())
            .prop_map(|(s, q, p)| format!("sym = 'S{s}' AND qty >= {q} AND px <= {p:.2}")),
        // LIKE: a literal prefix is a string range, `_` first is not.
        // With a computed left side beside it, that is the access path.
        (0i64..7).prop_map(|k| format!("sym LIKE 'S1%' AND qty % 7 = {k}")),
        // Expression keys: access path, range, second constraint (the
        // field wins at equal rank), function, nullable operand.
        (0i64..5).prop_map(|k| format!("qty % 5 = {k}")),
        (0i64..200, 0i64..40).prop_map(|(lo, w)| format!("qty * 2 BETWEEN {lo} AND {}", lo + w)),
        (sym.clone(), 0i64..3).prop_map(|(s, k)| format!("sym = 'S{s}' AND qty % 3 = {k}")),
        (1usize..4, px.clone()).prop_map(|(n, p)| format!("length(sym) = {n} AND px > {p:.2}")),
        (0i64..400).prop_map(|v| format!("px * 2 = {v}")),
        (sym.clone(), px.clone()).prop_map(|(s, p)| format!("sym LIKE 'S{s}_' AND px > {p:.2}")),
        Just("sym LIKE '_1%'".to_string()),
        Just("sym LIKE 'S3'".to_string()),
        (px.clone()).prop_map(|p| format!("sym IS NULL AND px > {p:.2}")),
        (qty.clone(), qty).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            format!("qty >= {lo} AND qty <= {hi}")
        }),
        (px.clone()).prop_map(|p| format!("px * 2 > {p:.2}")), // residual-only
        (sym, px).prop_map(|(s, p)| format!("sym = 'S{s}' OR px < {p:.2}")), // residual
        Just("qty != 50".to_string()),
        Just("length(sym) = 2".to_string()),
        Just("NOT px > 100".to_string()),
    ]
}

/// Symbols `S0..S5` plus two-character ones (`S10..S15`) the LIKE rules
/// tell apart; one field in ten is NULL.
fn arb_event() -> impl Strategy<Value = Record> {
    (0u8..12, 0.0f64..200.0, 0i64..100, 0u8..10, 0u8..10).prop_map(
        |(s, p, q, null_sym, null_px)| {
            let sym = match s {
                0..=5 => Value::from(format!("S{s}")),
                _ => Value::from(format!("S1{}", s - 6)),
            };
            let px = Value::Float((p * 100.0).round() / 100.0);
            Record::from_iter([
                if null_sym == 0 { Value::Null } else { sym },
                if null_px == 0 { Value::Null } else { px },
                Value::Int(q),
            ])
        },
    )
}

/// A record's hits, or its error's text.
type Hits = Result<Vec<RuleId>, String>;

/// `match_batch` over `events`, each record's range read back out of the
/// scratch's flat id buffer.
fn batch_hits(idx: &IndexedMatcher, events: &[Record]) -> Vec<Hits> {
    let refs: Vec<&Record> = events.iter().collect();
    let (mut scratch, mut out) = (MatchScratch::new(), Vec::new());
    idx.match_batch(&refs, &mut scratch, &mut out);
    assert_eq!(out.len(), events.len());
    out.into_iter()
        .map(|hits| match hits {
            Ok(range) => Ok(scratch.ids()[range].to_vec()),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

/// `match_batch` over `events` must equal `match_record` per event, an
/// error included.
fn assert_batch_equals_record(idx: &IndexedMatcher, events: &[Record]) {
    for (ev, batched) in events.iter().zip(batch_hits(idx, events)) {
        let single = idx.match_record(ev).map_err(|e| e.to_string());
        assert_eq!(batched, single, "batch vs record on {ev}");
    }
}

/// Rules over the key `qty * 92233720368547758`, which overflows (an
/// evaluation error) only on a `qty` above 100: as access path, and as
/// second constraint behind a field.
const POISONED_KEY_RULES: [&str; 2] = [
    "qty * 92233720368547758 >= 0",
    "sym = 'S1' AND qty * 92233720368547758 = 0",
];

/// The record [`POISONED_KEY_RULES`] fail on.
fn poisoned() -> Record {
    Record::from_iter([Value::from("S1"), Value::Float(1.0), Value::Int(1_000)])
}

// No `proptest_config`: the default count, which `PROPTEST_CASES` sets.
proptest! {
    #[test]
    fn indexed_equals_scan(
        rule_texts in proptest::collection::vec(arb_rule_text(), 1..40),
        events in proptest::collection::vec(arb_event(), 1..40),
    ) {
        let schema = schema();
        let mut scan = ScanMatcher::new(Arc::clone(&schema));
        let mut idx = IndexedMatcher::new(Arc::clone(&schema));
        for (i, text) in rule_texts.iter().enumerate() {
            let expr = evdb::expr::parse(text).unwrap();
            scan.add_rule(Rule::new(i as u64, "", expr.clone())).unwrap();
            idx.add_rule(Rule::new(i as u64, "", expr)).unwrap();
        }
        for ev in &events {
            prop_assert_eq!(
                scan.match_record(ev).unwrap(),
                idx.match_record(ev).unwrap(),
                "disagreement on {} with rules {:?}", ev, rule_texts
            );
        }
        assert_batch_equals_record(&idx, &events);
    }

    #[test]
    fn a_failing_key_fails_only_its_record(
        rule_texts in proptest::collection::vec(arb_rule_text(), 0..30),
        events in proptest::collection::vec(arb_event(), 1..30),
        at in 0usize..30,
    ) {
        let mut idx = IndexedMatcher::new(schema());
        let texts = rule_texts.iter().map(String::as_str).chain(POISONED_KEY_RULES);
        for (i, text) in texts.enumerate() {
            let expr = evdb::expr::parse(text).unwrap();
            idx.add_rule(Rule::new(i as u64, "", expr)).unwrap();
        }
        let at = at.min(events.len());
        let mut batch = events.clone();
        batch.insert(at, poisoned());
        assert_batch_equals_record(&idx, &batch);
        let mut with = batch_hits(&idx, &batch);
        prop_assert!(with.remove(at).is_err());
        prop_assert_eq!(with, batch_hits(&idx, &events));
    }

    #[test]
    fn equivalence_survives_churn(
        rule_texts in proptest::collection::vec(arb_rule_text(), 4..30),
        remove_mask in proptest::collection::vec(any::<bool>(), 4..30),
        events in proptest::collection::vec(arb_event(), 1..20),
    ) {
        let schema = schema();
        let mut scan = ScanMatcher::new(Arc::clone(&schema));
        let mut idx = IndexedMatcher::new(Arc::clone(&schema));
        for (i, text) in rule_texts.iter().enumerate() {
            let expr = evdb::expr::parse(text).unwrap();
            scan.add_rule(Rule::new(i as u64, "", expr.clone())).unwrap();
            idx.add_rule(Rule::new(i as u64, "", expr)).unwrap();
        }
        // Remove a random subset from both.
        for (i, remove) in remove_mask.iter().enumerate() {
            if *remove && i < rule_texts.len() {
                scan.remove_rule(i as u64).unwrap();
                idx.remove_rule(i as u64).unwrap();
            }
        }
        prop_assert_eq!(scan.len(), idx.len());
        for ev in &events {
            prop_assert_eq!(
                scan.match_record(ev).unwrap(),
                idx.match_record(ev).unwrap()
            );
        }
        assert_batch_equals_record(&idx, &events);
        // Re-adding the removed rules lands them in reused slots and
        // half-empty clusters; the equivalence must hold again.
        for (i, remove) in remove_mask.iter().enumerate() {
            if *remove && i < rule_texts.len() {
                let expr = evdb::expr::parse(&rule_texts[i]).unwrap();
                scan.add_rule(Rule::new(i as u64, "", expr.clone())).unwrap();
                idx.add_rule(Rule::new(i as u64, "", expr)).unwrap();
            }
        }
        for ev in &events {
            prop_assert_eq!(
                scan.match_record(ev).unwrap(),
                idx.match_record(ev).unwrap()
            );
        }
        assert_batch_equals_record(&idx, &events);
    }
}
