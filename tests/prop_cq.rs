//! Property tests for the CQ engine: incremental and recompute window
//! aggregation are semantically identical on arbitrary event streams and
//! window shapes, and window assignment covers exactly the right spans.

use std::sync::Arc;

use proptest::prelude::*;

use evdb::cq::aggregate::{AggFunc, AggMode, AggSpec, WindowAggregateOp};
use evdb::cq::op::Operator;
use evdb::cq::window::WindowSpec;
use evdb::types::{DataType, Event, EventId, Record, Schema, TimestampMs, Value};

fn schema() -> Arc<Schema> {
    Schema::of(&[("g", DataType::Str), ("x", DataType::Float)])
}

fn aggs() -> Vec<AggSpec> {
    vec![
        AggSpec {
            func: AggFunc::Count,
            field: None,
            expr: None,
            out_name: "n".into(),
        },
        AggSpec {
            func: AggFunc::Sum,
            field: Some("x".into()),
            expr: None,
            out_name: "s".into(),
        },
        AggSpec {
            func: AggFunc::Min,
            field: Some("x".into()),
            expr: None,
            out_name: "lo".into(),
        },
        AggSpec {
            func: AggFunc::Max,
            field: Some("x".into()),
            expr: None,
            out_name: "hi".into(),
        },
        AggSpec {
            func: AggFunc::StdDev,
            field: Some("x".into()),
            expr: None,
            out_name: "sd".into(),
        },
    ]
}

fn run(mode: AggMode, window: WindowSpec, events: &[(i64, String, f64)]) -> Vec<String> {
    let schema = schema();
    let mut op = WindowAggregateOp::new(&schema, window, &["g"], aggs(), mode).unwrap();
    let mut out = Vec::new();
    for (i, (ts, g, x)) in events.iter().enumerate() {
        let e = Event::new(
            EventId(i as u64),
            "s",
            TimestampMs(*ts),
            Record::from_iter([Value::from(g.as_str()), Value::Float(*x)]),
            Arc::clone(&schema),
        );
        op.on_event(&e, &mut out).unwrap();
    }
    op.on_watermark(TimestampMs(i64::MAX / 2), &mut out).unwrap();
    // Render rows with rounded floats so accumulation-order noise in
    // stddev/sum does not produce false mismatches.
    out.iter()
        .map(|e| {
            e.payload
                .values()
                .iter()
                .map(|v| match v {
                    // Normalize -0.0 and accumulation-order noise.
                    Value::Float(f) => {
                        let f = if *f == 0.0 { 0.0 } else { *f };
                        format!("{:.6}", f)
                    }
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

/// Events sorted by time (watermark-driven closing assumes in-order
/// arrival within the allowed lateness; we test the zero-lateness core).
fn arb_events() -> impl Strategy<Value = Vec<(i64, String, f64)>> {
    proptest::collection::vec(
        (0i64..5_000, 0u8..3, -100.0f64..100.0),
        1..120,
    )
    .prop_map(|mut v| {
        v.sort_by_key(|(t, _, _)| *t);
        v.into_iter()
            .map(|(t, g, x)| (t, format!("g{g}"), (x * 100.0).round() / 100.0))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn incremental_equals_recompute_tumbling(
        events in arb_events(),
        width in 1i64..2_000,
    ) {
        let w = WindowSpec::Tumbling { width_ms: width };
        prop_assert_eq!(
            run(AggMode::Incremental, w, &events),
            run(AggMode::Recompute, w, &events)
        );
    }

    #[test]
    fn incremental_equals_recompute_sliding(
        events in arb_events(),
        slide in 1i64..500,
        mult in 1i64..6,
    ) {
        let w = WindowSpec::Sliding { width_ms: slide * mult, slide_ms: slide };
        prop_assert_eq!(
            run(AggMode::Incremental, w, &events),
            run(AggMode::Recompute, w, &events)
        );
    }

    #[test]
    fn sliding_assignment_is_consistent(ts in -10_000i64..10_000, slide in 1i64..100, mult in 1i64..8) {
        let w = WindowSpec::Sliding { width_ms: slide * mult, slide_ms: slide };
        let starts = w.assign(TimestampMs(ts));
        // Exactly width/slide windows, each actually covering ts.
        prop_assert_eq!(starts.len() as i64, mult);
        for s in starts {
            prop_assert!(s.0 <= ts && ts < s.0 + slide * mult);
            prop_assert_eq!(s.0.rem_euclid(slide), 0);
        }
    }

    #[test]
    fn count_windows_partition_the_stream(events in arb_events(), count in 1usize..10) {
        let schema = schema();
        let mut op = WindowAggregateOp::new(
            &schema,
            WindowSpec::CountTumbling { count },
            &[], // global grouping: windows close every `count` events
            vec![AggSpec { func: AggFunc::Count, field: None, expr: None, out_name: "n".into() }],
            AggMode::Incremental,
        ).unwrap();
        let mut out = Vec::new();
        for (i, (ts, g, x)) in events.iter().enumerate() {
            let e = Event::new(
                EventId(i as u64),
                "s",
                TimestampMs(*ts),
                Record::from_iter([Value::from(g.as_str()), Value::Float(*x)]),
                Arc::clone(&schema),
            );
            op.on_event(&e, &mut out).unwrap();
        }
        prop_assert_eq!(out.len(), events.len() / count);
        for e in &out {
            let n_idx = e.schema.index_of("n").unwrap();
            prop_assert_eq!(e.payload.get(n_idx), Some(&Value::Int(count as i64)));
        }
    }
}

// ---------------------------------------------------------------------
// Cadence oracle: the runtime advances a query's watermark after every
// event, so window closing runs on every push, not once at the end.
// Incremental ≡ Recompute cannot catch a closing bug (both modes share
// it), so this property checks both against a naive recompute of every
// non-empty window instead.
// ---------------------------------------------------------------------

use std::collections::BTreeMap;

use evdb::cq::ConsistencyLevel;

/// Count, sum, avg, min, max, first and last over integral `x`: every
/// aggregate is exact, whatever order panes are merged in.
fn exact_aggs() -> Vec<AggSpec> {
    [
        (AggFunc::Count, None, "n"),
        (AggFunc::Sum, Some("x"), "s"),
        (AggFunc::Avg, Some("x"), "mean"),
        (AggFunc::Min, Some("x"), "lo"),
        (AggFunc::Max, Some("x"), "hi"),
        (AggFunc::First, Some("x"), "fst"),
        (AggFunc::Last, Some("x"), "lst"),
    ]
    .into_iter()
    .map(|(func, field, name)| AggSpec {
        func,
        field: field.map(String::from),
        expr: None,
        out_name: name.into(),
    })
    .collect()
}

fn render(values: &[Value]) -> String {
    values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|")
}

/// Run the operator with a watermark of `max_ts − lateness` after every
/// event and a final flush at `i64::MAX / 8`; return the output compacted
/// (each retraction cancels one equal insert) as a sorted multiset.
fn run_at_cadence(
    mode: AggMode,
    level: ConsistencyLevel,
    window: WindowSpec,
    events: &[(i64, String, f64)],
    lateness: i64,
) -> Result<Vec<String>, TestCaseError> {
    let schema = schema();
    let mut op = WindowAggregateOp::new(&schema, window, &["g"], exact_aggs(), mode)
        .unwrap()
        .with_consistency(level);
    let mut out = Vec::new();
    let mut max_ts = i64::MIN;
    for (i, (ts, g, x)) in events.iter().enumerate() {
        let e = Event::new(
            EventId(i as u64),
            "s",
            TimestampMs(*ts),
            Record::from_iter([Value::from(g.as_str()), Value::Float(*x)]),
            Arc::clone(&schema),
        );
        op.on_event(&e, &mut out).unwrap();
        max_ts = max_ts.max(*ts);
        op.on_watermark(TimestampMs(max_ts - lateness), &mut out).unwrap();
    }
    op.on_watermark(TimestampMs(i64::MAX / 8), &mut out).unwrap();
    // Disorder never exceeds the lateness, so nothing is too late.
    prop_assert_eq!(op.late_events, 0);
    if level == ConsistencyLevel::Watermark {
        prop_assert!(out.iter().all(|e| !e.is_retraction()));
    }
    let mut live: BTreeMap<String, i64> = BTreeMap::new();
    for e in &out {
        *live.entry(render(e.payload.values())).or_default() +=
            if e.is_retraction() { -1 } else { 1 };
    }
    let mut rows = Vec::new();
    for (row, n) in live {
        prop_assert!(n >= 0, "retracted a row never inserted: {}", row);
        rows.extend(std::iter::repeat_n(row, n as usize));
    }
    Ok(rows)
}

/// Every non-empty (window, group) of `events`, aggregated from scratch.
fn naive_windows(window: WindowSpec, events: &[(i64, String, f64)]) -> Vec<String> {
    let (width, slide) = match window {
        WindowSpec::Tumbling { width_ms } => (width_ms, width_ms),
        WindowSpec::Sliding { width_ms, slide_ms } => (width_ms, slide_ms),
        _ => unreachable!("time windows only"),
    };
    // (window start, group) → members as (ts, arrival, x).
    type Cell = Vec<(i64, usize, f64)>;
    let mut cells: BTreeMap<(i64, String), Cell> = BTreeMap::new();
    for (arrival, (ts, g, x)) in events.iter().enumerate() {
        let mut s = ts.div_euclid(slide) * slide;
        while s > ts - width {
            cells.entry((s, g.clone())).or_default().push((*ts, arrival, *x));
            s -= slide;
        }
    }
    let mut rows: Vec<String> = cells
        .into_iter()
        .map(|((s, g), mut members)| {
            // First/last by event time, ties by arrival.
            members.sort_by_key(|m| (m.0, m.1));
            let xs: Vec<f64> = members.iter().map(|m| m.2).collect();
            let sum: f64 = xs.iter().sum();
            render(&[
                Value::from(g.as_str()),
                Value::Timestamp(TimestampMs(s)),
                Value::Timestamp(TimestampMs(s + width)),
                Value::Int(xs.len() as i64),
                Value::Float(sum),
                Value::Float(sum / xs.len() as f64),
                Value::Float(xs.iter().copied().fold(f64::INFINITY, f64::min)),
                Value::Float(xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                Value::Float(xs[0]),
                Value::Float(xs[xs.len() - 1]),
            ])
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn watermark_after_every_event_matches_naive_recompute(
        steps in proptest::collection::vec(
            // (time step, long-gap roll, lag, group, x)
            (0i64..40, 0u8..12, 0i64..1_000, 0u8..3, -50i64..50),
            1..150,
        ),
        disorder in 0i64..300,
        slack in 0i64..150,
        slide in 1i64..250,
        mult in 1i64..8,
    ) {
        // Event time advances in small steps with occasional long gaps
        // (empty windows); each event lags the clock by at most
        // `disorder`, and the watermark trails the maximum by at least
        // that much. One event in ten lags by exactly `disorder`, and
        // one case in three has no slack, so events land right on the
        // watermark (the edge of finality and pruning).
        let mut clock = 0i64;
        let events: Vec<(i64, String, f64)> = steps
            .iter()
            .map(|&(step, roll, lag, g, x)| {
                clock += step + if roll == 0 { 1_500 + 40 * step } else { 0 };
                let lag = if lag >= 900 { disorder } else { lag % (disorder + 1) };
                (clock - lag, format!("g{g}"), x as f64)
            })
            .collect();
        let lateness = disorder + (slack - 50).max(0);
        let window = if mult == 1 {
            WindowSpec::Tumbling { width_ms: slide }
        } else {
            WindowSpec::Sliding { width_ms: slide * mult, slide_ms: slide }
        };
        let expected = naive_windows(window, &events);
        for level in [ConsistencyLevel::Watermark, ConsistencyLevel::Speculative] {
            for mode in [AggMode::Incremental, AggMode::Recompute] {
                let got = run_at_cadence(mode, level, window, &events, lateness)?;
                prop_assert_eq!(&got, &expected, "{:?} {:?} {:?} lateness {}", level, mode, window, lateness);
            }
        }
    }
}
