//! Property tests for the CQ engine's window aggregation, checked against
//! a brute-force oracle that shares no code with the engine's aggregation
//! (`WindowAggregateOp`, its pane store and accumulators): for every
//! tumbling or sliding window that holds data, the oracle takes the
//! events inside it, groups them and aggregates each group from the
//! functions' definitions. Rows compare as sorted multisets, floats
//! within a relative tolerance (panes merge partial sums in another
//! order than one pass over the window does). Window assignment and
//! count windows are checked on their own.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use evdb::cq::aggregate::{AggFunc, AggSpec, WindowAggregateOp};
use evdb::cq::op::Operator;
use evdb::cq::window::WindowSpec;
use evdb::cq::ConsistencyLevel;
use evdb::types::{DataType, Event, EventId, Record, Schema, TimestampMs, Value};

/// One input event: (event time, group field `g`, group field `h`, `x`).
type Tick = (i64, String, i64, f64);

fn schema() -> Arc<Schema> {
    Schema::of(&[("g", DataType::Str), ("h", DataType::Int), ("x", DataType::Float)])
}

fn event(i: usize, (ts, g, h, x): &Tick, schema: &Arc<Schema>) -> Event {
    Event::new(
        EventId(i as u64),
        "s",
        TimestampMs(*ts),
        Record::from_iter([Value::from(g.as_str()), Value::Int(*h), Value::Float(*x)]),
        Arc::clone(schema),
    )
}

/// Every aggregate function, in output order.
fn aggs() -> Vec<AggSpec> {
    [
        (AggFunc::Count, None, "n"),
        (AggFunc::Sum, Some("x"), "s"),
        (AggFunc::Avg, Some("x"), "mean"),
        (AggFunc::Min, Some("x"), "lo"),
        (AggFunc::Max, Some("x"), "hi"),
        (AggFunc::StdDev, Some("x"), "sd"),
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

/// `GROUP BY g`, or `GROUP BY g, h`.
fn group_by(two: bool) -> &'static [&'static str] {
    if two {
        &["g", "h"]
    } else {
        &["g"]
    }
}

/// The oracle: every non-empty (window, group) of `events`, each
/// aggregated from scratch over the events inside the window.
fn oracle(window: WindowSpec, two: bool, events: &[Tick]) -> Vec<Vec<Value>> {
    let (width, slide) = match window {
        WindowSpec::Tumbling { width_ms } => (width_ms, width_ms),
        WindowSpec::Sliding { width_ms, slide_ms } => (width_ms, slide_ms),
        _ => unreachable!("time windows only"),
    };
    // A window is [s, s + width) for each multiple s of the slide; the
    // ones that hold data start in (ts - width, ts] for some event.
    let starts: BTreeSet<i64> = events
        .iter()
        .flat_map(|(ts, ..)| {
            let first = (ts - width).div_euclid(slide) * slide + slide;
            (first..=*ts).step_by(slide as usize)
        })
        .collect();
    let mut rows = Vec::new();
    for s in starts {
        // Group key → members as (ts, arrival, x).
        let mut groups: BTreeMap<Vec<Value>, Vec<(i64, usize, f64)>> = BTreeMap::new();
        for (arrival, (ts, g, h, x)) in events.iter().enumerate() {
            if s <= *ts && *ts < s + width {
                let mut key = vec![Value::from(g.as_str())];
                if two {
                    key.push(Value::Int(*h));
                }
                groups.entry(key).or_default().push((*ts, arrival, *x));
            }
        }
        for (key, members) in groups {
            let xs: Vec<f64> = members.iter().map(|m| m.2).collect();
            let n = xs.len() as f64;
            let sum: f64 = xs.iter().sum();
            let mean = sum / n;
            let sd = if xs.len() < 2 {
                Value::Null
            } else {
                Value::Float((xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)).sqrt())
            };
            // First and last by event time, ties by arrival.
            let first = members.iter().min_by_key(|m| (m.0, m.1)).map(|m| m.2);
            let last = members.iter().max_by_key(|m| (m.0, m.1)).map(|m| m.2);
            let mut row = key;
            row.extend([
                Value::Timestamp(TimestampMs(s)),
                Value::Timestamp(TimestampMs(s + width)),
                Value::Int(xs.len() as i64),
                Value::Float(sum),
                Value::Float(mean),
                Value::Float(xs.iter().copied().fold(f64::INFINITY, f64::min)),
                Value::Float(xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                sd,
                Value::Float(first.expect("a group has members")),
                Value::Float(last.expect("a group has members")),
            ]);
            rows.push(row);
        }
    }
    rows
}

/// Equal, floats within a relative tolerance (and -0.0 == 0.0).
fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

/// `got` and `want` are the same multiset of rows: sorted by group key
/// and window bounds (exact values), then compared cell by cell.
fn assert_rows_match(mut got: Vec<Vec<Value>>, mut want: Vec<Vec<Value>>, two: bool) -> Result<(), TestCaseError> {
    let key = if two { 4 } else { 3 };
    got.sort_by(|a, b| a[..key].cmp(&b[..key]));
    want.sort_by(|a, b| a[..key].cmp(&b[..key]));
    prop_assert_eq!(got.len(), want.len(), "row count\n got: {:?}\nwant: {:?}", got, want);
    for (g, w) in got.iter().zip(&want) {
        prop_assert!(g.len() == w.len() && g.iter().zip(w).all(|(a, b)| close(a, b)), "\n got: {:?}\nwant: {:?}", g, w);
    }
    Ok(())
}

/// Run the operator and flush once at the end.
fn run(window: WindowSpec, two: bool, events: &[Tick]) -> Vec<Vec<Value>> {
    let schema = schema();
    let mut op = WindowAggregateOp::new(&schema, window, group_by(two), aggs()).unwrap();
    let mut out = Vec::new();
    for (i, tick) in events.iter().enumerate() {
        op.on_event(&event(i, tick, &schema), &mut out).unwrap();
    }
    op.on_watermark(TimestampMs(i64::MAX / 2), &mut out).unwrap();
    out.into_iter().map(|e| e.payload.values().to_vec()).collect()
}

/// Events sorted by time (watermark-driven closing assumes in-order
/// arrival within the allowed lateness; this is the zero-lateness core).
fn arb_events() -> impl Strategy<Value = Vec<Tick>> {
    proptest::collection::vec((0i64..5_000, 0u8..3, 0i64..2, -100.0f64..100.0), 1..120).prop_map(|mut v| {
        v.sort_by_key(|(t, ..)| *t);
        v.into_iter()
            .map(|(t, g, h, x)| (t, format!("g{g}"), h, (x * 100.0).round() / 100.0))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn incremental_equals_oracle_tumbling(
        events in arb_events(),
        width in 1i64..2_000,
        two in any::<bool>(),
    ) {
        let w = WindowSpec::Tumbling { width_ms: width };
        assert_rows_match(run(w, two, &events), oracle(w, two, &events), two)?;
    }

    #[test]
    fn incremental_equals_oracle_sliding(
        events in arb_events(),
        slide in 1i64..500,
        mult in 1i64..6,
        two in any::<bool>(),
    ) {
        let w = WindowSpec::Sliding { width_ms: slide * mult, slide_ms: slide };
        assert_rows_match(run(w, two, &events), oracle(w, two, &events), two)?;
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
        ).unwrap();
        let mut out = Vec::new();
        for (i, tick) in events.iter().enumerate() {
            op.on_event(&event(i, tick, &schema), &mut out).unwrap();
        }
        prop_assert_eq!(out.len(), events.len() / count);
        for e in &out {
            let n_idx = e.schema.index_of("n").unwrap();
            prop_assert_eq!(e.payload.get(n_idx), Some(&Value::Int(count as i64)));
        }
    }
}

// ---------------------------------------------------------------------
// Cadence: the runtime advances a query's watermark after every event,
// so window closing, pruning and (Speculative) revision run on every
// push, not once at the end. The same oracle checks the net answer.
// ---------------------------------------------------------------------

/// Run the operator with a watermark of `max_ts − lateness` after every
/// event and a final flush at `i64::MAX / 8`; return the live rows (each
/// retraction cancels one equal insert).
fn run_at_cadence(
    level: ConsistencyLevel,
    window: WindowSpec,
    two: bool,
    events: &[Tick],
    lateness: i64,
) -> Result<Vec<Vec<Value>>, TestCaseError> {
    let schema = schema();
    let mut op = WindowAggregateOp::new(&schema, window, group_by(two), aggs())
        .unwrap()
        .with_consistency(level);
    let mut out = Vec::new();
    let mut max_ts = i64::MIN;
    for (i, tick) in events.iter().enumerate() {
        op.on_event(&event(i, tick, &schema), &mut out).unwrap();
        max_ts = max_ts.max(tick.0);
        op.on_watermark(TimestampMs(max_ts - lateness), &mut out).unwrap();
    }
    op.on_watermark(TimestampMs(i64::MAX / 8), &mut out).unwrap();
    // Disorder never exceeds the lateness, so nothing is too late.
    prop_assert_eq!(op.late_events, 0);
    if level == ConsistencyLevel::Watermark {
        prop_assert!(out.iter().all(|e| !e.is_retraction()));
    }
    // A retraction is the very record it cancels, so rows match exactly
    // here; the rendered form keys them.
    let mut live: BTreeMap<String, (Vec<Value>, i64)> = BTreeMap::new();
    for e in &out {
        let slot = live.entry(e.payload.to_string()).or_insert_with(|| (e.payload.values().to_vec(), 0));
        slot.1 += if e.is_retraction() { -1 } else { 1 };
    }
    let mut rows = Vec::new();
    for (rendered, (row, n)) in live {
        prop_assert!(n >= 0, "retracted a row never inserted: {}", rendered);
        rows.extend(std::iter::repeat_n(row, n as usize));
    }
    Ok(rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn watermark_after_every_event_matches_naive_recompute(
        steps in proptest::collection::vec(
            // (time step, long-gap roll, lag, group, x)
            (0i64..40, 0u8..12, 0i64..1_000, 0u8..4, -50i64..50),
            1..150,
        ),
        disorder in 0i64..300,
        slack in 0i64..150,
        slide in 1i64..250,
        mult in 1i64..8,
        two in any::<bool>(),
    ) {
        // Event time advances in small steps with occasional long gaps
        // (empty windows); each event lags the clock by at most
        // `disorder`, and the watermark trails the maximum by at least
        // that much. One event in ten lags by exactly `disorder`, and
        // one case in three has no slack, so events land right on the
        // watermark (the edge of finality and pruning).
        let mut clock = 0i64;
        let events: Vec<Tick> = steps
            .iter()
            .map(|&(step, roll, lag, g, x)| {
                clock += step + if roll == 0 { 1_500 + 40 * step } else { 0 };
                let lag = if lag >= 900 { disorder } else { lag % (disorder + 1) };
                (clock - lag, format!("g{}", g % 2), i64::from(g / 2), x as f64)
            })
            .collect();
        let lateness = disorder + (slack - 50).max(0);
        let window = if mult == 1 {
            WindowSpec::Tumbling { width_ms: slide }
        } else {
            WindowSpec::Sliding { width_ms: slide * mult, slide_ms: slide }
        };
        for level in [ConsistencyLevel::Watermark, ConsistencyLevel::Speculative] {
            let got = run_at_cadence(level, window, two, &events, lateness)?;
            assert_rows_match(got, oracle(window, two, &events), two)?;
        }
    }
}
