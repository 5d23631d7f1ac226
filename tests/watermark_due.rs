//! `Operator::watermark_due` is exact (DESIGN.md D15): handing an
//! operator a watermark only when one is due gives the same outputs and
//! the same counters as handing it the watermark after every event, the
//! runtime's cadence.
//!
//! Covered: time-window aggregates at both consistency levels, tumbling
//! and sliding, in both aggregation modes; count windows (never due);
//! session windows; and a top-k operator on the trait's default (every
//! watermark due). Streams carry ticks later than the lateness bound and
//! gaps in event time.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use evdb::cq::aggregate::{AggFunc, AggMode, AggSpec, WindowAggregateOp};
use evdb::cq::op::{OpStats, Operator};
use evdb::cq::window::WindowSpec;
use evdb::cq::{ConsistencyLevel, TopKOp};
use evdb::types::{DataType, Event, EventId, Record, Schema, TimestampMs, Value};

const LATENESS_MS: i64 = 40;

fn schema() -> Arc<Schema> {
    Schema::of(&[("g", DataType::Str), ("x", DataType::Int)])
}

fn aggs() -> Vec<AggSpec> {
    [
        (AggFunc::Count, None, "n"),
        (AggFunc::Sum, Some("x"), "s"),
        (AggFunc::Max, Some("x"), "hi"),
        (AggFunc::First, Some("x"), "fst"),
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

fn aggregate(window: WindowSpec, mode: AggMode, level: ConsistencyLevel) -> Box<dyn Operator> {
    Box::new(
        WindowAggregateOp::new(&schema(), window, &["g"], aggs(), mode)
            .unwrap()
            .with_consistency(level),
    )
}

/// Builds a fresh operator.
type Make = Box<dyn Fn() -> Box<dyn Operator>>;

/// Every operator under test, by name.
fn operators() -> Vec<(String, Make)> {
    let mut ops: Vec<(String, Make)> = Vec::new();
    let shapes = [
        WindowSpec::Tumbling { width_ms: 100 },
        WindowSpec::Sliding { width_ms: 300, slide_ms: 100 },
    ];
    for window in shapes {
        for mode in [AggMode::Incremental, AggMode::Recompute] {
            for level in [ConsistencyLevel::Watermark, ConsistencyLevel::Speculative] {
                ops.push((
                    format!("{window:?} {mode:?} {level:?}"),
                    Box::new(move || aggregate(window, mode, level)),
                ));
            }
        }
    }
    for window in [WindowSpec::CountTumbling { count: 3 }, WindowSpec::Session { gap_ms: 60 }] {
        ops.push((
            format!("{window:?}"),
            Box::new(move || aggregate(window, AggMode::Incremental, ConsistencyLevel::Watermark)),
        ));
    }
    ops.push((
        "top-k (default due)".into(),
        Box::new(|| Box::new(TopKOp::new(&schema(), "x", 2, 150).unwrap())),
    ));
    ops
}

/// Ticks with some later than the lateness bound and gaps in event time.
fn events(seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0i64;
    (0..400)
        .map(|i| {
            now += rng.gen_range(0..15);
            if rng.gen_bool(0.02) {
                now += rng.gen_range(200..2_000);
            }
            let ts = if rng.gen_bool(0.1) { now - rng.gen_range(0..200) } else { now };
            let g = ["a", "b", "c"][rng.gen_range(0..3usize)];
            Event::new(
                EventId(i),
                "s",
                TimestampMs(ts),
                Record::from_iter([Value::from(g), Value::Int(rng.gen_range(0..100))]),
                schema(),
            )
        })
        .collect()
}

/// Run `op` over `events`, a watermark (max event time − lateness) after
/// each one — always, or only when due — then a final flush. Returns
/// every output as text, the counters and the retained state, and how
/// many watermarks were skipped.
fn drive(mut op: Box<dyn Operator>, events: &[Event], only_when_due: bool) -> ((Vec<String>, OpStats, usize), usize) {
    let mut out = Vec::new();
    let mut max_ts = i64::MIN;
    let mut skipped = 0;
    let mut step = |op: &mut Box<dyn Operator>, wm: TimestampMs, out: &mut Vec<Event>| {
        if only_when_due && wm < op.watermark_due() {
            skipped += 1;
        } else {
            op.on_watermark(wm, out).unwrap();
        }
    };
    for e in events {
        op.on_event(e, &mut out).unwrap();
        max_ts = max_ts.max(e.timestamp.0);
        step(&mut op, TimestampMs(max_ts - LATENESS_MS), &mut out);
    }
    let state = op.state_size();
    step(&mut op, TimestampMs(i64::MAX / 8), &mut out);
    let rows = out
        .iter()
        .map(|e| format!("{} {} {} {}", e.id.0, e.timestamp.0, e.retraction, e.payload))
        .collect();
    ((rows, op.op_stats(), state), skipped)
}

#[test]
fn watermarks_only_when_due_change_nothing() {
    for (name, make) in operators() {
        let mut skipped = 0;
        for seed in 0..40 {
            let events = events(seed);
            let (every, _) = drive(make(), &events, false);
            let (due, skips) = drive(make(), &events, true);
            assert_eq!(every, due, "{name}, seed {seed}");
            skipped += skips;
        }
        // Sessions and the default are due at every watermark; every
        // other operator here skips most of them.
        let always_due = name.starts_with("Session") || name.starts_with("top-k");
        assert_eq!(skipped == 0, always_due, "{name}: {skipped} watermarks skipped");
    }
}
