//! Golden tests for the CQL surface: each query runs over the same fixed
//! event sequence and must produce exactly the expected rows, in order.
//! Catches regressions anywhere in the parse → plan → window → aggregate
//! → having → project chain.

use std::sync::Arc;

use evdb::cq::aggregate::AggMode;
use evdb::cq::compile_query;
use evdb::types::{DataType, Event, EventId, Record, Schema, TimestampMs, Value};

fn schema() -> Arc<Schema> {
    Schema::of(&[
        ("sym", DataType::Str),
        ("px", DataType::Float),
        ("qty", DataType::Int),
    ])
}

/// (ts_ms, sym, px, qty) — two symbols over three 1-second windows.
fn fixture() -> Vec<(i64, &'static str, f64, i64)> {
    vec![
        (100, "A", 10.0, 5),
        (200, "B", 100.0, 1),
        (600, "A", 20.0, 10),
        (1_100, "A", 30.0, 2),
        (1_200, "B", 110.0, 4),
        (1_300, "B", 90.0, 6),
        (2_500, "A", 40.0, 8),
    ]
}

/// Run a query over the fixture (flushing at the end) and render rows.
fn run(cql: &str) -> Vec<String> {
    let schema = schema();
    let mut p = compile_query(cql, &schema, AggMode::Incremental).unwrap();
    let mut out = Vec::new();
    for (i, (ts, sym, px, qty)) in fixture().into_iter().enumerate() {
        let e = Event::new(
            EventId(i as u64),
            "ticks",
            TimestampMs(ts),
            Record::from_iter([Value::from(sym), Value::Float(px), Value::Int(qty)]),
            Arc::clone(&schema),
        );
        out.extend(p.push(&e).unwrap());
        out.extend(p.advance_watermark(TimestampMs(ts)).unwrap());
    }
    out.extend(p.advance_watermark(TimestampMs(1_000_000)).unwrap());
    out.iter().map(|e| e.payload.to_string()).collect()
}

/// A query's rows must be exactly the golden ones.
fn golden(cql: &str, expected: &[&str]) {
    let got = run(cql);
    assert_eq!(got, expected.to_vec(), "query `{cql}`\n got: {got:#?}");
}

#[test]
fn select_where_projection() {
    golden(
        "SELECT sym, px * qty AS notional FROM ticks WHERE px >= 30",
        &["['B', 100.0]", "['A', 60.0]", "['B', 440.0]", "['B', 540.0]", "['A', 320.0]"],
    );
}

#[test]
fn tumbling_grouped_aggregates() {
    golden(
        "SELECT sym, count() AS n, sum(qty) AS vol, min(px) AS lo, max(px) AS hi \
         FROM ticks [RANGE 1 s] GROUP BY sym",
        &[
            // window [0,1000): A{10,20}, B{100}  (SUM is always FLOAT)
            "['A', 2, 15.0, 10.0, 20.0]",
            "['B', 1, 1.0, 100.0, 100.0]",
            // window [1000,2000): A{30}, B{110,90}
            "['A', 1, 2.0, 30.0, 30.0]",
            "['B', 2, 10.0, 90.0, 110.0]",
            // window [2000,3000): A{40}
            "['A', 1, 8.0, 40.0, 40.0]",
        ],
    );
}

#[test]
fn having_filters_groups() {
    golden(
        "SELECT sym, avg(px) AS apx FROM ticks [RANGE 1 s] GROUP BY sym HAVING avg(px) > 50",
        &["['B', 100.0]", "['B', 100.0]"],
    );
}

#[test]
fn sliding_window_counts() {
    golden(
        "SELECT count() AS n FROM ticks [RANGE 2 s SLIDE 1 s]",
        &[
            "[3]", // [-1000,1000): 3 events... window start -1000? aligned: [-1000,1000) holds ts<1000
            "[6]", // [0,2000)
            "[4]", // [1000,3000)
            "[1]", // [2000,4000)
        ],
    );
}

#[test]
fn rows_window_with_case_severity() {
    golden(
        "SELECT sym, CASE WHEN max(px) >= 100 THEN 'hot' ELSE 'calm' END AS label \
         FROM ticks [ROWS 2] GROUP BY sym",
        &[
            "['A', 'calm']", // A's first two: 10, 20
            "['B', 'hot']",  // B's first two: 100, 110
            "['A', 'calm']", // A: 30, 40
        ],
    );
}

#[test]
fn session_window_aggregates() {
    // Global session with a 600ms gap: events at 100..1300 form one
    // session (max gap 500ms... check: 200→600 is 400, 600→1100 is 500,
    // 1300→2500 is 1200 > 600 → split), then {2500}.
    golden(
        "SELECT count() AS n, sum(qty) AS vol FROM ticks [SESSION 600 ms]",
        &["[6, 28.0]", "[1, 8.0]"],
    );
}

#[test]
fn stddev_and_first_last() {
    golden(
        "SELECT first(px) AS f, last(px) AS l, stddev(px) AS sd \
         FROM ticks [RANGE 10 s]",
        &["[10.0, 40.0, 41.5187851918806]"],
    );
}
